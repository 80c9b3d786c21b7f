import gc
import random
import weakref

import pytest

from conftest import orthant_ring, polytope_mode, random_coeff, random_poly, ring_for
from lgb.coeffs import FieldSpec
from lgb.cli import parse_poly
from lgb.laurent import LaurentPoly, Term
from lgb.lattice import box_points, vsub
from lgb.reduction import LaurentMode, PolynomialMode, reduce


def test_quoted_division_fixture(q_ring2):
    f = parse_poly(q_ring2, "2*x^2*y^-1 + x^-3*y - 3*y^-5")
    g1 = parse_poly(q_ring2, "x^-2*y^-1 + x*y")
    g2 = parse_poly(q_ring2, "x^-2*y + x^2*y^-1")
    quotients, remainder = reduce(f, [g1, g2])
    assert remainder == parse_poly(q_ring2, "-y^3 + 2*x^2*y^-1 - 3*x^-1*y^-1")
    assert quotients[0] == parse_poly(q_ring2, "x^-1*y^2 + 3*x^-2*y^-2")
    assert quotients[1] == parse_poly(q_ring2, "-3*x^-2*y^-4")


def test_self_and_empty_division(q_ring2):
    g = parse_poly(q_ring2, "x^-2*y^-1 + x*y")
    quotients, remainder = reduce(g, [g])
    assert remainder.is_zero()
    assert quotients == [q_ring2.one()]
    f = parse_poly(q_ring2, "x + y")
    quotients, remainder = reduce(f, [])
    assert remainder == f and quotients == []


def test_zero_divisor_rejected(q_ring2):
    with pytest.raises(ValueError):
        reduce(q_ring2.one(), [q_ring2.zero()])


def _rings():
    out = []
    for field in (FieldSpec.rational(), FieldSpec.finite(7)):
        for n in (2, 3):
            for score in ("degmin", "min"):
                out.append(ring_for(field, n, score))
    return out


def test_division_identity_random():
    rng = random.Random(2024)
    rings = _rings()
    per_ring = 200 // len(rings) + 1
    for ring in rings:
        for _ in range(per_ring):
            f = random_poly(ring, rng, terms=3, radius=2)
            gens = [random_poly(ring, rng, terms=2, radius=2) for _ in range(2)]
            quotients, remainder = reduce(f, gens)
            acc = remainder
            for q, g in zip(quotients, gens):
                acc = acc + q * g
            assert acc == f


def test_remainder_irreducible(q_ring2):
    rng = random.Random(404)
    for _ in range(25):
        f = random_poly(q_ring2, rng, terms=3, radius=2)
        gens = [random_poly(q_ring2, rng, terms=2, radius=2) for _ in range(2)]
        _, remainder = reduce(f, gens)
        for exp in remainder.support():
            for i in range(3):
                for g in gens:
                    lm_i = g.cone_leading_data(i)[0]
                    shift = vsub(exp, lm_i)
                    # the loop guard must reject every cone/divisor pair
                    assert g.shifted_leading_monomial(shift) != exp


def test_quotient_terms_bounded(q_ring2):
    rng = random.Random(11)
    order = q_ring2.order
    for _ in range(25):
        f = random_poly(q_ring2, rng, terms=3, radius=2)
        gens = [random_poly(q_ring2, rng, terms=2, radius=2) for _ in range(2)]
        quotients, _ = reduce(f, gens)
        lm_f = f.leading_data()[0]
        for q, g in zip(quotients, gens):
            for exp in q.support():
                assert order.key(g.shifted_leading_monomial(exp)) <= order.key(lm_f)


def test_guard_rejects_naive_cancellation(q_ring2):
    # f = x + y, g = x^-1 y + y^-1: the naive quotient lm(f)/lm(g) would
    # strictly grow the leading monomial, so the guard must refuse it
    f = parse_poly(q_ring2, "x + y")
    g = parse_poly(q_ring2, "x^-1*y + y^-1")
    lm_f = f.leading_data()[0]
    lm_g = g.leading_data()[0]
    assert lm_f == (1, 0) and lm_g == (-1, 1)
    naive = vsub(lm_f, lm_g)
    grown = g.shifted_leading_monomial(naive)
    assert grown != lm_f
    assert q_ring2.order.key(grown) > q_ring2.order.key(lm_f)
    _, remainder = reduce(f, [g])
    assert remainder == f


def _modes():
    """(name, mode) of every layer: the Laurent mode on the standard and
    the orthant ring, a one-vertex polytope (the weight order of (1,2)) and
    a two-vertex polytope."""
    from test_affinoid import example71

    yield "polynomial", LaurentMode(ring_for(FieldSpec.rational(), 2, "degmin"))
    yield "orthant", LaurentMode(orthant_ring(2))
    yield "one vertex (1,2)", polytope_mode([(1, 2)])[1]
    yield "example 7.1", example71()[3]


def _memo_cases():
    """(name, adapter, direct, polynomials): the reducer-test memo of the
    division adapter over each mode against lm(X^shift g) computed from the
    product."""
    rng = random.Random(77)
    for name, mode in _modes():
        polys = [random_poly(mode.ring, rng, terms=4, radius=3) for _ in range(5)]
        yield name, PolynomialMode(mode), lambda g, t, m=mode: m.leading(g.term_mul(t)).exp, polys


def test_memoized_shifted_lm_matches_direct_computation():
    rng = random.Random(5)
    for name, adapter, direct, polys in _memo_cases():
        queries = [(g, t) for g in polys for t in box_points(2, 4)] * 2
        rng.shuffle(queries)
        for g, t in queries:
            assert adapter.shifted_lm(g, t) == direct(g, t), (name, g, t)


def test_adapter_term_key_is_the_modes():
    # the adapter reads the exponent half from its table and folds in v(c)
    # as the mode does; a second ask of an exponent hits the table
    rng = random.Random(31)
    for name, mode in _modes():
        adapter = PolynomialMode(mode)
        terms = [
            (random_coeff(mode.ring, rng, 40), tuple(rng.randint(-4, 4) for _ in range(2)))
            for _ in range(150)
        ]
        for c, e in terms + terms[::-1]:
            assert adapter.term_key(c, e) == mode.term_key(c, e), (name, c, e)
        assert set(adapter._keys) == {e for _, e in terms}, name


def test_repeated_reducer_test_is_computed_once(monkeypatch, q_ring2):
    shifts = []
    real = PolynomialMode._shifted_lm

    def counting(self, g, shift):
        shifts.append(shift)
        return real(self, g, shift)

    # the adapter's one compute path of lm(X^shift g), for every layer
    monkeypatch.setattr(PolynomialMode, "_shifted_lm", counting)
    g = parse_poly(q_ring2, "x^-2*y^-1 + x*y")
    ring, mode = polytope_mode([(1, 2)])
    h = parse_poly(ring, "2*x^-1 + y^2")
    series = PolynomialMode(mode)
    for adapter, f in ((PolynomialMode(LaurentMode(q_ring2)), g), (series, h)):
        shifts.clear()
        for _ in range(3):
            adapter.shifted_lm(f, (1, 2))
        adapter.shifted_lm(f, (2, 1))
        adapter.shifted_lm(f, (1, 2))
        assert shifts == [(1, 2), (2, 1)]


class _Table(dict):
    """A dict that can be weakly referenced."""


def _spy(monkeypatch, module, name, tables=None):
    """Replace an adapter class with a subclass that records a weak
    reference to every instance and, in ``tables``, to its key table."""
    refs = []
    real = getattr(module, name)

    class Spy(real):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))
            if tables is not None:
                self._keys = _Table()
                tables.append(weakref.ref(self._keys))

    monkeypatch.setattr(module, name, Spy)
    return refs


def _exponent_keyed(obj, n, seen=()):
    """The attribute paths of ``obj`` (slots and instance dict) that hold a
    dict, or a dict of dicts, with an exponent vector (a tuple of n ints)
    among its keys; a polynomial's own terms do not count."""
    names = [slot for cls in type(obj).__mro__ for slot in getattr(cls, "__slots__", ())]
    names += list(getattr(obj, "__dict__", {}))
    found = []
    for name in names:
        if isinstance(obj, LaurentPoly) and name == "_terms":
            continue
        stack = [getattr(obj, name, None)]
        while stack:
            value = stack.pop()
            if isinstance(value, dict):
                if any(
                    isinstance(k, tuple) and len(k) == n and all(type(x) is int for x in k)
                    for k in value
                ):
                    found.append(f"{type(obj).__name__}.{name}")
                    break
                stack.extend(v for v in value.values() if isinstance(v, dict))
    return found


def test_division_adapter_lives_for_one_engine_call(monkeypatch, q_ring2):
    from lgb import affinoid, groebner, reduction
    from lgb.cli import parse_problem

    tables = []
    refs = _spy(monkeypatch, groebner, "PolynomialMode", tables)
    reduce_refs = _spy(monkeypatch, reduction, "PolynomialMode", tables)
    gens = [parse_poly(q_ring2, "x^2*y - 1"), parse_poly(q_ring2, "x*y^2 - x")]
    basis = groebner.buchberger(gens).basis
    assert groebner.is_groebner(basis)[0]
    reduction.reduce(parse_poly(q_ring2, "x^3 + y"), basis)
    problem = parse_problem(
        "ring Qp 2\nvars x y\nweight 1 2\norder degmin\nprecision 12\ngens:\n"
        "2*x^-1 + y^2\nx*y + 4\n"
    )
    series_refs = _spy(monkeypatch, affinoid, "PolynomialMode", tables)
    sbasis = affinoid.buchberger_P(problem.series_generators()).basis
    affinoid.reduce_P(problem.series(parse_poly(problem.ring, "x + y")), sbasis)
    gc.collect()
    # one adapter per call, each gone with its key table once its call has
    # returned
    assert len(refs) == 2 and len(reduce_refs) == 1 and len(series_refs) == 2
    assert len(tables) == 5 and all(table() is None for table in tables)
    assert all(ref() is None for ref in refs + reduce_refs + series_refs)
    # and nothing the caller keeps holds an exponent-keyed memo
    mode = problem.mode
    held = [q_ring2, q_ring2.order, *basis, problem.ring, problem.ring.order, mode, mode._laurent]
    held += [h.body for h in sbasis]
    assert [path for obj in held for path in _exponent_keyed(obj, 2)] == []


# -- the surfaces bench/spans.py counts -----------------------------------------
# reduction.steps, reducer_tries and reducer_fires count calls of the
# adapter's leading, shifted_lm and on_fire, and the spair surface counts
# calls of the one S-pair builder, groebner._spair; the fixture-gf9 and
# cap-1-vertex literals were taken from the engine before S-pairs were built
# in one pass and the loop read a reducer table, the cap-1-weight and
# poly0-2 ones before the two layers shared one adapter, and the spair ones
# while each layer had its own S-pair function, so none of these may change
# what a counter counts

COUNTED_PROBLEMS = {
    # std-cones: the quoted GF(9) fixture
    "fixture-gf9": "ring GF 9\nvars x y\norder degmin\ngens:\n"
    "x^2*y + y^-6\nx^3*y^-2 + x^-6*y\nx^-2*y + x^-1*y^-2\n",
    # capped-series: design ideal cap-1 at seed 1, on the one-vertex polytope
    "cap-1-vertex": "ring Qp 2\nvars x y\npolytope (1,2)\norder degmin\nprecision 50\ngens:\n"
    "(-25/2)*x^-2*y^-1 + (-1/6)*y^2 + (-306/5)*x^2*y^2\n(3)*x + (4)*x*y\n",
    # capped-series: the same ideal under the weight (1,2)
    "cap-1-weight": "ring Qp 2\nvars x y\nweight 1 2\norder degmin\nprecision 50\ngens:\n"
    "(-25/2)*x^-2*y^-1 + (-1/6)*y^2 + (-306/5)*x^2*y^2\n(3)*x + (4)*x*y\n",
    # general-cones: instance poly0-2 at seed 1, on a two-vertex polytope
    "poly0-2": "ring Qp 2\nvars x y\npolytope (1,1) (0,1)\norder degmin\nprecision 8\ngens:\n"
    "(-3/5)*y^-1 + (2)\n(-5/3)*x^-1 + (-2/9)\n",
}

COUNTED_CALLS = {
    "fixture-gf9": {
        ("gb", "leading"): 128, ("gb", "shifted_lm"): 1450, ("gb", "on_fire"): 114,
        ("gb", "spair"): 33,
        ("check", "leading"): 104, ("check", "shifted_lm"): 1134, ("check", "on_fire"): 104,
        ("check", "spair"): 27,
    },
    "cap-1-vertex": {
        ("gb", "leading"): 67, ("gb", "shifted_lm"): 339, ("gb", "on_fire"): 60,
        ("gb", "spair"): 18,
        ("check", "leading"): 64, ("check", "shifted_lm"): 310, ("check", "on_fire"): 63,
        ("check", "spair"): 18,
    },
    "cap-1-weight": {
        ("gb", "leading"): 67, ("gb", "shifted_lm"): 339, ("gb", "on_fire"): 60,
        ("gb", "spair"): 18,
        ("check", "leading"): 64, ("check", "shifted_lm"): 310, ("check", "on_fire"): 63,
        ("check", "spair"): 18,
    },
    "poly0-2": {
        ("gb", "leading"): 8, ("gb", "shifted_lm"): 26, ("gb", "on_fire"): 8,
        ("gb", "spair"): 4,
        ("check", "leading"): 8, ("check", "shifted_lm"): 26, ("check", "on_fire"): 8,
        ("check", "spair"): 4,
    },
}


def _count_calls(monkeypatch, text):
    """{(verb, surface): calls} of one gb and one check of a problem file."""
    from lgb import affinoid, groebner
    from lgb.cli import parse_problem

    counts = {}
    verb = [None]

    def counting(owner, name, surface):
        real = getattr(owner, name)

        def wrapped(*args):
            key = (verb[0], surface)
            counts[key] = counts.get(key, 0) + 1
            return real(*args)

        monkeypatch.setattr(owner, name, wrapped)

    for name in ("leading", "shifted_lm", "on_fire"):
        counting(PolynomialMode, name, name)
    counting(groebner, "_spair", "spair")
    problem = parse_problem(text)
    verb[0] = "gb"
    if problem.capped:
        basis = affinoid.buchberger_P(problem.series_generators()).basis
        verb[0] = "check"
        assert affinoid.is_groebner_series(basis)[0]
    else:
        basis = groebner.buchberger(problem.generators).basis
        verb[0] = "check"
        assert groebner.is_groebner(basis)[0]
    return counts


@pytest.mark.parametrize("name", sorted(COUNTED_PROBLEMS))
def test_counted_surfaces_keep_their_call_counts(monkeypatch, name):
    assert _count_calls(monkeypatch, COUNTED_PROBLEMS[name]) == COUNTED_CALLS[name]
