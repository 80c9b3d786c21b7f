import random

import pytest

from fractions import Fraction

from conftest import orthant_ring, reference_compare
from lgb.gmo import (
    GeneralizedOrder,
    ScoreFunction,
    make_order,
    validate_gmo,
)
from lgb.lattice import LatticeError, build_decomposition, rational_rank, solve_rational, vadd


def test_compare_quoted_examples():
    degmin = make_order(2, "degmin")
    assert degmin.key((1, -2)) > degmin.key((-1, -2))
    mino = make_order(2, "min")
    assert mino.key((-2, -2)) > mino.key((0, 2))
    assert degmin.key((3, -4)) == degmin.key((3, -4))
    assert degmin.greatest_tuple((-2, 3), (1, 2)) == (-2, 3)


def test_example_order_of_four_monomials():
    # f = 2xy^-2 + x^-2y^-2 + 3x^-1y^-2 + y^2 ordered two ways
    degmin = make_order(2, "degmin")
    chain = [(1, -2), (-1, -2), (0, 2), (-2, -2)]
    for a, b in zip(chain, chain[1:]):
        assert degmin.key(a) > degmin.key(b)
    mino = make_order(2, "min")
    chain = [(1, -2), (-1, -2), (-2, -2), (0, 2)]
    for a, b in zip(chain, chain[1:]):
        assert mino.key(a) > mino.key(b)


def test_greatest_tuple_for_cone():
    degmin = make_order(2, "degmin")
    assert degmin.greatest_tuple_for_cone(2, [(1, 3), (-1, 2), (-4, -3)]) == (-4, -3)
    assert degmin.greatest_tuple_for_cone(1, [(5, -7)]) == (5, -7)
    # all tuples already inside cone 0: agrees with the plain comparison
    tuples = [(1, 2), (3, 0), (0, 0)]
    assert degmin.greatest_tuple_for_cone(0, tuples) == degmin.greatest_tuple(tuples)
    with pytest.raises(LatticeError):
        degmin.greatest_tuple_for_cone(0)


def test_greatest_for_cone_translation_independent():
    rng = random.Random(9)
    degmin = make_order(2, "degmin")
    cone = degmin.decomposition[2]
    for _ in range(50):
        tuples = [tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(3)]
        best = degmin.greatest_tuple_for_cone(2, tuples)
        # any translation placing everything in the cone gives the same winner
        shift = (0, 0)
        for t in tuples:
            _, v = cone.factorize(t)
            shift = vadd(shift, v)
        extra = vadd(shift, cone.generators[0])
        ref = max(tuples, key=lambda a: (degmin.phi(vadd(extra, a)), vadd(extra, a)))
        by_cmp = None
        for a in tuples:
            if by_cmp is None or reference_compare(degmin, vadd(extra, a), vadd(extra, by_cmp)) > 0:
                by_cmp = a
        assert best == by_cmp


@pytest.mark.parametrize("score", ["min", "degmin"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_validate_builtin_orders(score, n):
    assert validate_gmo(make_order(n, score), sample_radius=3, samples=150).ok


def test_validate_rejects_signed_sum_score():
    d = build_decomposition("standard", 2)
    score = ScoreFunction("custom", 2, rows={0: (1, 1), 1: (1, 1), 2: (1, 1)})
    order = GeneralizedOrder(d, score)
    report = validate_gmo(order, sample_radius=3, samples=100)
    assert not report.ok
    fail = report.failures()[0]
    assert fail.name == "score positive off the zero set"
    assert fail.detail


def test_custom_abs_score_on_orthants():
    d = build_decomposition("orthant", 2)
    rows = {}
    for i, cone in enumerate(d.cones):
        rows[i] = tuple(cone.generators[k][k] for k in range(2))
    order = GeneralizedOrder(d, ScoreFunction("custom", 2, rows=rows))
    assert validate_gmo(order, sample_radius=3, samples=150).ok
    # f of the running example under the absolute-value score
    chain = [(-2, -2), (1, -2), (-1, -2), (0, 2)]
    for a, b in zip(chain, chain[1:]):
        assert order.key(a) > order.key(b)


def test_lex_permutation_tiebreak():
    default = make_order(2, "degmin")
    swapped = make_order(2, "degmin", perm=(1, 0))
    # phi ties on (1,0) vs (0,1); lex order depends on the permutation
    assert default.key((1, 0)) > default.key((0, 1))
    assert swapped.key((1, 0)) < swapped.key((0, 1))


def test_descending_chains_terminate():
    rng = random.Random(31)
    order = make_order(2, "degmin")
    moves = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
    for _ in range(500):
        current = tuple(rng.randint(-8, 8) for _ in range(2))
        steps = 0
        while steps < 10_000:
            nxt = None
            for m in moves:
                cand = vadd(current, m)
                if order.key(cand) < order.key(current):
                    nxt = cand
                    break
            if nxt is None:
                break
            current = nxt
            steps += 1
        assert steps < 10_000
        assert current == (0, 0) or order.key(current) >= order.key((0, 0))


def test_compatibility_inside_cones_random():
    rng = random.Random(13)
    for score in ("min", "degmin"):
        order = make_order(2, score)
        d = order.decomposition
        for _ in range(2500):
            i = rng.randrange(len(d.cones))
            cone = d.cones[i]
            s = (0, 0)
            t = (0, 0)
            for g in cone.generators:
                ks, kt = rng.randint(0, 3), rng.randint(0, 3)
                s = vadd(s, tuple(ks * x for x in g))
                t = vadd(t, tuple(kt * x for x in g))
            r = tuple(rng.randint(-5, 5) for _ in range(2))
            if order.key(r) < order.key(s):
                assert order.key(vadd(r, t)) < order.key(vadd(s, t))


def test_builtin_scores_are_integral():
    rng = random.Random(3)
    for score in ("min", "degmin"):
        order = make_order(3, score)
        for _ in range(300):
            v = tuple(rng.randint(-6, 6) for _ in range(3))
            value = order.phi(v)
            assert value >= 0 and int(value) == value


def _orthant_custom(n):
    d = build_decomposition("orthant", n)
    rows = {i: tuple(c.generators[k][k] for k in range(n)) for i, c in enumerate(d.cones)}
    return GeneralizedOrder(d, ScoreFunction("custom", n, rows=rows))


def _sign(x):
    return (x > 0) - (x < 0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["min", "degmin", "orthant", "perm"])
def test_key_agrees_with_compare(n, kind):
    if kind == "orthant":
        order = _orthant_custom(n)
    elif kind == "perm":
        order = make_order(n, "degmin", perm=tuple(range(n))[::-1])
    else:
        order = make_order(n, kind)
    rng = random.Random(f"{n}:{kind}")
    for _ in range(400):
        u = tuple(rng.randint(-3, 3) for _ in range(n))
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        ku, kv = order.key(u), order.key(v)
        assert _sign(reference_compare(order, u, v)) == (ku > kv) - (ku < kv)
    exps = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(12)]
    best = exps[0]
    for e in exps[1:]:
        if reference_compare(order, e, best) > 0:
            best = e
    assert order.max_exponent(exps) == best


def test_linear_forms_are_shared_and_errors_are_not():
    from lgb.affinoid import PolytopeContext, build_refined_decomposition

    for n, score in ((2, "degmin"), (3, "min")):
        first, second = make_order(n, score), make_order(n, score)
        for i in range(n + 1):
            assert second.linear_form(i) is first.linear_form(i)
    # degmin is not linear on the triangle's whole vertex regions
    triangle = build_refined_decomposition(
        PolytopeContext([(0, 0), (1, 0), (0, 1)]), build_decomposition("standard", 2)
    ).decomposition
    for _ in range(2):
        order = GeneralizedOrder(triangle, ScoreFunction("degmin", 2))
        for _ in range(2):
            with pytest.raises(LatticeError, match="not linear on cone 0"):
                order.linear_form(0)


def test_integral_linear_forms_are_ints():
    """Every entry of a linear form is an int when integral and equals the
    Fraction ``solve_rational`` gives on n independent cone generators."""
    from lgb.affinoid import PolytopeContext, build_refined_decomposition

    orders = [make_order(n, score) for n in (2, 3) for score in ("min", "degmin")]
    orders += [orthant_ring(n).order for n in (2, 3)]
    refined = build_refined_decomposition(
        PolytopeContext([(1, 1), (0, 1)]), build_decomposition("standard", 2)
    ).decomposition
    orders.append(GeneralizedOrder(refined, ScoreFunction("degmin", 2)))
    kinds = set()
    for order in orders:
        for i, cone in enumerate(order.decomposition):
            rows = []
            for g in cone.generators:
                if rational_rank(rows + [list(g)]) > len(rows):
                    rows.append(list(g))
            expected = solve_rational(rows, [Fraction(order.phi(g)) for g in rows])
            form = order.linear_form(i)
            assert form == expected, (order.score.kind, i)
            for x, y in zip(form, expected):
                assert type(x) is (int if y.denominator == 1 else Fraction), (order.score.kind, i, form)
                kinds.add(type(x))
    assert int in kinds
