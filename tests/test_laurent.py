import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    certified_ti,
    collisions,
    orthant_ring,
    polytope_mode,
    random_poly,
    reference_ti_set_general,
    ring_for,
    ti_generator,
    ti_set_general,
)
from lgb.affinoid import PolytopeContext, build_refined_decomposition
from lgb.cli import parse_poly
from lgb.coeffs import FieldSpec
from lgb.gmo import GeneralizedOrder, ScoreFunction, validate_gmo
from lgb.lattice import (
    Cone,
    ConicDecomposition,
    IncompleteSearchError,
    LatticeError,
    _satisfies,
    box_points,
    build_decomposition,
    vadd,
    vdot,
    vsub,
)
from lgb.laurent import (
    LaurentMode,
    LaurentPoly,
    LaurentRing,
    RingError,
    UndefinedLeadingError,
    _int_ineq,
    _ti_cells,
    cone_module,
    format_poly,
)
from lgb.oracle import brute_ti


def poly(ring, mapping):
    return ring.poly(mapping)


def test_arith_basics(q_ring2):
    x = q_ring2.variable(0)
    y = q_ring2.variable(1)
    assert (x + y) + (-y) == x
    f = q_ring2.poly({(1, 1): 1, (0, -1): 1})  # xy + y^-1
    assert y * f == q_ring2.poly({(1, 2): 1, (0, 0): 1})
    assert (f * q_ring2.zero()).is_zero()
    assert f - f == q_ring2.zero()


def test_context_mismatch_rejected(q_ring2, q_ring3):
    with pytest.raises(RingError):
        q_ring2.one() + q_ring3.one()


def test_zero_polynomial_has_no_leading(q_ring2):
    with pytest.raises(UndefinedLeadingError):
        q_ring2.zero().leading_data()


def test_leading_data_examples(q_ring2, q_ring2_min):
    f2 = {(1, -2): 2, (-2, -2): 1, (-1, -2): 3, (0, 2): 1}
    lm, lc, lt = poly(q_ring2, f2).leading_data()
    assert lm == (1, -2) and lc.payload == 2
    lm, lc, _ = poly(q_ring2_min, f2).leading_data()
    assert lm == (1, -2) and lc.payload == 2
    appendix = {(2, -1): 2, (-3, 1): 1, (0, -5): -3}
    lm, lc, _ = poly(q_ring2, appendix).leading_data()
    assert lm == (0, -5) and lc.payload == -3


def test_cone_leading_examples(q_ring2, q_ring2_min):
    f2 = {(1, -2): 2, (-2, -2): 1, (-1, -2): 3, (0, 2): 1}
    fd = poly(q_ring2, f2)
    assert fd.cone_leading_data(0)[0] == (0, 2)
    assert fd.cone_leading_data(1)[0] == (0, 2)
    assert fd.cone_leading_data(2)[0] == (1, -2)
    fm = poly(q_ring2_min, f2)
    assert fm.cone_leading_data(0)[0] == (1, -2)
    assert fm.cone_leading_data(1)[0] == (-2, -2)
    assert fm.cone_leading_data(2)[0] == (1, -2)
    appendix = poly(q_ring2, {(2, -1): 2, (-3, 1): 1, (0, -5): -3})
    assert appendix.cone_leading_data(1)[0] == (-3, 1)


def test_ti_generator_examples(q_ring2, q_ring2_min):
    appendix = poly(q_ring2, {(2, -1): 2, (-3, 1): 1, (0, -5): -3})
    assert ti_generator(appendix, 2) == (1, 2)
    f2 = {(1, -2): 2, (-2, -2): 1, (-1, -2): 3, (0, 2): 1}
    fd = poly(q_ring2, f2)
    assert ti_generator(fd, 0) == (0, 2)
    assert ti_generator(fd, 2) == (0, 1)
    fm = poly(q_ring2_min, f2)
    assert ti_generator(fm, 0) == (2, 2)
    assert ti_generator(fm, 1) == (1, 2)


def test_ti_set_general_examples(q_ring2):
    f2 = poly(q_ring2, {(1, -2): 2, (-2, -2): 1, (-1, -2): 3, (0, 2): 1})
    assert ti_set_general(f2, 1, 6) == [(0, 2)]
    single = poly(q_ring2, {(2, -3): 5})
    for i in range(3):
        assert ti_set_general(single, i, 6) == [(-2, 3)]
        assert ti_generator(single, i) == (-2, 3)


def test_ti_general_matches_descent_random(q_ring2, q_ring2_min):
    """The principal generator of the descent against the certified search
    run directly on the cells, and against direct evaluation."""
    rng = random.Random(101)
    for ring in (q_ring2, q_ring2_min):
        for _ in range(15):
            f = random_poly(ring, rng, terms=3, radius=3)
            for i in range(3):
                gen = ti_generator(f, i)
                assert certified_ti(f, i, 7) == [gen]
                cone = ring.order.decomposition[i]
                assert brute_ti(f, i, 5) == {t for t in box_points(2, 5) if cone.contains(vsub(t, gen))}


def test_principal_descent_tests_each_point_once(monkeypatch, q_ring2, q_ring2_min):
    """The descent from the cone witness asks about each point once: it
    never tests again a point already known to be a member."""
    asked = []
    real = LaurentMode.member

    def member(self, g, t, label):
        asked.append(t)
        return real(self, g, t, label)

    monkeypatch.setattr(LaurentMode, "member", member)
    rng = random.Random(202)
    for ring in (q_ring2, q_ring2_min):
        mode = LaurentMode(ring)
        for _ in range(10):
            f = random_poly(ring, rng, terms=3, radius=3)
            for i in mode.labels:
                asked.clear()
                cone_module(mode, f, i)
                assert len(asked) > 1 and len(set(asked)) == len(asked), asked


def test_ti_membership_against_brute(q_ring2):
    rng = random.Random(55)
    for _ in range(10):
        f = random_poly(q_ring2, rng, terms=3, radius=2)
        for i in range(3):
            gen = ti_generator(f, i)
            cone = q_ring2.order.decomposition[i]
            expected = {t for t in box_points(2, 5) if cone.contains(vsub(t, gen))}
            assert brute_ti(f, i, 5) == expected


def test_lm_i_witness_independent(q_ring2):
    rng = random.Random(7)
    d = q_ring2.order.decomposition
    for _ in range(100):
        f = random_poly(q_ring2, rng, terms=4, radius=3)
        for i in range(3):
            lm_i = f.cone_leading_data(i)[0]
            gen = ti_generator(f, i)
            for _ in range(2):
                extra = (0, 0)
                for g in d[i].generators:
                    k = rng.randint(0, 3)
                    extra = vadd(extra, tuple(k * x for x in g))
                t = vadd(gen, extra)
                assert vsub(f.shifted_leading_monomial(t), t) == lm_i


def test_ti_generator_minimality(q_ring2):
    rng = random.Random(17)
    d = q_ring2.order.decomposition
    for _ in range(100):
        f = random_poly(q_ring2, rng, terms=3, radius=3)
        for i in range(3):
            gen = ti_generator(f, i)
            cone = d[i]
            for _ in range(20):
                w = (0, 0)
                for g in cone.generators:
                    k = rng.randint(0, 4)
                    w = vadd(w, tuple(k * x for x in g))
                assert f.ti_contains(vadd(gen, w), i)
            for h in cone.generators:
                assert not f.ti_contains(vsub(gen, h), i)


def test_generator_proximity_across_cones(q_ring2, q_ring3):
    rng = random.Random(23)
    for ring in (q_ring2, q_ring3):
        ncones = len(ring.order.decomposition.cones)
        for _ in range(30):
            f = random_poly(ring, rng, terms=3, radius=3)
            gens = [ti_generator(f, i) for i in range(ncones)]
            for a in gens:
                for b in gens:
                    assert max(abs(x - y) for x, y in zip(a, b)) <= 1


def test_lm_is_some_cone_lm(q_ring2):
    rng = random.Random(29)
    for _ in range(50):
        f = random_poly(q_ring2, rng, terms=4, radius=3)
        lm = f.leading_data()[0]
        assert any(f.cone_leading_data(i)[0] == lm for i in range(3))


def test_u_intersection_examples(q_ring2):
    mode = LaurentMode(q_ring2)
    f = q_ring2.poly({(1, 0): 1, (0, 1): 1})
    g = q_ring2.poly({(2, 0): 1, (0, 1): 1})
    assert collisions(mode, f, g, 0) == [(2, 0)]
    # self-intersection
    assert collisions(mode, f, f, 1) == [vadd(ti_generator(f, 1), f.cone_leading_data(1)[0])]
    f2 = q_ring2.poly({(1, -2): 2, (-2, -2): 1, (-1, -2): 3, (0, 2): 1})
    g2 = f2.term_mul((0, 2))
    vs = collisions(mode, f2, g2, 2)
    assert len(vs) == 1
    cone = q_ring2.order.decomposition[2]
    for t in box_points(2, 6):
        in_f = f2.ti_contains(vsub(t, f2.cone_leading_data(2)[0]), 2)
        in_g = g2.ti_contains(vsub(t, g2.cone_leading_data(2)[0]), 2)
        assert (in_f and in_g) == cone.contains(vsub(t, vs[0]))
    # in every mode, U generates the intersection of the two shifted
    # modules, each tested definitionally point by point on a box
    modes = [
        mode,
        LaurentMode(orthant_ring(2)),
        polytope_mode([(1, 2)])[1],
        polytope_mode([(1, 1), (0, 1)])[1],
        polytope_mode([(1, 0), (0, 1)], "orthant")[1],
    ]
    rng = random.Random(1999)
    for mode in modes:
        common = 0
        for _ in range(4):
            f, g = (random_poly(mode.ring, rng, terms=3, radius=2) for _ in range(2))
            for label in mode.labels:
                mf, mg = cone_module(mode, f, label, 12), cone_module(mode, g, label, 12)
                u = mf.intersection(mg)
                for v in box_points(2, 5):
                    both = mode.member(f, vsub(v, mf.lm), label) and mode.member(g, vsub(v, mg.lm), label)
                    assert both == any(mf.cone.contains(vsub(v, w)) for w in u), (f, g, label, v)
                    common += both
        assert common > 50, mode


def test_orthant_example_cone_lms():
    d = build_decomposition("orthant", 2)
    rows = {i: tuple(c.generators[k][k] for k in range(2)) for i, c in enumerate(d.cones)}
    order = GeneralizedOrder(d, ScoreFunction("custom", 2, rows=rows))
    ring = LaurentRing(FieldSpec.rational(), 2, order)
    f = ring.poly({(1, -2): 2, (-2, -2): 1, (-1, -2): 3, (0, 2): 1})
    assert f.cone_leading_data(0)[0] == (0, 2)
    assert f.cone_leading_data(1)[0] == (0, 2)
    assert f.cone_leading_data(2)[0] == (-2, -2)
    assert f.cone_leading_data(3)[0] == (1, -2)
    assert f.leading_data()[0] == (-2, -2)


def test_orthant_modules_can_need_several_generators():
    d = build_decomposition("orthant", 2)
    rows = {i: tuple(c.generators[k][k] for k in range(2)) for i, c in enumerate(d.cones)}
    order = GeneralizedOrder(d, ScoreFunction("custom", 2, rows=rows))
    ring = LaurentRing(FieldSpec.rational(), 2, order)
    f = ring.poly({(9, 0): 1, (0, 9): 1, (-8, -8): 1})
    from lgb.lattice import IncompleteSearchError

    with pytest.raises(IncompleteSearchError):
        ti_set_general(f, 0, 1)
    gens = ti_set_general(f, 0, 12)
    assert gens == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
    for g in gens:
        assert f.ti_contains(g, 0)
    expected = {
        t
        for t in box_points(2, 6)
        if any(d[0].contains(vsub(t, g)) for g in gens)
    }
    assert brute_ti(f, 0, 6) == expected


def test_leading_monomial_not_multiplicative(q_ring2_min):
    # under the min score, lm(y * f) differs from y * lm(f) for f = xy + y^-1
    f = q_ring2_min.poly({(1, 1): 1, (0, -1): 1})
    assert f.leading_data()[0] == (0, -1)
    y = q_ring2_min.variable(1)
    assert (y * f).leading_data()[0] == (1, 2)
    assert vadd((0, 1), f.leading_data()[0]) == (0, 0)


def test_format_and_display_order(q_ring2):
    f = q_ring2.poly({(2, -1): 2, (-3, 1): 1, (0, -5): -3})
    assert str(f) == "-3*y^-5 + x^-3*y + 2*x^2*y^-1"
    assert str(q_ring2.zero()) == "0"
    f9 = FieldSpec.finite(3, 2)
    ring9 = ring_for(f9, 2, "degmin")
    g = LaurentPoly(ring9, {(2, 0): f9.element((1, 2)), (0, 0): f9.element((2, 0))})
    assert str(g) == "(2*a+1)*x^2 + 2"


# ti_set_general(f, i, 8) for the four orthant cones, computed with the
# per-layer box search the shared search replaced
TI_PINS = {
    "x*y^-1 + 2": [[(0, 1)], [(-1, 1)], [(-1, 0)], [(-1, 0), (0, 1)]],
    "x^2 - 3*y + x^-1*y^-2": [[(0, 1), (1, 0)], [(-1, 1)], [(0, 0)], [(1, 0)]],
    "2*x^-1*y + y^-1 - x^2": [[(0, 0)], [(-1, 0)], [(-1, -1)], [(0, 0)]],
    "x^3*y - y^2 + 5*x^-2": [[(-1, 0), (0, -1)], [(-2, 0)], [(-1, -1)], [(0, -1)]],
}


def test_ti_set_general_pinned():
    d = build_decomposition("orthant", 2)
    rows = {i: tuple(c.generators[k][k] for k in range(2)) for i, c in enumerate(d.cones)}
    ring = LaurentRing(FieldSpec.rational(), 2, GeneralizedOrder(d, ScoreFunction("custom", 2, rows=rows)))
    for text, expected in TI_PINS.items():
        f = parse_poly(ring, text)
        assert [ti_set_general(f, i, 8) for i in range(4)] == expected, text


def _expanded_cells_member(base, factors):
    """Membership in the union of the fully expanded product cells; each
    cell is a set of inequality indices, and a point is in the union when
    the inequalities it satisfies include some cell."""
    cells = [list(base) + [c for part in combo for c in part] for combo in itertools.product(*factors)]
    ineqs = sorted({c for cell in cells for c in cell})
    index = {c: k for k, c in enumerate(ineqs)}
    cells = [frozenset(index[c] for c in cell) for cell in cells]

    def member(p):
        holds = frozenset(k for k, (a, b) in enumerate(ineqs) if vdot(a, p) + b >= 0)
        return any(cell <= holds for cell in cells)

    return member


@pytest.mark.parametrize("n", [2, 3])
def test_factored_membership_agrees_with_cells_and_ti_contains(n):
    ring = orthant_ring(n)
    if n == 2:
        rng = random.Random(2024)
        texts = list(TI_PINS) + [str(random_poly(ring, rng, terms=3, radius=2)) for _ in range(3)]
    else:
        # 3 to 5 factors of 4 options per cone: up to 1,024 cells
        texts = ["x*y^-1 + 2*z", "x^-1*y*z - 3*y^-1"]
    for text in texts:
        f = parse_poly(ring, text)
        for i in range(2 ** n):
            base, factors = _ti_cells(f, i)
            expanded = _expanded_cells_member(base, factors)
            for p in box_points(n, 6):
                inside = _satisfies(base, factors, p)
                assert inside == f.ti_contains(p, i), (text, i, p)
                assert inside == expanded(p), (text, i, p)


# ti_set_general(f, i, 4) for the eight orthant cones, computed with the
# expanded-cell membership and the Fraction Fourier-Motzkin certificate
TI_PIN_N3 = [
    [(0, 1, 0)],
    [(-1, 0, 0), (-1, 1, -1), (0, 1, 0)],
    [(-1, 0, 0)],
    [(0, 0, 0)],
    [(-1, 0, -1), (0, 0, 0), (0, 1, -1)],
    [(-1, 0, -1)],
    [(-1, 1, -1)],
    [(0, 1, -1)],
]


def test_ti_set_general_pinned_n3():
    ring = orthant_ring(3)
    for radius in (4, 8):
        f = parse_poly(ring, "x*y^-1 + 2*z")
        assert [ti_set_general(f, i, radius) for i in range(8)] == TI_PIN_N3


def _search_outcome(search, f, i, radius):
    """The generators one search returns, or the type and text of the
    lattice error it raises."""
    try:
        return search(f, i, radius)
    except LatticeError as exc:
        return type(exc), str(exc)


def _segment_ring():
    """Q[x^±1, y^±1] ordered on the refinement of the standard cones by the
    segment (1,1),(-2,-1).  Its cone (1,2), with Hilbert basis (-2,3),
    (-1,2), (0,1), is not unimodular, so every cone module raises
    UnsupportedConeError."""
    ctx = PolytopeContext([(1, 1), (-2, -1)])
    refined = build_refined_decomposition(ctx, build_decomposition("standard", 2))
    assert refined.cone((1, 2)).generators[0] == (-2, 3)
    order = GeneralizedOrder(refined.decomposition, ScoreFunction("degmin", 2))
    return LaurentRing(FieldSpec.rational(), 2, order)


def _sheared_ring():
    """Q[x^±1, y^±1] ordered on the standard cones and degmin score moved by
    the lattice automorphism e1 -> (-2,3), e2 -> (-1,1): unimodular cones
    whose cone 0 starts, like the refined segment cone, at (-2,3)."""

    def apply(rows, v):
        return tuple(vdot(r, v) for r in rows)

    forward, dual = ((-2, -1), (3, 1)), ((1, -3), (1, -2))  # dual = inverse transposed
    std = build_decomposition("standard", 2)
    cones = [
        Cone(i, tuple(apply(forward, g) for g in c.generators), tuple(apply(dual, h) for h in c.halfspaces))
        for i, c in enumerate(std)
    ]
    degmin = GeneralizedOrder(std, ScoreFunction("degmin", 2))
    rows = {i: apply(dual, degmin.linear_form(i)) for i in range(3)}
    order = GeneralizedOrder(ConicDecomposition(tuple(cones)), ScoreFunction("custom", 2, rows=rows))
    assert validate_gmo(order).ok and cones[0].generators[0] == (-2, 3)
    return LaurentRing(FieldSpec.rational(), 2, order)


def test_widening_search_agrees_with_the_whole_box_search(monkeypatch):
    from lgb import lattice

    tests = []
    real = lattice._satisfies

    def counting(base, factors, p):
        tests.append(p)
        return real(base, factors, p)

    monkeypatch.setattr(lattice, "_satisfies", counting)
    rng = random.Random(20261019)
    cases = []
    for ring, ceilings, count in (
        (orthant_ring(2), range(1, 9), 6),
        (_sheared_ring(), range(1, 9), 6),
        (_segment_ring(), (8,), 1),
        (orthant_ring(3), (4,), 2),
    ):
        texts = [str(random_poly(ring, rng, terms=3, radius=3)) for _ in range(count)]
        cases += [(ring, text, r) for text in texts for r in ceilings]
    cases += [(orthant_ring(2), "x^9 + y^9 + x^-8*y^-8", r) for r in range(1, 9)]
    saved = 0
    kinds = set()
    for ring, text, radius in cases:
        for i in range(len(ring.order.decomposition)):
            # a fresh polynomial per search, so no memo answers for another ceiling
            del tests[:]
            got = _search_outcome(ti_set_general, parse_poly(ring, text), i, radius)
            widened = len(tests)
            del tests[:]
            expected = _search_outcome(reference_ti_set_general, parse_poly(ring, text), i, radius)
            assert got == expected, (text, i, radius)
            saved += widened < len(tests)
            kinds.add(type(got))
    assert saved
    assert kinds == {list, tuple}  # both certified sets and failures were compared


def test_ti_set_general_is_memoized(monkeypatch):
    from lgb import laurent

    searches = []
    real = laurent._ti_cells

    def counting(*args):
        searches.append(args)
        return real(*args)

    # one search may run several box rounds but describes the module once
    monkeypatch.setattr(laurent, "_ti_cells", counting)
    ring = orthant_ring(2)
    f = parse_poly(ring, "x^2 - 3*y + x^-1*y^-2")
    mode = LaurentMode(ring)
    # a hit returns the same value, whose generators callers cannot change
    module = cone_module(mode, f, 0, 8)
    assert module.generators == ((0, 1), (1, 0))
    assert cone_module(mode, f, 0, 8) is module
    assert cone_module(LaurentMode(ring), f, 0, 8) is module
    assert len(searches) == 1
    # a certified set does not depend on the ceiling: another radius is a hit
    assert cone_module(mode, f, 0, 6) is module
    assert len(searches) == 1
    # a failure is not cached: each attempt searches again
    g = ring.poly({(9, 0): 1, (0, 9): 1, (-8, -8): 1})
    for _ in range(2):
        with pytest.raises(IncompleteSearchError):
            ti_set_general(g, 0, 1)
    assert len(searches) == 3
    assert ti_set_general(g, 0, 12) == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
    assert len(searches) == 4


def test_int_ineq_integer_path_matches_the_fraction_path():
    """On integer inputs the all-integer path gives what scaling their
    Fraction copies gives, strict and not."""
    rng = random.Random(1025)
    for _ in range(300):
        coeffs = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 3)))
        const = rng.randint(-20, 20)
        for strict in (False, True):
            got = _int_ineq(coeffs, const, strict)
            assert got == _int_ineq(tuple(map(Fraction, coeffs)), Fraction(const), strict)
            assert all(type(x) is int for x in got[0]) and type(got[1]) is int
