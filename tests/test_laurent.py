import random

import pytest

from conftest import random_poly, ring_for
from lgb.cli import parse_poly
from lgb.coeffs import FieldSpec
from lgb.gmo import GeneralizedOrder, ScoreFunction
from lgb.lattice import box_points, build_decomposition, vadd, vsub
from lgb.laurent import (
    LaurentPoly,
    LaurentRing,
    RingError,
    UndefinedLeadingError,
    format_poly,
    u_intersection,
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
    assert appendix.ti_generator(2) == (1, 2)
    f2 = {(1, -2): 2, (-2, -2): 1, (-1, -2): 3, (0, 2): 1}
    fd = poly(q_ring2, f2)
    assert fd.ti_generator(0) == (0, 2)
    assert fd.ti_generator(2) == (0, 1)
    fm = poly(q_ring2_min, f2)
    assert fm.ti_generator(0) == (2, 2)
    assert fm.ti_generator(1) == (1, 2)


def test_ti_set_general_examples(q_ring2):
    f2 = poly(q_ring2, {(1, -2): 2, (-2, -2): 1, (-1, -2): 3, (0, 2): 1})
    assert f2.ti_set_general(1, 6) == [(0, 2)]
    single = poly(q_ring2, {(2, -3): 5})
    for i in range(3):
        assert single.ti_set_general(i, 6) == [(-2, 3)]
        assert single.ti_generator(i) == (-2, 3)


def test_ti_general_matches_descent_random(q_ring2, q_ring2_min):
    rng = random.Random(101)
    for ring in (q_ring2, q_ring2_min):
        for _ in range(15):
            f = random_poly(ring, rng, terms=3, radius=3)
            for i in range(3):
                assert f.ti_set_general(i, 7) == [f.ti_generator(i)]


def test_ti_membership_against_brute(q_ring2):
    rng = random.Random(55)
    for _ in range(10):
        f = random_poly(q_ring2, rng, terms=3, radius=2)
        for i in range(3):
            gen = f.ti_generator(i)
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
            gen = f.ti_generator(i)
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
            gen = f.ti_generator(i)
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
            gens = [f.ti_generator(i) for i in range(ncones)]
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
    f = q_ring2.poly({(1, 0): 1, (0, 1): 1})
    g = q_ring2.poly({(2, 0): 1, (0, 1): 1})
    assert u_intersection(f, g, 0) == [(2, 0)]
    # self-intersection
    assert u_intersection(f, f, 1) == [vadd(f.ti_generator(1), f.cone_leading_data(1)[0])]
    f2 = q_ring2.poly({(1, -2): 2, (-2, -2): 1, (-1, -2): 3, (0, 2): 1})
    g2 = f2.term_mul((0, 2))
    vs = u_intersection(f2, g2, 2)
    assert len(vs) == 1
    cone = q_ring2.order.decomposition[2]
    for t in box_points(2, 6):
        in_f = f2.ti_contains(vsub(t, f2.cone_leading_data(2)[0]), 2)
        in_g = g2.ti_contains(vsub(t, g2.cone_leading_data(2)[0]), 2)
        assert (in_f and in_g) == cone.contains(vsub(t, vs[0]))


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
        f.ti_set_general(0, 1)
    gens = f.ti_set_general(0, 12)
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


# ti_set_general(i, 8) for the four orthant cones, computed with the
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
        assert [f.ti_set_general(i, 8) for i in range(4)] == expected, text
