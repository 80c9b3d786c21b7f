import random
import sys
from fractions import Fraction

import pytest

from conftest import random_poly, ring_for
from lgb.affinoid import (
    AffinoidError,
    CappedSeries,
    PolytopeContext,
    PolytopeMode,
    WeightContext,
    WeightMode,
    buchberger_P,
    build_refined_decomposition,
    compare_polytope,
    compare_weight,
    initial_at_vertex,
    is_groebner_series,
    lm_polytope,
    reduce_P,
    val_polytope,
    val_weight,
)
from lgb.cli import parse_poly
from lgb.coeffs import INF, FieldSpec
from lgb.gmo import GeneralizedOrder, ScoreFunction
from lgb.groebner import buchberger
from lgb.laurent import LaurentRing, Term
from lgb.lattice import box_points, build_decomposition, vadd
from lgb.oracle import brute_valP
from lgb import affinoid, reduction
from lgb.reduction import reduce


def q2_ring(n=2, score="degmin"):
    return ring_for(FieldSpec.padic(2), n, score)


def polytope_mode(vertices):
    ctx = PolytopeContext(vertices)
    refined = build_refined_decomposition(ctx, build_decomposition("standard", 2))
    order = GeneralizedOrder(refined.decomposition, ScoreFunction("degmin", 2))
    ring = LaurentRing(FieldSpec.padic(2), 2, order, ("x", "y"))
    return ring, PolytopeMode(ring, ctx, refined)


def example71():
    ring, mode = polytope_mode([(1, 1), (0, 1)])
    return mode.context, mode.refined, ring, mode


def test_val_weight_examples():
    ring = q2_ring()
    ctx = WeightContext((1, 2))
    assert val_weight(ctx, parse_poly(ring, "x*y"))[0] == -3
    ctx01 = WeightContext((0, 1))
    assert val_weight(ctx01, parse_poly(ring, "x^-1*y^-1"))[0] == 1
    ctx0 = WeightContext((0, 0))
    value, initial = val_weight(ctx0, parse_poly(ring, "2*x + y"))
    assert value == 0 and initial == parse_poly(ring, "y")
    assert val_weight(ctx0, ring.zero())[0] is INF


def test_compare_weight_examples():
    ring = q2_ring()
    one = ring.field.one()
    two = ring.field.from_int(2)
    ctx0 = WeightContext((0, 0))
    assert compare_weight(ctx0, ring.order, Term(two, (1, 0)), Term(one, (0, 1))) < 0
    ctx10 = WeightContext((1, 0))
    assert compare_weight(ctx10, ring.order, Term(one, (1, 0)), Term(one, (0, 1))) > 0
    # tie on the valuation falls through to the generalized order (lex)
    assert compare_weight(ctx0, ring.order, Term(one, (1, 0)), Term(one, (0, 1))) > 0
    assert compare_weight(ctx0, ring.order, Term(two, (1, 0)), Term(two, (1, 0))) == 0


def test_val_polytope_examples():
    ctx, _, ring, _ = example71()
    value, attained = val_polytope(ctx, parse_poly(ring, "x^-1*y^-1"))
    assert value == 1 and attained == (2,)
    one_ctx = PolytopeContext([(1, 2), (2, 1), (0, 0)])
    ring3 = q2_ring()
    value, attained = val_polytope(one_ctx, parse_poly(ring3, "x*y"))
    assert value == -3 and attained == (1, 2)
    assert val_polytope(ctx, ring.one())[1] == (1, 2)


def test_vertex_validation():
    with pytest.raises(AffinoidError):
        PolytopeContext([])
    with pytest.raises(AffinoidError):
        PolytopeContext([(1, 1), (1, 1)])
    with pytest.raises(AffinoidError):
        # the midpoint is not a vertex of the hull
        PolytopeContext([(0, 0), (2, 2), (1, 1)])


def test_refined_point_is_base():
    std = build_decomposition("standard", 2)
    ctx = PolytopeContext([(1, 1)])
    refined = build_refined_decomposition(ctx, std)
    assert refined.decomposition is std
    assert refined.labels == ((1, 1), (1, 2), (1, 3))
    assert refined.validate(5).ok


def test_refined_segment_pieces():
    std = build_decomposition("standard", 2)
    ctx = PolytopeContext([(1, 1), (-2, -1)])
    refined = build_refined_decomposition(ctx, std)
    assert len(refined.entries) == 5
    assert refined.validate(5).ok
    for i, j, cone in refined.entries:
        assert all(ctx.in_vi(i, g) for g in cone.generators)


def test_refined_quadrilateral_keeps_regions():
    std = build_decomposition("standard", 2)
    ctx = PolytopeContext([(-2, 2), (1, 2), (2, -2), (-1, -1)])
    refined = build_refined_decomposition(ctx, std)
    assert refined.labels == ((1, 1), (2, 1), (3, 1), (4, 1))
    assert refined.validate(5).ok
    for i, j, cone in refined.entries:
        assert set(cone.halfspaces) == set(ctx.vi_halfspaces(i))


def test_compare_polytope_stages():
    ctx, _, ring, mode = example71()
    order = ring.order
    one = ring.field.one()
    two = ring.field.from_int(2)
    # val_P decides: y beats 2x
    assert compare_polytope(ctx, order, Term(two, (1, 0)), Term(one, (0, 1))) < 0
    # smaller attaining index wins on valuation ties
    assert compare_polytope(ctx, order, Term(two, (0, 0)), Term(one, (-1, -1))) > 0
    # identical monomials with equal coefficient valuation are equal-rank
    assert compare_polytope(ctx, order, Term(one, (2, 1)), Term(one, (2, 1))) == 0


def test_lm_polytope_example71():
    ctx, _, ring, mode = example71()
    f = parse_poly(ring, "2*x + y")
    lm, lc, lt, in_p = lm_polytope(mode, f)
    assert lm == (0, 1)
    assert in_p == parse_poly(ring, "y")
    assert in_p == initial_at_vertex(ctx, f, 1)
    g = parse_poly(ring, "4*x^3")
    assert lm_polytope(mode, g)[3] == g


def test_val_r_multiplicative_and_val_p_submultiplicative():
    rng = random.Random(515)
    ring = q2_ring()
    ctx = WeightContext((Fraction(1, 2), Fraction(2)))
    pctx = PolytopeContext([(1, 1), (0, 1)])
    for _ in range(500):
        f = random_poly(ring, rng, terms=3, radius=3)
        g = random_poly(ring, rng, terms=3, radius=3)
        assert val_weight(ctx, f * g)[0] == val_weight(ctx, f)[0] + val_weight(ctx, g)[0]
        assert val_polytope(pctx, f * g)[0] >= val_polytope(pctx, f)[0] + val_polytope(pctx, g)[0]


def test_example71_submultiplicativity_witness():
    ctx, _, ring, _ = example71()
    a = parse_poly(ring, "x^-1*y^-1")
    f = parse_poly(ring, "2*x + y")
    # strictness shows on the term of f whose attaining vertex differs
    two_x = parse_poly(ring, "2*x")
    assert val_polytope(ctx, a * two_x)[0] > val_polytope(ctx, a)[0] + val_polytope(ctx, two_x)[0]
    # the full product is sub-multiplicative with equality here
    assert val_polytope(ctx, a * f)[0] == val_polytope(ctx, a)[0] + val_polytope(ctx, f)[0]


def test_tij_module_property_sampled():
    rng = random.Random(808)
    ctx, refined, ring, mode = example71()
    for _ in range(500):
        f = random_poly(ring, rng, terms=2, radius=2)
        lt = mode.leading(f)
        inds = ctx.term_val_indices(lt.coef, lt.exp)[1]
        i = min(inds)
        if not ctx.in_vi_less(i, lt.exp):
            continue
        # multiply by a monomial of V_i: the lead stays in V_{i,<}
        t = tuple(rng.randint(-3, 3) for _ in range(2))
        if not ctx.in_vi(i, t):
            continue
        shifted = mode.leading(f.term_mul(t))
        assert ctx.in_vi_less(i, shifted.exp)


def test_polytope_antisymmetry_up_to_units():
    rng = random.Random(99)
    ctx, _, ring, _ = example71()
    order = ring.order
    for _ in range(300):
        s = Term(ring.field.from_int(rng.choice([1, 2, 3, 6])), (rng.randint(-3, 3), rng.randint(-3, 3)))
        t = Term(ring.field.from_int(rng.choice([1, 2, 3, 6])), (rng.randint(-3, 3), rng.randint(-3, 3)))
        if compare_polytope(ctx, order, s, t) == 0:
            assert s.exp == t.exp


def test_inequality_with_cone_multiplier_sampled():
    rng = random.Random(311)
    ctx, refined, ring, mode = example71()
    order = ring.order
    for _ in range(500):
        f = random_poly(ring, rng, terms=2, radius=2)
        label = refined.labels[rng.randrange(len(refined.labels))]
        i, _ = label
        cone = refined.cone(label)
        u = tuple(rng.randint(-3, 3) for _ in range(2))
        if not (cone.contains(u) and ctx.in_vi_less(i, u)):
            continue
        u_term = Term(ring.field.one(), u)
        if mode.compare_terms(mode.leading(f), u_term) >= 0:
            continue
        v = cone.generators[rng.randrange(len(cone.generators))]
        lhs = mode.leading(f.term_mul(v))
        rhs = Term(ring.field.one(), tuple(a + b for a, b in zip(u, v)))
        assert mode.compare_terms(lhs, rhs) < 0


def test_capped_series_pruning():
    ctx, _, ring, mode = example71()
    f = parse_poly(ring, "2*x + y + 1024*x^2")
    # val_P(1024 x^2) = 10 - max(2, 0)... = 10 - 2 = 8 < 10, stays at cap 10
    s = CappedSeries(mode, f, Fraction(8))
    assert set(s.body.support()) == {(1, 0), (0, 1)}
    s2 = CappedSeries(mode, f, Fraction(9))
    assert set(s2.body.support()) == {(1, 0), (0, 1), (2, 0)}


def test_reduce_p_self_and_residual():
    ctx, _, ring, mode = example71()
    cap = Fraction(20)
    g = CappedSeries(mode, parse_poly(ring, "x*y + 4"), cap)
    quotients, remainder = reduce_P(g, [g])
    assert remainder.is_zero()
    assert quotients[0].body == ring.one()
    rng = random.Random(12)
    for _ in range(10):
        f = CappedSeries(mode, random_poly(ring, rng, terms=3, radius=2), cap)
        gens = [CappedSeries(mode, random_poly(ring, rng, terms=2, radius=2), cap)]
        qs, r = reduce_P(f, gens)
        residual = f.body - r.body
        for q, g_ in zip(qs, gens):
            residual = residual - q.body * g_.body
        for e, c in residual.items():
            assert mode.term_val(Term(c, e)) >= cap


def test_weight_pipeline_degenerates_to_polynomial():
    ring = ring_for(FieldSpec.rational(), 2, "degmin")
    mode = WeightMode(ring, WeightContext((0, 0)))
    cap = Fraction(50)
    f = parse_poly(ring, "2*x^2*y^-1 + x^-3*y - 3*y^-5")
    gens = [parse_poly(ring, "x^-2*y^-1 + x*y"), parse_poly(ring, "x^-2*y + x^2*y^-1")]
    fs = CappedSeries(mode, f, cap)
    gs = [CappedSeries(mode, g, cap) for g in gens]
    qs, r = reduce_P(fs, gs)
    q_plain, r_plain = reduce(f, gens)
    assert r.body == r_plain
    assert [q.body for q in qs] == q_plain
    res = buchberger_P(gs, None)
    plain = buchberger(gens)
    assert [h.body for h in res.basis] == plain.basis


def test_single_vertex_matches_weight_pipeline():
    rng = random.Random(4321)
    ring = q2_ring()
    r = (Fraction(1), Fraction(2))
    wmode = WeightMode(ring, WeightContext(r))
    ctx = PolytopeContext([r])
    refined = build_refined_decomposition(ctx, build_decomposition("standard", 2))
    pmode = PolytopeMode(ring, ctx, refined)
    cap = Fraction(50)
    for _ in range(5):
        gens = [random_poly(ring, rng, terms=2, radius=2, bound=4) for _ in range(2)]
        gw = [CappedSeries(wmode, g, cap) for g in gens]
        gp = [CappedSeries(pmode, g, cap) for g in gens]
        rw = buchberger_P(gw, None)
        rp = buchberger_P(gp, None)
        assert [h.body for h in rw.basis] == [h.body for h in rp.basis]
        assert rw.stats == rp.stats


def test_buchberger_p_singleton_and_closure():
    ctx, _, ring, mode = example71()
    cap = Fraction(15)
    g = CappedSeries(mode, parse_poly(ring, "2*x + y"), cap)
    res = buchberger_P([g], None)
    assert res.basis == [g]
    h = CappedSeries(mode, parse_poly(ring, "x*y + 4"), cap)
    res2 = buchberger_P([g, h], None)
    flag, cert = is_groebner_series(res2.basis)
    assert flag, cert


def test_multi_vertex_buchberger_closure_random():
    rng = random.Random(31337)
    ctx, refined, ring, mode = example71()
    cap = Fraction(10)
    done = 0
    for _ in range(6):
        gens = [random_poly(ring, rng, terms=2, radius=1, bound=3) for _ in range(2)]
        series = [CappedSeries(mode, g, cap) for g in gens]
        if any(s.is_zero() for s in series):
            continue
        res = buchberger_P(series, None)
        flag, cert = is_groebner_series(res.basis)
        assert flag, cert
        done += 1
    assert done >= 4


def test_fractional_weight_division_identity():
    ring = ring_for(FieldSpec.padic(3), 2, "min")
    mode = WeightMode(ring, WeightContext((Fraction(1, 3), Fraction(-1, 2))))
    cap = Fraction(8)
    rng = random.Random(140)
    for _ in range(15):
        f = CappedSeries(mode, random_poly(ring, rng, terms=3, radius=2), cap)
        gens = [CappedSeries(mode, random_poly(ring, rng, terms=2, radius=2), cap)]
        if f.is_zero() or gens[0].is_zero():
            continue
        # reduce_P re-verifies the identity modulo the cap internally
        reduce_P(f, gens)


def test_spair_bound_assertion_runs():
    ctx, refined, ring, mode = example71()
    cap = Fraction(15)
    from lgb.affinoid import spair_series

    f = CappedSeries(mode, parse_poly(ring, "2*x + y"), cap)
    g = CappedSeries(mode, parse_poly(ring, "x*y + 4"), cap)
    for label in mode.labels:
        for v in mode.u_set(f.body, g.body, label):
            s = spair_series(mode, label, f, g, v)
            if not s.is_zero():
                lmf, lcf = mode.cone_leading(f.body, label)
                lmg, lcg = mode.cone_leading(g.body, label)
                assert mode.compare_terms(s.leading_term(), Term(lcf * lcg, v)) < 0


def test_tij_generators_verified_directly():
    rng = random.Random(2718)
    ctx, refined, ring, mode = example71()
    for _ in range(10):
        f = random_poly(ring, rng, terms=2, radius=2)
        for label in mode.labels:
            gens = mode.tij_generators(f, label, 6)
            assert gens
            for g in gens:
                assert mode.module_contains(f, g, label)
            i, _ = label
            cone = refined.cone(label)
            for g in gens:
                for k in range(len(cone.generators)):
                    w = cone.generators[k]
                    shifted = tuple(a + b for a, b in zip(g, w))
                    assert mode.module_contains(f, shifted, label)


def test_single_term_tij_generator():
    ctx, refined, ring, mode = example71()
    f = parse_poly(ring, "4*x^2*y^-1")
    for label in mode.labels:
        gens = mode.tij_generators(f, label, 6)
        for g in gens:
            assert mode.module_contains(f, g, label)


# example 7.1 and the polytopes of the general-cones benchmark workload
BENCH_POLYTOPES = (((1, 1), (0, 1)), ((1, 0), (0, 1)), ((2, 1), (0, 1)), ((1, 0), (-1, 0)))


@pytest.mark.parametrize("vertices", BENCH_POLYTOPES + (((1, 2),),))
def test_shifted_lm_matches_leading_of_product(vertices):
    ring, mode = polytope_mode(vertices)
    rng = random.Random(str(vertices))
    for _ in range(8):
        g = random_poly(ring, rng, terms=4, radius=3)
        for t in box_points(2, 4):
            assert mode.shifted_lm(g, t) == mode.leading(g.term_mul(t)).exp


# tij_generators(f, label, 6) at the labels (1,1), (1,2), (2,1), (2,2),
# computed with the per-layer box searches the shared search replaced
TIJ_POLYS = ("2*x + y", "x*y + 4", "x^-1*y^2 - 2*x", "3*x^2*y^-1 + 4*y^-2 + 1")
TIJ_PINS = {
    ((1, 1), (0, 1)): [
        [(0, -1)], [(0, -1)], [(-1, -2)], [(-1, -2)],
        [(-1, -1)], [(-1, -1)], [(-2, -2)], [(-2, -2)],
        [(1, -2)], [(1, -2)], [(0, -3)], [(0, -3)],
        [(-1, 1)], [(-1, 1)], [(-2, -2)], [(-2, -2)],
    ],
    ((1, 0), (0, 1)): [
        [(1, 0)], [(1, 0)], [(0, 0)], [(0, 0)],
        [(-1, -1)], [(-1, -1)], [(-1, 0)], [(-1, 0)],
        [(2, 0)], [(2, 0)], [(1, 0)], [(1, 0)],
        [(-1, 1)], [(-1, 1)], [(0, 3)], [(0, 3)],
    ],
    ((2, 1), (0, 1)): [
        [(0, 0)], [(0, 0)], [(-1, -2)], [(-1, -2)],
        [(-1, -1)], [(-1, -1)], [(-2, -2)], [(-2, -2)],
        [(1, 0)], [(1, 0)], [(0, -3)], [(0, -3)],
        [(-1, 1)], [(-1, 1)], [(-2, -2)], [(-2, -2)],
    ],
    ((1, 0), (-1, 0)): [
        [(0, 0)], [(0, 0)], [(-1, -2)], [(-1, -2)],
        [(-1, -1)], [(-1, -1)], [(-2, -2)], [(-2, -2)],
        [(1, 0)], [(1, 0)], [(0, -3)], [(0, -3)],
        [(-1, 1)], [(-1, 1)], [(-2, -2)], [(-2, -2)],
    ],
}


@pytest.mark.parametrize("vertices", BENCH_POLYTOPES)
def test_tij_generators_pinned(vertices):
    ring, mode = polytope_mode(vertices)
    assert mode.labels == ((1, 1), (1, 2), (2, 1), (2, 2))
    got = [
        mode.tij_generators(parse_poly(ring, text), label, 6)
        for text in TIJ_POLYS
        for label in mode.labels
    ]
    assert got == TIJ_PINS[vertices]


def _sign(x):
    return (x > 0) - (x < 0)


def _random_terms(ring, rng, count):
    out = []
    for _ in range(count):
        exp = tuple(rng.randint(-3, 3) for _ in range(ring.n))
        coef = ring.field.from_fraction(Fraction(rng.choice((1, 3, 5)), rng.choice((1, 2, 4)))
                                        * rng.choice((1, 2, 4, 8)))
        out.append(Term(coef, exp))
    return out


@pytest.mark.parametrize("vertices", [None] + list(BENCH_POLYTOPES + (((1, 2),),)))
def test_term_key_orders_like_compare(vertices):
    """term_key orders terms as compare_weight (weight (1,2)) and
    compare_polytope do, and ``leading`` is the compare-maximum."""
    if vertices is None:
        ring = q2_ring()
        mode = WeightMode(ring, WeightContext((1, 2)))
        compare = lambda s, t: compare_weight(mode.context, ring.order, s, t)
    else:
        ring, mode = polytope_mode(vertices)
        compare = lambda s, t: compare_polytope(mode.context, ring.order, s, t)
    rng = random.Random(str(vertices))
    terms = _random_terms(ring, rng, 60)
    for s in terms:
        for t in terms:
            ks, kt = mode.term_key(*s), mode.term_key(*t)
            assert _sign(compare(s, t)) == (ks > kt) - (ks < kt)
    for _ in range(20):
        f = random_poly(ring, rng, terms=5, radius=3)
        best = None
        for exp, coef in f.terms_unordered():
            if best is None or compare(Term(coef, exp), best) > 0:
                best = Term(coef, exp)
        assert mode.leading(f) == best


def _drop_one_quotient_term(real):
    def broken(f, gens, mode):
        quotients, remainder, tail = real(f, gens, mode)
        for q in quotients:
            if q:
                q.pop(next(iter(q)))
                break
        else:
            raise AssertionError("no quotient term to drop")
        return quotients, remainder, tail

    return broken


def test_reduce_reverification_catches_a_dropped_quotient_term(monkeypatch, q_ring2):
    f = parse_poly(q_ring2, "2*x^2*y^-1 + x^-3*y - 3*y^-5")
    gens = [parse_poly(q_ring2, "x^-2*y^-1 + x*y"), parse_poly(q_ring2, "x^-2*y + x^2*y^-1")]
    broken = _drop_one_quotient_term(reduction.division_loop)
    monkeypatch.setattr(reduction, "division_loop", broken)
    with pytest.raises(ArithmeticError):
        reduce(f, gens)


@pytest.mark.parametrize("directive", ["weight", "polytope"])
def test_reduce_P_reverification_catches_a_dropped_quotient_term(monkeypatch, directive):
    if directive == "weight":
        ring = q2_ring()
        mode = WeightMode(ring, WeightContext((1, 2)))
    else:
        ring, mode = polytope_mode([(1, 2)])
    f = CappedSeries(mode, parse_poly(ring, "x^3*y + 2*x*y^2 + x^-1"), 20)
    gens = [CappedSeries(mode, parse_poly(ring, p), 20) for p in ("x*y + 2", "y^2 + 4*x")]
    reduce_P(f, gens)
    broken = _drop_one_quotient_term(affinoid.division_loop)
    monkeypatch.setattr(affinoid, "division_loop", broken)
    with pytest.raises(ArithmeticError):
        reduce_P(f, gens)


@pytest.mark.parametrize("directive", ["weight (1,2)", "polytope (1,2)", "example 7.1"])
def test_reducer_fires_at_its_cone_leading_monomial(directive):
    """lm(X^t g) in the cone-label module implies lm(X^t g) = t + lm_label(g):
    so a division step, which fires when lm(X^shift g) is the current
    leading exponent with shift = that exponent minus lm_label(g), always
    cancels at its cone leading monomial and needs no check."""
    if directive == "weight (1,2)":
        ring = q2_ring()
        mode = WeightMode(ring, WeightContext((1, 2)))
    elif directive == "polytope (1,2)":
        ring, mode = polytope_mode([(1, 2)])
    else:
        ring, mode = polytope_mode([(1, 1), (0, 1)])
    rng = random.Random(directive)
    hits = 0
    for _ in range(8):
        g = random_poly(ring, rng, terms=4, radius=3)
        for label in mode.labels:
            lm_g, _ = mode.cone_leading(g, label)
            for t in box_points(2, 4):
                if mode.module_contains(g, t, label):
                    assert mode.shifted_lm(g, t) == vadd(t, lm_g), (g, label, t)
                    hits += 1
    assert hits > 100


def test_tij_generators_are_memoized(monkeypatch):
    searches = []
    real = affinoid.minimal_elements

    def counting(*args):
        searches.append(args)
        return real(*args)

    monkeypatch.setattr(affinoid, "minimal_elements", counting)
    ring, mode = polytope_mode(BENCH_POLYTOPES[0])
    f = parse_poly(ring, "x^-1*y^2 - 2*x")
    # callers may change what they get: a miss and a hit both return a copy
    for _ in range(2):
        got = mode.tij_generators(f, (1, 1), 6)
        assert got == [(1, -2)]
        got.append((9, 9))
        got[0] = (7, 7)
    assert mode.tij_generators(f, (1, 1), 6) == [(1, -2)]
    # an equal polynomial built separately hits the same entry
    assert mode.tij_generators(parse_poly(ring, "x^-1*y^2 - 2*x"), (1, 1), 6) == [(1, -2)]
    assert len(searches) == 1
    assert mode.tij_generators(f, (1, 2), 6) == [(1, -2)]
    assert len(searches) == 2
    # a failure is not cached: each attempt searches again
    boom = []

    def failing(*args):
        boom.append(args)
        raise affinoid.IncompleteSearchError("search refused")

    monkeypatch.setattr(affinoid, "minimal_elements", failing)
    g = parse_poly(ring, "2*x + y")
    for _ in range(2):
        with pytest.raises(affinoid.IncompleteSearchError):
            mode.tij_generators(g, (2, 1), 6)
    assert len(boom) == 2
    monkeypatch.setattr(affinoid, "minimal_elements", counting)
    assert mode.tij_generators(g, (2, 1), 6) == [(-1, -2)]
    assert mode.tij_generators(g, (2, 1), 6) == [(-1, -2)]
    assert len(searches) == 3


# the vertex lists of the four general-cones polytopes and of the known
# failures, and two non-simplicial 3-dimensional cones for the ray test
SETUP_POLYTOPES = BENCH_POLYTOPES + (
    ((1, 1), (-2, -1)), ((-2, 2), (1, 2), (2, -2), (-1, -1)), ((0, 0), (1, 0), (0, 1)),
)
SETUP_CONES = (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)), ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)))


def test_polytope_setup_feasibility_matches_fraction_elimination(monkeypatch):
    """Every feasibility question of the polytope set-up (vertex hulls,
    vertex regions, refined pieces, extreme rays) gets the verdict of
    Fourier-Motzkin over Fractions."""
    from conftest import reference_fm_feasible
    from lgb import lattice

    real = lattice.fm_feasible
    callers = {}

    def checked(constraints, nvars):
        constraints = list(constraints)
        verdict = real(constraints, nvars)
        assert verdict == reference_fm_feasible(constraints, nvars), constraints
        caller = sys._getframe(1).f_code.co_name
        callers.setdefault(caller, set()).add(verdict)
        return verdict

    monkeypatch.setattr(lattice, "fm_feasible", checked)
    monkeypatch.setattr(affinoid, "fm_feasible", checked)
    for vertices in SETUP_POLYTOPES:
        ctx = PolytopeContext(vertices)
        for base in ("standard", "orthant"):
            build_refined_decomposition(ctx, build_decomposition(base, 2))
    for hs in SETUP_CONES:
        lattice.rays_from_halfspaces(hs, 3)
    assert callers == {
        "_in_convex_hull": {False},
        "build_refined_decomposition": {True, False},
        # in a pointed cone every candidate ray is extreme
        "rays_from_halfspaces": {False},
    }
