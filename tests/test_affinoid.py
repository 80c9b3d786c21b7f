import random
import sys
from fractions import Fraction

import pytest

import conftest
from conftest import (
    collisions,
    directive_mode,
    orthant_ring,
    polytope_mode,
    random_coeff,
    random_poly,
    reference_compare_polytope,
    reference_compare_weight,
    reference_member,
    reference_spair_series,
    reference_tij_generators,
    ring_for,
    tij_generators,
)
from lgb.affinoid import (
    AffinoidError,
    CappedSeries,
    PolytopeContext,
    PolytopeMode,
    PrecisionError,
    buchberger_P,
    build_refined_decomposition,
    initial_at_vertex,
    is_groebner_series,
    lm_polytope,
    reduce_P,
    val_polytope,
)
from lgb.cli import parse_poly, parse_problem
from lgb.coeffs import INF, FieldSpec
from lgb.groebner import GBConfig, buchberger
from lgb.laurent import LaurentMode, Term, UndefinedLeadingError, cone_module
from lgb.lattice import LatticeError, _satisfies, box_points, build_decomposition, vadd, vdot, vsub
from lgb.oracle import brute_valP
from lgb import affinoid, groebner, reduction
from lgb.reduction import PolynomialMode, reduce


def q2_ring(n=2, score="degmin"):
    return ring_for(FieldSpec.padic(2), n, score)


def example71():
    ring, mode = polytope_mode([(1, 1), (0, 1)])
    return mode.context, mode.refined, ring, mode


def test_val_weight_examples():
    # a weight r is the one-vertex polytope (r)
    ring = q2_ring()
    ctx = PolytopeContext([(1, 2)])
    assert val_polytope(ctx, parse_poly(ring, "x*y"))[0] == -3
    ctx01 = PolytopeContext([(0, 1)])
    assert val_polytope(ctx01, parse_poly(ring, "x^-1*y^-1"))[0] == 1
    ctx0 = PolytopeContext([(0, 0)])
    f = parse_poly(ring, "2*x + y")
    value, initial = val_polytope(ctx0, f)[0], initial_at_vertex(ctx0, f, 1)
    assert value == 0 and initial == parse_poly(ring, "y")
    assert val_polytope(ctx0, ring.zero())[0] is INF


def test_compare_weight_examples():
    ring, mode0 = polytope_mode([(0, 0)])
    one = ring.field.one()
    two = ring.field.from_int(2)
    key0 = mode0.term_key
    assert key0(two, (1, 0)) < key0(one, (0, 1))
    key10 = polytope_mode([(1, 0)])[1].term_key
    assert key10(one, (1, 0)) > key10(one, (0, 1))
    # tie on the valuation falls through to the generalized order (lex)
    assert key0(one, (1, 0)) > key0(one, (0, 1))
    assert key0(two, (1, 0)) == key0(two, (1, 0))


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
    _, _, ring, mode = example71()
    key = mode.term_key
    one = ring.field.one()
    two = ring.field.from_int(2)
    # val_P decides: y beats 2x
    assert key(two, (1, 0)) < key(one, (0, 1))
    # smaller attaining index wins on valuation ties
    assert key(two, (0, 0))[0] == key(one, (-1, -1))[0]
    assert key(two, (0, 0)) > key(one, (-1, -1))
    # identical monomials with equal coefficient valuation are equal-rank
    assert key(one, (2, 1)) == key(one, (2, 1))


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
    ctx = PolytopeContext([(Fraction(1, 2), Fraction(2))])
    pctx = PolytopeContext([(1, 1), (0, 1)])
    for _ in range(500):
        f = random_poly(ring, rng, terms=3, radius=3)
        g = random_poly(ring, rng, terms=3, radius=3)
        assert val_polytope(ctx, f * g)[0] == val_polytope(ctx, f)[0] + val_polytope(ctx, g)[0]
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
        i = -mode.term_key(*lt)[1]
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
    _, _, ring, mode = example71()
    for _ in range(300):
        s = Term(ring.field.from_int(rng.choice([1, 2, 3, 6])), (rng.randint(-3, 3), rng.randint(-3, 3)))
        t = Term(ring.field.from_int(rng.choice([1, 2, 3, 6])), (rng.randint(-3, 3), rng.randint(-3, 3)))
        if mode.term_key(*s) == mode.term_key(*t):
            assert s.exp == t.exp


def test_inequality_with_cone_multiplier_sampled():
    rng = random.Random(311)
    ctx, refined, ring, mode = example71()
    one = ring.field.one()
    for _ in range(500):
        f = random_poly(ring, rng, terms=2, radius=2)
        label = refined.labels[rng.randrange(len(refined.labels))]
        i, _ = label
        cone = refined.cone(label)
        u = tuple(rng.randint(-3, 3) for _ in range(2))
        if not (cone.contains(u) and ctx.in_vi_less(i, u)):
            continue
        if mode.term_key(*mode.leading(f)) >= mode.term_key(one, u):
            continue
        v = cone.generators[rng.randrange(len(cone.generators))]
        lhs = mode.leading(f.term_mul(v))
        assert mode.term_key(*lhs) < mode.term_key(one, tuple(a + b for a, b in zip(u, v)))


def test_capped_series_pruning():
    ctx, _, ring, mode = example71()
    f = parse_poly(ring, "2*x + y + 1024*x^2")
    # val_P(1024 x^2) = 10 - max(2, 0)... = 10 - 2 = 8 < 10, stays at cap 10
    s = CappedSeries(mode, f, Fraction(8))
    assert set(s.body.support()) == {(1, 0), (0, 1)}
    s2 = CappedSeries(mode, f, Fraction(9))
    assert set(s2.body.support()) == {(1, 0), (0, 1), (2, 0)}
    # a body that loses no term is kept, so memos keyed on it survive; the
    # capped engine hands back its own bodies, the inputs' among them
    assert s2.body is f and s.body is not f
    gens = [s2, CappedSeries(mode, parse_poly(ring, "x*y + 4"), Fraction(9))]
    basis = buchberger_P(gens).basis
    assert [h.body for h in basis[:2]] == [g.body for g in gens]
    assert all(h.body is g.body for h, g in zip(basis, gens))


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
            assert mode.context.term_val(c, e) >= cap


def test_weight_pipeline_degenerates_to_polynomial():
    ring, mode = polytope_mode([(0, 0)], field=FieldSpec.rational())
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
    # the weight directive parses to the one-vertex polytope
    rng = random.Random(4321)
    ring, wmode = directive_mode("weight 1 2")
    pmode = directive_mode("polytope (1,2)")[1]
    assert isinstance(wmode, PolytopeMode) and wmode == pmode
    cap = Fraction(50)
    for _ in range(5):
        gens = [random_poly(ring, rng, terms=2, radius=2, bound=4) for _ in range(2)]
        gw = [CappedSeries(wmode, g, cap) for g in gens]
        gp = [CappedSeries(pmode, g, cap) for g in gens]
        rw = buchberger_P(gw, None)
        rp = buchberger_P(gp, None)
        assert [h.body for h in rw.basis] == [h.body for h in rp.basis]
        assert rw.stats == rp.stats


@pytest.mark.parametrize("kind, n", [("standard", 2), ("orthant", 2), ("standard", 3)])
def test_single_vertex_refinement_reuses_the_base_cones(kind, n):
    base = build_decomposition(kind, n)
    refined = build_refined_decomposition(PolytopeContext([(1, 2, 3)[:n]]), base)
    assert refined.decomposition is base
    assert all(cone is b for (_, _, cone), b in zip(refined.entries, base.cones, strict=True))
    assert refined.labels == tuple((1, j) for j in range(1, len(base) + 1))
    assert [refined.flat_index(label) for label in refined.labels] == [b.id for b in base.cones]


def test_refined_decomposition_is_shared_and_errors_are_not():
    for vertices in ((1, 2),), ((1, 1), (-2, -1)), ((0, 0), (3, 1)):
        for kind in ("standard", "orthant"):
            base = build_decomposition(kind, 2)
            first = build_refined_decomposition(PolytopeContext(vertices), base)
            assert build_refined_decomposition(PolytopeContext(vertices), base) is first
    for _ in range(2):
        with pytest.raises(AffinoidError, match="dimension"):
            build_refined_decomposition(PolytopeContext([(1, 1)]), build_decomposition("standard", 3))


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


#: design ideal cap-9 of the capped-series benchmark at seed 1; its common
#: zero (1/2, 1/4) lies in the domain, so the ideal is proper
CAP9 = (
    "ring Qp 2\nvars x y\n{directive}\norder degmin\nprecision {cap}\ngens:\n"
    "(3/50)*x^-2*y^-2 + (-11663/400)*x*y + (-25/2)*x^2*y^2\n(-10)*x^-2*y^2 + (5)*x\n"
)


@pytest.mark.parametrize("directive", ["weight 1 2", "polytope (1,2)"])
def test_noise_leading_term_fails_loudly(tmp_path, capsys, directive):
    """At cap 150 the fourth basis element of cap-9 is one monomial of
    valuation 149, certified only to 143: its leading term is noise, and
    dividing 1 by the basis would claim 1 is in the ideal.  At cap 50 every
    added element is certified and 1 is not a member."""
    from lgb.cli import main, parse_problem

    problem = parse_problem(CAP9.format(directive=directive, cap=150))
    message = "basis element 4 has a leading term of valuation 149, but it is certified only to precision 143"
    with pytest.raises(PrecisionError, match=message):
        buchberger_P(problem.series_generators())
    path = tmp_path / "cap9.txt"
    path.write_text(CAP9.format(directive=directive, cap=50))
    assert main(["member", str(path), "--poly", "1"]) == 3
    assert main(["member", str(path), "--poly", "1", "--precision", "150"]) == 2
    out, err = capsys.readouterr()
    assert out == "member: false\n" and err == f"error: {message}\n"


#: design ideal cap-1 of the capped-series benchmark at seed 1
CAP1 = (
    "ring Qp 2\nvars x y\n{directive}\norder degmin\nprecision {cap}\ngens:\n"
    "(-25/2)*x^-2*y^-1 + (-1/6)*y^2 + (-306/5)*x^2*y^2\n(3)*x + (4)*x*y\n"
)


@pytest.mark.parametrize("cap", [50, 200])
@pytest.mark.parametrize("directive", ["weight 1 2", "polytope (1,2)"])
def test_carried_valuations_match_fresh_ones(monkeypatch, directive, cap):
    """Sums carry valuations by the ultrametric rule; every coefficient that
    the engine builds, reads back or returns has the valuation recomputed
    from its value: each basis body, every S-pair, and every division's
    quotients and remainder, those of the criterion check included."""
    from lgb.coeffs import Coefficient

    seen = []

    def spy(module, name, out):
        real = getattr(module, name)

        def wrapped(*args):
            result = real(*args)
            seen.append(out(result))
            return result

        monkeypatch.setattr(module, name, wrapped)

    def divided(result):
        qdicts, remainder = result
        return [c for q in qdicts for c in q.values()] + [c for _, c in remainder.terms_unordered()]

    spy(groebner, "_divide", divided)
    spy(affinoid, "_divide", divided)
    spy(groebner, "_spair", lambda h: [c for _, c in h.terms_unordered()])
    problem = parse_problem(CAP1.format(directive=directive, cap=cap))
    basis = buchberger_P(problem.series_generators()).basis
    assert is_groebner_series(basis)[0]
    for f in [problem.series(parse_poly(problem.ring, "1"))] + problem.series_generators():
        quotients, remainder = reduce_P(f, basis)
        seen.append([c for h in quotients + [remainder] for _, c in h.body.terms_unordered()])
    seen.append([c for h in basis for _, c in h.body.terms_unordered()])
    coefs = [c for batch in seen for c in batch]
    carried = [c for c in coefs if c._val is not None]
    assert len(carried) > len(coefs) // 4
    for c in coefs:
        assert c.valuation() == Coefficient(c.spec, c._n, c._d).valuation(), c


def test_buchberger_p_combinations_certify_each_element():
    # h - sum(c_i * f_i) lies strictly above val(lt h) for every element,
    # and the inputs are their own combinations
    problem = parse_problem(CAP9.format(directive="polytope (1,2)", cap=50))
    gens = problem.series_generators()
    for normalize in (False, True):
        res = buchberger_P(gens, GBConfig(normalize=normalize))
        assert len(res.combinations) == len(res.basis) > len(gens)
        for k, (h, combo) in enumerate(zip(res.basis, res.combinations)):
            rebuilt = sum((c * g.body for c, g in zip(combo, gens)), problem.ring.zero())
            if k < len(gens):
                assert rebuilt == h.body
            lead = val_polytope(problem.mode.context, h)[0]
            assert val_polytope(problem.mode.context, h.body - rebuilt)[0] > lead


def test_series_validation_shared_by_gb_and_check():
    # 1024 = 2^10 is zero at cap 10; both verbs reject it with one message
    ring, mode = polytope_mode([(1, 2)])
    f = CappedSeries(mode, parse_poly(ring, "x - 1"), 10)
    zero = CappedSeries(mode, parse_poly(ring, "1024"), 10)
    other_cap = CappedSeries(mode, parse_poly(ring, "y - 1"), 12)
    for engine in (buchberger_P, is_groebner_series):
        with pytest.raises(AffinoidError, match="need at least one generator"):
            engine([])
        with pytest.raises(AffinoidError, match="nonzero at the working precision"):
            engine([f, zero])
        with pytest.raises(AffinoidError, match="share one precision cap"):
            engine([f, other_cap])


def test_is_groebner_series_certificate_names_input_positions():
    ring, mode = polytope_mode([(1, 2)])
    texts = ("4*x*y + 3*x", "4*x*y + 3*x", "-306/5*x^2*y^2 - 25/2*x^-2*y^-1 - 1/6*y^2")
    gens = [CappedSeries(mode, parse_poly(ring, t), 50) for t in texts]
    flag, cert = is_groebner_series(gens)
    assert not flag
    assert cert[1:3] == (0, 2)


def test_is_groebner_series_forms_every_spair(monkeypatch):
    """The capped check is exhaustive: one S-pair per collision generator
    of every pair and label, none skipped (see ``groebner``)."""
    ring, mode = polytope_mode([(1, 2)])
    gens = [CappedSeries(mode, parse_poly(ring, t), 20) for t in ("x*y + 4", "2*x + y", "x^2 - 8*y")]
    basis = buchberger_P(gens).basis
    expected = sum(
        len(collisions(mode, f.body, g.body, label))
        for k, f in enumerate(basis) for g in basis[k + 1:] for label in mode.labels
    )
    calls = []
    builder = groebner._spair

    def counted(*args):
        calls.append(args)
        return builder(*args)

    monkeypatch.setattr(groebner, "_spair", counted)
    assert is_groebner_series(basis) == (True, None)
    assert len(basis) > 2 and expected > len(basis) and len(calls) == expected


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
    r = (Fraction(1, 3), Fraction(-1, 2))
    ring, mode = polytope_mode([r], field=FieldSpec.padic(3), score="min")
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
    f = CappedSeries(mode, parse_poly(ring, "2*x + y"), cap)
    g = CappedSeries(mode, parse_poly(ring, "x*y + 4"), cap)
    adapter = affinoid._series_generators([f, g])[2]
    for label in mode.labels:
        for v in collisions(mode, f.body, g.body, label):
            s = groebner._spair(adapter, label, f.body, g.body, v)
            if not s.is_zero():
                lmf, lcf = mode.cone_leading(f.body, label)
                lmg, lcg = mode.cone_leading(g.body, label)
                assert mode.term_key(*mode.leading(s)) < mode.term_key(lcf * lcg, v)


def test_tij_generators_verified_directly():
    rng = random.Random(2718)
    ctx, refined, ring, mode = example71()
    for _ in range(10):
        f = random_poly(ring, rng, terms=2, radius=2)
        for label in mode.labels:
            gens = tij_generators(mode, f, label, 6)
            assert gens
            for g in gens:
                assert reference_member(mode, f, g, label)
            i, _ = label
            cone = refined.cone(label)
            for g in gens:
                for k in range(len(cone.generators)):
                    w = cone.generators[k]
                    shifted = tuple(a + b for a, b in zip(g, w))
                    assert reference_member(mode, f, shifted, label)


def test_single_term_tij_generator():
    ctx, refined, ring, mode = example71()
    f = parse_poly(ring, "4*x^2*y^-1")
    for label in mode.labels:
        gens = tij_generators(mode, f, label, 6)
        for g in gens:
            assert reference_member(mode, f, g, label)


# example 7.1 and the polytopes of the general-cones benchmark workload
BENCH_POLYTOPES = (((1, 1), (0, 1)), ((1, 0), (0, 1)), ((2, 1), (0, 1)), ((1, 0), (-1, 0)))


# the Laurent rings of the shifted-lm test, by name
LAURENT_RINGS = {
    "standard": lambda: ring_for(FieldSpec.rational(), 2),
    "orthant": lambda: orthant_ring(2),
    "n3": lambda: ring_for(FieldSpec.rational(), 3),
}


@pytest.mark.parametrize(
    "vertices",
    BENCH_POLYTOPES
    + (((1, 2),),)
    + tuple(pytest.param(name, id=f"laurent {name}") for name in LAURENT_RINGS),
)
def test_shifted_lm_matches_leading_of_product(vertices):
    """The adapter's lm(X^t g) is the leading monomial of the built product
    in every layer, and its member test is the mode's ``in_region`` of it."""
    if vertices in LAURENT_RINGS:
        ring = LAURENT_RINGS[vertices]()
        mode = LaurentMode(ring)
    else:
        ring, mode = polytope_mode(vertices)
    adapter = PolynomialMode(mode)
    rng = random.Random(str(vertices))
    for _ in range(8):
        g = random_poly(ring, rng, terms=4, radius=3)
        for t in box_points(ring.n, 4):
            lm = mode.leading(g.term_mul(t)).exp
            assert adapter._shifted_lm(g, t) == lm
            for label in mode.labels:
                assert adapter.member(g, t, label) == mode.in_region(label, lm), (g, t, label)


@pytest.mark.parametrize("directive", ["weight 1 2", "polytope (1/2,3)"])
def test_one_vertex_module_is_the_laurent_module_of_the_initial_form(directive):
    """With one vertex r, shifting by t moves every term's valuation by
    r.t, so lm(X^t g) = lm(X^t in_r(g)): each module, and each member test,
    is the Laurent one of the initial form at the flat label."""
    ring, mode = directive_mode(directive)
    adapter, laurent = PolynomialMode(mode), PolynomialMode(LaurentMode(ring))
    rng = random.Random(directive)
    for _ in range(12):
        g = random_poly(ring, rng, terms=4, radius=3)
        initial = initial_at_vertex(mode.context, g, 1)
        for label in mode.labels:
            flat = mode.refined.flat_index(label)
            module = cone_module(adapter, g, label)
            expected = cone_module(laurent, initial, flat)
            assert (module.lm, module.generators) == (expected.lm, expected.generators), (g, label)
            for t in box_points(2, 4):
                assert adapter.member(g, t, label) == laurent.member(initial, t, flat), (g, label, t)


@pytest.mark.parametrize("directive", ["laurent", "weight 1 2", "polytope (1,1) (0,1)"])
def test_zero_polynomial_has_no_cone_module(directive):
    if directive == "laurent":
        ring = q2_ring()
        mode = LaurentMode(ring)
    else:
        ring, mode = directive_mode(directive)
    for label in mode.labels:
        with pytest.raises(UndefinedLeadingError):
            cone_module(PolynomialMode(mode), ring.zero(), label)


# tij_generators(mode, f, label, 6) at the labels (1,1), (1,2), (2,1), (2,2),
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
        tij_generators(mode, parse_poly(ring, text), label, 6)
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
    """term_key orders terms as the reference comparators
    ``conftest.reference_compare_weight`` (weight (1,2)) and
    ``reference_compare_polytope`` do, and ``leading`` is the
    compare-maximum."""
    if vertices is None:
        ring, mode = polytope_mode([(1, 2)])
        compare = lambda s, t: reference_compare_weight((1, 2), ring.order, s, t)
    else:
        ring, mode = polytope_mode(vertices)
        compare = lambda s, t: reference_compare_polytope(mode.context, ring.order, s, t)
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


def _shifted_multiples(mode, label, f, g, v):
    """The term valuations of lc_g*X^(v - lm_f)*f and lc_f*X^(v - lm_g)*g,
    each {exponent: valuation}, for series or polynomial bodies f and g."""
    f, g = affinoid._body_of(f), affinoid._body_of(g)
    out = []
    for h, other in ((f, g), (g, f)):
        lm, _ = mode.cone_leading(h, label)
        _, lc = mode.cone_leading(other, label)
        shifted = h.term_mul(vsub(v, lm), lc)
        out.append({e: mode.context.term_val(c, e) for e, c in shifted.terms_unordered()})
    return out


def _straddling_caps(mode, f, g):
    """Caps at which a term of an S-pair of the bodies f and g lies at the
    cap in one shifted multiple and below it in the other."""
    caps = set()
    for label in mode.labels:
        for v in collisions(mode, f, g, label):
            a, b = _shifted_multiples(mode, label, f, g, v)
            caps.update(max(a[e], b[e]) for e in a.keys() & b.keys() if a[e] != b[e])
    return caps


def _one_sided_terms(mode, label, f, g, v):
    """How many exponents of S(f, g, v) get a term at or above its own cap
    from one shifted multiple and a term below its cap from the other."""
    a, b = _shifted_multiples(mode, label, f, g, v)
    return sum((a[e] >= f.cap) != (b[e] >= g.cap) for e in a.keys() & b.keys())


def _spread_poly(ring, rng):
    """A random polynomial whose coefficients spread over 2-adic valuations
    -1..8."""
    terms = {}
    for _ in range(rng.randint(2, 4)):
        e = tuple(rng.randint(-2, 2) for _ in range(ring.n))
        terms[e] = random_coeff(ring, rng) * ring.field.from_int(2 ** rng.randint(0, 5))
    return ring.poly(terms)


@pytest.mark.parametrize("vertices", [None, ((1, 2),)] + list(BENCH_POLYTOPES))
def test_one_pass_spair_series_matches_the_composition(vertices):
    """The S-pair builder, run under a cap, equals the term_mul/subtraction
    composition of series, which cuts each shifted multiple and then the sum
    at the cap: at every collision generator of every cone, and at caps
    where a term of S lies at or above the cap in one multiple only."""
    if vertices is None:
        _, mode = directive_mode("weight 1 2")
    else:
        _, mode = polytope_mode(vertices)
    rng = random.Random(f"spair {vertices}")
    formed = one_sided = 0
    for _ in range(150):
        fb, gb = _spread_poly(mode.ring, rng), _spread_poly(mode.ring, rng)
        try:
            caps = sorted(_straddling_caps(mode, fb, gb))
        except LatticeError:  # a module the search cannot certify
            continue
        caps.append(Fraction(rng.randint(2, 12), rng.choice((1, 2))))
        for cap in caps:
            f, g = CappedSeries(mode, fb, cap), CappedSeries(mode, gb, cap)
            if f.is_zero() or g.is_zero():
                continue
            adapter = PolynomialMode(mode, affinoid._cap_bound(mode, cap))
            for label in mode.labels:
                try:
                    found = collisions(mode, f.body, g.body, label)
                except LatticeError:
                    continue
                for v in found:
                    s = groebner._spair(adapter, label, f.body, g.body, v)
                    ref = reference_spair_series(mode, label, f, g, v)
                    assert CappedSeries(mode, s, cap).body is s and s.ring is mode.ring
                    assert (s, cap) == (ref.body, ref.cap)
                    formed += 1
                    one_sided += _one_sided_terms(mode, label, f, g, v)
    assert formed >= 200 and one_sided >= 20, (formed, one_sided)


def _drop_one_quotient_term(real):
    def broken(f, gens, mode):
        quotients, remainder = real(f, gens, mode)
        for q in quotients:
            if q:
                q.pop(next(iter(q)))
                break
        else:
            raise AssertionError("no quotient term to drop")
        return quotients, remainder

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
        ring, mode = directive_mode("weight 1 2")
    else:
        ring, mode = polytope_mode([(1, 2)])
    f = CappedSeries(mode, parse_poly(ring, "x^3*y + 2*x*y^2 + x^-1"), 20)
    gens = [CappedSeries(mode, parse_poly(ring, p), 20) for p in ("x*y + 2", "y^2 + 4*x")]
    reduce_P(f, gens)
    broken = _drop_one_quotient_term(reduction.division_loop)
    monkeypatch.setattr(reduction, "division_loop", broken)
    with pytest.raises(ArithmeticError):
        reduce_P(f, gens)


@pytest.mark.parametrize(
    "directive",
    [
        "weight (1,2)", "polytope (1,2)", "example 7.1", "laurent standard", "laurent orthant",
        "segment orthant",
    ],
)
def test_reducer_fires_at_its_cone_leading_monomial(directive):
    """lm(X^t g) in the cone-label module implies lm(X^t g) = t + lm_label(g):
    so a division step, which fires when lm(X^shift g) is the current
    leading exponent with shift = that exponent minus lm_label(g), always
    cancels at its cone leading monomial and needs no check.  The module
    value holds exactly these t: t + lm_label(g) lies in its shifted module
    iff lm(X^t g) lands in the cone and, over a polytope, in V_{i,<}."""
    if directive == "weight (1,2)":
        ring, mode = directive_mode("weight 1 2")
    elif directive == "polytope (1,2)":
        ring, mode = polytope_mode([(1, 2)])
    elif directive == "example 7.1":
        ring, mode = polytope_mode(BENCH_POLYTOPES[0])
    elif directive == "segment orthant":
        ring, mode = polytope_mode(SEGMENT, "orthant")
    else:
        ring = q2_ring() if directive == "laurent standard" else orthant_ring(2)
        mode = LaurentMode(ring)
    rng = random.Random(directive)
    adapter = PolynomialMode(mode)
    hits = 0
    for _ in range(8):
        g = random_poly(ring, rng, terms=4, radius=3)
        for label in mode.labels:
            lm_g, _ = mode.cone_leading(g, label)
            module = cone_module(adapter, g, label, 12)
            for t in box_points(2, 4):
                lm = adapter.shifted_lm(g, t)
                if isinstance(mode, PolytopeMode):
                    member = mode.refined.cone(label).contains(lm) and mode.context.in_vi_less(label[0], lm)
                else:
                    member = ring.order.decomposition[label].contains(lm)
                assert (vadd(t, lm_g) in module) == member, (g, label, t)
                if member:
                    assert lm == vadd(t, lm_g), (g, label, t)
                    hits += 1
    assert hits > 100


def test_tij_generators_are_memoized(monkeypatch):
    searches = []
    real = affinoid._tij_cells

    def counting(*args):
        searches.append(args)
        return real(*args)

    # one search may run several box rounds but describes the module once
    monkeypatch.setattr(affinoid, "_tij_cells", counting)
    ring, mode = polytope_mode(BENCH_POLYTOPES[0])
    f = parse_poly(ring, "x^-1*y^2 - 2*x")
    adapter = PolynomialMode(mode)
    # a hit returns the same value, whose generators callers cannot change
    module = cone_module(adapter, f, (1, 1), 6)
    assert module.generators == ((1, -2),)
    assert cone_module(adapter, f, (1, 1), 6) is module
    # an equal polynomial built separately hits the same entry, under
    # another engine call's adapter too
    assert cone_module(PolynomialMode(mode), parse_poly(ring, "x^-1*y^2 - 2*x"), (1, 1), 6) is module
    assert len(searches) == 1
    # a certified set does not depend on the ceiling: another one is a hit
    assert cone_module(adapter, f, (1, 1), 0) is module
    assert len(searches) == 1
    assert tij_generators(mode, f, (1, 2), 6) == [(1, -2)]
    assert len(searches) == 2
    # a failure is not cached: each attempt searches again
    ring, mode = polytope_mode(SEGMENT, "orthant")
    g = parse_poly(ring, "2*y^-3 - 8/3*x*y^-2")
    for _ in range(2):
        with pytest.raises(affinoid.IncompleteSearchError, match="within radius 1"):
            tij_generators(mode, g, (2, 2), 1)
    assert len(searches) == 4
    found = tij_generators(mode, g, (2, 2), 8)
    assert len(found) > 1 and len(searches) == 5
    assert tij_generators(mode, g, (2, 2), 1) == found
    assert len(searches) == 5


# the segment (1,0),(0,1) on the orthant cones: a valid order whose six
# cone modules have several generators, found only by a widening box
SEGMENT = ((1, 0), (0, 1))


def _tij_ring(k):
    """(ring, mode) of the k-th general-cones polytope, or for k = 4 of
    SEGMENT on the orthant cones."""
    return polytope_mode(SEGMENT, "orthant") if k == 4 else polytope_mode(BENCH_POLYTOPES[k])


def test_tij_cells_agree_with_module_contains():
    """The cell description holds exactly the members: t satisfies it iff
    lm(X^t f) lands in the cone and in V_{i,<}."""
    for ring, mode in map(_tij_ring, range(5)):
        rng = random.Random(str(mode.refined.labels))
        texts = list(TIJ_POLYS) + [str(random_poly(ring, rng, terms=3, radius=3)) for _ in range(4)]
        adapter = PolynomialMode(mode)
        for text in texts:
            f = parse_poly(ring, text)
            for label in mode.labels:
                base, factors = affinoid._tij_cells(mode, f, label)
                for t in box_points(2, 6):
                    assert _satisfies(base, factors, t) == adapter.member(f, t, label), (
                        text, label, t,
                    )


def _tij_outcome(search, mode, f, label, radius):
    """The generators one search returns, or the type and text of the
    lattice error it raises."""
    try:
        return search(mode, f, label, radius)
    except LatticeError as exc:
        return type(exc), str(exc)


def test_widening_tij_search_agrees_with_the_whole_box_search(monkeypatch):
    from lgb import lattice

    tests, rounds = [], []
    real_member, real_satisfies = PolynomialMode.member, lattice._satisfies
    real_reference, real_minimal = conftest.reference_member, lattice.minimal_elements

    def member(self, f, t, label):
        tests.append(t)
        return real_member(self, f, t, label)

    def reference(mode, f, t, label):
        tests.append(t)
        return real_reference(mode, f, t, label)

    def satisfies(base, factors, p):
        tests.append(p)
        return real_satisfies(base, factors, p)

    def minimal(*args):
        rounds.append(args)
        return real_minimal(*args)

    monkeypatch.setattr(PolynomialMode, "member", member)
    monkeypatch.setattr(conftest, "reference_member", reference)
    monkeypatch.setattr(lattice, "_satisfies", satisfies)
    monkeypatch.setattr(lattice, "minimal_elements", minimal)
    cases = []
    for k in range(5):
        ring, mode = _tij_ring(k)
        rng = random.Random(20261019 + k)
        texts = list(TIJ_POLYS) + [str(random_poly(ring, rng, terms=3, radius=3)) for _ in range(4)]
        if k == 2:
            # T_{(2,2)} = (-2,-6) + C: certified only once the cell row
            # -2*t1 - 3 >= 0 is tightened to -t1 - 2 >= 0 (t1 = -3/2 is
            # outside the module but passes the untightened row)
            texts.append("x^-1*y^3 - 9*x*y^3")
        ceilings = (6, 8) if k == 4 else range(7)
        cases += [(k, mode.labels, text, r) for text in texts for r in ceilings]
    saved = widened = 0
    for k, labels, text, radius in cases:
        for label in labels:
            # a fresh mode per search, so no memo answers for another ceiling
            ring, mode = _tij_ring(k)
            del tests[:], rounds[:]
            got = _tij_outcome(tij_generators, mode, parse_poly(ring, text), label, radius)
            count = len(tests)
            widened += len(rounds) > 1
            ring, mode = _tij_ring(k)
            del tests[:]
            expected = _tij_outcome(reference_tij_generators, mode, parse_poly(ring, text), label, radius)
            assert got == expected, (k, text, label, radius)
            saved += count < len(tests)
    assert saved and widened


def test_interior_vector_is_memoized_per_label(monkeypatch):
    """The walk to a witness starts from the same direction: the first
    nonzero point of the boxes of radius 1 to 7 strictly inside the cone
    and V_i, computed once per label."""
    for ring, mode in map(_tij_ring, range(5)):
        for label in mode.labels:
            cone = mode.refined.cone(label)
            normals = cone.halfspaces + mode.context.vi_halfspaces(label[0])
            expected = next(
                p for r in range(1, 8) for p in box_points(2, r)
                if any(p) and all(vdot(h, p) > 0 for h in normals)
            )
            assert mode._interior_vector(label) == expected
        monkeypatch.setattr(affinoid, "box_points", None)
        assert [mode._interior_vector(label) for label in mode.labels]
        monkeypatch.undo()


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
    # the unmemoized builder, so that refinements other tests built still
    # ask every question here
    for vertices in SETUP_POLYTOPES:
        ctx = PolytopeContext(vertices)
        for base in ("standard", "orthant"):
            affinoid._new_refined_decomposition(ctx, build_decomposition(base, 2))
    # in a pointed cone every candidate ray is extreme, so the ray
    # enumeration asks no feasibility question; its output is unchanged
    # from the version that filtered candidates with fm_feasible
    # with the two cones of the ray tests in test_lattice
    cones = [(hs, 3) for hs in SETUP_CONES] + [
        (((-3, -2), (-1, 0), (-1, 1)), 2),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3),
    ]
    rays = [lattice.rays_from_halfspaces(hs, n) for hs, n in cones]
    assert callers == {
        "_in_convex_hull": {False},
        "_new_refined_decomposition": {True, False},
    }
    assert rays == [
        [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)],
        [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)],
        [(-2, 3), (-1, -1)],
        [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
    ]
