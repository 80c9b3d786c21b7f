"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
lines while running).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (
    certified_ti, random_poly, reference_compare_weight, ring_for, ti_contains, ti_generator,
)
from lgb.affinoid import (
    PolytopeContext,
    PolytopeMode,
    buchberger_P,
    build_refined_decomposition,
    initial_at_vertex,
    lm_polytope,
    reduce_P,
    val_polytope,
)
from lgb.cli import parse_poly, parse_problem
from lgb.coeffs import FieldSpec
from lgb.gmo import GeneralizedOrder, ScoreFunction, make_order, validate_gmo
from lgb.groebner import buchberger, ideal_membership, is_groebner, same_ideal
from lgb.laurent import LaurentRing, Term
from lgb.lattice import box_points, build_decomposition, vsub
from lgb.oracle import brute_ti, brute_valP, laurent_membership_oracle
from lgb.reduction import reduce


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.3f}s)")


def test_criterion_01_order_fixtures():
    with criterion(1, "greatest tuple fixtures, exact, < 1 ms"):
        order = make_order(2, "degmin")
        order.linear_form(0)  # warm the derived caches outside the timed region
        t0 = time.perf_counter()
        first = order.greatest_tuple((-2, 3), (1, 2))
        second = order.greatest_tuple_for_cone(2, (1, 3), (-1, 2), (-4, -3))
        elapsed = time.perf_counter() - t0
        assert first == (-2, 3)
        assert second == (-4, -3)
        assert elapsed < 0.001


def test_criterion_02_leading_data_fixture():
    with criterion(2, "leading data fixture, exact, < 1 ms"):
        ring = ring_for(FieldSpec.rational(), 2, "degmin")
        f = parse_poly(ring, "2*x^2*y^-1 + x^-3*y - 3*y^-5")
        t0 = time.perf_counter()
        lm = f.leading_data()[0]
        lm1 = f.cone_leading_data(1)[0]
        gen2 = ti_generator(f, 2)
        elapsed = time.perf_counter() - t0
        assert lm == (0, -5)
        assert lm1 == (-3, 1)
        assert gen2 == (1, 2)
        assert elapsed < 0.001


def test_criterion_03_division_fixture():
    with criterion(3, "division fixture, exact remainder and quotients, < 10 ms"):
        ring = ring_for(FieldSpec.rational(), 2, "degmin")
        f = parse_poly(ring, "2*x^2*y^-1 + x^-3*y - 3*y^-5")
        gens = [
            parse_poly(ring, "x^-2*y^-1 + x*y"),
            parse_poly(ring, "x^-2*y + x^2*y^-1"),
        ]
        t0 = time.perf_counter()
        quotients, remainder = reduce(f, gens)
        elapsed = time.perf_counter() - t0
        assert remainder == parse_poly(ring, "-y^3 + 2*x^2*y^-1 - 3*x^-1*y^-1")
        assert quotients[0] == parse_poly(ring, "x^-1*y^2 + 3*x^-2*y^-2")
        assert quotients[1] == parse_poly(ring, "-3*x^-2*y^-4")
        acc = remainder
        for q, g in zip(quotients, gens):
            acc = acc + q * g
        assert acc == f
        assert elapsed < 0.010


def test_criterion_04_buchberger_fixtures():
    with criterion(4, "three quoted ideals: criterion closure and ideal equality, < 10 s each"):
        ring_d3 = ring_for(FieldSpec.rational(), 3, "degmin")
        gens1 = [
            parse_poly(ring_d3, "x^-3*y^-4 + x*y*z"),
            parse_poly(ring_d3, "x^3*y^-2 + y^-1*z"),
        ]
        # The printed third element reads -y^-4 + x^-1*y^-2*z^-1, but the
        # saturation oracle proves that polynomial is not in the ideal
        # (under either reading of the first generator's disputed sign);
        # the oracle-confirmed element has support {y^4 z, x^-1 y^-2 z^-1}.
        printed1 = [
            parse_poly(ring_d3, "x^-3*y^-4 + x*y*z"),
            parse_poly(ring_d3, "x^3*y^-2 + y^-1*z"),
            parse_poly(ring_d3, "-y^4*z + x^-1*y^-2*z^-1"),
        ]
        assert not laurent_membership_oracle(
            parse_poly(ring_d3, "-y^-4 + x^-1*y^-2*z^-1"), gens1, max_basis=400
        )
        assert laurent_membership_oracle(printed1[2], gens1, max_basis=400)

        ring_m3 = ring_for(FieldSpec.rational(), 3, "min")
        gens2 = [
            parse_poly(ring_m3, "1/2*x^-1*y + 3*y^-4*z^2 + y"),
            parse_poly(ring_m3, "2*x^2*y^3*z^-1 - 1/3*x^-1*y^3*z^-6"),
        ]
        printed2 = [
            parse_poly(ring_m3, s)
            for s in [
                "y + 1/2*x^-1*y + 3*y^-4*z^2",
                "2*x^2*y^3*z^-1 - 1/3*x^-1*y^3*z^-6",
                "1/4*y^5*z^5 - 3*x^2*z^7 + 3/2*x*z^7 + 1/3*y^5 + z^2",
                "1/4*y^10*z^5 - 3/4*y^5*z^7 + 1/3*y^10 - 9/2*x*z^9 + 2*y^5*z^2 + 3*z^4",
                "1/4*y^15*z^5 + 1/3*y^15 + 3*y^10*z^2 + 9*y^5*z^4 + 9*z^6",
                "6*x^2*y^4*z^4 + 3*x*y^4*z^4 + 3*x^-1*y^-1*z",
            ]
        ]

        ring_f9 = ring_for(FieldSpec.finite(3, 2), 2, "degmin")
        gens3 = [
            parse_poly(ring_f9, "x^2*y + y^-6"),
            parse_poly(ring_f9, "x^3*y^-2 + x^-6*y"),
            parse_poly(ring_f9, "x^-2*y + x^-1*y^-2"),
        ]
        printed3 = [
            parse_poly(ring_f9, s)
            for s in [
                "x^2*y + y^-6",
                "x^3*y^-2 + x^-6*y",
                "x^-2*y + x^-1*y^-2",
                "-x*y + x^-2*y^-3",
                "x^2*y + x^-2",
                "y^-1 + x^-1",
                "-y^2 + x^-1",
                "x^-1*y^-1 + x^-2*y^-2",
            ]
        ]

        for gens, printed in ((gens1, printed1), (gens2, printed2), (gens3, printed3)):
            t0 = time.perf_counter()
            result = buchberger(gens)
            elapsed = time.perf_counter() - t0
            assert elapsed < 10.0
            assert is_groebner(result.basis)[0]
            for g in gens:
                assert reduce(g, result.basis).remainder.is_zero()
            assert same_ideal(result.basis, printed)


def test_criterion_05_ti_general_equals_brute():
    with criterion(5, "polyhedral cone modules equal direct evaluation, < 60 s"):
        t0 = time.perf_counter()
        mismatches = 0
        for field in (FieldSpec.rational(), FieldSpec.finite(7)):
            for score in ("degmin", "min"):
                ring = ring_for(field, 2, score)
                rng = random.Random(1000 * field.p + (1 if score == "min" else 0))
                for _ in range(50):
                    f = random_poly(ring, rng, terms=3, radius=3)
                    for i in range(3):
                        gens = certified_ti(f, i, 6)
                        cone = ring.order.decomposition[i]
                        expected = {
                            t
                            for t in box_points(2, 6)
                            if any(cone.contains(vsub(t, g)) for g in gens)
                        }
                        if brute_ti(f, i, 6) != expected:
                            mismatches += 1
        elapsed = time.perf_counter() - t0
        assert mismatches == 0
        assert elapsed < 60.0


def test_criterion_06_monogenous_and_proximity():
    with criterion(6, "single-generator cone modules and proximity bound, zero violations"):
        rng = random.Random(606)
        for n in (2, 3):
            ring = ring_for(FieldSpec.rational(), n, "degmin")
            ncones = n + 1
            radius = 5 if n == 2 else 4
            for _ in range(100):
                f = random_poly(ring, rng, terms=3, radius=3)
                gens = []
                for i in range(ncones):
                    g = ti_generator(f, i)
                    cone = ring.order.decomposition[i]
                    # the computed module is exactly one shifted cone
                    expected = {
                        t for t in box_points(n, radius) if cone.contains(vsub(t, g))
                    }
                    assert brute_ti(f, i, radius) == expected
                    for h in cone.generators:
                        assert not ti_contains(f, vsub(g, h), i)
                    gens.append(g)
                for a in gens:
                    for b in gens:
                        assert max(abs(x - y) for x, y in zip(a, b)) <= 1


def test_criterion_07_membership_oracle_agreement():
    with criterion(7, "membership agrees with the saturation oracle on 150 probes, < 120 s"):
        t0 = time.perf_counter()
        ring = ring_for(FieldSpec.rational(), 2, "degmin")
        rng = random.Random(707)
        disagreements = 0
        for _ in range(50):
            gens = [random_poly(ring, rng, terms=2, radius=2, bound=4) for _ in range(2)]
            basis = buchberger(gens).basis
            for _ in range(3):
                probe = random_poly(ring, rng, terms=2, radius=2, bound=4)
                mine = ideal_membership(probe, basis, trusted=True)
                theirs = laurent_membership_oracle(probe, gens)
                if mine != theirs:
                    disagreements += 1
        elapsed = time.perf_counter() - t0
        assert disagreements == 0
        assert elapsed < 120.0


def test_criterion_08_order_axioms():
    with criterion(8, "order axioms validate for min/degmin at n = 1..4; bad score rejected"):
        for n in (1, 2, 3, 4):
            for score in ("min", "degmin"):
                radius = 3 if n < 4 else 2
                report = validate_gmo(make_order(n, score), sample_radius=radius, samples=200)
                assert report.ok, (n, score, [str(c) for c in report.failures()])
        d = build_decomposition("standard", 2)
        bad = GeneralizedOrder(d, ScoreFunction("custom", 2, rows={0: (1, 1), 1: (1, 1), 2: (1, 1)}))
        report = validate_gmo(bad, sample_radius=3, samples=100)
        assert not report.ok
        fail = report.failures()[0]
        assert fail.name == "score positive off the zero set" and fail.detail


def test_criterion_09_valuation_laws():
    with criterion(9, "valuation laws: multiplicative weights, sub-multiplicative polytopes"):
        ring = ring_for(FieldSpec.padic(2), 2, "degmin")
        rng = random.Random(909)
        # a weight is the one-vertex polytope
        wctx = PolytopeContext([(Fraction(1, 2), Fraction(2))])
        for _ in range(500):
            f = random_poly(ring, rng, terms=3, radius=3)
            g = random_poly(ring, rng, terms=3, radius=3)
            assert (
                val_polytope(wctx, f * g)[0]
                == val_polytope(wctx, f)[0] + val_polytope(wctx, g)[0]
            )
        ctx = PolytopeContext([(1, 1), (0, 1)])
        for _ in range(500):
            f = random_poly(ring, rng, terms=3, radius=3)
            g = random_poly(ring, rng, terms=3, radius=3)
            assert val_polytope(ctx, f * g)[0] >= val_polytope(ctx, f)[0] + val_polytope(ctx, g)[0]
        a = parse_poly(ring, "x^-1*y^-1")
        f71 = parse_poly(ring, "2*x + y")
        # the strict witness from the quoted data lives on the 2x part,
        # whose attaining vertex differs from a's; the full pair lands on
        # equality (computed exactly) and stays sub-multiplicative
        two_x = parse_poly(ring, "2*x")
        assert (
            val_polytope(ctx, a * two_x)[0]
            > val_polytope(ctx, a)[0] + val_polytope(ctx, two_x)[0]
        )
        assert val_polytope(ctx, a * f71)[0] == val_polytope(ctx, a)[0] + val_polytope(ctx, f71)[0]
        refined = build_refined_decomposition(ctx, build_decomposition("standard", 2))
        order = GeneralizedOrder(refined.decomposition, ScoreFunction("degmin", 2))
        ring_p = LaurentRing(FieldSpec.padic(2), 2, order, ("x", "y"))
        mode = PolytopeMode(ring_p, ctx, refined)
        in_p = lm_polytope(mode, parse_poly(ring_p, "2*x + y"))[3]
        assert in_p == parse_poly(ring_p, "y")


def test_criterion_10_polytopal_degeneration():
    with criterion(10, "single-vertex polytope pipeline matches the weight pipeline bit-for-bit"):
        # the two directives, through the parser; the term order is checked
        # against the independent weight comparator
        text = "ring Qp 2\nvars x y\n{}\norder degmin\nprecision 50\ngens:\n"
        weight = parse_problem(text.format("weight 1 2") + "x\n")
        vertex = parse_problem(text.format("polytope (1,2)") + "x\n")
        r = (Fraction(1), Fraction(2))
        assert weight.mode.context.vertices == vertex.mode.context.vertices == (r,)
        ring = weight.ring
        rng = random.Random(1010)
        quotients = pairs = 0
        for k in range(20):
            terms = 2 if k % 2 == 0 else 3
            gens = [random_poly(ring, rng, terms=terms, radius=2, bound=3) for _ in range(2)]
            for _ in range(10):
                s = Term(
                    ring.field.from_int(rng.choice([1, 2, 3, 6])),
                    (rng.randint(-3, 3), rng.randint(-3, 3)),
                )
                t = Term(
                    ring.field.from_int(rng.choice([1, 2, 3, 6])),
                    (rng.randint(-3, 3), rng.randint(-3, 3)),
                )
                kw = weight.mode.term_key(*s), weight.mode.term_key(*t)
                kp = vertex.mode.term_key(*s), vertex.mode.term_key(*t)
                sign = (kw[0] > kw[1]) - (kw[0] < kw[1])
                assert sign == (kp[0] > kp[1]) - (kp[0] < kp[1])
                assert sign == reference_compare_weight(r, ring.order, s, t)
            gw = [weight.series(g) for g in gens]
            gp = [vertex.series(g) for g in gens]
            probe = random_poly(ring, rng, terms=2, radius=2, bound=3)
            qw, rw = reduce_P(weight.series(probe), gw)
            qp, rp = reduce_P(vertex.series(probe), gp)
            assert rw.body == rp.body and rw.cap == rp.cap
            assert [q.body for q in qw] == [q.body for q in qp]
            bw = buchberger_P(gw, None)
            bp = buchberger_P(gp, None)
            assert [h.body for h in bw.basis] == [h.body for h in bp.basis]
            assert bw.stats == bp.stats
            quotients += sum(not q.is_zero() for q in qw)
            pairs += bw.stats.pairs_processed
        # the divisions and the S-pairs compared are not all empty
        assert quotients >= 20 and pairs >= 20, (quotients, pairs)
        # the random ideals above are all the unit ideal; this one grows a
        # basis element and leaves a nonzero remainder
        gens = "(3/50)*x^-2*y^-2 + (-11663/400)*x*y + (-25/2)*x^2*y^2\n(-10)*x^-2*y^2 + (5)*x\n"
        answers = []
        for directive in ("weight 1 2", "polytope (1,2)"):
            problem = parse_problem(text.format(directive) + gens)
            res = buchberger_P(problem.series_generators(), None)
            _, rem = reduce_P(problem.series(parse_poly(problem.ring, "x^2 + y^2")), res.basis)
            answers.append(([h.body for h in res.basis], res.stats, rem.body))
        assert answers[0] == answers[1]
        assert len(answers[0][0]) > 2 and not answers[0][2].is_zero()


def test_criterion_11_figure_polytopes():
    with criterion(11, "figure polytopes refine, validate, and keep their regions"):
        std = build_decomposition("standard", 2)
        point = build_refined_decomposition(PolytopeContext([(1, 1)]), std)
        assert point.validate(5).ok
        assert point.decomposition is std

        segment = build_refined_decomposition(PolytopeContext([(1, 1), (-2, -1)]), std)
        assert segment.validate(5).ok

        quad_ctx = PolytopeContext([(-2, 2), (1, 2), (2, -2), (-1, -1)])
        quad = build_refined_decomposition(quad_ctx, std)
        assert quad.validate(5).ok
        assert quad.labels == ((1, 1), (2, 1), (3, 1), (4, 1))
        for i, j, cone in quad.entries:
            assert set(cone.halfspaces) == set(quad_ctx.vi_halfspaces(i))


def test_criterion_12_polytope_valuation_against_brute():
    with criterion(12, "polytope valuation equals direct evaluation on 500 inputs per fixture"):
        rng = random.Random(1212)
        ring2 = ring_for(FieldSpec.padic(2), 2, "degmin")
        ring3 = ring_for(FieldSpec.padic(2), 3, "degmin")
        fixtures = [
            (PolytopeContext([(1, 1), (0, 1)]), ring2),
            (PolytopeContext([(1, 2), (2, 1), (0, 0)]), ring2),
            (PolytopeContext([(0, 0, 3), (1, 0, 0), (-1, 1, 2), (0, 1, 1)]), ring3),
        ]
        for ctx, ring in fixtures:
            for _ in range(500):
                f = random_poly(ring, rng, terms=3, radius=3)
                assert val_polytope(ctx, f)[0] == brute_valP(ctx, f)
        # the quoted section-7 numeric examples are internally inconsistent:
        # the definition values differ from the prose, pinned here exactly
        ctx72 = PolytopeContext([(1, 2), (2, 1), (0, 0)])
        f72 = parse_poly(ring2, "1/2*x + y^2 + x*y")
        # the valuation at vertex r_1 is the weight valuation of r_1
        assert val_polytope(PolytopeContext([ctx72.vertices[0]]), f72)[0] == -4  # prose says -3
        ctx73 = PolytopeContext([(0, 0, 3), (1, 0, 0), (-1, 1, 2), (0, 1, 1)])
        t73 = parse_poly(ring3, "2*x*y*z^-1")
        assert val_polytope(ctx73, t73)[1] == (2,)  # prose says {2, 4}
