import inspect
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    orthant_ring,
    reference_fm_feasible,
    reference_minimal_elements,
    reference_pruned_choice_feasible,
    reference_some_choice_feasible,
)

from lgb import lattice
from lgb.affinoid import PolytopeContext, build_refined_decomposition
from lgb.lattice import (
    Cone,
    ConicDecomposition,
    LatticeError,
    UnsupportedConeError,
    box_points,
    build_decomposition,
    cone_from_halfspaces,
    fm_feasible,
    hilbert_basis,
    in_integer_span,
    integer_span_basis,
    is_standard_decomposition,
    minimal_elements,
    rays_from_halfspaces,
    smith_normal_form,
    validate_decomposition,
    vadd,
    vscale,
    vsub,
)


def test_standard_cone_counts():
    assert len(build_decomposition("standard", 2)) == 3
    assert len(build_decomposition("standard", 3)) == 4
    assert len(build_decomposition("orthant", 2)) == 4
    assert len(build_decomposition("orthant", 3)) == 8
    with pytest.raises(LatticeError):
        build_decomposition("standard", 0)


def test_build_decomposition_is_shared_and_errors_are_not():
    for kind, n in (("standard", 1), ("standard", 2), ("standard", 3), ("orthant", 2)):
        assert build_decomposition(kind, n) is build_decomposition(kind, n)
    for kind, n in (("bogus", 2), ("standard", 0), ("orthant", -1)):
        for _ in range(3):
            with pytest.raises(LatticeError):
                build_decomposition(kind, n)
    # 2.0 == 2, but a float dimension stays an error after the int one is shared
    for _ in range(2):
        with pytest.raises(TypeError):
            build_decomposition("standard", 2.0)


def test_cones_are_checked_once_per_decomposition():
    """In a fresh process, so that decompositions built by earlier tests
    cannot hide or add a check: rings, orders, problems and one-vertex
    refinements over a (kind, n) build its cones once."""
    script = """
from lgb import lattice
from lgb.affinoid import PolytopeContext, build_refined_decomposition
from lgb.cli import parse_problem
from lgb.gmo import make_order
checked = []
check = lattice.Cone.__post_init__
lattice.Cone.__post_init__ = lambda cone: checked.append(cone) or check(cone)
for _ in range(3):
    for kind, n in (("standard", 2), ("standard", 3), ("orthant", 2)):
        lattice.is_standard_decomposition(lattice.build_decomposition(kind, n))
        make_order(n, "degmin")
    for directive in ("", "weight 1 2", "polytope (1,2)"):
        parse_problem(f"ring Qp 2\\nvars x y\\n{directive}\\norder degmin\\ngens:\\nx + y\\n")
    ctx = PolytopeContext(((1, 2),))
    build_refined_decomposition(ctx, lattice.build_decomposition("orthant", 2))
print(len(checked))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(3 + 4 + 4)]


def test_standard_halfspaces_n2():
    d = build_decomposition("standard", 2)
    # x1 <= 0 and x1 <= x2
    assert set(d[1].halfspaces) == {(-1, 0), (-1, 1)}
    assert set(d[2].halfspaces) == {(0, -1), (1, -1)}


def test_standard_n1_degeneration():
    d = build_decomposition("standard", 1)
    assert len(d) == 2
    assert d[0].contains((3,)) and not d[0].contains((-1,))
    assert d[1].contains((-3,)) and not d[1].contains((1,))


def test_cone_contains_examples():
    d = build_decomposition("standard", 2)
    assert d[0].contains((1, 2))
    assert d[1].contains((-3, 1))
    assert not d[2].contains((0, 1))


def test_cone_factorize_examples():
    d = build_decomposition("standard", 2)
    assert d[0].factorize((2, -1)) == ((2, 0), (0, 1))
    assert d[2].factorize((0, 1)) == ((0, 0), (0, -1))
    assert d[1].factorize((0, 0)) == ((0, 0), (0, 0))


def test_cone_factorize_exhaustive_small():
    for n in (1, 2, 3):
        d = build_decomposition("standard", n)
        for cone in d:
            for s in box_points(n, 10 if n < 3 else 4):
                u, v = cone.factorize(s)
                assert cone.contains(u) and cone.contains(v)
                assert vsub(u, v) == s


def test_shifted_intersection_examples():
    d = build_decomposition("standard", 2)
    assert d[0].shifted_intersection((0, 2), (1, 0)) == (1, 2)
    assert d[0].shifted_intersection((1, 1), (1, 1)) == (1, 1)
    # derived by the module invariant below, not by the quoted figure
    assert d[2].shifted_intersection((1, 2), (-4, -3)) == (-4, -3)


def test_shifted_intersection_invariant():
    rng = random.Random(5)
    for n in (2, 3):
        d = build_decomposition("standard", n)
        for _ in range(40):
            cone = d.cones[rng.randrange(len(d.cones))]
            a = tuple(rng.randint(-4, 4) for _ in range(n))
            b = tuple(rng.randint(-4, 4) for _ in range(n))
            g = cone.shifted_intersection(a, b)
            assert cone.contains(vsub(g, a)) and cone.contains(vsub(g, b))
            for _ in range(200):
                x = tuple(rng.randint(-8, 8) for _ in range(n))
                lhs = cone.contains(vsub(x, a)) and cone.contains(vsub(x, b))
                assert lhs == cone.contains(vsub(x, g))


def test_factorize_requires_unimodular():
    # Hilbert basis of the cone spanned by (1,0) and (1,2): three generators
    cone = Cone(0, ((1, 0), (1, 1), (1, 2)), ((0, 1), (2, -1)))
    with pytest.raises(UnsupportedConeError):
        cone.factorize((1, 1))
    # inconsistent descriptions are rejected at construction
    with pytest.raises(LatticeError):
        Cone(0, ((2, 0), (0, 1)), ((1, 0), (0, 1)))


def test_cone_inverse_times_generators_is_the_identity():
    """The integer inverse behind ``_coords`` takes each generator to its
    unit coordinate vector, on the built-in cones (n = 2, 3) and on the
    refined cones of the four general-cones polytopes."""
    from test_affinoid import BENCH_POLYTOPES

    decompositions = [build_decomposition(k, n) for k in ("standard", "orthant") for n in (2, 3)]
    std = build_decomposition("standard", 2)
    decompositions += [
        build_refined_decomposition(PolytopeContext(v), std).decomposition for v in BENCH_POLYTOPES
    ]
    for d in decompositions:
        for cone in d:
            n = cone.n
            identity = [tuple(int(i == k) for i in range(n)) for k in range(n)]
            assert [cone._coords(g) for g in cone.generators] == identity, cone


def test_smith_normal_form():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 2]]) == [2, 2]
    assert smith_normal_form([[-1, -1], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]


def test_integer_span():
    basis = integer_span_basis([(2, 0), (0, 2), (1, 1)], 2)
    assert in_integer_span(basis, (1, 1))
    assert in_integer_span(basis, (3, 1))
    assert not in_integer_span(basis, (1, 0))


def test_fm_feasible():
    # x >= 1 and x <= 0 is infeasible
    assert not fm_feasible([((1,), -1, False), ((-1,), 0, False)], 1)
    assert fm_feasible([((1, 0), 0, True), ((0, 1), 0, True)], 2)
    # strict x > 0 with x < 1 feasible over Q
    assert fm_feasible([((1,), 0, True), ((-1,), 1, True)], 1)


def test_fm_feasible_rational_entries():
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    # x/2 - 1/3 >= 0 and -x/3 + 1/6 >= 0: x >= 2/3 and x <= 1/2
    assert not fm_feasible([((half,), -third, False), ((-third,), sixth, False)], 1)
    # x >= 2/3 and x <= 3/4
    assert fm_feasible([((half,), -third, False), ((-third,), Fraction(1, 4), False)], 1)
    # x/2 + y/3 >= 1/6 with y <= 1/3: x <= -1/7 leaves x/2 + y/3 <= 5/126 < 1/6,
    # x <= 1/7 reaches 23/126
    assert not fm_feasible(
        [((half, third), -sixth, False), ((-1, 0), Fraction(-1, 7), False), ((0, -1), third, False)], 2
    )
    assert fm_feasible(
        [((half, third), -sixth, False), ((-1, 0), Fraction(1, 7), False), ((0, -1), third, False)], 2
    )


def test_fm_feasible_strict_boundaries():
    assert fm_feasible([((1,), 0, True), ((-1,), 1, True)], 1)  # 0 < x < 1
    assert not fm_feasible([((1,), -1, False), ((-1,), 0, False)], 1)  # x >= 1, x <= 0
    assert fm_feasible([((1,), 0, False), ((-1,), 0, False)], 1)  # x = 0
    assert not fm_feasible([((1,), 0, True), ((-1,), 0, False)], 1)  # x > 0, x <= 0
    assert not fm_feasible([((1,), 0, False), ((-1,), 0, True)], 1)  # x >= 0, x < 0
    h = Fraction(1, 2)
    assert not fm_feasible([((1,), -h, True), ((-1,), h, False)], 1)  # x > 1/2, x <= 1/2
    assert fm_feasible([((1,), -h, False), ((-1,), h, False)], 1)  # x = 1/2
    # strictness survives the elimination of another variable
    assert not fm_feasible([((1, 1), 0, True), ((-1, 0), 0, False), ((0, -1), 0, False)], 2)
    assert fm_feasible([((1, 1), 0, False), ((-1, 0), 0, False), ((0, -1), 0, False)], 2)
    assert fm_feasible([], 2)


def test_fm_feasible_invariant_under_positive_row_scaling():
    rng = random.Random(487)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        system = [
            (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-4, 4), rng.random() < 0.3)
            for _ in range(rng.randint(1, 6))
        ]
        verdict = fm_feasible(system, n)
        assert verdict == reference_fm_feasible(system, n), system
        scaled = []
        for a, b, s in system:
            k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled.append((tuple(k * x for x in a), k * b, s))
        assert fm_feasible(scaled, n) == verdict, system
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_fm_feasible_matches_the_fraction_elimination_on_rational_systems():
    rng = random.Random(2510)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(1, 3)

        def rational():  # small entries, so that boundaries are often met exactly
            return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

        system = [
            (tuple(rational() for _ in range(n)), rational(), rng.random() < 0.4)
            for _ in range(rng.randint(0, 8))
        ]
        verdict = fm_feasible(system, n)
        assert verdict == reference_fm_feasible(system, n), system
        verdicts.add((verdict, any(s for _, _, s in system)))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def _random_choice_system(rng):
    """(cons, levels, n) of integer inequalities (a, b), a.x + b >= 0, with
    all-zero rows, empty options and 0-3 levels among them."""
    n = rng.randint(1, 3)

    def ineq():
        a = (0,) * n if rng.random() < 0.1 else tuple(rng.randint(-3, 3) for _ in range(n))
        return a, rng.randint(-4, 4)

    cons = [ineq() for _ in range(rng.randint(0, 4))]
    levels = [
        [[ineq() for _ in range(rng.randint(0, 2))] for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 3))
    ]
    return cons, levels, n


def test_some_choice_feasible_matches_the_exhaustive_reference_on_seeded_systems():
    """Same verdict as trying every choice over Fractions
    (``conftest.reference_some_choice_feasible``), which the pruned
    Fraction search of ``conftest.reference_ti_set_general`` gives too."""
    rng = random.Random(1992)
    verdicts = set()
    for _ in range(1500):
        cons, levels, n = _random_choice_system(rng)
        expected = reference_some_choice_feasible(cons, levels, n)
        assert lattice._some_choice_feasible(cons, levels, n) == expected, (cons, levels, n)
        assert reference_pruned_choice_feasible(cons, levels, n) == expected, (cons, levels, n)
        verdicts.add((expected, len(levels)))
    assert verdicts == {(v, k) for v in (True, False) for k in range(4)}


def _recorded_certificate_systems(monkeypatch):
    """Every (cons, levels, n) the certificate asks while the general-cones
    bases of seed 1 and the bases of ``test_groebner.ORTHANT_N3`` are
    computed, with the engine's verdict."""
    from test_groebner import ORTHANT_N3

    from lgb.cli import parse_poly
    from lgb.groebner import buchberger

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import worker
    import workloads

    systems = []
    real = lattice._some_choice_feasible

    def recording(cons, levels, n):
        verdict = real(cons, levels, n)
        systems.append((list(cons), [list(options) for options in levels], n, verdict))
        return verdict

    monkeypatch.setattr(lattice, "_some_choice_feasible", recording)
    for inst in workloads.build("general-cones", 1):
        worker.make_case(inst).gb()
    general = systems[:]
    ring = orthant_ring(3)
    for gens in ORTHANT_N3:
        buchberger([parse_poly(ring, g) for g in gens])
    return general, systems[len(general):]


def test_some_choice_feasible_matches_the_references_on_recorded_systems(monkeypatch):
    """The general-cones systems against trying every choice; the n=3 ones,
    where that takes over a minute, against the pruned Fraction search."""
    general, orthant3 = _recorded_certificate_systems(monkeypatch)
    assert len(general) > 100 and len(orthant3) > 50
    for cons, levels, n, verdict in general:
        assert verdict == reference_some_choice_feasible(cons, levels, n), (cons, levels)
    for cons, levels, n, verdict in orthant3:
        assert verdict == reference_pruned_choice_feasible(cons, levels, n), (cons, levels)
    assert {v for *_, v in general} == {v for *_, v in orthant3} == {True, False}


def test_rays_and_hilbert_basis_2d():
    hs = ((-3, -2), (-1, 0), (-1, 1))
    rays = rays_from_halfspaces(hs, 2)
    assert set(rays) == {(-2, 3), (-1, -1)}
    hb = hilbert_basis(hs, 2)
    assert set(hb) == {(-1, -1), (-1, 0), (-1, 1), (-2, 3)}
    # every box point of the cone is a nonneg integer combination
    cone = cone_from_halfspaces(0, hs, 2)
    for p in box_points(2, 5):
        assert cone.contains(p) == cone.monoid_generates(p)


def test_hilbert_basis_3d_simplicial():
    hs = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert set(hilbert_basis(hs, 3)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_validate_standard_and_orthant():
    assert validate_decomposition(build_decomposition("standard", 2), 5).ok
    assert validate_decomposition(build_decomposition("orthant", 3), 4).ok


def test_validate_detects_missing_coverage():
    d2 = build_decomposition("orthant", 2)
    broken = ConicDecomposition(d2.cones[:3], "custom")
    report = validate_decomposition(broken, 3)
    assert not report.ok
    names = [c.name for c in report.failures()]
    assert "coverage" in names


def test_is_standard_decomposition():
    std = build_decomposition("standard", 2)
    assert is_standard_decomposition(std)
    clone = ConicDecomposition(std.cones, "custom")
    assert is_standard_decomposition(clone)
    assert not is_standard_decomposition(build_decomposition("orthant", 2))


def test_orthant_gray_code_order_n2():
    d = build_decomposition("orthant", 2)
    signs = [tuple(g[i][i] for i in range(2)) for g in (c.generators for c in d.cones)]
    assert signs == [(1, 1), (-1, 1), (-1, -1), (1, -1)]


def test_box_points_is_a_generator_in_lexicographic_order():
    assert inspect.isgeneratorfunction(box_points)
    assert list(box_points(2, 1)) == [
        (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)
    ]
    pts = list(box_points(3, 2))
    assert pts == sorted(pts) and len(set(pts)) == 125
    assert list(box_points(1, 0)) == [(0,)]


def _search_cones():
    """Standard and orthant cones for n = 2 and 3, and a refined cone of the
    segment (1,1),(-2,-1) whose first generator (-2,3) is not an axis."""
    cones = [c for kind in ("standard", "orthant") for n in (2, 3) for c in build_decomposition(kind, n)]
    ctx = PolytopeContext([(1, 1), (-2, -1)])
    refined = build_refined_decomposition(ctx, build_decomposition("standard", 2))
    cones.append(refined.cone((1, 2)))
    return cones


def _recorded_search(search, member, generators, starts):
    """The result of one search and the points it tested."""
    tested = []

    def recording(p):
        tested.append(p)
        return member(p)

    return search(recording, generators, iter(starts)), tested


def test_minimal_elements_agrees_with_the_all_starts_descent():
    cones = _search_cones()
    assert cones[-1].generators[0] == (-2, 3)
    rng = random.Random(20261018)
    saved = 0
    for cone in cones:
        n = cone.n
        for trial in range(4):
            # a module over the cone: a union of shifted copies m_k + C
            shifts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]

            def member(p, shifts=shifts):
                return any(cone.contains(vsub(p, m)) for m in shifts)

            witness = shifts[0]
            for g in cone.generators:
                witness = vadd(witness, vscale(rng.randint(2, 4), g))
            box = list(box_points(n, 4))
            starts = [witness] + box if trial % 2 else box + [witness]
            found, tested = _recorded_search(minimal_elements, member, cone.generators, starts)
            expected, ref_tested = _recorded_search(
                reference_minimal_elements, member, cone.generators, starts
            )
            assert found == expected, (cone, shifts)
            assert set(tested) <= set(ref_tested), (cone, shifts)
            saved += len(tested) < len(ref_tested)
    assert saved
