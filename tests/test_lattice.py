import inspect
import itertools
import random
from fractions import Fraction

import pytest

from conftest import reference_fm_feasible, reference_minimal_elements

from lgb.affinoid import PolytopeContext, build_refined_decomposition
from lgb.lattice import (
    Cone,
    ConicDecomposition,
    LatticeError,
    UnsupportedConeError,
    box_points,
    build_decomposition,
    cone_contains,
    cone_factorize,
    cone_from_halfspaces,
    fm_feasible,
    hilbert_basis,
    in_integer_span,
    integer_span_basis,
    is_standard_decomposition,
    minimal_elements,
    rays_from_halfspaces,
    shifted_cone_intersection,
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
    assert cone_contains(d[0], (1, 2))
    assert cone_contains(d[1], (-3, 1))
    assert not cone_contains(d[2], (0, 1))


def test_cone_factorize_examples():
    d = build_decomposition("standard", 2)
    assert cone_factorize(d[0], (2, -1)) == ((2, 0), (0, 1))
    assert cone_factorize(d[2], (0, 1)) == ((0, 0), (0, -1))
    assert cone_factorize(d[1], (0, 0)) == ((0, 0), (0, 0))


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
    assert shifted_cone_intersection(d[0], (0, 2), (1, 0)) == (1, 2)
    assert shifted_cone_intersection(d[0], (1, 1), (1, 1)) == (1, 1)
    # derived by the module invariant below, not by the quoted figure
    assert shifted_cone_intersection(d[2], (1, 2), (-4, -3)) == (-4, -3)


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
