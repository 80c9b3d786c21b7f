import random
from pathlib import Path

import pytest

from conftest import (
    collisions,
    orthant_ring,
    random_poly,
    reference_buchberger,
    reference_is_groebner,
    reference_spair,
    ring_for,
)
from lgb import groebner
from lgb.cli import parse_poly, parse_problem
from lgb.coeffs import FieldSpec
from lgb.groebner import (
    GBConfig,
    ResourceLimitError,
    buchberger,
    ideal_membership,
    is_groebner,
    same_ideal,
    spair,
)
from lgb.laurent import LaurentMode, RingError
from lgb.oracle import laurent_membership_oracle
from lgb.reduction import reduce


def test_spair_examples(q_ring2):
    f = parse_poly(q_ring2, "x + y")
    g = parse_poly(q_ring2, "x^2 + y")
    s = spair(0, f, g, (2, 0))
    assert s == parse_poly(q_ring2, "x*y - y")
    assert spair(0, f, f, (1, 0)).is_zero()
    assert spair(0, f, g, (2, 0)) == -spair(0, g, f, (2, 0))
    with pytest.raises(RingError):
        spair(0, f, g, (-5, 0))


def test_buchberger_singleton(q_ring2):
    f = parse_poly(q_ring2, "x^2*y^-1 + 3")
    res = buchberger([f])
    assert res.basis == [f]
    assert res.stats.pairs_processed == 0


def test_is_groebner_on_singleton_and_inputs(q_ring3):
    f = parse_poly(q_ring3, "x^-3*y^-4 + x*y*z")
    assert is_groebner([f])[0]
    g = parse_poly(q_ring3, "x^3*y^-2 + y^-1*z")
    flag, cert = is_groebner([f, g])
    assert not flag and cert is not None


def test_buchberger_first_quoted_ideal(q_ring3):
    gens = [
        parse_poly(q_ring3, "x^-3*y^-4 + x*y*z"),
        parse_poly(q_ring3, "x^3*y^-2 + y^-1*z"),
    ]
    res = buchberger(gens)
    assert len(res.basis) == 3
    new = res.basis[2]
    assert set(new.support()) == {(0, 4, 1), (-1, -2, -1)}
    assert is_groebner(res.basis)[0]
    for g in gens:
        assert reduce(g, res.basis).remainder.is_zero()


def test_is_groebner_certificate_names_input_positions(q_ring2):
    # "x - 1" repeats: the failing pair is input 0 with input 2, not the
    # de-duplicated list's positions 0 and 1
    gens = [parse_poly(q_ring2, t) for t in ("x - 1", "x - 1", "y - 2", "x*y + 1")]
    flag, cert = is_groebner(gens)
    assert not flag
    assert cert[1:3] == (0, 2)
    assert is_groebner(gens[1:])[1][1:3] == (0, 1)


def test_generator_validation_shared_by_gb_and_check(q_ring2):
    for engine in (buchberger, is_groebner):
        with pytest.raises(RingError, match="need at least one generator"):
            engine([])
        with pytest.raises(RingError, match="generators must be nonzero"):
            engine([parse_poly(q_ring2, "x + y"), q_ring2.zero()])


def test_provenance_recorded(q_ring2):
    gens = [parse_poly(q_ring2, "x + y"), parse_poly(q_ring2, "x^-1*y + y^-1")]
    res = buchberger(gens)
    assert res.combinations is not None
    for h, combo in zip(res.basis, res.combinations):
        acc = q_ring2.zero()
        for c, g in zip(combo, gens):
            acc = acc + c * g
        assert acc == h


def test_membership_examples(q_ring2):
    gens = [parse_poly(q_ring2, "x + y"), parse_poly(q_ring2, "x^-1*y + y^-1")]
    basis = buchberger(gens).basis
    assert ideal_membership(parse_poly(q_ring2, "y - x^2*y^-2"), basis)
    for g in gens:
        assert ideal_membership(g, basis, trusted=True)
    ring1 = ring_for(FieldSpec.rational(), 1, "degmin")
    xm1 = parse_poly(ring1, "x - 1")
    basis1 = buchberger([xm1]).basis
    assert not ideal_membership(ring1.one(), basis1)
    basis_x = buchberger([parse_poly(ring1, "x")]).basis
    assert ideal_membership(ring1.one(), basis_x)


def test_membership_requires_groebner(q_ring3):
    gens = [
        parse_poly(q_ring3, "x^-3*y^-4 + x*y*z"),
        parse_poly(q_ring3, "x^3*y^-2 + y^-1*z"),
    ]
    with pytest.raises(RingError):
        ideal_membership(q_ring3.one(), gens)


def test_criterion_closure_random():
    rng = random.Random(8080)
    rings = [
        ring_for(FieldSpec.rational(), 2, "degmin"),
        ring_for(FieldSpec.rational(), 2, "min"),
        ring_for(FieldSpec.finite(7), 2, "degmin"),
        ring_for(FieldSpec.finite(7), 2, "min"),
    ]
    count = 0
    for ring in rings:
        for _ in range(25):
            gens = [random_poly(ring, rng, terms=2, radius=2, bound=4) for _ in range(2)]
            res = buchberger(gens)
            assert is_groebner(res.basis)[0]
            for g in gens:
                assert reduce(g, res.basis).remainder.is_zero()
            count += 1
    assert count == 100


def test_oracle_agreement_random(q_ring2):
    rng = random.Random(6060)
    for _ in range(10):
        gens = [random_poly(q_ring2, rng, terms=2, radius=2, bound=4) for _ in range(2)]
        basis = buchberger(gens).basis
        for _ in range(2):
            probe = random_poly(q_ring2, rng, terms=2, radius=2, bound=4)
            mine = ideal_membership(probe, basis, trusted=True)
            assert mine == laurent_membership_oracle(probe, gens)


def test_basis_guard(q_ring2):
    gens = [parse_poly(q_ring2, "x^2*y + y^-1"), parse_poly(q_ring2, "x^-1*y + x")]
    with pytest.raises(ResourceLimitError):
        buchberger(gens, GBConfig(max_basis=1))


def test_normalize_flag(q_ring2):
    gens = [parse_poly(q_ring2, "2*x + 2*y"), parse_poly(q_ring2, "3*x^-1*y + 3*y^-1")]
    res = buchberger(gens, GBConfig(normalize=True))
    for h in res.basis:
        assert h.leading_data()[1] == q_ring2.field.one()


def test_gf9_stack_against_oracle():
    ring9 = ring_for(FieldSpec.finite(3, 2), 2, "degmin")
    rng = random.Random(909)
    for _ in range(4):
        gens = [random_poly(ring9, rng, terms=2, radius=2) for _ in range(2)]
        res = buchberger(gens)
        assert is_groebner(res.basis)[0]
        probe = random_poly(ring9, rng, terms=2, radius=2)
        assert ideal_membership(probe, res.basis, trusted=True) == laurent_membership_oracle(
            probe, gens, max_basis=400
        )


def test_orthant_decomposition_buchberger():
    # exercises the general collision-module path (no single generator)
    from lgb.gmo import GeneralizedOrder, ScoreFunction
    from lgb.lattice import build_decomposition
    from lgb.laurent import LaurentRing

    d = build_decomposition("orthant", 2)
    rows = {i: tuple(c.generators[k][k] for k in range(2)) for i, c in enumerate(d.cones)}
    order = GeneralizedOrder(d, ScoreFunction("custom", 2, rows=rows))
    ring = LaurentRing(FieldSpec.rational(), 2, order)
    rng = random.Random(77)
    for _ in range(4):
        gens = [random_poly(ring, rng, terms=2, radius=1, bound=3) for _ in range(2)]
        res = buchberger(gens)
        assert is_groebner(res.basis)[0]
        probe = random_poly(ring, rng, terms=2, radius=1, bound=3)
        assert ideal_membership(probe, res.basis, trusted=True) == laurent_membership_oracle(
            probe, gens
        )


#: the ``ORTHANT_N3`` ideals of ``tools/dump_answers.py``; each has a zero in
#: the torus over Q-bar: (i*sqrt(6), 1, 3/(i*sqrt(6))) and (1, 2, -2/3)
ORTHANT_N3 = (
    ("x*y^-1 + 2*z", "y*z - 3*x^-1"),
    ("x*y - 2", "y*z^-1 + 3*x"),
)


@pytest.mark.parametrize("gens", ORTHANT_N3)
def test_orthant_n3_bases(gens):
    ring = orthant_ring(3)
    polys = [parse_poly(ring, g) for g in gens]
    basis = buchberger(polys).basis
    assert is_groebner(basis)[0]
    for g in polys:
        assert reduce(g, basis).remainder.is_zero()
    assert not reduce(ring.one(), basis).remainder.is_zero()


def test_spair_bound_on_formed_pairs(q_ring2):
    rng = random.Random(99)
    order = q_ring2.order
    for _ in range(25):
        f = random_poly(q_ring2, rng, terms=2, radius=2)
        g = random_poly(q_ring2, rng, terms=2, radius=2)
        for i in range(3):
            for v in collisions(LaurentMode(q_ring2), f, g, i):
                s = spair(i, f, g, v)
                if not s.is_zero():
                    assert order.key(s.leading_data()[0]) < order.key(v)


@pytest.mark.parametrize(
    "ring",
    [
        ring_for(FieldSpec.rational(), 2, "degmin"),
        ring_for(FieldSpec.rational(), 2, "min"),
        ring_for(FieldSpec.rational(), 3, "degmin"),
        ring_for(FieldSpec.padic(2), 2, "degmin"),
        orthant_ring(2),
    ],
    ids=["Q-degmin", "Q-min", "Q-n3", "Q2", "Q-orthant"],
)
def test_one_pass_spair_matches_the_composition(ring):
    """spair equals the term_mul/subtraction composition at every collision
    generator of every cone, cancelling S-pairs included."""
    rng = random.Random(str(ring.order))
    formed = zero = 0
    for _ in range(12):
        f = random_poly(ring, rng, terms=3, radius=2)
        g = random_poly(ring, rng, terms=3, radius=2)
        for h in (g, f, f * parse_poly(ring, "x - 1")):
            for i in range(len(ring.order.decomposition)):
                for v in collisions(LaurentMode(ring), f, h, i):
                    s = spair(i, f, h, v)
                    assert s == reference_spair(i, f, h, v)
                    formed += 1
                    zero += s.is_zero()
    assert formed >= 40 and 0 < zero < formed


#: one two-generator ideal over each extension field besides GF(9), with its
#: printed basis and, where the chain criterion in the loop changed it, the
#: basis the exhaustive loop printed, kept as a ``same_ideal`` reference
EXTENSION_FIELD_BASES = {
    (2, 2): (
        ("a*x^2*y + x*y^-1 + 1", "x^-1*y^2 + (a+1)*x + a*y"),
        [
            "a*x^2*y + x*y^-1 + 1",
            "x^-1*y^2 + (a+1)*x + a*y",
            "a*y^3 + (a+1)*x^-1*y + (a+1)",
            "x + a*x^-1*y^-1",
            "x^-4*y^-4 + (a+1)*y",
            "a*y + a*x^-1*y^-1",
            "(a+1)*x^-3*y^-3 + a",
        ],
        None,
    ),
    (2, 3): (
        ("a*x^2*y + x*y^-1 + a^2", "x^-1*y^2 + (a^2+1)*x + a*y"),
        [
            "a*x^2*y + x*y^-1 + a^2",
            "x^-1*y^2 + (a^2+1)*x + a*y",
            "a*y^3 + a*x^-1*y + a",
            "(a^2+1)*x^-3*y^-2 + x + a*x^-1*y^-1",
            "(a+1)*x + a^2*y + a*x^-1*y^-1",
            "(a^2+1)*x^-4*y^-4 + a*y + (a^2+a)*x^-1*y^-1",
            "(a+1)*x^-2*y^-1 + a*x^-3*y^-3 + (a^2+a)",
        ],
        [
            "a*x^2*y + x*y^-1 + a^2",
            "x^-1*y^2 + (a^2+1)*x + a*y",
            "a*y^3 + a*x^-1*y + a",
            "(a^2+1)*x^-3*y^-2 + x + a*x^-1*y^-1",
            "(a+1)*x + a^2*y + a*x^-1*y^-1",
            "(a^2+a+1)*x^-4*y^-4 + y + (a+1)*x^-1*y^-1",
            "a*x^-2*y^-1 + (a^2+1)*x^-3*y^-3 + a^2",
        ],
    ),
    (5, 2): (
        ("a*x^2*y + 3*x*y^-1 + 2", "x^-1*y^2 + (2*a+4)*x + a*y"),
        [
            "a*x^2*y + 3*x*y^-1 + 2",
            "x^-1*y^2 + (2*a+4)*x + a*y",
            "4*a*y^3 + (2*a+2)*x^-1*y + (4*a+3)",
            "2*x^-3*y^-2 + (2*a+3)*x + x^-1*y^-1",
            "(a+3)*x + (a+1)*y + (4*a+4)*x^-1*y^-1",
            "a*x^-4*y^-4 + (4*a+3)*y + (a+2)*x^-1*y^-1",
            "(4*a+3)*x^-2*y^-1 + (3*a+3)*x^-3*y^-3 + (2*a+4)",
        ],
        [
            "a*x^2*y + 3*x*y^-1 + 2",
            "x^-1*y^2 + (2*a+4)*x + a*y",
            "4*a*y^3 + (2*a+2)*x^-1*y + (4*a+3)",
            "2*x^-3*y^-2 + (2*a+3)*x + x^-1*y^-1",
            "(a+3)*x + (a+1)*y + (4*a+4)*x^-1*y^-1",
            "2*x^-4*y^-4 + (4*a+2)*y + (a+3)*x^-1*y^-1",
            "(2*a+3)*x^-2*y^-1 + x^-3*y^-3 + (a+4)",
        ],
    ),
    (3, 3): (
        ("a*x^2*y + 2*x*y^-1 + a^2", "x^-1*y^2 + (a^2+2*a)*x + a*y"),
        [
            "a*x^2*y + 2*x*y^-1 + a^2",
            "x^-1*y^2 + (a^2+2*a)*x + a*y",
            "2*a*y^3 + a*x^-1*y + (a^2+a+1)",
            "(a^2+2*a)*x^-3*y^-2 + (2*a^2+a+2)*x + (2*a^2+2)*x^-1*y^-1",
            "(2*a^2+2)*x + 2*a^2*y + (a^2+a+1)*x^-1*y^-1",
            "(a^2+2*a)*x^-4*y^-4 + (a^2+2*a+2)*y + x^-1*y^-1",
            "a*x^-2*y^-1 + (a^2+a+1)*x^-3*y^-3 + (a+1)",
        ],
        [
            "a*x^2*y + 2*x*y^-1 + a^2",
            "x^-1*y^2 + (a^2+2*a)*x + a*y",
            "2*a*y^3 + a*x^-1*y + (a^2+a+1)",
            "(a^2+2*a)*x^-3*y^-2 + (2*a^2+a+2)*x + (2*a^2+2)*x^-1*y^-1",
            "(2*a^2+2)*x + 2*a^2*y + (a^2+a+1)*x^-1*y^-1",
            "(a+2)*x^-4*y^-4 + (a^2+a+1)*y + (2*a^2+1)*x^-1*y^-1",
            "(a^2+2)*x^-2*y^-1 + (2*a^2+a)*x^-3*y^-3 + (2*a^2+a+1)",
        ],
    ),
}


def extension_field_ring(p, k):
    return ring_for(FieldSpec.finite(p, k), 2, "degmin", names=("x", "y"))


@pytest.mark.parametrize("p, k", list(EXTENSION_FIELD_BASES), ids=["GF4", "GF8", "GF25", "GF27"])
def test_extension_field_bases_pinned(p, k):
    ring = extension_field_ring(p, k)
    gens, expected, previous = EXTENSION_FIELD_BASES[(p, k)]
    res = buchberger([parse_poly(ring, g) for g in gens])
    assert [str(h) for h in res.basis] == expected
    assert is_groebner(res.basis)[0]
    if previous is not None:
        assert same_ideal(res.basis, [parse_poly(ring, h) for h in previous])


def _subsets(basis):
    """The basis, each leave-one-out subset and each proper prefix."""
    yield basis
    for k in range(len(basis)):
        yield basis[:k] + basis[k + 1:]
    for k in range(1, len(basis)):
        yield basis[:k]


def test_chain_criterion_agrees_with_the_exhaustive_check(monkeypatch):
    """Same verdict and certificate as the exhaustive scan
    (``conftest.reference_is_groebner``) on the std-cones fixture and q2min
    bases at seed 1 and on their leave-one-out and prefix subsets."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    skips = []
    connected = groebner._Chain.connected

    def counted(self, *spair):
        skips.append(connected(self, *spair))
        return skips[-1]

    monkeypatch.setattr(groebner._Chain, "connected", counted)
    verdicts = []
    for inst in workloads.build("std-cones", 1):
        if inst.family not in ("fixture", "q2min"):
            continue
        basis = buchberger(parse_problem(inst.text).generators).basis
        for subset in _subsets(basis):
            got = is_groebner(subset)
            assert got == reference_is_groebner(subset), (inst.name, len(subset))
            verdicts.append(got[0])
    assert True in verdicts and False in verdicts
    assert any(skips)


def _loop_cases():
    """(name, generators) of the std-cones fixture, q2min and f9 instances
    and the general-cones orthant ideals at seed 1, of ``ORTHANT_N3`` and
    of the extension-field ideals."""
    import workloads

    for inst in workloads.build("std-cones", 1):
        if inst.family in ("fixture", "q2min", "f9"):
            yield inst.name, parse_problem(inst.text).generators
    ring2 = orthant_ring(2)
    for inst in workloads.build("general-cones", 1):
        if inst.family == "orth":
            yield inst.name, [parse_poly(ring2, g) for g in inst.text.split("gens:\n", 1)[1].splitlines()]
    ring3 = orthant_ring(3)
    for gens in ORTHANT_N3:
        yield gens, [parse_poly(ring3, g) for g in gens]
    for (p, k), (gens, _, _) in EXTENSION_FIELD_BASES.items():
        ring = extension_field_ring(p, k)
        yield (p, k), [parse_poly(ring, g) for g in gens]


def test_chain_criterion_in_the_loop_keeps_the_ideal(monkeypatch):
    """Every basis of the pruned loop passes the exhaustive check
    (``conftest.reference_is_groebner``) and generates the ideal of the
    exhaustive loop's basis (``conftest.reference_buchberger``)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    skipped = changed = 0
    for name, gens in _loop_cases():
        res = buchberger(gens)
        assert reference_is_groebner(res.basis) == (True, None), name
        expected, _ = reference_buchberger(gens)
        assert same_ideal(res.basis, expected), name
        skipped += res.stats.spairs_skipped
        changed += res.basis != expected
    assert skipped and changed


def test_same_ideal(q_ring2):
    gens = [parse_poly(q_ring2, "x^2 + y"), parse_poly(q_ring2, "x*y - 1")]
    basis = buchberger(gens).basis
    normalized = buchberger(gens, GBConfig(normalize=True)).basis
    assert same_ideal(basis, normalized)
    assert same_ideal(basis, list(reversed(basis)))
    other = buchberger([parse_poly(q_ring2, "x^2 + y")]).basis
    assert not same_ideal(basis, other)
    with pytest.raises(RingError, match="not a Groebner basis"):
        same_ideal(gens, basis)
