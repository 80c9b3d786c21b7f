"""Shared fixtures and random-instance helpers for the test suite."""

import random
from fractions import Fraction

import pytest

from lgb.coeffs import FieldSpec
from lgb.gmo import GeneralizedOrder, ScoreFunction, make_order
from lgb.lattice import build_decomposition, vsub
from lgb.laurent import LaurentRing


def ring_for(field, n, score="degmin", decomposition=None, names=None):
    return LaurentRing(field, n, make_order(n, score, decomposition), names)


@pytest.fixture(scope="session")
def q_ring2():
    return ring_for(FieldSpec.rational(), 2, "degmin")


@pytest.fixture(scope="session")
def q_ring2_min():
    return ring_for(FieldSpec.rational(), 2, "min")


@pytest.fixture(scope="session")
def q_ring3():
    return ring_for(FieldSpec.rational(), 3, "degmin")


def random_coeff(ring, rng, bound=9):
    field = ring.field
    if field.is_finite:
        while True:
            vec = tuple(rng.randrange(field.p) for _ in range(field.k))
            if any(vec):
                return field.element(vec)
    c = 0
    while c == 0:
        c = rng.randint(-bound, bound)
    den = rng.choice((1, 1, 1, 2, 3))
    return field.from_fraction(Fraction(c, den))


def ref_add(spec, a, b):
    """Reference F_{p^k} sum of two coefficient vectors."""
    return tuple((x + y) % spec.p for x, y in zip(a, b))


def ref_neg(spec, a):
    return tuple(-x % spec.p for x in a)


def ref_mul(spec, a, b):
    """Reference F_{p^k} product: the schoolbook convolution, then each
    t^d with d >= k replaced by t^(d-k) times the negated lower part of the
    monic defining polynomial, from the top degree down."""
    p, k = spec.p, spec.k
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    if k > 1:
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            prod[d] = 0
            for i, m in enumerate(spec.modulus[:-1]):
                prod[d - k + i] -= c * m
    return tuple(x % p for x in prod[:k])


def field_vectors(spec):
    """Every element of F_{p^k} as a coefficient vector, zero first."""
    return [tuple(code // spec.p ** i % spec.p for i in range(spec.k)) for code in range(spec.p ** spec.k)]


def ref_inv(spec, a):
    """Reference inverse: the element whose product with a is one."""
    one = (1,) + (0,) * (spec.k - 1)
    return next(b for b in field_vectors(spec) if ref_mul(spec, a, b) == one)


def random_poly(ring, rng, terms=3, radius=3, bound=9, attempts=100):
    """A nonzero random polynomial with up to `terms` terms in a box."""
    for _ in range(attempts):
        d = {}
        for _ in range(terms):
            e = tuple(rng.randint(-radius, radius) for _ in range(ring.n))
            d[e] = random_coeff(ring, rng, bound)
        if d:
            return ring.poly(d)
    raise RuntimeError("failed to sample a nonzero polynomial")


def reference_fm_feasible(constraints, nvars):
    """Fourier-Motzkin elimination over Fractions, the textbook way: the
    check for lattice.fm_feasible, which eliminates in integers."""
    cons = [(tuple(Fraction(c) for c in a), Fraction(b), s) for a, b, s in constraints]
    for var in range(nvars):
        pos = [c for c in cons if c[0][var] > 0]
        neg = [c for c in cons if c[0][var] < 0]
        new = [c for c in cons if c[0][var] == 0]
        for ap, bp, sp in pos:
            for an, bn, sn in neg:
                wp, wn = -an[var], ap[var]
                a = tuple(wp * x + wn * y for x, y in zip(ap, an))
                new.append((a, wp * bp + wn * bn, sp or sn))
        cons = new
    return all(b > 0 if s else b >= 0 for _, b, s in cons)


def orthant_ring(n):
    """Q[x^±1, ...] under the orthant decomposition with the per-cone
    custom score (row i is the sign vector of cone i)."""
    d = build_decomposition("orthant", n)
    rows = {i: tuple(c.generators[k][k] for k in range(n)) for i, c in enumerate(d.cones)}
    return LaurentRing(FieldSpec.rational(), n, GeneralizedOrder(d, ScoreFunction("custom", n, rows=rows)))


def reference_minimal_elements(member, generators, starts):
    """Sorted minimal elements of a module over the monoid of `generators`,
    reached from the start points that are members.

    Each member start slides down the generators while it stays a member,
    so it ends where no ``p - h`` is a member: a minimal element below it.
    Slides from nearby starts overlap, so ``member`` is memoized for the
    length of the call; it must be a pure predicate on points.
    """
    memo = {}

    def test(p):
        hit = memo.get(p)
        if hit is None:
            hit = memo[p] = member(p)
        return hit

    found = set()
    for p in starts:
        if not test(p):
            continue
        moved = True
        while moved:
            moved = False
            for h in generators:
                q = vsub(p, h)
                while test(q):
                    p, q = q, vsub(q, h)
                    moved = True
        found.add(p)
    return sorted(found)
