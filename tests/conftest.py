"""Shared fixtures and random-instance helpers for the test suite."""

import random
from fractions import Fraction

import pytest

from lgb.coeffs import FieldSpec
from lgb.gmo import GeneralizedOrder, ScoreFunction, make_order
from lgb.lattice import build_decomposition
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
