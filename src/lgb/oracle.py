"""Independent brute-force oracles used by the tests and the ``selftest``
command; never on the main computation path.

Laurent ideal membership is decided through an ordinary polynomial
computation: clear negative exponents, adjoin a slack variable s with the
relation x_1 ... x_n s - 1 = 0, and run a textbook Buchberger algorithm
with plain lex order and naive pair handling.  Performance is irrelevant;
independence is the point.
"""

from __future__ import annotations

from collections import deque

from lgb.coeffs import Coefficient
from lgb.laurent import LaurentPoly
from lgb.lattice import vadd, vsub


class OracleLimitError(RuntimeError):
    """The oracle's basis-size guard was exceeded."""


# -- a minimal ordinary polynomial layer (dict exponent -> Coefficient) -----

def _lex_key(e):
    return e


def _lm(p):
    return max(p, key=_lex_key)


def _padd(a, b, zero):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, zero) + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _pneg(a):
    return {e: -c for e, c in a.items()}


def _pterm_mul(p, exp, coef):
    return {vadd(e, exp): c * coef for e, c in p.items()}


def _divisible(e, d):
    return all(x >= y for x, y in zip(e, d))


def _poly_reduce(p, basis, zero):
    p = dict(p)
    remainder = {}
    while p:
        lm = _lm(p)
        lc = p[lm]
        hit = None
        for g in basis:
            if _divisible(lm, _lm(g)):
                hit = g
                break
        if hit is None:
            remainder[lm] = lc
            del p[lm]
            continue
        glm = _lm(hit)
        coef = lc / hit[glm]
        p = _padd(p, _pneg(_pterm_mul(hit, vsub(lm, glm), coef)), zero)
    return remainder


def _spoly(f, g, zero):
    lf, lg = _lm(f), _lm(g)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    s1 = _pterm_mul(f, vsub(lcm, lf), g[lg])
    s2 = _pterm_mul(g, vsub(lcm, lg), f[lf])
    return _padd(s1, _pneg(s2), zero)


def _ordinary_buchberger(gens, zero, max_basis=300):
    basis = [dict(g) for g in gens if g]
    queue = deque((a, b) for a in range(len(basis)) for b in range(a + 1, len(basis)))
    while queue:
        a, b = queue.popleft()
        s = _spoly(basis[a], basis[b], zero)
        r = _poly_reduce(s, basis, zero)
        if r:
            queue.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
            if len(basis) > max_basis:
                raise OracleLimitError("oracle basis exceeded its guard")
    return basis


def _ordinary_is_groebner(basis, zero):
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            s = _spoly(basis[a], basis[b], zero)
            if _poly_reduce(s, basis, zero):
                return False
    return True


# -- Laurent membership through saturation -----------------------------------

def _clear(f: LaurentPoly):
    """Shift a Laurent polynomial into nonnegative exponents, appending a
    zero slack coordinate."""
    shift = tuple(min(0, *(e[i] for e in f.support())) for i in range(f.ring.n))
    return {vsub(e, shift) + (0,): c for e, c in f.items()}


def laurent_membership_oracle(f: LaurentPoly, gens, max_basis: int = 300) -> bool:
    """Laurent ideal membership decided by an ordinary lex Groebner basis
    after adjoining the slack relation x_1...x_n s = 1."""
    gens = [g for g in gens if not g.is_zero()]
    if f.is_zero():
        return True
    if not gens:
        return False
    ring = f.ring
    zero = ring.field.zero()
    cleared = [_clear(g) for g in gens]
    slack = {
        tuple(1 for _ in range(ring.n)) + (1,): ring.field.one(),
        tuple(0 for _ in range(ring.n + 1)): -ring.field.one(),
    }
    basis = _ordinary_buchberger(cleared + [slack], zero, max_basis)
    if not _ordinary_is_groebner(basis, zero):
        raise AssertionError("the saturation basis fails the Buchberger criterion")
    probe = _clear(f)
    return not _poly_reduce(probe, basis, zero)


# -- direct evaluations -----------------------------------------------------------

def brute_ti(f: LaurentPoly, i, box_radius: int):
    """All box translations t with lm(X^t f) inside cone i, by direct
    leading-monomial evaluation."""
    from lgb.lattice import box_points

    cone = f.ring.order.decomposition[i]
    out = set()
    for t in box_points(f.ring.n, box_radius):
        if cone.contains(f.shifted_leading_monomial(t)):
            out.add(t)
    return out


def brute_valP(ctx, f):
    """Literal minimum of the vertex valuations over all terms."""
    from lgb.coeffs import INF
    from lgb.lattice import vdot

    body = f.body if hasattr(f, "body") else f
    if body.is_zero():
        return INF
    best = None
    for e, c in body.items():
        for r in ctx.vertices:
            v = c.valuation() - vdot(r, e)
            if best is None or v < best:
                best = v
    return best


# -- selftest ---------------------------------------------------------------------

def selftest(out=print) -> bool:
    """Run the oracle consistency suite; prints one line per check."""
    import random
    from fractions import Fraction

    from lgb.affinoid import PolytopeContext, val_polytope
    from lgb.coeffs import FieldSpec
    from lgb.groebner import buchberger, ideal_membership, is_groebner
    from lgb.laurent import LaurentMode, LaurentRing, _ti_cells, cone_module
    from lgb.lattice import _certified_generators, box_points
    from lgb.gmo import make_order
    from lgb.reduction import reduce

    rng = random.Random(20240)
    results = []

    def record(name, ok):
        results.append(ok)
        out(("ok   " if ok else "FAIL ") + name)

    def random_poly(ring, terms=3, radius=2, attempts=50):
        for _ in range(attempts):
            d = {}
            for _ in range(terms):
                e = tuple(rng.randint(-radius, radius) for _ in range(ring.n))
                c = rng.randint(-5, 5)
                if c:
                    d[e] = ring.field.from_int(c)
            p = ring.poly(d)
            if not p.is_zero():
                return p
        raise RuntimeError("could not sample a nonzero polynomial")

    q = FieldSpec.rational()
    ring = LaurentRing(q, 2, make_order(2, "degmin"))

    ok = True
    for _ in range(25):
        f, g = random_poly(ring), random_poly(ring)
        h = random_poly(ring)
        if (f + g) * h != f * h + g * h:
            ok = False
    record("ring axioms on random triples", ok)

    ok = True
    for _ in range(20):
        f = random_poly(ring)
        gens = [random_poly(ring), random_poly(ring)]
        q_, r_ = reduce(f, gens)
        acc = r_
        for qq, gg in zip(q_, gens):
            acc = acc + qq * gg
        if acc != f:
            ok = False
    record("division identity on random instances", ok)

    ok = True
    for _ in range(6):
        gens = [random_poly(ring, terms=2), random_poly(ring, terms=2)]
        res = buchberger(gens)
        flag, _ = is_groebner(res.basis)
        if not flag:
            ok = False
    record("criterion closure on random ideals", ok)

    ok = True
    for _ in range(6):
        gens = [random_poly(ring, terms=2), random_poly(ring, terms=2)]
        res = buchberger(gens)
        for _ in range(2):
            probe = random_poly(ring)
            if ideal_membership(probe, res.basis, trusted=True) != laurent_membership_oracle(
                probe, gens
            ):
                ok = False
    record("membership agrees with the saturation oracle", ok)

    # the principal generator against the certified search on the cells
    ok = True
    for _ in range(10):
        f = random_poly(ring)
        for i in range(3):
            (gen,) = cone_module(LaurentMode(ring), f, i).generators
            cone = ring.order.decomposition[i]
            member = lambda t: f.ti_contains(t, i)
            if _certified_generators(_ti_cells(f, i), cone, f.cone_witness(i), 6, member) != [gen]:
                ok = False
            expect = {t for t in box_points(2, 5) if cone.contains(vsub(t, gen))}
            if brute_ti(f, i, 5) != expect:
                ok = False
    record("cone modules agree with direct evaluation", ok)

    ctx = PolytopeContext([(1, 1), (0, 1)])
    ring2 = LaurentRing(FieldSpec.padic(2), 2, make_order(2, "degmin"))
    ok = True
    for _ in range(100):
        f = random_poly(ring2)
        if val_polytope(ctx, f)[0] != brute_valP(ctx, f):
            ok = False
    record("polytope valuation agrees with direct evaluation", ok)

    return all(results)
