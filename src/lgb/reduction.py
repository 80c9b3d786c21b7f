"""Cone-aware multivariate division.

One loop serves both the Laurent polynomial ring (well-ordered term
comparison, exact termination) and the capped-series layer (valuation
first comparison, loop exits at the precision cap).  Reducer selection is
deterministic: scan cone labels in order, then the divisor list in order,
and take the first pair whose cone leading monomial cancels the current
leading term without introducing a larger one.

The work polynomial is a mutable ``{exp: coef}`` map with a parallel
``{exp: key}`` map of the mode's ``term_key`` (largest term first), so a
step takes a keyed maximum and subtracts ``coef * X^shift * g`` in place;
no immutable polynomial is rebuilt per step.

A reducer fires only when lm(X^shift g) is the current leading exponent,
with shift = that exponent minus lm_label(g), so it always cancels at
shift + lm_label(g) and a fire needs no further check.  The modes'
``on_fire`` hook does nothing; it marks each fire for ``bench/spans.py``,
which counts reducer fires through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from lgb.laurent import LaurentPoly, LaurentRing, Term
from lgb.lattice import vadd, vsub


class PolynomialMode:
    """Division strategy for plain Laurent polynomials under the ring order."""

    __slots__ = ("ring", "labels")

    def __init__(self, ring: LaurentRing):
        self.ring = ring
        self.labels = tuple(range(len(ring.order.decomposition.cones)))

    def term_key(self, coef, exp):
        return self.ring.order.key(exp)

    def leading(self, work, keys) -> Term:
        exp = max(keys, key=keys.__getitem__)
        return Term(work[exp], exp)

    def cone_leading(self, g: LaurentPoly, label):
        lm, lc, _ = g.cone_leading_data(label)
        return lm, lc

    def shifted_lm(self, g: LaurentPoly, shift):
        return g.shifted_leading_monomial(shift)

    def past_cap(self, term: Term) -> bool:
        return False

    def on_fire(self, label, g, shift) -> None:
        pass


def division_loop(f: LaurentPoly, gens, mode):
    """Run the division; returns (quotient term dicts, remainder dict, tail).

    ``tail`` collects the part of the work polynomial discarded at the
    precision cap; it is always zero in polynomial mode.
    """
    ring = f.ring
    zero = ring.field.zero()
    term_key = mode.term_key
    quotients = [dict() for _ in gens]
    remainder = {}
    work = dict(f.terms_unordered())
    keys = {e: term_key(c, e) for e, c in work.items()}
    while work:
        lt = mode.leading(work, keys)
        if mode.past_cap(lt):
            break
        for label in mode.labels:
            for k, g in enumerate(gens):
                lm_g, lc_g = mode.cone_leading(g, label)
                shift = vsub(lt.exp, lm_g)
                if mode.shifted_lm(g, shift) == lt.exp:
                    break
            else:
                continue
            mode.on_fire(label, g, shift)
            coef = lt.coef / lc_g
            acc = quotients[k]
            acc[shift] = acc.get(shift, zero) + coef
            neg = -coef
            for e, c in g.terms_unordered():
                e = vadd(e, shift)
                c = c * neg
                old = work.get(e)
                if old is not None:
                    c = old + c
                    if c.is_zero():
                        del work[e], keys[e]
                        continue
                work[e] = c
                keys[e] = term_key(c, e)
            break
        else:
            remainder[lt.exp] = remainder.get(lt.exp, zero) + lt.coef
            del work[lt.exp], keys[lt.exp]
    return quotients, remainder, LaurentPoly(ring, work)


def residual(f: LaurentPoly, remainder: LaurentPoly, quotients, gens) -> dict:
    """The nonzero terms of ``f - r - sum(q * g)``, accumulated in one dict."""
    acc = dict(f.terms_unordered())

    def add(e, c):
        old = acc.get(e)
        acc[e] = c if old is None else old + c

    for e, c in remainder.terms_unordered():
        add(e, -c)
    for q, g in zip(quotients, gens):
        for eq, cq in q.terms_unordered():
            neg = -cq
            for eg, cg in g.terms_unordered():
                add(vadd(eq, eg), cg * neg)
    return {e: c for e, c in acc.items() if not c.is_zero()}


@dataclass
class ReductionResult:
    quotients: list
    remainder: LaurentPoly

    def __iter__(self):
        return iter((self.quotients, self.remainder))


def reduce(f: LaurentPoly, gens) -> ReductionResult:
    """Divide f by an ordered list of nonzero Laurent polynomials.

    Returns quotients and a remainder with ``f = sum(q*g) + r`` (re-verified
    exactly) and no remainder term divisible inside any cone module of the
    divisors.
    """
    ring = f.ring
    for g in gens:
        f._check(g)
        if g.is_zero():
            raise ValueError("divisors must be nonzero")
    mode = PolynomialMode(ring)
    qdicts, rdict, tail = division_loop(f, gens, mode)
    if not tail.is_zero():
        raise AssertionError("polynomial division left a tail past the cap")
    quotients = [LaurentPoly(ring, q) for q in qdicts]
    remainder = LaurentPoly(ring, rdict)
    if residual(f, remainder, quotients, gens):
        raise ArithmeticError("division identity failed to re-verify")
    return ReductionResult(quotients, remainder)
