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
no immutable polynomial is rebuilt per step.  The cap test reads the
leading term's key: in the capped layer ``-key[0]`` is the term's
valuation times the common denominator, so ``past_cap(key)`` compares it
with the cap and nothing is recomputed per step.

A reducer fires only when lm(X^shift g) is the current leading exponent,
with shift = that exponent minus lm_label(g), so it always cancels at
shift + lm_label(g) and a fire needs no further check.  The modes'
``on_fire`` hook does nothing; it marks each fire for ``bench/spans.py``,
which counts reducer fires through it.

The same (g, shift) test recurs within a division and across the divisions
of one Buchberger run, so the division adapter (``PolynomialMode`` here,
the capped layer's ``_SeriesDivision``) memoizes ``shifted_lm`` as
``{g: {shift: lm}}``.  It also keeps the reducer table ``{g: {label:
(lm, lc)}}`` of each divisor's cone leading data, which the loop and
``groebner``'s S-pair bound check read.  The table is filled lazily, one
(g, label) on first use: the loop asks only the labels it scans before a
reducer fires, and a cone whose leading data cannot be computed must
fail only a division that reaches it.  Each engine call builds one
adapter for all of its divisions, so the memo and the table die with the
call; held on the polynomial or on a long-lived mode, they would keep
every shift tried alive with the bases the caller retains.  The adapter
also serves ``groebner``'s Buchberger engine, which asks it for
``u_set(f, g, label)``, the collision monomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from lgb.laurent import LaurentPoly, LaurentRing, Term, u_intersection
from lgb.lattice import vadd, vsub


def _row(table, g):
    """``table[g]``, an empty dict on first use."""
    row = table.get(g)
    if row is None:
        row = table[g] = {}
    return row


def _memoized(table, g, arg, compute):
    """``table[g][arg]``, set to ``compute(g, arg)`` on first use."""
    row = _row(table, g)
    value = row.get(arg)
    if value is None:
        value = row[arg] = compute(g, arg)
    return value


class PolynomialMode:
    """Division strategy for plain Laurent polynomials under the ring order,
    built once per engine call (see the module docstring)."""

    __slots__ = ("ring", "labels", "_lms", "_leads")

    def __init__(self, ring: LaurentRing):
        self.ring = ring
        self.labels = tuple(range(len(ring.order.decomposition.cones)))
        self._lms = {}
        self._leads = {}

    def term_key(self, coef, exp):
        return self.ring.order.key(exp)

    def leading(self, work, keys) -> Term:
        exp = max(keys, key=keys.__getitem__)
        return Term(work[exp], exp)

    def cone_leading(self, g: LaurentPoly, label):
        lm, lc, _ = g.cone_leading_data(label)
        return lm, lc

    def shifted_lm(self, g: LaurentPoly, shift):
        return _memoized(self._lms, g, shift, LaurentPoly.shifted_leading_monomial)

    def past_cap(self, key) -> bool:
        return False

    def on_fire(self, label, g, shift) -> None:
        pass

    def module_contains(self, g: LaurentPoly, t, label) -> bool:
        """Whether t lies in T_label(g), tested against the module's cached
        generators: ``ti_generator`` on standard cones, else
        ``ti_set_general`` at the radius ``u_intersection`` uses."""
        cone = self.ring.order.decomposition[label]
        if self.ring.standard_cones:
            return cone.contains(vsub(t, g.ti_generator(label)))
        return any(cone.contains(vsub(t, gen)) for gen in g.ti_set_general(label, 8))

    def u_set(self, f: LaurentPoly, g: LaurentPoly, label):
        return u_intersection(f, g, label)


def division_loop(f: LaurentPoly, gens, mode):
    """Run the division; returns (quotient term dicts, remainder dict, tail).

    ``tail`` collects the part of the work polynomial discarded at the
    precision cap; it is always zero in polynomial mode.
    """
    ring = f.ring
    zero = ring.field.zero()
    term_key, cone_leading = mode.term_key, mode.cone_leading
    rows = [_row(mode._leads, g) for g in gens]
    quotients = [dict() for _ in gens]
    remainder = {}
    work = dict(f.terms_unordered())
    keys = {e: term_key(c, e) for e, c in work.items()}
    while work:
        lt = mode.leading(work, keys)
        if mode.past_cap(keys[lt.exp]):
            break
        for label in mode.labels:
            for k, g in enumerate(gens):
                lead = rows[k].get(label)
                if lead is None:
                    lead = rows[k][label] = cone_leading(g, label)
                shift = vsub(lt.exp, lead[0])
                if mode.shifted_lm(g, shift) == lt.exp:
                    break
            else:
                continue
            mode.on_fire(label, g, shift)
            coef = lt.coef / lead[1]
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
    """The nonzero terms of ``f - r - sum(q * g)``, accumulated in one dict;
    the quotients are ``{exp: coef}`` term dicts."""
    acc = dict(f.terms_unordered())

    def add(e, c):
        old = acc.get(e)
        acc[e] = c if old is None else old + c

    for e, c in remainder.terms_unordered():
        add(e, -c)
    for q, g in zip(quotients, gens):
        for eq, cq in q.items():
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
    for g in gens:
        f._check(g)
        if g.is_zero():
            raise ValueError("divisors must be nonzero")
    return _reduce(f, gens, PolynomialMode(f.ring))


def _reduce(f: LaurentPoly, gens, mode: PolynomialMode) -> ReductionResult:
    """``reduce`` by checked divisors, with the calling engine's adapter."""
    ring = f.ring
    qdicts, rdict, tail = division_loop(f, gens, mode)
    if not tail.is_zero():
        raise AssertionError("polynomial division left a tail past the cap")
    quotients = [LaurentPoly(ring, q) for q in qdicts]
    remainder = LaurentPoly(ring, rdict)
    if residual(f, remainder, qdicts, gens):
        raise ArithmeticError("division identity failed to re-verify")
    return ReductionResult(quotients, remainder)
