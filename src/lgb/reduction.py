"""Cone-aware multivariate division, and the one adapter through which
every layer runs it and ``groebner``'s Buchberger engine.

One loop serves both the Laurent polynomial ring (well-ordered term
comparison, exact termination) and the capped-series layer (valuation
first comparison, loop exits at the precision cap).  Reducer selection is
deterministic: scan cone labels in order, then the divisor list in order,
and take the first pair whose cone leading monomial cancels the current
leading term without introducing a larger one.

A layer is a mode with ``ring``, ``labels``, ``exp_key``, ``with_coef``,
``term_key`` and ``cone_leading``, and the cone-module protocol of
``laurent.cone_module`` (``in_region``, ``memo``, ``module_search``):
``laurent.LaurentMode`` and ``affinoid.PolytopeMode``, whose one-vertex
case is a weight order.  Each engine call builds one adapter over its
mode, ``PolynomialMode``, which holds the mode and the call's cap
``bound``: the only datum by which the layers differ.  Both divide
``LaurentPoly`` bodies through one verified division, ``_divide``, which
``reduce``, ``affinoid.reduce_P`` and ``groebner``'s engine call.

A term's sort key (largest term first) has an exponent half and a
coefficient part: the mode's ``exp_key(e)`` is the order key in the
Laurent layer, and the scaled polytope dot and vertex index followed by
the order key in the capped layer; its ``with_coef(c, half)`` folds in
v(c), and ``term_key(c, e)`` is the two composed.  The adapter keeps one
table ``{e: exp_key(e)}`` per engine call: ``term_key`` reads the exponent
half from it, and the hot loops of ``division_loop`` and lm(X^shift g)
read it directly, so an exponent is keyed once per call.  A sum of
two coefficients whose valuations are known and differ carries the
smaller (``coeffs``), so folding v(c) in is mostly a read.

The work polynomial is a mutable ``{exp: coef}`` map with a parallel
``{exp: key}`` map of keys, so a step takes a keyed maximum and subtracts
``coef * X^shift * g`` in place; no immutable polynomial is rebuilt per
step, and a quotient or remainder term is stored as it is on first use.
The cap test reads the leading term's key: in the capped layer ``-key[0]``
is the term's valuation times the common denominator, which the loop
compares with the adapter's ``bound`` (+inf in the Laurent layer).

A reducer fires only when lm(X^shift g) is the current leading exponent,
with shift = that exponent minus lm_label(g), so it always cancels at
shift + lm_label(g) and a fire needs no further check.  The adapter
computes lm(X^shift g) itself, in every layer, as the term of X^shift g
with the largest ``term_key``, and memoizes it as ``{g: {shift: lm}}``:
the same (g, shift) test recurs within a division and across the
divisions of one Buchberger run, so a try costs one row lookup and one
dict get.  The memo also serves every cone module's one membership test,
``member(g, t, label)``: the mode's ``in_region(label, lm(X^t g))``;
``shifted_lm`` counts reducer tries alone.  The adapter's ``on_fire``
hook does nothing; it marks each fire for ``bench/spans.py``, which counts
reducer fires through it.

The adapter also keeps the reducer table ``{g: {label: (lm, lc)}}`` of
each divisor's cone leading data, which the loop and ``groebner``'s S-pair
bound check read.  It is filled lazily, one (g, label) on first use: the
loop asks only the labels it scans before a reducer fires, and a cone
whose leading data cannot be computed must fail only a division that
reaches it.  The key table, the memo and the reducer table die with the
engine call; held on the ring, order, mode or polynomial, they would keep
every exponent and shift tried alive with the bases the caller retains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from lgb.laurent import LaurentMode, LaurentPoly, Term, UndefinedLeadingError
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
    """The division and Buchberger adapter of one engine call over a mode
    (module docstring); ``bound`` is ceil(cap * den) for the call's cap,
    +inf in the Laurent layer."""

    __slots__ = ("mode", "labels", "cone_leading", "bound", "_keys", "_lms", "_leads")

    def __init__(self, mode, bound=math.inf):
        self.mode = mode
        self.labels = mode.labels
        self.cone_leading = mode.cone_leading
        self.bound = bound
        self._keys = {}
        self._lms = {}
        self._leads = {}

    def term_key(self, coef, exp):
        """The mode's ``term_key(coef, exp)``, its exponent half read from
        the call's table."""
        half = self._keys.get(exp)
        if half is None:
            half = self._keys[exp] = self.mode.exp_key(exp)
        return self.mode.with_coef(coef, half)

    def leading(self, work, keys) -> Term:
        exp = max(keys, key=keys.__getitem__)
        return Term(work[exp], exp)

    def shifted_lm(self, g: LaurentPoly, shift):
        """lm(X^shift g), from the call's memo; one reducer try."""
        row = self._lms.get(g)
        if row is None:
            row = self._lms[g] = {}
        lm = row.get(shift)
        if lm is None:
            lm = row[shift] = self._shifted_lm(g, shift)
        return lm

    def member(self, g: LaurentPoly, t, label) -> bool:
        """Whether t lies in the cone module of g at label."""
        return self.mode.in_region(label, _memoized(self._lms, g, t, self._shifted_lm))

    def _shifted_lm(self, g: LaurentPoly, shift):
        """lm(X^shift g): the shifted term with the largest ``term_key``."""
        table, exp_key, with_coef = self._keys, self.mode.exp_key, self.mode.with_coef
        best = best_key = None
        for e, c in g.terms_unordered():
            e = vadd(e, shift)
            half = table.get(e)
            if half is None:
                half = table[e] = exp_key(e)
            key = with_coef(c, half)
            if best is None or key > best_key:
                best, best_key = e, key
        if best is None:
            raise UndefinedLeadingError("the zero polynomial has no leading monomial")
        return best

    def on_fire(self, label, g, shift) -> None:
        pass


def division_loop(f: LaurentPoly, gens, adapter: PolynomialMode):
    """Run the division; returns (quotient term dicts, remainder dict).  The
    terms left at the precision cap are dropped."""
    table, exp_key, with_coef = adapter._keys, adapter.mode.exp_key, adapter.mode.with_coef
    bound, cone_leading = adapter.bound, adapter.cone_leading
    rows = [_row(adapter._leads, g) for g in gens]
    quotients = [dict() for _ in gens]
    remainder = {}
    work = dict(f.terms_unordered())
    keys = {e: adapter.term_key(c, e) for e, c in work.items()}
    while work:
        lt = adapter.leading(work, keys)
        if -keys[lt.exp][0] >= bound:
            break
        for label in adapter.labels:
            for k, g in enumerate(gens):
                lead = rows[k].get(label)
                if lead is None:
                    lead = rows[k][label] = cone_leading(g, label)
                shift = vsub(lt.exp, lead[0])
                if adapter.shifted_lm(g, shift) == lt.exp:
                    break
            else:
                continue
            adapter.on_fire(label, g, shift)
            coef = lt.coef / lead[1]
            acc = quotients[k]
            old = acc.get(shift)
            acc[shift] = coef if old is None else old + coef
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
                half = table.get(e)
                if half is None:
                    half = table[e] = exp_key(e)
                keys[e] = with_coef(c, half)
            break
        else:
            old = remainder.get(lt.exp)
            remainder[lt.exp] = lt.coef if old is None else old + lt.coef
            del work[lt.exp], keys[lt.exp]
    return quotients, remainder


def residual(f: LaurentPoly, remainder: LaurentPoly, quotients, gens) -> dict:
    """The nonzero terms of ``f - r - sum(q * g)``, accumulated in one dict;
    the quotients are ``{exp: coef}`` term dicts."""
    acc = dict(f.terms_unordered())
    for e, c in remainder.terms_unordered():
        c = -c
        old = acc.get(e)
        acc[e] = c if old is None else old + c
    for q, g in zip(quotients, gens):
        for eq, cq in q.items():
            neg = -cq
            for eg, cg in g.terms_unordered():
                e, c = vadd(eq, eg), cg * neg
                old = acc.get(e)
                acc[e] = c if old is None else old + c
    return {e: c for e, c in acc.items() if not c.is_zero()}


@dataclass
class ReductionResult:
    quotients: list
    remainder: LaurentPoly

    def __iter__(self):
        return iter((self.quotients, self.remainder))


def _divide(f: LaurentPoly, gens, adapter: PolynomialMode):
    """Divide the body f by checked divisor bodies with an engine call's
    adapter; returns (quotient term dicts, remainder).  Raises unless every
    term of ``f - r - sum(q * g)`` lies at or above the cap: with an
    infinite bound, unless the identity holds exactly."""
    qdicts, rdict = division_loop(f, gens, adapter)
    remainder = LaurentPoly(f.ring, rdict)
    key, bound = adapter.term_key, adapter.bound
    for e, c in residual(f, remainder, qdicts, gens).items():
        if -key(c, e)[0] < bound:
            raise ArithmeticError("division identity failed to re-verify")
    return qdicts, remainder


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
    qdicts, remainder = _divide(f, gens, PolynomialMode(LaurentMode(f.ring)))
    return ReductionResult([LaurentPoly(f.ring, q) for q in qdicts], remainder)
