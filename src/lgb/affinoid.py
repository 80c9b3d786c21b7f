"""Valuation layer: weighted and polytopal term orders, initial forms,
capped-precision series, and the division/Buchberger instantiations for
them.

A weight context carries a single rational weight vector r; terms are
compared valuation first (val(c) - r.e, smaller is greater), ties broken
by the generalized monomial order.  A polytope context carries an ordered
vertex list; terms are compared by the polytope valuation, then by the
smallest attaining vertex index, then by the generalized order, whose
conic decomposition must refine the vertex regions V_i.

Series are represented exactly by finite Laurent polynomial bodies; the
cap is a computation bound, not an uncertainty: every identity holds
modulo terms of valuation at least the cap.

Each mode gives a term a sort key, ``term_key(coef, exp)``, largest term
first: minus the valuation times the common denominator of the weight or
the vertices (an integer, since coefficient valuations are integers), for
a polytope minus the first attaining vertex index, then the generalized
order's key.  ``leading`` and the shared division loop take keyed maxima.
``PolytopeMode.shifted_lm`` keys the terms of X^t g from integers cached
per polynomial (exponent, valuation times the denominator, dot product
with each scaled vertex), so testing t against a T_{i,j} module builds no
product.  The T_{i,j} generators come from the memoized search
``lattice.minimal_elements`` that the Laurent layer's general cone
modules use too: only the top start of each line along the cone's first
generator slides down the generators to a minimal member.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd as _gcd

from lgb.coeffs import INF, Coefficient
from lgb.gmo import GeneralizedOrder
from lgb.groebner import GBConfig, GBResult, GBStats, ResourceLimitError
from lgb.lattice import (
    CheckResult,
    Cone,
    ConicDecomposition,
    IncompleteSearchError,
    ValidationReport,
    box_points,
    cone_from_halfspaces,
    fm_feasible,
    minimal_elements,
    rational_rank,
    scale_to_int,
    validate_decomposition,
    vadd,
    vdot,
    vsub,
)
from lgb.laurent import LaurentPoly, LaurentRing, Term, format_poly, u_intersection
from lgb.reduction import _memoized_lm, division_loop, residual


class AffinoidError(ValueError):
    """Invalid weighted or polytopal usage."""


class DegeneratePolytopeError(AffinoidError):
    """A vertex region degenerated to an empty interior."""


# -- weight contexts -----------------------------------------------------------

class WeightContext:
    """A single weight vector r in Q^n."""

    __slots__ = ("r", "_num", "_den")

    def __init__(self, r):
        self.r = tuple(Fraction(x) for x in r)
        if not self.r:
            raise AffinoidError("the weight vector must be nonempty")
        self._den = 1
        for x in self.r:
            self._den = self._den * x.denominator // _gcd(self._den, x.denominator)
        self._num = tuple(int(x * self._den) for x in self.r)

    @property
    def n(self):
        return len(self.r)

    def __eq__(self, other):
        return isinstance(other, WeightContext) and self.r == other.r

    def __hash__(self):
        return hash(self.r)

    def __repr__(self):
        return f"WeightContext({self.r})"

    def scaled_val(self, coef: Coefficient, exp) -> int:
        """The term valuation times the common denominator of the weight."""
        return coef.valuation() * self._den - vdot(self._num, exp)

    def term_val(self, coef: Coefficient, exp) -> Fraction:
        if len(exp) != len(self._num):
            raise AffinoidError("exponent dimension does not match the weight")
        return Fraction(self.scaled_val(coef, exp), self._den)


def _body_of(f):
    return f.body if isinstance(f, CappedSeries) else f


def val_weight(ctx: WeightContext, f):
    """(valuation, initial form) of f under the weight; (+inf, 0) for zero."""
    body = _body_of(f)
    if body.is_zero():
        return INF, body
    best = None
    for exp, coef in body.terms_unordered():
        v = ctx.term_val(coef, exp)
        if best is None or v < best:
            best = v
    initial = {e: c for e, c in body.terms_unordered() if ctx.term_val(c, e) == best}
    return best, LaurentPoly(body.ring, initial)


def compare_weight(ctx: WeightContext, order: GeneralizedOrder, s: Term, t: Term) -> int:
    """Valuation-first term comparison; equal only on unit multiples."""
    vs = ctx.term_val(s.coef, s.exp)
    vt = ctx.term_val(t.coef, t.exp)
    if vs != vt:
        return -1 if vs > vt else 1
    return order.compare(s.exp, t.exp)


# -- polytope contexts -----------------------------------------------------------

class PolytopeContext:
    """An ordered vertex list r_1, ..., r_t (the indexing is part of the
    data; indices are 1-based throughout)."""

    __slots__ = ("vertices", "_normals", "_num", "_den")

    def __init__(self, vertices):
        verts = [tuple(Fraction(x) for x in v) for v in vertices]
        if not verts:
            raise AffinoidError("the vertex list must be nonempty")
        n = len(verts[0])
        if any(len(v) != n for v in verts):
            raise AffinoidError("vertex dimensions disagree")
        if len(set(verts)) != len(verts):
            raise AffinoidError("duplicate vertices are rejected")
        self.vertices = tuple(verts)
        for i, v in enumerate(verts):
            if len(verts) > 1 and _in_convex_hull(v, verts[:i] + verts[i + 1:]):
                raise AffinoidError(f"vertex {v} lies in the hull of the others")
        normals = []
        for i, ri in enumerate(self.vertices):
            rows = []
            for j, rj in enumerate(self.vertices):
                if j != i:
                    rows.append((j + 1, scale_to_int(vsub(ri, rj))))
            normals.append(tuple(rows))
        self._normals = tuple(normals)
        self._den = 1
        for v in self.vertices:
            for x in v:
                self._den = self._den * x.denominator // _gcd(self._den, x.denominator)
        self._num = tuple(
            tuple(int(x * self._den) for x in v) for v in self.vertices
        )

    @property
    def n(self):
        return len(self.vertices[0])

    @property
    def nvertices(self):
        return len(self.vertices)

    def __eq__(self, other):
        return isinstance(other, PolytopeContext) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"PolytopeContext({self.vertices})"

    # ------------------------------------------------------------------
    def vertex_val(self, i: int, coef: Coefficient, exp) -> Fraction:
        """Valuation of a term at vertex i (1-based)."""
        dot = sum(a * b for a, b in zip(self._num[i - 1], exp))
        return coef.valuation() - Fraction(dot, self._den)

    def term_val_indices(self, coef: Coefficient, exp):
        """(val_P, sorted attaining 1-based indices) of a term."""
        if len(exp) != self.n:
            raise AffinoidError("exponent dimension does not match the polytope")
        dots = [sum(a * b for a, b in zip(v, exp)) for v in self._num]
        top = max(dots)
        best = coef.valuation() - Fraction(top, self._den)
        return best, tuple(i + 1 for i, d in enumerate(dots) if d == top)

    def scaled_val(self, coef: Coefficient, exp) -> int:
        """The term valuation times the common denominator of the vertices."""
        return coef.valuation() * self._den - max(vdot(v, exp) for v in self._num)

    def term_val(self, coef: Coefficient, exp) -> Fraction:
        return Fraction(self.scaled_val(coef, exp), self._den)

    def vi_halfspaces(self, i: int):
        """Integer normals of the vertex region V_i = {a : r_i.a >= r_j.a}."""
        return tuple(h for _, h in self._normals[i - 1])

    def in_vi(self, i: int, exp) -> bool:
        return all(vdot(h, exp) >= 0 for _, h in self._normals[i - 1])

    def in_vi_less(self, i: int, exp) -> bool:
        """Membership in V_{i,<}: strict against every smaller index."""
        for j, h in self._normals[i - 1]:
            d = vdot(h, exp)
            if j < i:
                if d <= 0:
                    return False
            elif d < 0:
                return False
        return True


def _in_convex_hull(point, others) -> bool:
    """Exact test: is the point a convex combination of the others?"""
    if not others:
        return False
    m = len(others)
    cons = []
    for k in range(m):
        cons.append((tuple(Fraction(1 if i == k else 0) for i in range(m)), Fraction(0), False))
    ones = tuple(Fraction(1) for _ in range(m))
    cons.append((ones, Fraction(-1), False))
    cons.append((tuple(-x for x in ones), Fraction(1), False))
    for c in range(len(point)):
        row = tuple(Fraction(o[c]) for o in others)
        cons.append((row, Fraction(-point[c]), False))
        cons.append((tuple(-x for x in row), Fraction(point[c]), False))
    return fm_feasible(cons, m)


def val_polytope(ctx: PolytopeContext, f):
    """(valuation, attaining 1-based vertex indices) of f."""
    body = _body_of(f)
    if body.is_zero():
        return INF, ()
    per_vertex = []
    for i in range(1, ctx.nvertices + 1):
        per_vertex.append(min(ctx.vertex_val(i, c, e) for e, c in body.terms_unordered()))
    best = min(per_vertex)
    return best, tuple(i + 1 for i, v in enumerate(per_vertex) if v == best)


def compare_polytope(ctx: PolytopeContext, order: GeneralizedOrder, s: Term, t: Term) -> int:
    """Three-stage comparison: valuation (smaller is greater), smallest
    attaining index (smaller is greater), then the generalized order."""
    vs, inds = ctx.term_val_indices(s.coef, s.exp)
    vt, indt = ctx.term_val_indices(t.coef, t.exp)
    if vs != vt:
        return -1 if vs > vt else 1
    if min(inds) != min(indt):
        return -1 if min(inds) > min(indt) else 1
    return order.compare(s.exp, t.exp)


def initial_at_vertex(ctx: PolytopeContext, f, i: int) -> LaurentPoly:
    """in_{r_i}(f): the terms of minimal valuation at vertex i."""
    body = _body_of(f)
    if body.is_zero():
        return body
    best = min(ctx.vertex_val(i, c, e) for e, c in body.terms_unordered())
    kept = {e: c for e, c in body.terms_unordered() if ctx.vertex_val(i, c, e) == best}
    return LaurentPoly(body.ring, kept)


# -- refined decompositions -------------------------------------------------------

@dataclass(frozen=True)
class RefinedDecomposition:
    """Cones labeled (vertex index, sub-index), each contained in its vertex
    region, jointly a conic decomposition of the lattice."""

    entries: tuple
    decomposition: ConicDecomposition
    context: PolytopeContext

    @property
    def labels(self):
        return tuple((i, j) for i, j, _ in self.entries)

    def cone(self, label) -> Cone:
        for i, j, c in self.entries:
            if (i, j) == label:
                return c
        raise AffinoidError(f"no cone labeled {label}")

    def flat_index(self, label) -> int:
        for k, (i, j, _) in enumerate(self.entries):
            if (i, j) == label:
                return k
        raise AffinoidError(f"no cone labeled {label}")

    def validate(self, box_radius: int) -> ValidationReport:
        report = validate_decomposition(self.decomposition, box_radius)
        checks = list(report.checks)
        for i, j, cone in self.entries:
            ok = all(
                vdot(h, g) >= 0
                for h in self.context.vi_halfspaces(i)
                for g in cone.generators
            )
            checks.append(CheckResult(f"cone ({i},{j}) contained in V_{i}", ok))
        return ValidationReport(checks)


def build_refined_decomposition(ctx: PolytopeContext, base: ConicDecomposition) -> RefinedDecomposition:
    """Refine the vertex regions into pointed cones: a region that is
    already pointed and full-dimensional is kept whole; otherwise it is
    intersected with the base cones and the full-dimensional pointed
    pieces are kept."""
    n = ctx.n
    if base.n != n:
        raise AffinoidError("base decomposition dimension disagrees")
    entries = []
    cone_id = 0
    single = ctx.nvertices == 1
    for i in range(1, ctx.nvertices + 1):
        hs = ctx.vi_halfspaces(i)
        if not single and not fm_feasible([(h, Fraction(0), True) for h in hs], n):
            raise DegeneratePolytopeError(f"vertex region V_{i} has empty interior")
        pointed = bool(hs) and rational_rank([list(h) for h in hs]) == n
        if pointed:
            cone = cone_from_halfspaces(cone_id, hs, n)
            entries.append((i, 1, cone))
            cone_id += 1
            continue
        j = 0
        for b in base.cones:
            combined = tuple(hs) + tuple(b.halfspaces)
            if not fm_feasible([(h, Fraction(0), True) for h in combined], n):
                continue
            j += 1
            if single:
                cone = Cone(cone_id, b.generators, b.halfspaces)
            else:
                cone = cone_from_halfspaces(cone_id, combined, n)
            entries.append((i, j, cone))
            cone_id += 1
    if single:
        flat = base
    else:
        flat = ConicDecomposition(tuple(c for _, _, c in entries), "refined")
    for i, j, cone in entries:
        for g in cone.generators:
            if any(vdot(h, g) < 0 for h in ctx.vi_halfspaces(i)):
                raise AffinoidError(f"cone ({i},{j}) escapes its vertex region")
    return RefinedDecomposition(tuple(entries), flat, ctx)


# -- division modes ----------------------------------------------------------------

class WeightMode:
    """Division machinery for a ring under a single-weight term order."""

    __slots__ = ("ring", "context", "labels", "_initials")

    def __init__(self, ring: LaurentRing, context: WeightContext):
        if context.n != ring.n:
            raise AffinoidError("weight dimension does not match the ring")
        self.ring = ring
        self.context = context
        self.labels = tuple(range(len(ring.order.decomposition.cones)))
        self._initials = {}

    def __eq__(self, other):
        return (
            isinstance(other, WeightMode)
            and self.ring == other.ring
            and self.context == other.context
        )

    def __hash__(self):
        return hash((self.ring, self.context))

    # ------------------------------------------------------------------
    def term_val(self, term: Term) -> Fraction:
        return self.context.term_val(term.coef, term.exp)

    def compare_terms(self, s: Term, t: Term) -> int:
        return compare_weight(self.context, self.ring.order, s, t)

    def initial(self, g: LaurentPoly) -> LaurentPoly:
        cached = self._initials.get(g)
        if cached is None:
            _, cached = val_weight(self.context, g)
            self._initials[g] = cached
        return cached

    def term_key(self, coef: Coefficient, exp):
        """Sort key, largest term first: (num.e - v(c) * den, order key)."""
        ctx = self.context
        top = vdot(ctx._num, exp)
        return (top - coef.valuation() * ctx._den,) + self.ring.order.key(exp)

    def leading(self, f: LaurentPoly) -> Term:
        return _max_term(self, f)

    def cone_leading(self, g: LaurentPoly, label):
        lm, lc, _ = self.initial(g).cone_leading_data(label)
        return lm, lc

    def shifted_lm(self, g: LaurentPoly, shift):
        return self.initial(g).shifted_leading_monomial(shift)

    def module_contains(self, g: LaurentPoly, t, label) -> bool:
        return self.initial(g).ti_contains(t, label)

    def u_set(self, f: LaurentPoly, g: LaurentPoly, label, search_radius=8):
        return u_intersection(self.initial(f), self.initial(g), label, search_radius)


class PolytopeMode:
    """Division machinery for a ring whose order refines a polytope's
    vertex regions."""

    __slots__ = ("ring", "context", "refined", "labels", "_initials", "_term_keys", "_modules")

    def __init__(self, ring: LaurentRing, context: PolytopeContext, refined: RefinedDecomposition):
        if context.n != ring.n:
            raise AffinoidError("polytope dimension does not match the ring")
        if refined.context != context:
            raise AffinoidError("refined decomposition belongs to another polytope")
        if ring.order.decomposition != refined.decomposition:
            raise AffinoidError(
                "the ring order must be built over the refined decomposition"
            )
        self.ring = ring
        self.context = context
        self.refined = refined
        self.labels = refined.labels
        self._initials = {}
        self._term_keys = {}
        self._modules = {}

    def __eq__(self, other):
        return (
            isinstance(other, PolytopeMode)
            and self.ring == other.ring
            and self.context == other.context
            and self.refined.entries == other.refined.entries
        )

    def __hash__(self):
        return hash((self.ring, self.context))

    # ------------------------------------------------------------------
    def term_val(self, term: Term) -> Fraction:
        return self.context.term_val(term.coef, term.exp)

    def compare_terms(self, s: Term, t: Term) -> int:
        return compare_polytope(self.context, self.ring.order, s, t)

    def initial(self, g: LaurentPoly, i: int) -> LaurentPoly:
        key = (g, i)
        cached = self._initials.get(key)
        if cached is None:
            cached = initial_at_vertex(self.context, g, i)
            self._initials[key] = cached
        return cached

    def term_key(self, coef: Coefficient, exp):
        """Sort key, largest term first: (top - v(c) * den, -first attaining
        vertex index, order key), where top is the largest num_k.e."""
        ctx = self.context
        top, neg_k = max((vdot(v, exp), -k) for k, v in enumerate(ctx._num, 1))
        return (top - coef.valuation() * ctx._den, neg_k) + self.ring.order.key(exp)

    def leading(self, f: LaurentPoly) -> Term:
        return _max_term(self, f)

    def cone_leading(self, g: LaurentPoly, label):
        i, _ = label
        flat = self.refined.flat_index(label)
        lm, lc, _ = self.initial(g, i).cone_leading_data(flat)
        return lm, lc

    def shifted_lm(self, g: LaurentPoly, shift):
        """lm(X^shift * g) without building the product: ``term_key`` of
        each shifted term from the integers cached per polynomial, the
        order key computed only on ties."""
        keys = self._term_keys.get(g)
        if keys is None:
            num, den = self.context._num, self.context._den
            keys = [
                (e, c.valuation() * den, tuple(vdot(v, e) for v in num))
                for e, c in g.terms_unordered()
            ]
            self._term_keys[g] = keys
        sdots = [vdot(v, shift) for v in self.context._num]
        order_key = self.ring.order.key
        best = best_key = None
        for e, vden, dots in keys:
            top, neg_k = max((d + s, -k) for k, (d, s) in enumerate(zip(dots, sdots)))
            key = (top - vden, neg_k)
            exp = vadd(e, shift)
            if best is None or key > best_key or (
                key == best_key and order_key(exp) > order_key(best)
            ):
                best, best_key = exp, key
        if best is None:
            raise AffinoidError("the zero series has no leading term")
        return best

    def module_contains(self, g: LaurentPoly, t, label) -> bool:
        """t in T_{i,j}(g): the shifted leading monomial lands in the cone
        and in V_{i,<}."""
        i, _ = label
        cone = self.refined.cone(label)
        lm = self.shifted_lm(g, t)
        return cone.contains(lm) and self.context.in_vi_less(i, lm)

    # ------------------------------------------------------------------
    def tij_generators(self, f: LaurentPoly, label, search_radius=6):
        """Generators of T_{i,j}(f): the minimal elements reached from a
        witness and the radius box by ``lattice.minimal_elements``, each
        verified directly and memoized on the mode (failures are not).  With
        several vertices there is no completeness certificate yet: a
        generator away from the box and the witness would be missed.  One
        vertex defers to the Laurent modules, memoized per polynomial."""
        if f.is_zero():
            raise AffinoidError("the zero series has no cone module")
        if self.context.nvertices == 1:
            body = self.initial(f, 1)
            flat = self.refined.flat_index(label)
            if self.ring.standard_cones:
                return [body.ti_generator(flat)]
            return body.ti_set_general(flat, search_radius)
        cached = self._modules.get((f, label, search_radius))
        if cached is not None:
            return list(cached)
        cone = self.refined.cone(label)
        member = lambda t: self.module_contains(f, t, label)

        witness = None
        t0 = f.cone_witness(self.refined.flat_index(label))
        interior = self._interior_vector(label)
        probe = t0
        for _ in range(2 * search_radius + 2):
            if member(probe):
                witness = probe
                break
            probe = vadd(probe, interior)
        if witness is None:
            raise IncompleteSearchError(
                f"no witness for cone {label} within radius {search_radius}"
            )

        starts = chain([witness], box_points(self.ring.n, search_radius))
        minimal = minimal_elements(member, cone.generators, starts)
        for g in minimal:
            if not member(g):
                raise AffinoidError(f"search produced a non-member {g}")
        self._modules[(f, label, search_radius)] = minimal
        return list(minimal)

    def _interior_vector(self, label):
        i, _ = label
        cone = self.refined.cone(label)
        constraints = [(h, Fraction(0), True) for h in cone.halfspaces]
        constraints += [(h, Fraction(0), True) for h in self.context.vi_halfspaces(i)]
        for radius in range(1, 8):
            for p in box_points(self.ring.n, radius):
                if any(p) and all(vdot(a, p) > 0 for a, _, _ in constraints):
                    return p
        raise AffinoidError(f"cone {label} has no interior lattice direction")

    def u_set(self, f: LaurentPoly, g: LaurentPoly, label, search_radius=6):
        if self.context.nvertices == 1:
            flat = self.refined.flat_index(label)
            return u_intersection(self.initial(f, 1), self.initial(g, 1), flat, search_radius)
        cone = self.refined.cone(label)
        lmf, _ = self.cone_leading(f, label)
        lmg, _ = self.cone_leading(g, label)
        fam_f = [vadd(a, lmf) for a in self.tij_generators(f, label, search_radius)]
        fam_g = [vadd(b, lmg) for b in self.tij_generators(g, label, search_radius)]
        return cone.module_intersection(fam_f, fam_g)


def _max_term(mode, f: LaurentPoly) -> Term:
    """The leading term of a series body: the largest ``term_key``."""
    key = mode.term_key
    best = max(f.terms_unordered(), key=lambda t: key(t[1], t[0]), default=None)
    if best is None:
        raise AffinoidError("the zero series has no leading term")
    return Term(best[1], best[0])


def lm_polytope(mode: PolytopeMode, f):
    """(lm, lc, lt, in_P) of a nonzero series under the polytopal order."""
    body = _body_of(f)
    lt = mode.leading(body)
    k = min(mode.context.term_val_indices(lt.coef, lt.exp)[1])
    return lt.exp, lt.coef, lt, mode.initial(body, k)


def tij_generators(mode: PolytopeMode, f, label, search_radius: int = 6):
    return mode.tij_generators(_body_of(f), label, search_radius)


# -- capped series -------------------------------------------------------------------

class CappedSeries:
    """A finite-support approximation of an affinoid element: exact modulo
    terms of valuation at least the cap."""

    __slots__ = ("mode", "body", "cap")

    def __init__(self, mode, body: LaurentPoly, cap):
        if body.ring is not mode.ring and body.ring != mode.ring:
            raise AffinoidError("series body does not live in the mode's ring")
        self.mode = mode
        self.cap = Fraction(cap)
        ctx = mode.context
        # an integer scaled_val is below cap * den iff it is below the ceiling
        bound = math.ceil(self.cap * ctx._den)
        kept = {e: c for e, c in body.terms_unordered() if ctx.scaled_val(c, e) < bound}
        self.body = LaurentPoly(mode.ring, kept)

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, CappedSeries)
            and self.mode == other.mode
            and self.cap == other.cap
            and self.body == other.body
        )

    def __hash__(self):
        return hash((self.cap, self.body))

    def _check(self, other):
        if not isinstance(other, CappedSeries):
            raise AffinoidError(f"expected a CappedSeries, got {type(other).__name__}")
        if other.mode is not self.mode and other.mode != self.mode:
            raise AffinoidError("mixed series contexts")

    def __add__(self, other):
        self._check(other)
        return CappedSeries(self.mode, self.body + other.body, min(self.cap, other.cap))

    def __neg__(self):
        return CappedSeries(self.mode, -self.body, self.cap)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CappedSeries):
            self._check(other)
            return CappedSeries(self.mode, self.body * other.body, min(self.cap, other.cap))
        return CappedSeries(self.mode, self.body * other, self.cap)

    __rmul__ = __mul__

    def term_mul(self, exp, coef=None) -> "CappedSeries":
        return CappedSeries(self.mode, self.body.term_mul(exp, coef), self.cap)

    def leading_term(self) -> Term:
        return self.mode.leading(self.body)

    def __str__(self):
        text = format_poly(self.body, compare=self.mode.compare_terms)
        return f"{text} + O(val >= {self.cap})"

    def __repr__(self):
        return f"<{self}>"


class _SeriesDivision:
    """Adapter binding a mode to the shared division loop for one engine
    call, with the memo of ``reduction``'s module docstring; ``bound`` is
    ceil(cap * den) for the cap of the division in progress."""

    __slots__ = ("mode", "labels", "bound", "_lms")

    def __init__(self, mode):
        self.mode = mode
        self.labels = mode.labels
        self.bound = None
        self._lms = {}

    def term_key(self, coef, exp):
        return self.mode.term_key(coef, exp)

    def leading(self, work, keys):
        exp = max(keys, key=keys.__getitem__)
        return Term(work[exp], exp)

    def cone_leading(self, g, label):
        return self.mode.cone_leading(g, label)

    def shifted_lm(self, g, shift):
        return _memoized_lm(self._lms, g, shift, self.mode.shifted_lm)

    def past_cap(self, term: Term) -> bool:
        return self.mode.context.scaled_val(term.coef, term.exp) >= self.bound

    def on_fire(self, label, g, shift) -> None:
        pass


def reduce_P(f: CappedSeries, gens):
    """Cone-aware division of capped series; the identity f = sum(q g) + r
    holds modulo terms of valuation at least the cap (verified).

    Quotients carry a raised cap: dropping a quotient term at the shared
    cap and multiplying by a divisor term of negative valuation could fall
    back below it, so quotient terms are kept up to cap minus the most
    negative divisor valuation.
    """
    qdicts, qcap, remainder = _reduce_P(f, list(gens), _SeriesDivision(f.mode))
    return [CappedSeries(f.mode, LaurentPoly(f.mode.ring, q), qcap) for q in qdicts], remainder


def _reduce_P(f: CappedSeries, gens, division: _SeriesDivision):
    """``reduce_P`` with the division adapter of the calling engine function:
    (quotient term dicts cut at their raised cap, that cap, remainder)."""
    for g in gens:
        f._check(g)
        if g.is_zero():
            raise AffinoidError("divisors must be nonzero at the working precision")
    mode, ctx = f.mode, f.mode.context
    cap = min([f.cap] + [g.cap for g in gens])
    division.bound = math.ceil(cap * ctx._den)
    qdicts, rdict, tail = division_loop(f.body, [g.body for g in gens], division)
    ring = mode.ring
    qcap = cap
    if gens:
        low = min(ctx.scaled_val(c, e) for g in gens for e, c in g.body.terms_unordered())
        qcap = cap - min(Fraction(0), Fraction(low, ctx._den))
    # the terms CappedSeries(mode, LaurentPoly(ring, q), qcap) would keep
    qbound = math.ceil(qcap * ctx._den)
    qdicts = [{e: c for e, c in q.items() if ctx.scaled_val(c, e) < qbound} for q in qdicts]
    remainder = CappedSeries(mode, LaurentPoly(ring, rdict), cap)
    rest = residual(f.body, remainder.body, qdicts, [g.body for g in gens])
    for e, c in rest.items():
        if ctx.scaled_val(c, e) < division.bound:
            raise ArithmeticError("capped division identity failed to re-verify")
    return qdicts, qcap, remainder


def spair_series(mode, label, f: CappedSeries, g: CappedSeries, v) -> CappedSeries:
    """S-pair of two series at a collision monomial of a cone label."""
    f._check(g)
    lmf, lcf = mode.cone_leading(f.body, label)
    lmg, lcg = mode.cone_leading(g.body, label)
    if not mode.module_contains(f.body, vsub(v, lmf), label) or not mode.module_contains(
        g.body, vsub(v, lmg), label
    ):
        raise AffinoidError(f"{v} is not a collision monomial for cone {label}")
    return f.term_mul(vsub(v, lmf), lcg) - g.term_mul(vsub(v, lmg), lcf)


def buchberger_P(gens, cfg: GBConfig | None = None) -> GBResult:
    """Buchberger's algorithm at a fixed working precision: criterion
    closure means every S-pair remainder consists of terms at or above
    the cap."""
    cfg = cfg or GBConfig()
    gens = list(gens)
    if not gens:
        raise AffinoidError("need at least one generator")
    mode = gens[0].mode
    basis = []
    for g in gens:
        gens[0]._check(g)
        if g.is_zero():
            raise AffinoidError("generators must be nonzero at the working precision")
        if g.cap != gens[0].cap:
            raise AffinoidError("generators must share one precision cap")
        if g not in basis:
            basis.append(g)
    division = _SeriesDivision(mode)
    stats = GBStats()
    queue = deque((a, b) for a in range(len(basis)) for b in range(a + 1, len(basis)))
    while queue:
        a, b = queue.popleft()
        stats.pairs_processed += 1
        f, g = basis[a], basis[b]
        for label in mode.labels:
            for v in mode.u_set(f.body, g.body, label):
                s = spair_series(mode, label, f, g, v)
                if not s.is_zero():
                    lmf, lcf = mode.cone_leading(f.body, label)
                    lmg, lcg = mode.cone_leading(g.body, label)
                    if mode.compare_terms(s.leading_term(), Term(lcf * lcg, v)) >= 0:
                        raise AssertionError(f"S-pair at {v} does not drop below its bound")
                if s.is_zero():
                    stats.zero_reductions += 1
                    continue
                _, _, r = _reduce_P(s, basis, division)
                if r.is_zero():
                    stats.zero_reductions += 1
                    continue
                queue.extend((k, len(basis)) for k in range(len(basis)))
                basis.append(r)
                if len(basis) > cfg.max_basis:
                    raise ResourceLimitError(
                        f"basis exceeded the guard of {cfg.max_basis} elements"
                    )
    if cfg.normalize:
        basis = [h * h.leading_term().coef.inv() for h in basis]
    return GBResult(basis, stats, None)


def is_groebner_series(H):
    """Criterion check at the working precision; returns (flag, certificate)."""
    H = list(H)
    if not H:
        raise AffinoidError("need at least one series")
    mode = H[0].mode
    division = _SeriesDivision(mode)
    for a in range(len(H)):
        for b in range(a + 1, len(H)):
            for label in mode.labels:
                for v in mode.u_set(H[a].body, H[b].body, label):
                    s = spair_series(mode, label, H[a], H[b], v)
                    if s.is_zero():
                        continue
                    lmf, lcf = mode.cone_leading(H[a].body, label)
                    lmg, lcg = mode.cone_leading(H[b].body, label)
                    if mode.compare_terms(s.leading_term(), Term(lcf * lcg, v)) >= 0:
                        raise AssertionError(f"S-pair at {v} does not drop below its bound")
                    _, _, r = _reduce_P(s, H, division)
                    if not r.is_zero():
                        return False, (label, a, b, v)
    return True, None
