"""Valuation layer: polytopal term orders, initial forms, capped-precision
series, and the mode through which they run the shared division loop and
``groebner``'s one Buchberger engine, behind one
``reduction.PolynomialMode`` adapter per engine call.

A polytope context carries an ordered vertex list; terms are compared by
the polytope valuation, then by the smallest attaining vertex index, then
by the generalized order, whose conic decomposition must refine the
vertex regions V_i.  A weight order is the one-vertex polytope (r): the
valuation val(c) - r.e, smaller is greater, ties broken by the generalized
order, over the base cones themselves (``build_refined_decomposition``);
``cli`` parses ``weight r`` to it.

Series are represented exactly by finite Laurent polynomial bodies; the
cap is a computation bound, not an uncertainty: every identity holds
modulo terms of valuation at least the cap.

The mode gives a term a sort key, ``term_key(coef, exp)``, largest term
first: minus the valuation times the common denominator of the vertices
(an integer, since coefficient valuations are integers), minus the first
attaining vertex index, then the generalized order's key.  It is composed
of an exponent half, ``exp_key(exp)`` (the scaled dot, the vertex index,
the order key), and ``with_coef``, which subtracts v(c) times the
denominator; the division adapter tables the half per engine call.  This
key is the mode's one term order: ``leading`` and the shared division
loop take keyed maxima, ``CappedSeries.__str__`` prints by it, and
``lm_polytope`` reads the first attaining vertex from it.
Valuations and initial forms (``val_polytope``, ``initial_at_vertex``)
compute with ``scaled_val`` and the per-vertex integer dots; a
``Fraction`` is built only for a value handed back to the caller
(``term_val``, ``val_polytope``).

For its cone modules (``laurent.cone_module``) ``PolytopeMode`` supplies
the region of T_{i,j}(f), ``in_region`` (the cone and V_{i,<}), which the
division adapter's ``member`` asks of lm(X^t f), the integer cells that
describe the module exactly (``_tij_cells``), and a witness.  With one
vertex r the module is the Laurent module of the initial form in_r(f),
principal on the standard cones.

``reduce_P``, ``buchberger_P`` and ``is_groebner_series`` unwrap their
series to bodies, run ``reduction._divide`` and ``groebner``'s engine on
them behind an adapter whose ``bound`` is the shared cap times the common
denominator, rounded up, and wrap the results once.  ``buchberger_P``
expands each added element into an exact combination of the inputs
(``groebner._expand_provenance``) and certifies from it that the
element's leading term lies below the precision to which the element is
known (``_certifier``); an element whose leading term is noise raises
``PrecisionError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd as _gcd

from lgb.coeffs import INF, Coefficient
from lgb.groebner import (
    GBConfig,
    GBResult,
    _buchberger,
    _criterion,
    _distinct,
    _expand_provenance,
    _normalized,
)
from lgb.lattice import (
    CheckResult,
    Cone,
    ConicDecomposition,
    IncompleteSearchError,
    ValidationReport,
    box_points,
    cone_from_halfspaces,
    fm_feasible,
    rational_rank,
    scale_to_int,
    validate_decomposition,
    vadd,
    vdot,
    vsub,
)
from lgb.laurent import LaurentPoly, LaurentRing, Term, _ti_cells, format_poly
from lgb.reduction import PolynomialMode, _divide


class AffinoidError(ValueError):
    """Invalid polytopal usage."""


class DegeneratePolytopeError(AffinoidError):
    """A vertex region degenerated to an empty interior."""


class PrecisionError(AffinoidError):
    """A capped basis element's leading term lies at or above the precision
    to which it is certified to be an ideal element."""


def _body_of(f):
    return f.body if isinstance(f, CappedSeries) else f


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
    den = ctx._den
    terms = [(c.valuation() * den, e) for e, c in body.terms_unordered()]
    per_vertex = [min(v - vdot(r, e) for v, e in terms) for r in ctx._num]
    best = min(per_vertex)
    return Fraction(best, den), tuple(k for k, v in enumerate(per_vertex, 1) if v == best)


def initial_at_vertex(ctx: PolytopeContext, f, i: int) -> LaurentPoly:
    """in_{r_i}(f): the terms of minimal valuation at vertex i."""
    body = _body_of(f)
    if body.is_zero():
        return body
    r, den = ctx._num[i - 1], ctx._den
    vals = {e: c.valuation() * den - vdot(r, e) for e, c in body.terms_unordered()}
    best = min(vals.values())
    return LaurentPoly(body.ring, {e: c for e, c in body.terms_unordered() if vals[e] == best})


# -- refined decompositions -------------------------------------------------------

@dataclass(frozen=True)
class RefinedDecomposition:
    """Cones labeled (vertex index, sub-index), each contained in its vertex
    region, jointly a conic decomposition of the lattice."""

    entries: tuple
    decomposition: ConicDecomposition
    context: PolytopeContext
    _by_label: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_label = {(i, j): (k, c) for k, (i, j, c) in enumerate(self.entries)}
        object.__setattr__(self, "_by_label", by_label)

    @property
    def labels(self):
        return tuple((i, j) for i, j, _ in self.entries)

    def _entry(self, label):
        """(flat index, cone) of a label."""
        entry = self._by_label.get(label)
        if entry is None:
            raise AffinoidError(f"no cone labeled {label}")
        return entry

    def cone(self, label) -> Cone:
        return self._entry(label)[1]

    def flat_index(self, label) -> int:
        return self._entry(label)[0]

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


_REFINED = {}


def build_refined_decomposition(ctx: PolytopeContext, base: ConicDecomposition) -> RefinedDecomposition:
    """Refine the vertex regions into pointed cones: a region that is
    already pointed and full-dimensional is kept whole; otherwise it is
    intersected with the base cones and the full-dimensional pointed
    pieces are kept.  With one vertex the pieces are the base cones
    themselves, shared with ``base``.

    The result is shared, as ``lattice.build_decomposition``'s is: one per
    (vertices, base), built and checked on the first call; errors are not
    memoized."""
    key = (ctx.vertices, base)
    refined = _REFINED.get(key)
    if refined is None:
        refined = _REFINED[key] = _new_refined_decomposition(ctx, base)
    return refined


def _new_refined_decomposition(ctx, base):
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
            cone = b if single else cone_from_halfspaces(cone_id, combined, n)
            entries.append((i, j, cone))
            cone_id += 1
    flat = base if single else ConicDecomposition(tuple(c for _, _, c in entries), "refined")
    for i, j, cone in entries:
        for g in cone.generators:
            if any(vdot(h, g) < 0 for h in ctx.vi_halfspaces(i)):
                raise AffinoidError(f"cone ({i},{j}) escapes its vertex region")
    return RefinedDecomposition(tuple(entries), flat, ctx)


# -- division modes ----------------------------------------------------------------

class PolytopeMode:
    """Division machinery for a ring whose order refines a polytope's
    vertex regions; with one vertex r, the weight order of r."""

    __slots__ = ("ring", "context", "refined", "labels", "_initials", "_modules", "_interiors")
    search_radius = 6

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
        self._modules = {}
        self._interiors = {}

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
    def initial(self, g: LaurentPoly, i: int) -> LaurentPoly:
        key = (g, i)
        cached = self._initials.get(key)
        if cached is None:
            cached = initial_at_vertex(self.context, g, i)
            self._initials[key] = cached
        return cached

    def exp_key(self, exp):
        """The exponent half of ``term_key``: (top, -first attaining vertex
        index, order key), where top is the largest num_k.e."""
        dots = [vdot(v, exp) for v in self.context._num]
        top = max(dots)
        return (top, -1 - dots.index(top)) + self.ring.order.key(exp)

    def with_coef(self, coef: Coefficient, half):
        """``term_key`` from its exponent half: the scaled dot minus
        v(c) * den, then the rest of the half."""
        return (half[0] - coef.valuation() * self.context._den,) + half[1:]

    def term_key(self, coef: Coefficient, exp):
        """Sort key, largest term first: (top - v(c) * den, -first attaining
        vertex index, order key)."""
        return self.with_coef(coef, self.exp_key(exp))

    def leading(self, f: LaurentPoly) -> Term:
        """The leading term of a series body: the largest ``term_key``."""
        key = self.term_key
        best = max(f.terms_unordered(), key=lambda t: key(t[1], t[0]), default=None)
        if best is None:
            raise AffinoidError("the zero series has no leading term")
        return Term(best[1], best[0])

    def cone_leading(self, g: LaurentPoly, label):
        i, _ = label
        flat = self.refined.flat_index(label)
        lm, lc, _ = self.initial(g, i).cone_leading_data(flat)
        return lm, lc

    def in_region(self, label, exp) -> bool:
        """Whether lm(X^t g) = exp puts t in T_{i,j}(g): exp lies in the
        cone and in V_{i,<}."""
        return self.refined.cone(label).contains(exp) and self.context.in_vi_less(label[0], exp)

    def memo(self, g: LaurentPoly, label):
        return self._modules, (g, label)

    def module_search(self, g: LaurentPoly, label, search_radius, member):
        """(cone, cells, witness) of T_{i,j}(g), no cells where principal,
        with one vertex r on the standard cones: a shift by t moves every
        valuation by r.t, so lm(X^t g) = lm(X^t in_r(g)) and the module is
        the Laurent one of in_r(g), whose cone witness is a member.  The
        witness is the first ``member`` on the walk from that cone witness
        along an interior direction; IncompleteSearchError with none in
        2 * search_radius + 2 steps."""
        flat = self.refined.flat_index(label)
        single = self.context.nvertices == 1
        cells = None if single and self.ring.standard_cones else _tij_cells(self, g, label)
        t = (self.initial(g, 1) if single else g).cone_witness(flat)
        for _ in range(2 * search_radius + 2):
            if member(t):
                return self.refined.cone(label), cells, t
            t = vadd(t, self._interior_vector(label))
        raise IncompleteSearchError(f"no witness for cone {label} within radius {search_radius}")

    def _interior_vector(self, label):
        """The first nonzero point of the boxes of radius 1 to 7 strictly
        inside the cone and V_i, memoized per label."""
        if label not in self._interiors:
            normals = (*self.refined.cone(label).halfspaces, *self.context.vi_halfspaces(label[0]))
            points = (p for r in range(1, 8) for p in box_points(self.ring.n, r))
            self._interiors[label] = next(
                (p for p in points if any(p) and all(vdot(h, p) > 0 for h in normals)), None
            )
        if self._interiors[label] is None:
            raise AffinoidError(f"cone {label} has no interior lattice direction")
        return self._interiors[label]


def _tij_cells(mode: PolytopeMode, f: LaurentPoly, label):
    """T_{i,j}(f) as (base, factors), the cell description of
    ``laurent._ti_cells``.

    A member t has lm(X^t f) = e* + t with e* = lm_label(f) (the module
    lemma), a point of V_{i,<}: its first attaining vertex is i, and its key
    num_i.(e* + t) - v(c*) den is linear in t.  The base says e* + t lies in
    the cone and beats every term e + t at every vertex k != i, strictly for
    k < i, where the smaller index would win the tie; only the best term at
    k counts, and e = e* puts e* + t in V_{i,<}.  At k = i the difference is
    a constant, positive off the initial form in_{r_i}(f) and zero on it,
    where the order key decides: the factors are those of the Laurent
    module of in_{r_i}(f) in the cone, whose base is the cone's."""
    i, _ = label
    num, den = mode.context._num, mode.context._den
    base, factors = _ti_cells(mode.initial(f, i), mode.refined.flat_index(label))
    lm, lc = mode.cone_leading(f, label)
    top = vdot(num[i - 1], lm) - lc.valuation() * den
    for k, nk in enumerate(num, 1):
        if k != i:
            best = max(vdot(nk, e) - c.valuation() * den for e, c in f.terms_unordered())
            base.append((vsub(num[i - 1], nk), top - best - (k < i)))
    return base, factors


def lm_polytope(mode: PolytopeMode, f):
    """(lm, lc, lt, in_P) of a nonzero series under the polytopal order."""
    body = _body_of(f)
    lt = mode.leading(body)
    k = -mode.term_key(lt.coef, lt.exp)[1]
    return lt.exp, lt.coef, lt, mode.initial(body, k)


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
        scaled_val, bound = mode.context.scaled_val, _cap_bound(mode, self.cap)
        kept = {e: c for e, c in body.terms_unordered() if scaled_val(c, e) < bound}
        # a body that loses no term is kept, with the memos keyed on it
        if len(kept) < len(body) or body.ring is not mode.ring:
            body = LaurentPoly(mode.ring, kept)
        self.body = body

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
        text = format_poly(self.body, key=self.mode.term_key)
        return f"{text} + O(val >= {self.cap})"

    def __repr__(self):
        return f"<{self}>"


def _cap_bound(mode, cap) -> int:
    """ceil(cap * den): an integer scaled valuation is below cap * den iff
    it is below this bound."""
    return math.ceil(cap * mode.context._den)


def reduce_P(f: CappedSeries, gens):
    """Cone-aware division of capped series; the identity f = sum(q g) + r
    holds modulo terms of valuation at least the cap (verified).

    Quotients carry a raised cap: dropping a quotient term at the shared
    cap and multiplying by a divisor term of negative valuation could fall
    back below it, so quotient terms are kept up to cap minus the most
    negative divisor valuation.
    """
    gens = list(gens)
    for g in gens:
        f._check(g)
        if g.is_zero():
            raise AffinoidError("divisors must be nonzero at the working precision")
    mode, ctx = f.mode, f.mode.context
    cap = min([f.cap] + [g.cap for g in gens])
    bodies = [g.body for g in gens]
    qdicts, remainder = _divide(f.body, bodies, PolynomialMode(mode, _cap_bound(mode, cap)))
    low = min((ctx.scaled_val(c, e) for g in bodies for e, c in g.terms_unordered()), default=0)
    qcap = cap - min(Fraction(0), Fraction(low, ctx._den))
    quotients = [CappedSeries(mode, LaurentPoly(mode.ring, q), qcap) for q in qdicts]
    return quotients, CappedSeries(mode, remainder, cap)


def _series_generators(gens):
    """The distinct series of ``gens``, their input positions and a
    Buchberger adapter; the series must share one precision cap."""
    basis, positions = _distinct(
        gens, AffinoidError, "generators must be nonzero at the working precision"
    )
    cap = basis[0].cap
    if any(g.cap != cap for g in basis):
        raise AffinoidError("generators must share one precision cap")
    mode = basis[0].mode
    return basis, positions, PolynomialMode(mode, _cap_bound(mode, cap))


def _certifier(mode, cap):
    """The capped check of ``groebner._expand_provenance``.  The
    combination c_i of an added element h is exact, and Laurent
    polynomials lie in the affinoid algebra, so sum(c_i * f_i) is an ideal
    element up to the inputs' own precision: h is one to precision
    pi(h) = min(val(h - sum(c_i * body(f_i))), cap + min val c_i), since
    val(c * e) >= val(c) + val(e).  Raises PrecisionError
    when val(lt h) >= pi(h): then h's leading term is noise.

    Works in valuations times the common denominator: val(lt h) >= cap +
    min val c_i iff the integer difference reaches ceil(cap * den)."""
    scaled, den, bound = mode.context.scaled_val, mode.context._den, _cap_bound(mode, cap)

    def least(body):
        return min((scaled(c, e) for e, c in body.terms_unordered()), default=math.inf)

    def certify(k, h, combo, rebuilt):
        lead, residual, low = least(h), least(h - rebuilt), min(map(least, combo))
        if lead >= residual or lead - low >= bound:
            precision = min(
                Fraction(x, den) + shift
                for x, shift in ((residual, 0), (low, cap)) if x != math.inf
            )
            raise PrecisionError(
                f"basis element {k + 1} has a leading term of valuation {Fraction(lead, den)}, "
                f"but it is certified only to precision {precision}"
            )

    return certify


def buchberger_P(gens, cfg: GBConfig | None = None) -> GBResult:
    """Buchberger's algorithm at a fixed working precision: criterion
    closure means every S-pair remainder consists of terms at or above
    the cap.  Each added element is certified (``_certifier``), and
    ``combinations`` holds each basis element's exact combination of the
    input bodies."""
    cfg = cfg or GBConfig()
    basis, _, adapter = _series_generators(gens)
    cap = basis[0].cap
    bodies = [h.body for h in basis]
    inputs = list(bodies)
    stats, records = _buchberger(bodies, adapter, cfg)
    combos = _expand_provenance(inputs, bodies, records, adapter, _certifier(adapter.mode, cap))
    basis = [CappedSeries(adapter.mode, h, cap) for h in bodies]
    if cfg.normalize:
        basis, combos = _normalized(basis, combos, lambda h: h.leading_term().coef)
    return GBResult(basis, stats, combos)


def is_groebner_series(H):
    """Criterion check at the working precision; returns (flag, certificate)
    with the certificate's indices into H."""
    basis, positions, adapter = _series_generators(H)
    return _criterion([h.body for h in basis], positions, adapter)
