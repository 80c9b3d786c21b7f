"""Laurent polynomial arithmetic, per-cone leading data, and the cone
module value every layer shares.

The cone-i leading monomial of a nonzero f is computed through a witness
translation that pushes the support into cone i.

A cone module is one immutable ``ConeModule`` built by one function,
``cone_module(adapter, f, label)``: T(f) = {t : lm(X^t f) in cone} under
the order of an engine call adapter's mode, T_i(f) for Laurent
polynomials (Pauer and Unterkircher, AAECC 1999), and T_{i,j}(f) over a
polytope, where lm(X^t f) must also lie in V_{i,<}.  Membership is one
test, the adapter's ``member``: the mode's ``in_region`` of lm(X^t f),
from the call's memo.  In every layer t in T implies
lm(X^t f) = t + lm_label(f), so M = lm_label(f) + T holds the collision
monomials: the value tests ``v in M`` against its shifted generators and
intersects with another module to U (``Cone.module_intersection``).  A
Laurent module is memoized on its polynomial, a polytope one on its mode,
the one-vertex (weight) modules included.  On the standard cones a module
is principal, g + C, found by one descent from the cone witness; any
other is certified complete over the mode's cells by
``lattice._certified_generators`` at the mode's search ceiling, or raises.

The Laurent cells (``_ti_cells``) describe T_i(f) exactly in factored
form: base inequalities, and per competing cone a factor whose options are
inequality lists; a point is a member when it satisfies the base and one
option of every factor.  The product is never expanded: membership tests
factor by factor, and the certificate walks the options depth first,
pruning every partial system that Fourier-Motzkin proves empty.

Terms are ranked only by ``GeneralizedOrder.key``: leading data take keyed
maxima, and ``format_poly`` and ``sorted_terms`` sort by a key function,
the order's key or a capped series' ``term_key``, never by a pairwise
comparator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from lgb.coeffs import Coefficient, FieldSpec
from lgb.gmo import GeneralizedOrder
from lgb.lattice import (
    Cone,
    _certified_generators,
    is_standard_decomposition,
    vadd,
    vdot,
    vneg,
    vsub,
)


class RingError(ValueError):
    """Mismatched ring contexts or invalid ring usage."""


class UndefinedLeadingError(ValueError):
    """The zero polynomial has no leading data."""


class Term(NamedTuple):
    coef: Coefficient
    exp: tuple


_DEFAULT_NAMES = ("x", "y", "z", "w")


class LaurentRing:
    """Ring context: coefficient field, number of variables, active order."""

    __slots__ = ("field", "n", "order", "names", "standard_cones")

    def __init__(self, field: FieldSpec, n: int, order: GeneralizedOrder, names=None):
        if order.n != n:
            raise RingError("order dimension does not match the ring")
        self.field = field
        self.n = n
        self.order = order
        if names is None:
            names = _DEFAULT_NAMES[:n] if n <= 4 else tuple(f"x{i+1}" for i in range(n))
        if len(names) != n:
            raise RingError("need one name per variable")
        self.names = tuple(names)
        self.standard_cones = is_standard_decomposition(order.decomposition)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentRing)
            and self.field == other.field
            and self.n == other.n
            and self.order == other.order
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.field, self.n, self.order, self.names))

    def __repr__(self):
        return f"LaurentRing({self.field!r}, vars={','.join(self.names)}, {self.order!r})"

    # ------------------------------------------------------------------
    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def one(self) -> "LaurentPoly":
        return self.monomial(tuple(0 for _ in range(self.n)))

    def monomial(self, exp, coef=None) -> "LaurentPoly":
        if coef is None:
            coef = self.field.one()
        return LaurentPoly(self, {tuple(exp): coef})

    def poly(self, terms) -> "LaurentPoly":
        """Polynomial from an {exponent: Coefficient | int} mapping."""
        out = {}
        for exp, c in dict(terms).items():
            if isinstance(c, int):
                c = self.field.from_int(c)
            elif isinstance(c, Fraction):
                c = self.field.from_fraction(c)
            out[tuple(exp)] = c
        return LaurentPoly(self, out)

    def variable(self, i: int) -> "LaurentPoly":
        return self.monomial(tuple(1 if j == i else 0 for j in range(self.n)))


class LaurentPoly:
    """Immutable finitely supported map from exponent vectors to nonzero
    coefficients; term storage is ordered lexicographically by exponent,
    independent of the active order."""

    __slots__ = ("ring", "_terms", "_items", "_hash", "_cone_cache")

    def __init__(self, ring: LaurentRing, terms: dict):
        self.ring = ring
        field = ring.field
        clean = {}
        for exp, c in terms.items():
            if not isinstance(c, Coefficient):
                raise RingError("coefficients must be Coefficient instances")
            if c.spec is not field and c.spec != field:
                raise RingError(f"coefficient field {c.spec} does not match ring {ring.field}")
            if len(exp) != ring.n:
                raise RingError(f"exponent {exp} has wrong dimension")
            if not c.is_zero():
                clean[tuple(exp)] = c
        self._terms = clean
        self._items = None
        self._hash = None
        self._cone_cache = {}

    # -- basics ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def items(self):
        """Term items sorted lexicographically by exponent."""
        if self._items is None:
            self._items = tuple(sorted(self._terms.items()))
        return self._items

    def support(self):
        return tuple(e for e, _ in self.items())

    def terms_unordered(self):
        return self._terms.items()

    def coefficient(self, exp) -> Coefficient:
        c = self._terms.get(tuple(exp))
        return c if c is not None else self.ring.field.zero()

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.items())
        return self._hash

    def _check(self, other):
        if not isinstance(other, LaurentPoly):
            raise RingError(f"expected a LaurentPoly, got {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingError("mixed ring contexts")

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        merged = dict(self._terms)
        for exp, c in other._terms.items():
            if exp in merged:
                merged[exp] = merged[exp] + c
            else:
                merged[exp] = c
        return LaurentPoly(self.ring, merged)

    def __neg__(self):
        return LaurentPoly(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Coefficient):
            return LaurentPoly(self.ring, {e: c * other for e, c in self._terms.items()})
        if isinstance(other, int):
            k = self.ring.field.from_int(other)
            return self * k
        self._check(other)
        out = {}
        zero = self.ring.field.zero()
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = vadd(e1, e2)
                out[e] = out.get(e, zero) + c1 * c2
        return LaurentPoly(self.ring, out)

    __rmul__ = __mul__

    def term_mul(self, exp, coef=None) -> "LaurentPoly":
        """Multiply by the term coef * X^exp."""
        exp = tuple(exp)
        if coef is None:
            return LaurentPoly(self.ring, {vadd(e, exp): c for e, c in self._terms.items()})
        return LaurentPoly(
            self.ring, {vadd(e, exp): c * coef for e, c in self._terms.items()}
        )

    # -- leading data ------------------------------------------------------
    def leading_data(self):
        """(lm, lc, lt) under the active order."""
        if self.is_zero():
            raise UndefinedLeadingError("the zero polynomial has no leading monomial")
        lm = self.ring.order.max_exponent(self._terms)
        lc = self._terms[lm]
        return lm, lc, Term(lc, lm)

    def cone_witness(self, i):
        """A translation t with supp(X^t * f) inside cone i."""
        cone = self.ring.order.decomposition[i]
        t = tuple(0 for _ in range(self.ring.n))
        for s in self.support():
            _, vpart = cone.factorize(s)
            t = vadd(t, vpart)
        return t

    def cone_leading_data(self, i):
        """(lm_i, lc_i, lt_i): leading data relative to cone i, computed via
        a witness translation and independent of the witness choice."""
        if self.is_zero():
            raise UndefinedLeadingError("the zero polynomial has no leading monomial")
        cached = self._cone_cache.get(i)
        if cached is None:
            t = self.cone_witness(i)
            lm_shift = self.ring.order.max_exponent(vadd(t, e) for e in self._terms)
            lm = vsub(lm_shift, t)
            lc = self._terms[lm]
            cached = (lm, lc, Term(lc, lm))
            self._cone_cache[i] = cached
        return cached

    # -- display -----------------------------------------------------------
    def sorted_terms(self, key=None):
        """Terms in descending order of ``key(coef, exp)``, by default the
        active order's ``key(exp)``."""
        if key is None:
            order_key = self.ring.order.key
            key = lambda c, e: order_key(e)
        items = sorted(self.items(), key=lambda t: key(t[1], t[0]), reverse=True)
        return [Term(c, e) for e, c in items]

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{self}>"


def _int_ineq(coeffs, const, strict):
    """Scale a rational inequality coeffs.t + const >= 0 (or > 0) to integers;
    on integer lattice points, > 0 is >= 1."""
    if type(const) is int and all(type(x) is int for x in coeffs):
        return tuple(coeffs), const - strict
    lcm = 1
    entries = [Fraction(x) for x in coeffs] + [Fraction(const)]
    for x in entries:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    a = tuple(int(x * lcm) for x in entries[:-1])
    b = int(entries[-1] * lcm)
    if strict:
        b -= 1
    return a, b


def _ti_cells(f: LaurentPoly, i):
    """The cone-i module of f as (base, factors) of integer inequalities
    (a, b), meaning a.t + b >= 0: t is a member iff it satisfies the base
    and, for every factor, all of at least one of its options.

    The base says lm_i(f) + t lies in cone i.  There is one factor per cone
    j whose cone leading monomial differs: (complement of A_j) union (the
    region where the score favours the cone-i leading monomial, ties broken
    by the constant comparison of the tie-break parts ``order.key(e)[1]`` of
    the two leading monomials),
    with A_j = {t : lm_j(f) + t in cone j}.
    """
    ring = f.ring
    order = ring.order
    d = order.decomposition
    lms = [f.cone_leading_data(j)[0] for j in range(len(d.cones))]
    cone_i = d[i]
    base = [(h, vdot(h, lms[i])) for h in cone_i.halfspaces]
    factors = []
    for j in range(len(d.cones)):
        if j == i or lms[j] == lms[i]:
            continue
        cone_j = d[j]
        options = []
        for h in cone_j.halfspaces:
            options.append([(vneg(h), -vdot(h, lms[j]) - 1)])
        wi, wj = order.linear_form(i), order.linear_form(j)
        inside = [(h, vdot(h, lms[j])) for h in cone_j.halfspaces]
        tie_favours_i = order.key(lms[i])[1] > order.key(lms[j])[1]
        a, b = _int_ineq(
            tuple(x - y for x, y in zip(wi, wj)),
            vdot(wi, lms[i]) - vdot(wj, lms[j]),
            strict=not tie_favours_i,
        )
        options.append(inside + [(a, b)])
        factors.append(options)
    return base, factors


class LaurentMode:
    """The Laurent layer's mode: terms keyed by the ring order, cone leading
    data and modules of the polynomials themselves (module docstring)."""

    __slots__ = ("ring", "labels")
    search_radius = 8

    def __init__(self, ring: LaurentRing):
        self.ring = ring
        self.labels = tuple(range(len(ring.order.decomposition.cones)))

    def exp_key(self, exp):
        """The exponent half of ``term_key``: the order key."""
        return self.ring.order.key(exp)

    def with_coef(self, coef, half):
        """``term_key`` from its exponent half: terms rank by exponent alone."""
        return half

    def term_key(self, coef, exp):
        return self.ring.order.key(exp)

    def leading(self, g: LaurentPoly) -> Term:
        return g.leading_data()[2]

    def cone_leading(self, g: LaurentPoly, label):
        lm, lc, _ = g.cone_leading_data(label)
        return lm, lc

    def in_region(self, label, exp) -> bool:
        """Whether lm(X^t g) = exp puts t in T_label(g): exp lies in the cone."""
        return self.ring.order.decomposition[label].contains(exp)

    def memo(self, g: LaurentPoly, label):
        return g._cone_cache, ("module", label)

    def module_search(self, g: LaurentPoly, label, search_radius, member):
        """(cone, cells, witness) of T_label(g), no cells where principal;
        the cone witness is a member, so ``member`` is not asked."""
        cells = None if self.ring.standard_cones else _ti_cells(g, label)
        return self.ring.order.decomposition[label], cells, g.cone_witness(label)


@dataclass(frozen=True, slots=True)
class ConeModule:
    """T = {t : lm(X^t f) in cone} of one polynomial at one cone label, with
    lm = lm_label(f) and the generators of T; ``shifted`` generates the
    shifted module M = lm + T (module docstring)."""

    cone: Cone
    lm: tuple
    generators: tuple
    shifted: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "shifted", tuple(vadd(self.lm, g) for g in self.generators))

    def __contains__(self, v) -> bool:
        """Whether v lies in M."""
        return any(self.cone.contains(vsub(v, s)) for s in self.shifted)

    def intersection(self, other: "ConeModule"):
        """The generators U of M intersected with the other module's M."""
        return self.cone.module_intersection(self.shifted, other.shifted)


def cone_module(adapter, f: LaurentPoly, label, search_radius=None) -> ConeModule:
    """The cone module of f at a cone label of an engine call adapter's mode,
    memoized where the mode says (module docstring).  A principal module is
    one descent from the witness; any other is certified over the cells by
    ``lattice._certified_generators`` within ``search_radius``, by default
    the mode's ceiling, and raises IncompleteSearchError when it cannot be."""
    mode = adapter.mode
    memo, key = mode.memo(f, label)
    module = memo.get(key)
    if module is not None:
        return module
    if search_radius is None:
        search_radius = mode.search_radius
    member = lambda t: adapter.member(f, t, label)
    cone, cells, t = mode.module_search(f, label, search_radius, member)
    if cells is None:
        if not member(t):
            raise AssertionError(f"cone witness {t} lies outside T_{label}")
        for h in cone.generators:
            while member(vsub(t, h)):
                t = vsub(t, h)
        generators = (t,)
    else:
        generators = _certified_generators(cells, cone, t, search_radius, member)
    module = memo[key] = ConeModule(cone, mode.cone_leading(f, label)[0], tuple(generators))
    return module


# -- formatting ----------------------------------------------------------------

def format_exponent(exp, names) -> str:
    parts = []
    for e, name in zip(exp, names):
        if e == 1:
            parts.append(name)
        elif e != 0:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_coefficient(c: Coefficient):
    """(text, needs_parens) canonical rendering of a coefficient."""
    spec = c.spec
    if not spec.is_finite:
        return str(c.payload), False
    if spec.k == 1:
        return str(c.payload[0]), False
    pieces = []
    for j in range(spec.k - 1, -1, -1):
        a = c.payload[j]
        if a == 0:
            continue
        if j == 0:
            pieces.append(str(a))
        elif j == 1:
            pieces.append("a" if a == 1 else f"{a}*a")
        else:
            pieces.append(f"a^{j}" if a == 1 else f"{a}*a^{j}")
    if not pieces:
        return "0", False
    return "+".join(pieces), len(pieces) > 1


def format_poly(f: LaurentPoly, key=None) -> str:
    """Render with terms descending by ``key(coef, exp)``, by default the
    active order's key (a capped series passes its mode's ``term_key``);
    rationals as p/q, monomials as x^-3*y."""
    if f.is_zero():
        return "0"
    ring = f.ring
    finite = ring.field.is_finite
    chunks = []
    for k, term in enumerate(f.sorted_terms(key)):
        mono = format_exponent(term.exp, ring.names)
        coef = term.coef
        if finite:
            text, parens = format_coefficient(coef)
            if not mono:
                body = f"({text})" if parens else text
            elif text == "1":
                body = mono
            else:
                body = f"({text})*{mono}" if parens else f"{text}*{mono}"
            chunks.append((" + " if k else "") + body)
        else:
            value = coef.payload
            negative = value < 0
            mag = -value if negative else value
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if k == 0:
                chunks.append(("-" if negative else "") + body)
            else:
                chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)
