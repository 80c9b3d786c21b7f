"""Laurent polynomial arithmetic and per-cone leading data.

For a nonzero Laurent polynomial f and a cone index i the engine provides
the leading monomial inside cone i (computed through a witness translation
that pushes the support into the cone), the shifted-cone module
``{t : lm(tf) in T_i}`` either as a single generator (standard
decomposition, by descent) or as a finite generating set (general case),
and the collision-monomial modules used to form S-pairs.  Both kinds of
module are memoized on the polynomial.

The general case describes the module exactly in factored form
(``_ti_cells``): base inequalities, and per competing cone a factor whose
options are inequality lists; a point is a member when it satisfies the
base and one option of every factor.  The product of the factors, a union
of polyhedra, is never expanded: membership tests factor by factor, and
the completeness certificate walks the options depth first, pruning every
partial system that Fourier-Motzkin proves empty.  The generators come
from ``lattice.minimal_elements``, the search the polytope layer's T_{i,j}
modules share: from each line of box points along the first cone
generator, only the top point is tested and slides down the generators to
a minimal member, with the integer membership test memoized for one search.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from lgb.coeffs import Coefficient, FieldSpec
from lgb.gmo import GeneralizedOrder
from lgb.lattice import (
    IncompleteSearchError,
    LatticeError,
    box_points,
    fm_feasible,
    is_standard_decomposition,
    minimal_elements,
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

    def leading_monomial(self):
        return self.leading_data()[0]

    def shifted_leading_monomial(self, shift):
        """lm(X^shift * f) without building the product."""
        if self.is_zero():
            raise UndefinedLeadingError("the zero polynomial has no leading monomial")
        return self.ring.order.max_exponent(vadd(shift, e) for e in self._terms)

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

    def ti_contains(self, t, i) -> bool:
        """Whether lm(X^t * f) lies in cone i."""
        cone = self.ring.order.decomposition[i]
        return cone.contains(self.shifted_leading_monomial(t))

    def ti_generator(self, i):
        """Generator g with {t : lm(X^t f) in T_i} = g + T_i (standard
        decomposition), found by per-generator descent from a witness and
        memoized on the polynomial."""
        cached = self._cone_cache.get(("ti", i))
        if cached is not None:
            return cached
        if not self.ring.standard_cones:
            gens = self.ti_set_general(i, search_radius=8)
            if len(gens) != 1:
                raise LatticeError("the cone module is not monogenous; use ti_set_general")
            t = gens[0]
        else:
            if self.is_zero():
                raise UndefinedLeadingError("the zero polynomial has no cone module")
            cone = self.ring.order.decomposition[i]
            t = self.cone_witness(i)
            if not self.ti_contains(t, i):
                raise AssertionError(f"cone witness {t} lies outside T_{i}")
            for h in cone.generators:
                while self.ti_contains(t, i):
                    t = vsub(t, h)
                t = vadd(t, h)
        self._cone_cache[("ti", i)] = t
        return t

    def ti_set_general(self, i, search_radius: int):
        """Generating set of {t : lm(X^t f) in T_i} as a T_i-module: the
        minimal elements of the factored description of ``_ti_cells``
        reached from the radius box and the cone witness; raises
        IncompleteSearchError when the set cannot be certified complete
        within the radius.  Memoized per (cone, radius); failures are not.

        The certificate proves the described set minus the union of the
        shifted cones g + T_i empty over the rationals.  It walks one option
        per factor, then one half-space per generator g to lie outside of,
        depth first, and prunes every partial system Fourier-Motzkin proves
        empty: added constraints never make an empty system nonempty."""
        if self.is_zero():
            raise UndefinedLeadingError("the zero polynomial has no cone module")
        cached = self._cone_cache.get((i, search_radius))
        if cached is not None:
            return list(cached)
        base, factors = _ti_cells(self, i)
        cone = self.ring.order.decomposition[i]
        starts = itertools.chain(
            box_points(self.ring.n, search_radius), [self.cone_witness(i)]
        )
        minimal = minimal_elements(
            lambda p: _satisfies(base, factors, p), cone.generators, starts
        )
        for g in minimal:
            if not self.ti_contains(g, i):
                raise LatticeError(f"polyhedral description disagrees at {g}")
        # outside g + T_i: h.(p - g) <= -1 for one half-space h
        levels = factors + [
            [[(vneg(h), vdot(h, g) - 1)] for h in cone.halfspaces] for g in minimal
        ]
        if _some_choice_feasible(base, levels, self.ring.n):
            raise IncompleteSearchError(
                f"generating set not certified complete within radius {search_radius}"
                if minimal
                else f"no generators found within radius {search_radius}"
            )
        self._cone_cache[(i, search_radius)] = minimal
        return list(minimal)

    # -- display -----------------------------------------------------------
    def sorted_terms(self, compare=None):
        """Terms in descending order (active order by default)."""
        if compare is None:
            order = self.ring.order
            compare = lambda s, t: order.compare(s.exp, t.exp)
        import functools

        terms = [Term(c, e) for e, c in self.items()]
        terms.sort(key=functools.cmp_to_key(compare), reverse=True)
        return terms

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{self}>"


def _int_ineq(coeffs, const, strict):
    """Scale a rational inequality coeffs.t + const >= 0 (or > 0) to integers."""
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
    by the constant group-order comparison of the two leading monomials),
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
        tie_favours_i = order.group_compare(lms[i], lms[j]) > 0
        a, b = _int_ineq(
            tuple(x - y for x, y in zip(wi, wj)),
            vdot(wi, lms[i]) - vdot(wj, lms[j]),
            strict=not tie_favours_i,
        )
        options.append(inside + [(a, b)])
        factors.append(options)
    return base, factors


def _some_choice_feasible(cons, levels, n):
    """Whether cons plus one option of every level is feasible over Q for
    some choice of options, depth first; an infeasible prefix is pruned."""
    if not fm_feasible([(a, b, False) for a, b in cons], n):
        return False
    return not levels or any(
        _some_choice_feasible(cons + option, levels[1:], n) for option in levels[0]
    )


def _satisfies(base, factors, p):
    """Whether p satisfies the base and one option of every factor."""

    def holds(cons):
        return all(vdot(a, p) + b >= 0 for a, b in cons)

    return holds(base) and all(any(holds(o) for o in options) for options in factors)


def u_intersection(f: LaurentPoly, g: LaurentPoly, i, search_radius: int = 8):
    """Generators of the intersection of the shifted modules
    lm_i(f)*T_i(f) and lm_i(g)*T_i(g) (the collision monomials)."""
    f._check(g)
    ring = f.ring
    cone = ring.order.decomposition[i]
    lmf = f.cone_leading_data(i)[0]
    lmg = g.cone_leading_data(i)[0]
    if ring.standard_cones:
        a = vadd(f.ti_generator(i), lmf)
        b = vadd(g.ti_generator(i), lmg)
        return [cone.shifted_intersection(a, b)]
    fam_f = [vadd(a, lmf) for a in f.ti_set_general(i, search_radius)]
    fam_g = [vadd(b, lmg) for b in g.ti_set_general(i, search_radius)]
    return cone.module_intersection(fam_f, fam_g)


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


def format_poly(f: LaurentPoly, compare=None) -> str:
    """Render with terms descending under the active order; rationals as
    p/q, monomials as x^-3*y."""
    if f.is_zero():
        return "0"
    ring = f.ring
    finite = ring.field.is_finite
    chunks = []
    for k, term in enumerate(f.sorted_terms(compare)):
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
