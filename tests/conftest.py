"""Shared fixtures and random-instance helpers for the test suite."""

import collections
import itertools
import random
import re
from fractions import Fraction

import pytest

from lgb import groebner, lattice, laurent, reduction
from lgb.affinoid import AffinoidError, PolytopeContext, PolytopeMode, build_refined_decomposition
from lgb.cli import ParseError, parse_problem
from lgb.coeffs import FieldSpec
from lgb.gmo import GeneralizedOrder, ScoreFunction, make_order
from lgb.lattice import (
    IncompleteSearchError,
    LatticeError,
    box_points,
    build_decomposition,
    minimal_elements,
    vadd,
    vdot,
    vneg,
    vsub,
)
from lgb.laurent import LaurentPoly, LaurentRing, UndefinedLeadingError, cone_module


def ring_for(field, n, score="degmin", decomposition=None, names=None):
    return LaurentRing(field, n, make_order(n, score, decomposition), names)


def polytope_mode(vertices, base="standard", field=None, score="degmin"):
    """(ring, mode) of K[x^±1, y^±1], K = Q_2 unless given, ordered by the
    score (degmin unless given) on the refinement of the base cones by a
    polytope; the one-vertex polytope (r) is the weight order of r."""
    ctx = PolytopeContext(vertices)
    refined = build_refined_decomposition(ctx, build_decomposition(base, 2))
    order = GeneralizedOrder(refined.decomposition, ScoreFunction(score, 2))
    ring = LaurentRing(field or FieldSpec.padic(2), 2, order, ("x", "y"))
    return ring, PolytopeMode(ring, ctx, refined)


def directive_mode(directive):
    """(ring, mode) of a capped directive such as ``weight 1 2``, parsed
    over Q_2[x^±1, y^±1] under degmin."""
    problem = parse_problem(f"ring Qp 2\nvars x y\n{directive}\norder degmin\ngens:\nx\n")
    return problem.ring, problem.mode


def certified_ti(f, i, search_radius):
    """T_i(f) by the certified search run directly on the cells of
    ``laurent._ti_cells``, which ``cone_module`` skips on the standard
    cones."""
    cone = f.ring.order.decomposition[i]
    member = lambda t: f.ti_contains(t, i)
    return lattice._certified_generators(
        laurent._ti_cells(f, i), cone, f.cone_witness(i), search_radius, member
    )


def ti_generator(f, i):
    """The generator of the principal Laurent module T_i(f)."""
    (gen,) = cone_module(laurent.LaurentMode(f.ring), f, i).generators
    return gen


def ti_set_general(f, i, search_radius):
    """The generators of the Laurent module T_i(f), searched within
    ``search_radius``."""
    return list(cone_module(laurent.LaurentMode(f.ring), f, i, search_radius).generators)


def tij_generators(mode, f, label, search_radius=6):
    """The generators of T_{i,j}(f), searched within ``search_radius``."""
    return list(cone_module(mode, f, label, search_radius).generators)


def collisions(mode, f, g, label):
    """U_label(f, g) of two bodies under a mode: the generators of
    M_label(f) intersected with M_label(g)."""
    return cone_module(mode, f, label).intersection(cone_module(mode, g, label))


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


def reference_some_choice_feasible(cons, levels, n):
    """Whether cons plus one option of every level is feasible over Q for
    some choice of options: every choice's whole system eliminated over
    Fractions (``reference_fm_feasible``), with no pruning; the check for
    ``lattice._some_choice_feasible``."""
    return any(
        reference_fm_feasible([(a, b, False) for a, b in cons + [c for o in choice for c in o]], n)
        for choice in itertools.product(*levels)
    )


def reference_pruned_choice_feasible(cons, levels, n):
    """``reference_some_choice_feasible`` depth first, each prefix system
    eliminated afresh by ``reference_fm_feasible`` and pruned when empty:
    added constraints never make an empty system nonempty.  It keeps the
    reference independent of ``lattice`` where trying every choice would
    take minutes (the n=3 modules)."""
    if not reference_fm_feasible([(a, b, False) for a, b in cons], n):
        return False
    return not levels or any(
        reference_pruned_choice_feasible(cons + option, levels[1:], n) for option in levels[0]
    )


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


def reference_ti_set_general(self, i, search_radius: int):
    """``ti_set_general`` as one search from the whole radius
    box: the check for the search that widens its box from the origin.
    It keeps no memo, and it reaches ``_ti_cells`` through ``lgb.laurent``
    and ``_satisfies`` through ``lgb.lattice``, so a test that counts calls
    there counts this search too."""
    if self.is_zero():
        raise UndefinedLeadingError("the zero polynomial has no cone module")
    base, factors = laurent._ti_cells(self, i)
    cone = self.ring.order.decomposition[i]
    starts = itertools.chain(
        box_points(self.ring.n, search_radius), [self.cone_witness(i)]
    )
    minimal = minimal_elements(
        lambda p: lattice._satisfies(base, factors, p), cone.generators, starts
    )
    for g in minimal:
        if not self.ti_contains(g, i):
            raise LatticeError(f"polyhedral description disagrees at {g}")
    # outside g + T_i: h.(p - g) <= -1 for one half-space h
    levels = factors + [
        [[(vneg(h), vdot(h, g) - 1)] for h in cone.halfspaces] for g in minimal
    ]
    if reference_pruned_choice_feasible(base, levels, self.ring.n):
        raise IncompleteSearchError(
            f"generating set not certified complete within radius {search_radius}"
            if minimal
            else f"no generators found within radius {search_radius}"
        )
    return list(minimal)


def reference_tij_generators(self, f, label, search_radius=6):
    """``tij_generators`` on several vertices as one search from
    the whole radius box, with no memo and no completeness certificate: the
    check for the certified search that widens its box from the witness.
    Its membership test is ``PolytopeMode.member``."""
    if f.is_zero():
        raise AffinoidError("the zero series has no cone module")
    cone = self.refined.cone(label)
    member = lambda t: self.member(f, t, label)

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

    starts = itertools.chain([witness], box_points(self.ring.n, search_radius))
    minimal = minimal_elements(member, cone.generators, starts)
    for g in minimal:
        if not member(g):
            raise AffinoidError(f"search produced a non-member {g}")
    return list(minimal)


# -- the expression parser before term dicts -----------------------------------
# verbatim but for the name of parse_poly: every step builds a LaurentPoly;
# tests/test_cli.py checks that lgb.cli.parse_poly agrees with it on terms,
# term order, and the type, text, line and column of every error

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()^*+\-/]))")


def _tokenize(text, line=None):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stray = text[pos:].lstrip()
            if not stray:
                break
            raise ParseError(f"unexpected character {stray[0]!r}", line, pos + 1)
        num, name, op = m.groups()
        col = m.start(m.lastindex) + 1
        if num is not None:
            tokens.append(("num", int(num), col))
        elif name is not None:
            tokens.append(("name", name, col))
        else:
            tokens.append(("op", op, col))
        pos = m.end()
    tokens.append(("end", None, len(text) + 1))
    return tokens


class _ExprParser:
    def __init__(self, ring: LaurentRing, text: str, line=None):
        self.ring = ring
        self.text = text
        self.line = line
        self.tokens = _tokenize(text, line)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, self.line, tok[2])

    def parse(self) -> LaurentPoly:
        value = self.expr()
        kind, val, _ = self.peek()
        if kind != "end":
            self.error(f"trailing input {val!r}")
        return value

    def expr(self) -> LaurentPoly:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        value = self.term()
        if sign < 0:
            value = -value
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = value - rhs if val == "-" else value + rhs
            else:
                return value

    def term(self) -> LaurentPoly:
        value = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> LaurentPoly:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            exp = self.signed_int()
            return self.power(base, exp)
        return base

    def signed_int(self) -> int:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            sign = -1
        kind, val, _ = self.peek()
        if kind != "num":
            self.error("expected an integer exponent")
        self.take()
        return sign * val

    def power(self, base: LaurentPoly, exp: int) -> LaurentPoly:
        if abs(exp) > (10 ** 6 if len(base) <= 1 else 256):
            self.error("exponent out of range")
        if len(base) == 1:
            ((e, c),) = base.items()
            scaled = tuple(exp * x for x in e)
            coef = self.ring.field.one()
            step = c if exp >= 0 else c.inv()
            remaining = abs(exp)
            while remaining:
                if remaining & 1:
                    coef = coef * step
                step = step * step
                remaining >>= 1
            return self.ring.monomial(scaled, coef)
        if exp < 0:
            self.error("negative powers apply only to single terms")
        out = self.ring.one()
        square = base
        remaining = exp
        while remaining:
            if remaining & 1:
                out = out * square
            remaining >>= 1
            if remaining:
                square = square * square
        return out

    def atom(self) -> LaurentPoly:
        kind, val, _ = self.peek()
        if kind == "num":
            self.take()
            numerator = val
            kind, nxt, _ = self.peek()
            if kind == "op" and nxt == "/":
                self.take()
                kind, den, _ = self.peek()
                if kind != "num":
                    self.error("expected a denominator")
                self.take()
                if den == 0:
                    self.error("zero denominator")
                return self.ring.one() * self.ring.field.from_fraction(
                    Fraction(numerator, den)
                )
            return self.ring.one() * self.ring.field.from_int(numerator)
        if kind == "name":
            self.take()
            if val in self.ring.names:
                return self.ring.variable(self.ring.names.index(val))
            if val == "a" and self.ring.field.is_finite and self.ring.field.k > 1:
                return self.ring.one() * self.ring.field.generator()
            self.error(f"unknown name {val!r}")
        if kind == "op" and val == "(":
            self.take()
            inner = self.expr()
            kind, val, _ = self.peek()
            if kind != "op" or val != ")":
                self.error("expected ')'")
            self.take()
            return inner
        self.error("expected a number, a name, or '('")


def reference_parse_poly(ring: LaurentRing, text: str, line=None) -> LaurentPoly:
    return _ExprParser(ring, text, line).parse()


# -- the exhaustive criterion check --------------------------------------------
# verbatim but for names: every S-pair at every collision generator of every
# cone is divided; tests/test_groebner.py checks that lgb.groebner.is_groebner,
# which skips S-pairs by the chain criterion, agrees with it on verdict and
# certificate

def _reference_spairs(adapter, f, g, stats):
    for label in adapter.labels:
        for v in collisions(adapter.mode, f, g, label):
            s = groebner._spair(adapter, label, f, g, v)
            if s.is_zero():
                stats.zero_reductions += 1
                continue
            yield label, v, s


def _reference_criterion(basis, positions, adapter):
    for a, b in itertools.combinations(range(len(basis)), 2):
        for label, v, s in _reference_spairs(adapter, basis[a], basis[b], groebner.GBStats()):
            _, r = reduction._divide(s, basis, adapter)
            if not r.is_zero():
                return False, (label, positions[a], positions[b], v)
    return True, None


def reference_is_groebner(H):
    basis, positions, adapter = groebner._generators(H)
    return _reference_criterion(basis, positions, adapter)


# -- the exhaustive Buchberger loop --------------------------------------------
# verbatim but for names: every S-pair at every collision generator of every
# cone of every queued pair is formed and divided; tests/test_groebner.py
# checks that lgb.groebner.buchberger, which skips S-pairs by the chain
# criterion, returns Groebner bases of the same ideals

def _reference_buchberger(basis, adapter, cfg):
    stats = groebner.GBStats()
    records = []
    queue = collections.deque(itertools.combinations(range(len(basis)), 2))
    while queue:
        a, b = queue.popleft()
        stats.pairs_processed += 1
        for label, v, s in _reference_spairs(adapter, basis[a], basis[b], stats):
            quotients, r = reduction._divide(s, basis, adapter)
            if r.is_zero():
                stats.zero_reductions += 1
                continue
            records.append((a, b, label, v, quotients))
            queue.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
            if len(basis) > cfg.max_basis:
                raise groebner.ResourceLimitError(
                    f"basis exceeded the guard of {cfg.max_basis} elements"
                )
    return stats, records


def reference_buchberger(gens):
    """(basis, stats) of the exhaustive loop on the distinct generators."""
    basis, _, adapter = groebner._generators(gens)
    stats, _ = _reference_buchberger(basis, adapter, groebner.GBConfig())
    return basis, stats


# -- the S-pairs as compositions of polynomial operations ----------------------
# verbatim but for names: lgb.groebner.spair and the capped S-pair when they
# composed term_mul and subtraction, each step a new polynomial or series
# cut at its cap; tests/test_groebner.py and tests/test_affinoid.py check
# that the one-pass builder agrees with them

def reference_spair(i, f: LaurentPoly, g: LaurentPoly, v) -> LaurentPoly:
    """S(i, f, g, v) at a collision monomial v of the cone-i leading data."""
    f._check(g)
    lmf, lcf, _ = f.cone_leading_data(i)
    lmg, lcg, _ = g.cone_leading_data(i)
    if not f.ti_contains(vsub(v, lmf), i) or not g.ti_contains(vsub(v, lmg), i):
        raise laurent.RingError(f"{v} is not a collision monomial for cone {i}")
    return f.term_mul(vsub(v, lmf), lcg) - g.term_mul(vsub(v, lmg), lcf)


def reference_spair_series(mode, label, f, g, v):
    """S-pair of two series at a collision monomial of a cone label."""
    f._check(g)
    lmf, lcf = mode.cone_leading(f.body, label)
    lmg, lcg = mode.cone_leading(g.body, label)
    if not mode.member(f.body, vsub(v, lmf), label) or not mode.member(g.body, vsub(v, lmg), label):
        raise AffinoidError(f"{v} is not a collision monomial for cone {label}")
    return f.term_mul(vsub(v, lmf), lcg) - g.term_mul(vsub(v, lmg), lcf)


# -- the pairwise term comparators ---------------------------------------------
# as they were in lgb.gmo (GeneralizedOrder.compare with group_compare) and
# lgb.affinoid (compare_weight, compare_polytope, term_val_indices) before the
# keys became the one order implementation, with the valuations computed in
# Fractions from the weight and the vertices; tests/test_gmo.py and
# tests/test_affinoid.py hold GeneralizedOrder.key and the modes' term_key
# to them

def reference_compare(order, u, v) -> int:
    """-1, 0, or 1; zero only on identical exponent vectors."""
    if u == v:
        return 0
    pu, pv = order.phi(u), order.phi(v)
    if pu != pv:
        return -1 if pu < pv else 1
    for i in order.perm:
        if u[i] != v[i]:
            return -1 if u[i] < v[i] else 1
    return 0


def reference_compare_weight(r, order, s, t) -> int:
    """Valuation-first term comparison under the weight r; equal only on
    unit multiples."""
    vs = s.coef.valuation() - vdot(r, s.exp)
    vt = t.coef.valuation() - vdot(r, t.exp)
    if vs != vt:
        return -1 if vs > vt else 1
    return reference_compare(order, s.exp, t.exp)


def reference_term_val_indices(ctx, coef, exp):
    """(val_P, sorted attaining 1-based indices) of a term."""
    vals = [coef.valuation() - vdot(r, exp) for r in ctx.vertices]
    best = min(vals)
    return best, tuple(k for k, v in enumerate(vals, 1) if v == best)


def reference_compare_polytope(ctx, order, s, t) -> int:
    """Three-stage comparison: valuation (smaller is greater), smallest
    attaining index (smaller is greater), then the generalized order."""
    vs, inds = reference_term_val_indices(ctx, s.coef, s.exp)
    vt, indt = reference_term_val_indices(ctx, t.coef, t.exp)
    if vs != vt:
        return -1 if vs > vt else 1
    if min(inds) != min(indt):
        return -1 if min(inds) > min(indt) else 1
    return reference_compare(order, s.exp, t.exp)
