"""Exponent vectors in Z^n, rational polyhedral cones, and conic
decompositions of the exponent lattice.

Cones carry two descriptions: a monoid generating set (the unimodular
basis for the built-in cones, a Hilbert basis otherwise) and a list of
integer half-space normals ``h`` with meaning ``{x : h.x >= 0}``.
Half-spaces are primary for membership, generators for factorization.
A cone always denotes the full set of lattice points satisfying its
half-spaces, so the generated monoid is saturated.

Feasibility over Q is decided by one Fourier-Motzkin implementation, the
incremental integer eliminator ``_Eliminator``.  It keeps a list of
positive and a list of negative constraints per variable, and a trail of
the lists it appended to, so a depth-first search adds only the
constraints of the option it tries and undoes them when it backtracks.
``fm_feasible`` feeds it one whole system, scaled to integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub


class LatticeError(ValueError):
    """Invalid lattice or cone usage."""


class UnsupportedConeError(LatticeError):
    """Operation requires a simplicial unimodular cone."""


class IncompleteSearchError(LatticeError):
    """A bounded search could not be certified complete; enlarge the radius."""


Vec = tuple


# -- exponent-vector arithmetic ----------------------------------------------

def vadd(a, b):
    return tuple(map(add, a, b))


def vsub(a, b):
    return tuple(map(sub, a, b))


def vneg(a):
    return tuple(-x for x in a)


def vdot(a, b):
    return sum(map(mul, a, b))


def vscale(k, a):
    return tuple(k * x for x in a)


def primitive(v):
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def scale_to_int(v):
    """Clear denominators of a rational vector, then make it primitive."""
    lcm = 1
    for x in v:
        x = Fraction(x)
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    return primitive(tuple(int(Fraction(x) * lcm) for x in v))


def box_points(n, radius):
    """All lattice points of the box [-radius, radius]^n, lexicographic."""
    yield from itertools.product(range(-radius, radius + 1), repeat=n)


def minimal_elements(member, generators, starts):
    """Sorted minimal elements of a module over the monoid of `generators`,
    reached from the start points that are members.

    Each member start slides down the generators while it stays a member,
    so it ends where no ``p - h`` is a member: a minimal element below it.
    Slides from nearby starts overlap, so ``member`` is memoized for the
    length of the call; it must be a pure predicate on points.

    The module must be closed under its first generator, ``M + h1 <= M``
    for ``h1 = generators[0]``, as every T_i and T_{i,j} module is.  Then
    a start ``p`` whose ``p + h1`` is a start too is skipped untested: the
    first slide runs along ``h1``, so when ``p`` is a member, ``p + h1`` is
    one and slides through ``p`` to the same end.  Only the top start of
    each ``h1``-line is descended from; the elements found are those of
    descending from every start, and the points tested are a subset.
    """
    memo = {}

    def test(p):
        hit = memo.get(p)
        if hit is None:
            hit = memo[p] = member(p)
        return hit

    starts = dict.fromkeys(starts)
    h1 = generators[0]
    found = set()
    for p in starts:
        if vadd(p, h1) in starts or not test(p):
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


def _satisfies(base, factors, p):
    """Whether p satisfies the base and one option of every factor of a
    cell description: integer inequalities (a, b) meaning a.p + b >= 0."""

    def holds(cons):
        return all(vdot(a, p) + b >= 0 for a, b in cons)

    return holds(base) and all(any(holds(o) for o in options) for options in factors)


def _some_choice_feasible(cons, levels, n):
    """Whether cons plus one option of every level is feasible over Q for
    some choice of options, depth first on one eliminator: each node adds
    its option's constraints, an infeasible prefix is pruned, and
    backtracking undoes them."""
    fm = _Eliminator(n)
    if not all(fm.add(a, b, False) for a, b in cons):
        return False

    def search(k):
        if k == len(levels):
            return True
        for option in levels[k]:
            mark = fm.mark()
            if all(fm.add(a, b, False) for a, b in option) and search(k + 1):
                return True
            fm.undo(mark)
        return False

    return search(0)


def _tightened(a, b):
    """a.p + b >= 0 on lattice points p as (a / g).p + floor(b / g) >= 0,
    g = gcd(a): the same lattice points, and fewer rational ones."""
    g = gcd(*a)
    return (tuple(x // g for x in a), b // g) if g > 1 else (a, b)


def _certified_generators(cells, cone, witness, search_radius, verify):
    """Sorted generators of a cone module given exactly by the cell
    description ``cells = (base, factors)``, whose integer points
    ``_satisfies`` tests: the minimal elements reached from ``witness``
    and the box of radius 0, 1, 2, 4, ... up to ``search_radius``, widened
    until the certificate proves the set complete.  Each generator is
    re-checked with ``verify``, and a disagreement raises LatticeError;
    IncompleteSearchError when the set is not certified at
    ``search_radius``.

    This is the answer of the ``search_radius`` box alone: found sets grow
    with the starts, and a point no generator step lowers is minimal in the
    whole module, since the cone generators generate the cone, so a
    certified set is the module's unique minimal generating set.

    The certificate proves the described set minus the union of the shifted
    cones g + C empty over the rationals.  It walks one half-space per
    generator g to lie outside of, then one option per factor, depth first,
    on one eliminator: a node adds its option's constraints and combines
    them with those already filed, and backtracking undoes them.  Every
    partial system Fourier-Motzkin proves empty is pruned: added constraints
    never make an empty system nonempty.  The verdict does not depend on the
    order of the levels, since a choice is one option per level whatever
    the order, and the eliminator derives the same constraints in any
    arrival order.  The outside-first order is kept because it measured
    faster than factors first (general-cones ``gb`` at seed 1, in-process
    minimum of 7 passes: 0.028 against 0.032 s)."""
    base = [_tightened(a, b) for a, b in cells[0]]
    factors = [[[_tightened(a, b) for a, b in o] for o in options] for options in cells[1]]
    radius = 0
    while True:
        starts = itertools.chain(box_points(cone.n, radius), [witness])
        minimal = minimal_elements(lambda p: _satisfies(base, factors, p), cone.generators, starts)
        # outside g + C: h.(p - g) <= -1 for one half-space h
        outside = [[[(vneg(h), vdot(h, g) - 1)] for h in cone.halfspaces] for g in minimal]
        complete = not _some_choice_feasible(base, outside + factors, cone.n)
        if complete or radius >= search_radius:
            break
        radius = min(2 * radius or 1, search_radius)
    for g in minimal:
        if not verify(g):
            raise LatticeError(f"polyhedral description disagrees at {g}")
    if not complete:
        raise IncompleteSearchError(
            f"generating set not certified complete within radius {search_radius}"
            if minimal
            else f"no generators found within radius {search_radius}"
        )
    return minimal


# -- exact integer/rational linear algebra -----------------------------------

def int_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * int_det(minor)
    return total


def rational_rank(rows) -> int:
    """Rank of a matrix of rationals, by exact Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def solve_rational(rows, rhs):
    """Solve a square rational system exactly; None if singular."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(m[i][n] for i in range(n))


def smith_normal_form(rows):
    """Elementary divisors of an integer matrix (nonnegative, divisibility chain)."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    divisors = []
    top = 0
    left = 0
    while top < nr and left < nc:
        # find a nonzero pivot of minimal absolute value
        best = None
        for i in range(top, nr):
            for j in range(left, nc):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for r in m:
            r[left], r[bj] = r[bj], r[left]
        # clear the pivot row and column by euclidean steps
        dirty = True
        while dirty:
            dirty = False
            for i in range(top + 1, nr):
                if m[i][left]:
                    q = m[i][left] // m[top][left]
                    for j in range(left, nc):
                        m[i][j] -= q * m[top][j]
                    if m[i][left]:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
            for j in range(left + 1, nc):
                if m[top][j]:
                    q = m[top][j] // m[top][left]
                    for i in range(top, nr):
                        m[i][j] -= q * m[i][left]
                    if m[top][j]:
                        for i in range(top, nr):
                            m[i][left], m[i][j] = m[i][j], m[i][left]
                        dirty = True
        divisors.append(abs(m[top][left]))
        top += 1
        left += 1
    # normalize the divisibility chain
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            g = gcd(a, b)
            if g:
                divisors[i], divisors[j] = g, a * b // g if g else 0
    return divisors


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def integer_span_basis(vectors, n):
    """Staircase basis (over Z) of the integer span of the given vectors."""
    rows = {}
    for vec in vectors:
        v = list(vec)
        while True:
            j = next((i for i, x in enumerate(v) if x), None)
            if j is None:
                break
            if j not in rows:
                rows[j] = v
                break
            row = rows[j]
            a, b = row[j], v[j]
            g, x, y = _xgcd(a, b)
            combined = [x * p + y * q for p, q in zip(row, v)]
            v = [(a // g) * q - (b // g) * p for p, q in zip(row, v)]
            rows[j] = combined
    return [tuple(rows[j]) for j in sorted(rows)]


def in_integer_span(basis, v):
    v = list(v)
    for row in basis:
        j = next(i for i, x in enumerate(row) if x)
        if v[j]:
            if v[j] % row[j] != 0:
                return False
            q = v[j] // row[j]
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


# -- Fourier-Motzkin feasibility ----------------------------------------------
# A constraint is (coeffs, const, strict) meaning coeffs.x + const >= 0
# (or > 0 when strict).

class _Eliminator:
    """Incremental Fourier-Motzkin elimination over integer constraints.

    A constraint is filed under its first nonzero variable, in the list of
    its sign, and combined with every constraint of the opposite sign
    there; each combination eliminates that variable and is added at the
    next one.  A constraint with no variable left is a verdict: ``add``
    answers False when it fails.  Every pair of opposite signs at every
    variable is combined once, whichever of the two arrives last, so the
    derived constraints are those of eliminating the whole system at once,
    in any arrival order.  ``mark`` and ``undo`` pop the trail of the lists
    appended to, which takes back everything added since the mark."""

    __slots__ = ("n", "pos", "neg", "trail")

    def __init__(self, n):
        self.n = n
        self.pos = [[] for _ in range(n)]
        self.neg = [[] for _ in range(n)]
        self.trail = []

    def add(self, a, b, strict, var=0):
        n = self.n
        while var < n and not a[var]:
            var += 1
        if var == n:
            return b > 0 if strict else b >= 0
        x = a[var]
        mine, other = (self.pos, self.neg) if x > 0 else (self.neg, self.pos)
        filed = mine[var]
        filed.append((a, b, strict))
        self.trail.append(filed)
        for ao, bo, so in other[var]:
            # weights: each side times the other's coefficient, in absolute value
            wa, wo = abs(ao[var]), abs(x)
            c = tuple(wa * p + wo * q for p, q in zip(a, ao))
            if not self.add(c, wa * b + wo * bo, strict or so, var + 1):
                return False
        return True

    def mark(self):
        return len(self.trail)

    def undo(self, mark):
        trail = self.trail
        while len(trail) > mark:
            trail.pop().pop()


def fm_feasible(constraints, nvars) -> bool:
    """Exact feasibility of a system of linear inequalities over Q^n.
    Entries are Fractions or ints.

    Each constraint is scaled once by the positive lcm of its denominators,
    so the elimination runs in integers; a positive scaling keeps both the
    inequality and its strictness.
    """
    fm = _Eliminator(nvars)
    for a, b, s in constraints:
        den = lcm(*(x.denominator for x in a), b.denominator)
        if not fm.add(tuple(int(x * den) for x in a), int(b * den), s):
            return False
    return True


# -- cones ---------------------------------------------------------------------

@dataclass(frozen=True)
class Cone:
    """A pointed rational polyhedral cone in Z^n with both descriptions."""

    id: int
    generators: tuple
    halfspaces: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if not self.generators:
            raise LatticeError("a cone needs at least one generator")
        n = len(self.generators[0])
        for g in self.generators:
            if len(g) != n:
                raise LatticeError("generator dimensions disagree")
        for h in self.halfspaces:
            if len(h) != n:
                raise LatticeError("half-space dimensions disagree")
        for g in self.generators:
            for h in self.halfspaces:
                if vdot(h, g) < 0:
                    raise LatticeError(f"generator {g} violates half-space {h}")
        # cheap sampled agreement of the two descriptions; the full radius-5
        # box check runs in validate_decomposition
        if n <= 4:
            for p in box_points(n, 2):
                if self.contains(p) != self.monoid_generates(p):
                    raise LatticeError(
                        f"cone descriptions disagree at {p}: half-spaces say "
                        f"{self.contains(p)}, generators say {self.monoid_generates(p)}"
                    )

    @property
    def n(self) -> int:
        return len(self.generators[0])

    def contains(self, v) -> bool:
        return all(sum(map(mul, h, v)) >= 0 for h in self.halfspaces)

    @property
    def is_simplicial(self) -> bool:
        return len(self.generators) == self.n

    @property
    def is_unimodular(self) -> bool:
        if "uni" not in self._cache:
            self._cache["uni"] = (
                self.is_simplicial and abs(int_det([list(g) for g in self.generators])) == 1
            )
        return self._cache["uni"]

    def _coords(self, s):
        """Coordinates of s in the generator basis (unimodular cones only),
        by the inverse of the generator matrix G computed once: its adjugate
        over det G = +-1, entry (i, k) the signed minor of G without
        coordinate k and generator i, times det G."""
        inv = self._cache.get("inv")
        if inv is None:
            if not self.is_unimodular:
                raise UnsupportedConeError(f"cone {self.id} is not simplicial unimodular")
            gens = self.generators
            det = int_det([list(g) for g in gens])
            inv = self._cache["inv"] = tuple(
                tuple(
                    det * (-1) ** (i + k)
                    * int_det([g[:k] + g[k + 1:] for c, g in enumerate(gens) if c != i])
                    for k in range(self.n)
                )
                for i in range(self.n)
            )
        return tuple(vdot(row, s) for row in inv)

    def factorize(self, s):
        """Split s = u - v with u, v in the cone, via generator coordinates."""
        coords = self._coords(s)
        n = self.n
        u = tuple(0 for _ in range(n))
        v = tuple(0 for _ in range(n))
        for c, g in zip(coords, self.generators):
            if c > 0:
                u = vadd(u, vscale(c, g))
            elif c < 0:
                v = vadd(v, vscale(-c, g))
        return u, v

    def shifted_intersection(self, a, b):
        """g with (a + cone) .intersection. (b + cone) = g + cone: in generator
        coordinates, the larger of a's and b's."""
        top = tuple(map(max, self._coords(a), self._coords(b)))
        return tuple(sum(map(mul, top, column)) for column in zip(*self.generators))

    def module_intersection(self, fam_a, fam_b):
        """Minimal generators of (fam_a + cone) intersected with (fam_b + cone)."""
        raw = {self.shifted_intersection(a, b) for a in fam_a for b in fam_b}
        return [
            v for v in sorted(raw)
            if not any(w != v and self.contains(vsub(v, w)) for w in raw)
        ]

    def positive_functional(self):
        """An integer functional strictly positive on the cone minus 0."""
        if "posfn" not in self._cache:
            total = tuple(0 for _ in range(self.n))
            for h in self.halfspaces:
                total = vadd(total, h)
            self._cache["posfn"] = total
        return self._cache["posfn"]

    def monoid_generates(self, v, limit=10 ** 5) -> bool:
        """Whether v is a nonnegative integer combination of the generators."""
        ell = self.positive_functional()
        gens = self.generators
        memo = self._cache.setdefault("genmemo", {})

        def rec(p, budget):
            if all(x == 0 for x in p):
                return True
            if p in memo:
                return memo[p]
            if budget <= 0 or vdot(ell, p) <= 0 or not self.contains(p):
                memo[p] = False
                return False
            ok = any(rec(vsub(p, g), budget - 1) for g in gens)
            memo[p] = ok
            return ok

        return rec(tuple(v), limit)


# -- ray enumeration and Hilbert bases -----------------------------------------

def rays_from_halfspaces(halfspaces, n):
    """Extreme rays of a pointed cone C = {x : h.x >= 0}, n <= 3, sorted.

    Every candidate is extreme: it is a point of C on the planes of two
    independent normals (n = 3, d = ha x hb != 0) or of one nonzero normal
    (n = 2), so the face of C those planes cut out lies on the line through
    d, and C being pointed, it is the ray through d.  For n = 1 it is C."""
    hs = [tuple(h) for h in halfspaces]
    cands = set()
    if n == 1:
        for d in ((1,), (-1,)):
            if all(vdot(h, d) >= 0 for h in hs):
                cands.add(d)
    elif n == 2:
        for h in hs:
            for d in ((h[1], -h[0]), (-h[1], h[0])):
                if any(d) and all(vdot(g, d) >= 0 for g in hs):
                    cands.add(primitive(d))
    elif n == 3:
        for ha, hb in itertools.combinations(hs, 2):
            d = (
                ha[1] * hb[2] - ha[2] * hb[1],
                ha[2] * hb[0] - ha[0] * hb[2],
                ha[0] * hb[1] - ha[1] * hb[0],
            )
            if not any(d):
                continue
            for dd in (d, vneg(d)):
                if all(vdot(g, dd) >= 0 for g in hs):
                    cands.add(primitive(dd))
    else:
        raise LatticeError("ray enumeration implemented for n <= 3")
    return sorted(cands)


def _simplicial_hilbert(rays, n):
    """Hilbert generating set of a simplicial pointed cone: rays plus the
    lattice points of the half-open fundamental parallelepiped."""
    det = abs(int_det([list(r) for r in rays]))
    if det == 1:
        return set(rays)
    pts = set(rays)
    # bounding box of the closed parallelepiped
    corners = []
    for mask in range(2 ** n):
        c = tuple(0 for _ in range(n))
        for i in range(n):
            if mask >> i & 1:
                c = vadd(c, rays[i])
        corners.append(c)
    lo = [min(c[i] for c in corners) for i in range(n)]
    hi = [max(c[i] for c in corners) for i in range(n)]
    cols = [[Fraction(rays[j][i]) for j in range(n)] for i in range(n)]
    for p in itertools.product(*(range(lo[i], hi[i] + 1) for i in range(n))):
        sol = solve_rational(cols, p)
        if sol is not None and all(0 <= c < 1 for c in sol) and any(p):
            pts.add(tuple(p))
    return pts


def hilbert_basis(halfspaces, n, rays=None):
    """Minimal generating set of the monoid of lattice points of a pointed
    full-dimensional cone given by half-spaces (n <= 3)."""
    if rays is None:
        rays = rays_from_halfspaces(halfspaces, n)
    rays = sorted(set(tuple(r) for r in rays))
    if len(rays) < n:
        raise LatticeError("cone is not full-dimensional")
    # by Caratheodory every point lies in a simplicial subcone on n rays,
    # so the union of their parallelepiped points generates the monoid
    cand = set()
    for subset in itertools.combinations(rays, n):
        if int_det([list(r) for r in subset]) != 0:
            cand |= _simplicial_hilbert(list(subset), n)
    cand = {c for c in cand if any(c) and all(vdot(h, c) >= 0 for h in halfspaces)}
    # minimalize in increasing order of a functional positive on the cone
    ell = tuple(sum(col) for col in zip(*halfspaces))
    out = []
    for c in sorted(cand, key=lambda v: (vdot(ell, v), v)):
        reducible = False
        for g in out:
            d = vsub(c, g)
            if any(d) and all(vdot(h, d) >= 0 for h in halfspaces):
                # d is a lattice point of the cone, hence in the monoid
                reducible = True
                break
        if not reducible:
            out.append(c)
    return tuple(sorted(out))


def cone_from_halfspaces(cone_id, halfspaces, n):
    """Build a Cone (generators derived) from integer half-space normals."""
    hs = []
    for h in halfspaces:
        h = primitive(h)
        if h not in hs:
            hs.append(h)
    hs = tuple(hs)
    gens = hilbert_basis(hs, n)
    return Cone(cone_id, gens, hs)


# -- conic decompositions --------------------------------------------------------

@dataclass(frozen=True)
class ConicDecomposition:
    """An indexed family of cones covering Z^n."""

    cones: tuple
    kind: str = "custom"

    @property
    def n(self) -> int:
        return self.cones[0].n

    def __len__(self):
        return len(self.cones)

    def __iter__(self):
        return iter(self.cones)

    def __getitem__(self, i):
        return self.cones[i]

    def find_cone(self, v) -> int:
        """Index of the first cone containing v."""
        for i, c in enumerate(self.cones):
            if c.contains(v):
                return i
        raise LatticeError(f"{v} is not covered by the decomposition")


_DECOMPOSITIONS = {}


def build_decomposition(kind: str, n: int) -> ConicDecomposition:
    """The built-in decompositions: ``standard`` (n+1 cones) or ``orthant``
    (2^n sign cones, Gray-code indexed).

    The result is shared and immutable: one per (kind, n), built and checked
    on the first call.  Cones are frozen and ``Cone._cache`` holds only
    values derived from the cone (unimodularity, inverse, positive
    functional, generation memo).  Invalid arguments raise on every call."""
    d = _DECOMPOSITIONS.get((kind, type(n), n))
    if d is None:
        d = _DECOMPOSITIONS[kind, type(n), n] = _new_decomposition(kind, n)
    return d


def _new_decomposition(kind, n):
    if n < 1:
        raise LatticeError("dimension must be positive")
    e = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    if kind == "standard":
        cones = [Cone(0, tuple(e), tuple(e))]
        allneg = tuple(-1 for _ in range(n))
        for j in range(1, n + 1):
            gens = tuple(e[k] for k in range(n) if k != j - 1) + (allneg,)
            hs = [vneg(e[j - 1])]
            for k in range(n):
                if k != j - 1:
                    hs.append(vsub(e[k], e[j - 1]))
            cones.append(Cone(j, gens, tuple(hs)))
        return ConicDecomposition(tuple(cones), "standard")
    if kind == "orthant":
        cones = []
        for i in range(2 ** n):
            gray = i ^ (i >> 1)
            signs = tuple(-1 if gray >> k & 1 else 1 for k in range(n))
            gens = tuple(vscale(signs[k], e[k]) for k in range(n))
            cones.append(Cone(i, gens, gens))
        return ConicDecomposition(tuple(cones), "orthant")
    raise LatticeError(f"unknown decomposition kind {kind!r}")


def is_standard_decomposition(d: ConicDecomposition) -> bool:
    """Whether the cones structurally equal the standard n+1-cone family."""
    if d.kind == "standard":
        return True
    std = build_decomposition("standard", d.n)
    if len(d.cones) != len(std.cones):
        return False
    return all(
        a.generators == b.generators and set(a.halfspaces) == set(b.halfspaces)
        for a, b in zip(d.cones, std.cones)
    )


# -- validation ----------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self):
        mark = "ok  " if self.ok else "FAIL"
        return f"{mark} {self.name}" + (f" ({self.detail})" if self.detail else "")


@dataclass
class ValidationReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def validate_decomposition(d: ConicDecomposition, box_radius: int) -> ValidationReport:
    """Check pointedness, group generation, description agreement, box
    coverage, and the pairwise intersection-group condition on sampled
    lattice points."""
    checks = []
    n = d.n
    pts = list(box_points(n, box_radius))
    for i, c in enumerate(d.cones):
        pointed = rational_rank([list(h) for h in c.halfspaces]) == n
        checks.append(CheckResult(f"cone[{i}] pointed", pointed))
        divisors = smith_normal_form([list(g) for g in c.generators])
        groupgen = len(divisors) == n and all(x == 1 for x in divisors)
        checks.append(CheckResult(f"cone[{i}] group-generating", groupgen))
        witness = ""
        agree = True
        for p in pts:
            inside = c.contains(p)
            generated = c.monoid_generates(p)
            if inside != generated:
                agree = False
                witness = f"point {p}"
                break
        checks.append(CheckResult(f"cone[{i}] descriptions agree", agree, witness))
    uncovered = next((p for p in pts if not any(c.contains(p) for c in d.cones)), None)
    checks.append(
        CheckResult(
            "coverage",
            uncovered is None,
            "" if uncovered is None else f"uncovered point {uncovered}",
        )
    )
    for i, j in itertools.combinations(range(len(d.cones)), 2):
        ci, cj = d.cones[i], d.cones[j]
        inter = [p for p in pts if ci.contains(p) and cj.contains(p)]
        basis = integer_span_basis(inter, n)
        ok = True
        witness = ""
        for p in pts:
            in_group_and_ci = ci.contains(p) and in_integer_span(basis, p)
            in_inter = ci.contains(p) and cj.contains(p)
            if in_inter and not in_group_and_ci:
                ok = False
                witness = f"point {p}"
                break
            if in_group_and_ci and not in_inter:
                ok = False
                witness = f"point {p}"
                break
        checks.append(CheckResult(f"intersection-group condition [{i},{j}]", ok, witness))
    return ValidationReport(checks)
