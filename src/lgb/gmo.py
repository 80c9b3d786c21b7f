"""Generalized monomial orders on the Laurent exponent lattice.

An order is built from a conic decomposition, a score function that is
nonnegative, subadditive, and linear on every cone, and a lexicographic
group order as tie-break: ``u < v`` iff ``score(u) < score(v)`` or the
scores tie and ``u`` is lexicographically smaller.  Such an order is
total, satisfies ``1 <= t`` for every monomial, and is compatible with
multiplication inside each cone.

``GeneralizedOrder.key`` is the order's one implementation: a sort key
``(score, exponent permuted by the tie-break)``, with an integer score for
the built-in kinds and for integral custom rows.  Maxima, sorts, printing,
the tie-break of ``laurent._ti_cells`` and ``validate_gmo`` all compare
keys; there is no pairwise comparator beside it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from lgb.lattice import (
    CheckResult,
    ConicDecomposition,
    LatticeError,
    ValidationReport,
    box_points,
    build_decomposition,
    rational_rank,
    solve_rational,
    vadd,
    vdot,
    vscale,
)


def _int_if_integral(x: Fraction):
    return x.numerator if x.denominator == 1 else x


class ScoreFunction:
    """The score component of a generalized order.

    Kinds:

    * ``min``    -- ``phi(i) = -min(0, i_1, ..., i_n)``, zero set = the
      nonnegative orthant.
    * ``degmin`` -- ``phi(i) = sum(i) - (n+1) * min(0, i_1, ..., i_n)``,
      zero set = {0}.
    * ``custom`` -- one linear row per cone, zero set declared explicitly
      (``"one"`` or a cone index).
    """

    __slots__ = ("kind", "n", "rows", "e_set")

    def __init__(self, kind, n, rows=None, e_set=None):
        if kind not in ("min", "degmin", "custom"):
            raise LatticeError(f"unknown score kind {kind!r}")
        self.kind = kind
        self.n = n
        self.rows = None
        if kind == "custom":
            if rows is None:
                raise LatticeError("custom scores need one linear row per cone")
            # integral entries as ints, so scores and keys stay integers;
            # an int equals its Fraction, so == and hash do not change
            self.rows = {
                int(i): tuple(_int_if_integral(Fraction(x)) for x in r) for i, r in rows.items()
            }
            self.e_set = "one" if e_set is None else e_set
        else:
            self.e_set = "one" if kind == "degmin" else ("cone", 0)

    def __eq__(self, other):
        return (
            isinstance(other, ScoreFunction)
            and (self.kind, self.n, self.rows, self.e_set)
            == (other.kind, other.n, other.rows, other.e_set)
        )

    def __hash__(self):
        rows = None if self.rows is None else tuple(sorted(self.rows.items()))
        return hash((self.kind, self.n, rows, self.e_set))

    def value(self, v, decomposition=None):
        if self.kind == "min":
            return -min(0, *v)
        if self.kind == "degmin":
            return sum(v) - (self.n + 1) * min(0, *v)
        idx = decomposition.find_cone(v)
        return vdot(self.rows[idx], v)

    def in_zero_set(self, v, decomposition=None) -> bool:
        if self.e_set == "one":
            return not any(v)
        _, idx = self.e_set
        return decomposition[idx].contains(v)


_LINEAR_FORMS = {}


class GeneralizedOrder:
    """A generalized monomial order: decomposition + score + lex tie-break."""

    __slots__ = ("decomposition", "score", "perm", "_identity", "_linear_forms")

    def __init__(self, decomposition: ConicDecomposition, score: ScoreFunction, perm=None):
        if score.n != decomposition.n:
            raise LatticeError("score and decomposition dimensions disagree")
        self.decomposition = decomposition
        self.score = score
        self.perm = tuple(perm) if perm is not None else tuple(range(decomposition.n))
        if sorted(self.perm) != list(range(decomposition.n)):
            raise LatticeError(f"{self.perm} is not a permutation")
        self._identity = self.perm == tuple(range(decomposition.n))
        self._linear_forms = {}

    @property
    def n(self) -> int:
        return self.decomposition.n

    def __eq__(self, other):
        return (
            isinstance(other, GeneralizedOrder)
            and self.decomposition == other.decomposition
            and self.score == other.score
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.decomposition, self.score, self.perm))

    def __repr__(self):
        return f"GeneralizedOrder({self.decomposition.kind}, {self.score.kind}, n={self.n})"

    # ------------------------------------------------------------------
    def phi(self, v):
        return self.score.value(v, self.decomposition)

    def key(self, e):
        """Sort key: ``u < v`` iff ``key(u) < key(v)``."""
        if self._identity:
            return (self.phi(e), tuple(e))
        return (self.phi(e), tuple(e[i] for i in self.perm))

    def max_exponent(self, exps):
        """The greatest exponent vector of a nonempty iterable."""
        best = max(exps, key=self.key, default=None)
        if best is None:
            raise LatticeError("empty iterable has no maximum")
        return best

    def greatest_tuple(self, *tuples):
        if len(tuples) == 1 and not isinstance(tuples[0], tuple):
            tuples = tuple(tuples[0])
        return self.max_exponent(tuples)

    def greatest_tuple_for_cone(self, i, *tuples):
        """Greatest tuple under the cone-i relation ``a < b iff ta < tb``
        for any translation t placing all candidates inside cone i."""
        if len(tuples) == 1 and not isinstance(tuples[0], tuple):
            tuples = tuple(tuples[0])
        if not tuples:
            raise LatticeError("empty list has no maximum")
        cone = self.decomposition[i]
        t = tuple(0 for _ in range(self.n))
        for a in tuples:
            _, vpart = cone.factorize(a)
            t = vadd(t, vpart)
        return max(tuples, key=lambda a: self.key(vadd(t, a)))

    # ------------------------------------------------------------------
    def linear_form(self, i):
        """The linear form of the score on cone i, derived and verified once
        per (decomposition, score, i) and shared by every order over them;
        errors are not memoized."""
        form = self._linear_forms.get(i)
        if form is None:
            key = (self.decomposition, self.score, i)
            form = _LINEAR_FORMS.get(key)
            if form is None:
                form = _LINEAR_FORMS[key] = self._new_linear_form(i)
            self._linear_forms[i] = form
        return form

    def _new_linear_form(self, i):
        cone = self.decomposition[i]
        n = self.n
        if self.score.kind == "custom":
            form = self.score.rows[i]
        else:
            gens = list(cone.generators)
            rows, rhs = [], []
            for g in gens:
                if len(rows) == n:
                    break
                if rational_rank(rows + [list(g)]) > len(rows):
                    rows.append(list(g))
                    rhs.append(Fraction(self.phi(g)))
            if len(rows) < n:
                raise LatticeError(f"cone {i} generators do not span")
            # integral entries as ints, as for custom rows, so cell
            # inequalities are built without Fraction
            form = tuple(map(_int_if_integral, solve_rational(rows, rhs)))
        for g in cone.generators:
            if vdot(form, g) != self.phi(g):
                raise LatticeError(f"score is not linear on cone {i}")
        for a in cone.generators:
            for b in cone.generators:
                s = vadd(a, b)
                if vdot(form, s) != self.phi(s):
                    raise LatticeError(f"score is not linear on cone {i}")
        return form


def make_order(n: int, score: str = "min", decomposition=None, perm=None) -> GeneralizedOrder:
    """Convenience constructor for the built-in orders."""
    if decomposition is None:
        decomposition = build_decomposition("standard", n)
    return GeneralizedOrder(decomposition, ScoreFunction(score, n), perm)


def validate_gmo(o: GeneralizedOrder, sample_radius: int = 4, samples: int = 400, seed: int = 0) -> ValidationReport:
    """Check the score conditions (positivity off the zero set,
    subadditivity, per-cone additivity) and the order axioms on samples."""
    rng = random.Random(seed)
    checks = []
    d = o.decomposition
    n = o.n
    pts = list(box_points(n, sample_radius))

    witness = ""
    ok = True
    for p in pts:
        val = o.phi(p)
        if val < 0 or (val == 0 and not o.score.in_zero_set(p, d)):
            ok = False
            witness = f"phi{p} = {val}"
            break
    checks.append(CheckResult("score positive off the zero set", ok, witness))

    ok, witness = True, ""
    for _ in range(samples):
        s = tuple(rng.randint(-sample_radius, sample_radius) for _ in range(n))
        t = tuple(rng.randint(-sample_radius, sample_radius) for _ in range(n))
        if o.phi(vadd(s, t)) > o.phi(s) + o.phi(t):
            ok, witness = False, f"s={s} t={t}"
            break
    checks.append(CheckResult("score subadditive", ok, witness))

    ok, witness = True, ""
    for i, cone in enumerate(d.cones):
        for _ in range(samples // max(len(d.cones), 1) + 1):
            coeffs = [rng.randint(0, 3) for _ in cone.generators]
            total = tuple(0 for _ in range(n))
            acc = 0
            for c, g in zip(coeffs, cone.generators):
                total = vadd(total, vscale(c, g))
                acc += c * o.phi(g)
            if o.phi(total) != acc:
                ok, witness = False, f"cone {i} combination {coeffs}"
                break
        if not ok:
            break
    checks.append(CheckResult("score additive on each cone", ok, witness))

    ok, witness = True, ""
    origin = tuple(0 for _ in range(n))
    key = o.key
    for p in pts:
        if key(origin) > key(p):
            ok, witness = False, f"1 > {p}"
            break
    checks.append(CheckResult("unit is minimal", ok, witness))

    # keys are totally ordered tuples, so the order is total and
    # antisymmetric iff distinct exponents get distinct keys
    ok, witness = True, ""
    for p in pts:
        for q in pts[:20]:
            if (p == q) != (key(p) == key(q)):
                ok, witness = False, f"{p} vs {q}"
                break
        if not ok:
            break
    checks.append(CheckResult("comparison is total and antisymmetric", ok, witness))

    ok, witness = True, ""
    for _ in range(samples):
        i = rng.randrange(len(d.cones))
        cone = d.cones[i]
        s = tuple(0 for _ in range(n))
        t = tuple(0 for _ in range(n))
        for g in cone.generators:
            s = vadd(s, vscale(rng.randint(0, 3), g))
            t = vadd(t, vscale(rng.randint(0, 3), g))
        r = tuple(rng.randint(-sample_radius, sample_radius) for _ in range(n))
        if key(r) < key(s) and key(vadd(r, t)) >= key(vadd(s, t)):
            ok, witness = False, f"r={r} s={s} t={t} cone {i}"
            break
    checks.append(CheckResult("multiplication compatible inside cones", ok, witness))

    return ValidationReport(checks)
