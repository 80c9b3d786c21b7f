"""S-pairs, the Buchberger criterion, and Buchberger's algorithm for
ideals of Laurent polynomials.

S-pairs are formed per cone at every generator of the collision-monomial
module of the two cone leading terms.  The pair queue is FIFO and the
whole computation is deterministic.  Each new basis element records its
combination in terms of the input generators; the combination identity is
re-verified exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from lgb.laurent import LaurentPoly, RingError, u_intersection
from lgb.lattice import vsub
from lgb.reduction import PolynomialMode, _reduce, reduce


class ResourceLimitError(RuntimeError):
    """The basis-size guard was exceeded."""


@dataclass
class GBConfig:
    normalize: bool = False
    max_basis: int = 500
    track_provenance: bool = True

    def __post_init__(self):
        if self.max_basis <= 0:
            raise RingError("the basis-size guard must be positive")


@dataclass
class GBStats:
    pairs_processed: int = 0
    zero_reductions: int = 0


@dataclass
class GBResult:
    basis: list
    stats: GBStats = field(default_factory=GBStats)
    combinations: list | None = None

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)


def spair(i, f: LaurentPoly, g: LaurentPoly, v) -> LaurentPoly:
    """S(i, f, g, v) at a collision monomial v of the cone-i leading data."""
    f._check(g)
    lmf, lcf, _ = f.cone_leading_data(i)
    lmg, lcg, _ = g.cone_leading_data(i)
    if not f.ti_contains(vsub(v, lmf), i) or not g.ti_contains(vsub(v, lmg), i):
        raise RingError(f"{v} is not a collision monomial for cone {i}")
    return f.term_mul(vsub(v, lmf), lcg) - g.term_mul(vsub(v, lmg), lcf)


def _assert_spair_bound(ring, s: LaurentPoly, v) -> None:
    # the leading monomial of a nonzero S-pair drops strictly below v
    if not s.is_zero() and ring.order.compare(s.leading_monomial(), v) >= 0:
        raise AssertionError(f"S-pair at {v} does not drop below its bound")


def _prepare_generators(gens):
    if not gens:
        raise RingError("need at least one generator")
    ring = gens[0].ring
    out = []
    for g in gens:
        g._check(gens[0])
        if g.is_zero():
            raise RingError("generators must be nonzero")
        if g not in out:
            out.append(g)
    return ring, out


def buchberger(gens, cfg: GBConfig | None = None) -> GBResult:
    """Buchberger's algorithm; the output contains the generators as given
    and every criterion S-pair of the output reduces to zero by it."""
    cfg = cfg or GBConfig()
    ring, basis = _prepare_generators(list(gens))
    inputs = list(basis)
    ncones = len(ring.order.decomposition.cones)
    mode = PolynomialMode(ring)
    stats = GBStats()
    track = cfg.track_provenance
    combos = None
    if track:
        combos = [
            [ring.one() if j == k else ring.zero() for j in range(len(basis))]
            for k in range(len(basis))
        ]
    queue = deque(
        (a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))
    )
    while queue:
        a, b = queue.popleft()
        stats.pairs_processed += 1
        f, g = basis[a], basis[b]
        for i in range(ncones):
            for v in u_intersection(f, g, i):
                s = spair(i, f, g, v)
                _assert_spair_bound(ring, s, v)
                if s.is_zero():
                    stats.zero_reductions += 1
                    continue
                quotients, r = _reduce(s, basis, mode)
                if r.is_zero():
                    stats.zero_reductions += 1
                    continue
                if track:
                    lmf, lcf, _ = f.cone_leading_data(i)
                    lmg, lcg, _ = g.cone_leading_data(i)
                    combo = [
                        cf.term_mul(vsub(v, lmf), lcg) - cg.term_mul(vsub(v, lmg), lcf)
                        for cf, cg in zip(combos[a], combos[b])
                    ]
                    for q, row in zip(quotients, combos):
                        combo = [c - q * rc for c, rc in zip(combo, row)]
                    rebuilt = ring.zero()
                    for c, gen in zip(combo, inputs):
                        rebuilt = rebuilt + c * gen
                    if rebuilt != r:
                        raise ArithmeticError("provenance identity failed to re-verify")
                    combos.append(combo)
                queue.extend((k, len(basis)) for k in range(len(basis)))
                basis.append(r)
                if len(basis) > cfg.max_basis:
                    raise ResourceLimitError(
                        f"basis exceeded the guard of {cfg.max_basis} elements"
                    )
    if cfg.normalize:
        normalized = []
        for k, h in enumerate(basis):
            _, lc, _ = h.leading_data()
            inv = lc.inv()
            normalized.append(h * inv)
            if track:
                combos[k] = [c * inv for c in combos[k]]
        basis = normalized
    return GBResult(basis, stats, combos)


def is_groebner(H):
    """Criterion check: every S-pair at every collision monomial of every
    cone reduces to zero.  Returns (flag, certificate); the certificate
    names the first failing (cone, f-index, g-index, v)."""
    ring, basis = _prepare_generators(list(H))
    ncones = len(ring.order.decomposition.cones)
    mode = PolynomialMode(ring)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            for i in range(ncones):
                for v in u_intersection(basis[a], basis[b], i):
                    s = spair(i, basis[a], basis[b], v)
                    _assert_spair_bound(ring, s, v)
                    if s.is_zero():
                        continue
                    _, r = _reduce(s, basis, mode)
                    if not r.is_zero():
                        return False, (i, a, b, v)
    return True, None


def ideal_membership(f: LaurentPoly, G, trusted: bool = False) -> bool:
    """Whether f lies in the ideal generated by the Groebner basis G."""
    if not trusted:
        ok, cert = is_groebner(G)
        if not ok:
            raise RingError(f"not a Groebner basis; first failing S-pair {cert}")
    return reduce(f, list(G)).remainder.is_zero()
