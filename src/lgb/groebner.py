"""The one Buchberger engine, for Laurent polynomials and capped series.

S-pairs are formed per cone at every generator of the collision-monomial
module of the two cone leading terms, from a FIFO pair queue, so the whole
computation is deterministic.  ``buchberger``/``is_groebner`` and
``affinoid.buchberger_P``/``is_groebner_series`` pass their division
adapter (see ``reduction``), S-pair function and divide function to one
loop and one criterion check.  A nonzero S-pair must lie strictly below
lc_f*lc_g*X^v under the adapter's ``term_key``.  ``buchberger`` expands
the loop's record of how each element arose into ``GBResult.combinations``
and re-verifies the combination identity exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from lgb.laurent import LaurentPoly, RingError
from lgb.lattice import vsub
from lgb.reduction import PolynomialMode, _reduce, reduce


class ResourceLimitError(RuntimeError):
    """The basis-size guard was exceeded."""


@dataclass
class GBConfig:
    normalize: bool = False
    max_basis: int = 500

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


def _distinct(gens, error, nonzero):
    """The generators without repeats, in input order, and the input
    position of each; ``error(nonzero)`` is raised for a zero generator."""
    gens = list(gens)
    if not gens:
        raise error("need at least one generator")
    first = {}
    for k, g in enumerate(gens):
        gens[0]._check(g)
        if g.is_zero():
            raise error(nonzero)
        first.setdefault(g, k)
    return list(first), list(first.values())


def _spairs(division, make_spair, body, f, g, stats):
    """The nonzero S-pairs (label, v, S) of f and g, in label then collision
    order, each checked to lie below lc_f*lc_g*X^v; zero ones are counted
    in ``stats``.  ``body`` maps an element to its polynomial."""
    key = division.term_key
    bf, bg = body(f), body(g)
    for label in division.labels:
        for v in division.u_set(bf, bg, label):
            s = make_spair(label, f, g, v)
            terms = body(s).terms_unordered()
            if not terms:
                stats.zero_reductions += 1
                continue
            _, lcf = division.cone_leading(bf, label)
            _, lcg = division.cone_leading(bg, label)
            if max(key(c, e) for e, c in terms) >= key(lcf * lcg, v):
                raise AssertionError(f"S-pair at {v} does not drop below its bound")
            yield label, v, s


def _buchberger(basis, division, make_spair, divide, body, cfg: GBConfig):
    """Close ``basis`` (validated, extended in place) under S-pair
    remainders; returns the stats and, per added element,
    ``(a, b, label, v, quotients)``."""
    stats = GBStats()
    records = []
    queue = deque(combinations(range(len(basis)), 2))
    while queue:
        a, b = queue.popleft()
        stats.pairs_processed += 1
        for label, v, s in _spairs(division, make_spair, body, basis[a], basis[b], stats):
            quotients, r = divide(s, basis, division)
            if r.is_zero():
                stats.zero_reductions += 1
                continue
            records.append((a, b, label, v, quotients))
            queue.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
            if len(basis) > cfg.max_basis:
                raise ResourceLimitError(
                    f"basis exceeded the guard of {cfg.max_basis} elements"
                )
    return stats, records


def _criterion(basis, positions, division, make_spair, divide, body):
    """(flag, certificate): whether every S-pair of ``basis`` reduces to
    zero; the certificate names the first failing (label, a, b, v), with
    a and b the input positions."""
    for a, b in combinations(range(len(basis)), 2):
        for label, v, s in _spairs(division, make_spair, body, basis[a], basis[b], GBStats()):
            _, r = divide(s, basis, division)
            if not r.is_zero():
                return False, (label, positions[a], positions[b], v)
    return True, None


def _expand_provenance(inputs, basis, records):
    """Each basis element as a combination of the inputs, expanded from the
    loop's records and re-verified exactly."""
    ring = inputs[0].ring
    combos = [
        [ring.one() if j == k else ring.zero() for j in range(len(inputs))]
        for k in range(len(inputs))
    ]
    for (a, b, i, v, quotients), r in zip(records, basis[len(inputs):]):
        lmf, lcf, _ = basis[a].cone_leading_data(i)
        lmg, lcg, _ = basis[b].cone_leading_data(i)
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
    return combos


def buchberger(gens, cfg: GBConfig | None = None) -> GBResult:
    """Buchberger's algorithm; the output contains the generators as given
    and every criterion S-pair of the output reduces to zero by it."""
    cfg = cfg or GBConfig()
    basis, _ = _distinct(gens, RingError, "generators must be nonzero")
    inputs = list(basis)
    mode = PolynomialMode(basis[0].ring)
    stats, records = _buchberger(basis, mode, spair, _reduce, lambda h: h, cfg)
    combos = _expand_provenance(inputs, basis, records)
    if cfg.normalize:
        for k, h in enumerate(basis):
            inv = h.leading_data()[1].inv()
            basis[k] = h * inv
            combos[k] = [c * inv for c in combos[k]]
    return GBResult(basis, stats, combos)


def is_groebner(H):
    """Criterion check: every S-pair at every collision monomial of every
    cone reduces to zero.  Returns (flag, certificate); the certificate
    names the first failing (cone, f-index, g-index, v), indices into H."""
    basis, positions = _distinct(H, RingError, "generators must be nonzero")
    mode = PolynomialMode(basis[0].ring)
    return _criterion(basis, positions, mode, spair, _reduce, lambda h: h)


def ideal_membership(f: LaurentPoly, G, trusted: bool = False) -> bool:
    """Whether f lies in the ideal generated by the Groebner basis G."""
    if not trusted:
        ok, cert = is_groebner(G)
        if not ok:
            raise RingError(f"not a Groebner basis; first failing S-pair {cert}")
    return reduce(f, list(G)).remainder.is_zero()
