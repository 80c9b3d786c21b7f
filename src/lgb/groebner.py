"""The one Buchberger engine, for Laurent polynomials and capped series.

S-pairs are formed per cone at every generator of the collision-monomial
module of the two cone leading terms, from a FIFO pair queue, so the whole
computation is deterministic.  ``buchberger``/``is_groebner`` and
``affinoid.buchberger_P``/``is_groebner_series`` run one loop and one
criterion check on ``LaurentPoly`` bodies, each over one
``reduction.PolynomialMode`` adapter that holds the mode and the cap
bound (+inf in the Laurent layer).  Both layers form S-pairs with one
builder, ``_spair``, and divide them with ``reduction._divide``; they
build cone modules with ``laurent.cone_module`` over the same adapter,
and ``_spair`` checks a collision monomial with its ``member`` test.
``buchberger`` and ``buchberger_P`` expand the loop's record of how each
element arose into ``GBResult.combinations`` (``_expand_provenance``);
``buchberger`` re-verifies the combination identity exactly, and
``buchberger_P`` certifies each element's precision from it.

The exact check (``is_groebner``) skips S-pairs by a chain criterion over
collision modules (Gebauer and Moeller, J. Symb. Comput. 1988; proofs by
t-representations as in Becker and Weispfenning, *Groebner Bases*, 1993).
Write M_i(h) = lm_i(h) + T_i(h), U_i(x, y) for the generators of the
intersection of M_i(x) and M_i(y), and S(x, y, w) for the S-pair at w.
Fix a cone i and a generator v, and let E = {h : v in M_i(h)}.  An edge
(x, y) of E is free when some w != v in U_i(x, y) has v in w + C_i.  The
S-pair (a, b, i, v) is skipped when free edges and earlier S-pairs at the
same (i, v) that reduced to zero connect a and b in E.  Why this is sound:

- With m_h = X^(v - lm_i(h)) * h / lc_i(h), S(x, y, v) = lc_x*lc_y*(m_x - m_y),
  so S(a, b, v) is a sum, along the path, of constant multiples of
  S(x, y, v) = X^(v - w) * S(x, y, w), with w = v on a tied edge and
  v - w in C_i minus 0 on a free one.
- The order is compatible with multiplication inside a cone and has
  1 < X^c for c in C_i minus 0.  So w < v, and X^(v - w) times a
  representation of S(x, y, w) below w lies below v, the same step by
  which the exhaustive criterion passes from U_i to U_i + C_i.  Divided
  S-pairs reduced to zero; a skipped one rests on those and on S-pairs at
  smaller w; induction on v gives each a representation below its v.

A failing S-pair ends the scan after the skipped ones before it are
divided in canonical order (pairs, cones, generators), so the certificate
is the exhaustive scan's.

The Laurent loop (``buchberger``) skips S-pairs by the same chain, with E
growing with the basis: when (i, v) is next asked, its union-find takes
in each new element h with v in M_i(h), with the free edges of h.  Why
the output is still a Groebner basis:

- A pair the loop does not skip joins a and b, and the loop processes it.
  Either S(a, b, v) reduces to zero, or S = sum q_k*g_k + 1*r, where each
  X^t*g_k of a quotient term has its leading monomial at most lm(S), and
  so has r, with lm(S) < v; r joins the basis.  Either way S(a, b, v) has
  a representation below v by the final basis.
- Free edges depend only on their two elements, and the loop processes or
  skips every S-pair of the final basis, those at w < v included.  So the
  argument above holds on the final basis: induction on v gives every
  S-pair a representation below its v, which is the hypothesis of the
  exhaustive criterion.

``buchberger_P`` and ``is_groebner_series`` keep the exhaustive scan: a
residue at or above the cap, shifted by c in C_i, can fall below it, so
reducing to zero there is no representation below v.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from lgb.laurent import LaurentMode, LaurentPoly, RingError, cone_module
from lgb.lattice import vadd, vsub
from lgb.reduction import PolynomialMode, _divide, _memoized, reduce


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
    """Counters of one Buchberger run.  ``pairs_processed`` counts index
    pairs (a, b) taken from the queue, each with one S-pair per collision
    generator of each cone.  ``zero_reductions`` counts S-pairs that are
    zero or divide to zero, and ``spairs_skipped`` S-pairs the chain
    criterion skips (Laurent layer only)."""

    pairs_processed: int = 0
    zero_reductions: int = 0
    spairs_skipped: int = 0


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
    """S(i, f, g, v) at a collision monomial v of the cone-i leading data:
    the Laurent view of the one S-pair builder."""
    f._check(g)
    return _spair(PolynomialMode(LaurentMode(f.ring)), i, f, g, v)


def _spair(adapter, label, f, g, v) -> LaurentPoly:
    """S(label, f, g, v) = lc_g*X^(v - lm_f)*f - lc_f*X^(v - lm_g)*g of two
    bodies at a collision monomial v, checked to lie strictly below
    lc_f*lc_g*X^v under the adapter's ``term_key``.  The leading data come
    from the adapter's reducer table (``reduction``), and v must lie in both
    shifted modules by the adapter's ``member`` test.

    It is built in one pass over the two supports into one term dict, with
    no intermediate polynomial per multiple.  Below a finite cap it drops
    the terms at or above the cap from each shifted multiple, then from the
    sum, as the composition of ``CappedSeries.term_mul`` and subtraction
    does: cutting only the sum would keep a term that lies at or above the
    cap in one multiple and below it in the other with both parts, and
    change its coefficient."""
    lmf, lcf = _memoized(adapter._leads, f, label, adapter.cone_leading)
    lmg, lcg = _memoized(adapter._leads, g, label, adapter.cone_leading)
    tf, tg = vsub(v, lmf), vsub(v, lmg)
    for h, t in ((f, tf), (g, tg)):
        if not adapter.member(h, t, label):
            raise RingError(f"{v} is not a collision monomial for cone {label}")
    term_key, bound = adapter.term_key, adapter.bound
    terms, keys = {}, {}
    for h, shift, coef in ((f, tf, lcg), (g, tg, -lcf)):
        for e, c in h.terms_unordered():
            e = vadd(e, shift)
            c = c * coef
            key = term_key(c, e)
            if -key[0] >= bound:
                continue
            old = terms.get(e)
            if old is not None:
                # each multiple has e at most once, so this is its last part
                c = old + c
                key = None if c.is_zero() else term_key(c, e)
                if key is None or -key[0] >= bound:
                    del terms[e], keys[e]
                    continue
            terms[e], keys[e] = c, key
    if keys and max(keys.values()) >= term_key(lcf * lcg, v):
        raise AssertionError(f"S-pair at {v} does not drop below its bound")
    return LaurentPoly(adapter.mode.ring, terms)


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


def _generators(gens):
    """The distinct generators of ``gens``, their input positions and a
    Buchberger adapter."""
    basis, positions = _distinct(gens, RingError, "generators must be nonzero")
    return basis, positions, PolynomialMode(LaurentMode(basis[0].ring))


def _u_set(adapter, f, g, label):
    """U_label of the bodies f and g: M_label(f) meets M_label(g)."""
    return cone_module(adapter, f, label).intersection(cone_module(adapter, g, label))


def _collisions(adapter, basis, a, b, chain):
    """(label, v, skip) for each collision generator v of basis[a] and
    basis[b], label by label in collision order; ``skip`` says whether
    ``chain`` (a ``_Chain``, or None for an exhaustive scan) skips the
    S-pair."""
    for label in adapter.labels:
        if chain is None:
            for v in _u_set(adapter, basis[a], basis[b], label):
                yield label, v, False
        else:
            for v in chain.u_set(a, b, label):
                yield label, v, chain.connected(a, b, label, v)


def _buchberger(basis, adapter, cfg: GBConfig, chain=None):
    """Close ``basis`` (validated, extended in place) under S-pair
    remainders, skipping S-pairs by ``chain`` (see ``_collisions``);
    returns the stats and, per added element, ``(a, b, label, v,
    quotient term dicts)``."""
    stats = GBStats()
    records = []
    queue = deque(combinations(range(len(basis)), 2))
    while queue:
        a, b = queue.popleft()
        stats.pairs_processed += 1
        for label, v, skip in _collisions(adapter, basis, a, b, chain):
            if skip:
                stats.spairs_skipped += 1
                continue
            s = _spair(adapter, label, basis[a], basis[b], v)
            if s.is_zero():
                stats.zero_reductions += 1
                continue
            quotients, r = _divide(s, basis, adapter)
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


def _criterion(basis, positions, adapter, chain=None):
    """(flag, certificate): whether every S-pair of ``basis`` reduces to
    zero; the certificate names the first failing (label, a, b, v), with
    a and b the input positions.  ``chain`` (a ``_Chain``) skips S-pairs by
    the chain criterion of the module docstring; the skipped ones before a
    failing S-pair are divided before it is reported."""

    def fails(a, b, label, v):
        s = _spair(adapter, label, basis[a], basis[b], v)
        return not s.is_zero() and not _divide(s, basis, adapter)[1].is_zero()

    skipped = []
    for a, b in combinations(range(len(basis)), 2):
        for label, v, skip in _collisions(adapter, basis, a, b, chain):
            if skip:
                skipped.append((a, b, label, v))
            elif fails(a, b, label, v):
                a, b, label, v = next((p for p in skipped if fails(*p)), (a, b, label, v))
                return False, (label, positions[a], positions[b], v)
    return True, None


class _Chain:
    """Chain-criterion state of one Laurent Buchberger run or criterion
    check: per (label, v), a union-find over E = {h : v in M_label(h)},
    seeded with the free edges (module docstring), and the collision
    generators per index pair.  The loop appends to ``basis``; a union-find
    takes in the new elements of E the next time it is asked."""

    __slots__ = ("basis", "adapter", "_groups", "_u")

    def __init__(self, basis, adapter: PolynomialMode):
        self.basis = basis
        self.adapter = adapter
        self._groups = {}
        self._u = {}

    def u_set(self, x, y, label):
        """U_label of basis[x] and basis[y], x < y, memoized for the call."""
        key = (x, y, label)
        u = self._u.get(key)
        if u is None:
            u = self._u[key] = _u_set(self.adapter, self.basis[x], self.basis[y], label)
        return u

    def connected(self, a, b, label, v) -> bool:
        """Whether S(a, b, label, v) may be skipped; if not, the caller
        processes the S-pair, and it joins a and b (a failing one ends the
        check)."""
        parent = self._group(a, b, label, v)
        if parent is None:
            return False
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            return True
        parent[ra] = rb
        return False

    def _group(self, a, b, label, v):
        """The union-find of (label, v) over E and its free edges, brought
        up to the current basis, or None while no element besides a and b
        has v in its module (nothing to chain)."""
        adapter, basis = self.adapter, self.basis
        parent, start = self._groups.get((label, v), (None, 0))
        if start == len(basis):
            return parent
        new = [
            h for h in range(start, len(basis))
            if h == a or h == b or v in cone_module(adapter, basis[h], label)
        ]
        if parent is None:
            if len(new) == 2:
                return None
            parent = {}
        self._groups[(label, v)] = (parent, len(basis))
        cone = adapter.mode.ring.order.decomposition[label]
        for y in new:
            members = list(parent)
            parent[y] = y
            for x in members:
                if any(w != v and cone.contains(vsub(v, w)) for w in self.u_set(x, y, label)):
                    parent[_find(parent, x)] = _find(parent, y)
        return parent


def _find(parent, x):
    """The root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _expand_provenance(inputs, basis, records, adapter, verify):
    """Each basis element as a combination of the input bodies, expanded
    from the loop's records.  Each added element h is checked against the
    exact sum of its combination, ``verify(k, h, combo, rebuilt)`` with k
    its basis index: in the Laurent layer by ``_exact``, in the capped
    layer by ``affinoid``'s precision certificate."""
    ring = inputs[0].ring
    combos = [
        [ring.one() if j == k else ring.zero() for j in range(len(inputs))]
        for k in range(len(inputs))
    ]
    for k, (a, b, label, v, quotients) in enumerate(records, len(inputs)):
        lmf, lcf = adapter.cone_leading(basis[a], label)
        lmg, lcg = adapter.cone_leading(basis[b], label)
        combo = [
            cf.term_mul(vsub(v, lmf), lcg) - cg.term_mul(vsub(v, lmg), lcf)
            for cf, cg in zip(combos[a], combos[b])
        ]
        for q, row in zip(quotients, combos):
            q = LaurentPoly(ring, q)
            combo = [c - q * rc for c, rc in zip(combo, row)]
        rebuilt = ring.zero()
        for c, gen in zip(combo, inputs):
            rebuilt = rebuilt + c * gen
        verify(k, basis[k], combo, rebuilt)
        combos.append(combo)
    return combos


def _exact(k, h, combo, rebuilt):
    """The Laurent check of ``_expand_provenance``: the identity is exact."""
    if rebuilt != h:
        raise ArithmeticError("provenance identity failed to re-verify")


def _normalized(basis, combos, lc):
    """The basis and combinations scaled to leading coefficient 1; ``lc(h)``
    is the leading coefficient of h."""
    invs = [lc(h).inv() for h in basis]
    return (
        [h * inv for h, inv in zip(basis, invs)],
        [[c * inv for c in combo] for combo, inv in zip(combos, invs)],
    )


def buchberger(gens, cfg: GBConfig | None = None) -> GBResult:
    """Buchberger's algorithm, skipping S-pairs by the chain criterion
    (module docstring); the output contains the generators as given and
    every criterion S-pair of the output reduces to zero by it."""
    cfg = cfg or GBConfig()
    basis, _, adapter = _generators(gens)
    inputs = list(basis)
    stats, records = _buchberger(basis, adapter, cfg, _Chain(basis, adapter))
    combos = _expand_provenance(inputs, basis, records, adapter, _exact)
    if cfg.normalize:
        basis, combos = _normalized(basis, combos, lambda h: h.leading_data()[1])
    return GBResult(basis, stats, combos)


def is_groebner(H):
    """Criterion check: every S-pair at every collision monomial of every
    cone reduces to zero, those the chain criterion skips (module
    docstring) included.  Returns (flag, certificate); the certificate
    names the first failing (cone, f-index, g-index, v), indices into H,
    in the order of the exhaustive scan."""
    basis, positions, adapter = _generators(H)
    return _criterion(basis, positions, adapter, _Chain(basis, adapter))


def _require_groebner(G):
    ok, cert = is_groebner(G)
    if not ok:
        raise RingError(f"not a Groebner basis; first failing S-pair {cert}")


def ideal_membership(f: LaurentPoly, G, trusted: bool = False) -> bool:
    """Whether f lies in the ideal generated by the Groebner basis G."""
    if not trusted:
        _require_groebner(G)
    return reduce(f, list(G)).remainder.is_zero()


def same_ideal(A, B) -> bool:
    """Whether the Groebner bases A and B generate the same ideal: each
    element of either reduces to zero by the other.  Raises RingError when
    either fails the criterion check, since division by a non-basis
    decides no membership."""
    _require_groebner(A)
    _require_groebner(B)
    return all(ideal_membership(f, B, trusted=True) for f in A) and all(
        ideal_membership(f, A, trusted=True) for f in B
    )
