"""Exact arithmetic in valued coefficient fields.

Supported fields: the rationals with the trivial valuation, the rationals
with a p-adic valuation, and finite fields F_{p^k} (valuation identically
zero on nonzero elements).  A rational is a coprime integer pair (n, d),
d > 0, operated on by gcd arithmetic on ints as in ``fractions.Fraction``
(``payload`` gives the ``Fraction``); products, quotients and inverses
carry a known valuation over, and so does a sum of two elements whose
known valuations differ, by the ultrametric rule v(a + b) = min(v(a), v(b));
a sum of equal valuations, which may cancel, is valued lazily.  Over Q_2
a valuation counts trailing zero bits, over Q_p it divides by p.  An
element of a prime field F_p is its residue.  An extension field F_{p^k},
k >= 2, is F_p[t]/(modulus) with p^k <= 10^4; its nonzero element alpha^i
is stored as the exponent i in 1..q-1 of a primitive element alpha, so
products, inverses and negation add exponents mod q-1 and a sum is one
lookup in the Zech logarithm table (1 + alpha^d = alpha^Z(d)).  The
tables are built once per field; the coefficient vector over F_p
(``payload``) is read from them.  Zero is ``_n == 0`` in every field.
Operations compare fields by identity first.  No floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd


class FieldError(ValueError):
    """Invalid field construction or mixed-field arithmetic."""


class _PlusInfinity:
    """Singleton +infinity, used as the valuation of zero."""

    __slots__ = ()

    def __repr__(self):
        return "+inf"

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INF

    def __gt__(self, other):
        return other is not INF

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INF = _PlusInfinity()


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# -- dense polynomials over F_p, little-endian coefficient lists ------------

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pdivmod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, -1, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        c = (a[-1] * inv_lb) % p
        q[da - db] = c
        for i, bi in enumerate(b):
            a[da - db + i] = (a[da - db + i] - c * bi) % p
        _ptrim(a)
    return _ptrim(q), a


def _mulmod(a, b, modulus, p):
    """a * b modulo the defining polynomial; builds the field tables only."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _pdivmod(_ptrim([c % p for c in prod]), modulus, p)[1]


def _powmod(a, e, modulus, p):
    out = [1]
    while e:
        if e & 1:
            out = _mulmod(out, a, modulus, p)
        a, e = _mulmod(a, a, modulus, p), e >> 1
    return out


def _irreducible(modulus, p) -> bool:
    """Brute-force factor search; adequate for p**k <= 10**4."""
    k = len(modulus) - 1
    if k < 1 or modulus[-1] != 1:
        return False
    for d in range(1, k // 2 + 1):
        # all monic candidate divisors of degree d
        for idx in range(p ** d):
            cand = []
            m = idx
            for _ in range(d):
                cand.append(m % p)
                m //= p
            cand.append(1)
            _, rem = _pdivmod(list(modulus), cand, p)
            if not rem:
                return False
    return k >= 1


@cache
def _field_tables(p, k, modulus):
    """Tables of F_{p^k} = F_p[t]/(modulus), built once per field for every
    FieldSpec of it, for a primitive alpha found by the order test on the
    prime factors of q-1: ``exp[i]`` is the vector of alpha^i for i in
    1..q-1 and ``exp[0]`` the zero vector, ``log`` inverts ``exp``, and
    1 + alpha^d = alpha^zech[d] (0 when it is zero)."""
    q1, mod = p ** k - 1, list(modulus)
    primes = [r for r in range(2, q1 + 1) if q1 % r == 0 and _is_prime(r)]
    for code in range(2, q1 + 1):
        alpha = _ptrim([code // p ** i % p for i in range(k)])
        if all(_powmod(alpha, q1 // r, mod, p) != [1] for r in primes):
            break
    exp, cur = [(0,) * k], [1]
    for _ in range(q1):
        cur = _mulmod(cur, alpha, mod, p)
        exp.append(tuple(cur) + (0,) * (k - len(cur)))
    log = {v: i for i, v in enumerate(exp)}
    # alpha^d for d = 0..q-2, alpha^0 being exp[q-1]
    zech = tuple(log[((v[0] + 1) % p,) + v[1:]] for v in exp[-1:] + exp[1:-1])
    return tuple(exp), log, zech


#: defining polynomials for the small built-in extension fields,
#: little-endian with leading coefficient 1
BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),      # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),   # t^3 + t + 1
    (3, 2): (2, 1, 1),      # t^2 + t + 2
    (5, 2): (1, 1, 1),      # t^2 + t + 1
    (3, 3): (1, 2, 0, 1),   # t^3 + 2t + 1
}


class FieldSpec:
    """A coefficient field together with its valuation.

    Kinds: ``rational`` (trivial valuation), ``padic`` (rationals with the
    p-adic valuation), ``finite`` (F_{p^k}, trivial valuation).
    """

    __slots__ = ("kind", "p", "k", "modulus", "is_finite", "_exp", "_log", "_zech", "_q1", "_half")

    def __init__(self, kind: str, p: int = 0, k: int = 1, modulus=None):
        if kind not in ("rational", "padic", "finite"):
            raise FieldError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.is_finite = kind == "finite"
        self.p = p
        self.k = k
        self.modulus = None
        if kind == "rational":
            self.p = 0
            self.k = 1
        elif kind == "padic":
            if not _is_prime(p):
                raise FieldError(f"{p} is not prime")
            self.k = 1
        else:
            if not _is_prime(p):
                raise FieldError(f"{p} is not prime")
            if k < 1:
                raise FieldError("extension degree must be >= 1")
            if k == 1:
                if modulus is not None:
                    raise FieldError("prime fields take no defining polynomial")
            else:
                if p ** k > 10 ** 4:
                    raise FieldError(f"GF({p}^{k}) is too large: extension fields need p^k <= 10^4")
                if modulus is None:
                    try:
                        modulus = BUILTIN_MODULI[(p, k)]
                    except KeyError:
                        raise FieldError(
                            f"no built-in defining polynomial for GF({p}^{k}); "
                            "pass one explicitly"
                        ) from None
                modulus = tuple(int(c) % p for c in modulus[:-1]) + (1,)
                if len(modulus) != k + 1:
                    raise FieldError("defining polynomial must be monic of degree k")
                if not _irreducible(modulus, p):
                    raise FieldError(f"defining polynomial {modulus} is reducible over F_{p}")
                self.modulus = modulus
                self._exp, self._log, self._zech = _field_tables(p, k, modulus)
                # -1 = alpha^((q-1)/2), or 1 in characteristic 2
                self._q1 = p ** k - 1
                self._half = 0 if p == 2 else self._q1 // 2

    # ------------------------------------------------------------------
    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec("rational")

    @staticmethod
    def padic(p: int) -> "FieldSpec":
        return FieldSpec("padic", p)

    @staticmethod
    def finite(p: int, k: int = 1, modulus=None) -> "FieldSpec":
        return FieldSpec("finite", p, k, modulus)

    # ------------------------------------------------------------------
    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.k, self.modulus))

    def __repr__(self):
        if self.kind == "rational":
            return "Q"
        if self.kind == "padic":
            return f"Q({self.p}-adic)"
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    # -- element constructors ------------------------------------------
    def zero(self) -> "Coefficient":
        return Coefficient(self, 0)

    def one(self) -> "Coefficient":
        return self.from_int(1)

    def from_int(self, m: int) -> "Coefficient":
        if self.is_finite:
            return self.element((m,))
        return self.from_fraction(m)

    def from_fraction(self, fr: Fraction) -> "Coefficient":
        fr = Fraction(fr)
        if self.is_finite:
            num = fr.numerator % self.p
            den = fr.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return self.element((num * pow(den, -1, self.p),))
        return Coefficient(self, fr.numerator, fr.denominator)

    def element(self, vector) -> "Coefficient":
        """Finite-field element from a coefficient vector over F_p."""
        if not self.is_finite:
            raise FieldError("element vectors only apply to finite fields")
        vec = [int(c) % self.p for c in vector]
        if len(vec) > self.k:
            raise FieldError("vector longer than the extension degree")
        vec += [0] * (self.k - len(vec))
        return Coefficient(self, vec[0] if self.k == 1 else self._log[tuple(vec)])

    def generator(self) -> "Coefficient":
        """The residue of t in F_{p^k} = F_p[t]/(modulus)."""
        if not self.is_finite or self.k == 1:
            raise FieldError("only proper extension fields have a generator")
        return self.element((0, 1))


class Coefficient:
    """An element of a :class:`FieldSpec`, canonical and immutable: in Q
    and Q_p the value ``_n/_d`` in lowest terms with ``_d > 0`` (trusted,
    so build elements with the ``FieldSpec`` constructors), in F_p the
    residue ``_n``, in F_{p^k} the exponent ``_n`` in 1..q-1 of alpha (an
    exponent sum ``e`` reduces as ``e % (q-1) or q-1``), and zero is
    ``_n == 0`` everywhere.  ``_val`` is the valuation once known, else
    None."""

    __slots__ = ("spec", "_n", "_d", "_val")

    def __init__(self, spec: FieldSpec, n, d: int = 1, val=None):
        self.spec = spec
        self._n = n
        self._d = d
        self._val = val

    @property
    def payload(self):
        """The value: a ``Fraction`` in Q and Q_p, the vector in F_{p^k}."""
        spec = self.spec
        if not spec.is_finite:
            return Fraction(self._n, self._d)
        return (self._n,) if spec.k == 1 else spec._exp[self._n]

    # ------------------------------------------------------------------
    def _check(self, other: "Coefficient") -> None:
        if not isinstance(other, Coefficient):
            raise FieldError(f"expected a Coefficient, got {type(other).__name__}")
        if self.spec != other.spec:
            raise FieldError(f"mixed fields: {self.spec} and {other.spec}")

    def is_zero(self) -> bool:
        return self._n == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, Coefficient)
            and self.spec == other.spec
            and self._n == other._n
            and self._d == other._d
        )

    def __hash__(self):
        return hash((self.spec, self.payload))

    # -- ring operations ------------------------------------------------
    def __add__(self, other):
        spec = self.spec
        if other.__class__ is not Coefficient or other.spec is not spec:
            self._check(other)
        if spec.is_finite:
            a, b = self._n, other._n
            if spec.k == 1:
                return Coefficient(spec, (a + b) % spec.p)
            if not a or not b:
                return self if b == 0 else other
            # alpha^a + alpha^b = alpha^a (1 + alpha^(b-a)); b - a < 0 wraps mod q-1
            z = spec._zech[b - a]
            return Coefficient(spec, z and ((a + z) % spec._q1 or spec._q1))
        # na/da + nb/db reduced by gcds, as in Fraction (Knuth 4.5.1)
        na, da, nb, db = self._n, self._d, other._n, other._d
        g = gcd(da, db)
        s = da // g
        t = na * (db // g) + nb * s
        g = gcd(t, g)
        # ultrametric: v(a + b) = min(v(a), v(b)) when the two differ
        va, vb = self._val, other._val
        val = None if va is None or vb is None or va == vb else (va if va < vb else vb)
        return Coefficient(spec, t // g, s * (db // g), val)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        spec, a = self.spec, self._n
        if not spec.is_finite:
            return Coefficient(spec, -a, self._d, self._val)
        if spec.k == 1:
            return Coefficient(spec, -a % spec.p)
        return Coefficient(spec, a and ((a + spec._half) % spec._q1 or spec._q1))

    def __mul__(self, other):
        spec = self.spec
        if other.__class__ is not Coefficient or other.spec is not spec:
            self._check(other)
        if not spec.is_finite:
            na, da, nb, db = self._n, self._d, other._n, other._d
            g, h = gcd(na, db), gcd(nb, da)
            va, vb = self._val, other._val
            val = None if va is None or vb is None else va + vb
            return Coefficient(spec, (na // g) * (nb // h), (da // h) * (db // g), val)
        a, b = self._n, other._n
        if spec.k == 1:
            return Coefficient(spec, a * b % spec.p)
        return Coefficient(spec, a and b and ((a + b) % spec._q1 or spec._q1))

    def inv(self) -> "Coefficient":
        spec = self.spec
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if not spec.is_finite:
            sign = -1 if self._n < 0 else 1
            val = None if self._val is None else -self._val
            return Coefficient(spec, sign * self._d, sign * self._n, val)
        if spec.k == 1:
            return Coefficient(spec, pow(self._n, -1, spec.p))
        return Coefficient(spec, spec._q1 - self._n or spec._q1)

    def __truediv__(self, other):
        if other.__class__ is not Coefficient or other.spec is not self.spec:
            self._check(other)
        return self * other.inv()

    # ------------------------------------------------------------------
    def valuation(self):
        """Valuation, an int, plus the distinguished +inf for zero."""
        if self._val is not None:
            return self._val
        if self.is_zero():
            self._val = INF
        elif self.spec.kind != "padic":
            self._val = 0
        elif self.spec.p == 2:
            # trailing zero bits; n & -n is the lowest set bit of n
            num, den = self._n, self._d
            self._val = (num & -num).bit_length() - (den & -den).bit_length()
        else:
            p = self.spec.p
            num, den, v = self._n, self._d, 0
            while num % p == 0:
                num //= p
                v += 1
            while den % p == 0:
                den //= p
                v -= 1
            self._val = v
        return self._val

    def __repr__(self):
        if self.spec.is_finite:
            return f"{self.payload}@{self.spec!r}"
        return f"{self.payload}"
