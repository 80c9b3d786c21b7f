import itertools
import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import field_vectors, ref_add, ref_inv, ref_mul, ref_neg
from lgb.coeffs import BUILTIN_MODULI, INF, Coefficient, FieldError, FieldSpec
from lgb.laurent import LaurentPoly, RingError


def test_rational_arithmetic():
    q = FieldSpec.rational()
    half = q.from_fraction(Fraction(1, 2))
    third = q.from_fraction(Fraction(1, 3))
    assert (half + third).payload == Fraction(5, 6)
    assert (half - half).is_zero()
    assert (half * third).payload == Fraction(1, 6)
    assert (half / third).payload == Fraction(3, 2)


def test_gf9_generator_square():
    f9 = FieldSpec.finite(3, 2)
    a = f9.generator()
    # a^2 reduces by the defining polynomial t^2 + t + 2: a^2 = -a - 2 = 2a + 1
    assert (a * a).payload == (1, 2)


def test_gf7_inverse():
    f7 = FieldSpec.finite(7)
    two = f7.from_int(2)
    assert two.inv().payload == (4,)
    assert (two * two.inv()).payload == (1,)


def test_padic_valuations():
    q2 = FieldSpec.padic(2)
    assert q2.from_fraction(Fraction(4, 3)).valuation() == 2
    assert q2.from_fraction(Fraction(1, 2)).valuation() == -1
    assert q2.zero().valuation() is INF
    assert q2.from_int(7).valuation() == 0


def test_trivial_and_finite_valuations():
    assert FieldSpec.rational().from_int(6).valuation() == 0
    assert FieldSpec.finite(5).from_int(3).valuation() == 0
    assert FieldSpec.finite(3, 2).element((1, 2)).valuation() == 0
    assert FieldSpec.finite(3, 2).zero().valuation() is INF


def test_infinity_ordering():
    assert INF > Fraction(10**9)
    assert not INF < Fraction(0)
    assert Fraction(3) < INF
    assert min(Fraction(2), INF) == Fraction(2)
    assert INF + Fraction(5) is INF


def test_mismatched_fields_rejected():
    q = FieldSpec.rational()
    f7 = FieldSpec.finite(7)
    with pytest.raises(FieldError):
        q.one() + f7.one()


def test_division_by_zero():
    q = FieldSpec.rational()
    with pytest.raises(ZeroDivisionError):
        q.one() / q.zero()
    with pytest.raises(ZeroDivisionError):
        FieldSpec.finite(3, 2).zero().inv()


def test_bad_field_constructions():
    with pytest.raises(FieldError):
        FieldSpec.padic(6)
    with pytest.raises(FieldError):
        FieldSpec.finite(4)
    with pytest.raises(FieldError):
        # t^2 + t + 1 has the root 1 over F_3
        FieldSpec.finite(3, 2, (1, 1, 1))


def test_builtin_moduli_are_irreducible():
    for (p, k) in BUILTIN_MODULI:
        spec = FieldSpec.finite(p, k)
        a = spec.generator()
        # the generator is invertible, so the modulus has no root at zero
        assert not a.is_zero()
        assert (a * a.inv()).payload == (1,) + (0,) * (k - 1)


def _elements(spec, rng, count):
    out = []
    for _ in range(count):
        if spec.is_finite:
            out.append(spec.element(tuple(rng.randrange(spec.p) for _ in range(spec.k))))
        else:
            num = rng.randint(-50, 50)
            den = rng.randint(1, 20)
            out.append(spec.from_fraction(Fraction(num, den)))
    return out


@pytest.mark.parametrize(
    "spec",
    [FieldSpec.rational(), FieldSpec.padic(2), FieldSpec.finite(7), FieldSpec.finite(3, 2)],
    ids=["Q", "Q2", "GF7", "GF9"],
)
def test_valuation_laws_random(spec):
    rng = random.Random(1001)
    pairs = zip(_elements(spec, rng, 1000), _elements(spec, rng, 1000))
    for a, b in pairs:
        va, vb = a.valuation(), b.valuation()
        prod = a * b
        if a.is_zero() or b.is_zero():
            assert prod.valuation() is INF
        else:
            assert prod.valuation() == va + vb
        s = a + b
        vs = s.valuation()
        assert vs >= min(va, vb) or vs is INF
        if va != vb and not (va is INF or vb is INF):
            assert vs == min(va, vb)


@pytest.mark.parametrize(
    "spec",
    [FieldSpec.rational(), FieldSpec.padic(3), FieldSpec.finite(5), FieldSpec.finite(2, 3)],
    ids=["Q", "Q3", "GF5", "GF8"],
)
def test_field_axioms_random(spec):
    rng = random.Random(77)
    for _ in range(200):
        a, b, c = _elements(spec, rng, 3)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == spec.zero()
        if not a.is_zero():
            assert a * a.inv() == spec.one()


def _rationals(rng, count):
    """Zero, units, negatives and values of a hundred-odd bits."""
    out = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2**70, 3**40), Fraction(-(3**50), 2**61)]
    while len(out) < count:
        num = rng.choice((rng.randint(-60, 60), rng.randint(-(10**30), 10**30), 0))
        den = rng.choice((1, rng.randint(1, 64), rng.randint(1, 10**25)))
        out.append(Fraction(num, den))
    return out


def _padic_valuation(x, p):
    if x == 0:
        return INF
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _assert_matches(spec, c, x):
    """c is the canonical element for the Fraction x: the coprime pair with
    a positive denominator, compared with the from_fraction element."""
    assert c.payload == x and type(c.payload) is Fraction
    assert c._d > 0 and gcd(c._n, c._d) == 1
    ref = spec.from_fraction(x)
    assert c == ref and hash(c) == hash(ref) == hash((spec, x))
    # a valuation carried over by the operation equals the recomputed one
    expected = _padic_valuation(x, spec.p) if spec.kind == "padic" else (INF if x == 0 else 0)
    assert c.valuation() == expected and ref.valuation() == expected


@pytest.mark.parametrize("spec", [FieldSpec.rational(), FieldSpec.padic(2)], ids=["Q", "Q2"])
def test_rational_arithmetic_matches_fraction(spec):
    rng = random.Random(4242)
    values = _rationals(rng, 60)
    for x in values:
        a = spec.from_fraction(x)
        _assert_matches(spec, a, x)
        _assert_matches(spec, -a, -x)
        if x:
            _assert_matches(spec, a.inv(), 1 / x)
        else:
            with pytest.raises(ZeroDivisionError):
                a.inv()
    for x, y in itertools.product(values, repeat=2):
        a, b = spec.from_fraction(x), spec.from_fraction(y)
        if rng.random() < 0.5:
            # known operand valuations are propagated, unknown ones are not
            a.valuation()
            b.valuation()
        _assert_matches(spec, a + b, x + y)
        _assert_matches(spec, a - b, x - y)
        _assert_matches(spec, a * b, x * y)
        if y:
            _assert_matches(spec, a / b, x / y)
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
        assert (a == b) == (x == y)


def test_padic_valuation_propagates_through_products():
    q2 = FieldSpec.padic(2)
    a, b, z = q2.from_fraction(Fraction(12, 5)), q2.from_fraction(Fraction(3, 8)), q2.zero()
    a.valuation(), b.valuation(), z.valuation()
    for c, v in ((a * b, 2 - 3), (a / b, 2 + 3), (b.inv(), 3), (-a, 2), (a * z, INF), (z / b, INF)):
        assert c._val == v
        assert c.valuation() == v


def _padic_pairs(p, rng, count):
    """Pairs of Fractions for a sum over Q_p: zero operands, independent
    values of either sign up to 2^200 in numerator and denominator, equal
    valuations whose sum cancels leading digits, equal valuations in
    general, and exact negatives."""

    def unit():
        while True:
            n = rng.randint(1, 2 ** rng.choice((6, 64, 200)))
            if n % p:
                return n

    def value(v=None):
        v = rng.randint(-40, 40) if v is None else v
        return Fraction(rng.choice((1, -1)) * unit(), unit()) * Fraction(p) ** v

    pairs = []
    while len(pairs) < count:
        kind = rng.randrange(5)
        x = value()
        if kind == 0:
            pairs.append(rng.choice(((x, Fraction(0)), (Fraction(0), x), (Fraction(0), Fraction(0)))))
        elif kind == 1:
            pairs.append((x, value()))
        elif kind == 2:
            # v(y) = v(x), and x + y has valuation v(x) + j
            j = rng.randint(1, 60)
            pairs.append((x, -x + value(_padic_valuation(x, p) + j)))
        elif kind == 3:
            pairs.append((x, value(_padic_valuation(x, p))))
        else:
            pairs.append((x, -x))
    return pairs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sum_carries_the_ultrametric_valuation(p):
    # a + b carries min(v(a), v(b)) when both are known and differ, and
    # stays lazy otherwise; a carried valuation is the one recomputed fresh
    spec = FieldSpec.padic(p)
    rng = random.Random(2019 + p)
    carried = 0
    for x, y in _padic_pairs(p, rng, 1500):
        a, b = spec.from_fraction(x), spec.from_fraction(y)
        for c in (a, b):
            if rng.random() < 0.75:
                c.valuation()
        va, vb = a._val, b._val
        for s, want in ((a + b, x + y), (a - b, x - y)):
            assert s.payload == want
            if s._val is not None:
                carried += 1
                assert s._val == Coefficient(spec, s._n, s._d).valuation()
                assert s._val == _padic_valuation(want, p)
        s = a + b
        known = va is not None and vb is not None
        assert (s._val is not None) == (known and va != vb), (x, y, va, vb)
    assert carried > 500


def test_q2_valuation_counts_trailing_bits_as_the_division_loop():
    # the bit count of Q_2 against the reference loop of _padic_valuation,
    # on fresh elements of either sign, with 2-power numerator or denominator
    spec = FieldSpec.padic(2)
    rng = random.Random(2)
    values = [x for pair in _padic_pairs(2, rng, 600) for x in pair]
    values += [Fraction(2**k) for k in range(201)] + [Fraction(-1, 2**k) for k in range(201)]
    for x in values:
        assert spec.from_fraction(x).valuation() == _padic_valuation(x, 2), x


def test_mixed_fields_raise_in_every_operation():
    q, q2, q3, f7 = FieldSpec.rational(), FieldSpec.padic(2), FieldSpec.padic(3), FieldSpec.finite(7)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for s, t in ((q, q2), (q2, q), (q2, q3), (q, f7), (f7, q2)):
        for op in ops:
            with pytest.raises(FieldError):
                op(s.from_int(3), t.from_int(5))
    for op in ops:
        with pytest.raises(FieldError):
            op(q.from_int(3), 5)
    # equal fields held in distinct objects mix freely
    assert FieldSpec.padic(2).from_int(3) * FieldSpec.padic(2).from_int(5) == q2.from_int(15)


def test_laurent_poly_rejects_a_coefficient_of_another_field(q_ring2):
    with pytest.raises(RingError):
        LaurentPoly(q_ring2, {(0, 0): FieldSpec.padic(2).one()})
    with pytest.raises(FieldError):
        q_ring2.one() * FieldSpec.finite(7).one()
    assert LaurentPoly(q_ring2, {(0, 0): FieldSpec.rational().one()}) == q_ring2.one()


@pytest.mark.parametrize(
    "p, k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 1)], ids=["GF4", "GF8", "GF9", "GF25", "GF27", "GF7"]
)
def test_finite_field_exhaustive_against_vectors(p, k):
    spec = FieldSpec.finite(p, k)
    vectors = field_vectors(spec)
    zero, one = vectors[0], vectors[1]
    elems = [spec.element(v) for v in vectors]
    inverses = {v: ref_inv(spec, v) for v in vectors[1:]}

    def matches(c, vector):
        ref = spec.element(vector)
        return c.payload == vector and c == ref and hash(c) == hash(ref) == hash((spec, vector))

    for v, a in zip(vectors, elems):
        assert matches(a, v) and spec.element(a.payload) == a
        assert matches(-a, ref_neg(spec, v))
        assert a.is_zero() == (v == zero)
        if v in inverses:
            assert matches(a.inv(), inverses[v])
        else:
            with pytest.raises(ZeroDivisionError):
                a.inv()
    for (v, a), (w, b) in itertools.product(zip(vectors, elems), repeat=2):
        assert matches(a + b, ref_add(spec, v, w))
        assert matches(a - b, ref_add(spec, v, ref_neg(spec, w)))
        assert matches(a * b, ref_mul(spec, v, w))
        if w in inverses:
            assert matches(a / b, ref_mul(spec, v, inverses[w]))
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
        assert (a == b) == (v == w)
    # the primitive element behind the logarithms has order q - 1
    if k > 1:
        alpha = power = spec._exp[1]
        for i in range(1, p ** k - 1):
            assert power == spec._exp[i] and power != one
            power = ref_mul(spec, power, alpha)
        assert power == one == spec._exp[p ** k - 1]


def test_extension_fields_are_bounded():
    # 3^9 = 19683 and 101^2 = 10201 exceed 10^4, irreducible moduli or not
    for p, k, modulus in ((3, 9, (1, 2) + (0,) * 7 + (1,)), (101, 2, (2, 0, 1)), (2, 14, None)):
        with pytest.raises(FieldError):
            FieldSpec.finite(p, k, modulus)
    # the largest sizes below the bound build their tables: t^2 - 5 over F_97
    f = FieldSpec.finite(97, 2, (92, 0, 1))
    a = f.generator()
    assert (a * a).payload == (5, 0) and (a / a) == f.one()
    assert (a + f.from_int(96)).payload == (96, 1) and (-a).payload == (0, 96)
