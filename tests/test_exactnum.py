import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from mpmath import iv

from orbitweil.exactnum import (
    LogMag,
    Place,
    QuadField,
    UndecidableComparison,
    ValuationOfZero,
    FieldMismatch,
    abs_value,
    factorize,
    hensel_sqrt,
    integer_nth_root,
    is_prime,
    legendre,
    logmag_sum,
    padic_valuation,
    places_above,
    rational_support,
    sqrt_mod,
)

INF = Place.archimedean()


def test_padic_valuation_examples():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(1, 5) == 0
    assert padic_valuation(Fraction(9, 14), 7) == -1
    assert padic_valuation(Fraction(9, 14), 3) == 2
    with pytest.raises(ValuationOfZero):
        padic_valuation(0, 3)
    with pytest.raises(ValueError):
        padic_valuation(5, 4)


def test_abs_value_rational():
    assert abs_value(12, Place.finite(2)) == LogMag.exact(Fraction(1, 4))
    assert abs_value(12, INF) == LogMag.exact(12)
    assert abs_value(Fraction(-9, 14), INF) == LogMag.exact(Fraction(9, 14))
    assert abs_value(Fraction(9, 14), Place.finite(7)) == LogMag.exact(7)
    with pytest.raises(ValuationOfZero):
        abs_value(0, INF)


def test_product_formula_exact():
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        total = logmag_sum(
            [abs_value(q, INF)] + [abs_value(q, Place.finite(p)) for p in rational_support(q)]
        )
        assert total == LogMag.zero()


def test_splitting_classification():
    F2 = QuadField(2)
    assert [w.ext.kind for w in places_above(Place.finite(7), F2)] == ["split", "split"]
    assert [w.ext.kind for w in places_above(Place.finite(5), F2)] == ["inert"]
    assert [w.ext.kind for w in places_above(Place.finite(2), F2)] == ["ramified"]
    assert [w.ext.kind for w in places_above(INF, F2)] == ["real", "real"]
    assert [w.ext.kind for w in places_above(INF, QuadField(-1))] == ["complex"]
    assert [w.ext.kind for w in places_above(Place.finite(2), QuadField(-7))] == ["split", "split"]
    assert [w.ext.kind for w in places_above(Place.finite(2), QuadField(-1))] == ["ramified"]
    assert [w.ext.kind for w in places_above(Place.finite(2), QuadField(5))] == ["inert"]
    # local degrees
    assert [w.local_degree for w in places_above(Place.finite(5), F2)] == [2]
    assert [w.local_degree for w in places_above(Place.finite(7), F2)] == [1, 1]


def test_abs_value_quadratic_examples():
    F = QuadField(2)
    three = F.element(3)
    w5 = places_above(Place.finite(5), F)[0]
    assert abs_value(three, w5) == LogMag.zero()
    w2 = places_above(Place.finite(2), F)[0]
    assert abs_value(F.sqrt_gen(), w2) == LogMag.exact(Fraction(1, 2), 2)
    # norm of 3+sqrt(2) is 7: exactly one split place above 7 sees it
    y = F.element(3, 1)
    w70, w71 = places_above(Place.finite(7), F)
    vals = sorted([abs_value(y, w70), abs_value(y, w71)], key=lambda t: t.to_float())
    assert vals[0] == LogMag.exact(Fraction(1, 7))
    assert vals[1] == LogMag.zero()


def test_split_conjugation_swaps_places():
    F = QuadField(2)
    rng = random.Random(3)
    w0, w1 = places_above(Place.finite(7), F)
    for _ in range(20):
        y = F.element(
            Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
            Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 9)),
        )
        if y.is_zero:
            continue
        assert abs_value(y.conjugate(), w0) == abs_value(y, w1)
        assert abs_value(y.conjugate(), w1) == abs_value(y, w0)


def test_restriction_compatibility():
    F = QuadField(2)
    q = Fraction(45, 28)
    for v in [INF, Place.finite(2), Place.finite(5), Place.finite(7)]:
        for w in places_above(v, F):
            assert abs_value(F.element(q), w) == abs_value(q, v)
            assert w.restriction == v


def _weighted_sum(y, field, places):
    parts = []
    for v in places:
        for w in places_above(v, field):
            parts.append(abs_value(y, w) * w.local_degree)
    return logmag_sum(parts)


def test_quadratic_product_formula_weighted():
    rng = random.Random(11)
    for d in (2, 5, -1, -7):
        F = QuadField(d)
        for _ in range(10):
            y = F.element(
                Fraction(rng.randint(-30, 30), rng.randint(1, 5)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 5)),
            )
            if y.is_zero:
                continue
            primes = rational_support(y.norm())
            total = _weighted_sum(y, F, [INF] + [Place.finite(p) for p in primes])
            assert abs(total.to_float()) < 1e-25
            if y.is_rational or y.a == 0:
                assert total.is_exact and total == LogMag.zero()


def test_unweighted_quadratic_sum_fails():
    # the local-degree weights are load-bearing: y = 3 in Q(sqrt(2)) has a
    # single inert place above 3 contributing only half of log|9|_3
    F = QuadField(2)
    y = F.element(3)
    w3 = places_above(Place.finite(3), F)[0]
    unweighted = logmag_sum([abs_value(y, w) for w in places_above(INF, F)] + [abs_value(y, w3)])
    assert unweighted == LogMag.exact(3)  # 2*log3 - log3 = log 3, not 0


def test_hensel_sqrt():
    for d, p, prec in [(2, 7, 10), (5, 11, 8), (-7, 11, 6), (17, 2, 12), (-7, 2, 12)]:
        s = hensel_sqrt(d, p, prec)
        assert (s * s - d) % p**prec == 0
    s = hensel_sqrt(17, 2, 12)
    assert s % 4 == 1


def test_sqrt_mod_and_legendre():
    assert legendre(2, 7) == 1
    assert legendre(2, 5) == -1
    assert sqrt_mod(2, 7) == 3
    for p in (11, 13, 10007):
        for a in (2, 3, 5, 7):
            if legendre(a, p) == 1:
                r = sqrt_mod(a, p)
                assert (r * r - a) % p == 0 and r <= p - r


def test_is_prime_and_factorize():
    assert is_prime(2) and is_prime(10007) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**64)
    fac, cof = factorize(2**10 * 3**4 * 10007)
    assert cof == 1 and fac == {2: 10, 3: 4, 10007: 1}
    p, q = 2**89 - 1, 2**107 - 1
    fac, cof = factorize(p * q, rho_steps=50)
    assert fac == {} and cof == p * q  # budget too small: exact residual kept
    fac, cof = factorize(1)
    assert fac == {} and cof == 1


def test_logmag_canonical_and_algebra():
    assert LogMag.exact(4, 2) == LogMag.exact(2)
    assert LogMag.exact(8, 2).root == 2
    assert LogMag.exact(Fraction(1, 4), 2) == LogMag.exact(Fraction(1, 2))
    a, b = LogMag.exact(2), LogMag.exact(3)
    assert a + b == LogMag.exact(6)
    assert a - b == LogMag.exact(Fraction(2, 3))
    assert -a == LogMag.exact(Fraction(1, 2))
    assert a * Fraction(3, 2) == LogMag.exact(8, 2)
    assert Fraction(1, 2) * LogMag.exact(9) == LogMag.exact(3)
    assert a * 0 == LogMag.zero()
    assert LogMag.exact(2, 2) + LogMag.exact(2, 2) == LogMag.exact(2)


def test_logmag_compare_and_ratio():
    a, b = LogMag.exact(16), LogMag.exact(4)
    assert a.compare(b) == 1 and b.compare(a) == -1
    assert a.ratio_exact(b) == 2
    assert LogMag.exact(8).ratio_exact(b) == Fraction(3, 2)
    assert LogMag.exact(Fraction(1, 4)).ratio_exact(b) == -1
    assert b.ratio_exact(b) == 1
    assert LogMag.exact(3).ratio_exact(b) is None
    # interval ratio encloses log3/log4
    lo, hi = LogMag.exact(3).ratio_interval(b)
    assert lo <= math.log(3) / math.log(4) <= hi and hi - lo < 1e-12


def test_ratio_interval_escalates_for_exact_denominators():
    # log(1 + 2^-400) is below 2^-320, so its 320-bit enclosure straddles 0
    near = LogMag.exact(Fraction(2**400 + 1, 2**400))
    lo, hi = LogMag.exact(3).ratio_interval(near)
    with mpmath.workprec(1000):
        want = mpmath.log(3) / mpmath.log(1 + mpmath.mpf(2) ** -400)
    assert lo <= want <= hi and (hi - lo) / lo < 1e-15
    assert LogMag.exact(3).ratio(near) == (None, (lo, hi))
    assert iv.prec == 320
    with pytest.raises(UndecidableComparison):
        LogMag.exact(3).ratio_interval(LogMag.zero())
    straddling = LogMag.certified(iv.mpf(["-1e-100", "1e-100"]))
    with pytest.raises(UndecidableComparison):
        LogMag.exact(3).ratio_interval(straddling)
    assert iv.prec == 320


def test_ratio_exact_decides_every_rational_ratio():
    # denominators past any fixed candidate list
    assert LogMag.exact(2**101).ratio_exact(LogMag.exact(2**67)) == Fraction(101, 67)
    c = 2**20 + 7
    assert LogMag.exact(c**1003).ratio_exact(LogMag.exact(c**1000)) == Fraction(1003, 1000)
    # negative ratios and root indices on both operands
    m = Fraction(3, 2)
    assert LogMag.exact(m**-7).ratio_exact(LogMag.exact(m**11)) == Fraction(-7, 11)
    assert LogMag.exact(m**7, 5).ratio_exact(LogMag.exact(m**-11, 3)) == Fraction(-21, 55)
    assert LogMag.exact(8, 2).ratio_exact(LogMag.exact(4, 3)) == Fraction(9, 4)
    # magnitudes so close to 1 that the first enclosure straddles 0
    near = Fraction(2**400 + 1, 2**400)
    assert LogMag.exact(near**3).ratio_exact(LogMag.exact(near**5, 7)) == Fraction(21, 5)
    assert LogMag.exact(near).ratio_exact(LogMag.exact(3)) is None
    assert LogMag.exact(3).ratio_exact(LogMag.exact(near)) is None
    # 2^a 3^b vs 2^c 3^d: rational exactly when (a, b) and (c, d) are proportional
    for a, b_, c_, d in [(5, 7, 10, 13), (1000, 1, 999, 1), (1, 0, 0, 1), (3, 2, 2, 3)]:
        assert a * d != b_ * c_
        assert LogMag.exact(2**a * 3**b_).ratio_exact(LogMag.exact(2**c_ * 3**d)) is None
    assert LogMag.exact(2**6 * 3**9).ratio_exact(LogMag.exact(2**4 * 3**6)) == Fraction(3, 2)
    # zero numerator, zero denominator, certified operand
    assert LogMag.zero().ratio_exact(LogMag.exact(5)) == 0
    assert LogMag.exact(5).ratio_exact(LogMag.zero()) is None
    cert = abs_value(QuadField(2).element(1, 1), places_above(INF, QuadField(2))[0])
    assert cert.ratio_exact(LogMag.exact(2)) is None


_rationals = st.builds(
    Fraction, st.integers(1, 10**6), st.integers(1, 10**6)
).filter(lambda c: c != 1)


@settings(max_examples=150, deadline=None)
@given(
    c=_rationals,
    p=st.integers(-60, 60),
    q=st.integers(-60, 60).filter(bool),
    r1=st.integers(1, 12),
    r2=st.integers(1, 12),
)
def test_ratio_exact_recovers_common_base_ratios(c, p, q, r1, r2):
    got = LogMag.exact(c**p, r1).ratio_exact(LogMag.exact(c**q, r2))
    assert got == Fraction(p * r2, q * r1)


@settings(max_examples=200, deadline=None)
@given(
    base=st.integers(0, 2**300),
    r=st.integers(1, 300),
    n=st.integers(0, 2**3000),
    offset=st.sampled_from([-1, 0, 1, None]),
)
def test_integer_nth_root_is_the_floor(base, r, n, offset):
    if offset is not None:
        n = max(base**r + offset, 0) if base.bit_length() * r <= 20000 else n
    x = integer_nth_root(n, r)
    assert x**r <= n < (x + 1) ** r


def _exponents(m: Fraction) -> dict:
    out = {}
    for n, sign in ((m.numerator, 1), (m.denominator, -1)):
        p = 2
        while n > 1:
            while n % p == 0:
                out[p] = out.get(p, 0) + sign
                n //= p
            p += 1
    return out


@settings(max_examples=200, deadline=None)
@given(
    m1=st.builds(Fraction, st.integers(1, 2000), st.integers(1, 2000)),
    m2=st.builds(Fraction, st.integers(1, 2000), st.integers(1, 2000)).filter(lambda m: m != 1),
)
def test_ratio_exact_matches_exponent_vectors(m1, m2):
    # by unique factorization, log m1 / log m2 is rational exactly when the
    # prime exponent vectors are proportional, and then it is their ratio
    v1, v2 = _exponents(m1), _exponents(m2)
    k = next(iter(v2))
    want = Fraction(v1.get(k, 0), v2[k])
    if any(v1.get(p, 0) != want * v2.get(p, 0) for p in v1.keys() | v2.keys()):
        want = None
    assert LogMag.exact(m1).ratio_exact(LogMag.exact(m2)) == want


def test_logmag_certified():
    F = QuadField(2)
    w = places_above(INF, F)[0]
    y = F.element(1, 1)  # 1 + sqrt(2)
    lm = abs_value(y, w)
    assert not lm.is_exact
    assert lm.err() < 1e-30
    assert abs(lm.to_float() - math.log(1 + math.sqrt(2))) < 1e-12
    # mixing exact and certified stays certified and tight
    s = lm + LogMag.exact(2)
    assert not s.is_exact and abs(s.to_float() - (math.log(1 + math.sqrt(2)) + math.log(2))) < 1e-12
    # the two real embeddings multiply to |norm| = 1
    w1 = places_above(INF, F)[1]
    total = abs_value(y, w) + abs_value(y, w1)
    assert abs(total.to_float()) < 1e-30


def test_logmag_decimal_str():
    assert LogMag.exact(2).decimal_str(12) == "0.693147180560"
    assert LogMag.zero().decimal_str(12) == "0.000000000000"
    assert (-LogMag.exact(2)).decimal_str(12) == "-0.693147180560"
    assert LogMag.exact(2**256).decimal_str(12) == "177.445678223346"


def test_quadelem_arithmetic():
    F = QuadField(5)
    y = F.element(Fraction(1, 2), Fraction(3, 2))
    assert y * y.conjugate() == F.element(y.norm())
    assert y.norm() == Fraction(1, 4) - 5 * Fraction(9, 4)
    assert (y / y) == F.element(1)
    assert y**3 == y * y * y
    z = 1 + y - 1
    assert z == y
    with pytest.raises(FieldMismatch):
        y + QuadField(2).element(1)
    with pytest.raises(ValueError):
        QuadField(12)
    with pytest.raises(ValueError):
        QuadField(1)


def test_quadelem_at_base_place_needs_extension():
    F = QuadField(2)
    with pytest.raises(FieldMismatch):
        abs_value(F.sqrt_gen(), Place.finite(7))
    # rational elements are fine at base places
    assert abs_value(F.element(Fraction(7, 2)), Place.finite(7)) == LogMag.exact(Fraction(1, 7))
