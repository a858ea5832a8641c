import copy
import functools
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from local_oracle import abs_quad, rational_support, sqrt_mod
from orbitweil import exactnum
from orbitweil.exactnum import (
    ExactnumError,
    LogMag,
    Place,
    PrecisionExhausted,
    QuadElem,
    QuadField,
    UndecidableComparison,
    ValuationOfZero,
    FieldMismatch,
    abs_value,
    bareiss,
    decimal_fraction,
    factorize,
    integer_nth_root,
    integer_normal_form,
    is_prime,
    legendre,
    logmag_sum,
    padic_valuation,
    places_above,
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


@settings(max_examples=200, deadline=None)
@given(
    exps=st.dictionaries(st.sampled_from([2, 3, 5, 7, 97, 997]), st.integers(-12, 12)),
    big=st.sampled_from([1009, 999983, 2**61 - 1]),  # a leftover that factorize proves prime
    big_exp=st.sampled_from([-1, 0, 1]),
    negative=st.booleans(),
)
def test_product_formula_over_q(exps, big, big_exp, negative):
    exps = {**exps, big: big_exp}
    q = math.prod((Fraction(p) ** e for p, e in exps.items()), start=Fraction(-1 if negative else 1))
    support = rational_support(q)
    assert support == sorted(p for p, e in exps.items() if e)
    finite = [abs_value(q, Place.finite(p)) for p in support]
    assert finite == [LogMag.exact(Fraction(p) ** -exps[p]) for p in support]
    assert logmag_sum([abs_value(q, INF)] + finite) == LogMag.zero()


def test_splitting_classification():
    F2 = QuadField(2)
    assert [w.kind for w in places_above(Place.finite(7), F2)] == ["split", "split"]
    assert [w.kind for w in places_above(Place.finite(5), F2)] == ["inert"]
    assert [w.kind for w in places_above(Place.finite(2), F2)] == ["ramified"]
    assert [w.kind for w in places_above(INF, F2)] == ["real", "real"]
    assert [w.kind for w in places_above(INF, QuadField(-1))] == ["complex"]
    assert [w.kind for w in places_above(Place.finite(2), QuadField(-7))] == ["split", "split"]
    assert [w.kind for w in places_above(Place.finite(2), QuadField(-1))] == ["ramified"]
    assert [w.kind for w in places_above(Place.finite(2), QuadField(5))] == ["inert"]
    # local degrees
    assert [w.local_degree for w in places_above(Place.finite(5), F2)] == [2]
    assert [w.local_degree for w in places_above(Place.finite(7), F2)] == [1, 1]


@pytest.mark.parametrize("d", [2, 3, 5, 17, -1, -7])
def test_a_place_takes_its_kind_from_its_field_and_prime(d):
    F = QuadField(d)
    for p in [None] + [p for p in range(2, 60) if is_prime(p)]:
        above = places_above(Place(p), F)
        two = above[0].kind in ("split", "real")
        assert above[0] == Place(p, F) and len(above) == 1 + two
        if two:
            assert Place(p, F, 1) == above[1]
        else:
            with pytest.raises(ValueError):
                Place(p, F, 1)
        for index in (2, -1):
            with pytest.raises(ValueError):
                Place(p, F, index)
        with pytest.raises(ValueError):
            Place(p, None, 1)


def test_fields_and_places_are_interned():
    F = QuadField(2)
    assert QuadField(2) is F
    assert Place(7, QuadField(2)) is Place(7, QuadField(2))
    assert Place.finite(7) is Place(7) and Place.archimedean() is Place(None)
    for v in (Place.finite(7), Place.finite(5), INF):
        expected = [Place(v.p, F)] + ([Place(v.p, F, 1)] if Place(v.p, F).kind in ("split", "real") else [])
        assert all(w is e for w, e in zip(places_above(v, F), expected, strict=True))
    for obj in (F, Place(7, F, 1), Place(5, F), Place.finite(3), INF):
        assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
        assert pickle.loads(pickle.dumps(obj)) is obj
    # an interned instance is shared, so it cannot be changed
    with pytest.raises(AttributeError):
        F.d = 3
    with pytest.raises(AttributeError):
        del Place.finite(7).p


def test_a_refused_field_or_place_is_not_kept():
    F = QuadField(2)
    kept = (len(exactnum._FIELDS), len(exactnum._PLACES))
    # refused twice: the first refusal leaves nothing behind to return
    for _ in range(2):
        for args in ((4,), (1,), (7, None, 1), (5, F, 1), (7, F, 2)):
            with pytest.raises(ValueError):
                Place(*args)
        for d in (12, 1):
            with pytest.raises(ValueError):
                QuadField(d)
    assert (len(exactnum._FIELDS), len(exactnum._PLACES)) == kept


def test_abs_value_quadratic_examples():
    # abs_quad is the tests' reference; weil builds its local terms on ints
    F = QuadField(2)
    three = F.element(3)
    w5 = places_above(Place.finite(5), F)[0]
    assert abs_quad(three, w5) == LogMag.zero()
    w2 = places_above(Place.finite(2), F)[0]
    assert abs_quad(F.sqrt_gen(), w2) == LogMag.exact(Fraction(1, 2), 2)
    # norm of 3+sqrt(2) is 7: exactly one split place above 7 sees it
    y = F.element(3, 1)
    w70, w71 = places_above(Place.finite(7), F)
    vals = sorted([abs_quad(y, w70), abs_quad(y, w71)], key=lambda t: t.to_float())
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
        if not y:
            continue
        assert abs_quad(y.conjugate(), w0) == abs_quad(y, w1)
        assert abs_quad(y.conjugate(), w1) == abs_quad(y, w0)


def test_restriction_compatibility():
    F = QuadField(2)
    q = Fraction(45, 28)
    for v in [INF, Place.finite(2), Place.finite(5), Place.finite(7)]:
        for w in places_above(v, F):
            assert abs_quad(F.element(q), w) == abs_value(q, v)
            assert Place(w.p) == v


def _weighted_sum(y, field, places):
    parts = []
    for v in places:
        for w in places_above(v, field):
            parts.append(abs_quad(y, w) * w.local_degree)
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
            if not y:
                continue
            primes = rational_support(y.norm())
            total = _weighted_sum(y, F, [INF] + [Place.finite(p) for p in primes])
            assert total == LogMag.zero()


_small_fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 5))


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 3, 5, -1, -7]), a=_small_fractions, b=_small_fractions)
def test_weighted_product_formula_is_exactly_zero(d, a, b):
    # numerators of N(y) stay below 1,000^2, so trial division finds every prime
    F = QuadField(d)
    y = F.element(a, b)
    assume(y)
    places = [INF] + [Place.finite(p) for p in rational_support(y.norm())]
    assert _weighted_sum(y, F, places) == LogMag.zero()


def test_unweighted_quadratic_sum_fails():
    # the local-degree weights are load-bearing: y = 3 in Q(sqrt(2)) has a
    # single inert place above 3 contributing only half of log|9|_3
    F = QuadField(2)
    y = F.element(3)
    w3 = places_above(Place.finite(3), F)[0]
    unweighted = logmag_sum([abs_quad(y, w) for w in places_above(INF, F)] + [abs_quad(y, w3)])
    assert unweighted == LogMag.exact(3)  # 2*log3 - log3 = log 3, not 0


def _root_of_d(d, p, k):
    """s_0 mod p^k: Newton-lifted from sqrt_mod(d, p) for odd p; for p = 2 the
    root = 1 mod 4, one bit per step (s^2 = d mod 2^(j+1) fixes s mod 2^j)."""
    if p == 2:
        s, j = 1, 2
        while j < k:
            if (s * s - d) % 2 ** (j + 2):
                s += 2**j
            j += 1
        return s % 2**k
    s, mod = sqrt_mod(d, p), p
    while mod < p**k:
        mod = min(mod * mod, p**k)
        s = (s - (s * s - d) * pow(2 * s, -1, mod)) % mod
    return s


_PRIMES_BELOW_100 = [p for p in range(100) if is_prime(p)]


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([2, 7, 17, 41, -7]),
    x=st.integers(-40, 40),
    z=st.integers(-40, 40),
    k=st.integers(1, 8),
    c=st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
)
def test_split_valuation_is_the_order_of_a_plus_b_root(d, x, z, k, c):
    # y = c (x + z sqrt d)^k; at the split place with root s_i, ord_w(y) is
    # ord_p(A + B s_i) + ord_p(c') for y = c'(A + B sqrt d), A, B coprime,
    # and ord_p(A + B s_i) <= ord_p(N) < ord_p(N) + 2 digits of s_i
    assume((x, z) != (0, 0) and c != 0)
    F = QuadField(d)
    y = F.element(c) * F.element(x, z) ** k
    (A, B), scale = integer_normal_form([y.a, y.b])
    norm = A * A - d * B * B
    for p in _PRIMES_BELOW_100:
        places = places_above(Place.finite(p), F)
        if places[0].kind != "split":
            continue
        prec = padic_valuation(norm, p) + 2
        s0 = _root_of_d(d, p, prec)
        for w, s in zip(places, (s0, p**prec - s0)):
            order = padic_valuation((A + B * s) % p**prec, p) + padic_valuation(scale, p)
            assert abs_quad(y, w) == LogMag.exact(Fraction(p) ** -order), (p, w)


def test_split_valuation_past_the_old_lifting_cap():
    # N(3 + sqrt 2) = 7 and sqrt_mod(2, 7) = 3: 3 + 3 != 0 mod 7, so all of
    # ord_7 N(y^5000) = 5000 sits at index 1
    F = QuadField(2)
    y = F.element(3, 1) ** 5000
    w0, w1 = places_above(Place.finite(7), F)
    assert abs_quad(y, w0) == LogMag.zero()
    assert abs_quad(y, w1) == LogMag.exact(Fraction(1, 7**5000))
    # N(5 + sqrt 17) = 8 and s_0 = 1 mod 4: 5 + s_0 has 2-adic order 1, 5 - s_0 order 2
    G = QuadField(17)
    u = G.element(5, 1)
    v0, v1 = places_above(Place.finite(2), G)
    assert [abs_quad(u, v) for v in (v0, v1)] == [
        LogMag.exact(Fraction(1, 2)), LogMag.exact(Fraction(1, 4))]
    u3000 = u**3000
    assert abs_quad(u3000, v0) == LogMag.exact(Fraction(1, 2**3000))
    assert abs_quad(u3000, v1) == LogMag.exact(Fraction(1, 2**6000))


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
    fac, cof = factorize(p * q)
    assert fac == {} and cof == p * q  # past trial division: exact residual kept
    fac, cof = factorize(1)
    assert fac == {} and cof == 1


def test_is_prime_agrees_with_trial_division_on_both_sides_of_the_table():
    def by_trial(n):
        return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == by_trial(n) for n in range(-5, 3000))


def test_is_prime_below_101_squared_is_trial_division_alone(monkeypatch):
    # a composite below 101^2 has a prime factor up to 97: no Miller-Rabin base runs
    calls = []
    monkeypatch.setattr(exactnum, "pow", lambda *a: calls.append(a) or pow(*a), raising=False)
    composite = {n for p in range(2, 101) for n in range(p * p, 101 * 101, p)}
    assert [n for n in range(1000, 101 * 101) if is_prime(n)] == [
        n for n in range(1000, 101 * 101) if n not in composite]
    assert calls == []
    assert is_prime(10211) and not is_prime(101 * 103) and calls  # past it, Miller-Rabin


MR_BOUND = 3_317_044_064_679_887_385_961_981  # strong pseudoprime to bases 2..41


def test_factorize_is_trial_division_plus_a_cofactor():
    # a leftover below 1000^2 is prime; one below the bound only if proved prime
    assert factorize(2**3 * 999983) == ({2: 3, 999983: 1}, 1)
    assert factorize(7 * (2**61 - 1)) == ({7: 1, 2**61 - 1: 1}, 1)
    assert factorize(1009 * 1013) == ({}, 1009 * 1013)
    assert factorize(3 * 1009**2) == ({3: 1}, 1009**2)
    # at and past the bound no primality test runs, prime or not
    assert factorize(MR_BOUND) == ({}, MR_BOUND)
    assert factorize(5 * (2**89 - 1)) == ({5: 1}, 2**89 - 1)


def test_is_prime_refuses_at_the_deterministic_bound():
    largest = 3_317_044_064_679_887_385_961_813  # the largest prime below the bound
    assert is_prime(largest)
    assert not any(is_prime(n) for n in range(largest + 1, MR_BOUND))
    for n in (MR_BOUND, MR_BOUND + 2, 2**89 - 1):
        with pytest.raises(ExactnumError, match="cannot prove"):
            is_prime(n)
    with pytest.raises(ExactnumError):
        Place.finite(2**89 - 1)
    with pytest.raises(ExactnumError):
        padic_valuation(6, MR_BOUND)
    assert padic_valuation(Fraction(2, largest**3), largest) == -3


def test_quadfield_squarefree_check_without_factoring():
    assert QuadField(1009 * 1013).d == 1009 * 1013
    assert QuadField(-2 * 1009 * 1013).d == -2 * 1009 * 1013
    assert QuadField(999983 * 3).d == 999983 * 3
    for d in (1009**2, 12, -2 * 1009**2):
        with pytest.raises(ValueError, match="not squarefree"):
            QuadField(d)
    with pytest.raises(ValueError, match="cannot certify"):
        QuadField(1000003 * 1000033)


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


def test_ratio_interval_escalates_for_exact_denominators(monkeypatch):
    # log(1 + 2^-400) is below 2^-320, so its 320-bit enclosure straddles 0
    near = LogMag.exact(Fraction(2**400 + 1, 2**400))
    lo, hi = LogMag.exact(3).ratio_interval(near)
    with mpmath.workprec(1000):
        want = mpmath.log(3) / mpmath.log(1 + mpmath.mpf(2) ** -400)
    assert lo <= want <= hi and (hi - lo) / lo < 1e-15
    assert LogMag.exact(3).ratio(near) == (None, (lo, hi))
    with pytest.raises(UndecidableComparison):
        LogMag.exact(3).ratio_interval(LogMag.zero())
    # an irrational magnitude within 2^-500 of 1 straddles 0 at 320 bits too:
    # (1 + sqrt 2)^200 = 2a - (1 - sqrt 2)^200 for its rational part a
    u = QuadField(2).element(1, 1) ** 200
    near_one = LogMag.exact(u / (2 * u.a))
    # its offset, read from bit lengths, starts each log at its own precision
    calls = _counting(monkeypatch, "_log_magnitude")
    lo, hi = LogMag.exact(3).ratio_interval(near_one)
    assert len(calls) <= 2
    with mpmath.workprec(2000):
        log_near_one = mpmath.log((1 + mpmath.sqrt(2)) ** 200 / (2 * int(u.a)))
        want = mpmath.log(3) / log_near_one
    assert lo <= want <= hi and (hi - lo) / abs(lo) < 1e-15
    calls.clear()
    assert near_one.to_float() == _float_of(log_near_one) and len(calls) == 1


def test_ratio_interval_is_the_nearest_float_widened_by_one():
    # a numerator within 2^-500 of 0: a first enclosure straddles 0, and the
    # loop refines until both ends round to the nearest float
    h = LogMag.exact(2**512)
    lam = LogMag.exact(Fraction(2**512 + 3, 2**512))
    with mpmath.workprec(1000):
        f = float(mpmath.log(1 + 3 * mpmath.mpf(2) ** -512) / (512 * mpmath.log(2)))
    assert lam.ratio_interval(h) == (math.nextafter(f, -math.inf), math.nextafter(f, math.inf))
    # a ratio below half the least subnormal rounds to 0.0
    tiny = LogMag.exact(Fraction(2**1200 + 1, 2**1200))
    assert tiny.ratio_interval(h) == (-5e-324, 5e-324)


def test_refine_raises_at_the_precision_cap():
    with pytest.raises(PrecisionExhausted):
        exactnum._refine(lambda w: None)


_NO_MPMATH = """
import json
import sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
from pathlib import Path
from orbitweil.labcli import cli
out = Path(sys.argv[1])
readme = {
    "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
    "seed": ["2", "1"],
    "divisor": {"field": "Q", "form": {"1,0": "1", "0,1": "-3"}, "weight": 1},
    "places": ["inf", 3],
    "twist": 1,
    "depth": 8,
}
quadratic = {
    "divisor": {
        "field": {"d": 2},
        "form": {"1,0": {"a": "1", "b": "0"}, "0,1": {"a": "0", "b": "-1"}},
    },
    "places": ["inf", 7],
    "sample": {"height_bound": 6},
    "params": {"eps_prime": "1"},
}
for name, cfg, cmd in (("ratio", readme, "ratio"), ("gap", quadratic, "gap")):
    path = out / f"{name}.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([cmd, str(path), "--out", str(out / f"{name}.csv")]) == 0
assert "mpmath" not in {m.split(".")[0] for m, v in sys.modules.items() if v is not None}
"""


def test_the_runtime_runs_without_mpmath(tmp_path):
    # the package imports nothing it does not declare: with mpmath blocked it
    # still runs ratio on the README config and gap over Q(sqrt 2), CSVs and all
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _NO_MPMATH, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    for name in ("ratio", "gap"):
        assert (tmp_path / f"{name}.csv").read_text().count("\n") > 1


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
    # zero numerator, zero denominator, irrational magnitude
    assert LogMag.zero().ratio_exact(LogMag.exact(5)) == 0
    assert LogMag.exact(5).ratio_exact(LogMag.zero()) is None
    unit = abs_quad(QuadField(2).element(1, 1), places_above(INF, QuadField(2))[0])
    assert unit.ratio_exact(LogMag.exact(2)) is None


_rationals = st.builds(
    Fraction, st.integers(1, 10**6), st.integers(1, 10**6)
).filter(lambda c: c != 1)


# roots whose factors include primes above 1,000, proved (1009, 1000003)
# or left in a cofactor (1009 * 1013 is past 1,000^2 and not proved prime)
_ROOTS = [1, 2, 6, 1009, 1000003, 1009 * 1013, 2 * 1009 * 1013, 1009**2, 3 * 1009 * 1013]


@settings(max_examples=300, deadline=None)
@given(
    c=_rationals,
    e1=st.integers(1, 12),
    e2=st.integers(1, 12),
    r1=st.sampled_from(_ROOTS),
    r2=st.sampled_from(_ROOTS),
    j=st.sampled_from([1, 2, 1009]),
)
def test_canonical_forms_are_unique(c, e1, e2, r1, r2, j):
    # log(c^e1)/r1 and log(c^e2)/r2 are equal exactly when e1/r1 == e2/r2
    x, y = LogMag.exact(c**e1, r1), LogMag.exact(c**e2, r2)
    same = Fraction(e1, r1) == Fraction(e2, r2)
    assert (x == y) == same
    assert ((x.magnitude, x.root) == (y.magnitude, y.root)) == same
    # x's value written as log(c^(e1 j))/(r1 j) has x's form, and so x's
    # hash, unless an unfactored root meets a magnitude of 2^1001 or more
    m = c ** (e1 * j)
    if factorize(r1 * j)[1] != 1 and max(m.numerator, m.denominator).bit_length() > 1001:
        with pytest.raises(ExactnumError):
            LogMag.exact(m, r1 * j)
    else:
        z = LogMag.exact(m, r1 * j)
        assert (z.magnitude, z.root) == (x.magnitude, x.root) and hash(z) == hash(x)


def _exact_root(n: int, k: int):
    # the k-th root of n >= 1 by bisection, or None if n is no k-th power
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


def _reference_form(m: Fraction, r: int) -> tuple[Fraction, int]:
    # log(m)/r with the smallest root r' | r at which m^(r'/r) is rational
    for small in range(1, r + 1):
        if r % small:
            continue
        k = r // small
        num, den = _exact_root(m.numerator, k), _exact_root(m.denominator, k)
        if num is not None and den is not None:
            return (Fraction(1), 1) if num == den else (Fraction(num, den), small)
    raise AssertionError("unreachable: k = 1 always succeeds")


def _form(x: LogMag) -> tuple[Fraction, int]:
    return x.magnitude, x.root


_magnitudes = st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**4))
_multipliers = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(
    m1=_magnitudes,
    m2=_magnitudes,
    r1=st.integers(1, 12),
    r2=st.integers(1, 12),
    k=_multipliers,
    e=st.integers(1, 4),
)
def test_rational_logmag_algebra_matches_the_fraction_reference(m1, m2, r1, r2, k, e):
    # powers of small bases make reducible forms and equal values common
    m2 = m2 if e == 4 else m1**e
    x, y = LogMag.exact(m1, r1), LogMag.exact(m2, r2)
    assert _form(x) == _reference_form(m1, r1) and _form(y) == _reference_form(m2, r2)
    r = math.lcm(r1, r2)
    assert _form(x + y) == _reference_form(m1 ** (r // r1) * m2 ** (r // r2), r)
    assert _form(x - y) == _reference_form(m1 ** (r // r1) / m2 ** (r // r2), r)
    assert _form(-x) == _reference_form(1 / m1, r1)
    assert _form(x * k) == _reference_form(m1**k.numerator, r1 * k.denominator)
    assert _form(k * x) == _form(x * k)
    # log(m1)/r1 against log(m2)/r2: m1^r2 against m2^r1
    lhs, rhs = m1**r2, m2**r1
    want = (lhs > rhs) - (lhs < rhs)
    assert x.compare(y) == want and y.compare(x) == -want
    assert x.sign() == (m1 > 1) - (m1 < 1) and x.is_zero() == (m1 == 1)
    assert (x == y) == (want == 0)
    # equal values reached by different routes share their form and hash
    for a, b in ((x + y, y + x), ((x + y) - y, x), (x * k + y * k, (x + y) * k)):
        assert a == b and _form(a) == _form(b) and hash(a) == hash(b)
    if want == 0:
        assert _form(x) == _form(y) and hash(x) == hash(y)


def _positive_quad(a, b, r):
    y = QuadField(2).element(a, b)
    return LogMag.exact(y if y.sign() > 0 else -y, r)


# powers of small bases, so that sums of one root reduce to another; magnitudes
# below 1 (negative logs) and 1 itself (zero); and Q(sqrt 2) magnitudes
_sum_terms = st.one_of(
    st.builds(
        LogMag.exact,
        st.builds(Fraction, st.sampled_from([1, 2, 3, 4, 8, 9, 27]), st.sampled_from([1, 2, 4, 9])),
        st.integers(1, 4),
    ),
    st.just(LogMag.zero()),
    st.builds(_positive_quad, st.integers(-9, 9).filter(bool), st.integers(-9, 9).filter(bool),
              st.integers(1, 4)),
)


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(_sum_terms, max_size=8))
def test_logmag_sum_has_the_form_of_the_left_fold(xs):
    fold = functools.reduce(lambda a, b: a + b, xs) if xs else LogMag.zero()
    assert logmag_sum(xs).form == fold.form


def test_canonical_form_refuses_an_unfactored_root():
    # 1009 * 1013 stays a cofactor of the root, and 2^1009 is a 1009th power:
    # a form kept unreduced would differ from log(2)/1013's
    with pytest.raises(ExactnumError, match="unfactored"):
        LogMag.exact(2**1009, 1009 * 1013)
    # below 2^1001 no power past 1,000 can reduce, so the cofactor is harmless
    assert LogMag.exact(2**1000, 1009 * 1013 * 1000) == LogMag.exact(2, 1009 * 1013)
    # a proved prime past 1,000 reduces as any other
    assert LogMag.exact(2**1009, 1009) == LogMag.exact(2)


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


def test_to_float_does_not_cancel():
    # log(1 + 2^-200) = 6.223015277861142e-61: a difference of int logs read 0.0
    assert LogMag.exact(Fraction(2**200 + 1, 2**200)).to_float() == math.log1p(2.0**-200)
    # within 2^-200 of log 3: a difference of int logs read 1.0986122886681073
    assert LogMag.exact(Fraction(3 * 2**200 + 1, 2**200)).to_float() == math.log(3)
    assert LogMag.exact(Fraction(7 * 2**300 + 7, 2**300), 3).to_float() == math.log(7) / 3
    # and outside the range of normal floats
    huge = LogMag.exact(Fraction(2**2000 + 1, 3))
    assert huge.to_float() == pytest.approx(2000 * math.log(2) - math.log(3), rel=1e-15)
    assert (-huge).to_float() == -huge.to_float()
    assert LogMag.exact(Fraction(1, 2**1060)).to_float() == pytest.approx(-1060 * math.log(2), rel=1e-15)


def _counting(monkeypatch, name):
    """Record the calls of exactnum.<name> made through the module."""
    calls = []
    f = getattr(exactnum, name)

    def counted(*args):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(exactnum, name, counted)
    return calls


def test_to_float_starts_at_the_relative_precision_of_the_value(monkeypatch):
    calls = _counting(monkeypatch, "_log_magnitude")
    assert LogMag.exact(Fraction(2**200 + 1, 2**200)).to_float() == math.log1p(2.0**-200)
    assert len(calls) == 1
    # a value within 2^-1075 of 0 reads 0.0 with its own sign
    tiny = LogMag.exact(Fraction(2**5000 + 1, 2**5000))
    assert math.copysign(1, tiny.to_float()) == 1 and math.copysign(1, (-tiny).to_float()) == -1


@st.composite
def _real_quadratic_parts(draw):
    # (A, B, C) with A, B != 0 of either sign pattern; A/B near +-sqrt(d) at times,
    # where A + B sqrt(d) of opposite signs cancels almost to 0
    d = draw(st.sampled_from([2, 3, 5, 7, 13]))
    B = draw(st.integers(1, 2**2000))
    A = draw(st.one_of(
        st.integers(1, 2**2000),
        st.builds(lambda k: math.isqrt(d * B * B) + k, st.integers(0, 3)),
    ))
    sa, sb = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1)]))
    return d, sa * A, sb * B, draw(st.integers(1, 2**300))


@st.composite
def _quadratic_offsets(draw):
    # (A + B sqrt(d))/C > 0 with A, B != 0, at times within 1/C of 1: C is
    # then F or F + 1 for F = floor(A + B sqrt(d))
    d, A, B, C = draw(_real_quadratic_parts())
    if QuadField(d).element(A, B).sign() < 0:
        A, B = -A, -B
    if draw(st.booleans()):
        r = math.isqrt(B * B * d)
        C = A + (r if B > 0 else -r - 1) + draw(st.integers(0, 1))
        assume(C >= 1)
    return d, A, B, C


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 2**2000),
    d=st.integers(1, 2**2000),
    root=st.sampled_from([1, 2, 3, 7, 64]),
    parts=_quadratic_offsets(),
)
@example(n=2, d=3, root=1, parts=(2, 3, 2, 5))  # F = C: within 1/5 above 1
@example(n=3, d=2, root=1, parts=(2, 3, 2, 6))  # F + 1 = C: within 1/6 below 1
def test_the_offset_bounds_the_log_from_below(n, d, root, parts):
    # a rational magnitude n/d != 1, and a real quadratic one
    if n != d:
        k = exactnum._offset(n, d, root)
        with mpmath.workprec(4200):
            assert abs(mpmath.log1p(mpmath.mpf(n - d) / d)) / root >= mpmath.mpf(2) ** -k
    D, A, B, C = parts
    y = QuadField(D).element(Fraction(A, C), Fraction(B, C))
    k = exactnum._offset(*LogMag.exact(y, root).form)
    # enough bits past the cancellation of A + B sqrt(D) against C
    with mpmath.workprec(4 * max(A.bit_length(), B.bit_length(), C.bit_length()) + 200):
        assert abs(mpmath.log((A + B * mpmath.sqrt(D)) / C)) / root >= mpmath.mpf(2) ** -k


@st.composite
def _near_one_magnitudes(draw):
    # n/d with d of 8 to 2,000 bits and n within d/2^j of d, either side
    w = draw(st.integers(64, 4096))
    bits = draw(st.integers(8, 2000))
    d = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    j = draw(st.integers(min(math.isqrt(w) // 4 + 2, bits), bits))
    n = d + draw(st.sampled_from([1, -1])) * draw(st.integers(1, max(1, d >> j)))
    return n, d, w


@settings(max_examples=200, deadline=None)
@given(_near_one_magnitudes())
def test_the_near_one_series_encloses_the_log(nwd):
    n, d, w = nwd
    v, e = exactnum._log_quotient(n, d, 0, w)
    prec = w + 2 * d.bit_length() + 200
    assert e <= 2 and _holds(v, e, w, lambda: mpmath.log1p(mpmath.mpf(n - d) / d), prec)
    # log n - log d, each reduced by a power of 2 and its square roots taken,
    # encloses the same value: the intervals meet
    v1, e1 = exactnum._log_quotient(n, 1, 0, w)
    v2, e2 = exactnum._log_quotient(d, 1, 0, w)
    assert abs(v - (v1 - v2)) <= e + e1 + e2


def _float_of(x) -> float:
    # an mpf rounded once to the nearest float, through its exact Fraction
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * float(Fraction(man) * Fraction(2) ** exp) if man else 0.0


def _near_one_value(bits, delta):
    return Fraction(2**bits + delta, 2**bits)


_ratio_operands = st.one_of(
    st.builds(Fraction, st.integers(1, 2**300), st.integers(1, 2**300)),
    # near 1 down to 2^-1,100 and past: subnormal ratios, and ratios that read 0.0
    st.builds(
        _near_one_value,
        st.integers(8, 1200) | st.integers(1015, 1085),
        st.integers(-(2**7), 2**7).filter(bool),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    m1=_ratio_operands,
    m2=st.builds(Fraction, st.integers(1, 2**300), st.integers(1, 2**300)),
    r1=st.integers(1, 6),
    r2=st.integers(1, 6),
)
@example(m1=_near_one_value(1050, 1), m2=Fraction(2), r1=1, r2=1)  # subnormal
@example(m1=_near_one_value(1080, -1), m2=Fraction(3), r1=2, r2=1)  # 0.0, from below
def test_ratio_interval_is_the_nearest_float_widened_by_one_ulp(m1, m2, r1, r2):
    assume(m1 != 1 and m2 != 1)
    with mpmath.workdps(1500):

        def log(m):
            return mpmath.log1p(mpmath.mpf(m.numerator - m.denominator) / m.denominator)

        f = _float_of(log(m1) * r2 / (log(m2) * r1))
    got = LogMag.exact(m1, r1).ratio_interval(LogMag.exact(m2, r2))
    assert got == (math.nextafter(f, -math.inf), math.nextafter(f, math.inf))


def test_ratio_interval_encloses_each_log_once_at_its_own_precision(monkeypatch):
    # log(1 + 3 2^-512)/log 2^512: the denominator at 64 bits, the
    # numerator, above 2^-512, at 64 + 512, and no doubling
    calls = _counting(monkeypatch, "_log_magnitude")
    lam = LogMag.exact(Fraction(2**512 + 3, 2**512))
    lam.ratio_interval(LogMag.exact(2**512))
    assert [w for _, _, w in calls] == [64, 64 + 512]


def test_a_ratio_past_the_float_range_reads_the_largest_float_and_inf():
    big = LogMag.exact(Fraction(2**5000 + 1, 3))
    small = LogMag.exact(Fraction(2**3000 + 1, 2**3000))  # log ~ 2^-3000
    largest = sys.float_info.max
    assert big.ratio_interval(small) == (largest, math.inf)
    assert big.ratio(small) == (None, (largest, math.inf))
    assert (-big).ratio_interval(small) == big.ratio_interval(-small) == (-math.inf, -largest)


def test_the_quadratic_offset_near_1_is_within_a_few_bits(monkeypatch):
    # y = (A + B sqrt 2)/C, C = A + floor(B sqrt 2): |log y| ~ frac(B sqrt 2)/C
    rng = random.Random(72)
    F = QuadField(2)
    for bits in (50, 200, 1000):
        for _ in range(4):
            A, B = (rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(2))
            y = QuadElem(F, A, B, A + math.isqrt(2 * B * B))
            k = exactnum._offset(y, None)
            with mpmath.workprec(4 * bits + 200):
                logy = abs(mpmath.log((y.A + y.B * mpmath.sqrt(2)) / y.C))
                truth = -mpmath.log(logy, 2)
                assert logy >= mpmath.mpf(2) ** -k
            assert k - truth <= 4, (bits, k, truth)
            calls = _counting(monkeypatch, "_log_magnitude")
            LogMag.exact(y).to_float()
            assert len(calls) == 1
            monkeypatch.undo()


def _positive_quadratic(a, b, c):
    y = QuadField(2).element(Fraction(a, c), Fraction(b, c))
    return y if y.sign() > 0 else -y


_pair_logs = st.one_of(
    st.builds(LogMag.exact, st.fractions(min_value=Fraction(1, 10**9), max_value=10**9).filter(bool),
              st.sampled_from([1, 2, 3])),
    st.builds(LogMag.exact, st.builds(_positive_quadratic, st.integers(-10**6, 10**6),
                                      st.integers(1, 10**6), st.integers(1, 10**3)),
              st.sampled_from([1, 2])),
)
_pair_heights = st.one_of(st.just(LogMag.zero()), st.builds(LogMag.exact, st.integers(2, 10**9)))


@settings(max_examples=200, deadline=None)
@given(lam=_pair_logs, h=_pair_heights,
       slope=st.sampled_from([Fraction(3), Fraction(5, 2), Fraction(4, 3)]))
@example(lam=LogMag.exact(8), h=LogMag.exact(2), slope=Fraction(3))  # gap 0
@example(lam=LogMag.exact(Fraction(10**9 + 1, 10**9)), h=LogMag.zero(), slope=Fraction(4, 3))
def test_the_pair_read_out_rounds_lambda_and_the_gap(lam, h, slope):
    gap = h * slope - lam
    enclosures = {}
    want = (lam.decimal_str(12), gap.decimal_str(12))
    assert exactnum._decimal_pair(lam, slope, h, enclosures) == want
    # h's enclosures are kept by (form, w) and read back by the next call
    assert enclosures and all(key[0] == h.form for key in enclosures)
    assert exactnum._decimal_pair(lam, slope, h, enclosures) == want


def test_an_offset_counts_against_the_precision_cap():
    seen = []
    with pytest.raises(PrecisionExhausted):
        exactnum._refine(seen.append, exactnum._PREC_CAP - 100)
    assert seen == [exactnum._PREC_START]


@settings(max_examples=200, deadline=None)
@given(
    c=st.builds(
        Fraction,
        st.integers(1, 10**6).map(lambda a: a * exactnum._WITNESS_PRIME**2)
        | st.integers(1, 10**6),
        st.integers(1, 10**6).map(lambda b: b * exactnum._WITNESS_PRIME) | st.integers(1, 10**6),
    ).filter(lambda c: c != 1),
    p=st.integers(-40, 40).filter(bool),
    q=st.integers(1, 40),
    r=st.integers(1, 4),
)
def test_the_witness_never_refutes_a_true_ratio(c, p, q, r):
    g = math.gcd(p, q)
    p, q = p // g, q // g
    m1, m2 = c ** (p * r), c ** (q * r)
    assert exactnum._witness(m1.numerator, m1.denominator, m2.numerator, m2.denominator, p, q)
    assert LogMag.exact(m1).ratio_exact(LogMag.exact(m2)) == Fraction(p, q)


def test_the_witness_prime_is_the_largest_below_2_30():
    P = exactnum._WITNESS_PRIME
    assert is_prime(P) and P < 2**30 and not any(is_prime(k) for k in range(P + 1, 2**30))


def _nearest_float(value) -> float:
    # value() at 1000 bits, rounded to the nearest float
    with mpmath.workprec(1000):
        return float(value())


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 2**200), d=st.integers(1, 2**200), r=st.integers(1, 12))
def test_to_float_is_correctly_rounded_for_rationals(n, d, r):
    want = _nearest_float(lambda: (mpmath.log(n) - mpmath.log(d)) / r)
    assert LogMag.exact(Fraction(n, d), r).to_float() == want


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, 7]),
    a=st.integers(-(2**60), 2**60).filter(bool),
    b=st.integers(-(2**60), 2**60).filter(bool),
    r=st.integers(1, 6),
)
def test_to_float_is_correctly_rounded_for_quadratic_magnitudes(d, a, b, r):
    y = QuadField(d).element(a, b)
    want = _nearest_float(lambda: mpmath.log(abs(a + b * mpmath.sqrt(d))) / r)
    assert LogMag.exact(y if y.sign() > 0 else -y, r).to_float() == want


def _encloses(v: int, e: int, w: int, value) -> bool:
    # value() at 1000 bits is within 2^-990 of the value, and the endpoints
    # (v -+ e)/2^w are exact there
    with mpmath.workprec(1000):
        slack = mpmath.mpf(2) ** -900
        return mpmath.mpf(v - e) / 2**w - slack <= value() <= mpmath.mpf(v + e) / 2**w + slack


# odd numerators of 2^20 bits and more, whose logs read only their top bits
# (odd, as mpmath strips trailing zero bits one by one)
_huge = st.builds(
    lambda top, shift, low: (top << shift) + 2 * low + 1,
    st.integers(1, 2**64),
    st.integers(2**20, 2**20 + 64),
    st.integers(0, 2**64),
)
_precisions = st.sampled_from([64, 128, 512])


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.integers(1, 2**200), _huge),
    d=st.integers(1, 2**200),
    r=st.integers(1, 12),
    w=_precisions,
)
def test_the_enclosure_of_a_rational_log_holds_the_value(n, d, r, w):
    # built directly from the coprime pair: reducing a 2^20-bit magnitude at
    # a root is slow and beside the point
    g = math.gcd(n, d)
    x = LogMag(n // g, d // g, r)
    for value, sign in ((x, 1), (-x, -1)):
        v, e = value._enclose(w)
        assert e <= 7 and _encloses(v, e, w, lambda: sign * (mpmath.log(n) - mpmath.log(d)) / r)
    for k in (n, d):
        v, e = exactnum._log_quotient(k, 1, 0, w)
        assert e <= 2 and _encloses(v, e, w, lambda: mpmath.log(k))


@settings(max_examples=150, deadline=None)
@given(
    j=st.integers(0, 300),
    frac=st.floats(0, 1, exclude_max=True),
    w=st.sampled_from([80, 200, 400]),
)
def test_the_log_series_hold_their_bounds_at_the_working_scale(j, frac, w):
    # guard bits would hide a missing error term in the output; with none,
    # the series runs at P = w + isqrt(w)/4 and its error E <= 2^(P-w) (2P + 79)
    t = (1 << j) + int(frac * 2**j)
    P = w + math.isqrt(w) // 4
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "_GUARD", 0)
        v, e = exactnum._log_quotient(t, 1, -j, w)
    assert e <= 2 * P + 80 and _encloses(v, e, w, lambda: mpmath.log(mpmath.mpf(t) / 2**j))
    v, e = exactnum._ln2(P)
    assert e <= P + 5 and _encloses(v, e, P, lambda: mpmath.log(2))


_quad_parts = st.builds(Fraction, st.integers(-(2**80), 2**80).filter(bool), st.integers(1, 2**40))


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, 7, 13]),
    a=_quad_parts,
    b=_quad_parts,
    r=st.integers(1, 6),
    w=_precisions,
)
def test_the_enclosure_of_a_real_quadratic_log_holds_the_value(d, a, b, r, w):
    # a and b of one sign and of opposite signs: |a| + |b| sqrt(d) and |N|/that
    y = QuadField(d).element(a, b)
    x = LogMag.exact(y if y.sign() > 0 else -y, r)
    v, e = x._enclose(w)

    def value():
        a_, b_ = (mpmath.mpf(q.numerator) / q.denominator for q in (a, b))
        return mpmath.log(abs(a_ + b_ * mpmath.sqrt(d))) / r

    assert e <= 7 and _encloses(v, e, w, value)


def _holds(v: int, e: int, w: int, value, prec: int) -> bool:
    # value() at prec bits is within 2^-(w + 100) of the value, and the
    # endpoints (v -+ e)/2^w are exact there
    with mpmath.workprec(prec):
        slack = mpmath.mpf(2) ** -(w + 100)
        return mpmath.mpf(v - e) / 2**w - slack <= value() <= mpmath.mpf(v + e) / 2**w + slack


def _near_one(d: int, delta: int) -> tuple[int, int]:
    # n/d with 0 < |n/d - 1| <= 2^190/2^600 < 2^-400, in lowest terms
    n = d + delta
    g = math.gcd(n, d)
    return n // g, d // g


_wide_rationals = st.one_of(
    st.tuples(st.integers(1, 2**20000), st.integers(1, 2**20000)),
    st.builds(_near_one, st.integers(2**600, 2**1200), st.integers(-(2**190), 2**190).filter(bool)),
)


@settings(max_examples=100, deadline=None)
@given(nd=_wide_rationals, r=st.integers(1, 12), w=st.sampled_from([64, 128, 1024]))
def test_one_series_encloses_a_rational_log_to_its_bound(nd, r, w):
    # LogMag._enclose: e <= 3 at every root, from one _log_quotient of the
    # top bits of numerator and denominator
    n, d = nd
    g = math.gcd(n, d)
    n, d = n // g, d // g
    x = LogMag(n, d, r) if n != d else LogMag.zero()
    v, e = x._enclose(w)
    assert e <= 3 and _holds(v, e, w, lambda: (mpmath.log(n) - mpmath.log(d)) / r, 2000)


@settings(max_examples=100, deadline=None)
@given(parts=_real_quadratic_parts(), r=st.integers(1, 6), w=st.sampled_from([64, 128, 1024]))
def test_one_series_encloses_a_real_quadratic_log_to_its_bound(parts, r, w):
    d, A, B, C = parts
    y = QuadField(d).element(Fraction(A, C), Fraction(B, C))
    x = LogMag.exact(y if y.sign() > 0 else -y, r)
    v, e = x._enclose(w)
    # 2,000 bits past the cancellation of |A| against |B| sqrt(d)
    prec = 2000 + 2 * max(A.bit_length(), B.bit_length())
    assert e <= 3 and _holds(
        v, e, w, lambda: mpmath.log(abs(A + B * mpmath.sqrt(d)) / C) / r, prec
    )


def test_a_read_out_at_the_first_precision_runs_one_log_series(monkeypatch):
    calls = _counting(monkeypatch, "_log_quotient")
    F = QuadField(2)
    for x in (
        LogMag.exact(Fraction(10**30 + 7, 3**40)),
        LogMag.exact(Fraction(2**400 + 1, 3**300), 6),
        LogMag.exact(F.element(3, 1)),
        LogMag.exact(F.element(-1, 1), 5),
    ):
        calls.clear()
        x.decimal_str(12)
        assert [w for *_, w in calls] == [exactnum._PREC_START]


@st.composite
def _quotients(draw):
    # (n, d, s, w): n/d on either side of 1, generic, near 1, or with an
    # operand of 2^20 bits and more, near 1 or not
    w = draw(st.sampled_from([64, 128, 1024, 4096]))
    kind = draw(st.sampled_from(["generic", "near", "huge", "huge near"]))
    if kind == "generic":
        n, d = draw(st.integers(1, 2**400)), draw(st.integers(1, 2**400))
    elif kind == "huge":
        n, d = draw(_huge), draw(st.integers(1, 2**200) | _huge)
    else:
        d = draw(st.integers(2, 2**2000) if kind == "near" else _huge)
        j = draw(st.integers(0, d.bit_length()))
        n = max(1, d + draw(st.integers(-(d >> j), d >> j)))
    if draw(st.booleans()):
        n, d = d, n
    return n, d, draw(st.integers(-300, 300)), w


@settings(max_examples=150, deadline=None)
@given(q=_quotients())
@example(q=(2, 3, 0, 64))  # r = 2/3, the low reduction edge
@example(q=(2**101 - 1, 3 * 2**100, -300, 64))  # just below it: n doubled
@example(q=(4, 3, 300, 128))  # r = 4/3, the high reduction edge
@example(q=(2**102 + 1, 3 * 2**100, 7, 128))  # just above it: d doubled
@example(q=(5, 4, 0, 64))  # |r - 1| = 2^-j at j = 2: no square root
@example(q=(3, 4, -1, 64))  # and below 1
@example(q=(2**8 + 1, 2**8, 0, 1024))  # the root-loop edge at j = 8
@example(q=(2**16 + 2, 2**16, 0, 4096))  # just past it at j = 16: roots
def test_the_log_series_encloses_every_quotient(q):
    n, d, s, w = q
    v, e = exactnum._log_quotient(n, d, s, w)
    assert e <= 2 and _holds(
        v, e, w, lambda: mpmath.log(mpmath.mpf(n) / d) + s * mpmath.log(2), w + 200
    )


class _CountingMath:
    """The math module, with the arguments of its isqrt calls recorded."""

    def __init__(self):
        self.isqrt_args = []

    def __getattr__(self, name):
        return getattr(math, name)

    def isqrt(self, n):
        self.isqrt_args.append(n)
        return math.isqrt(n)


def _series_terms(monkeypatch):
    """The term counts K of the _atanh_sum calls made through exactnum (E = 3K + 2)."""
    terms = []
    atanh_sum = exactnum._atanh_sum

    def counted(t, y, P):
        S, E = atanh_sum(t, y, P)
        terms.append((E - 2) // 3)
        return S, E

    monkeypatch.setattr(exactnum, "_atanh_sum", counted)
    return terms


def test_the_log_series_takes_square_roots_only_far_from_1(monkeypatch):
    counting = _CountingMath()
    monkeypatch.setattr(exactnum, "math", counting)
    # log(1 + 3 2^-512) at 576 bits: the one isqrt is of w, for j, and the
    # series runs on (n - d)/(n + d) with no square root
    exactnum._log_magnitude(2**512 + 3, 2**512, 576)
    assert counting.isqrt_args == [576]
    # a generic 300-bit rational at 4,096 bits takes at most j = 16 roots, and
    # its x <= 2^-16 ends the series within about P/(2j) terms, P = w + 20 + j
    w, j = 4096, 16
    P = w + 20 + j
    exactnum._ln2(P + 64)  # cached first: only the quotient's own series counts
    counting.isqrt_args.clear()
    terms = _series_terms(monkeypatch)
    exactnum._log_magnitude(3**189, 7**107, w)
    assert len(counting.isqrt_args) <= 1 + j
    assert len(terms) == 1 and terms[0] <= P // (2 * j) + 8


def test_logmag_real_quadratic_is_exact():
    F = QuadField(2)
    w0, w1 = places_above(INF, F)
    y = F.element(1, 1)  # 1 + sqrt(2), a unit of norm -1
    lm = abs_quad(y, w0)
    assert lm.is_exact and lm.magnitude == y and lm.root == 1
    assert abs(lm.to_float() - math.log(1 + math.sqrt(2))) < 1e-15
    assert lm.decimal_str(12) == "0.881373587020"
    # the second embedding reads |1 - sqrt 2| = 1/(1 + sqrt 2)
    assert abs_quad(y, w1) == -lm and (-lm).magnitude == F.element(-1, 1)
    assert (-lm).decimal_str(12) == "-0.881373587020"
    # the two real embeddings multiply to |norm| = 1, exactly
    assert abs_quad(y, w0) + abs_quad(y, w1) == LogMag.zero()
    # mixing with rational magnitudes stays exact
    s = lm + LogMag.exact(2)
    assert s.magnitude == F.element(2, 2) and s - LogMag.exact(2) == lm
    # (1 + sqrt 2)^2 = 3 + 2 sqrt 2: equal values in different forms, one hash
    assert LogMag.exact(F.element(3, 2), 2) == lm and lm * 2 == LogMag.exact(F.element(3, 2))
    assert hash(LogMag.exact(F.element(3, 2), 2)) == hash(lm)
    # no power of an irrational magnitude is rational
    assert lm != LogMag.exact(Fraction(17, 7)) and lm.compare(LogMag.exact(Fraction(17, 7))) == -1
    # b = 0 and a = 0 give rational magnitudes
    assert LogMag.exact(F.element(3)).magnitude == 3
    assert LogMag.exact(F.element(0, 3)) == LogMag.exact(18, 2)
    for bad in (F.element(1, -1), F.element(-3), F.element(0), QuadField(-1).element(1, 1)):
        with pytest.raises(ValueError):
            LogMag.exact(bad)
    # signs past float resolution: (1 - sqrt 2)^61 = p - q sqrt 2 is about -2^-78, p about 2^77
    u = y**61
    assert u.conjugate().sign() == -1 and (u * y).conjugate().sign() == 1
    with pytest.raises(ValueError):
        QuadField(-7).element(1, 1).sign()


def test_compare_decides_distinct_exact_values():
    # 2^400 + 1 over 2^400 vs 2^401 + 1 over 2^401: the 320-bit enclosures overlap
    a = LogMag.exact(Fraction(2**400 + 1, 2**400), 1_000_003)
    b = LogMag.exact(Fraction(2**401 + 1, 2**401), 1_000_003)
    assert a.compare(b) == 1 and b.compare(a) == -1 and a != b
    # coprime roots: the cross powers pass the bit budget, and enclosures escalate
    c = LogMag.exact(Fraction(2**401 + 1, 2**401), 1_000_033)
    assert a.compare(c) == 1 and c.compare(a) == -1 and a.compare(a) == 0
    # an irrational magnitude past the budget escalates too
    F = QuadField(2)
    g = LogMag.exact(F.element(2**600, 1), 1_000_003)
    assert g.compare(LogMag.exact(F.element(2**600, 2), 1_000_003)) == -1
    h = LogMag.exact(Fraction(2**600 + 1), 1_000_033)
    with mpmath.workprec(1000):
        diff = mpmath.log(2**600 + mpmath.sqrt(2)) / 1_000_003 - mpmath.log(2**600 + 1) / 1_000_033
    assert g.compare(h) == int(mpmath.sign(diff)) == -h.compare(g) != 0


def test_compare_of_equal_irrational_forms_past_the_budget_refuses(monkeypatch):
    # (1 + sqrt 2)^2 = 3 + 2 sqrt 2: with no bit budget the cross powers are
    # refused, and enclosures of equal values overlap up to the cap
    F = QuadField(2)
    monkeypatch.setattr(exactnum, "_BIT_BUDGET", 0)
    with pytest.raises(PrecisionExhausted):
        LogMag.exact(F.element(1, 1)).compare(LogMag.exact(F.element(3, 2), 2))


_quadratic_magnitudes = st.tuples(
    st.integers(-50, 50).filter(bool), st.integers(-50, 50).filter(bool), st.integers(1, 4)
)


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 7]), m1=_quadratic_magnitudes, m2=_quadratic_magnitudes)
def test_compare_of_real_quadratic_magnitudes_matches_mpmath(d, m1, m2):
    F = QuadField(d)

    def logmag(a, b, r):
        y = F.element(a, b)
        return LogMag.exact(y if y.sign() > 0 else -y, r)

    x1, x2 = logmag(*m1), logmag(*m2)
    with mpmath.workprec(1000):
        v1, v2 = (mpmath.log(abs(a + b * mpmath.sqrt(d))) / r for a, b, r in (m1, m2))
        diff = v1 - v2
        want = 0 if abs(diff) < mpmath.mpf(2) ** -900 else int(mpmath.sign(diff))
    assert x1.compare(x2) == want and x2.compare(x1) == -want
    assert abs(x1.to_float() - float(v1)) <= 1e-15 * max(1.0, abs(float(v1)))
    assert (x1 == x2) == (want == 0)
    # the same value in another form compares equal
    assert x1.compare(LogMag.exact(x1.magnitude**2, 2 * x1.root)) == 0


def test_logmag_decimal_str():
    assert LogMag.exact(2).decimal_str(12) == "0.693147180560"
    assert LogMag.zero().decimal_str(12) == "0.000000000000"
    assert (-LogMag.exact(2)).decimal_str(12) == "-0.693147180560"
    assert LogMag.exact(2**256).decimal_str(12) == "177.445678223346"


def test_decimal_str_decides_values_near_a_tie():
    # log(m) lies within 2^-400 above the tie 5e-13: the midpoint of a 320-bit
    # enclosure read 0.000000000000
    with mpmath.workprec(1000):
        n = int(mpmath.floor(mpmath.exp(mpmath.mpf(5) / 10**13) * 2**400)) + 1
    assert LogMag.exact(Fraction(n, 2**400)).decimal_str(12) == "0.000000000001"
    assert LogMag.exact(Fraction(2**400, n)).decimal_str(12) == "-0.000000000001"


class _Enclosed(LogMag):
    """A LogMag rendered from a given enclosure, to test rendering alone."""

    def __init__(self, lo: Fraction, hi: Fraction):
        super().__init__(1, 1, 1)
        self.lo, self.hi = lo, hi

    def _enclose(self, w):
        # the narrowest enclosure of [lo, hi] at scale 2^-w: exact once the
        # dyadic endpoints have at most w - 1 bits after the binary point
        top, bot = math.ceil(self.hi * 2 ** (w - 1)), math.floor(self.lo * 2 ** (w - 1))
        return top + bot, top - bot


def _dyadic_logmag(lo: Fraction, hi: Fraction) -> LogMag:
    # a value whose enclosure has the exact dyadic endpoints lo <= hi
    return _Enclosed(lo, hi)


def test_decimal_rendering_rounds_the_exact_value_half_even():
    # ties at the 12th digit: 2**-13 = 0.0001220703125, 3 * 2**-13 = 0.0003662109375
    for q, want in (
        (Fraction(1, 2**13), "0.000122070312"),
        (Fraction(3, 2**13), "0.000366210938"),
        (Fraction(-3, 2**13), "-0.000366210938"),
    ):
        assert decimal_fraction(q) == want
        assert _dyadic_logmag(q, q).decimal_str(12) == want
    # a negative midpoint that rounds to zero prints without its sign
    assert _dyadic_logmag(Fraction(-1, 2**50), Fraction(1, 2**52)).decimal_str(12) == "0.000000000000"
    assert decimal_fraction(Fraction(-1, 10**13)) == "0.000000000000"
    # within 2**-200 above the tie 5e-13: a 40-digit intermediate would read
    # an exact tie and round down to 0; the exact midpoint rounds up
    above = Fraction(-(-5 * 2**200 // 10**13), 2**200)
    assert _dyadic_logmag(above, above).decimal_str(12) == "0.000000000001"
    assert decimal_fraction(Fraction(7, 2), 0) == "4"
    assert decimal_fraction(Fraction(-1, 8), 2) == "-0.12"


def _fixed_reference(n: int, places: int) -> str:
    # n / 10^places in fixed point, written from divmod alone
    whole, frac = divmod(abs(n), 10**places)
    text = f"{whole}.{frac:0{places}d}" if places else str(whole)
    return "-" + text if n < 0 else text


@settings(max_examples=300, deadline=None)
@given(
    x=st.integers(-(2**130), 2**130),
    w=st.integers(1, 120),
    places=st.integers(0, 15),
    k=st.integers(-(2**40), 2**40),
)
def test_endpoint_rounding_on_ints_matches_fraction_rounding(x, w, places, k):
    scale = 10**places

    def check(t):
        want = round(Fraction(t, 2**w) * scale)
        assert exactnum._round_div(t * scale, 1 << w) == want
        q = Fraction(t, 2**w)
        assert decimal_fraction(q, places) == _fixed_reference(want, places)
        assert _dyadic_logmag(q, q).decimal_str(places) == _fixed_reference(want, places)
        return want

    check(x)
    if places < w:
        # exact ties t 10^places = 2^(w-1) mod 2^w: t = 2^(w-1-places) 5^-places
        # mod m = 2^(w-places); t + m moves the quotient by 5^places, an odd
        # step, so t and t + m reach both parities of the quotient
        m = 1 << (w - places)
        t = (1 << (w - 1 - places)) * pow(5, -places, m) % m + k * m
        parities = set()
        for tie in (t, t + m):
            q, r = divmod(tie * scale, 1 << w)
            assert 2 * r == 1 << w
            parities.add(q & 1)
            assert check(tie) == q + (q & 1)
        assert parities == {0, 1}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-(10**30), 10**30), st.fractions(max_denominator=10**6)),
        min_size=1,
        max_size=6,
    )
)
def test_integer_normal_form_properties(values):
    if not any(values):
        with pytest.raises(ValueError):
            integer_normal_form(values)
        return
    ints, c = integer_normal_form(values)
    assert all(type(i) is int for i in ints)
    assert [c * i for i in ints] == values
    assert math.gcd(*ints) == 1
    assert next(i for i in ints if i) > 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(-(10**6), 10**6),
            st.builds(
                lambda k, c: k * 2**300 + c, st.integers(-3, 3), st.integers(-(10**6), 10**6)
            ),
            st.fractions(max_denominator=10**6),
        ),
        min_size=1,
        max_size=6,
    ).filter(any)
)
def test_integer_normal_form_is_the_gcd_taken_in_coordinate_order(values):
    # the gcd runs smallest coordinate first; the answer is the same as in order
    den = math.lcm(*(Fraction(v).denominator for v in values))
    ints = [int(Fraction(v) * den) for v in values]
    g = functools.reduce(math.gcd, ints, 0)
    if next(i for i in ints if i) < 0:
        g = -g
    assert integer_normal_form(values) == ([i // g for i in ints], Fraction(g, den))


def test_integer_normal_form_examples():
    assert integer_normal_form([Fraction(-2, 3), 4]) == ([1, -6], Fraction(-2, 3))
    assert integer_normal_form([0, 6, Fraction(9, 2)]) == ([0, 4, 3], Fraction(3, 2))
    for zeros in ([], [0], [Fraction(0), 0]):
        with pytest.raises(ValueError):
            integer_normal_form(zeros)


def _leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_bareiss_determinant_is_the_leibniz_expansion(m):
    echelon, pivot_cols, sign = bareiss(m)
    for k, col in enumerate(pivot_cols):
        assert echelon[k][col] != 0 and not any(echelon[k][:col])
    assert all(type(x) is int for row in echelon for x in row)
    det = sign * echelon[-1][-1] if len(pivot_cols) == len(m) else 0
    assert det == _leibniz_det(m)


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
    with pytest.raises(FieldMismatch):
        LogMag.exact(F.element(1, 1)).compare(LogMag.exact(QuadField(2).element(1, 1)))
    with pytest.raises(ValueError):
        QuadField(12)
    with pytest.raises(ValueError):
        QuadField(1)


# The Fraction-pair formulas for a + b*sqrt(d): the reference the integer
# representation (A + B*sqrt(d))/C must reproduce.
def _ref_mul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_norm(x, d):
    return x[0] * x[0] - d * x[1] * x[1]


def _ref_inv(x, d):
    n = _ref_norm(x, d)
    return (x[0] / n, -x[1] / n)


def _ref_pow(x, k, d):
    if k < 0:
        x, k = _ref_inv(x, d), -k
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _ref_mul(out, x, d)
    return out


def _ref_sign(x, d):
    a, b = x
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb and d < 0:
        return None
    if sa * sb >= 0:
        return sa or sb
    return sa if _ref_norm(x, d) > 0 else -sa


def _assert_is(y, ref, F):
    """y is the canonical (A + B sqrt d)/C of the pair ref = (a, b)."""
    A, B, C = y.A, y.B, y.C
    assert all(type(v) is int for v in (A, B, C))
    assert C > 0 and math.gcd(A, B, C) == 1
    assert type(y.a) is Fraction and type(y.b) is Fraction
    assert (y.a, y.b) == ref
    # an equal value built another way is the same object, with one hash
    other = F.element(*ref)
    assert y == other and hash(y) == hash(other)


_quad_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, -1, -7]),
    x=st.tuples(_quad_fractions, _quad_fractions),
    y=st.tuples(_quad_fractions, _quad_fractions),
    q=_quad_fractions,
    n=st.integers(-20, 20),
    k=st.integers(-4, 5),
)
def test_quadelem_integer_form_matches_the_fraction_pair_formulas(d, x, y, q, n, k):
    F = QuadField(d)
    u, v = F.element(*x), F.element(*y)
    _assert_is(u, x, F)
    assert u.a == x[0] and u.b == x[1]
    # the constructor reduces an int triple at any scale and sign to one form
    for s in (n, -n, k):
        if s:
            _assert_is(QuadElem(F, s * u.A, s * u.B, s * u.C), x, F)
            assert QuadElem(F, s * u.A, s * u.B, s * u.C) == QuadElem(F, u.A, u.B, u.C)
    _assert_is(u + v, (x[0] + y[0], x[1] + y[1]), F)
    _assert_is(u - v, (x[0] - y[0], x[1] - y[1]), F)
    _assert_is(u * v, _ref_mul(x, y, d), F)
    _assert_is(-u, (-x[0], -x[1]), F)
    _assert_is(u.conjugate(), (x[0], -x[1]), F)
    assert type(u.norm()) is Fraction and u.norm() == _ref_norm(x, d)
    # mixed with ints (the evaluation fast paths) and Fractions, on either side
    for c in (n, q):
        _assert_is(u + c, (x[0] + c, x[1]), F)
        _assert_is(c + u, (x[0] + c, x[1]), F)
        _assert_is(c - u, (c - x[0], -x[1]), F)
        _assert_is(u * c, (x[0] * c, x[1] * c), F)
        _assert_is(c * u, (x[0] * c, x[1] * c), F)
        if c:
            _assert_is(u / c, (x[0] / c, x[1] / c), F)
    if u:
        _assert_is(u**k, _ref_pow(x, k, d), F)
        _assert_is(1 / u, _ref_inv(x, d), F)
        _assert_is(q / u, _ref_mul((q, Fraction(0)), _ref_inv(x, d), d), F)
        _assert_is(v / u, _ref_mul(y, _ref_inv(x, d), d), F)
    elif k > 0:
        _assert_is(u**k, (Fraction(0), Fraction(0)), F)
    want = _ref_sign(x, d)
    if want is None:
        with pytest.raises(ValueError):
            u.sign()
    else:
        assert u.sign() == want


def test_quadelem_at_base_place_needs_extension():
    F = QuadField(2)
    with pytest.raises(FieldMismatch):
        abs_quad(F.sqrt_gen(), Place.finite(7))
    # rational elements are fine at base places
    assert abs_quad(F.element(Fraction(7, 2)), Place.finite(7)) == LogMag.exact(Fraction(1, 7))
