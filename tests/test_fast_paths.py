"""Each fast path of a gap row against the general route it bypasses.

The local terms of a LocalTable read s_D(x) checked once per point, and
are built in one step on ints; the gap takes rational - quadratic as one
element, and the audit total over Q(sqrt d) is halved by square roots.
Each is checked here against the route it replaces: the general max/min
presentation of tests/local_oracle.py, LogMag.exact and its canonical
form, a + (-b) and * Fraction(1, 2).
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from local_oracle import general_local, split_order
from orbitweil.exactnum import (
    INERT,
    RAMIFIED,
    SPLIT,
    LogMag,
    Place,
    QuadField,
    _log_p_power,
    factorize,
    multiplicity,
    places_above,
)
from orbitweil.polydyn import HomogPoly, ProjPoint
from orbitweil.weil import DivisorPresentation, LocalTable

_FIELDS = (2, 3, -1, 17)
_REAL_FIELDS = (2, 3, 17)
_PRIMES = (2, 3, 5, 7, 11, 13, 17)

_positive_rationals = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6).filter(bool)


def _positive(F, a, b, c):
    """(a + b sqrt d)/c, or its negative, whichever is positive."""
    y = F.element(Fraction(a, c), Fraction(b, c))
    return y if y.sign() > 0 else -y


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from(_REAL_FIELDS),
    q=_positive_rationals,
    a=st.integers(-10**6, 10**6),
    b=st.integers(-10**6, 10**6).filter(bool),
    c=st.integers(1, 10**3),
    roots=st.sampled_from([(1, 1), (2, 2), (3, 3), (1, 2), (2, 1)]),
)
def test_rational_minus_quadratic_is_the_sum_with_the_negation(d, q, a, b, c, roots):
    x = LogMag.exact(q, roots[0])
    y = LogMag.exact(_positive(QuadField(d), a, b, c), roots[1])
    assert (x - y).form == (x + (-y)).form


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(_PRIMES), k=st.integers(-60, 60), root=st.sampled_from([1, 2]))
def test_log_p_power_is_the_exact_log_of_the_power(p, k, root):
    assert _log_p_power(p, k, root).form == LogMag.exact(Fraction(p) ** -k, root).form


@settings(max_examples=150, deadline=None)
@given(q=_positive_rationals, j=st.sampled_from([1, 2, 4]), root=st.sampled_from([1, 2, 3, 4, 6]))
@example(q=Fraction(1), j=1, root=1)
def test_halving_a_rational_total_is_the_product_by_one_half(q, j, root):
    x = LogMag.exact(q**j, root)
    assert x._halved().form == (x * Fraction(1, 2)).form


def _norm_order(y, p):
    n, c = y._norm_pair()
    return multiplicity(n, p) - multiplicity(c, p)


@settings(max_examples=120, deadline=None)
@given(
    d=st.sampled_from(_FIELDS),
    coeffs=st.lists(st.integers(-9, 9), min_size=4, max_size=4).filter(lambda c: any(c[:2]) and any(c[2:])),
    g=st.sampled_from([1, 2, 6, 10]),
    c=st.sampled_from([1, 3, 7, 11]),
    x=st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(any),
    weight=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(-1)]),
)
@example(d=2, coeffs=[1, 1, 0, 1], g=10, c=3, x=(7, 1), weight=Fraction(1))
@example(d=17, coeffs=[5, 1, 0, 0], g=6, c=7, x=(1, 0), weight=Fraction(3, 2))
def test_each_local_term_of_a_table_is_the_oracle_s(d, coeffs, g, c, x, weight):
    # s_D(x) = (A + B sqrt d)/C with C = c > 1 and gcd(A, B) divisible by g
    # where the draw has them, at every kind of place of Q(sqrt d); at a
    # finite w, lambda_D(x, w) = weight * ord_w(s_D(x)) * log p
    F = QuadField(d)
    a0, b0, a1, b1 = coeffs
    s = Fraction(g, c)
    sd = HomogPoly.from_terms(2, {(1, 0): F.element(a0 * s, b0 * s), (0, 1): F.element(a1 * s, b1 * s)})
    D = DivisorPresentation(sd, weight)
    X = ProjPoint.normalize(x)
    table = LocalTable(D, X)
    assume(not table.on_support)
    y = sd.evaluate(X.coords)
    n, m = y._norm_pair()
    primes = set(_PRIMES) | {p for k in (abs(n), m) for p in factorize(k)[0]}
    for p in [None, *sorted(primes)]:
        for w in places_above(Place(p), F):
            lam = table.local(w)
            assert lam == general_local(D, X, w), w
            if w.kind == SPLIT:
                assert lam == LogMag.exact(Fraction(p) ** split_order(y, p, w.index)) * weight, w
            elif w.kind in (INERT, RAMIFIED):
                assert lam == LogMag.exact(Fraction(p) ** _norm_order(y, p), 2) * weight, w
