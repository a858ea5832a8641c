import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from orbitweil.exactnum import LogMag, Place, QuadField, abs_value, logmag_sum, places_above
from orbitweil.polydyn import HomogPoly, ProjPoint, height
from orbitweil.weil import (
    DivisorPresentation,
    LocalTable,
    SupportHit,
    galois_symmetrized,
    monomials_of_degree,
    weil_all_places,
    weil_global,
    weil_local,
    weil_sum,
)

INF = Place.archimedean()


def P(*coords):
    return ProjPoint.normalize(coords)


def line(a, b):
    return DivisorPresentation.hypersurface(HomogPoly.from_terms(2, {(1, 0): a, (0, 1): b}))


D_X3Y = line(1, -3)  # x - 3y


def test_monomials_of_degree():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(monomials_of_degree(3, 4)) == 15
    assert monomials_of_degree(2, 0) == [(0, 0)]


def test_weil_local_examples():
    x = P(16, 1)
    assert weil_local(D_X3Y, x, INF) == LogMag.exact(Fraction(16, 13))
    assert weil_local(D_X3Y, x, Place.finite(13)) == LogMag.exact(13)
    assert weil_local(D_X3Y, x, Place.finite(2)) == LogMag.zero()
    assert weil_sum(D_X3Y, x, [INF, Place.finite(13)]) == LogMag.exact(16)
    with pytest.raises(ValueError):
        weil_sum(D_X3Y, x, [INF, INF])


def test_support_hit():
    assert D_X3Y.support_test(P(3, 1))
    with pytest.raises(SupportHit):
        weil_local(D_X3Y, P(3, 1), INF)
    with pytest.raises(SupportHit):
        weil_global(D_X3Y, P(3, 1))


def test_weil_global_examples():
    circle = DivisorPresentation.hypersurface(
        HomogPoly.from_terms(2, {(2, 0): 1, (0, 2): 1})
    )
    assert weil_global(circle, P(1, 1)) == LogMag.zero()
    assert weil_global(D_X3Y, P(16, 1)) == LogMag.exact(16)
    assert weil_global(D_X3Y, P(1, 1)) == LogMag.zero()


def test_height_identity_random():
    rng = random.Random(17)
    for _ in range(60):
        coeffs = {}
        deg = rng.choice([1, 1, 2, 3])
        for m in monomials_of_degree(2, deg):
            coeffs[m] = rng.randint(-9, 9)
        g = HomogPoly.from_terms(2, coeffs)
        if g.is_zero:
            continue
        d = DivisorPresentation.hypersurface(g, weight=rng.choice([1, 2, Fraction(1, 2)]))
        x = P(rng.randint(-60, 60), rng.randint(1, 60))
        if d.support_test(x):
            continue
        assert weil_global(d, x) == height(x) * (d.weight * deg)


def test_weight_linearity():
    x = P(16, 1)
    base = weil_local(D_X3Y, x, INF)
    for w in (2, Fraction(1, 2), Fraction(-3, 4)):
        dw = DivisorPresentation.hypersurface(D_X3Y.sd, weight=w)
        assert weil_local(dw, x, INF) == base * w
        if w > 0:
            assert weil_global(dw, x) == height(x) * w


def test_scaled_presentation_shifts_by_log_c():
    x = P(16, 1)
    c = Fraction(3, 7)
    scaled = D_X3Y.scaled(c)
    for v in (INF, Place.finite(3), Place.finite(7), Place.finite(13)):
        assert weil_local(scaled, x, v) == weil_local(D_X3Y, x, v) - abs_value(c, v)


def test_extra_numerator_bounded_change():
    x_pts = [P(16, 1), P(5, 2), P(-7, 9)]
    extra = D_X3Y.with_extra_numerator(HomogPoly.from_terms(2, {(1, 0): 1, (0, 1): 1}))
    c = extra.nonnegativity_constant()
    assert c is not None
    for x in x_pts:
        for v in (INF, Place.finite(2), Place.finite(13)):
            lam0 = weil_local(D_X3Y, x, v)
            lam1 = weil_local(extra, x, v)
            # a larger generating family can only raise the max, and the
            # increase is bounded by the triangle constant of the new section
            assert lam1.compare(lam0) >= 0
            assert (lam1 - lam0).compare(LogMag.exact(2)) <= 0


def test_nonnegativity_with_constant():
    rng = random.Random(23)
    d = DivisorPresentation.hypersurface(
        HomogPoly.from_terms(2, {(2, 0): 3, (1, 1): -1, (0, 2): 5})
    )
    c = d.nonnegativity_constant()
    assert c is not None
    for _ in range(40):
        x = P(rng.randint(-25, 25), rng.randint(1, 25))
        if d.support_test(x):
            continue
        for v in (INF, Place.finite(2), Place.finite(3), Place.finite(11)):
            assert weil_local(d, x, v).compare(-c) >= 0
    # nonarchimedean lambda of integral default data is plain nonnegative
    for v in (Place.finite(2), Place.finite(3), Place.finite(11)):
        assert weil_local(d, P(2, 3), v).compare(LogMag.zero()) >= 0


def test_residual_aggregation_keeps_exactness():
    p, q = 2**89 - 1, 2**107 - 1  # far beyond the factoring budget
    n = p * q + 1
    d = line(1, -1)
    assert weil_global(d, P(n, 1)) == LogMag.exact(n)
    total, parts = weil_global(d, P(n, 1), parts=True)
    assert any(v is None for v, _ in parts)  # the aggregated residual row


def test_field_dispatch_errors():
    F = QuadField(2)
    g = HomogPoly.from_terms(2, {(1, 0): F.element(1), (0, 1): -F.sqrt_gen()})
    dF = DivisorPresentation.hypersurface(g)
    with pytest.raises(Exception):
        weil_global(dF, P(3, 1))
    with pytest.raises(Exception):
        galois_symmetrized(D_X3Y, P(16, 1))


def test_galois_symmetrized_example():
    F = QuadField(2)
    g = HomogPoly.from_terms(2, {(1, 0): F.element(1), (0, 1): -F.sqrt_gen()})
    dF = DivisorPresentation.hypersurface(g)
    x = P(3, 1)
    total, parts = galois_symmetrized(dF, x, parts=True)
    finite = [lm for w, lm in parts if w is not None and not w.is_archimedean]
    fin_total = finite[0]
    for lm in finite[1:]:
        fin_total = fin_total + lm
    # N(3 - sqrt(2)) = 7: the finite contribution is exactly (1/2) log 7
    assert fin_total == LogMag.exact(7, 2)
    diff = total - height(x)
    assert not diff.is_exact and abs(diff.to_float()) < 1e-28
    assert weil_all_places(dF, x).compare(height(x), tol=1e-25) == 0


def test_galois_symmetrized_identity_random():
    F = QuadField(2)
    g = HomogPoly.from_terms(2, {(1, 0): F.element(1), (0, 1): -F.sqrt_gen()})
    dF = DivisorPresentation.hypersurface(g)
    rng = random.Random(31)
    for _ in range(20):
        x = P(rng.randint(-30, 30), rng.randint(1, 30))
        if dF.support_test(x):
            continue
        diff = galois_symmetrized(dF, x) - height(x)
        assert abs(diff.to_float()) < 1e-28


def test_weil_local_at_extension_place_restricts():
    F = QuadField(2)
    x = P(16, 1)
    for v in (Place.finite(7), Place.finite(13)):
        for w in places_above(v, F):
            assert weil_local(D_X3Y, x, w) == weil_local(D_X3Y, x, v)


def test_presentation_validation():
    with pytest.raises(ValueError):
        # numerator minus denominator degree must match deg(sd): 2 - 2 != 1
        DivisorPresentation(
            HomogPoly.from_terms(2, {(1, 0): 1}),
            (HomogPoly.monomial([2, 0]),),
            (HomogPoly.monomial([0, 2]),),
        )
    with pytest.raises(ValueError):
        DivisorPresentation.hypersurface(HomogPoly.zero(2, 1))
    with pytest.raises(ValueError):
        DivisorPresentation.hypersurface(D_X3Y.sd, weight=0)


def test_local_table_evaluates_each_place_once(monkeypatch):
    import orbitweil.weil as weil

    calls = []
    real = weil.weil_local

    def counting(d, x, v):
        calls.append(v)
        return real(d, x, v)

    monkeypatch.setattr(weil, "weil_local", counting)
    x = P(16, 1)  # s_D(x) = 13
    table = LocalTable(D_X3Y, x)
    assert table.all_places() == LogMag.exact(16)
    assert calls == [INF, Place.finite(13)]
    S = [Place.finite(2), INF, Place.finite(13)]
    assert table.lambda_S(S) == LogMag.exact(16)
    assert calls == [INF, Place.finite(13), Place.finite(2)]  # only the new place
    assert table.all_places(parts=True) == (LogMag.exact(16), [
        (INF, LogMag.exact(Fraction(16, 13))), (Place.finite(13), LogMag.exact(13))])
    assert len(calls) == 3
    with pytest.raises(ValueError):
        table.lambda_S([INF, INF])


_F2 = QuadField(2)
_PLACES_Q = [INF] + [Place.finite(p) for p in (2, 3, 5, 7, 11, 13, 10007)]
_PLACES_F = _PLACES_Q + places_above(Place.finite(7), _F2)  # 7 splits in Q(sqrt 2)
_points = st.tuples(st.integers(-10**5, 10**5), st.integers(-10**5, 10**5)).filter(any)


def _lambda_S_reference(d, x, S):
    return logmag_sum([weil_local(d, x, v) for v in S])


def _default_divisor(coeffs, weight):
    terms = dict(zip(monomials_of_degree(2, len(coeffs) - 1), coeffs))
    return DivisorPresentation.hypersurface(HomogPoly.from_terms(2, terms), weight=weight)


_divisors_Q = st.builds(
    _default_divisor,
    st.lists(st.integers(-30, 30), min_size=2, max_size=4).filter(any),
    st.sampled_from([1, 2, Fraction(1, 2), Fraction(3, 4)]),
)
_divisors_F = st.builds(
    _default_divisor,
    st.lists(
        st.builds(_F2.element, st.integers(-30, 30), st.integers(-30, 30)),
        min_size=2,
        max_size=3,
    ).filter(lambda cs: any(c.b for c in cs)),
    st.sampled_from([1, 2, Fraction(1, 2)]),
)


@settings(max_examples=120, deadline=None)
@given(d=_divisors_Q, coords=_points, S=st.lists(st.sampled_from(_PLACES_Q), unique=True))
def test_table_height_identity_and_lambda_S_over_Q(d, coords, S):
    x = P(*coords)
    assume(not d.support_test(x))
    table = LocalTable(d, x)
    assert weil_global(d, x) == table.all_places() == height(x) * (d.weight * d.degree)
    assert weil_all_places(d, x) == table.all_places()
    assert table.lambda_S(S) == weil_sum(d, x, S) == _lambda_S_reference(d, x, S)


@settings(max_examples=60, deadline=None)
@given(d=_divisors_F, coords=_points, S=st.lists(st.sampled_from(_PLACES_F), unique=True))
def test_table_height_identity_and_lambda_S_over_Q_sqrt2(d, coords, S):
    x = P(*coords)
    assume(not d.support_test(x))
    table = LocalTable(d, x)
    total = galois_symmetrized(d, x)
    assert total == table.all_places() == weil_all_places(d, x)
    assert total.compare(height(x) * (d.weight * d.degree), tol=1e-22) == 0
    assert table.lambda_S(S) == weil_sum(d, x, S) == _lambda_S_reference(d, x, S)
