import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from local_oracle import default_families, general_local
from orbitweil.exactnum import (
    LogMag,
    Place,
    QuadField,
    abs_value,
    factorize,
    logmag_sum,
    multiplicity,
    places_above,
)
from orbitweil.polydyn import HomogPoly, ProjPoint, height
from orbitweil.weil import (
    DivisorPresentation,
    LocalTable,
    SupportHit,
    galois_symmetrized,
    monomials_of_degree,
    weil_global,
    weil_local,
    weil_sum,
    _coprime_base,
)

INF = Place.archimedean()


def P(*coords):
    return ProjPoint.normalize(coords)


def line(a, b):
    return DivisorPresentation.hypersurface(HomogPoly.from_terms(2, {(1, 0): a, (0, 1): b}))


def scaled(d, c):
    """d with s_D scaled by a nonzero constant c: lambda_D moves by -weight * log|c|_v."""
    return DivisorPresentation(d.sd * Fraction(c), d.weight)


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
    # nonarchimedean lambda of integral default data is plain nonnegative
    d = DivisorPresentation.hypersurface(
        HomogPoly.from_terms(2, {(2, 0): 3, (1, 1): -1, (0, 2): 5})
    )
    for v in (Place.finite(2), Place.finite(3), Place.finite(11)):
        assert weil_local(d, P(2, 3), v).compare(LogMag.zero()) >= 0


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
    d = scaled(D_X3Y, c)
    for v in (INF, Place.finite(3), Place.finite(7), Place.finite(13)):
        assert weil_local(d, x, v) == weil_local(D_X3Y, x, v) - abs_value(c, v)


def test_extra_numerator_bounded_change():
    # the reference's max/min presentation, with x + y added to the numerators
    x_pts = [P(16, 1), P(5, 2), P(-7, 9)]
    numer, denom = default_families(2, 1)
    extra = numer + (HomogPoly.from_terms(2, {(1, 0): 1, (0, 1): 1}),)
    for x in x_pts:
        for v in (INF, Place.finite(2), Place.finite(13)):
            lam0 = weil_local(D_X3Y, x, v)
            lam1 = general_local(D_X3Y, x, v, extra, denom)
            # a larger generating family can only raise the max, and the
            # increase is bounded by the triangle constant of the new section
            assert lam1.compare(lam0) >= 0
            assert (lam1 - lam0).compare(LogMag.exact(2)) <= 0


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
    assert total == height(x)
    assert LocalTable(dF, x).all_places() == height(x)


def test_quadratic_audit_rows_carry_the_local_degree_weights():
    # D = 5x - sqrt(3) y at x = (17 : 5): N(s_D(x)) = 25 (17^2 - 3) = 2 * 5^2 * 11 * 13,
    # so the rows hold a real, a ramified, an inert and a split place of Q(sqrt 3)
    F = QuadField(3)
    d = DivisorPresentation.hypersurface(HomogPoly.from_terms(2, {(1, 0): F.element(5), (0, 1): -F.sqrt_gen()}))
    x = P(17, 5)
    total, rows = LocalTable(d, x).all_places(parts=True)
    kinds = {None: "real", 2: "ramified", 5: "inert", 11: "split", 13: "split"}
    assert [(w.p, w.index) for w, _ in rows] == [
        (None, 0), (None, 1), (2, 0), (5, 0), (11, 0), (11, 1), (13, 0), (13, 1)
    ]
    for w, term in rows:
        assert w.kind == kinds[w.p]
        lam = weil_local(d, x, w)
        # [F_w:Q_v]/[F:Q]: 1/2 at a split or real place, 1 at an inert or ramified one
        assert term == (lam * Fraction(1, 2) if w.kind in ("real", "split") else lam)
    assert not weil_local(d, x, Place(5, F)).is_zero()
    assert logmag_sum([term for _, term in rows]) == total == height(x)


def test_galois_symmetrized_identity_random():
    F = QuadField(2)
    g = HomogPoly.from_terms(2, {(1, 0): F.element(1), (0, 1): -F.sqrt_gen()})
    dF = DivisorPresentation.hypersurface(g)
    rng = random.Random(31)
    for _ in range(20):
        x = P(rng.randint(-30, 30), rng.randint(1, 30))
        if dF.support_test(x):
            continue
        assert galois_symmetrized(dF, x) == height(x)


def test_weil_local_at_extension_place_restricts():
    F = QuadField(2)
    x = P(16, 1)
    for v in (Place.finite(7), Place.finite(13)):
        for w in places_above(v, F):
            assert weil_local(D_X3Y, x, w) == weil_local(D_X3Y, x, v)


def test_presentation_validation():
    with pytest.raises(ValueError):
        DivisorPresentation.hypersurface(HomogPoly.zero(2, 1))
    with pytest.raises(ValueError):
        DivisorPresentation.hypersurface(D_X3Y.sd, weight=0)


def test_local_table_evaluates_each_place_once(monkeypatch):
    import orbitweil.weil as weil

    calls = []
    real = weil.weil_local

    def counting(d, x, v, **kw):
        calls.append(v)
        return real(d, x, v, **kw)

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


def test_local_terms_choose_their_place_and_build_M_e_once(monkeypatch):
    import orbitweil.weil as weil

    chosen, tops = [], []
    real_choose, real_local = weil._choose_place, weil.weil_local

    def choose(d, v):
        chosen.append(v)
        return real_choose(d, v)

    def local(d, x, v, **kw):
        tops.append((v, kw["top"]))
        return real_local(d, x, v, **kw)

    monkeypatch.setattr(weil, "_choose_place", choose)
    monkeypatch.setattr(weil, "weil_local", local)
    d = DivisorPresentation.hypersurface(
        HomogPoly.from_terms(2, {(1, 0): _F2.element(1), (0, 1): _F2.element(0, -1)}))
    table = LocalTable(d, P(16, 3))
    S = [INF, Place.finite(7)]
    table.lambda_S(S)
    assert chosen == S  # weil_local takes the place the table chose
    table.all_places()
    # M^e = 16 reaches both real places from the table
    assert [top for w, top in tops if w.p is None] == [16, 16]


_F2 = QuadField(2)
_PLACES_Q = [INF] + [Place.finite(p) for p in (2, 3, 5, 7, 11, 13, 10007)]
_PLACES_F = [*_PLACES_Q, *places_above(Place.finite(7), _F2)]  # 7 splits in Q(sqrt 2)
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
    assert table.lambda_S(S) == weil_sum(d, x, S) == _lambda_S_reference(d, x, S)


@settings(max_examples=60, deadline=None)
@given(d=_divisors_F, coords=_points, S=st.lists(st.sampled_from(_PLACES_F), unique=True))
def test_table_height_identity_and_lambda_S_over_Q_sqrt2(d, coords, S):
    x = P(*coords)
    assume(not d.support_test(x))
    table = LocalTable(d, x)
    total = galois_symmetrized(d, x)
    assert total == table.all_places() == height(x) * (d.weight * d.degree)
    assert table.lambda_S(S) == weil_sum(d, x, S) == _lambda_S_reference(d, x, S)


# -- the closed form of default presentations -----------------------------------

def _ternary_default_divisor(coeffs, weight):
    terms = dict(zip(monomials_of_degree(3, 2), coeffs))
    return DivisorPresentation.hypersurface(HomogPoly.from_terms(3, terms), weight=weight)


_ternary_divisors_Q = st.builds(
    _ternary_default_divisor,
    st.lists(st.integers(-30, 30), min_size=6, max_size=6).filter(any),
    st.sampled_from([1, Fraction(2, 3)]),
)
_ternary_points = st.tuples(*[st.integers(-10**4, 10**4)] * 3).filter(any)


def _assert_closed_form_is_general_path(d, x, places):
    """weil_local equals the reference's max_j path on the default families."""
    _, parts = LocalTable(d, x).all_places(parts=True)
    for w in {*places, *(w for w, _ in parts if w is not None)}:
        assert weil_local(d, x, w) == general_local(d, x, w)


@settings(max_examples=100, deadline=None)
@given(
    case=st.one_of(st.tuples(_divisors_Q, _points), st.tuples(_ternary_divisors_Q, _ternary_points)),
    scale=st.sampled_from([1, Fraction(12, 35), -6]),
    negative=st.booleans(),
    S=st.lists(st.sampled_from(_PLACES_Q), unique=True),
)
def test_closed_form_equals_general_path_over_Q(case, scale, negative, S):
    d, coords = case
    # s_D(x) a non-integral or negated multiple of the primitive form's value,
    # and weight -1, beside the drawn primitive, positive-weight divisors
    d = scaled(d, scale)
    if negative:
        d = replace(d, weight=Fraction(-1))
    x = P(*coords)
    assume(not d.support_test(x))
    _assert_closed_form_is_general_path(d, x, S)


# Q(sqrt 2): real, ramified at 2, split at 7; Q(sqrt 3): ramified at 2 and 3,
# inert at 5, split at 11 and 13; Q(sqrt 17): split at 2 (the 2-adic branch)
# and 13, inert at 3; Q(sqrt -1): complex, ramified at 2, inert at 3, split at 5
_QUADRATIC_FIELDS = [QuadField(d) for d in (2, 3, 17, -1)]


@st.composite
def _quadratic_divisors(draw):
    F = draw(st.sampled_from(_QUADRATIC_FIELDS))
    coeffs = draw(st.lists(
        st.builds(F.element, st.integers(-30, 30), st.integers(-30, 30)), min_size=2, max_size=3,
    ).filter(lambda cs: any(c.b for c in cs)))
    return F, _default_divisor(coeffs, draw(st.sampled_from([1, 2, Fraction(1, 2)])))


@settings(max_examples=160, deadline=None)
@given(
    case=_quadratic_divisors(),
    coords=_points,
    scale=st.sampled_from([1, Fraction(12, 35), -6]),
    negative=st.booleans(),
    S=st.lists(st.sampled_from(_PLACES_Q), unique=True),
)
def test_closed_form_equals_general_path_over_quadratic_fields(case, coords, scale, negative, S):
    F, d = case
    # a scaled s_D(x), and weight -1, as over Q
    d = scaled(d, scale)
    if negative:
        d = replace(d, weight=Fraction(-1))
    x = P(*coords)
    assume(not d.support_test(x))
    # every place of F above the sampled places of Q, both real ones included
    above = [w for v in S for w in places_above(v, F)]
    _assert_closed_form_is_general_path(d, x, S + above)


def test_default_presentations_take_no_abs_value(monkeypatch):
    import orbitweil.exactnum as exactnum

    calls = []
    real = exactnum._abs_rational

    def counting(val, w):
        calls.append(w)
        return real(val, w)

    # abs_value reads every rational through exactnum._abs_rational
    monkeypatch.setattr(exactnum, "_abs_rational", counting)
    x = P(60, 7)
    cases = [(_default_divisor([1, 0, -3, 5], Fraction(3, 2)), None)]
    cases += [(_default_divisor([F.element(1, 1), F.element(-2, 1)], 1), F) for F in _QUADRATIC_FIELDS]
    for d, F in cases:
        S = _PLACES_Q + ([w for v in _PLACES_Q for w in places_above(v, F)] if F else [])
        table = LocalTable(d, x)
        table.lambda_S(S)
        table.all_places(parts=True)
    assert calls == []
    # the reference reads every section through abs_value
    general_local(cases[0][0], x, INF)
    assert calls


def test_default_table_evaluates_s_D_once(monkeypatch):
    calls = []
    real = HomogPoly.evaluate

    def counting(self, coords):
        calls.append(self)
        return real(self, coords)

    monkeypatch.setattr(HomogPoly, "evaluate", counting)
    x = P(16, 1)
    for d in (_default_divisor([1, 0, -3, 5], 1),
              _default_divisor([_F2.element(1), _F2.element(0, -1)], 1)):
        calls.clear()
        table = LocalTable(d, x)
        table.lambda_S(_PLACES_F if d.field else _PLACES_Q)
        table.all_places(parts=True)
        table.lambda_S([INF, Place.finite(3)])
        assert calls == [d.sd]


# -- the coprime base of the sum over all places --------------------------------

M61, M89 = 2**61 - 1, 2**89 - 1  # Mersenne primes; M61 * M89 is past trial division


@settings(max_examples=150, deadline=None)
@given(
    d=_divisors_Q,
    scale=st.sampled_from([1, Fraction(12, 35), -6, Fraction(1, 9)]),
    coords=st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(any),
)
def test_base_terms_are_the_local_terms_of_their_primes(d, scale, coords):
    d = scaled(d, scale)
    x = P(*coords)
    assume(not d.support_test(x))
    s = d.sd.evaluate(x.coords)
    ns = [abs(s.numerator), s.denominator]
    assume(all(factorize(n)[1] == 1 for n in ns))
    # the base of the whole value: no prime is divided out beforehand
    for b in _coprime_base(ns):
        primes = factorize(b)[0]
        local = logmag_sum([weil_local(d, x, Place.finite(p)) for p in primes])
        assert LogMag.exact(b) * (d.weight * multiplicity(s, b)) == local
    # the place rows of all_places are the same local terms
    total, parts = LocalTable(d, x).all_places(parts=True)
    assert all(v is not None for v, _ in parts)
    assert total == logmag_sum([weil_local(d, x, v) for v, _ in parts])


def test_coprime_base_refines_shared_factors():
    assert _coprime_base([12, 18, 1, 35]) == [2, 3, 35]
    assert _coprime_base([M61 * M89, M89**2 * 3]) == [3, M61, M89]
    assert _coprime_base([6, 6, 36]) == [6]
    assert _coprime_base([1]) == []


def test_base_keeps_scaled_and_weighted_presentations_exact_past_trial_division():
    x = P(M61 * M89 + 1, 1)  # s_D(x) = M61 * M89 for D = x - y
    line_xy = line(1, -1)
    h = height(x)
    for d in (scaled(line_xy, Fraction(5, 7)), DivisorPresentation(line_xy.sd, Fraction(3, 2))):
        total, parts = weil_global(d, x, parts=True)
        assert total == h * d.weight
        assert (None, LogMag.exact(M61 * M89) * d.weight) in parts
        assert Place.finite(M61) not in dict(parts)


def test_held_place_above_1000_is_its_own_row():
    p = 2**31 - 1
    x = P(p * M89 + 1, 1)  # s_D(x) = p * M89, past trial division
    inf_row = (INF, LogMag.exact(Fraction(x.coords[0], p * M89)))
    table = LocalTable(line(1, -1), x)
    assert table.all_places(parts=True)[1] == [inf_row, (None, LogMag.exact(p * M89))]
    table = LocalTable(line(1, -1), x)
    table.lambda_S([INF, Place.finite(p)])
    total, parts = table.all_places(parts=True)
    assert parts == [inf_row, (Place.finite(p), LogMag.exact(p)), (None, LogMag.exact(M89))]
    assert total == height(x)


def test_scaled_quadratic_presentation_is_default_past_trial_division():
    F = QuadField(2)
    g = HomogPoly.from_terms(2, {(1, 0): F.element(1), (0, 1): -F.sqrt_gen()})
    dF = DivisorPresentation.hypersurface(g)
    x = P(M61 * M89, 1)
    assert factorize(x.coords[0] ** 2 - 2)[1] != 1  # N(s_D(x)) is left with a cofactor
    assert galois_symmetrized(dF, x) == height(x)
    assert galois_symmetrized(scaled(dF, 3), x) == height(x)
