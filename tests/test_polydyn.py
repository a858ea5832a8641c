import math
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from local_oracle import rational_support
from orbitweil.exactnum import (
    FieldMismatch,
    LogMag,
    Place,
    QuadElem,
    QuadField,
    abs_value,
    logmag_sum,
)
from orbitweil.polydyn import (
    FAILED,
    VERIFIED,
    HomogPoly,
    IndeterminatePoint,
    Morphism,
    ProjPoint,
    ZeroPoint,
    evaluate,
    height,
    iterate,
    macaulay_determinant,
    monomials_of_degree,
    pullback,
    wellformed_check,
)

X2 = HomogPoly.monomial([2, 0])
Y2 = HomogPoly.monomial([0, 2])
SQUARING = Morphism((X2, Y2))


def P(*coords):
    return ProjPoint.normalize(coords)


def test_normalize():
    assert P(4, 6).coords == (2, 3)
    assert P(-2, 4).coords == (1, -2)
    assert P(0, -5).coords == (0, 1)
    assert P(Fraction(2, 3), 1).coords == (2, 3)
    assert P(Fraction(1, 2), Fraction(1, 3)).coords == (3, 2)
    with pytest.raises(ZeroPoint):
        P(0, 0)
    with pytest.raises(ValueError):
        ProjPoint((2, 4))
    with pytest.raises(ValueError):
        ProjPoint((-1, 2))
    with pytest.raises(ZeroPoint):
        ProjPoint((0, 0))
    # normalize builds its point without the constructor's checks
    assert P(-4, 6) == ProjPoint((2, -3)) and hash(P(-4, 6)) == hash(ProjPoint((2, -3)))
    # and so does every caller that has coprime coordinates; the lead's sign is fixed there
    assert ProjPoint._unchecked((-3, 2)).coords == (3, -2)
    assert ProjPoint._unchecked([0, -1, 4]).coords == (0, 1, -4)


def _height_oracle(coords):
    """Full sum over places of log max_i |x_i|_v for an arbitrary representative."""
    primes = set()
    for c in coords:
        if c != 0:
            primes.update(rational_support(Fraction(c)))
    parts = [logmag_sum([])]
    total = LogMag.zero()
    for v in [Place.archimedean()] + [Place.finite(p) for p in sorted(primes)]:
        vals = [abs_value(Fraction(c), v) for c in coords if c != 0]
        best = vals[0]
        for t in vals[1:]:
            if t.compare(best) > 0:
                best = t
        total = total + best
    return total


def test_height_examples_and_oracle():
    assert height(P(16, 1)) == LogMag.exact(16)
    assert height(P(0, 1)) == LogMag.zero()
    assert height(P(2, 3)) == LogMag.exact(3)
    # projective invariance: the full adelic sum on a non-primitive
    # representative agrees with the max formula on the primitive one
    rng = random.Random(5)
    for _ in range(25):
        prim = P(rng.randint(-40, 40), rng.randint(1, 40), rng.randint(-40, 40))
        lam = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        rep = [c * lam for c in prim.coords]
        assert _height_oracle(rep) == height(prim)


def test_evaluate_and_orbit():
    assert evaluate(SQUARING, P(2, 1)).coords == (4, 1)
    assert evaluate(SQUARING, P(-2, 3)).coords == (4, 9)
    orbit = iterate(SQUARING, P(2, 1), 8)
    assert [s.point.coords[0] for s in orbit.steps] == [2 ** (2**n) for n in range(9)]
    for n, s in enumerate(orbit.steps):
        assert s.h == LogMag.exact(2) * (2**n)
    bad = Morphism((HomogPoly.monomial([1, 1]), X2))
    with pytest.raises(IndeterminatePoint):
        evaluate(bad, P(0, 1))


def test_deep_orbit_heights_exact():
    orbit = iterate(SQUARING, P(2, 1), 20)
    assert orbit.steps[20].h == LogMag.exact(2) * (2**20)


def test_jointly_scaled_forms_have_equal_integral_forms():
    # (c*F_0, ..., c*F_n) is the same map; scaling one form is another
    f = Morphism((X2 * Fraction(3, 7), Y2 * Fraction(3, 7)))
    assert f.integral_forms == SQUARING.integral_forms
    assert Morphism((X2 * 2, Y2)).integral_forms != SQUARING.integral_forms


def test_integral_forms_are_pinned():
    # coprime integer coefficients and a positive lead, for a negative c too
    assert SQUARING.integral_forms == (X2, Y2)
    f = Morphism((X2 * Fraction(-3, 7), Y2 * Fraction(-3, 7)))
    assert f.integral_forms == (X2, Y2)
    xy, xz, z2 = (HomogPoly.monomial(e) for e in ((1, 1, 0), (1, 0, 1), (0, 0, 2)))
    g = Morphism((xy * Fraction(-2, 3), xz * Fraction(4, 9), z2 * Fraction(-8, 3)))
    assert g.integral_forms == (xy * 3, xz * -2, z2 * 12)


_ROOTS = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any)


def _form_with_roots(c: Fraction, roots) -> HomogPoly:
    # c * prod (b x - a y), which vanishes exactly at the points (a : b)
    form = HomogPoly(2, 0, {(0, 0): c})
    for a, b in roots:
        form = form * HomogPoly(2, 1, {(1, 0): b, (0, 1): -a})
    return form


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 4),
    cf=st.fractions(max_denominator=9).filter(bool),
    cg=st.fractions(max_denominator=9).filter(bool),
)
def test_resultant_vanishes_exactly_on_a_shared_root(data, d, cf, cg):
    ra = data.draw(st.lists(_ROOTS, min_size=d, max_size=d))
    rb = data.draw(st.lists(_ROOTS, min_size=d, max_size=d))
    res = macaulay_determinant((_form_with_roots(cf, ra), _form_with_roots(cg, rb)))
    shared = any(a * d2 == b * c2 for a, b in ra for c2, d2 in rb)
    assert (res == 0) == shared
    # the resultant is multiplicative; Res(b x - a y, d x - c y) = a d - b c
    assert res == cf**d * cg**d * math.prod(a * d2 - b * c2 for a, b in ra for c2, d2 in rb)


_COEFFS = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=6)
)


@st.composite
def _maps(draw):
    """Integer and rational maps of degree <= 3 on P^1 and P^2."""
    nv = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(1, 3))
    forms = tuple(
        HomogPoly(nv, d, {m: draw(_COEFFS) for m in monomials_of_degree(nv, d)})
        for _ in range(nv)
    )
    return Morphism(forms) if any(not f.is_zero for f in forms) else SQUARING


def _fp_common_zero(forms, p):
    """Exhaustive oracle: a zero in P^n(F_p) shared by the integral forms, or None."""
    nv = forms[0].nvars
    for lead in range(nv):
        for rest in product(range(p), repeat=nv - lead - 1):
            pt = (0,) * lead + (1,) + rest
            if all(form.evaluate(pt) % p == 0 for form in forms):
                return pt
    return None


@settings(max_examples=80, deadline=None)
@given(f=_maps(), data=st.data())
def test_evaluate_reduces_mod_the_macaulay_determinant(f, data):
    delta = f.macaulay_det
    raw = data.draw(st.lists(st.integers(-60, 60), min_size=f.nvars, max_size=f.nvars).filter(any))
    x = ProjPoint.normalize(raw)
    vals = [form.evaluate(x.coords) for form in f.forms]
    if any(vals):
        assert evaluate(f, x) == ProjPoint.normalize(vals)
    else:
        assert delta == 0
        with pytest.raises(IndeterminatePoint):
            evaluate(f, x)
    ints = [form.evaluate(x.coords) for form in f.integral_forms]
    assert all(isinstance(v, int) for v in ints)
    # gcd_i F_i(x) divides delta at every primitive x
    assert delta % gcd(*ints) == 0 if any(ints) else delta == 0


@settings(max_examples=40, deadline=None)
@given(f=_maps())
def test_every_prime_of_bad_reduction_divides_the_macaulay_determinant(f):
    delta = f.macaulay_det
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        if _fp_common_zero(f.integral_forms, p) is not None:
            assert delta % p == 0


def test_pullback():
    g = HomogPoly.from_terms(2, {(1, 0): 1, (0, 1): -3})  # x - 3y
    pb = pullback(SQUARING, g)
    assert pb == HomogPoly.from_terms(2, {(2, 0): 1, (0, 2): -3})
    f2 = Morphism(tuple(pullback(SQUARING, F) for F in SQUARING.forms))
    assert pullback(SQUARING, pullback(SQUARING, g)) == pullback(f2, g)


def test_pullback_functoriality_random_points():
    rng = random.Random(9)
    p1_forms = (
        HomogPoly.from_terms(2, {(2, 0): 1, (1, 1): 2}),
        HomogPoly.from_terms(2, {(0, 2): 1, (2, 0): -1}),
    )
    p2_forms = (
        HomogPoly.from_terms(3, {(2, 0, 0): 1, (0, 1, 1): 1}),
        HomogPoly.from_terms(3, {(0, 2, 0): 1, (1, 0, 1): -1}),
        HomogPoly.from_terms(3, {(0, 0, 2): 1}),
    )
    x = HomogPoly.variable(2, 0)
    cases = [
        (p1_forms, HomogPoly.from_terms(2, {(1, 0): 5, (0, 1): 7}), False),
        # a cubic g on a quadratic morphism of P^2
        (p2_forms, HomogPoly.from_terms(
            3, {(3, 0, 0): 2, (1, 1, 1): -1, (0, 2, 1): 4, (0, 0, 3): -5}), False),
        # a Fraction coefficient
        (p1_forms, HomogPoly.from_terms(2, {(2, 0): Fraction(3, 7), (1, 1): -2}), False),
        # x0 - x1 under (x, x): every term cancels
        ((x, x), HomogPoly.from_terms(2, {(1, 0): 1, (0, 1): -1}), True),
    ]
    for forms, g, vanishes in cases:
        pb = g.compose(forms)
        assert (pb == HomogPoly.zero(forms[0].nvars, g.degree * forms[0].degree)) == vanishes
        for _ in range(50):
            c = tuple(rng.randint(-30, 30) for _ in range(forms[0].nvars))
            if not any(c):
                continue
            raw = [F.evaluate(c) for F in forms]
            assert pb.evaluate(c) == g.evaluate(raw)


_small_rationals = st.one_of(
    st.integers(-30, 30), st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
)


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([2, 3, -1]), data=st.data())
def test_evaluate_over_a_quadratic_field_is_the_sum_of_its_terms(d, data):
    # one (A, B, C) triple and one reduction against QuadElem arithmetic term by term
    F = QuadField(d)
    nv, deg = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    coeff = st.one_of(_small_rationals, st.builds(F.element, _small_rationals, _small_rationals))
    exps = data.draw(st.lists(st.sampled_from(monomials_of_degree(nv, deg)), unique=True))
    g = HomogPoly(nv, deg, {e: data.draw(coeff) for e in exps})
    coords = data.draw(st.lists(_small_rationals, min_size=nv, max_size=nv))
    want = 0
    for e, c in g.terms.items():
        term = c
        for x, k in zip(coords, e):
            if k:
                term = term * x**k
        want = term + want
    got = g.evaluate(coords)
    assert got == want and type(got) is type(want)
    if isinstance(got, QuadElem):
        assert got.field is F


def test_evaluate_refuses_a_form_of_two_fields():
    # only the unchecked constructor can build one
    g = HomogPoly(2, 1, {(1, 0): QuadField(2).element(1), (0, 1): QuadField(3).element(0, 1)})
    with pytest.raises(FieldMismatch):
        g.evaluate((1, 1))


def test_poly_algebra():
    def linear(a, b):
        return HomogPoly.from_terms(2, {(1, 0): a, (0, 1): b})

    g = linear(1, -3) * linear(1, 3)
    assert g == HomogPoly.from_terms(2, {(2, 0): 1, (0, 2): -9})
    assert linear(1, 1) ** 3 == HomogPoly.from_terms(
        2, {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    )
    assert g.evaluate((4, 1)) == 7


_F2, _F3 = QuadField(2), QuadField(3)


@pytest.mark.parametrize(
    "nvars, terms, error, message",
    [
        (2, {(2, 0): 1, (1, 0): 1}, ValueError, "mixed degrees [1, 2]"),
        (2, {(1, 0, 0): 1}, ValueError, "bad exponent vector (1, 0, 0)"),
        (2, {(2, 0): 1, (-1, 3): 1}, ValueError, "bad exponent vector (-1, 3)"),
        # a zero coefficient takes no part in the degree, but its term is still checked
        (2, {(2, 0): 1, (1, 0): 0}, ValueError, "term (1, 0) is not of degree 2"),
        (2, {(1, 0): 0}, ValueError, "term (1, 0) is not of degree 0"),
        # terms are checked in input order
        (2, {(0, 1): 0, (1, 1, 0): 1}, ValueError, "term (0, 1) is not of degree 2"),
        (2, {(1, 0): _F2.element(1), (0, 1): _F3.element(0, 1)}, FieldMismatch,
         "mixed quadratic fields in one polynomial"),
    ],
    ids=["mixed-degrees", "arity", "negative", "zero-term-degree", "all-zero", "order",
         "mixed-fields"],
)
def test_from_terms_checks_outside_input(nvars, terms, error, message):
    with pytest.raises(error) as info:
        HomogPoly.from_terms(nvars, terms)
    assert str(info.value) == message


@pytest.mark.parametrize("e", [1.5, 1.0, Fraction(1)], ids=["float", "integral-float", "fraction"])
def test_from_terms_refuses_exponents_that_are_not_ints(e):
    # no truncation to another monomial, whether or not the exponent is integral
    with pytest.raises(ValueError) as info:
        HomogPoly.from_terms(2, {(e, 1 - e): 1})
    assert str(info.value) == f"bad exponent vector {(e, 1 - e)}"


def test_monomial_checks_its_exponents():
    with pytest.raises(ValueError, match=r"bad exponent vector \(-1, 2\)"):
        HomogPoly.monomial([-1, 2])


def test_forms_drop_zero_terms_and_keep_integral_rationals_as_ints():
    def linear(a, b):
        return HomogPoly.from_terms(2, {(1, 0): a, (0, 1): b})

    g = HomogPoly.from_terms(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(0)})
    assert g.terms == {(1, 0): 2} and type(g.terms[(1, 0)]) is int
    # (x/3 + y)(3x - 3y) = x^2 + 2xy - 3y^2, and (x + y)(x - y) has no xy term
    product = linear(Fraction(1, 3), 1) * linear(3, -3)
    assert product.terms == {(2, 0): 1, (1, 1): 2, (0, 2): -3}
    assert all(type(c) is int for c in product.terms.values())
    assert (linear(1, 1) * linear(1, -1)).terms == {(2, 0): 1, (0, 2): -1}
    assert linear(_F2.element(1), 0).field == _F2 and linear(1, 0).field is None
    # (0, 1) given twice, once as a range: coefficients that sum to zero leave no term
    for c in (3, Fraction(1, 3), _F2.element(1, 2)):
        assert HomogPoly.from_terms(2, {(1, 0): 1, (0, 1): c, range(2): -c}).terms == {(1, 0): 1}
    # a zero scalar leaves the zero form of the same degree
    for zero in (0, Fraction(0), _F2.element(0)):
        assert product * zero == HomogPoly.zero(2, 2) and (zero * product).is_zero


def test_content_and_primitive():
    g = HomogPoly.from_terms(2, {(2, 0): Fraction(4, 3), (0, 2): Fraction(2, 9)})
    assert g.content() == Fraction(2, 9)
    assert g.primitive() == HomogPoly.from_terms(2, {(2, 0): 6, (0, 2): 1})
    assert g.primitive().content() == 1


def test_wellformed_p1():
    assert wellformed_check(SQUARING).status == VERIFIED
    assert SQUARING.macaulay_det == 1
    degenerate = Morphism((HomogPoly.monomial([1, 1]), X2))
    rep = wellformed_check(degenerate)
    assert rep.status == FAILED
    assert rep.witness is not None and rep.witness.coords == (0, 1)
    with pytest.raises(ValueError):
        macaulay_determinant((X2, Y2, X2))


def test_wellformed_p2():
    f = Morphism(tuple(HomogPoly.monomial([2 if i == j else 0 for j in range(3)]) for i in range(3)))
    assert wellformed_check(f).status == VERIFIED
    # toric Fibonacci projectivization: common zeros on the boundary
    fib = Morphism((
        HomogPoly.from_terms(3, {(1, 1, 0): 1}),
        HomogPoly.from_terms(3, {(1, 0, 1): 1}),
        HomogPoly.from_terms(3, {(0, 0, 2): 1}),
    ))
    rep = wellformed_check(fib)
    assert rep.status == FAILED and rep.witness is not None


def test_wellformed_p3_random_quadrics():
    rng = random.Random(3)
    forms = tuple(
        HomogPoly(4, 2, {m: rng.randint(-5, 5) for m in monomials_of_degree(4, 2)})
        for _ in range(4)
    )
    assert wellformed_check(Morphism(forms)).status == VERIFIED


def test_torus_orbit_of_nonmorphism():
    fib = Morphism((
        HomogPoly.from_terms(3, {(1, 1, 0): 1}),
        HomogPoly.from_terms(3, {(1, 0, 1): 1}),
        HomogPoly.from_terms(3, {(0, 0, 2): 1}),
    ))
    orbit = iterate(fib, P(2, 1, 1), 10)
    fibs = [0, 1]
    for _ in range(11):
        fibs.append(fibs[-1] + fibs[-2])
    for n, s in enumerate(orbit.steps):
        assert s.point.coords == (2 ** fibs[n + 1], 2 ** fibs[n], 1)


def test_northcott_desk_check():
    B = 10
    seen = set()
    for a in range(-B, B + 1):
        for b in range(-B, B + 1):
            if (a, b) == (0, 0):
                continue
            seen.add(ProjPoint.normalize((a, b)).coords)
    assert all(max(abs(a), abs(b)) <= B for a, b in seen)
    # independent count: (1:0), (0:1), and (a:b) with a >= 1, gcd(a,|b|) = 1
    count = 2
    for a in range(1, B + 1):
        for b in range(-B, B + 1):
            if b != 0 and gcd(a, abs(b)) == 1:
                count += 1
    # (a:0) with a >= 1 collapses to (1:0), already counted
    assert len(seen) == count
