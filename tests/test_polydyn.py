import math
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from orbitweil.exactnum import LogMag, Place, abs_value, logmag_sum, rational_support
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
    height_twisted,
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


def test_height_twisted():
    assert height_twisted(P(16, 1), 2) == LogMag.exact(256)
    assert height_twisted(P(16, 1), Fraction(1, 2)) == LogMag.exact(4)
    with pytest.raises(ValueError):
        height_twisted(P(2, 1), 0)


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


def test_map_id_joint_scaling():
    f1 = Morphism((X2, Y2))
    f2 = Morphism((X2 * Fraction(3, 7), Y2 * Fraction(3, 7)))
    f3 = Morphism((X2 * 2, Y2))
    assert f1.map_id == f2.map_id
    assert f1.map_id != f3.map_id


def test_map_id_digests_are_pinned():
    # every ratio series reports its map by this digest; it must not move
    squaring = "107f6937b276feae4b7933f42487b8ebdcdc19a91b6d963d7f1c250255f0131b"
    assert SQUARING.map_id == squaring
    assert Morphism((X2 * Fraction(-3, 7), Y2 * Fraction(-3, 7))).map_id == squaring
    fibonacci = Morphism(
        tuple(HomogPoly.monomial(e) for e in ((1, 1, 0), (1, 0, 1), (0, 0, 2)))
    )
    assert fibonacci.map_id == "c7da59d34ad94f838c180de2c3aa058836183e6465cf8a5ee45133419728c941"


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
    forms = (
        HomogPoly.from_terms(2, {(2, 0): 1, (1, 1): 2}),
        HomogPoly.from_terms(2, {(0, 2): 1, (2, 0): -1}),
    )
    f = Morphism(forms)
    g = HomogPoly.from_terms(2, {(1, 0): 5, (0, 1): 7})
    pb = pullback(f, g)
    for _ in range(50):
        c = (rng.randint(-30, 30), rng.randint(-30, 30))
        if c == (0, 0):
            continue
        raw = [F.evaluate(c) for F in forms]
        assert pb.evaluate(c) == g.evaluate(raw)


def test_poly_algebra():
    x, y = HomogPoly.variable(2, 0), HomogPoly.variable(2, 1)
    g = (x - 3 * y) * (x + 3 * y)
    assert g == HomogPoly.from_terms(2, {(2, 0): 1, (0, 2): -9})
    assert (x + y) ** 3 == HomogPoly.from_terms(
        2, {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    )
    assert g.evaluate((4, 1)) == 7
    assert g.ord_along_variable(0) == 0
    assert HomogPoly.monomial([1, 2], 5).ord_along_variable(1) == 2
    with pytest.raises(ValueError):
        x + g


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
