import random
from fractions import Fraction
from math import gcd

import pytest

from orbitweil.exactnum import LogMag, Place, abs_value, logmag_sum, rational_support
from orbitweil.polydyn import (
    FAILED,
    PROBABLE,
    VERIFIED,
    HomogPoly,
    IndeterminatePoint,
    Morphism,
    ProjPoint,
    ZeroPoint,
    evaluate,
    extend_orbit,
    height,
    height_twisted,
    iterate,
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


def test_orbit_resume():
    full = iterate(SQUARING, P(3, 2), 9)
    part = iterate(SQUARING, P(3, 2), 4)
    resumed = extend_orbit(part, SQUARING, 9)
    assert resumed == full
    other = Morphism((Y2, X2))
    with pytest.raises(ValueError):
        extend_orbit(part, other, 9)


def test_deep_orbit_heights_exact():
    orbit = iterate(SQUARING, P(2, 1), 20)
    assert orbit.steps[20].h == LogMag.exact(2) * (2**20)


def test_map_id_joint_scaling():
    f1 = Morphism((X2, Y2))
    f2 = Morphism((X2 * Fraction(3, 7), Y2 * Fraction(3, 7)))
    f3 = Morphism((X2 * 2, Y2))
    assert f1.map_id == f2.map_id
    assert f1.map_id != f3.map_id


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
    degenerate = Morphism((HomogPoly.monomial([1, 1]), X2))
    rep = wellformed_check(degenerate)
    assert rep.status == FAILED
    assert rep.witness is not None and rep.witness.coords == (0, 1)


def test_wellformed_p2():
    f = Morphism(tuple(HomogPoly.monomial([2 if i == j else 0 for j in range(3)]) for i in range(3)))
    assert wellformed_check(f).status == PROBABLE
    # toric Fibonacci projectivization: common zeros on the boundary
    fib = Morphism((
        HomogPoly.from_terms(3, {(1, 1, 0): 1}),
        HomogPoly.from_terms(3, {(1, 0, 1): 1}),
        HomogPoly.from_terms(3, {(0, 0, 2): 1}),
    ))
    rep = wellformed_check(fib)
    assert rep.status == FAILED and rep.witness is not None


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
