import math
from fractions import Fraction

import pytest

from orbitweil.degree import (
    CONVERGED,
    INCONCLUSIVE,
    AlphaEstimate,
    alpha_estimate,
    growth_fit,
    ratio_bound_check,
)
from orbitweil.exactnum import LogMag
from orbitweil.polydyn import (
    HomogPoly,
    Morphism,
    OrbitRecord,
    OrbitStep,
    ProjPoint,
    iterate,
)

PHI = (1 + math.sqrt(5)) / 2


def form(nvars, terms):
    return HomogPoly.from_terms(nvars, terms)


SQUARING = Morphism((form(2, {(2, 0): 1}), form(2, {(0, 2): 1})))
IDENTITY = Morphism((form(2, {(1, 0): 1}), form(2, {(0, 1): 1})))
FIBONACCI = Morphism(
    (
        form(3, {(1, 1, 0): 1}),
        form(3, {(1, 0, 1): 1}),
        form(3, {(0, 0, 2): 1}),
    )
)


def synthetic_orbit(height_values):
    point = ProjPoint.normalize((1, 2))
    steps = tuple(OrbitStep(n, point, h) for n, h in enumerate(height_values))
    return OrbitRecord(point, steps)


def test_alpha_squaring_exact_ratios():
    orbit = iterate(SQUARING, ProjPoint.normalize((2, 1)), 20)
    est = alpha_estimate(orbit)
    assert all(r == Fraction(2) for r in est.ratio_seq)
    assert est.verdict == CONVERGED
    assert est.value == Fraction(2)
    assert isinstance(est.value, Fraction)
    assert abs(est.root_value - 2) / 2 < 0.05
    assert est.spread == 0


def test_alpha_identity_map():
    orbit = iterate(IDENTITY, ProjPoint.normalize((2, 1)), 8)
    est = alpha_estimate(orbit)
    assert est.verdict == CONVERGED and est.value == Fraction(1)
    assert all(r == 1 for r in est.ratio_seq)


def test_alpha_fibonacci_monomial_map():
    # torus orbit of (2:3:1): heights follow the Fibonacci recursion, so the
    # ratio tail encloses the golden ratio
    orbit = iterate(FIBONACCI, ProjPoint.normalize((2, 3, 1)), 25)
    est = alpha_estimate(orbit)
    assert est.verdict == CONVERGED
    assert abs(float(est.value) - PHI) < 1e-2
    assert abs(est.root_value - PHI) < 0.2


def test_alpha_fibonacci_exact_ratio_prefix():
    # pure power-of-2 coordinates: early ratios are exact Fibonacci fractions
    orbit = iterate(FIBONACCI, ProjPoint.normalize((2, 1, 1)), 12)
    est = alpha_estimate(orbit)
    fib = [1, 1]
    for _ in range(14):
        fib.append(fib[-1] + fib[-2])
    # h_n = F(n+1) log 2, so ratio_n = F(n+2)/F(n+1) while denominators stay small
    for n in range(1, 9):
        assert est.ratio_seq[n] == Fraction(fib[n + 1], fib[n])


def test_alpha_estimate_validation():
    orbit = iterate(SQUARING, ProjPoint.normalize((2, 1)), 3)
    with pytest.raises(ValueError):
        alpha_estimate(orbit)


def test_alpha_inconclusive_on_noise():
    hs = [LogMag.exact(m) for m in (2, 7, 3, 50, 11, 90, 5, 300, 17)]
    est = alpha_estimate(synthetic_orbit(hs))
    assert est.verdict == INCONCLUSIVE and est.value is None


def test_ratio_bounded_by_map_degree():
    for f, seed in ((SQUARING, (2, 1)), (FIBONACCI, (2, 3, 1))):
        d = f.forms[0].degree
        orbit = iterate(f, ProjPoint.normalize(seed), 12)
        est = alpha_estimate(orbit)
        assert all(float(r) <= d + 1e-6 for r in est.ratio_seq[1:])


def test_alpha_invariant_under_doubled_height():
    orbit = iterate(SQUARING, ProjPoint.normalize((3, 2)), 15)
    doubled = synthetic_orbit([h * 2 for h in orbit.heights()])
    a = alpha_estimate(orbit)
    b = alpha_estimate(doubled)
    assert a.verdict == b.verdict == CONVERGED
    assert abs(float(a.value) - float(b.value)) < 1e-6


def test_growth_fit_squaring():
    orbit = iterate(SQUARING, ProjPoint.normalize((2, 1)), 18)
    fit = growth_fit(orbit, 2)
    assert fit.ell == 0
    assert abs(fit.c1 - math.log(2)) < 1e-6
    assert abs(fit.c2 - math.log(2)) < 1e-6
    assert fit.excluded == ()
    assert fit.label == "range-consistent"


def test_growth_fit_synthetic_n_2n():
    hs = [LogMag.exact(2) * (n * 2**n if n else 1) for n in range(21)]
    fit = growth_fit(synthetic_orbit(hs), 2)
    assert fit.ell == 1
    assert abs(fit.c1 - math.log(2)) < 1e-9
    assert abs(fit.c2 - math.log(2)) < 1e-9


def test_growth_fit_constant_heights():
    hs = [LogMag.exact(7)] * 10
    fit = growth_fit(synthetic_orbit(hs), 1)
    assert fit.ell == 0
    assert abs(fit.c1 - fit.c2) < 1e-12
    assert abs(fit.c1 - math.log(7)) < 1e-12
    with pytest.raises(ValueError):
        growth_fit(synthetic_orbit(hs), 2)


def test_growth_fit_fault_injection():
    hs = [LogMag.exact(2) * (2**n if n else 1) for n in range(21)]
    hs[17] = hs[17] * 100  # corrupt one step inside the tail window
    fit = growth_fit(synthetic_orbit(hs), 2)
    assert fit.ell == 0
    assert fit.excluded == (17,)
    assert abs(fit.c1 - math.log(2)) < 1e-9 and abs(fit.c2 - math.log(2)) < 1e-9


def test_ratio_bound_squaring():
    orbit = iterate(SQUARING, ProjPoint.normalize((2, 1)), 18)
    fit = growth_fit(orbit, 2)
    for m in (0, 1, 2):
        report = ratio_bound_check(orbit, fit, m)
        assert report.checked > 0 and report.violations == ()


def test_ratio_bound_violations_at_injected_step():
    hs = [LogMag.exact(2) * (2**n if n else 1) for n in range(21)]
    hs[17] = hs[17] * 100
    orbit = synthetic_orbit(hs)
    fit = growth_fit(orbit, 2)
    report = ratio_bound_check(orbit, fit, 1)
    assert report.violations != ()
    assert all(17 in pair for pair in report.violations)


def test_root_and_ratio_estimators_agree():
    orbit = iterate(SQUARING, ProjPoint.normalize((2, 1)), 20)
    est = alpha_estimate(orbit)
    assert est.verdict == CONVERGED
    assert abs(est.root_value - float(est.value)) / float(est.value) < 0.05
