"""Arithmetic degree estimation from orbit heights and the polynomial-times-
exponential growth model.

The ratio estimator h_{n+1}/h_n is the primary one: it converges
geometrically when heights grow like C n^l alpha^n, while the root
estimator h_n^{1/n} is kept as a diagnostic because its error decays only
polynomially (for n 2^n data the root at n = 20 is still two percent off).
Ratios are computed exactly as Fractions whenever the two heights have a
rational log-ratio; otherwise a certified float enclosure midpoint is
used.  Heights are clipped at 1 (h+ = max(h, 1)) before taking roots so
that height-zero points stay well-defined.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import LogMag
from .polydyn import OrbitRecord

CONVERGED = "converged"
INCONCLUSIVE = "inconclusive"

RATIO_SPREAD_TOL = 1e-6


def _hplus_float(h: LogMag) -> float:
    return max(h.to_float(), 1.0)


def ratio_entry(hi: LogMag, lo: LogMag):
    """h_{n+1}/h_n as an exact Fraction when rational, else a float."""
    if lo.is_zero():
        return hi.to_float() / _hplus_float(lo)
    exact, (a, b) = hi.ratio(lo)
    return exact if exact is not None else 0.5 * (a + b)


@dataclass(frozen=True)
class AlphaEstimate:
    """Root and ratio growth estimators for one orbit."""

    root_seq: tuple
    ratio_seq: tuple
    window: int
    verdict: str
    value: object  # Fraction or float when converged, None otherwise
    spread: float
    root_value: float


def default_window(depth: int) -> int:
    return max(3, math.ceil(depth / 3))


def alpha_estimate(orbit: OrbitRecord) -> AlphaEstimate:
    """Estimate the height growth rate along an orbit.

    The verdict is `converged` when the relative spread of the last
    default_window(depth) ratios is below 1e-6; the reported value is then
    the common exact ratio if the tail is exactly constant, or the tail mean
    otherwise.
    """
    heights = orbit.heights()
    depth = len(heights) - 1
    if depth < 4:
        raise ValueError("need an orbit of length at least 4")
    window = default_window(depth)

    ratio_seq = tuple(ratio_entry(heights[n + 1], heights[n]) for n in range(depth))
    root_seq = tuple(
        _hplus_float(heights[n]) ** (1.0 / n) for n in range(1, depth + 1)
    )

    tail = ratio_seq[-window:]
    floats = [float(r) for r in tail]
    lo, hi = min(floats), max(floats)
    mid = 0.5 * (lo + hi)
    spread = (hi - lo) / abs(mid) if mid else hi - lo
    if spread < RATIO_SPREAD_TOL:
        if all(isinstance(r, Fraction) for r in tail) and len(set(tail)) == 1:
            value = tail[0]
        else:
            value = sum(floats) / len(floats)
        verdict, val = CONVERGED, value
    else:
        verdict, val = INCONCLUSIVE, None
    return AlphaEstimate(
        root_seq, ratio_seq, window, verdict, val, spread, root_seq[-1]
    )


@dataclass(frozen=True)
class GrowthFit:
    """Range-consistent fit h_n ~ [C1, C2] * n^ell * alpha^n on a tail window."""

    ell: int
    alpha: float
    c1: float
    c2: float
    excluded: tuple
    window: tuple  # (first step, last step) of the fitted range
    label: str = "range-consistent"


def _quartile_keep(values):
    """Indices of entries within 3 interquartile ranges of the quartiles."""
    if len(values) < 4:
        return list(range(len(values))), []
    q1, _, q3 = statistics.quantiles(values, n=4)
    iqr = q3 - q1
    lo, hi = q1 - 3 * iqr, q3 + 3 * iqr
    keep, drop = [], []
    for i, v in enumerate(values):
        (keep if lo <= v <= hi else drop).append(i)
    if len(keep) < 2:
        return list(range(len(values))), []
    return keep, drop


def growth_fit(orbit: OrbitRecord, alpha) -> GrowthFit:
    """Pick the polynomial order ell in [0, 3] that flattens the tail.

    For each candidate ell the sequence q_n = h+(f^n x) / (n^ell alpha^n) is
    formed over the tail window, entries beyond 3 interquartile ranges are
    set aside as support-of-the-exceptional-set suspects, and the ell with
    the smallest max/min ratio of the surviving q_n wins.  C1 and C2 are
    that min and max, so the sandwich holds on the fitted range minus the
    excluded steps by construction.
    """
    a = float(alpha)
    if a <= 0:
        raise ValueError("alpha must be positive")
    heights = orbit.heights()
    depth = len(heights) - 1
    if depth < 4:
        raise ValueError("need an orbit of length at least 4")
    window = default_window(depth)
    start = depth - window + 1
    steps = list(range(max(1, start), depth + 1))
    hs = [_hplus_float(heights[n]) for n in steps]
    if max(hs) == min(hs) and a > 1 + 1e-12:
        raise ValueError("heights are constant on the window; alpha > 1 is inconsistent")

    best = None
    for ell in range(4):
        qs = [h / (n**ell * a**n) for n, h in zip(steps, hs)]
        keep, drop = _quartile_keep(qs)
        c1 = min(qs[i] for i in keep)
        c2 = max(qs[i] for i in keep)
        score = c2 / c1
        if best is None or score < best[0]:
            best = (score, ell, c1, c2, tuple(steps[i] for i in drop))
    _, ell, c1, c2, excluded = best
    return GrowthFit(ell, a, c1, c2, excluded, (steps[0], steps[-1]))


@dataclass(frozen=True)
class RatioBoundReport:
    """Outcome of the two-sided growth comparison across a gap m."""

    checked: int
    violations: tuple  # pairs (n, n - m) that broke the bound
    gap: int


def ratio_bound_check(orbit: OrbitRecord, fit: GrowthFit, m: int) -> RatioBoundReport:
    """Verify h(f^{n-m}x)/h(f^n x) <= (C2/C1) ((n-m)/n)^ell alpha^-m.

    Pairs run over the fitted window (both ends inside it); the comparison
    uses a 1e-9 relative slack so exact equality cases pass.  Violations are
    reported even at steps the fit excluded, since those are precisely the
    suspects worth listing.
    """
    if m < 0:
        raise ValueError("gap must be nonnegative")
    heights = orbit.heights()
    first, last = fit.window
    ratio_c = fit.c2 / fit.c1
    checked = 0
    violations = []
    for n in range(first + m, last + 1):
        k = n - m
        if fit.ell > 0 and k == 0:
            continue
        lhs = _hplus_float(heights[k]) / _hplus_float(heights[n])
        bound = ratio_c * ((k / n) ** fit.ell) * fit.alpha ** (-m)
        checked += 1
        if lhs > bound * (1 + 1e-9):
            violations.append((n, k))
    return RatioBoundReport(checked, tuple(violations), m)
