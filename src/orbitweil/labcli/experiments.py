"""Experiment runners: proximity ratios, inequality gaps, hypothesis reports.

Every runner works on exact data.  Heights and local terms are LogMag
values, ratios are exact Fractions whenever a small verified one exists,
and every distinct local datum of a non-skipped row (LocalTable.datum) is
audited against the global height identity (sum of all local terms =
weight * deg * h) before its first row enters a series; each row carries
its datum's audited values.  A violation aborts the run, because it would
mean the local decomposition itself is wrong and nothing downstream could
be trusted.  The ratio and gap runners run the audit; the Theorem 17
report reads the ratio series and decides each flag as lambda_S >= eps * h.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ..degree import AlphaEstimate, alpha_estimate, ratio_entry
from ..exactnum import LogMag, bareiss, integer_normal_form
from ..polydyn import (
    FAILED,
    Morphism,
    ProjPoint,
    height,
    iterate,
    monomials_of_degree,
    wellformed_check,
)
from ..singular import COMPOSE_CAP, EfdEstimate, efd_estimate, remark44_m0
from ..weil import LocalTable, _choose_place
from .config import ConfigError, ExperimentConfig

DEGENERATE = "degenerate"
INCONCLUSIVE = "inconclusive"
TRENDING_TO = "trending-to"
TRENDING_TO_ZERO = "trending-to-zero"

# Sets at most this large are reported as their own (finite) closure.
FINITE_PROXY_MAX = 12


class AuditFailure(ArithmeticError):
    """The sum of local terms failed to reproduce the global height."""


def _gate(f: Morphism) -> Morphism:
    """f, once its Macaulay determinant proves it a morphism."""
    report = wellformed_check(f)
    if report.status == FAILED:
        zero = "" if report.witness is None else f" (common zero {report.witness})"
        raise ConfigError(f"map failed the wellformedness check; not a morphism{zero}")
    return f


def _refuse_cache(cache) -> None:
    # perfbench/worker.py still passes cache=None; the parameter goes when that call does
    if cache is not None:
        raise TypeError("orbit cache removed: orbits are recomputed")


def _audit_row(table: LocalTable, h_raw: LogMag, factor: Fraction) -> LogMag:
    """Check sum-over-all-places lambda = factor*h at one point; factor = weight*deg."""
    total = table.all_places()
    if total != h_raw * factor:
        raise AuditFailure(
            f"height identity violated at {table.point}: "
            f"sum of local terms != {factor} * h"
        )
    return total


@dataclass(frozen=True)
class RatioRow:
    n: int
    point: ProjPoint
    h: LogMag | None  # height in the twist bundle: twist * Weil height
    lambda_S: LogMag | None
    lambda_all: LogMag | None
    ratio: Fraction | None
    ratio_bounds: tuple | None
    skipped: bool
    reason: str = ""

    @property
    def ratio_mid(self):
        if self.ratio is not None:
            return float(self.ratio)
        if self.ratio_bounds is None:
            return None
        lo, hi = self.ratio_bounds
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RatioSeries:
    rows: tuple
    skips: int
    degenerate: bool
    verdict: str
    verdict_value: object


def _nonincreasing(values, slack: float = 1e-9) -> bool:
    return all(b <= a * (1 + slack) + slack * 1e-300 for a, b in zip(values, values[1:]))


def _ratio_verdict(rows, degenerate: bool):
    if degenerate:
        return DEGENERATE, None
    usable = [r for r in rows if not r.skipped]
    if len(usable) < 2:
        return INCONCLUSIVE, None
    tail = usable[-3:] if len(usable) >= 3 else usable
    mids = [r.ratio_mid for r in tail]
    mags = [abs(m) for m in mids]
    if all(m < 1e-3 for m in mags) and _nonincreasing(mags):
        rate = mags[-1] / mags[-2] if mags[-2] > 0 else 0.0
        return TRENDING_TO_ZERO, rate
    exacts = [r.ratio for r in tail]
    if all(e is not None for e in exacts) and len(set(exacts)) == 1:
        return TRENDING_TO, exacts[-1]
    scale = max(abs(m) for m in mids)
    if scale > 0 and (max(mids) - min(mids)) / scale < 1e-6:
        return TRENDING_TO, mids[-1]
    return INCONCLUSIVE, None


def _orbit_points(cfg: ExperimentConfig):
    """(n, x, h) along the orbit of the seed, once the map is gated."""
    return [(s.n, s.point, s.h) for s in iterate(_gate(cfg.map), cfg.seed, cfg.depth).steps]


def _audited(cfg: ExperimentConfig, points):
    """(n, x, h_raw, lambda_S, lambda_all) per point; the lambdas are None on Supp(D).

    lambda_S and the audited lambda_all are built once per distinct
    LocalTable.datum and shared by every later row with that datum.  The
    premise: every local term is weil_local's closed form, which reads
    s_D(x) and max_i |x_i|^e alone, and points are primitive integer
    vectors, so h_raw = log max_i |x_i|.  Equal data give equal
    lambda_D(x, w) at every place w and equal h_raw.  A repeated datum
    therefore repeats values the audit has proved already, and the first
    row with a datum runs the audit, so a broken identity aborts at the
    same row as without the memo.  The memo lives for one call; rows come
    out in the order of points.  The places of S are chosen in D's field
    once for all rows.
    """
    d = cfg.divisor
    factor = d.weight * d.degree
    places = [_choose_place(d, v) for v in cfg.places]
    seen = {}
    for n, x, h_raw in points:
        table = LocalTable(d, x)
        if table.on_support:
            yield n, x, h_raw, None, None
            continue
        key = table.datum
        lams = seen.get(key)
        if lams is None:
            # lambda_S first: the audit then checks each of its places as a row
            lam = table.lambda_S(places)
            lams = seen[key] = lam, _audit_row(table, h_raw, factor)
        yield n, x, h_raw, *lams


_SKIP_CAUSES = {"support": "lies on the divisor support", "zero-height": "has height zero"}


def _all_skipped(what: str, reasons) -> ValueError:
    """The error for a run that skipped every row, naming each cause that occurred."""
    causes = " or ".join(text for r, text in _SKIP_CAUSES.items() if r in reasons)
    return ValueError(f"every {what} {causes}")


def run_ratio_experiment(cfg: ExperimentConfig, cache=None) -> RatioSeries:
    """Proximity ratio lambda_S(f^n x) / h(f^n x) along an orbit.

    Support hits and zero-height points are skipped but kept as annotated
    rows; a run where more than half the steps are skipped is declared
    degenerate and gets no trend verdict.
    """
    _refuse_cache(cache)
    cfg.require("map", "seed", "divisor", "places")
    rows = []
    for n, x, h_raw, lam, lam_all in _audited(cfg, _orbit_points(cfg)):
        if lam is None:
            rows.append(RatioRow(n, x, None, None, None, None, None, True, "support"))
            continue
        h = h_raw * cfg.twist
        if h.is_zero():
            rows.append(RatioRow(n, x, h, None, lam_all, None, None, True, "zero-height"))
            continue
        exact, bounds = lam.ratio(h)
        rows.append(RatioRow(n, x, h, lam, lam_all, exact, bounds, False))
    skips = sum([r.skipped for r in rows])
    if skips == len(rows):
        raise _all_skipped("orbit step", {r.reason for r in rows})
    degenerate = 2 * skips > cfg.depth
    verdict, value = _ratio_verdict(rows, degenerate)
    return RatioSeries(
        rows=tuple(rows),
        skips=skips,
        degenerate=degenerate,
        verdict=verdict,
        verdict_value=value,
    )


@dataclass(frozen=True)
class GapRow:
    n: int
    point: ProjPoint
    h: LogMag | None  # height in the twist bundle
    lambda_S: LogMag | None
    gap: LogMag | None
    sign: int | None
    skipped: bool
    reason: str = ""


@dataclass(frozen=True)
class GapSeries:
    mode: str  # "orbit" or "sample"
    eps_prime: Fraction
    slope: Fraction  # (eps' * twist + nvars)/twist: gap = slope * h - lambda_S
    rows: tuple
    skips: int
    negatives: tuple
    closure: str

    def negative_count(self) -> int:
        return len(self.negatives)


def _fold(nvars: int, m: int, part) -> int:
    """Half the nonzero vectors of [-m, m]^nvars, less part(m // g) for g = 2..m.

    Runs once per distinct m // g, so over O(sqrt m) values.
    """
    total = ((2 * m + 1) ** nvars - 1) // 2
    g = 2
    while g <= m:
        q = m // g
        top = m // q
        total -= (top - g + 1) * part(q)
        g = top + 1
    return total


def _points_below(nvars: int, bound: int) -> int:
    """The number of points of P^(nvars-1)(Q) of height <= bound.

    Each such point has two primitive representatives +-x in the box, and
    every nonzero vector of the box is g times a primitive one in the box
    of side bound // g, so the count is
    sum_k mu(k) ((2 floor(bound/k) + 1)^nvars - 1)/2, here by the
    recursion P(m) = ((2m + 1)^nvars - 1)/2 - sum_(g >= 2) P(m // g) over
    the O(bound^(3/4)) values m // g.
    """

    @lru_cache(maxsize=None)
    def points(m: int) -> int:
        return _fold(nvars, m, points)

    return points(bound)


def _points_below_lower(nvars: int, bound: int) -> int:
    """A lower bound on _points_below in O(sqrt bound) steps.

    Subtracting half of every nonzero vector of each box of side bound // g
    removes each non-primitive vector at least once.
    """
    return _fold(nvars, bound, lambda q: ((2 * q + 1) ** nvars - 1) // 2)


def _sample_points(nvars: int, bound: int, count, rng_seed: int) -> list[ProjPoint]:
    """Deterministic point sample of multiplicative height <= bound."""
    if count in (None, "all"):
        if nvars != 2:
            raise ConfigError("exhaustive sampling is only supported on the projective line")
        # (1 : 0), then each (a : b) with b > 0 once, by its primitive pair
        pts = [ProjPoint._unchecked((1, 0))]
        for b in range(1, bound + 1):
            for a in range(-bound, bound + 1):
                if math.gcd(a, b) == 1:
                    pts.append(ProjPoint._unchecked((a, b)))
        return pts
    # the exact count costs O(bound^(3/4)) steps, its lower bound O(sqrt(bound))
    if count > _points_below_lower(nvars, bound):
        most = _points_below(nvars, bound)
        if count > most:
            raise ConfigError(
                f"sample/count: {count} exceeds {most}, the number of points of height <= {bound}"
            )
    rng = random.Random(rng_seed)
    out: list[ProjPoint] = []
    seen_keys = set()
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        tup = tuple(rng.randint(-bound, bound) for _ in range(nvars))
        if all(c == 0 for c in tup):
            continue
        p = ProjPoint.normalize(tup)
        if p.coords in seen_keys:
            continue
        seen_keys.add(p.coords)
        out.append(p)
    if len(out) < count:
        raise ConfigError(
            f"could not draw {count} distinct points of height <= {bound}"
        )
    return out


def run_gap_experiment(cfg: ExperimentConfig, cache=None) -> GapSeries:
    """Gap eps'*h_L - sum_S lambda - h_K along an orbit or a point sample.

    On projective space h_K = -(dim + 1) * h, so the gap evaluates to the
    exact LogMag (eps' * twist + nvars) * h - lambda_S and its sign is
    decided exactly, over Q(sqrt d) too.  Negative-gap points are collected and summarized by a
    Zariski-closure proxy (finite set / hyperplane / conic containment).
    """
    _refuse_cache(cache)
    eps_prime = cfg.param("eps_prime")
    if eps_prime is None:
        raise ConfigError("gap experiment needs eps_prime (params.eps_prime)")
    if eps_prime < 0:
        raise ConfigError("eps_prime must be >= 0")
    cfg.require("divisor", "places")
    d = cfg.divisor
    if cfg.sample is not None:
        pts = _sample_points(
            d.nvars,
            cfg.sample["height_bound"],
            cfg.sample.get("count", "all"),
            cfg.sample.get("seed", 0),
        )
        points = [(i, p, height(p)) for i, p in enumerate(pts)]
        mode, what = "sample", "sampled point"
    else:
        points = _orbit_points(cfg.require("map", "seed"))
        mode, what = "orbit", "orbit step"
    coef = eps_prime * cfg.twist + d.nvars
    # the audit has just proved lambda_all = weight * deg * h_raw: for that
    # coefficient, h_raw * coef is lambda_all, in the same canonical form
    audited_coef = coef == d.weight * d.degree
    scaled = {}  # h_raw * coef by h_raw's form: rows share few heights
    rows = []
    negatives = []
    for n, x, h_raw, lam, lam_all in _audited(cfg, points):
        if lam is None:
            rows.append(GapRow(n, x, None, None, None, None, True, "support"))
            continue
        hc = lam_all if audited_coef else scaled.get(h_raw.form)
        if hc is None:
            hc = scaled[h_raw.form] = h_raw * coef
        gap = hc - lam
        sgn = gap.sign()
        if sgn < 0:
            negatives.append(x)
        rows.append(GapRow(n, x, h_raw * cfg.twist, lam, gap, sgn, False))
    skips = sum([r.skipped for r in rows])
    if skips == len(rows):
        raise _all_skipped(what, {"support"})
    return GapSeries(
        mode=mode,
        eps_prime=eps_prime,
        slope=Fraction(coef, cfg.twist),
        rows=tuple(rows),
        skips=skips,
        negatives=tuple(negatives),
        closure=_closure_proxy(negatives),
    )


def _kernel_vector(rows):
    """One nonzero kernel vector of an integer row matrix, or None.

    It is zero on every free column but the first, fc, and is returned in
    integer normal form.
    """
    if not rows:
        return None
    width = len(rows[0])
    echelon, pivot_cols, _ = bareiss(rows)
    fc = next((c for c in range(width) if c not in pivot_cols), None)
    if fc is None:
        return None
    # columns 0..fc-1 are pivots; with x_fc = the last of their pivots, a
    # minor of the input, Cramer's rule makes every back-substitution exact
    vec = [0] * width
    vec[fc] = echelon[fc - 1][fc - 1] if fc else 1
    for i in reversed(range(fc)):
        vec[i] = -sum(echelon[i][j] * vec[j] for j in range(i + 1, fc + 1)) // echelon[i][i]
    return tuple(integer_normal_form(vec)[0])


def _poly_str(coeffs, exps) -> str:
    parts = []
    for c, e in zip(coeffs, exps):
        if c == 0:
            continue
        mono = "*".join(
            f"x{i}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k
        )
        if not mono:
            mono = "1"
        if c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


def _closure_proxy(points) -> str:
    """Low-degree containment report for a finite point set.

    Tries, in order: a small finite set, a single hyperplane, and (in the
    plane) a conic, each by exact linear algebra on monomial evaluations.
    """
    k = len(points)
    if k == 0:
        return "empty set"
    if k <= FINITE_PROXY_MAX:
        return f"finite set ({k} points)"
    nvars = len(points[0].coords)
    lin_exps = [
        tuple(1 if j == i else 0 for j in range(nvars)) for i in range(nvars)
    ]
    vec = _kernel_vector([list(p.coords) for p in points])
    if vec is not None:
        return f"contained in the hyperplane {{{_poly_str(vec, lin_exps)} = 0}}"
    if nvars == 3:
        quad = monomials_of_degree(3, 2)
        rows = []
        for p in points:
            rows.append([math.prod(c**e for c, e in zip(p.coords, exp)) for exp in quad])
        vec = _kernel_vector(rows)
        if vec is not None:
            return f"contained in the conic {{{_poly_str(vec, quad)} = 0}}"
    return f"no low-degree containment found ({k} points)"


def _lt(a, b):
    """(a < b, comparison was exact)."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a < b, True
    return float(a) < float(b), False


@dataclass(frozen=True)
class Thm14Report:
    alpha: AlphaEstimate
    efd: EfdEstimate
    alpha_value: object
    e_family: object
    e_param: Fraction
    eps: Fraction
    eps0: Fraction
    m0: int | None
    cond_growth: bool | None  # (i)  e + eps < alpha
    cond_margin: bool | None  # (ii) (e + eps)^m0 < alpha^m0 * eps0
    hypothesis_ok: bool
    labels: tuple
    closed_sets: tuple


def family_estimate(cfg: ExperimentConfig) -> EfdEstimate:
    """The family pullback estimate of e_f for cfg's map and divisor.

    Composition is symbolic, so it runs to at most COMPOSE_CAP iterates;
    the valuation weights are bounded by params.bound, 2 by default.
    """
    return efd_estimate(cfg.map, cfg.divisor, min(cfg.depth, COMPOSE_CAP), cfg.param("bound", 2))


def thm14_hypothesis_report(cfg: ExperimentConfig, cache=None) -> Thm14Report:
    """Check the two growth hypotheses e + eps < alpha and the m0 margin.

    alpha comes from the orbit height estimators, the family pullback
    multiplicities give a lower bound on the ramification rate e_f, and
    the genericity bookkeeping lists every proper closed set the orbit
    prefix actually met (divisor support hits).  The map must be a
    morphism, which its Macaulay determinant decides exactly.
    """
    _refuse_cache(cache)
    cfg.require("map", "seed", "divisor")
    e_param = cfg.param("e")
    eps = cfg.param("eps")
    eps0 = cfg.param("eps0")
    if e_param is None or eps is None or eps0 is None:
        raise ConfigError("hypothesis report needs params e, eps, eps0")
    if eps <= 0 or eps0 <= 0:
        raise ConfigError("eps and eps0 must be positive")
    orbit = iterate(_gate(cfg.map), cfg.seed, cfg.depth)
    closed = []
    for step in orbit.steps:
        if cfg.divisor.support_test(step.point):
            closed.append(f"orbit meets Supp(D) at n={step.n}")
    alpha = alpha_estimate(orbit)
    est = family_estimate(cfg)
    e_family = est.exact_estimate if est.exact_estimate is not None else est.estimate
    labels = []
    av = alpha.value
    gt_one = m0 = cond_i = cond_ii = None
    if av is None:
        labels.append("alpha estimate inconclusive; hypothesis checks skipped")
    else:
        gt_one, _ = _lt(Fraction(1), av)
        if not gt_one:
            labels.append("hypothesis alpha_f(x) > 1 violated")
        same = False
        if isinstance(av, Fraction) and isinstance(e_family, Fraction):
            same = av == e_family
        elif not isinstance(av, Fraction) and not isinstance(e_family, Fraction):
            same = abs(float(av) - float(e_family)) < 1e-9
        if same:
            labels.append(
                "family lower bound for e_f equals the alpha estimate; "
                "hypothesis (i) cannot hold"
            )
        cond_i, exact_i = _lt(e_param + eps, av)
        if not exact_i:
            labels.append("condition (i) compared in floating point")
        rep = remark44_m0(e_param, eps, est.s_seq)
        m0 = rep.m0 if rep.found else None
        if m0 is None:
            labels.append("m0 not found within the family depth; condition (ii) unverified")
        else:
            cond_ii, exact_ii = _lt((e_param + eps) ** m0, av**m0 * eps0)
            if not exact_ii:
                labels.append("condition (ii) compared in floating point")
    ok = bool(gt_one and cond_i and cond_ii)
    return Thm14Report(
        alpha, est, av, e_family, e_param, eps, eps0,
        m0, cond_i, cond_ii, ok, tuple(labels), tuple(closed),
    )


@dataclass(frozen=True)
class Thm17Report:
    eps: Fraction
    liminf: Fraction
    window: tuple
    rows: tuple  # (n, ratio_all, ratio_outside)
    flagged: tuple
    flagged_points: tuple
    closure: str


def thm17_set_membership(cfg: ExperimentConfig) -> Thm17Report:
    """Flag orbit points whose outside-S proximity drops eps below the liminf.

    The usable rows are the non-skipped rows of run_ratio_experiment(cfg),
    and each passed the height audit, which proves lambda_all = weight *
    deg * h_raw with h = twist * h_raw.  So lambda_all / h is the exact
    rational weight * deg / twist at every row: that constant is the liminf
    and the "all" column.  A point is flagged when (lambda_all - lambda_S) / h
    <= liminf - eps, which by that identity is lambda_S >= eps * h, decided
    as q * lambda_S >= p * h for eps = p/q: one exact comparison at root 1.
    The window is the last third of the usable rows, as printed by the report.
    """
    eps = cfg.param("eps")
    if eps is None:
        raise ConfigError("set-membership report needs eps (params.eps)")
    if eps <= 0:
        raise ConfigError("eps must be positive")
    usable = [r for r in run_ratio_experiment(cfg).rows if not r.skipped]
    if len(usable) < 5:
        raise ValueError("need at least 5 usable rows for a liminf proxy")
    k = math.ceil(len(usable) / 3)
    liminf = Fraction(cfg.divisor.weight * cfg.divisor.degree, cfg.twist)
    p, q = eps.numerator, eps.denominator
    flagged = [r for r in usable if (r.lambda_S * q).compare(r.h * p) >= 0]
    flagged_points = [r.point for r in flagged]
    return Thm17Report(
        eps=eps,
        liminf=liminf,
        window=(usable[-k].n, usable[-1].n),
        rows=tuple((r.n, liminf, ratio_entry(r.lambda_all - r.lambda_S, r.h)) for r in usable),
        flagged=tuple(r.n for r in flagged),
        flagged_points=tuple(flagged_points),
        closure=_closure_proxy(flagged_points),
    )
