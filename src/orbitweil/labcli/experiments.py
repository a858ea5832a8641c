"""Experiment runners: proximity ratios, inequality gaps, hypothesis reports.

Every runner works on exact data.  Heights and local terms are LogMag
values, ratios are exact Fractions whenever a small verified one exists,
and every non-skipped row is audited against the global height identity
(sum of all local terms = weight * deg * h) before it enters a series; a
violation aborts the run, because it would mean the local decomposition
itself is wrong and nothing downstream could be trusted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from ..degree import AlphaEstimate, alpha_estimate
from ..exactnum import LogMag, bareiss, integer_normal_form
from ..polydyn import (
    FAILED,
    Morphism,
    ProjPoint,
    height,
    iterate,
    wellformed_check,
)
from ..singular import COMPOSE_CAP, EfdEstimate, efd_estimate, remark44_m0
from ..weil import LocalTable
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


def _audit_row(table: LocalTable, h_raw: LogMag) -> LogMag:
    """Check sum-over-all-places lambda = weight*deg*h at one point."""
    d = table.divisor
    target = h_raw * (d.weight * d.degree)
    total = table.all_places()
    if total != target:
        raise AuditFailure(
            f"height identity violated at {table.point.coords}: "
            f"sum of local terms != {d.weight * d.degree} * h"
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
    map_id: str
    rows: tuple
    skips: int
    degenerate: bool
    verdict: str
    verdict_value: object

    def usable(self) -> list[RatioRow]:
        return [r for r in self.rows if not r.skipped]


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
    if all(m < 1e-3 for m in mids) and _nonincreasing(mids):
        rate = mids[-1] / mids[-2] if mids[-2] > 0 else 0.0
        return TRENDING_TO_ZERO, rate
    exacts = [r.ratio for r in tail]
    if all(e is not None for e in exacts) and len(set(exacts)) == 1:
        return TRENDING_TO, exacts[-1]
    scale = max(abs(m) for m in mids)
    if scale > 0 and (max(mids) - min(mids)) / scale < 1e-6:
        return TRENDING_TO, mids[-1]
    return INCONCLUSIVE, None


def _series_rows(cfg: ExperimentConfig):
    """Shared orbit -> audited rows pipeline for ratio and liminf reports."""
    cfg.require("map", "seed", "divisor")
    if not cfg.places:
        raise ConfigError("experiment needs a nonempty set of places S")
    f = _gate(cfg.map)
    orbit = iterate(f, cfg.seed, cfg.depth)
    d = cfg.divisor
    rows = []
    skips = 0
    for step in orbit.steps:
        x = step.point
        table = LocalTable(d, x)
        if table.on_support:
            rows.append(RatioRow(step.n, x, None, None, None, None, None, True, "support"))
            skips += 1
            continue
        # lambda_S first: the audit then checks each of its places as a row
        lam = table.lambda_S(cfg.places)
        lam_all = _audit_row(table, step.h)
        h_line = step.h * cfg.twist
        if h_line.is_zero():
            rows.append(
                RatioRow(step.n, x, h_line, None, lam_all, None, None, True, "zero-height")
            )
            skips += 1
            continue
        exact, bounds = lam.ratio(h_line)
        rows.append(RatioRow(step.n, x, h_line, lam, lam_all, exact, bounds, False))
    if skips == len(rows):
        raise ValueError("every orbit step lies on the divisor support")
    return f, rows, skips


def run_ratio_experiment(cfg: ExperimentConfig, cache=None) -> RatioSeries:
    """Proximity ratio lambda_S(f^n x) / h(f^n x) along an orbit.

    Support hits and zero-height points are skipped but kept as annotated
    rows; a run where more than half the steps are skipped is declared
    degenerate and gets no trend verdict.
    """
    _refuse_cache(cache)
    f, rows, skips = _series_rows(cfg)
    degenerate = 2 * skips > cfg.depth
    verdict, value = _ratio_verdict(rows, degenerate)
    return RatioSeries(
        map_id=f.map_id,
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
    ident: str
    eps_prime: Fraction
    rows: tuple
    skips: int
    negatives: tuple
    closure: str

    def negative_count(self) -> int:
        return len(self.negatives)


def _sample_points(nvars: int, bound: int, count, rng_seed: int) -> list[ProjPoint]:
    """Deterministic point sample of multiplicative height <= bound."""
    if count in (None, "all"):
        if nvars != 2:
            raise ConfigError("exhaustive sampling is only supported on the projective line")
        seen = {}
        for b in range(0, bound + 1):
            for a in range(-bound, bound + 1):
                if a == 0 and b == 0:
                    continue
                if math.gcd(abs(a), b) != 1:
                    continue
                p = ProjPoint.normalize((a, b))
                seen.setdefault(p.coords, p)
        return list(seen.values())
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


def run_gap_experiment(cfg: ExperimentConfig, eps_prime=None, cache=None) -> GapSeries:
    """Gap eps'*h_L - sum_S lambda - h_K along an orbit or a point sample.

    On projective space h_K = -(dim + 1) * h, so the gap evaluates to the
    exact LogMag (eps' * twist + nvars) * h - lambda_S and its sign is
    decided exactly, over Q(sqrt d) too.  Negative-gap points are collected and summarized by a
    Zariski-closure proxy (finite set / hyperplane / conic containment).
    """
    _refuse_cache(cache)
    if eps_prime is None:
        eps_prime = cfg.param("eps_prime")
    if eps_prime is None:
        raise ConfigError("gap experiment needs eps_prime (params.eps_prime)")
    eps_prime = Fraction(eps_prime)
    if eps_prime < 0:
        raise ConfigError("eps_prime must be >= 0")
    cfg.require("divisor")
    if not cfg.places:
        raise ConfigError("experiment needs a nonempty set of places S")
    d = cfg.divisor
    if cfg.sample is not None:
        nvars = d.nvars
        pts = _sample_points(
            nvars,
            cfg.sample["height_bound"],
            cfg.sample.get("count", "all"),
            cfg.sample.get("seed", 0),
        )
        triples = [(i, p, height(p)) for i, p in enumerate(pts)]
        mode, ident = "sample", f"sample-h{cfg.sample['height_bound']}"
    else:
        cfg.require("map", "seed")
        f = _gate(cfg.map)
        orbit = iterate(f, cfg.seed, cfg.depth)
        triples = [(s.n, s.point, s.h) for s in orbit.steps]
        mode, ident = "orbit", f.map_id
    coef = eps_prime * cfg.twist + d.nvars
    rows = []
    negatives = []
    skips = 0
    for n, x, h_raw in triples:
        table = LocalTable(d, x)
        if table.on_support:
            rows.append(GapRow(n, x, None, None, None, None, True, "support"))
            skips += 1
            continue
        lam = table.lambda_S(cfg.places)
        _audit_row(table, h_raw)
        gap = h_raw * coef - lam
        sgn = gap.sign()
        if sgn < 0:
            negatives.append(x)
        rows.append(GapRow(n, x, h_raw * cfg.twist, lam, gap, sgn, False))
    if skips == len(rows):
        raise ValueError("every sampled point lies on the divisor support")
    return GapSeries(
        mode=mode,
        ident=ident,
        eps_prime=eps_prime,
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
        from ..weil import monomials_of_degree

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
    f = _gate(cfg.map)
    orbit = iterate(f, cfg.seed, cfg.depth)
    closed = []
    for step in orbit.steps:
        if cfg.divisor.support_test(step.point):
            closed.append(f"orbit meets Supp(D) at n={step.n}")
    alpha = alpha_estimate(orbit)
    efd_depth = min(cfg.depth, COMPOSE_CAP)
    bound = cfg.param("bound", 2)
    est = efd_estimate(f, cfg.divisor, efd_depth, bound=bound)
    e_family = est.exact_estimate if est.exact_estimate is not None else est.estimate
    labels = []
    if alpha.value is None:
        labels.append("alpha estimate inconclusive; hypothesis checks skipped")
        return Thm14Report(
            alpha, est, None, e_family, e_param, eps, eps0,
            None, None, None, False, tuple(labels), tuple(closed),
        )
    av = alpha.value
    gt_one, _ = _lt(Fraction(1) if isinstance(av, Fraction) else 1.0, av)
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
    rep = remark44_m0(e_param, eps, f, cfg.divisor, efd_depth, bound=bound)
    m0 = rep.m0 if rep.found else None
    cond_ii = None
    if m0 is None:
        labels.append("m0 not found within the family depth; condition (ii) unverified")
    else:
        lhs = (e_param + eps) ** m0
        if isinstance(av, Fraction):
            cond_ii = lhs < av**m0 * eps0
        else:
            cond_ii = float(lhs) < float(av) ** m0 * float(eps0)
            labels.append("condition (ii) compared in floating point")
    ok = bool(gt_one and cond_i and cond_ii)
    return Thm14Report(
        alpha, est, av, e_family, e_param, eps, eps0,
        m0, cond_i, cond_ii, ok, tuple(labels), tuple(closed),
    )


@dataclass(frozen=True)
class Thm17Report:
    eps: Fraction
    liminf: object  # Fraction when every tail ratio is exact, float otherwise
    window: tuple
    rows: tuple  # (n, ratio_all, ratio_outside)
    flagged: tuple
    flagged_points: tuple
    closure: str


def thm17_set_membership(cfg: ExperimentConfig, eps=None) -> Thm17Report:
    """Flag orbit points whose outside-S proximity drops eps below the liminf.

    The liminf of (sum over all places) / h is estimated as the minimum
    over the last third of the usable rows; a point is flagged when
    (lambda_all - lambda_S) / h <= liminf - eps, with the comparison done
    exactly whenever the liminf is an exact rational.
    """
    if eps is None:
        eps = cfg.param("eps")
    if eps is None:
        raise ConfigError("set-membership report needs eps (params.eps)")
    eps = Fraction(eps)
    if eps <= 0:
        raise ConfigError("eps must be positive")
    _, rows, _ = _series_rows(cfg)
    usable = [r for r in rows if not r.skipped]
    if len(usable) < 5:
        raise ValueError("need at least 5 usable rows for a liminf proxy")

    def _ratio_value(num: LogMag, den: LogMag):
        exact, (lo, hi) = num.ratio(den)
        return exact if exact is not None else 0.5 * (lo + hi)

    k = max(1, math.ceil(len(usable) / 3))
    tail = usable[-k:]
    tail_vals = [_ratio_value(r.lambda_all, r.h) for r in tail]
    if all(isinstance(v, Fraction) for v in tail_vals):
        liminf = min(tail_vals)
    else:
        liminf = min(float(v) for v in tail_vals)
    threshold = liminf - eps if isinstance(liminf, Fraction) else liminf - float(eps)
    report_rows = []
    flagged = []
    flagged_points = []
    for r in usable:
        out_term = r.lambda_all - r.lambda_S
        if isinstance(threshold, Fraction):
            hit = out_term.compare(r.h * threshold) <= 0
            out_val = _ratio_value(out_term, r.h)
        else:
            lo, hi = out_term.ratio_interval(r.h)
            out_val = 0.5 * (lo + hi)
            hit = out_val <= threshold + 1e-12
        report_rows.append((r.n, _ratio_value(r.lambda_all, r.h), out_val))
        if hit:
            flagged.append(r.n)
            flagged_points.append(r.point)
    return Thm17Report(
        eps=eps,
        liminf=liminf,
        window=(tail[0].n, tail[-1].n),
        rows=tuple(report_rows),
        flagged=tuple(flagged),
        flagged_points=tuple(flagged_points),
        closure=_closure_proxy(flagged_points),
    )
