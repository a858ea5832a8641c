"""Command line front end for the experiment runners.

Every subcommand reads a JSON config (README.md, "Config format") and prints
a short human-readable report.  A subcommand takes only the flags it reads:
--depth where it follows iterates, --out where it has a series to write as
CSV, ratio also --svg for a plot, and gap and thm17 --eps-prime and --eps.
A flag overrides the config value of its name before any runner reads it.
Every orbit is computed afresh by iterating the map.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction

from ..degree import alpha_estimate
from ..exactnum import ExactnumError, LogMag
from ..polydyn import iterate
from ..singular import (
    ExponentMatrix,
    MonomialIdeal,
    efd_monomial_exact,
    cn_calculator,
    lct_monomial,
    lct_valuation_search,
)
from ..weil import LocalTable, SupportHit
from .config import ConfigError, load_config
from .experiments import (
    AuditFailure,
    family_estimate,
    run_gap_experiment,
    run_ratio_experiment,
    thm14_hypothesis_report,
    thm17_set_membership,
)
from .io import (
    fmt12,
    write_gap_csv,
    write_orbit_csv,
    write_ratio_csv,
    write_ratio_svg,
)


def _load(args):
    """The config, with each flag the subcommand declares applied.

    --depth replaces depth; --eps and --eps-prime replace params.eps and
    params.eps_prime.
    """
    cfg = load_config(args.config)
    depth = getattr(args, "depth", None)
    if depth is not None:
        if depth < 0:
            raise ConfigError("--depth must be >= 0")
        cfg = dataclasses.replace(cfg, depth=depth)
    given = {key: getattr(args, key, None) for key in ("eps", "eps_prime")}
    params = {key: value for key, value in given.items() if value is not None}
    if params:
        cfg = dataclasses.replace(cfg, params={**cfg.params, **params})
    return cfg


def _fraction(text: str) -> Fraction:
    """argparse type for a rational flag such as `1/4` or `0.25`."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _num(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, LogMag):
        return v.decimal_str(12)
    if isinstance(v, Fraction):
        try:
            return f"{v} ({float(v):.6g})"
        except OverflowError:
            return f"{v} (out of float range)"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def cmd_orbit(args) -> int:
    cfg = _load(args).require("map", "seed")
    orbit = iterate(cfg.map, cfg.seed, cfg.depth)
    for step in orbit.steps:
        print(f"n={step.n:3d}  h={fmt12(step.h)}  x={step.point}")
    if args.out:
        write_orbit_csv(orbit, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_weil(args) -> int:
    cfg = _load(args).require("seed", "divisor", "places")
    table = LocalTable(cfg.divisor, cfg.seed)
    for place in cfg.places:
        print(f"lambda[{place}] = {fmt12(table.local(place))}")
    print(f"sum over S     = {fmt12(table.lambda_S(cfg.places))}")
    return 0


def cmd_alpha(args) -> int:
    cfg = _load(args).require("map", "seed")
    orbit = iterate(cfg.map, cfg.seed, cfg.depth)
    est = alpha_estimate(orbit)
    print(f"ratio tail : {[_num(r) for r in est.ratio_seq[-4:]]}")
    print(f"root tail  : {[f'{r:.9g}' for r in est.root_seq[-4:]]}")
    print(f"verdict    : {est.verdict}")
    print(f"alpha      : {_num(est.value)} (root estimator {est.root_value:.9g})")
    return 0


def cmd_lct(args) -> int:
    cfg = _load(args).require("lct")
    ideal = MonomialIdeal(cfg.lct["nvars"], [tuple(g) for g in cfg.lct["generators"]])
    res = lct_monomial(ideal)
    if res.infinite:
        print("lct = +infinity (unit ideal)")
        return 0
    print(f"lct        = {_num(res.value)}")
    print(f"witness    = {res.witness} [{res.certificate_kind}]")
    bound = cfg.lct.get("bound")
    if bound:
        search = lct_valuation_search(ideal, bound)
        print(f"search(B={bound}) upper bound = {search.upper} witness {search.witness}")
    return 0


def cmd_efd(args) -> int:
    cfg = _load(args)
    if cfg.efd is not None:
        mat = ExponentMatrix(tuple(tuple(r) for r in cfg.efd["matrix"]))
        res = efd_monomial_exact(mat, cfg.efd["target"], depth=cfg.depth)
        tag = "exact" if res.exact else "enclosure"
        print(f"e rate     = [{res.lower}, {res.upper}] ({tag})")
        if res.no_growth:
            print("no growth: multiplicities stay bounded")
        print(f"s head     = {res.s_seq[:8]}")
        return 0
    est = family_estimate(cfg.require("map", "divisor"))
    print(f"s sequence = ({', '.join(map(str, est.s_seq))})")
    print(f"estimate   = {_num(est.exact_estimate or est.estimate)} [{est.label}]")
    return 0


def cmd_cn(args) -> int:
    cfg = _load(args).require("cn")
    blk = cfg.cn
    gamma = None
    for k in range(1, blk["n"] + 1):
        gamma, c_k = cn_calculator(
            blk["m_list"], blk["dim"], blk["delta"], blk["m"], k
        )
        print(f"c_{k} = {_num(c_k)}")
    print(f"gamma = {gamma}")
    return 0


def cmd_ratio(args) -> int:
    cfg = _load(args)
    series = run_ratio_experiment(cfg)
    for r in series.rows:
        if r.skipped:
            print(f"n={r.n:3d}  skipped ({r.reason})")
        else:
            print(f"n={r.n:3d}  h={fmt12(r.h)}  lambda_S={fmt12(r.lambda_S)}  "
                  f"ratio={fmt12(r.ratio if r.ratio is not None else r.ratio_mid)}")
    extra = "" if series.verdict_value is None else f" ({_num(series.verdict_value)})"
    print(f"skips={series.skips}  verdict: {series.verdict}{extra}")
    if args.out:
        write_ratio_csv(series, args.out)
        print(f"wrote {args.out}")
    if args.svg:
        write_ratio_svg(series, args.svg)
        print(f"wrote {args.svg}")
    return 0


def cmd_gap(args) -> int:
    cfg = _load(args)
    series = run_gap_experiment(cfg)
    neg = series.negative_count()
    print(f"mode={series.mode}  rows={len(series.rows)}  skips={series.skips}")
    print(f"eps' = {series.eps_prime}")
    print(f"negative-gap points: {neg}")
    for p in series.negatives[:10]:
        print(f"  {p}")
    if neg > 10:
        print(f"  ... and {neg - 10} more")
    print(f"closure proxy: {series.closure}")
    if args.out:
        write_gap_csv(series, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_thm14(args) -> int:
    cfg = _load(args)
    rep = thm14_hypothesis_report(cfg)
    print(f"alpha estimate : {_num(rep.alpha_value)} [{rep.alpha.verdict}]")
    print(f"e family bound : {_num(rep.e_family)} [{rep.efd.label}]")
    print(f"e parameter    : {rep.e_param}  eps={rep.eps}  eps0={rep.eps0}")
    print(f"(i)  e+eps < alpha        : {rep.cond_growth}")
    print(f"(ii) margin at m0={rep.m0} : {rep.cond_margin}")
    print(f"hypotheses hold: {rep.hypothesis_ok}")
    for lab in rep.labels:
        print(f"label: {lab}")
    for cs in rep.closed_sets:
        print(f"closed set: {cs}")
    return 0


def cmd_thm17(args) -> int:
    cfg = _load(args)
    rep = thm17_set_membership(cfg)
    print(f"eps = {rep.eps}  liminf proxy = {_num(rep.liminf)} "
          f"(window n={rep.window[0]}..{rep.window[1]})")
    for n, all_r, out_r in rep.rows:
        mark = " *" if n in rep.flagged else ""
        print(f"n={n:3d}  all={_num(all_r)}  outside-S={_num(out_r)}{mark}")
    print(f"flagged: {list(rep.flagged)}")
    print(f"closure proxy: {rep.closure}")
    return 0


_FLAGS = {
    "--depth": dict(type=int, help="override config depth"),
    "--out": dict(help="write the series as CSV here"),
    "--svg": dict(help="write an SVG plot here"),
    "--eps-prime": dict(type=_fraction, help="override params.eps_prime"),
    "--eps": dict(type=_fraction, help="override params.eps"),
}

# subcommand -> (runner, help, the flags it reads)
_COMMANDS = {
    "orbit": (cmd_orbit, "iterate the map and print exact heights", ("--depth", "--out")),
    "weil": (cmd_weil, "local divisor terms at the seed point", ()),
    "alpha": (cmd_alpha, "orbit height growth-rate estimators", ("--depth",)),
    "lct": (cmd_lct, "log canonical threshold of a monomial ideal", ()),
    "efd": (cmd_efd, "pullback multiplicity growth rate", ("--depth",)),
    "cn": (cmd_cn, "coordinate-size inequality constants", ()),
    "ratio": (cmd_ratio, "proximity ratio series along an orbit", ("--depth", "--out", "--svg")),
    "gap": (cmd_gap, "inequality gap series (orbit or sample mode)",
            ("--depth", "--out", "--eps-prime")),
    "thm14": (cmd_thm14, "growth hypothesis report", ("--depth",)),
    "thm17": (cmd_thm17, "exceptional-set membership report", ("--depth", "--eps")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitweil",
        description="exact-arithmetic experiments for orbit heights and local terms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON experiment config")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, AuditFailure, SupportHit, ExactnumError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
