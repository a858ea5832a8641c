"""One benchmark process: set up, run a workload's operations once, report.

Started by run.py with the checkout root as working directory.  The
parent passes its monotonic clock reading from just before the spawn, so
the reported set-up time runs from process start until every config of
the workload is loaded and validated (interpreter start, the orbitweil,
mpmath and jsonschema imports, and load_config).  Each operation calls
the same public orbitweil functions as the matching `orbitweil`
subcommand, with no orbit cache.  Results go to a JSON file.

    python3 perfbench/worker.py PLAN T0 RESULT [--setup-only] [--spans FILE]
"""

import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction


def _run(op, cfg, orbitweil):
    """Run one operation; return the facts the output checks need."""
    labcli = orbitweil.labcli
    out = op["paths"]
    kind = op["kind"]
    if kind == "ratio":
        series = labcli.run_ratio_experiment(cfg, cache=None)
        labcli.write_ratio_csv(series, out["csv"])
        labcli.write_ratio_svg(series, out["svg"])
        return {"rows": len(series.rows), "verdict": series.verdict}
    if kind == "gap":
        series = labcli.run_gap_experiment(cfg, cache=None)
        labcli.write_gap_csv(series, out["csv"])
        return {"rows": len(series.rows), "skips": series.skips}
    if kind == "alpha":
        orbit = orbitweil.iterate(cfg.map, cfg.seed, cfg.depth)
        est = orbitweil.alpha_estimate(orbit)
        value = est.value
        return {
            "verdict": est.verdict,
            "value": None if value is None else float(value),
            "value_exact": str(value) if isinstance(value, Fraction) else None,
        }
    if kind == "thm14":
        rep = labcli.thm14_hypothesis_report(cfg, cache=None)
        av = rep.alpha_value
        return {
            "alpha_exact": str(av) if isinstance(av, Fraction) else None,
            "hypothesis_ok": rep.hypothesis_ok,
        }
    raise ValueError(f"unknown operation kind {kind!r}")


def main(argv):
    plan_path, t0, result_path = argv[0], float(argv[1]), argv[2]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv else None
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    src = plan["src"]
    sys.path.insert(0, src)
    import orbitweil

    if not os.path.abspath(orbitweil.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported orbitweil from {orbitweil.__file__}, not {src}")
    recorder = None
    if spans_path:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    load_config = orbitweil.labcli.load_config
    configs = [load_config(op["paths"]["config"]) for op in plan["ops"]]
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "ops": []}
    if not setup_only:
        for k, (op, cfg) in enumerate(zip(plan["ops"], configs), start=1):
            if recorder is not None:
                recorder.op = k
            start = time.perf_counter()
            entry = {"name": op["name"]}
            try:
                entry["facts"] = _run(op, cfg, orbitweil)
            except Exception:
                entry["error"] = traceback.format_exc()
            entry["seconds"] = time.perf_counter() - start
            result["ops"].append(entry)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        calls, self_s, outcome = recorder.layer_metrics()
        result["layers"] = {"calls": calls, "self_s": self_s, "outcome": outcome}
        recorder.write(spans_path, ["setup"] + [op["name"] for op in plan["ops"]])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
