"""orbitweil benchmark: one workload, one seed, a fixed time budget.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ./src.  Each
iteration is a fresh process that loads the workload's configs and runs
its operations once (a closed loop with one client, one process at a
time).  A new iteration starts while fewer than --seconds have passed
since measuring began, and there are always at least MIN_ROUNDS, so each
metric is a median.  Before them, one unmeasured process warms the
bytecode and file caches and SETUP_SAMPLES processes only load the
configs: setup_s is their median (a process started right after a long
iteration sets up measurably slower, so iteration processes do not count).

--trace 0 reports the end-to-end metrics (medians over the run):
  setup_s      process start until every config is loaded and validated
  run_s        wall time of the workload's operations in one process
  peak_rss_mb  peak resident memory of that process
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (see spans.py), with
trace.overhead_share = traced run_s / untraced run_s - 1.

Every output is checked by check.py, and its bytes must match the first
iteration's and those of earlier runs of the same seed and sources.
fail_share = failed / attempted operations is printed; the last line of
stdout is the JSON result.  The orbit cache is never used: ORBITWEIL_CACHE
is removed from the environment (the cache writes coordinates with str(),
which fails past Python's int-to-str digit limit).
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import mpmath  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_SAMPLES = 5
MIN_ROUNDS = 2  # untraced runs; a traced run needs one untraced+traced round
WORKER_TIMEOUT_S = 150

# per-layer metrics reported by --trace 1, as (layer key, metric suffix)
LAYER_METRICS = (
    ("exactnum.factorize", ("calls", "self_s", "cofactor_share")),
    ("exactnum.LogMag.ratio_exact", ("calls", "self_s", "hit_share")),
    ("exactnum.LogMag.ratio_interval", ("calls", "self_s")),
    ("exactnum.abs_value", ("calls", "self_s")),
    ("exactnum.LogMag.compare", ("calls", "self_s")),
    ("exactnum.LogMag.decimal_str", ("calls", "self_s")),
    ("weil.weil_local", ("calls", "self_s", "exact_share")),
    ("weil.weil_sum", ("calls", "self_s")),
    ("weil.weil_global", ("calls", "self_s")),
    ("weil.galois_symmetrized", ("calls", "self_s")),
    ("polydyn.evaluate", ("calls", "self_s")),
    ("polydyn.ProjPoint.normalize", ("calls", "self_s")),
    ("polydyn.HomogPoly.evaluate", ("calls", "self_s")),
    ("polydyn.wellformed_check", ("self_s",)),
    ("degree.alpha_estimate", ("calls", "self_s")),
    ("singular.efd_estimate", ("calls", "self_s")),
    ("singular.remark44_m0", ("calls", "self_s")),
    ("labcli.load_config", ("self_s",)),
    ("labcli.runner", ("self_s",)),
    ("labcli.write", ("self_s", "bytes")),
)
UNITS = {"calls": "count", "self_s": "s", "bytes": "bytes"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _source_digest(src):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(_sha256(fh.read()).encode())
    return h.hexdigest()


def _git_commit(root):
    """HEAD of a git checkout, read from .git without running git; else None."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root, src, seed):
    return {
        "commit": _git_commit(root),
        "source_sha256": _source_digest(src),
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload_seed": seed,
    }


class Runner:
    """Starts worker processes for one workload, one at a time."""

    def __init__(self, work, plan_path):
        self.work = work
        self.plan_path = plan_path
        self.env = {k: v for k, v in os.environ.items() if k != "ORBITWEIL_CACHE"}
        # the same set and dict iteration order in every worker process
        self.env["PYTHONHASHSEED"] = "0"
        self.count = 0

    def spawn(self, setup_only=False, traced=False):
        """Run one worker; returns (result dict or None, error text)."""
        self.count += 1
        tag = f"p{self.count:03d}"
        result_path = os.path.join(self.work, tag + ".json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), self.plan_path]
        extra = ["--setup-only"] if setup_only else []
        if traced:
            extra += ["--spans", os.path.join(self.work, tag + ".spans.csv.gz")]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd + [repr(t0), result_path] + extra,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace")[-2000:]
            return None, f"worker exit {proc.returncode}: {err}"
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), ""


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _collect_outputs(ops):
    """Read and remove the files the operations wrote: {op: {kind: bytes}}."""
    out = {}
    for op in ops:
        out[op["name"]] = {}
        for kind in op["outputs"]:
            path = op["paths"][kind]
            try:
                with open(path, "rb") as fh:
                    out[op["name"]][kind] = fh.read()
                os.remove(path)
            except OSError:
                out[op["name"]][kind] = b""
    return out


@contextlib.contextmanager
def _references(path, key):
    """Output digests of earlier runs with the same sources, workload and seed."""
    try:
        with open(path, encoding="utf-8") as fh:
            everything = json.load(fh)
    except (OSError, ValueError):
        everything = {}
    yield everything.setdefault(key, {})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(everything, fh, indent=1, sort_keys=True)


def _write_plan(work, src, ops):
    """Write each op's config and the worker's plan; adds op["paths"]."""
    plan = {"src": src, "ops": []}
    for op in ops:
        paths = {"config": os.path.join(work, op["name"] + ".json")}
        for kind in op["outputs"]:
            paths[kind] = os.path.join(work, f"{op['name']}.{kind}")
        op["paths"] = paths
        with open(paths["config"], "w", encoding="utf-8") as fh:
            json.dump(op["config"], fh, indent=1)
        plan["ops"].append({k: op[k] for k in ("name", "kind", "paths")})
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    return plan_path


def _check_iterations(ops, iterations, references, problems_out):
    """Count attempted and failed operations over all iterations of the run."""
    attempted = failed = 0
    checked = {}
    first = {}
    for it in iterations:
        for k, op in enumerate(ops):
            attempted += 1
            res = it["result"]
            entry = res["ops"][k] if res and k < len(res.get("ops", [])) else None
            if entry is None or "error" in entry:
                failed += 1
                problems_out.append(f"{op['name']}: {entry['error'] if entry else it['error']}")
                continue
            outputs = it["outputs"][op["name"]]
            digest = _sha256(
                json.dumps(entry["facts"], sort_keys=True).encode()
                + b"".join(_sha256(outputs[kind]).encode() for kind in op["outputs"])
            )
            problems = []
            ref = references.setdefault(op["name"], digest)
            if first.setdefault(op["name"], digest) != digest:
                problems.append("output bytes differ from the first iteration")
            elif ref != digest:
                problems.append("output bytes differ from an earlier run of this seed")
            if digest not in checked:
                text = {kind: data.decode("utf-8") for kind, data in outputs.items()}
                checked[digest] = check.check_op(op, text, entry["facts"])
            problems += checked[digest]
            if problems:
                failed += 1
                problems_out.extend(f"{op['name']}: {p}" for p in problems)
    return attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "orbitweil", "__init__.py")):
        print("error: src/orbitweil not found; run from the repository root", file=sys.stderr)
        return 2

    base = os.path.join(root, WORK_DIR)
    work = os.path.join(base, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ops = workloads.operations(args.workload, args.seed)
    plan_path = _write_plan(work, src, ops)

    env = environment(root, src, args.seed)
    runner = Runner(work, plan_path)
    problems = []

    # set-up only; the first process is an unmeasured warm-up of the
    # bytecode and file caches
    setup = []
    for _ in range(SETUP_SAMPLES + 1):
        res, err = runner.spawn(setup_only=True)
        if res is None:
            print(f"error: set-up failed: {err}", file=sys.stderr)
            return 1
        setup.append(res["setup_s"])
        if len(setup) == 1:
            start = time.perf_counter()
            deadline = start + args.seconds
    setup = setup[1:]

    iterations = []
    rounds = 0
    min_rounds = 1 if args.trace else MIN_ROUNDS
    while rounds < min_rounds or time.perf_counter() < deadline:
        for traced in (False, True) if args.trace else (False,):
            res, err = runner.spawn(traced=traced)
            iterations.append({"traced": traced, "result": res, "error": err,
                               "outputs": _collect_outputs(ops)})
        rounds += 1
    measured_s = time.perf_counter() - start

    ref_path = os.path.join(base, "reference-digests.json")
    with _references(ref_path, f"{env['source_sha256']}/{args.workload}/{args.seed}") as refs:
        attempted, failed = _check_iterations(ops, iterations, refs, problems)

    good = [it for it in iterations if it["result"] and not any(
        "error" in e for e in it["result"]["ops"])]
    plain = [it["result"] for it in good if not it["traced"]]
    traced = [it["result"] for it in good if it["traced"]]
    run_s = [sum(e["seconds"] for e in r["ops"]) for r in plain]
    rss = [r["peak_rss_mb"] for r in plain]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(iterations)}  measured {measured_s:.1f} s  "
          "(closed loop, one client, one process per iteration)")
    metrics = {}
    if plain:
        samples = {"setup_s": (setup, "s"), "run_s": (run_s, "s"), "peak_rss_mb": (rss, "MB")}
        for name, (values, unit) in samples.items():
            med = statistics.median(values)
            q1, q3 = _quartiles(values)
            print(f"  {name:<12} {med:12.6f} {unit:<3} median of {len(values)}, "
                  f"quartiles {q1:.6f} .. {q3:.6f}")
            metrics[name] = {"value": med, "unit": unit}
    fail_share = failed / attempted if attempted else 1.0
    print(f"  {'fail_share':<12} {fail_share:12.6f} share ({failed} of {attempted} operations failed)")
    for p in problems[:20]:
        print(f"  problem: {p}")

    if args.trace:
        layer = {}
        if traced and plain:
            layer = _layer_metrics(traced)
            overhead = statistics.median(
                sum(e["seconds"] for e in r["ops"]) for r in traced
            ) / statistics.median(run_s) - 1
            layer["trace.overhead_share"] = {"value": overhead, "unit": "share"}
        for name, m in layer.items():
            print(f"  {name:<40} {m['value']:16.6f} {m['unit']}")
        metrics = layer
    print("env " + json.dumps(env, sort_keys=True))

    correct = failed == 0 and bool(metrics)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "correct": correct, "attempted": attempted, "failed": failed,
              "setup_samples": setup, "run_samples": run_s, "rss_samples": rss,
              "metrics": metrics, "problems": problems[:20]}
    with open(os.path.join(base, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _layer_value(layers, key, suffix):
    calls = layers["calls"][key]
    if suffix == "calls":
        return calls
    if suffix == "self_s":
        return layers["self_s"][key]
    if suffix == "bytes":
        return layers["outcome"][key]
    # a share of useful outcomes among calls; 0 when never called
    return layers["outcome"][key] / calls if calls else 0.0


def _layer_metrics(traced):
    """Median over traced iterations of each per-layer metric."""
    return {
        f"{key}.{suffix}": {
            "value": statistics.median(_layer_value(r["layers"], key, suffix) for r in traced),
            "unit": UNITS.get(suffix, "share"),
        }
        for key, suffixes in LAYER_METRICS
        for suffix in suffixes
    }


if __name__ == "__main__":
    raise SystemExit(main())
