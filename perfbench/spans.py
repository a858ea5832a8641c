"""Span capture around the public functions of each orbitweil layer.

Nothing in the package changes: every target function is replaced by a
timing wrapper in every orbitweil module namespace that holds it by name
(``weil`` imports ``factorize`` from ``exactnum``, the experiment runners
import ``weil_global`` and friends), and methods are replaced on their
class.  Spans (name, start, end, parent, operation) live in flat arrays
in memory and are written out once, after the last operation.
"""

from __future__ import annotations

import functools
import gzip
import math
import os
import sys
import time
from array import array


def _cofactor_left(result, args):
    return result[1] != 1


def _ratio_hit(result, args):
    return result is not None


def _is_exact(result, args):
    return result.is_exact


def _bytes_written(result, args):
    return os.path.getsize(args[1])


# (metric key, module, attribute, outcome recorded per call or None)
TARGETS = (
    ("exactnum.factorize", "orbitweil.exactnum", "factorize", _cofactor_left),
    ("exactnum.abs_value", "orbitweil.exactnum", "abs_value", None),
    ("exactnum.LogMag.ratio_exact", "orbitweil.exactnum", "LogMag.ratio_exact", _ratio_hit),
    ("exactnum.LogMag.ratio_interval", "orbitweil.exactnum", "LogMag.ratio_interval", None),
    ("exactnum.LogMag.compare", "orbitweil.exactnum", "LogMag.compare", None),
    ("exactnum.LogMag.decimal_str", "orbitweil.exactnum", "LogMag.decimal_str", None),
    ("weil.weil_local", "orbitweil.weil", "weil_local", _is_exact),
    ("weil.weil_sum", "orbitweil.weil", "weil_sum", None),
    ("weil.weil_global", "orbitweil.weil", "weil_global", None),
    ("weil.galois_symmetrized", "orbitweil.weil", "galois_symmetrized", None),
    ("polydyn.evaluate", "orbitweil.polydyn", "evaluate", None),
    ("polydyn.ProjPoint.normalize", "orbitweil.polydyn", "ProjPoint.normalize", None),
    ("polydyn.HomogPoly.evaluate", "orbitweil.polydyn", "HomogPoly.evaluate", None),
    ("polydyn.wellformed_check", "orbitweil.polydyn", "wellformed_check", None),
    ("degree.alpha_estimate", "orbitweil.degree", "alpha_estimate", None),
    ("singular.efd_estimate", "orbitweil.singular", "efd_estimate", None),
    ("singular.remark44_m0", "orbitweil.singular", "remark44_m0", None),
    ("labcli.load_config", "orbitweil.labcli.config", "load_config", None),
    ("labcli.runner", "orbitweil.labcli.experiments", "run_ratio_experiment", None),
    ("labcli.runner", "orbitweil.labcli.experiments", "run_gap_experiment", None),
    ("labcli.runner", "orbitweil.labcli.experiments", "thm14_hypothesis_report", None),
    ("labcli.write", "orbitweil.labcli.io", "write_ratio_csv", _bytes_written),
    ("labcli.write", "orbitweil.labcli.io", "write_ratio_svg", _bytes_written),
    ("labcli.write", "orbitweil.labcli.io", "write_gap_csv", _bytes_written),
)

class SpanRecorder:
    """Flat in-memory span store; `op` tags spans with the current operation."""

    def __init__(self):
        self.names: list[str] = []
        self.keys: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("H")
        self.outcome = array("d")
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, key, name, fn, outcome):
        idx = len(self.names)
        self.names.append(name)
        self.keys.append(key)
        stack = self._stack
        name_id, start, end = self.name_id, self.start, self.end
        parent, op_id, outcomes = self.parent, self.op_id, self.outcome
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name_id)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            op_id.append(rec.op)
            end.append(0.0)
            outcomes.append(math.nan)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if outcome is not None:
                outcomes[i] = float(outcome(result, args))
            return result

        return wrapper

    def install(self):
        """Wrap every target in each orbitweil namespace and class that holds it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "orbitweil" and m]
        for key, modname, attr, outcome in TARGETS:
            home = sys.modules[modname]
            name = f"{modname.split('.')[-1]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(key, name, raw.__func__, outcome)))
                else:
                    setattr(cls, meth, self.wrap(key, name, raw, outcome))
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(key, name, orig, outcome)
            for mod in modules:
                for var, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, var, wrapped)

    def layer_metrics(self):
        """calls, self seconds and outcome totals per key.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        n = len(self.name_id)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        keys = sorted(set(self.keys))
        calls = dict.fromkeys(keys, 0)
        self_s = dict.fromkeys(keys, 0.0)
        outcome = dict.fromkeys(keys, 0.0)
        key_of = self.keys
        for i in range(n):
            k = key_of[self.name_id[i]]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
            o = self.outcome[i]
            if o == o:  # not NaN
                outcome[k] += o
        return calls, self_s, outcome

    def write(self, path, op_names):
        """One CSV line per span: name,start,end,parent,op,outcome."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("# ops: " + ",".join(op_names) + "\n")
            fh.write("name,start,end,parent,op,outcome\n")
            names = self.names
            for i in range(len(self.name_id)):
                o = self.outcome[i]
                fh.write(
                    f"{names[self.name_id[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]},{op_names[self.op_id[i]]},{'' if o != o else repr(o)}\n"
                )
