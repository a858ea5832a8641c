"""The benchmark's span targets must name live functions of the package.

perfbench/spans.py wraps its targets by module and attribute name; a
target that no longer resolves would break traced benchmark runs.  The
module is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_span_target_resolves():
    targets = _targets()
    assert targets
    for key, modname, attr, _ in targets:
        home = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), key
        else:
            assert callable(getattr(home, attr, None)), key
