"""The benchmark's span targets must name live functions of the package.

perfbench/spans.py wraps its targets by module and attribute name; a
target that no longer resolves would break traced benchmark runs, and an
outcome callback that reads an attribute the package no longer has would
fail only inside a traced run.  The module is loaded from its file and
only read.
"""

import importlib
import importlib.util
from pathlib import Path

from orbitweil.exactnum import LogMag, Place, QuadField, places_above
from orbitweil.labcli import parse_config, run_gap_experiment, run_ratio_experiment
from orbitweil.polydyn import HomogPoly, ProjPoint
from orbitweil.weil import DivisorPresentation

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def _resolve(modname, attr):
    home = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(getattr(home, cls_name), meth)
    return getattr(home, attr)


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


def _live_arguments(tmp_path):
    """Arguments of one real call per target with an outcome, and the outcome expected."""
    cfg = parse_config({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
        "divisor": {"field": "Q", "form": {"1,0": "1", "0,1": "-3"}, "weight": 1},
        "places": ["inf", 3],
        "twist": 1,
        "depth": 3,
        "params": {"eps_prime": "1"},
    })
    ratio, gap = run_ratio_experiment(cfg, cache=None), run_gap_experiment(cfg, cache=None)
    F = QuadField(2)
    d_F = DivisorPresentation.hypersurface(
        HomogPoly.from_terms(2, {(1, 0): F.element(1), (0, 1): -F.sqrt_gen()})
    )
    real = places_above(Place.archimedean(), F)[0]
    return {
        ("orbitweil.exactnum", "factorize"): ((2**10 * 3**5,), False),
        ("orbitweil.exactnum", "LogMag.ratio_exact"): ((LogMag.exact(8), LogMag.exact(4)), True),
        # the real place of Q(sqrt 2) gives log(3/(3 - sqrt 2)), exact
        ("orbitweil.weil", "weil_local"): ((d_F, ProjPoint.normalize((3, 1)), real), True),
        ("orbitweil.labcli.io", "write_ratio_csv"): ((ratio, str(tmp_path / "r.csv")), True),
        ("orbitweil.labcli.io", "write_ratio_svg"): ((ratio, str(tmp_path / "r.svg")), True),
        ("orbitweil.labcli.io", "write_gap_csv"): ((gap, str(tmp_path / "g.csv")), True),
    }


def test_every_outcome_callback_reads_a_live_result(tmp_path):
    calls = _live_arguments(tmp_path)
    with_outcome = [t for t in _targets() if t[3] is not None]
    assert {(modname, attr) for _, modname, attr, _ in with_outcome} == set(calls)
    for key, modname, attr, outcome in with_outcome:
        args, want = calls[modname, attr]
        result = _resolve(modname, attr)(*args)
        assert bool(outcome(result, args)) is want, key
