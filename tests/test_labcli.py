import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import orbitweil
from orbitweil.degree import ratio_entry
from orbitweil.exactnum import LogMag, Place, QuadField
from orbitweil.labcli import (
    AuditFailure,
    ConfigError,
    fmt12,
    load_config,
    parse_config,
    run_gap_experiment,
    run_ratio_experiment,
    thm14_hypothesis_report,
    thm17_set_membership,
    write_gap_csv,
    write_ratio_csv,
    write_ratio_svg,
)
from orbitweil.labcli import experiments
from orbitweil.labcli.cli import main
from orbitweil.labcli.experiments import _closure_proxy, _kernel_vector, _sample_points
from orbitweil.polydyn import HomogPoly, ProjPoint, height, iterate
from orbitweil.weil import LocalTable, weil_local, weil_sum


def squaring_cfg(**overrides):
    data = {
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
        "divisor": {"field": "Q", "form": {"1,0": "1", "0,1": "-3"}},
        "places": ["inf", 3],
        "depth": 8,
    }
    data.update(overrides)
    return parse_config(data)


def axis_cfg(**overrides):
    data = {
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
        "divisor": {"field": "Q", "form": {"0,1": "1"}},
        "places": ["inf"],
        "depth": 8,
    }
    data.update(overrides)
    return parse_config(data)


@pytest.mark.parametrize("module", [orbitweil, orbitweil.labcli], ids=lambda m: m.__name__)
def test_export_list_resolves_without_duplicates(module):
    names = module.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(names) <= set(namespace)


def test_config_parsing_round_trip():
    cfg = squaring_cfg(params={"e": "1", "eps": "1/2"}, twist=2)
    assert len(cfg.map.forms) == 2
    assert cfg.seed.coords == (Fraction(2), Fraction(1))
    assert cfg.divisor.degree == 1
    assert cfg.divisor.weight == 1
    assert cfg.twist == 2
    assert cfg.depth == 8
    assert cfg.param("eps") == Fraction(1, 2)
    assert cfg.param("missing") is None
    assert len(cfg.places) == 2


def test_config_rejections():
    good = {
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
    }
    with pytest.raises(ConfigError):
        parse_config({**good, "unknown_key": 1})
    with pytest.raises(ConfigError):
        parse_config({**good, "places": [4]})  # not prime
    with pytest.raises(ConfigError):
        parse_config({**good, "places": ["inf", "inf"]})
    with pytest.raises(ConfigError):
        parse_config({**good, "seed": ["1", "2", "3"]})  # arity mismatch
    with pytest.raises(ConfigError):
        parse_config({**good, "divisor": {"form": {"1,0,0": "1"}}})
    with pytest.raises(ConfigError):
        parse_config({**good, "divisor": {"form": {"1,0": "1/0"}}})
    with pytest.raises(ConfigError):
        # quadratic coefficient without a quadratic field
        parse_config({**good, "divisor": {"form": {"1,0": {"a": "1", "b": "1"}}}})
    with pytest.raises(ConfigError):
        # inhomogeneous divisor form
        parse_config({**good, "divisor": {"form": {"1,0": "1", "2,0": "1"}}})
    with pytest.raises(ConfigError):
        parse_config({**good, "map": {"forms": [{"2,0": "1"}, {"0,3": "1"}]}})


def test_config_refuses_a_place_past_the_deterministic_primality_bound():
    big = 10**29 + 319  # a 30-digit prime, past what Miller-Rabin decides
    with pytest.raises(ConfigError, match=f"place {big}: cannot prove"):
        parse_config({**_GOOD, "places": ["inf", big]})


def test_config_file_loading(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
    }))
    cfg = load_config(str(path))
    assert cfg.map is not None
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]")
    with pytest.raises(ConfigError):
        load_config(str(arr))


_GOOD = {
    "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
    "seed": ["2", "1"],
}
_LCT = {"nvars": 2, "generators": [[2, 0], [0, 3]], "bound": 3}
_EFD = {"matrix": [[2, 1], [0, 2]], "target": 0}
_CN = {"m_list": [2, 3, 2], "dim": 2, "delta": "2", "m": 2, "n": 2}


def _in_map_form(c):
    return {"map": {"forms": [{"2,0": c}, {"0,2": "1"}]}}


def _in_quad_form(c):
    return {"divisor": {"field": {"d": 2}, "form": {"1,0": c, "0,1": "1"}}}


# one config per rule: (test id, override, the JSON path its error must
# name).  Each row carries its own id, so inserting a row renames no other
# test; the numbered ids are the ones rows sharing a path have always had.
_VIOLATIONS = [
    ("<root>", {"bogus": 1}, "<root>"),
    ("map0", {"map": {"forms": _GOOD["map"]["forms"], "extra": 1}}, "map"),
    ("map1", {"map": {}}, "map"),
    ("map2", {"map": []}, "map"),
    ("map/forms", {"map": {"forms": [{"1": "1"}]}}, "map/forms"),
    ("map/forms/0_0", {"map": {"forms": [{}, {"0,2": "1"}]}}, "map/forms/0"),
    ("map/forms/0_1", {"map": {"forms": [{"2;0": "1"}, {"0,2": "1"}]}}, "map/forms/0"),
    ("map/forms/0_2", {"map": {"forms": [{",2": "1"}, {"0,2": "1"}]}}, "map/forms/0"),
    ("map/forms/0/2,0_0", _in_map_form("1.5"), "map/forms/0/2,0"),
    ("map/forms/0/2,0_1", _in_map_form("1/-2"), "map/forms/0/2,0"),
    ("map/forms/0/2,0_2", _in_map_form(1.5), "map/forms/0/2,0"),
    ("map/forms/0/2,0_3", _in_map_form(True), "map/forms/0/2,0"),
    ("map/forms/0/2,0_4", _in_map_form(None), "map/forms/0/2,0"),
    ("divisor/form/1,0_0", _in_quad_form({"a": "1"}), "divisor/form/1,0"),
    ("divisor/form/1,0_1", _in_quad_form({"a": "1", "b": "1", "c": "1"}), "divisor/form/1,0"),
    ("divisor/form/1,0/a", _in_quad_form({"a": 1.5, "b": "1"}), "divisor/form/1,0/a"),
    ("divisor/form/1,0/b", _in_quad_form({"a": "1", "b": [1]}), "divisor/form/1,0/b"),
    ("seed0", {"seed": ["2"]}, "seed"),
    ("seed1", {"seed": "2,1"}, "seed"),
    ("seed/1_0", {"seed": ["2", 1.5]}, "seed/1"),
    ("seed/1_1", {"seed": ["2", False]}, "seed/1"),
    ("seed/1_2", {"seed": ["2", None]}, "seed/1"),
    ("divisor0", {"divisor": {"field": "Q"}}, "divisor"),
    ("divisor1", {"divisor": {"form": {"1,0": "1"}, "extra": 1}}, "divisor"),
    ("divisor/field0", {"divisor": {"field": "R", "form": {"1,0": "1"}}}, "divisor/field"),
    ("divisor/field/d0", {"divisor": {"field": {"d": "2"}, "form": {"1,0": "1"}}}, "divisor/field/d"),
    ("divisor/field/d1", {"divisor": {"field": {"d": 2.5}, "form": {"1,0": "1"}}}, "divisor/field/d"),
    ("divisor/field1", {"divisor": {"field": {}, "form": {"1,0": "1"}}}, "divisor/field"),
    ("divisor/field2", {"divisor": {"field": {"d": 2, "e": 3}, "form": {"1,0": "1"}}}, "divisor/field"),
    ("divisor/weight0", {"divisor": {"form": {"1,0": "1"}, "weight": 1.5}}, "divisor/weight"),
    ("divisor/weight1", {"divisor": {"form": {"1,0": "1"}, "weight": [1]}}, "divisor/weight"),
    ("places", {"places": "inf"}, "places"),
    ("places/0_0", {"places": ["sup"]}, "places/0"),
    ("places/1", {"places": ["inf", 1]}, "places/1"),
    ("places/0_1", {"places": [2.5]}, "places/0"),
    ("places/0_2", {"places": [True]}, "places/0"),
    ("twist0", {"twist": 0}, "twist"),
    ("twist1", {"twist": 1.5}, "twist"),
    ("twist2", {"twist": "2"}, "twist"),
    ("depth0", {"depth": -1}, "depth"),
    ("depth1", {"depth": True}, "depth"),
    ("params", {"params": []}, "params"),
    ("params/eps0", {"params": {"eps": 0.5}}, "params/eps"),
    ("params/eps1", {"params": {"eps": None}}, "params/eps"),
    ("params/bound0", {"params": {"bound": "5/2"}}, "params/bound"),
    ("params/bound1", {"params": {"bound": "0"}}, "params/bound"),
    ("sample0", {"sample": {}}, "sample"),
    ("sample/height_bound0", {"sample": {"height_bound": 0}}, "sample/height_bound"),
    ("sample/height_bound1", {"sample": {"height_bound": 5.5}}, "sample/height_bound"),
    ("sample/count0", {"sample": {"height_bound": 5, "count": 0}}, "sample/count"),
    ("sample/count1", {"sample": {"height_bound": 5, "count": "some"}}, "sample/count"),
    ("sample/seed", {"sample": {"height_bound": 5, "seed": "0"}}, "sample/seed"),
    ("sample1", {"sample": {"height_bound": 5, "extra": 1}}, "sample"),
    ("lct0", {"lct": {"nvars": 2}}, "lct"),
    ("lct/nvars", {"lct": {**_LCT, "nvars": 0}}, "lct/nvars"),
    ("lct/generators", {"lct": {**_LCT, "generators": []}}, "lct/generators"),
    ("lct/generators/0", {"lct": {**_LCT, "generators": [[]]}}, "lct/generators/0"),
    ("lct/generators/0/1_0", {"lct": {**_LCT, "generators": [[2, -1]]}}, "lct/generators/0/1"),
    ("lct/generators/0/1_1", {"lct": {**_LCT, "generators": [[2, 0.5]]}}, "lct/generators/0/1"),
    ("lct/bound", {"lct": {**_LCT, "bound": 0}}, "lct/bound"),
    ("lct1", {"lct": {**_LCT, "extra": 1}}, "lct"),
    ("efd0", {"efd": {"matrix": [[1]]}}, "efd"),
    ("efd/matrix", {"efd": {**_EFD, "matrix": []}}, "efd/matrix"),
    ("efd/matrix/0", {"efd": {**_EFD, "matrix": [[]]}}, "efd/matrix/0"),
    ("efd/matrix/0/1", {"efd": {**_EFD, "matrix": [[1, -2]]}}, "efd/matrix/0/1"),
    ("efd/target", {"efd": {**_EFD, "target": -1}}, "efd/target"),
    ("efd1", {"efd": {**_EFD, "extra": 1}}, "efd"),
    ("efd2", {"efd": {**_EFD, "bound": 2}}, "efd"),  # read by nothing
    ("cn0", {"cn": {k: v for k, v in _CN.items() if k != "n"}}, "cn"),
    ("cn/m_list", {"cn": {**_CN, "m_list": []}}, "cn/m_list"),
    ("cn/m_list/1", {"cn": {**_CN, "m_list": [2, 0]}}, "cn/m_list/1"),
    ("cn/dim", {"cn": {**_CN, "dim": 0}}, "cn/dim"),
    ("cn/delta", {"cn": {**_CN, "delta": 1.5}}, "cn/delta"),
    ("cn/m", {"cn": {**_CN, "m": 0}}, "cn/m"),
    ("cn/n", {"cn": {**_CN, "n": 0}}, "cn/n"),
    ("cn1", {"cn": {**_CN, "extra": 1}}, "cn"),
]


@pytest.mark.parametrize(
    "override, path", [pytest.param(o, p, id=i) for i, o, p in _VIOLATIONS]
)
def test_config_rejects_each_rule_naming_the_path(override, path):
    with pytest.raises(ConfigError) as info:
        parse_config({**_GOOD, **override})
    assert f" {path}: " in f" {info.value}"


def test_config_violation_ids_are_unique():
    # pytest would silently suffix a repeated id, renaming the tests after it
    ids = [i for i, _, _ in _VIOLATIONS]
    assert len(set(ids)) == len(ids)


def test_config_reads_cn_delta_and_the_family_bound_at_load_time():
    with pytest.raises(ConfigError, match="^cn/delta: "):
        parse_config({**_GOOD, "cn": {**_CN, "delta": "abc"}})
    for delta, value in ((3, Fraction(3)), ("3/2", Fraction(3, 2))):
        assert parse_config({**_GOOD, "cn": {**_CN, "delta": delta}}).cn["delta"] == value
    bound = parse_config({**_GOOD, "params": {"bound": "3"}}).param("bound")
    assert bound == 3 and type(bound) is int


def test_integral_numbers_read_as_ints_by_every_runner(tmp_path, capsys):
    # JSON integers may be written 5.0; each run must print what its twin does
    cases = (
        ("gap", {
            "divisor": {"form": {"2,1": "1", "1,2": "-1"}},
            "places": ["inf", 2, 3],
            "params": {"eps_prime": "1"},
        }, "sample", {"height_bound": 5}),
        ("lct", {}, "lct", {"nvars": 2, "generators": [[2, 0], [0, 3]], "bound": 3}),
        ("cn", {}, "cn", {"m_list": [2, 3, 2], "dim": 2, "delta": "2", "m": 2, "n": 2}),
    )
    for cmd, base, section, block in cases:
        outs = []
        for number in (int, float):
            data = {**base, section: {
                k: number(v) if type(v) is int else v for k, v in block.items()
            }}
            path = tmp_path / f"{cmd}-{number.__name__}.json"
            path.write_text(json.dumps(data))
            assert main([cmd, str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


def test_import_load_and_gap_run_without_jsonschema(tmp_path):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({
        "divisor": {"form": {"2,1": "1", "1,2": "-1"}},
        "places": ["inf", 2, 3],
        "sample": {"height_bound": 8},
        "params": {"eps_prime": "1"},
    }))
    script = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        "import orbitweil\n"
        "from orbitweil.labcli import load_config, run_gap_experiment\n"
        "series = run_gap_experiment(load_config(sys.argv[1]))\n"
        "print(series.mode, len(series.rows))\n"
    )
    src = os.path.dirname(os.path.dirname(orbitweil.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("sample ")


def test_orbit_runners_refuse_a_map_with_a_common_zero():
    # (xy : x^2) vanishes at (0 : 1); (x^2 : y^2 : z^2) is a morphism of P^2
    cfg = squaring_cfg(map={"forms": [{"1,1": "1"}, {"2,0": "1"}]},
                       params={"e": "1", "eps": "1/4", "eps0": "1", "eps_prime": "1"})
    for run in (run_ratio_experiment, thm14_hypothesis_report, run_gap_experiment):
        with pytest.raises(ConfigError, match=r"not a morphism \(common zero \(0:1\)\)"):
            run(cfg)
    squares = parse_config({
        "map": {"forms": [{"2,0,0": "1"}, {"0,2,0": "1"}, {"0,0,2": "1"}]},
        "seed": ["2", "3", "1"],
        "divisor": {"form": {"1,0,0": "1", "0,1,0": "-1"}},
        "places": ["inf", 5],
        "depth": 4,
    })
    assert len(run_ratio_experiment(squares).rows) == 5


# the squaring map from (10^15 : 1), D = x + y, S = {inf}: |lambda_S| < 10^-14 on every row
_NEAR_AXIS = {
    "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
    "seed": ["1000000000000000", "1"],
    "divisor": {"field": "Q", "form": {"1,0": "1", "0,1": "1"}, "weight": 1},
    "places": ["inf"],
    "depth": 3,
}


def _near_axis_cfg():
    return parse_config(_NEAR_AXIS)


def test_ratio_series_squaring_line():
    series = run_ratio_experiment(squaring_cfg())
    assert len(series.rows) == 9
    assert series.skips == 0
    assert not series.degenerate
    # the first two points sit at maximal proximity: |2-3| = |4-3| = 1
    assert series.rows[0].ratio == Fraction(1)
    assert series.rows[1].ratio == Fraction(1)
    assert abs(series.rows[2].ratio_mid - 0.074890070465) < 1e-11
    assert series.verdict == "trending-to-zero"
    # certified strict decrease from n=2 on: compare outward interval bounds
    for a, b in zip(series.rows[2:], series.rows[3:]):
        assert b.ratio_bounds[1] < a.ratio_bounds[0]


def test_ratio_series_invariant_denominator():
    # every audited row satisfies lambda_all = deg * h exactly
    series = run_ratio_experiment(squaring_cfg())
    for r in series.rows:
        if not r.skipped:
            assert r.lambda_all == r.h  # deg = weight = twist = 1


def test_ratio_series_exact_constant():
    series = run_ratio_experiment(axis_cfg())
    for r in series.rows:
        assert r.ratio == Fraction(1)
    assert series.verdict == "trending-to"
    assert series.verdict_value == Fraction(1)


def test_ratio_bounds_enclose_exact_ratio():
    # lambda_inf = h and the twist is 3, so every ratio is exactly 1/3,
    # which no float equals: the bounds must lie strictly around it
    series = run_ratio_experiment(axis_cfg(twist=3, depth=4))
    for r in series.rows:
        assert r.ratio == Fraction(1, 3)
        lo, hi = r.ratio_bounds
        assert Fraction(lo) < Fraction(1, 3) < Fraction(hi)


def test_ratio_single_row_inconclusive():
    series = run_ratio_experiment(squaring_cfg(depth=0))
    assert len(series.rows) == 1
    assert series.verdict == "inconclusive"


def test_ratio_verdict_reads_magnitudes_of_a_negative_series():
    # weight -1: the ratios run away from zero through negative values
    series = run_ratio_experiment(parse_config({
        "map": {"forms": [{"2,0": "3", "1,1": "1", "0,2": "1"}, {"0,2": "2", "1,1": "0"}]},
        "seed": ["3", "5"],
        "divisor": {"field": "Q", "form": {"1,0": "0", "0,1": "3"}, "weight": -1},
        "places": ["inf", 2, 3],
        "depth": 6,
    }))
    assert all(-0.42 < r.ratio_mid < -0.4 for r in series.rows[-3:])
    assert series.verdict == "inconclusive" and series.verdict_value is None
    # lambda_S = log(x/(x + y)) < 0 shrinks like 1/x against h = log x
    series = run_ratio_experiment(_near_axis_cfg())
    mids = [r.ratio_mid for r in series.rows]
    assert all(m < 0 for m in mids)
    assert series.verdict == "trending-to-zero"
    assert series.verdict_value == abs(mids[-1]) / abs(mids[-2])


def test_ratio_skip_policies():
    # seed on the divisor support: one skipped, annotated row
    cfg = squaring_cfg(seed=["3", "1"], depth=4)
    series = run_ratio_experiment(cfg)
    assert series.rows[0].skipped and series.rows[0].reason == "support"
    assert series.skips == 1
    assert not series.degenerate
    # three of five steps on a degree-3 support: degenerate run
    cfg2 = parse_config({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
        "divisor": {"form": {"3,0": "1", "2,1": "-22", "1,2": "104", "0,3": "-128"}},
        "places": ["inf"],
        "depth": 4,
    })
    series2 = run_ratio_experiment(cfg2)
    assert series2.skips == 3
    assert series2.degenerate
    assert series2.verdict == "degenerate"
    # every step on support: hard error
    cfg3 = parse_config({
        "map": {"forms": [{"1,0": "1"}, {"0,1": "1"}]},
        "seed": ["3", "1"],
        "divisor": {"form": {"1,0": "1", "0,1": "-3"}},
        "places": ["inf"],
        "depth": 3,
    })
    with pytest.raises(ValueError):
        run_ratio_experiment(cfg3)


def test_ratio_rejects_non_morphism():
    cfg = parse_config({
        "map": {"forms": [{"2,0": "1"}, {"1,1": "1"}]},  # common zero (0:1)
        "seed": ["2", "1"],
        "divisor": {"form": {"0,1": "1"}},
        "places": ["inf"],
        "depth": 4,
    })
    with pytest.raises(ConfigError):
        run_ratio_experiment(cfg)


def _place_kind(w):
    if w.field is None:
        return "infinity" if w.p is None else "prime"
    return w.kind


@pytest.mark.parametrize("d, kind", [
    (None, "infinity"), (None, "prime"),
    (3, "real"), (3, "ramified"), (3, "inert"), (3, "split"),
    (-1, "complex"), (-1, "ramified"), (-1, "inert"), (-1, "split"),
])
def test_audit_fails_on_a_closed_form_fault_at_each_kind_of_place(monkeypatch, d, kind):
    from orbitweil import weil

    if d is None:  # s_D(x) = 2^(2^n) - 3 along the orbit of (2:1)
        cfg, run = squaring_cfg(), run_ratio_experiment
        points = [s.point for s in iterate(cfg.map, cfg.seed, cfg.depth).steps]
    else:
        # D = a x - sqrt(d) y: N(s_D(x)) = a^2 x^2 - d y^2, and the inert
        # prime a divides it where a | y
        a = {3: 5, -1: 3}[d]
        cfg = parse_config({
            "divisor": {"field": {"d": d}, "form": {"1,0": {"a": str(a), "b": "0"}, "0,1": {"a": "0", "b": "-1"}}},
            "places": ["inf", 2, 3, 5] + ([11] if d == 3 else []),
            "sample": {"height_bound": 12},
            "params": {"eps_prime": "1"},
        })
        run, points = run_gap_experiment, _sample_points(2, 12, "all", 0)

    def listed(x):
        """The audit's places of this kind at x."""
        if cfg.divisor.support_test(x):
            return []
        rows = LocalTable(cfg.divisor, x).all_places(parts=True)[1]
        return [w for w, _ in rows if w is not None and _place_kind(w) == kind]

    # the audit lists a finite place only where its prime divides N(s_D(x)):
    # the first row that lists one of this kind is the first to fail
    first, places = next((x, ws) for x in points if (ws := listed(x)))
    s = cfg.divisor.sd.evaluate(first.coords)
    norm = s if d is None else s.norm()
    assert all(norm % w.p == 0 for w in places if w.p)
    closed_form = weil._closed_form
    off = LogMag.exact(Fraction(2**200 + 1, 2**200))

    def faulty(sd, w, top):
        lam = closed_form(sd, w, top)
        return lam + off if _place_kind(w) == kind else lam

    monkeypatch.setattr(weil, "_closed_form", faulty)
    with pytest.raises(AuditFailure, match=rf"violated at \({first.coords[0]}:{first.coords[1]}\):"):
        run(cfg)


def test_ratio_audit_fails_on_a_base_term_off_by_one_exponent(monkeypatch):
    from orbitweil import weil

    cfg = squaring_cfg(depth=9)
    last = iterate(cfg.map, cfg.seed, 9).steps[-1].point
    # s_D = 2^512 - 3 is left whole past trial division: a base row of b = s_D
    b = 2**512 - 3
    assert weil.LocalTable(cfg.divisor, last).all_places(parts=True)[1][-1] == (None, LogMag.exact(b))
    # the base row's exponent is multiplicity(s_D(x), b); no place row reads b
    multiplicity = weil.multiplicity
    monkeypatch.setattr(weil, "multiplicity", lambda x, p: multiplicity(x, p) + (p == b))
    with pytest.raises(AuditFailure, match=rf"violated at \({last.coords[0]}:1\):"):
        run_ratio_experiment(cfg)


def test_ratio_on_the_readme_config_at_depth_20():
    t0 = time.monotonic()
    series = run_ratio_experiment(squaring_cfg(depth=20))  # audited at every row
    elapsed = time.monotonic() - t0
    assert sum(not r.skipped for r in series.rows) == 21
    assert series.verdict == "trending-to-zero"
    assert elapsed < 5, f"depth-20 ratio took {elapsed:.2f} s"


def _record(monkeypatch, name):
    """Record the arguments and result of each call of exactnum.<name>."""
    calls = []
    f = getattr(orbitweil.exactnum, name)

    def recorded(*args):
        calls.append((args, out := f(*args)))
        return out

    monkeypatch.setattr(orbitweil.exactnum, name, recorded)
    return calls


def test_a_ratio_far_below_one_encloses_each_log_once(monkeypatch):
    # row 9 of the README orbit: lambda_S is about 3 2^-512 and h = log 2^512,
    # so a loop from 64 bits after the point would double five times
    row = run_ratio_experiment(squaring_cfg(depth=9)).rows[-1]
    calls = _record(monkeypatch, "_log_magnitude")
    row.lambda_S.ratio_interval(row.h)
    assert len(calls) <= 2


def test_ratio_exact_refutes_dense_orbit_candidates_without_a_root(monkeypatch):
    # from (3:2) each ratio lies near 2^-n, and its candidate p/q has q > 1:
    # the congruence mod one prime refutes it before any q-th root
    rows = [r for r in run_ratio_experiment(squaring_cfg(seed=["3", "2"], depth=18)).rows
            if r.n >= 14]
    roots = _record(monkeypatch, "_perfect_power")
    witnessed = _record(monkeypatch, "_witness")
    assert [r.lambda_S.ratio_exact(r.h) for r in rows] == [None] * 5
    assert roots == [] and [out for _, out in witnessed] == [False] * 5


def test_runners_reject_duplicate_places_in_hand_built_config():
    inf = Place.archimedean()
    cfg = dataclasses.replace(squaring_cfg(depth=3, params={"eps_prime": "1"}),
                              places=(inf, Place.finite(3), inf))
    with pytest.raises(ValueError, match="duplicate places"):
        run_ratio_experiment(cfg)
    with pytest.raises(ValueError, match="duplicate places"):
        run_gap_experiment(cfg)


def test_cli_weil_prints_terms_and_sum_of_one_table_over_quadratic_places(tmp_path, capsys):
    path = tmp_path / "weil.json"
    path.write_text(json.dumps({
        "seed": ["3", "1"],
        "divisor": {"field": {"d": 2}, "form": {"1,0": "1", "0,1": {"a": 0, "b": -1}}},
        "places": ["inf", 7, 2],
    }))
    assert main(["weil", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    cfg = load_config(str(path))
    terms = [weil_local(cfg.divisor, cfg.seed, v) for v in cfg.places]
    # 3 - sqrt 2 has norm 7: an exact real term log(3/(3 - sqrt 2)) = log((9 + 3 sqrt 2)/7)
    # and a nonzero split term
    real = LogMag.exact(QuadField(2).element(Fraction(9, 7), Fraction(3, 7)))
    assert terms[0].is_exact and terms[0] == real
    assert terms[1] == LogMag.exact(7)
    assert lines[:-1] == [f"lambda[{v}] = {fmt12(t)}" for v, t in zip(cfg.places, terms)]
    assert lines[-1] == f"sum over S     = {fmt12(weil_sum(cfg.divisor, cfg.seed, cfg.places))}"


def test_fmt12_renders_fractions_in_fixed_point_half_even():
    assert fmt12(Fraction(5, 10**13)) == "0.000000000000"
    assert fmt12(Fraction(15, 10**13)) == "0.000000000002"
    assert fmt12(Fraction(25, 10**13)) == "0.000000000002"
    assert fmt12(Fraction(-15, 10**13)) == "-0.000000000002"
    assert fmt12(Fraction(-5, 10**13)) == "0.000000000000"
    assert fmt12(Fraction(0)) == "0.000000000000"
    assert fmt12(Fraction(1, 10**7)) == "0.000000100000"
    assert fmt12(Fraction(-2, 3)) == "-0.666666666667"
    assert fmt12(Fraction(10**50 + 1, 2)) == "5" + "0" * 49 + ".500000000000"


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt12_renders_floats_like_fixed_point_format_but_for_negative_zero(x):
    fixed = f"{x:.12f}"
    assert fmt12(x) == ("0.000000000000" if fixed == "-0.000000000000" else fixed)


def test_tiny_negative_float_ratios_print_without_a_sign(tmp_path, capsys):
    cfg = tmp_path / "near.json"
    cfg.write_text(json.dumps(_NEAR_AXIS))
    out_csv = tmp_path / "near.csv"
    assert main(["ratio", str(cfg), "--out", str(out_csv)]) == 0
    printed = capsys.readouterr().out
    assert "ratio=0.000000000000" in printed
    for text in (printed, out_csv.read_text()):
        assert "-0.000000000000" not in text
    assert out_csv.read_text().splitlines()[1] == "0,34.538776394911,0.000000000000,0.000000000000,0"


def test_ratio_quadratic_divisor_runs():
    cfg = parse_config({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["3", "1"],
        "divisor": {
            "field": {"d": 2},
            "form": {"1,0": {"a": "1", "b": "0"}, "0,1": {"a": "0", "b": "-1"}},
        },
        "places": ["inf"],
        "depth": 4,
    })
    series = run_ratio_experiment(cfg)
    usable = [r for r in series.rows if not r.skipped]
    assert len(usable) == 5
    for r in usable:
        lo, hi = r.ratio_bounds
        assert lo <= hi


def test_quadratic_audit_is_an_equality_check(monkeypatch):
    from orbitweil import weil

    cfg = parse_config({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["3", "1"],
        "divisor": {
            "field": {"d": 2},
            "form": {"1,0": {"a": "1", "b": "0"}, "0,1": {"a": "0", "b": "-1"}},
        },
        "places": ["inf"],
        "depth": 2,
    })
    run_ratio_experiment(cfg)
    # the second real place off by log(1 + 2^-200), far below any float tolerance
    local = weil.weil_local
    off = LogMag.exact(Fraction(2**200 + 1, 2**200))

    def shifted(d, x, w, **kw):
        lam = local(d, x, w, **kw)
        return lam + off if w.is_archimedean and w.index == 1 else lam

    monkeypatch.setattr(weil, "weil_local", shifted)
    with pytest.raises(AuditFailure):
        run_ratio_experiment(cfg)


def test_gap_orbit_mode_exact_rows():
    cfg = axis_cfg(params={"eps_prime": "1/2"})
    series = run_gap_experiment(cfg)
    assert series.mode == "orbit"
    assert all(r.sign == 1 for r in series.rows)
    assert series.negatives == ()
    assert series.closure == "empty set"
    # lambda_inf = h exactly here, so gap = (1/2 + 2 - 1) h = (3/2) h
    orbit = iterate(cfg.map, cfg.seed, cfg.depth)
    for r, step in zip(series.rows, orbit.steps):
        assert r.gap == step.h * Fraction(3, 2)


def test_gap_eps_prime_zero_allowed_negative_rejected():
    series = run_gap_experiment(axis_cfg(params={"eps_prime": "0"}))
    assert all(r.sign == 1 for r in series.rows)  # gap = 2h - lambda = h > 0
    with pytest.raises(ConfigError):
        run_gap_experiment(axis_cfg(params={"eps_prime": "-1"}))
    with pytest.raises(ConfigError):
        run_gap_experiment(axis_cfg())  # no eps_prime anywhere


def test_gap_sample_mode_matches_brute_force():
    cfg = parse_config({
        "divisor": {"form": {"2,1": "1", "1,2": "-1"}},  # x*y*(x-y)
        "places": ["inf", 2, 3],
        "sample": {"height_bound": 8},
        "params": {"eps_prime": "1"},
    })
    series = run_gap_experiment(cfg)
    assert series.mode == "sample"
    # the three support points are skipped, everything else is a data row
    assert series.skips == 3
    # independent brute force over the same sample
    d = cfg.divisor
    brute_negative = 0
    pts = _sample_points(2, 8, "all", 0)
    for p in pts:
        if d.support_test(p):
            continue
        lam = weil_sum(d, p, list(cfg.places))
        gap = height(p) * Fraction(3) - lam
        if gap.sign() < 0:
            brute_negative += 1
    assert len(pts) == len(series.rows)
    assert series.negative_count() == brute_negative
    # with S containing all ramified primes the finite terms are >= 0,
    # so every gap is a sum of nonnegative outside-S terms
    assert series.negative_count() == 0


def test_sample_points_enumeration():
    pts = _sample_points(2, 3, "all", 0)
    assert len(pts) == 16
    assert len({p.coords for p in pts}) == 16
    for p in pts:
        assert max(abs(c) for c in p.coords) <= 3
    rand1 = _sample_points(3, 5, 20, 1)
    rand2 = _sample_points(3, 5, 20, 1)
    assert [p.coords for p in rand1] == [p.coords for p in rand2]
    assert len({p.coords for p in rand1}) == 20
    with pytest.raises(ConfigError):
        _sample_points(3, 5, "all", 0)
    # the gap CSVs list rows in the order of normalizing every pair, first seen first
    for bound in (1, 2, 8, 50):
        ref = {}
        for b in range(bound + 1):
            for a in range(-bound, bound + 1):
                if (a, b) != (0, 0):
                    ref.setdefault(ProjPoint.normalize((a, b)).coords, None)
        assert [p.coords for p in _sample_points(2, bound, "all", 0)] == list(ref)


def test_oversized_sample_count_is_refused_before_drawing():
    # 10,000 exceeds the 4 points of height <= 1 on P^1; the refusal draws nothing
    cfg = parse_config({
        "divisor": {"field": "Q", "form": {"1,0": "1", "0,1": "-3"}},
        "places": ["inf", 3],
        "params": {"eps_prime": "1"},
        "sample": {"height_bound": 1, "count": 10000},
    })
    with pytest.raises(ConfigError, match="^sample/count: "):
        run_gap_experiment(cfg)


def test_sample_count_past_the_points_of_height_30_is_refused_before_drawing(monkeypatch):
    # P^1 has 1,112 points of height <= 30, below the 1,860 that halving the box counts
    def no_draws(seed):
        raise AssertionError("drew points for a count that cannot be met")

    monkeypatch.setattr(experiments.random, "Random", no_draws)
    with pytest.raises(ConfigError, match="^sample/count: 1113 exceeds 1112,"):
        _sample_points(2, 30, 1113, 0)


def test_point_count_matches_the_enumeration():
    for bound in (1, 2, 3, 7, 10, 30, 50):
        assert experiments._points_below(2, bound) == len(_sample_points(2, bound, "all", 0))
    # P^2 by brute force over the primitive vectors of the box, up to sign
    for bound, want in ((1, 13), (2, 49), (5, 577), (7, 1441)):
        assert experiments._points_below(3, bound) == want
        box = itertools.product(range(-bound, bound + 1), repeat=3)
        assert sum(1 for v in box if math.gcd(*v) == 1) // 2 == want
    # drawing every point of P^1 of height <= 30 still succeeds
    assert len(_sample_points(2, 30, 1112, 0)) == 1112


def test_small_count_at_a_huge_bound_skips_the_exact_count(monkeypatch):
    # the exact count at 10^12 takes ~10^9 steps; the lower bound already admits 3 points
    def no_count(nvars, bound):
        raise AssertionError("counted the points exactly")

    monkeypatch.setattr(experiments, "_points_below", no_count)
    assert len(_sample_points(2, 10**12, 3, 0)) == 3


def test_closure_proxy_reports():
    assert _closure_proxy([]) == "empty set"
    a, b = ProjPoint.normalize((1, 2)), ProjPoint.normalize((1, 3))
    assert _closure_proxy([a, b]) == "finite set (2 points)"
    line = [ProjPoint.normalize((k, k, 1)) for k in range(1, 21)]
    assert _closure_proxy(line) == "contained in the hyperplane {x0 - x1 = 0}"
    conic = [ProjPoint.normalize((t * t, t, 1)) for t in range(1, 21)]
    assert _closure_proxy(conic) == "contained in the conic {x0*x2 - x1^2 = 0}"
    rng = random.Random(3)
    scattered = []
    seen = set()
    while len(scattered) < 20:
        tup = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
        if all(c == 0 for c in tup):
            continue
        p = ProjPoint.normalize(tup)
        if p.coords in seen:
            continue
        seen.add(p.coords)
        scattered.append(p)
    assert _closure_proxy(scattered).startswith("no low-degree containment")


def test_kernel_vector_exact():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    vec = _kernel_vector(rows)
    assert vec is not None
    assert sum(v * c for v, c in zip(vec, rows[0])) == 0
    full = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert _kernel_vector(full) is None
    assert _kernel_vector([]) is None


def test_kernel_vector_stays_integral_with_a_pivot_in_the_last_column():
    for rows, want in (
        ([[1, 2, 0], [0, 0, 1]], (2, -1, 0)),
        ([[0, 0, 3]], (1, 0, 0)),
        ([[2, 4, 6], [1, 3, 5], [1, 1, 1]], (1, -2, 1)),
        ([[3, 0, 0, 1], [0, 0, 5, 2]], (0, 1, 0, 0)),
    ):
        vec = _kernel_vector(rows)
        assert vec == want
        assert all(type(v) is int for v in vec)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.integers(1, 6))
def test_kernel_vector_annihilates_rank_deficient_rows(data, width):
    rank = data.draw(st.integers(0, width - 1))
    vectors = st.lists(st.integers(-9, 9), min_size=width, max_size=width)
    basis = data.draw(st.lists(vectors, min_size=rank, max_size=rank))
    mixes = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    rows = [
        [sum(c * b[j] for c, b in zip(mix, basis)) for j in range(width)]
        for mix in data.draw(st.lists(mixes, min_size=1, max_size=7))
    ]
    vec = _kernel_vector(rows)
    assert all(type(v) is int for v in vec)
    assert math.gcd(*vec) == 1 and next(v for v in vec if v) > 0
    assert all(sum(v * x for v, x in zip(vec, row)) == 0 for row in rows)


def test_thm14_report_squaring():
    cfg = squaring_cfg(params={"e": "1", "eps": "1/2", "eps0": "1"})
    rep = thm14_hypothesis_report(cfg)
    assert rep.alpha_value == Fraction(2)
    assert rep.e_family == Fraction(1)
    assert rep.m0 == 1
    assert rep.cond_growth is True
    assert rep.cond_margin is True
    assert rep.hypothesis_ok
    assert rep.closed_sets == ()


def p2_quadric_cfg(**overrides):
    # the quadric map of P^2 of tier1.yml's console step
    data = {
        "map": {"forms": [{"2,0,0": "1", "0,1,1": "1"}, {"0,2,0": "1", "1,0,1": "-1"},
                          {"0,0,2": "1"}]},
        "seed": ["2", "3", "1"],
        "divisor": {"field": "Q", "form": {"1,0,0": "1", "0,1,0": "-3", "0,0,1": "1"}},
        "places": ["inf", 3],
        "depth": 12,
        "params": {"e": "1", "eps": "1/4", "eps0": "1"},
    }
    data.update(overrides)
    return parse_config(data)


def test_thm14_composes_each_pullback_once(monkeypatch):
    # a quadric of P^2 whose alpha is reached as a float: both conditions
    # are compared in floating point, and the m0 search reads the family
    # estimate's s_1..s_6 instead of composing the pullbacks again
    cfg = p2_quadric_cfg()
    calls = []
    compose = HomogPoly.compose

    def counted(g, forms):
        calls.append(g)
        return compose(g, forms)

    monkeypatch.setattr(HomogPoly, "compose", counted)
    rep = thm14_hypothesis_report(cfg)
    assert len(calls) == 6
    assert rep.efd.s_seq == (1,) * 6
    assert rep.m0 == 1
    assert rep.cond_growth is True and rep.cond_margin is True
    assert "condition (i) compared in floating point" in rep.labels
    assert "condition (ii) compared in floating point" in rep.labels


def test_thm14_skips_both_conditions_when_alpha_is_inconclusive():
    rep = thm14_hypothesis_report(p2_quadric_cfg(depth=5))
    assert rep.alpha_value is None
    assert rep.m0 is None and rep.cond_growth is None and rep.cond_margin is None
    assert rep.hypothesis_ok is False
    assert rep.labels == ("alpha estimate inconclusive; hypothesis checks skipped",)


def test_thm14_flags_ramified_axis():
    cfg = axis_cfg(params={"e": "2", "eps": "1/2", "eps0": "1"})
    rep = thm14_hypothesis_report(cfg)
    assert rep.alpha_value == Fraction(2)
    assert rep.e_family == Fraction(2)
    assert rep.cond_growth is False
    assert not rep.hypothesis_ok
    assert any("cannot hold" in lab for lab in rep.labels)


def test_thm14_identity_alpha_violated():
    cfg = parse_config({
        "map": {"forms": [{"1,0": "1"}, {"0,1": "1"}]},
        "seed": ["2", "1"],
        "divisor": {"form": {"1,0": "1", "0,1": "-3"}},
        "places": ["inf"],
        "depth": 6,
        "params": {"e": "1", "eps": "1/2", "eps0": "1"},
    })
    rep = thm14_hypothesis_report(cfg)
    assert rep.alpha_value == Fraction(1)
    assert not rep.hypothesis_ok
    assert any("alpha_f(x) > 1 violated" in lab for lab in rep.labels)


def test_thm14_requires_params():
    with pytest.raises(ConfigError):
        thm14_hypothesis_report(squaring_cfg())
    with pytest.raises(ConfigError):
        thm14_hypothesis_report(squaring_cfg(params={"e": "1", "eps": "0", "eps0": "1"}))


def test_thm14_support_hits_tracked():
    cfg = squaring_cfg(seed=["3", "1"], depth=6,
                       params={"e": "1", "eps": "1/2", "eps0": "1"})
    rep = thm14_hypothesis_report(cfg)
    assert any("n=0" in cs for cs in rep.closed_sets)


def test_thm17_flags_initial_proximity():
    rep = thm17_set_membership(squaring_cfg(params={"eps": "1/10"}))
    assert rep.liminf == Fraction(1)
    # |2 - 3| = |4 - 3| = 1: the first two points carry the full height at
    # the archimedean place, so their outside-S ratio is 0, not near 1
    assert rep.flagged == (0, 1)
    assert rep.closure == "finite set (2 points)"
    for n, all_r, out_r in rep.rows[2:]:
        assert float(out_r) > 0.9


def test_thm17_axis_divisor_thresholds():
    rep = thm17_set_membership(axis_cfg(params={"eps": "1/2"}))
    # lambda_all = lambda_S exactly, so the outside-S ratio is 0 everywhere
    assert rep.liminf == Fraction(1)
    assert rep.flagged == tuple(range(9))
    rep2 = thm17_set_membership(axis_cfg(params={"eps": "3/2"}))
    assert rep2.flagged == ()
    assert rep2.closure == "empty set"


def test_thm17_liminf_is_exact_under_a_weight_and_a_twist():
    # the audit identity makes lambda_all / h = weight * deg / twist = 1/6
    cfg = parse_config({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
        "divisor": {
            "field": {"d": 2},
            "form": {"1,0": {"a": "1", "b": "0"}, "0,1": {"a": "0", "b": "-1"}},
            "weight": "1/2",
        },
        "places": ["inf", 7],
        "twist": 3,
        "depth": 6,
        "params": {"eps": "1/10"},
    })
    rep = thm17_set_membership(cfg)
    assert type(rep.liminf) is Fraction and rep.liminf == Fraction(1, 6)
    assert all(all_r == Fraction(1, 6) for _, all_r, _ in rep.rows)


_THM17_DIVISORS = {
    "x - 3y": ("Q", {"1,0": "1", "0,1": "-3"}, ["inf", 3]),
    "x - sqrt2 y": (
        {"d": 2}, {"1,0": {"a": "1", "b": "0"}, "0,1": {"a": "0", "b": "-1"}}, ["inf", 7],
    ),
}


@settings(max_examples=25, deadline=None)
@given(
    divisor=st.sampled_from(sorted(_THM17_DIVISORS)),
    seed=st.sampled_from([["2", "1"], ["3", "2"], ["6", "1"]]),
    depth=st.integers(4, 8),
    weight=st.sampled_from(["1", "3/2", "1/2", "-1"]),
    twist=st.integers(1, 3),
    eps=st.sampled_from(["1/10", "1/4", "1", "5/2"]),
)
def test_thm17_flags_lambda_S_at_eps_h_as_the_liminf_test(divisor, seed, depth, weight, twist, eps):
    field, form, places = _THM17_DIVISORS[divisor]
    if field != "Q":
        seed, depth = ["2", "1"], 6  # the config of the liminf test above
    cfg = squaring_cfg(
        seed=seed, depth=depth, places=places, twist=twist, params={"eps": eps},
        divisor={"field": field, "form": form, "weight": weight},
    )
    rep = thm17_set_membership(cfg)
    usable = [r for r in run_ratio_experiment(cfg).rows if not r.skipped]
    liminf = Fraction(weight) * cfg.divisor.degree / twist
    k = math.ceil(len(usable) / 3)
    assert rep.liminf == liminf
    assert rep.window == (usable[-k].n, usable[-1].n)
    assert rep.rows == tuple(
        (r.n, liminf, ratio_entry(r.lambda_all - r.lambda_S, r.h)) for r in usable
    )
    # the definition: (lambda_all - lambda_S) / h <= liminf - eps
    old = [r for r in usable
           if (r.lambda_all - r.lambda_S).compare(r.h * (liminf - Fraction(eps))) <= 0]
    assert rep.flagged == tuple(r.n for r in old)
    assert rep.flagged_points == tuple(r.point for r in old)


def test_all_skipped_runs_name_height_zero_not_the_support():
    # (1 : 1) is fixed by squaring and has height zero; it is off x - 3y
    cfg = squaring_cfg(seed=["1", "1"], depth=6, params={"eps": "1/10"})
    assert not cfg.divisor.support_test(cfg.seed)
    for run in (run_ratio_experiment, thm17_set_membership):
        with pytest.raises(ValueError) as exc:
            run(cfg)
        assert str(exc.value) == "every orbit step has height zero"


def test_gap_names_orbit_steps_when_every_one_lies_on_the_support():
    cfg = axis_cfg(seed=["0", "1"], divisor={"form": {"1,0": "1"}},
                   params={"eps_prime": "1"})
    with pytest.raises(ValueError) as exc:
        run_gap_experiment(cfg)
    assert str(exc.value) == "every orbit step lies on the divisor support"
    # the four points of height <= 1 all lie on xy(x - y)(x + y)
    sample = parse_config({
        "divisor": {"form": {"3,1": "1", "1,3": "-1"}},
        "places": ["inf"],
        "sample": {"height_bound": 1},
        "params": {"eps_prime": "1"},
    })
    with pytest.raises(ValueError) as exc:
        run_gap_experiment(sample)
    assert str(exc.value) == "every sampled point lies on the divisor support"


def test_thm17_needs_enough_rows():
    with pytest.raises(ValueError):
        thm17_set_membership(squaring_cfg(depth=3, params={"eps": "1/10"}))
    with pytest.raises(ConfigError):
        thm17_set_membership(squaring_cfg())  # no eps anywhere


GOLDEN_AXIS_CSV = (
    "n,h,lambda_S,ratio,skipped\n"
    "0,0.693147180560,0.693147180560,1.000000000000,0\n"
    "1,1.386294361120,1.386294361120,1.000000000000,0\n"
    "2,2.772588722240,2.772588722240,1.000000000000,0\n"
)


def test_csv_golden_bytes(tmp_path):
    series = run_ratio_experiment(axis_cfg(depth=2))
    path = tmp_path / "axis.csv"
    write_ratio_csv(series, str(path))
    assert path.read_bytes() == GOLDEN_AXIS_CSV.encode()


def test_csv_skipped_rows_and_refusal(tmp_path):
    series = run_ratio_experiment(squaring_cfg(seed=["3", "1"], depth=4))
    path = tmp_path / "skip.csv"
    write_ratio_csv(series, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "n,h,lambda_S,ratio,skipped"
    assert lines[1] == "0,,,,1"
    assert lines[2].endswith(",0")
    empty = dataclasses.replace(series, rows=())
    with pytest.raises(ValueError):
        write_ratio_csv(empty, str(tmp_path / "empty.csv"))


def test_gap_csv_format(tmp_path):
    series = run_gap_experiment(axis_cfg(depth=3, params={"eps_prime": "1/2"}))
    path = tmp_path / "gap.csv"
    write_gap_csv(series, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "n,point,h,lambda_S,gap,sign,skipped"
    assert lines[1] == "0,(2:1),0.693147180560,0.693147180560,1.039720770840,1,0"


def test_gap_csv_reads_out_each_distinct_pair_once(tmp_path, monkeypatch):
    from orbitweil.labcli import io

    cfg = parse_config({
        "divisor": {"form": {"2,1": "1", "1,2": "-1"}},  # x*y*(x-y)
        "places": ["inf", 2, 3],
        "sample": {"height_bound": 12},
        "params": {"eps_prime": "1"},
    })
    series = run_gap_experiment(cfg)
    assert series.slope == 3  # (eps' * twist + nvars)/twist
    lines = ["n,point,h,lambda_S,gap,sign,skipped"] + [
        f"{r.n},({':'.join(map(str, r.point.coords))}),{fmt12(r.h)},{fmt12(r.lambda_S)},"
        f"{fmt12(r.gap)},{'' if r.sign is None else r.sign},{int(r.skipped)}"
        for r in series.rows
    ]
    usable = [r for r in series.rows if not r.skipped]
    heights = {r.h.form for r in usable}
    pairs = {(r.lambda_S.form, r.h.form) for r in usable}
    rendered, read_out = [], []
    real_str, real_pair = LogMag.decimal_str, io._decimal_pair

    def counting_str(self, places=12):
        rendered.append(self.form)
        return real_str(self, places)

    def counting_pair(lam, slope, h, enclosures):
        read_out.append((lam.form, h.form))
        return real_pair(lam, slope, h, enclosures)

    monkeypatch.setattr(LogMag, "decimal_str", counting_str)
    monkeypatch.setattr(io, "_decimal_pair", counting_pair)
    path = tmp_path / "gap.csv"
    write_gap_csv(series, str(path))
    # each h rendered once, each (lambda_S, h) read out once, and no gap rendered alone
    assert sorted(rendered) == sorted(heights)
    assert sorted(read_out) == sorted(pairs) and len(pairs) < len(usable)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


# D = xy(x - y) over all 3,096 points of height <= 50, the gap-sample workload's
# config: coef = eps' * twist + nvars = 3 equals weight * deg
_GAP_SAMPLE = {
    "divisor": {"field": "Q", "form": {"2,1": "1", "1,2": "-1"}, "weight": 1},
    "places": ["inf", 2, 3],
    "twist": 1,
    "params": {"eps_prime": "1"},
    "sample": {"height_bound": 50, "count": "all"},
}

# D = x - sqrt(2) y over all 1,960 points of height <= 40, the gap-quadratic
# workload's config
_GAP_QUADRATIC = {
    "divisor": {
        "field": {"d": 2},
        "form": {"1,0": {"a": "1", "b": "0"}, "0,1": {"a": "0", "b": "-1"}},
        "weight": 1,
    },
    "places": ["inf", 7],
    "twist": 1,
    "params": {"eps_prime": "1"},
    "sample": {"height_bound": 40, "count": "all"},
}


def _sample_data(cfg):
    """The distinct (|s_D(x)|, max_i |x_i|) over the sample's points off Supp(D)."""
    pts = _sample_points(2, cfg.sample["height_bound"], "all", 0)
    return {
        (abs(v), max(map(abs, x.coords)))
        for x in pts
        if (v := cfg.divisor.sd.evaluate(x.coords))
    }


def test_gap_rows_build_each_multiple_of_h_once(monkeypatch):
    # the gap is read off the audited total, not h_raw * 3 again, and the
    # audit's h_raw * 3 is built once per distinct local datum
    cfg = parse_config(_GAP_SAMPLE)
    calls = []
    real = LogMag.__mul__

    def counting(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(LogMag, "__mul__", counting)
    series = run_gap_experiment(cfg)
    usable = [r for r in series.rows if not r.skipped]
    # h_raw * weight * deg per datum in the audit, h_raw * twist per row for the h column
    data = len(_sample_data(cfg))
    assert len(usable) == 3093 and data == 1154
    assert calls.count(3) == data and calls.count(1) == len(usable)
    assert len(calls) == 4247
    monkeypatch.undo()
    assert all(r.gap == r.h * 3 - r.lambda_S for r in usable)


@pytest.mark.parametrize("config, rows, data", [(_GAP_SAMPLE, 3093, 1154), (_GAP_QUADRATIC, 1960, 1960)])
def test_gap_rows_sum_all_places_once_per_datum(monkeypatch, config, rows, data):
    # 1,939 of xy(x - y)'s 3,093 rows repeat an earlier row's datum (x <-> y
    # keeps it, for one); x - sqrt(2) y repeats none
    cfg = parse_config(config)
    calls = []
    real = LocalTable.all_places

    def counting(self, parts=False):
        calls.append(self.datum)
        return real(self, parts)

    monkeypatch.setattr(LocalTable, "all_places", counting)
    series = run_gap_experiment(cfg)
    assert len(series.rows) - series.skips == rows
    assert len(calls) == len(set(calls)) == data


_MEMO_DIVISORS = {
    "xy(x - y)": ("Q", {"2,1": "1", "1,2": "-1"}),
    "x^2 - 2y^2": ("Q", {"2,0": "1", "0,2": "-2"}),
    "x - sqrt(2) y": ({"d": 2}, {"1,0": {"a": "1", "b": "0"}, "0,1": {"a": "0", "b": "-1"}}),
    "x - i y": ({"d": -1}, {"1,0": {"a": "1", "b": "0"}, "0,1": {"a": "0", "b": "-1"}}),
}


@settings(max_examples=40, deadline=None)
@given(
    divisor=st.sampled_from(sorted(_MEMO_DIVISORS)),
    weight=st.sampled_from(["1", "3/2"]),
    twist=st.sampled_from([1, 2]),
    eps_prime=st.sampled_from(["1", "1/3"]),
    primes=st.lists(st.sampled_from([2, 3, 5, 7]), unique=True, max_size=3),
    bound=st.integers(2, 6),
)
def test_gap_rows_match_a_fresh_table_per_point(divisor, weight, twist, eps_prime, primes, bound):
    field, form = _MEMO_DIVISORS[divisor]
    cfg = parse_config({
        "divisor": {"field": field, "form": form, "weight": weight},
        "places": ["inf", *primes],
        "twist": twist,
        "params": {"eps_prime": eps_prime},
        "sample": {"height_bound": bound},
    })
    d = cfg.divisor
    series = run_gap_experiment(cfg)
    points = [(r.n, r.point, height(r.point)) for r in series.rows]
    for r, (n, x, h_raw, lam, lam_all) in zip(series.rows, experiments._audited(cfg, points)):
        assert (r.n, r.point) == (n, x)
        table = LocalTable(d, x)
        if table.on_support:
            assert r.skipped and lam is None and lam_all is None
            continue
        fresh = table.lambda_S(cfg.places)
        assert lam == r.lambda_S == fresh
        assert lam_all == table.all_places() == h_raw * (d.weight * d.degree)
        gap = h_raw * (series.slope * twist) - fresh
        assert r.gap == gap and r.sign == gap.sign()
        assert r.h == h_raw * twist


# tier1.yml's q2slope.json: x - sqrt(2) y at height <= 15, S = {inf, 2, 3, 7}
# (ramified, inert and split), eps' = 1/3 and twist 2, so gap = (4/3) h - lambda_S
_Q2_SLOPE = {
    "divisor": {
        "field": {"d": 2},
        "form": {"1,0": {"a": "1", "b": "0"}, "0,1": {"a": "0", "b": "-1"}},
        "weight": 1,
    },
    "places": ["inf", 2, 3, 7],
    "twist": 2,
    "params": {"eps_prime": "1/3"},
    "sample": {"height_bound": 15},
}

# Python-level calls into orbitweil per row of that run and its CSV, measured
# on CPython 3.11 in a fresh process (223 before the local terms and the gap
# difference were built in one step)
_Q2_SLOPE_CALLS_PER_ROW = 123


def test_quadratic_gap_rows_stay_within_their_call_budget(tmp_path):
    # a cost guard that reads no clock: 'call' events whose code lives in the
    # orbitweil package, so the count does not move with the stdlib
    cfg = parse_config(_Q2_SLOPE)
    package = os.path.dirname(orbitweil.__file__) + os.sep
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(count)
    try:
        series = run_gap_experiment(cfg)
        write_gap_csv(series, str(tmp_path / "q2slope.csv"))
    finally:
        sys.setprofile(None)
    assert len(series.rows) == 288
    assert calls <= 1.1 * _Q2_SLOPE_CALLS_PER_ROW * len(series.rows), calls / len(series.rows)


def test_gap_sample_audit_fails_on_a_place_outside_S(monkeypatch):
    from orbitweil import weil

    cfg = parse_config(_GAP_SAMPLE)
    # lambda_D(x, 5) off by log(1 + 2^-200): lambda_S at inf, 2, 3 is untouched,
    # so only the sum over all places sees it, at the first row with 5 | s_D(x)
    local = weil.weil_local
    off = LogMag.exact(Fraction(2**200 + 1, 2**200))

    def shifted(d, x, w, **kw):
        lam = local(d, x, w, **kw)
        return lam + off if w.p == 5 else lam

    first = next(
        x for x in _sample_points(2, 50, "all", 0)
        if (v := cfg.divisor.sd.evaluate(x.coords)) and v % 5 == 0
    )
    monkeypatch.setattr(weil, "weil_local", shifted)
    with pytest.raises(AuditFailure, match=rf"violated at \({first.coords[0]}:{first.coords[1]}\):"):
        run_gap_experiment(cfg)


def test_runners_evaluate_s_D_once_per_point(monkeypatch):
    # the support test reads the table's s_D(x): one evaluation per row,
    # on the divisor's support as well as off it
    calls = []
    real = HomogPoly.evaluate

    def counting(self, coords):
        calls.append(self)
        return real(self, coords)

    gap_cfg = parse_config({
        "divisor": {"form": {"2,1": "1", "1,2": "-1"}},  # x*y*(x-y)
        "places": ["inf", 2, 3],
        "sample": {"height_bound": 12},
        "params": {"eps_prime": "1"},
    })
    ratio_cfg = squaring_cfg(seed=["3", "1"])  # on x - 3y at n = 0
    monkeypatch.setattr(HomogPoly, "evaluate", counting)
    series = run_gap_experiment(gap_cfg)
    assert series.skips == 3
    assert sum(g is gap_cfg.divisor.sd for g in calls) == len(series.rows)
    calls.clear()
    series = run_ratio_experiment(ratio_cfg)
    assert series.rows[0].skipped
    assert sum(g is ratio_cfg.divisor.sd for g in calls) == len(series.rows)


def test_csv_determinism_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_ratio_csv(run_ratio_experiment(squaring_cfg()), str(p1))
    write_ratio_csv(run_ratio_experiment(squaring_cfg()), str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_ratio_svg(run_ratio_experiment(squaring_cfg()), str(s1))
    write_ratio_svg(run_ratio_experiment(squaring_cfg()), str(s2))
    assert s1.read_bytes() == s2.read_bytes()


def test_svg_is_wellformed_and_self_contained(tmp_path):
    series = run_ratio_experiment(squaring_cfg())
    path = tmp_path / "plot.svg"
    write_ratio_svg(series, str(path))
    tree = ET.parse(str(path))
    root = tree.getroot()
    assert root.tag.endswith("svg")
    assert root.get("width") == "800"
    assert root.get("height") == "500"
    text = path.read_text()
    assert "polyline" in text
    assert "href" not in text
    labels = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "n" in labels
    assert "ratio" in labels
    with pytest.raises(ValueError):
        write_ratio_svg(dataclasses.replace(series, rows=()), str(tmp_path / "e.svg"))


def test_cli_ratio_and_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
        "divisor": {"form": {"1,0": "1", "0,1": "-3"}},
        "places": ["inf", 3],
        "depth": 6,
    }))
    out_csv = tmp_path / "r.csv"
    out_svg = tmp_path / "r.svg"
    code = main(["ratio", str(cfg_path), "--out", str(out_csv), "--svg", str(out_svg)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "verdict: trending-to-zero" in captured
    assert out_csv.read_text().startswith("n,h,lambda_S,ratio,skipped\n")
    assert out_svg.exists()


def test_cli_depth_override_and_errors(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
    }))
    assert main(["orbit", str(cfg_path), "--depth", "2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("n=")]
    assert len(lines) == 3
    # ratio on a config without divisor: config error, exit code 2
    assert main(["ratio", str(cfg_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["ratio", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_cli_cn_prints_exact_constants_past_the_float_range(tmp_path, capsys):
    path = tmp_path / "cn.json"
    path.write_text(json.dumps({"cn": {"m_list": [5], "dim": 1, "delta": "1/1000", "m": 1, "n": 120}}))
    assert main(["cn", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # c_k = (5 - 10) * 1000^k: c_102 = -5e306 is the last one a float holds
    assert lines[101] == f"c_102 = {-5 * 10**306} (-5e+306)"
    assert lines[102] == f"c_103 = {-5 * 10**309} (out of float range)"
    assert lines[119] == f"c_120 = {-5 * 10**360} (out of float range)"
    assert lines[120] == "gamma = 10"


def test_cli_misc_subcommands(tmp_path, capsys):
    misc = tmp_path / "misc.json"
    misc.write_text(json.dumps({
        "lct": {"nvars": 2, "generators": [[2, 0], [0, 3]], "bound": 3},
        "efd": {"matrix": [[2, 1], [0, 2]], "target": 0},
        "cn": {"m_list": [2, 3, 2], "dim": 2, "delta": "2", "m": 2, "n": 2},
    }))
    assert main(["lct", str(misc)]) == 0
    out = capsys.readouterr().out
    assert "5/6" in out
    assert main(["efd", str(misc)]) == 0
    out = capsys.readouterr().out
    assert "[2, 2]" in out and "exact" in out
    assert main(["cn", str(misc)]) == 0
    out = capsys.readouterr().out
    assert "c_2 = -1/4" in out
    full = tmp_path / "full.json"
    full.write_text(json.dumps({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
        "divisor": {"form": {"1,0": "1", "0,1": "-3"}},
        "places": ["inf", 3],
        "depth": 6,
        "params": {"e": "1", "eps": "1/2", "eps0": "1", "eps_prime": "1"},
    }))
    assert main(["weil", str(full)]) == 0
    capsys.readouterr()
    assert main(["alpha", str(full)]) == 0
    capsys.readouterr()
    assert main(["gap", str(full), "--out", str(tmp_path / "g.csv")]) == 0
    capsys.readouterr()
    assert main(["thm14", str(full)]) == 0
    assert "hypotheses hold: True" in capsys.readouterr().out
    assert main(["thm17", str(full), "--eps", "1/10"]) == 0
    assert "flagged: [0, 1]" in capsys.readouterr().out


README_CFG = {
    "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
    "seed": ["2", "1"],
    "divisor": {"field": "Q", "form": {"1,0": "1", "0,1": "-3"}, "weight": 1},
    "places": ["inf", 3],
    "twist": 1,
    "depth": 8,
    "params": {"e": "1", "eps": "1/4", "eps0": "1"},
}


def _readme_cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(README_CFG))
    return str(path)


@pytest.mark.parametrize("argv, depth13_sha256", [
    (["orbit"], "b59e5c007fc234a960a11594ae0bedc45b3b8c87ee5e864307cbb3804afc8b17"),
    (["gap", "--eps-prime", "1"],
     "02cbc23930c1d1c5bced990e3dee711d485b61b26dbc7d378c5c25d5cbb780eb"),
], ids=["orbit", "gap"])
def test_cli_renders_coordinates_past_decimal_digit_limit(tmp_path, capsys, argv, depth13_sha256):
    # 2**(2**14) has 4,933 decimal digits, past the int -> str limit of 4,300
    out = tmp_path / "o.csv"
    assert main([argv[0], _readme_cfg_file(tmp_path), *argv[1:], "--depth", "14",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_bytes().split(b"\n")
    point = lines[15].split(b",")[1].decode()
    assert tuple(int(tok, 0) for tok in point.strip("()").split(":")) == (2 ** 2**14, 1)
    # rows 0-13 keep the bytes of the --depth 13 CSV written before hex rendering
    head = b"\n".join(lines[:15]) + b"\n"
    assert hashlib.sha256(head).hexdigest() == depth13_sha256


def test_messages_naming_a_point_render_coordinates_past_decimal_digit_limit(monkeypatch):
    from orbitweil.labcli import experiments
    from orbitweil.polydyn import FAILED, IndeterminatePoint, Morphism, WellformedReport, evaluate
    from orbitweil.weil import DivisorPresentation, LocalTable, SupportHit

    big = 2 ** 2**14
    x = ProjPoint((big, 1))
    line = HomogPoly.from_terms(2, {(1, 0): Fraction(1), (0, 1): Fraction(-big)})
    messages = [str(x)]
    # s_D(x) = 0: the point lies in the support of D = {x - big*y = 0}
    with pytest.raises(SupportHit) as hit:
        weil_local(DivisorPresentation.hypersurface(line), x, Place.finite(3))
    messages.append(str(hit.value))
    # ((x - big*y)x : (x - big*y)y) vanishes at x
    f = Morphism((
        HomogPoly.from_terms(2, {(2, 0): Fraction(1), (1, 1): Fraction(-big)}),
        HomogPoly.from_terms(2, {(1, 1): Fraction(1), (0, 2): Fraction(-big)}),
    ))
    with pytest.raises(IndeterminatePoint) as indet:
        evaluate(f, x)
    messages.append(str(indet.value))
    axis = DivisorPresentation.hypersurface(HomogPoly.from_terms(2, {(0, 1): Fraction(1)}))
    with pytest.raises(AuditFailure) as audit:
        experiments._audit_row(LocalTable(axis, x), LogMag.zero(), axis.weight * axis.degree)
    messages.append(str(audit.value))
    monkeypatch.setattr(experiments, "wellformed_check", lambda g: WellformedReport(FAILED, x))
    with pytest.raises(ConfigError) as gate:
        experiments._gate(f)
    messages.append(str(gate.value))
    for message in messages:
        point = message[message.index("(0x"):message.index(")") + 1]
        assert tuple(int(tok, 0) for tok in point.strip("()").split(":")) == (big, 1), message


def test_cli_reports_an_exact_arithmetic_limit_as_an_error(tmp_path, capsys):
    # weight 1/(1000003 * 1000033) needs that root of h: past the bit budget of _power
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(README_CFG, divisor=dict(
        README_CFG["divisor"], weight="1/1000036000099"))))
    for argv in (["ratio"], ["gap", "--eps-prime", "1"]):
        assert main([argv[0], str(path), *argv[1:], "--depth", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: exact exponentiation would need"), err
        assert "Traceback" not in err


@pytest.mark.parametrize("command, flag, key", [
    ("gap", "--eps-prime", "eps_prime"), ("thm17", "--eps", "eps")])
def test_cli_rational_flags_override_the_params_they_name(tmp_path, capsys, command, flag, key):
    cfg = _readme_cfg_file(tmp_path)
    assert main([command, cfg, flag, "1/10"]) == 0
    by_flag = capsys.readouterr().out
    path = tmp_path / "set.json"
    path.write_text(json.dumps(dict(README_CFG, params={**README_CFG["params"], key: "1/10"})))
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().out == by_flag


@pytest.mark.parametrize("command, flag", [("gap", "--eps-prime"), ("thm17", "--eps")])
@pytest.mark.parametrize("value", ["abc", "1/0"])
def test_cli_rational_flags_reject_bad_values_naming_the_flag(
    tmp_path, capsys, command, flag, value
):
    with pytest.raises(SystemExit) as exc:
        main([command, _readme_cfg_file(tmp_path), flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_reports_an_unwritable_output_path(tmp_path, capsys):
    cfg = _readme_cfg_file(tmp_path)
    assert main(["ratio", cfg, "--out", str(tmp_path / "no" / "r.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["ratio", cfg, "--svg", str(tmp_path / "no" / "r.svg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_orbits_are_recomputed_without_an_on_disk_cache(tmp_path, capsys, monkeypatch):
    cfg = _readme_cfg_file(tmp_path)
    cache_dir = tmp_path / "envcache"
    monkeypatch.setenv("ORBITWEIL_CACHE", str(cache_dir))
    assert main(["orbit", cfg]) == 0
    assert main(["ratio", cfg]) == 0
    capsys.readouterr()
    assert not cache_dir.exists()
    with pytest.raises(SystemExit) as exc:
        main(["ratio", cfg, "--cache-dir", str(cache_dir)])
    assert exc.value.code == 2
    parsed = load_config(cfg)
    for runner in (run_ratio_experiment, run_gap_experiment, thm14_hypothesis_report):
        with pytest.raises(TypeError, match="orbit cache removed"):
            runner(parsed, cache=str(cache_dir))


def test_efd_on_the_readme_config_clamps_depth_to_the_composition_cap(tmp_path, capsys):
    cfg = _readme_cfg_file(tmp_path)
    for argv, terms in (([], 6), (["--depth", "3"], 3)):
        assert main(["efd", cfg, *argv]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line == f"s sequence = ({', '.join(['1'] * terms)})"


def test_efd_map_branch_prints_its_terms_as_numbers(tmp_path, capsys):
    path = tmp_path / "efd.json"
    path.write_text(json.dumps({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "divisor": {"form": {"0,1": "1"}, "weight": "3/4"},
        "depth": 4,
    }))
    assert main(["efd", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Fraction(" not in out
    assert out.splitlines()[0] == "s sequence = (3/2, 3, 6, 12)"


def test_efd_matrix_branch_runs_past_the_float_range(tmp_path, capsys):
    # s_1100 = 2^1100 is past the largest float: nothing may convert it
    path = tmp_path / "efd.json"
    path.write_text(json.dumps({"efd": {"matrix": [[2]], "target": 0}, "depth": 1100}))
    assert main(["efd", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "e rate     = [2, 2] (exact)"


_DROPPED_FLAGS = [
    *((cmd, "--out") for cmd in ("weil", "alpha", "lct", "efd", "cn", "thm14", "thm17")),
    *((cmd, "--depth") for cmd in ("weil", "lct", "cn")),
]


@pytest.mark.parametrize("command, flag", _DROPPED_FLAGS)
def test_cli_refuses_a_flag_its_subcommand_does_not_read(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, _readme_cfg_file(tmp_path), flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_config_accepts_only_the_params_a_runner_reads():
    with pytest.raises(ConfigError, match="^params: unknown key 'epsilon_typo'$"):
        parse_config({**_GOOD, "params": {"eps": "1", "epsilon_typo": "1"}})
    params = {k: "1" for k in ("e", "eps", "eps0", "eps_prime", "bound")}
    assert parse_config({**_GOOD, "params": params}).param("bound") == 1
