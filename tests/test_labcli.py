import dataclasses
import hashlib
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
from orbitweil.labcli.cli import main
from orbitweil.labcli.experiments import _closure_proxy, _kernel_vector, _sample_points
from orbitweil.polydyn import HomogPoly, ProjPoint, height, iterate
from orbitweil.weil import weil_local, weil_sum


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
        parse_config({**squaring_cfg().raw, "places": ["inf", big]})


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
_EFD = {"matrix": [[2, 1], [0, 2]], "target": 0, "bound": 2}
_CN = {"m_list": [2, 3, 2], "dim": 2, "delta": "2", "m": 2, "n": 2}


def _in_map_form(c):
    return {"map": {"forms": [{"2,0": c}, {"0,2": "1"}]}}


def _in_quad_form(c):
    return {"divisor": {"field": {"d": 2}, "form": {"1,0": c, "0,1": "1"}}}


# one config per rule, with the JSON path its error must name
_VIOLATIONS = [
    ({"bogus": 1}, "<root>"),
    ({"map": {"forms": _GOOD["map"]["forms"], "extra": 1}}, "map"),
    ({"map": {}}, "map"),
    ({"map": []}, "map"),
    ({"map": {"forms": [{"1": "1"}]}}, "map/forms"),
    ({"map": {"forms": [{}, {"0,2": "1"}]}}, "map/forms/0"),
    ({"map": {"forms": [{"2;0": "1"}, {"0,2": "1"}]}}, "map/forms/0"),
    ({"map": {"forms": [{",2": "1"}, {"0,2": "1"}]}}, "map/forms/0"),
    (_in_map_form("1.5"), "map/forms/0/2,0"),
    (_in_map_form("1/-2"), "map/forms/0/2,0"),
    (_in_map_form(1.5), "map/forms/0/2,0"),
    (_in_map_form(True), "map/forms/0/2,0"),
    (_in_map_form(None), "map/forms/0/2,0"),
    (_in_quad_form({"a": "1"}), "divisor/form/1,0"),
    (_in_quad_form({"a": "1", "b": "1", "c": "1"}), "divisor/form/1,0"),
    (_in_quad_form({"a": 1.5, "b": "1"}), "divisor/form/1,0/a"),
    (_in_quad_form({"a": "1", "b": [1]}), "divisor/form/1,0/b"),
    ({"seed": ["2"]}, "seed"),
    ({"seed": "2,1"}, "seed"),
    ({"seed": ["2", 1.5]}, "seed/1"),
    ({"seed": ["2", False]}, "seed/1"),
    ({"seed": ["2", None]}, "seed/1"),
    ({"divisor": {"field": "Q"}}, "divisor"),
    ({"divisor": {"form": {"1,0": "1"}, "extra": 1}}, "divisor"),
    ({"divisor": {"field": "R", "form": {"1,0": "1"}}}, "divisor/field"),
    ({"divisor": {"field": {"d": "2"}, "form": {"1,0": "1"}}}, "divisor/field/d"),
    ({"divisor": {"field": {"d": 2.5}, "form": {"1,0": "1"}}}, "divisor/field/d"),
    ({"divisor": {"field": {}, "form": {"1,0": "1"}}}, "divisor/field"),
    ({"divisor": {"field": {"d": 2, "e": 3}, "form": {"1,0": "1"}}}, "divisor/field"),
    ({"divisor": {"form": {"1,0": "1"}, "weight": 1.5}}, "divisor/weight"),
    ({"divisor": {"form": {"1,0": "1"}, "weight": [1]}}, "divisor/weight"),
    ({"places": "inf"}, "places"),
    ({"places": ["sup"]}, "places/0"),
    ({"places": ["inf", 1]}, "places/1"),
    ({"places": [2.5]}, "places/0"),
    ({"places": [True]}, "places/0"),
    ({"twist": 0}, "twist"),
    ({"twist": 1.5}, "twist"),
    ({"twist": "2"}, "twist"),
    ({"depth": -1}, "depth"),
    ({"depth": True}, "depth"),
    ({"params": []}, "params"),
    ({"params": {"eps": 0.5}}, "params/eps"),
    ({"params": {"eps": None}}, "params/eps"),
    ({"params": {"bound": "5/2"}}, "params/bound"),
    ({"params": {"bound": "0"}}, "params/bound"),
    ({"sample": {}}, "sample"),
    ({"sample": {"height_bound": 0}}, "sample/height_bound"),
    ({"sample": {"height_bound": 5.5}}, "sample/height_bound"),
    ({"sample": {"height_bound": 5, "count": 0}}, "sample/count"),
    ({"sample": {"height_bound": 5, "count": "some"}}, "sample/count"),
    ({"sample": {"height_bound": 5, "seed": "0"}}, "sample/seed"),
    ({"sample": {"height_bound": 5, "extra": 1}}, "sample"),
    ({"lct": {"nvars": 2}}, "lct"),
    ({"lct": {**_LCT, "nvars": 0}}, "lct/nvars"),
    ({"lct": {**_LCT, "generators": []}}, "lct/generators"),
    ({"lct": {**_LCT, "generators": [[]]}}, "lct/generators/0"),
    ({"lct": {**_LCT, "generators": [[2, -1]]}}, "lct/generators/0/1"),
    ({"lct": {**_LCT, "generators": [[2, 0.5]]}}, "lct/generators/0/1"),
    ({"lct": {**_LCT, "bound": 0}}, "lct/bound"),
    ({"lct": {**_LCT, "extra": 1}}, "lct"),
    ({"efd": {"matrix": [[1]]}}, "efd"),
    ({"efd": {**_EFD, "matrix": []}}, "efd/matrix"),
    ({"efd": {**_EFD, "matrix": [[]]}}, "efd/matrix/0"),
    ({"efd": {**_EFD, "matrix": [[1, -2]]}}, "efd/matrix/0/1"),
    ({"efd": {**_EFD, "target": -1}}, "efd/target"),
    ({"efd": {**_EFD, "bound": 0}}, "efd/bound"),
    ({"efd": {**_EFD, "extra": 1}}, "efd"),
    ({"cn": {k: v for k, v in _CN.items() if k != "n"}}, "cn"),
    ({"cn": {**_CN, "m_list": []}}, "cn/m_list"),
    ({"cn": {**_CN, "m_list": [2, 0]}}, "cn/m_list/1"),
    ({"cn": {**_CN, "dim": 0}}, "cn/dim"),
    ({"cn": {**_CN, "delta": 1.5}}, "cn/delta"),
    ({"cn": {**_CN, "m": 0}}, "cn/m"),
    ({"cn": {**_CN, "n": 0}}, "cn/n"),
    ({"cn": {**_CN, "extra": 1}}, "cn"),
]


@pytest.mark.parametrize(
    "override, path", _VIOLATIONS, ids=[p for _, p in _VIOLATIONS]
)
def test_config_rejects_each_rule_naming_the_path(override, path):
    with pytest.raises(ConfigError) as info:
        parse_config({**_GOOD, **override})
    assert f" {path}: " in f" {info.value}"


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
        with pytest.raises(ConfigError, match=r"not a morphism \(common zero \(0 : 1\)\)"):
            run(cfg)
    squares = parse_config({
        "map": {"forms": [{"2,0,0": "1"}, {"0,2,0": "1"}, {"0,0,2": "1"}]},
        "seed": ["2", "3", "1"],
        "divisor": {"form": {"1,0,0": "1", "0,1,0": "-1"}},
        "places": ["inf", 5],
        "depth": 4,
    })
    assert len(run_ratio_experiment(squares).rows) == 5


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


def test_ratio_audit_aborts_on_broken_identity():
    cfg = axis_cfg(depth=4)
    extra = HomogPoly.from_terms(2, {(1, 0): Fraction(2)})
    broken = dataclasses.replace(cfg, divisor=cfg.divisor.with_extra_numerator(extra))
    with pytest.raises(AuditFailure):
        run_ratio_experiment(broken)


def test_ratio_audit_fails_on_a_base_term_off_by_one_exponent(monkeypatch):
    from orbitweil import weil

    cfg = squaring_cfg(depth=9)
    last = iterate(cfg.map, cfg.seed, 9).steps[-1].point
    # s_D = 2^512 - 3 is left with a cofactor past trial division: a base row
    assert weil.LocalTable(cfg.divisor, last).all_places(parts=True)[1][-1][0] is None
    exponent = weil._base_exponent
    monkeypatch.setattr(weil, "_base_exponent", lambda d, vals, b: exponent(d, vals, b) + 1)
    with pytest.raises(AuditFailure):
        run_ratio_experiment(cfg)


def test_ratio_on_the_readme_config_at_depth_20():
    t0 = time.monotonic()
    series = run_ratio_experiment(squaring_cfg(depth=20))  # audited at every row
    elapsed = time.monotonic() - t0
    assert len(series.usable()) == 21
    assert series.verdict == "trending-to-zero"
    assert elapsed < 5, f"depth-20 ratio took {elapsed:.2f} s"


def test_runners_reject_duplicate_places_in_hand_built_config():
    inf = Place.archimedean()
    cfg = dataclasses.replace(squaring_cfg(depth=3), places=(inf, Place.finite(3), inf))
    with pytest.raises(ValueError, match="duplicate places"):
        run_ratio_experiment(cfg)
    with pytest.raises(ValueError, match="duplicate places"):
        run_gap_experiment(cfg, eps_prime=Fraction(1))


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
    assert len(series.usable()) == 5
    for r in series.usable():
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
        return lam + off if w.is_archimedean and w.ext.index == 1 else lam

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
    cfg = axis_cfg()
    series = run_gap_experiment(cfg, eps_prime=Fraction(0))
    assert all(r.sign == 1 for r in series.rows)  # gap = 2h - lambda = h > 0
    with pytest.raises(ConfigError):
        run_gap_experiment(cfg, eps_prime=Fraction(-1))
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
    rep = thm17_set_membership(squaring_cfg(), eps=Fraction(1, 10))
    assert rep.liminf == Fraction(1)
    # |2 - 3| = |4 - 3| = 1: the first two points carry the full height at
    # the archimedean place, so their outside-S ratio is 0, not near 1
    assert rep.flagged == (0, 1)
    assert rep.closure == "finite set (2 points)"
    for n, all_r, out_r in rep.rows[2:]:
        assert float(out_r) > 0.9


def test_thm17_axis_divisor_thresholds():
    cfg = axis_cfg()
    rep = thm17_set_membership(cfg, eps=Fraction(1, 2))
    # lambda_all = lambda_S exactly, so the outside-S ratio is 0 everywhere
    assert rep.liminf == Fraction(1)
    assert rep.flagged == tuple(range(9))
    rep2 = thm17_set_membership(cfg, eps=Fraction(3, 2))
    assert rep2.flagged == ()
    assert rep2.closure == "empty set"


def test_thm17_needs_enough_rows():
    with pytest.raises(ValueError):
        thm17_set_membership(squaring_cfg(depth=3), eps=Fraction(1, 10))
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
    series = run_gap_experiment(axis_cfg(depth=3), eps_prime=Fraction(1, 2))
    path = tmp_path / "gap.csv"
    write_gap_csv(series, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "n,point,h,lambda_S,gap,sign,skipped"
    assert lines[1] == "0,(2:1),0.693147180560,0.693147180560,1.039720770840,1,0"


def test_gap_csv_renders_each_distinct_value_once(tmp_path, monkeypatch):
    cfg = parse_config({
        "divisor": {"form": {"2,1": "1", "1,2": "-1"}},  # x*y*(x-y)
        "places": ["inf", 2, 3],
        "sample": {"height_bound": 12},
        "params": {"eps_prime": "1"},
    })
    series = run_gap_experiment(cfg)
    lines = ["n,point,h,lambda_S,gap,sign,skipped"] + [
        f"{r.n},({':'.join(map(str, r.point.coords))}),{fmt12(r.h)},{fmt12(r.lambda_S)},"
        f"{fmt12(r.gap)},{'' if r.sign is None else r.sign},{int(r.skipped)}"
        for r in series.rows
    ]
    values = [v for r in series.rows for v in (r.h, r.lambda_S, r.gap) if v is not None]
    calls = []
    real = LogMag.decimal_str

    def counting(self, places=12):
        calls.append(self)
        return real(self, places)

    monkeypatch.setattr(LogMag, "decimal_str", counting)
    path = tmp_path / "gap.csv"
    write_gap_csv(series, str(path))
    assert len(calls) == len(set(values)) < len(values)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


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
