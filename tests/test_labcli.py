import dataclasses
import json
import os
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from orbitweil.exactnum import LogMag, Place
from orbitweil.labcli import (
    AuditFailure,
    CacheInvalid,
    ConfigError,
    OrbitCache,
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
from orbitweil.polydyn import HomogPoly, OrbitRecord, OrbitStep, ProjPoint, height, iterate
from orbitweil.weil import weil_sum


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


def test_runners_reject_duplicate_places_in_hand_built_config():
    inf = Place.archimedean()
    cfg = dataclasses.replace(squaring_cfg(depth=3), places=(inf, Place.finite(3), inf))
    with pytest.raises(ValueError, match="duplicate places"):
        run_ratio_experiment(cfg)
    with pytest.raises(ValueError, match="duplicate places"):
        run_gap_experiment(cfg, eps_prime=Fraction(1))


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


def test_cache_round_trip(tmp_path):
    cfg = squaring_cfg(depth=5)
    cache = OrbitCache(str(tmp_path))
    orbit = cache.fetch(cfg.map, cfg.seed, 5)
    again = cache.load(cfg.map, cfg.seed)
    assert again is not None
    assert again.depth == 5
    assert [s.point.coords for s in again.steps] == [s.point.coords for s in orbit.steps]
    assert [s.h for s in again.steps] == [s.h for s in orbit.steps]
    # miss for a different seed
    other = ProjPoint.normalize((5, 1))
    assert cache.load(cfg.map, other) is None


def test_cache_round_trip_past_decimal_digit_limit(tmp_path):
    # 2**(2**14) has 4,933 decimal digits, past the int <-> str limit of 4,300
    cfg = squaring_cfg()
    cache = OrbitCache(str(tmp_path))
    orbit = cache.fetch(cfg.map, cfg.seed, 14)
    assert orbit.steps[14].point.coords == (2 ** 2**14, 1)
    again = cache.load(cfg.map, cfg.seed)
    assert [s.point.coords for s in again.steps] == [s.point.coords for s in orbit.steps]
    assert cache.fetch(cfg.map, cfg.seed, 14).steps[14].h == orbit.steps[14].h


def test_cache_rejects_corruption(tmp_path):
    cfg = squaring_cfg(depth=4)
    cache = OrbitCache(str(tmp_path))
    cache.fetch(cfg.map, cfg.seed, 4)
    files = [f for f in os.listdir(tmp_path) if f.endswith(".orbit")]
    assert len(files) == 1
    path = tmp_path / files[0]
    body = path.read_text()
    path.write_text(body.replace("step 2 10", "step 2 11"))  # hex 16 -> 17
    with pytest.raises(CacheInvalid):
        cache.load(cfg.map, cfg.seed)
    # fetch falls back to recomputation and heals the file
    orbit = cache.fetch(cfg.map, cfg.seed, 4)
    assert orbit.steps[2].point.coords == (Fraction(16), Fraction(1))
    assert cache.load(cfg.map, cfg.seed).depth == 4


def test_cache_detects_wrong_dynamics(tmp_path):
    # a well-formed file whose points are not an orbit of this map
    cfg = squaring_cfg(depth=3)
    cache = OrbitCache(str(tmp_path))
    pts = [ProjPoint.normalize((2, 1)), ProjPoint.normalize((4, 1)),
           ProjPoint.normalize((17, 1)), ProjPoint.normalize((289, 1))]
    fake = OrbitRecord(cfg.map.map_id, pts[0],
                       tuple(OrbitStep(n, p, height(p)) for n, p in enumerate(pts)))
    cache.store(fake)
    with pytest.raises(CacheInvalid):
        cache.load(cfg.map, cfg.seed)


def test_cache_extension_and_truncation(tmp_path):
    cfg = squaring_cfg()
    cache = OrbitCache(str(tmp_path))
    o3 = cache.fetch(cfg.map, cfg.seed, 3)
    assert o3.depth == 3
    o6 = cache.fetch(cfg.map, cfg.seed, 6)
    assert o6.depth == 6
    assert [s.point.coords for s in o6.steps[:4]] == [s.point.coords for s in o3.steps]
    o4 = cache.fetch(cfg.map, cfg.seed, 4)
    assert o4.depth == 4
    direct = iterate(cfg.map, cfg.seed, 6)
    assert [s.h for s in cache.fetch(cfg.map, cfg.seed, 6).steps] == \
        [s.h for s in direct.steps]


def test_ratio_resumable_from_cache(tmp_path):
    cache = OrbitCache(str(tmp_path))
    first = run_ratio_experiment(squaring_cfg(depth=5), cache=cache)
    second = run_ratio_experiment(squaring_cfg(depth=8), cache=cache)
    for a, b in zip(first.rows, second.rows[:6]):
        assert a.ratio == b.ratio
        assert a.ratio_bounds == b.ratio_bounds
        assert a.h == b.h
    # cached and uncached runs agree byte for byte
    p1, p2 = tmp_path / "c.csv", tmp_path / "n.csv"
    write_ratio_csv(second, str(p1))
    write_ratio_csv(run_ratio_experiment(squaring_cfg(depth=8)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


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
    code = main(["ratio", str(cfg_path), "--out", str(out_csv), "--svg", str(out_svg),
                 "--cache-dir", str(tmp_path / "cache")])
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


def test_cli_env_cache(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
        "depth": 4,
    }))
    cache_dir = tmp_path / "envcache"
    monkeypatch.setenv("ORBITWEIL_CACHE", str(cache_dir))
    assert main(["orbit", str(cfg_path)]) == 0
    capsys.readouterr()
    assert any(f.endswith(".orbit") for f in os.listdir(cache_dir))
