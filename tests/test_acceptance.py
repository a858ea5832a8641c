"""Acceptance gate: one test per shipped guarantee.

Each test prints one line "ACCEPT NN <name>: PASS/FAIL (...)" and enforces
its runtime budget.  All twelve gates are expected to pass.

Test 09 checks the proximity ratio of f(x:y) = (x^2:y^2) from (2:1)
against D = x - 3y with S = {inf, 3} row by row against its closed form.
With X = 2^(2^n), X - 3 is prime to 3, so lambda_3 = 0 and

    lambda_S / h = log(X / |X - 3|) / (2^n log 2),

which is exactly 1 at n = 0, 1, is log(16/13)/log(16) = 0.0749 at n = 2,
and is below 1e-2 from n = 3 on.
"""

import math
import random
import time
from fractions import Fraction

import mpmath

from orbitweil.degree import alpha_estimate, growth_fit, ratio_bound_check
from orbitweil.exactnum import (
    LogMag,
    Place,
    QuadField,
    abs_value,
    factorize,
    padic_valuation,
)
from orbitweil.labcli import (
    parse_config,
    run_gap_experiment,
    run_ratio_experiment,
    thm14_hypothesis_report,
    write_ratio_csv,
)
from orbitweil.polydyn import (
    HomogPoly,
    Morphism,
    OrbitRecord,
    OrbitStep,
    ProjPoint,
    height,
    iterate,
)
from orbitweil.singular import (
    ExponentMatrix,
    MonomialIdeal,
    cn_calculator,
    efd_estimate,
    efd_monomial_exact,
    lct_lower_bound_canonical,
    lct_monomial,
    lct_valuation_search,
    max_ord_over_family,
    remark44_m0,
)
from orbitweil.weil import (
    DivisorPresentation,
    galois_symmetrized,
    monomials_of_degree,
    weil_global,
)

SQUARING = Morphism((
    HomogPoly.from_terms(2, {(2, 0): Fraction(1)}),
    HomogPoly.from_terms(2, {(0, 2): Fraction(1)}),
))
D_X3Y = DivisorPresentation.hypersurface(
    HomogPoly.from_terms(2, {(1, 0): Fraction(1), (0, 1): Fraction(-3)})
)
D_AXIS = DivisorPresentation.hypersurface(
    HomogPoly.from_terms(2, {(0, 1): Fraction(1)})
)


def _report(num, name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPT {num:02d} {name}: {status} [{elapsed:.2f}s < {limit}s]{extra}")


def test_01_product_formula():
    t0 = time.monotonic()
    rng = random.Random(1)
    ok = True
    for _ in range(1000):
        num = 0
        while num == 0:
            num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**6)
        q = Fraction(num, den)
        fn, cn = factorize(abs(q.numerator))
        fd, cd = factorize(q.denominator)
        assert cn == 1 and cd == 1
        total = abs_value(q, Place.archimedean())
        for p in sorted(set(fn) | set(fd)):
            total = total + abs_value(q, Place.finite(p))
        if not total == LogMag.zero():
            ok = False
            break
    elapsed = time.monotonic() - t0
    _report(1, "product-formula", ok and elapsed < 5, elapsed, 5)
    assert ok
    assert elapsed < 5


def test_02_height_identity():
    t0 = time.monotonic()
    rng = random.Random(2)
    checked = 0
    while checked < 200:
        nvars = rng.choice([2, 3])
        deg = rng.randint(1, 4)
        monos = monomials_of_degree(nvars, deg)
        terms = {}
        for m in monos:
            c = rng.randint(-9, 9)
            if c:
                terms[m] = Fraction(c)
        if not terms:
            continue
        g = HomogPoly.from_terms(nvars, terms)
        d = DivisorPresentation.hypersurface(g)
        coords = tuple(Fraction(rng.randint(-20, 20)) for _ in range(nvars))
        if all(c == 0 for c in coords):
            continue
        x = ProjPoint.normalize(coords)
        if d.support_test(x):
            continue
        assert weil_global(d, x) == height(x) * deg
        checked += 1
    elapsed = time.monotonic() - t0
    _report(2, "height-identity", elapsed < 30, elapsed, 30)
    assert elapsed < 30


def test_03_quadratic_consistency():
    t0 = time.monotonic()
    F = QuadField(2)
    g = HomogPoly.from_terms(2, {(1, 0): F.element(1), (0, 1): -F.sqrt_gen()})
    d = DivisorPresentation.hypersurface(g)
    rng = random.Random(3)
    checked = 0
    while checked < 50:
        a, b = rng.randint(-40, 40), rng.randint(1, 40)
        if a == 0 and b == 0:
            continue
        x = ProjPoint.normalize((Fraction(a), Fraction(b)))
        total, parts = galois_symmetrized(d, x, parts=True)
        finite = [lm for w, lm in parts if w is not None and not w.is_archimedean]
        fin_total = LogMag.zero()
        for lm in finite:
            fin_total = fin_total + lm
        c0, c1 = x.coords
        norm = abs(c0 * c0 - 2 * c1 * c1)
        # the nonarchimedean subtotal is exactly (1/2) log |N(c0 - sqrt(2) c1)|
        assert fin_total.is_exact
        assert fin_total == LogMag.exact(norm, 2)
        assert total == height(x)
        checked += 1
    elapsed = time.monotonic() - t0
    _report(3, "quadratic-lambda", elapsed < 30, elapsed, 30)
    assert elapsed < 30


def test_04_arithmetic_degree():
    t0 = time.monotonic()
    orbit = iterate(SQUARING, ProjPoint.normalize((2, 1)), 20)
    est = alpha_estimate(orbit)
    ratios_exact = all(r == Fraction(2) for r in est.ratio_seq)
    root_close = abs(est.root_seq[-1] - 2.0) <= 0.05 * 2.0
    elapsed = time.monotonic() - t0
    ok = ratios_exact and root_close and elapsed < 5
    _report(4, "arithmetic-degree", ok, elapsed, 5)
    assert ratios_exact
    assert root_close
    assert elapsed < 5


def _synthetic_orbit(heights):
    pt = ProjPoint.normalize((1, 1))
    steps = tuple(OrbitStep(n, pt, h) for n, h in enumerate(heights))
    return OrbitRecord(pt, steps)


def test_05_growth_fit():
    t0 = time.monotonic()
    orbit = iterate(SQUARING, ProjPoint.normalize((2, 1)), 20)
    est = alpha_estimate(orbit)
    alpha_ok = abs(float(est.value) - 2.0) <= 1e-6
    fit = growth_fit(orbit, est.value)
    ell_zero = fit.ell == 0
    # polynomial factor n * 2^n must be detected as ell = 1
    poly = _synthetic_orbit([LogMag.exact(2) * (n * 2**n) for n in range(21)])
    fit_poly = growth_fit(poly, Fraction(2))
    ell_one = fit_poly.ell == 1
    viol = []
    for m in (1, 2):
        viol.extend(ratio_bound_check(orbit, fit, m).violations)
    elapsed = time.monotonic() - t0
    ok = alpha_ok and ell_zero and ell_one and not viol and elapsed < 5
    _report(5, "growth-fit", ok, elapsed, 5)
    assert alpha_ok
    assert ell_zero
    assert ell_one
    assert viol == []
    assert elapsed < 5


def _random_ideal(rng):
    nvars = rng.randint(1, 3)
    gens = []
    for _ in range(rng.randint(1, 4)):
        vec = [rng.randint(0, 6) for _ in range(nvars)]
        if not any(vec):
            vec = [min(c + 1, 6) for c in vec]
        gens.append(tuple(vec))
    return MonomialIdeal(nvars, gens)


def test_06_lct():
    t0 = time.monotonic()
    cusp = lct_monomial(MonomialIdeal(2, [(2, 0), (0, 3)]))
    assert cusp.value == Fraction(5, 6)
    principal = lct_monomial(MonomialIdeal(2, [(3, 2)]))
    assert principal.value == Fraction(1, 3)
    rng = random.Random(0)
    for _ in range(50):
        ideal = _random_ideal(rng)
        exact = lct_monomial(ideal)
        search = lct_valuation_search(ideal, 6)
        assert search.upper == exact.value, ideal
        fam = lct_lower_bound_canonical(max_ord_over_family(ideal, 6))
        assert fam.lower <= exact.value, ideal
    elapsed = time.monotonic() - t0
    _report(6, "lct", elapsed < 60, elapsed, 60)
    assert elapsed < 60


def test_07_pullback_growth():
    t0 = time.monotonic()
    jordan = efd_monomial_exact(ExponentMatrix(((2, 1), (0, 2))), 1, depth=30)
    column_ok = all(
        jordan.column_seq[n - 1][0] == n * 2 ** (n - 1) for n in range(1, 31)
    )
    ratio_ok = abs(float(jordan.ratios[-1]) - 2.0) <= 0.07 * 2.0
    spectral_ok = jordan.exact and jordan.value == Fraction(2)
    diag = efd_monomial_exact(ExponentMatrix(((3, 0), (0, 2))), 0, depth=5)
    diag_ok = diag.exact and diag.value == Fraction(3)
    elapsed = time.monotonic() - t0
    ok = column_ok and ratio_ok and spectral_ok and diag_ok and elapsed < 5
    _report(7, "pullback-growth", ok, elapsed, 5)
    assert column_ok
    assert ratio_ok
    assert spectral_ok
    assert diag_ok
    assert elapsed < 5


def test_08_m0_search():
    t0 = time.monotonic()
    found = remark44_m0(Fraction(1), Fraction(1, 2), efd_estimate(SQUARING, D_X3Y, 6).s_seq)
    assert found.found and found.m0 == 1
    missing = remark44_m0(Fraction(1), Fraction(1, 2), efd_estimate(SQUARING, D_AXIS, 6).s_seq)
    assert not missing.found
    assert missing.m0 is None
    elapsed = time.monotonic() - t0
    _report(8, "m0-search", elapsed < 10, elapsed, 10)
    assert elapsed < 10


def _ratio_cfg():
    return parse_config({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
        "divisor": {"form": {"1,0": "1", "0,1": "-3"}},
        "places": ["inf", 3],
        "depth": 8,
    })


def _squaring_ratio(a, n):
    """Closed form of lambda_S / h at f^n(a:1), from integers alone.

    f = (x^2:y^2), D = x - 3y, S = {inf, 3}.  With X = a^(2^n) and
    G = X - 3 != 0, lambda_inf = log(X / |G|), lambda_3 = v_3(G) log 3 and
    h = log X, so lambda_S = log X - log(|G| / 3^v_3(G)).  Logs at 400 bits.
    """
    x = a ** (2 ** n)
    rest = abs(x - 3)
    while rest % 3 == 0:
        rest //= 3
    with mpmath.workprec(400):
        h = mpmath.log(x)
        return (h - mpmath.log(rest)) / h


def _closed_form_miss(series, a):
    """First row whose certified bounds miss the closed form, or None."""
    for r in series.rows:
        value = _squaring_ratio(a, r.n)
        if r.ratio_bounds is None or not r.ratio_bounds[0] <= value <= r.ratio_bounds[1]:
            return (
                f"seed ({a}:1) n={r.n}: bounds {r.ratio_bounds} miss closed form "
                f"{mpmath.nstr(value, 17)}"
            )
    return None


def test_09_ratio_experiment():
    t0 = time.monotonic()
    series = run_ratio_experiment(_ratio_cfg())
    # lambda_3 = 0 on the whole orbit of (2:1); on the orbit of (6:1)
    # v_3(6^(2^n) - 3) = 1, so the place 3 carries log 3 at every row.
    six = run_ratio_experiment(parse_config({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["6", "1"],
        "divisor": {"form": {"1,0": "1", "0,1": "-3"}},
        "places": ["inf", 3],
        "depth": 8,
    }))
    miss = _closed_form_miss(series, 2) or _closed_form_miss(six, 6)
    rows = {r.n: r for r in series.rows}
    exact_ones = [rows[n].ratio for n in (0, 1)] == [Fraction(1), Fraction(1)]
    over = next(
        (r for r in series.rows if 3 <= r.n <= 8 and not r.ratio_bounds[1] < 1e-2), None
    )
    threshold_miss = None
    if not rows[2].ratio_bounds[0] > 1e-2:
        threshold_miss = f"n=2: lower bound {rows[2].ratio_bounds[0]!r} is not > 1e-2"
    elif over is not None:
        threshold_miss = f"n={over.n}: upper bound {over.ratio_bounds[1]!r} is not < 1e-2"
    trending = series.verdict == "trending-to-zero"
    window = [r for r in series.rows if 2 <= r.n <= 8]
    decreasing = all(
        b.ratio_bounds[1] < a.ratio_bounds[0] for a, b in zip(window, window[1:])
    )
    control = run_ratio_experiment(parse_config({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
        "divisor": {"form": {"0,1": "1"}},
        "places": ["inf"],
        "depth": 8,
    }))
    control_exact = all(r.ratio == Fraction(1) for r in control.rows)
    rep = thm14_hypothesis_report(parse_config({
        "map": {"forms": [{"2,0": "1"}, {"0,2": "1"}]},
        "seed": ["2", "1"],
        "divisor": {"form": {"0,1": "1"}},
        "places": ["inf"],
        "depth": 8,
        "params": {"e": "2", "eps": "1/2", "eps0": "1"},
    }))
    flagged = any("cannot hold" in lab for lab in rep.labels)
    elapsed = time.monotonic() - t0
    ok = (miss is None and exact_ones and threshold_miss is None and trending
          and decreasing and control_exact and flagged and elapsed < 30)
    detail = miss or threshold_miss or (
        f"n=2 ratio {rows[2].ratio_mid:.4f} = log(16/13)/log(16) > 1e-2, "
        f"< 1e-2 from n=3 on; verdict {series.verdict}"
    )
    _report(9, "ratio-experiment", ok, elapsed, 30, detail)
    assert miss is None, miss
    assert exact_ones, f"n=0, 1 ratios are {rows[0].ratio}, {rows[1].ratio}, not exactly 1"
    assert threshold_miss is None, threshold_miss
    assert trending, f"verdict is {series.verdict}, not trending-to-zero"
    assert decreasing
    assert control_exact
    assert flagged
    assert elapsed < 30


def test_10_gap_schmidt():
    t0 = time.monotonic()
    cfg = parse_config({
        "divisor": {"form": {"2,1": "1", "1,2": "-1"}},  # x*y*(x-y)
        "places": ["inf", 2, 3],
        "sample": {"height_bound": 50},
        "params": {"eps_prime": "1"},
    })
    series = run_gap_experiment(cfg)
    # independent evaluation: exp(gap) is the {2,3}-free part of |G(x)|,
    # decided in pure integer arithmetic on the same sample
    brute_negative = 0
    processed = 0
    g = cfg.divisor.sd
    for row in series.rows:
        val = g.evaluate(row.point.coords)
        if val == 0:
            assert row.skipped
            continue
        processed += 1
        n = abs(int(val))
        n //= 2 ** padic_valuation(n, 2)
        n //= 3 ** padic_valuation(n, 3)
        if Fraction(n) < 1:
            brute_negative += 1
    match = series.negative_count() == brute_negative
    counts = processed == len(series.rows) - series.skips
    elapsed = time.monotonic() - t0
    ok = match and counts and elapsed < 60
    _report(10, "gap-schmidt", ok, elapsed, 60,
            f"{len(series.rows)} points, {series.negative_count()} negative")
    assert match
    assert counts
    assert elapsed < 60


def test_11_constant_calculator():
    t0 = time.monotonic()
    rng = random.Random(11)
    for _ in range(20):
        m_list = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        dim = rng.randint(1, 3)
        delta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        gamma, c_n = cn_calculator(m_list, dim, delta, m, n)
        assert gamma == max(m_list) * (dim + 1)
        assert c_n == Fraction(sum(m_list) - max(m_list) * (dim + 1)) / (delta**n * m)
    elapsed = time.monotonic() - t0
    _report(11, "constant-calculator", elapsed < 1, elapsed, 1)
    assert elapsed < 1


def test_12_determinism(tmp_path):
    t0 = time.monotonic()
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    write_ratio_csv(run_ratio_experiment(_ratio_cfg()), str(p1))
    write_ratio_csv(run_ratio_experiment(_ratio_cfg()), str(p2))
    same = p1.read_bytes() == p2.read_bytes()
    elapsed = time.monotonic() - t0
    _report(12, "determinism", same, elapsed, 60)
    assert same
