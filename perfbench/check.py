"""Independent checks of the benchmark's outputs; orbitweil is not imported.

Every CSV cell is recomputed from the workload config with plain integers
and mpmath at 400 bits:

    h           = twist * log max|x_i|            (primitive integer x)
    lambda_inf  = deg * log max|x_i| - log|s_D(x)|
    lambda_p    = ord_p(s_D(x)) * log p
    gap         = (eps' * twist + nvars) * log max|x_i| - lambda_S

Over Q(sqrt d) the value s_D(x) = A + B sqrt(d) is taken at the real
embedding sqrt(d) -> +sqrt(d), and at a split prime p at the root of
d mod p that is the smallest nonnegative one mod p, lifted by Newton's
method.  Each check returns a list of problems; an empty list means the
output is right.  Orbit coordinates are never converted to decimal
strings, because they can exceed Python's int-to-str digit limit.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import mpmath
from mpmath import mp

PREC = 400
GOLDEN = (1 + 5**0.5) / 2


# -- rendering, as the CSV writers do it ---------------------------------------


def fmt_log(value) -> str:
    """Twelve fractional digits of an mpf, rounded half-even via 40 digits."""
    s = mpmath.nstr(value, 40, strip_zeros=False)
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(s).quantize(Decimal(1).scaleb(-12), rounding=ROUND_HALF_EVEN)
    out = format(d, "f")
    if out.startswith("-") and Decimal(out) == 0:
        out = out[1:]
    return out


def ratio_cells(value) -> set:
    """Both correct renderings of a ratio: exact decimal, or float midpoint."""
    with localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(mpmath.nstr(value, 60, strip_zeros=False)).quantize(
            Decimal(1).scaleb(-12), rounding=ROUND_HALF_EVEN
        )
    f = float(value)
    mid = 0.5 * (math.nextafter(f, -math.inf) + math.nextafter(f, math.inf))
    return {format(exact, "f"), f"{mid:.12f}"}


# -- arithmetic ------------------------------------------------------------------


def _exps(key):
    return tuple(int(e) for e in key.split(","))


def _eval_form(form, x):
    total = 0
    for key, c in form.items():
        term = int(c)
        for xi, k in zip(x, _exps(key)):
            term *= xi**k
        total += term
    return total


def _normalize(vals):
    g = math.gcd(*vals)
    vals = [v // g for v in vals]
    if next(v for v in vals if v != 0) < 0:
        vals = [-v for v in vals]
    return tuple(vals)


def _ord(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _places(cfg):
    return [p for p in cfg["places"] if p != "inf"], "inf" in cfg["places"]


def _log(q: Fraction):
    return mpmath.log(q.numerator) - mpmath.log(q.denominator)


def _degree(form):
    return sum(_exps(next(iter(form))))


def _check_primitive(form, problems):
    comps = []
    for c in form.values():
        comps.extend((int(c["a"]), int(c["b"])) if isinstance(c, dict) else (int(c),))
    if math.gcd(*comps) != 1:
        problems.append("benchmark config error: divisor form is not primitive")


def _lambda_q(cfg, x, s):
    """lambda_S as log of an exact rational, for s = s_D(x) != 0 over Q."""
    finite, has_inf = _places(cfg)
    form = cfg["divisor"]["form"]
    arg = Fraction(1)
    if has_inf:
        arg *= Fraction(max(abs(c) for c in x) ** _degree(form), abs(s))
    for p in finite:
        arg *= Fraction(p) ** _ord(s, p)
    return arg


def _compare_lines(got: str, want: list, problems, what):
    lines = got.split("\n")
    if lines[-1] != "":
        problems.append(f"{what}: missing final newline")
    lines = lines[:-1]
    if len(lines) != len(want):
        problems.append(f"{what}: {len(lines)} lines, expected {len(want)}")
    for i, (g, w) in enumerate(zip(lines, want)):
        if isinstance(w, str):
            ok = g == w
        else:  # a list of cells; a set cell accepts any of its members
            cells = g.split(",")
            ok = len(cells) == len(w) and all(
                c in e if isinstance(e, set) else c == e for c, e in zip(cells, w)
            )
        if not ok:
            problems.append(f"{what} line {i + 1}: got {g!r}, expected {w!r}")
            if len(problems) > 5:
                return


# -- per-operation checks -----------------------------------------------------------


def check_ratio(cfg, csv_text, svg_text):
    """Ratio series along an orbit of a map over Q."""
    problems = []
    form = cfg["divisor"]["form"]
    _check_primitive(form, problems)
    forms = cfg["map"]["forms"]
    twist = cfg.get("twist", 1)
    x = _normalize([int(c) for c in cfg["seed"]])
    want = ["n,h,lambda_S,ratio,skipped"]
    usable = 0
    with mp.workprec(PREC):
        for n in range(cfg["depth"] + 1):
            if n:
                x = _normalize([_eval_form(f, x) for f in forms])
            s = _eval_form(form, x)
            m = max(abs(c) for c in x)
            if s == 0:
                want.append(f"{n},,,,1")
                continue
            h = twist * mpmath.log(m)
            if m == 1:
                want.append(f"{n},{fmt_log(h)},,,1")
                continue
            lam = _log(_lambda_q(cfg, x, s))
            want.append([str(n), fmt_log(h), fmt_log(lam), ratio_cells(lam / h), "0"])
            usable += 1
    _compare_lines(csv_text, want, problems, "ratio csv")
    if not (svg_text.startswith("<svg xmlns=") and svg_text.endswith("</svg>\n")):
        problems.append("ratio svg: not a complete svg document")
    if svg_text.count("<circle") != usable:
        problems.append(f"ratio svg: {svg_text.count('<circle')} points, expected {usable}")
    return problems


def sample_points(bound):
    """All points of P^1(Q) of height <= bound, in the runner's documented order."""
    seen = {}
    for b in range(0, bound + 1):
        for a in range(-bound, bound + 1):
            if (a, b) == (0, 0) or math.gcd(abs(a), b) != 1:
                continue
            p = _normalize([a, b])
            seen.setdefault(p, p)
    return list(seen)


def _hensel_root(d, p, k):
    """Square root of d in Z/p^k lifting the smallest nonnegative root mod p."""
    s = next(r for r in range(p) if (r * r - d) % p == 0)
    mod = p
    while mod < p**k:
        mod = min(mod * mod, p**k)
        s = (s - (s * s - d) * pow(2 * s, -1, mod)) % mod
    return s


def _lambda_quadratic(cfg, x):
    """lambda_S (an mpf) over Q(sqrt d), or None on the support."""
    d = cfg["divisor"]["field"]["d"]
    form = cfg["divisor"]["form"]
    a_part = _eval_form({k: c["a"] for k, c in form.items()}, x)
    b_part = _eval_form({k: c["b"] for k, c in form.items()}, x)
    if a_part == 0 and b_part == 0:
        return None
    finite, has_inf = _places(cfg)
    m = max(abs(c) for c in x)
    lam = mpmath.mpf(0)
    if has_inf:
        real = a_part + b_part * mpmath.sqrt(d)
        lam += _degree(form) * mpmath.log(m) - mpmath.log(abs(real))
    for p in finite:
        norm = a_part * a_part - d * b_part * b_part
        k = _ord(norm, p) + 2
        t = (a_part + b_part * _hensel_root(d, p, k)) % p**k
        lam += _ord(t, p) * mpmath.log(p)
    return lam


def check_gap(cfg, csv_text):
    """Gap series over an exhaustive point sample, over Q or Q(sqrt d)."""
    problems = []
    form = cfg["divisor"]["form"]
    _check_primitive(form, problems)
    quadratic = cfg["divisor"]["field"] != "Q"
    if quadratic:
        d = cfg["divisor"]["field"]["d"]
        for p in _places(cfg)[0]:
            if p == 2 or pow(d % p, (p - 1) // 2, p) != 1:
                problems.append(f"benchmark config error: {p} does not split")
                return problems
    twist = cfg.get("twist", 1)
    coef = Fraction(cfg["params"]["eps_prime"]) * twist + 2
    want = ["n,point,h,lambda_S,gap,sign,skipped"]
    with mp.workprec(PREC):
        for n, x in enumerate(sample_points(cfg["sample"]["height_bound"])):
            pt = f"({x[0]}:{x[1]})"
            m = max(abs(c) for c in x)
            if quadratic:
                lam = _lambda_quadratic(cfg, x)
                if lam is None:
                    want.append(f"{n},{pt},,,,,1")
                    continue
                gap = coef.numerator * mpmath.log(m) / coef.denominator - lam
                # a zero gap here is exact (s_D(x) rational), or below any enclosure
                sign = 0 if abs(gap) < mpmath.mpf(2) ** (-PREC // 2) else (1 if gap > 0 else -1)
            else:
                s = _eval_form(form, x)
                if s == 0:
                    want.append(f"{n},{pt},,,,,1")
                    continue
                arg = _lambda_q(cfg, x, s)
                lam = _log(arg)
                gap = coef.numerator * mpmath.log(m) / coef.denominator - lam
                # sign of coef*log m - log arg, decided exactly
                lhs, rhs = Fraction(m) ** coef.numerator, arg**coef.denominator
                sign = (lhs > rhs) - (lhs < rhs)
            h = twist * mpmath.log(m)
            want.append(f"{n},{pt},{fmt_log(h)},{fmt_log(lam)},{fmt_log(gap)},{sign},0")
    _compare_lines(csv_text, want, problems, "gap csv")
    return problems


def check_alpha(facts):
    """The Fibonacci monomial orbit grows at the golden ratio."""
    value = facts.get("value")
    if facts.get("verdict") != "converged" or value is None:
        return [f"alpha did not converge: {facts}"]
    if abs(value - GOLDEN) >= 1e-6:
        return [f"alpha {value!r} is not within 1e-6 of (1+sqrt 5)/2"]
    return []


def check_thm14(facts):
    """Squaring map: h_n = 2^n log 3, so alpha = 2 exactly and the hypotheses hold."""
    problems = []
    if facts.get("alpha_exact") != "2":
        problems.append(f"thm14 alpha is {facts.get('alpha_exact')!r}, expected exactly 2")
    if facts.get("hypothesis_ok") is not True:
        problems.append("thm14 reports hypotheses hold: False")
    return problems


def check_op(op, outputs, facts):
    """Problems with one operation's outputs ({kind: text}) and facts."""
    kind, cfg = op["kind"], op["config"]
    if kind == "ratio":
        return check_ratio(cfg, outputs["csv"], outputs["svg"])
    if kind == "gap":
        return check_gap(cfg, outputs["csv"])
    if kind == "alpha":
        return check_alpha(facts)
    if kind == "thm14":
        return check_thm14(facts)
    return [f"unknown operation kind {kind!r}"]
