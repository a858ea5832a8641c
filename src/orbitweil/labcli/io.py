"""Series output: CSV and SVG.

CSV files use exactly the header `n,h,lambda_S,ratio,skipped`, twelve
fractional digits in every numeric cell, and LF line endings, so two runs
of the same experiment produce byte-identical files.  Point coordinates are
decimal below 10**4300 and `0x` hex from there on, past Python's limit on
int-to-decimal conversion; `int(token, 0)` reads both back.
"""

from __future__ import annotations

from fractions import Fraction

from ..exactnum import LogMag, decimal_fraction
from ..polydyn import OrbitRecord, ProjPoint

# str(int) refuses more than 4,300 decimal digits
_DECIMAL_LIMIT = 10**4300


def fmt12(value) -> str:
    """Render a cell: LogMag, Fraction, float, int, or None (empty)."""
    if value is None:
        return ""
    if isinstance(value, LogMag):
        return value.decimal_str(12)
    if isinstance(value, Fraction):
        return decimal_fraction(value, 12)
    if isinstance(value, int):
        return str(value)
    return f"{value:.12f}"


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_ratio_csv(series, path: str) -> None:
    """Emit a ratio series with the fixed header n,h,lambda_S,ratio,skipped."""
    if not series.rows:
        raise ValueError("refusing to write an empty series")
    lines = ["n,h,lambda_S,ratio,skipped"]
    for r in series.rows:
        ratio_cell = ""
        if not r.skipped:
            ratio_cell = fmt12(r.ratio if r.ratio is not None else r.ratio_mid)
        lines.append(
            f"{r.n},{fmt12(r.h)},{fmt12(r.lambda_S)},{ratio_cell},{int(r.skipped)}"
        )
    _write_lines(path, lines)


def _point_str(p: ProjPoint) -> str:
    """The one coordinate renderer: `(x0:x1:...)`, see the module docstring."""
    return "(" + ":".join(
        str(c) if -_DECIMAL_LIMIT < c < _DECIMAL_LIMIT else hex(c) for c in p.coords
    ) + ")"


def write_orbit_csv(orbit: OrbitRecord, path: str) -> None:
    """Emit an orbit: n,point,h."""
    if not orbit.steps:
        raise ValueError("refusing to write an empty orbit")
    lines = ["n,point,h"]
    for step in orbit.steps:
        lines.append(f"{step.n},{_point_str(step.point)},{fmt12(step.h)}")
    _write_lines(path, lines)


def write_gap_csv(series, path: str) -> None:
    """Emit a gap series: n,point,h,lambda_S,gap,sign,skipped."""
    if not series.rows:
        raise ValueError("refusing to write an empty series")
    # render each LogMag form once; a rational value has one canonical form,
    # and keying on the form spares the exact hash of a quadratic one
    rendered: dict[tuple, str] = {}

    def cell(value) -> str:
        if not isinstance(value, LogMag):
            return fmt12(value)
        key = (value.magnitude, value.root)
        text = rendered.get(key)
        if text is None:
            text = rendered[key] = fmt12(value)
        return text

    lines = ["n,point,h,lambda_S,gap,sign,skipped"]
    for r in series.rows:
        sign_cell = "" if r.sign is None else str(r.sign)
        lines.append(
            f"{r.n},{_point_str(r.point)},{cell(r.h)},{cell(r.lambda_S)},"
            f"{cell(r.gap)},{sign_cell},{int(r.skipped)}"
        )
    _write_lines(path, lines)


def write_ratio_svg(series, path: str) -> None:
    """Self-contained 800x500 plot of the ratio column against n."""
    pts = [(r.n, r.ratio_mid) for r in series.rows if not r.skipped]
    if not pts:
        raise ValueError("no plottable rows in the series")
    width, height_px = 800, 500
    left, right, top, bottom = 70.0, 780.0, 30.0, 450.0
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_lo -= 0.5
        y_hi += 0.5

    def sx(x):
        return left + (x - x_lo) * (right - left) / (x_hi - x_lo)

    def sy(y):
        return bottom - (y - y_lo) * (bottom - top) / (y_hi - y_lo)

    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    dots = "".join(
        f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#1f6f8b"/>'
        for x, y in pts
    )
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height_px}" '
        f'viewBox="0 0 {width} {height_px}">',
        f'<rect x="0" y="0" width="{width}" height="{height_px}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        'stroke="black" stroke-width="1"/>',
        f'<polyline points="{poly}" fill="none" stroke="#1f6f8b" stroke-width="1.5"/>',
        dots,
        f'<text x="{(left + right) / 2:.0f}" y="490" text-anchor="middle" '
        'font-family="monospace" font-size="16">n</text>',
        f'<text x="18" y="{(top + bottom) / 2:.0f}" text-anchor="middle" '
        f'font-family="monospace" font-size="16" '
        f'transform="rotate(-90 18 {(top + bottom) / 2:.0f})">ratio</text>',
        f'<text x="{left:.0f}" y="{bottom + 18:.0f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{x_lo:g}</text>',
        f'<text x="{right:.0f}" y="{bottom + 18:.0f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{x_hi:g}</text>',
        f'<text x="{left - 6:.0f}" y="{bottom:.0f}" text-anchor="end" '
        f'font-family="monospace" font-size="12">{y_lo:.6g}</text>',
        f'<text x="{left - 6:.0f}" y="{top + 4:.0f}" text-anchor="end" '
        f'font-family="monospace" font-size="12">{y_hi:.6g}</text>',
        "</svg>",
    ]
    _write_lines(path, svg)
