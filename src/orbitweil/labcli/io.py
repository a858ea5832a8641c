"""Series output (CSV, SVG) and the on-disk orbit cache.

CSV files use exactly the header `n,h,lambda_S,ratio,skipped`, twelve
fractional digits in every numeric cell, and LF line endings, so two runs
of the same experiment produce byte-identical files.  The orbit cache is
a small versioned text format, coordinates in hex, with a sha256 trailer;
loads revalidate the checksum and recompute the first few steps before
trusting a file, and writes go through an atomic rename so concurrent
readers never see a partial file.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from fractions import Fraction

from ..exactnum import LogMag, decimal_fraction
from ..polydyn import (
    Morphism,
    OrbitRecord,
    OrbitStep,
    ProjPoint,
    evaluate,
    extend_orbit,
    height,
    iterate,
)

CACHE_ENV = "ORBITWEIL_CACHE"
_CACHE_MAGIC = "orbitcache 2"


class CacheInvalid(Exception):
    """A cache file failed checksum or consistency validation."""


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
    return "(" + ":".join(str(c) for c in p.coords) + ")"


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


def _hex_coords(p: ProjPoint) -> str:
    # hex, because int <-> decimal str conversion is capped at 4,300 digits
    return " ".join(format(c, "x") for c in p.coords)


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "orbitweil")


class OrbitCache:
    """File-backed orbit store keyed by (map_id, seed).

    Single-writer, multi-reader: writes land via os.replace so a reader
    either sees the old complete file or the new complete file.  A load
    recomputes the first three steps from the map before trusting the
    cached points; heights are always recomputed (they are cheap and keep
    the format free of value encodings).
    """

    def __init__(self, root: str | None = None):
        self.root = root or default_cache_dir()
        os.makedirs(self.root, exist_ok=True)

    def _path(self, map_id: str, seed: ProjPoint) -> str:
        key = map_id + "|" + ":".join(str(c) for c in seed.coords)
        name = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
        return os.path.join(self.root, name + ".orbit")

    def store(self, orbit: OrbitRecord) -> str:
        lines = [_CACHE_MAGIC, f"map {orbit.map_id}"]
        seed = orbit.steps[0].point
        lines.append("seed " + _hex_coords(seed))
        lines.append(f"depth {orbit.depth}")
        for step in orbit.steps:
            lines.append(
                f"step {step.n} " + _hex_coords(step.point)
            )
        payload = "\n".join(lines) + "\n"
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        path = self._path(orbit.map_id, seed)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload + f"sha256 {digest}\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path

    def load(self, f: Morphism, seed: ProjPoint) -> OrbitRecord | None:
        """Validated load; None on a miss, CacheInvalid on a bad file."""
        path = self._path(f.map_id, seed)
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
        except OSError:
            return None
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if len(lines) < 5 or not lines[-1].startswith("sha256 "):
            raise CacheInvalid("missing checksum trailer")
        payload = "\n".join(lines[:-1]) + "\n"
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if lines[-1] != f"sha256 {digest}":
            raise CacheInvalid("checksum mismatch")
        if lines[0] != _CACHE_MAGIC:
            raise CacheInvalid(f"unknown format line {lines[0]!r}")
        if lines[1] != f"map {f.map_id}":
            raise CacheInvalid("cached orbit belongs to a different map")
        try:
            seed_coords = tuple(int(tok, 16) for tok in lines[2].split()[1:])
            depth = int(lines[3].split()[1])
            points = []
            for i, line in enumerate(lines[4:-1]):
                parts = line.split()
                if parts[0] != "step" or int(parts[1]) != i:
                    raise CacheInvalid("step lines out of order")
                points.append(
                    ProjPoint.normalize(tuple(int(tok, 16) for tok in parts[2:]))
                )
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise CacheInvalid(f"unparsable cache file: {exc}") from None
        if seed_coords != seed.coords or not points or points[0].coords != seed.coords:
            raise CacheInvalid("cached seed does not match")
        if depth != len(points) - 1:
            raise CacheInvalid("depth header disagrees with step count")
        for k in range(min(3, depth)):
            try:
                recomputed = evaluate(f, points[k])
            except ValueError as exc:
                raise CacheInvalid(f"cached point is degenerate: {exc}") from None
            if recomputed.coords != points[k + 1].coords:
                raise CacheInvalid(f"recomputed step {k + 1} disagrees with the file")
        steps = tuple(OrbitStep(n, p, height(p)) for n, p in enumerate(points))
        return OrbitRecord(f.map_id, points[0], steps)

    def fetch(self, f: Morphism, seed: ProjPoint, depth: int) -> OrbitRecord:
        """Load (validated), extend or recompute as needed, and store back."""
        try:
            rec = self.load(f, seed)
        except CacheInvalid:
            rec = None
        if rec is None:
            rec = iterate(f, seed, depth)
            self.store(rec)
            return rec
        if rec.depth < depth:
            rec = extend_orbit(rec, f, depth)
            self.store(rec)
            return rec
        if rec.depth > depth:
            return OrbitRecord(rec.map_id, rec.seed, tuple(rec.steps[: depth + 1]))
        return rec
