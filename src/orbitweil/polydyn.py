"""Projective points, homogeneous forms, and self-maps of P^n over Q.

Points are kept in primitive integer form (coprime coordinates, first
nonzero positive), which makes the standard height h(x) = log max_i |x_i|
exact: the nonarchimedean contributions vanish by primitivity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence, Union

from .exactnum import FieldMismatch, LogMag, QuadElem, QuadField

Coeff = Union[Fraction, QuadElem]


class ZeroPoint(ValueError):
    """All projective coordinates vanish."""


class IndeterminatePoint(ValueError):
    """A self-map was evaluated at a common zero of its forms."""


def _coeff_field(c: Coeff) -> Optional[QuadField]:
    return c.field if isinstance(c, QuadElem) else None


def _is_zero_coeff(c: Coeff) -> bool:
    return c.is_zero if isinstance(c, QuadElem) else c == 0


def _coeff_str(c: Coeff) -> str:
    if isinstance(c, QuadElem):
        return f"{c.a}+{c.b}r{c.field.d}"
    return str(c)


class HomogPoly:
    """Sparse homogeneous polynomial with rational or quadratic coefficients."""

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, degree: int, terms: Mapping[tuple[int, ...], Coeff]):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[tuple[int, ...], Coeff] = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            if sum(exps) != degree:
                raise ValueError(f"term {exps} is not of degree {degree}")
            if not isinstance(c, QuadElem):
                c = Fraction(c)
            if _is_zero_coeff(c):
                continue
            cur = clean.get(exps)
            total = c if cur is None else cur + c
            if _is_zero_coeff(total):
                clean.pop(exps, None)
            else:
                clean[exps] = total
        self.nvars = nvars
        self.degree = degree
        self.terms = clean
        f = self.field  # validates coefficient-field consistency

    @property
    def field(self) -> Optional[QuadField]:
        found = None
        for c in self.terms.values():
            fc = _coeff_field(c)
            if fc is not None:
                if found is not None and fc != found:
                    raise FieldMismatch("mixed quadratic fields in one polynomial")
                found = fc
        return found

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- constructors --------------------------------------------------------

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: Coeff = Fraction(1)) -> "HomogPoly":
        exps = tuple(exps)
        return cls(len(exps), sum(exps), {exps: coeff})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "HomogPoly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, 1, {exps: Fraction(1)})

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HomogPoly":
        return cls(nvars, degree, {})

    @classmethod
    def from_terms(cls, nvars: int, terms: Mapping[tuple[int, ...], Coeff]) -> "HomogPoly":
        degs = {sum(e) for e in terms if not _is_zero_coeff(terms[e])}
        if len(degs) > 1:
            raise ValueError(f"mixed degrees {sorted(degs)}")
        degree = degs.pop() if degs else 0
        return cls(nvars, degree, terms)

    # -- algebra ---------------------------------------------------------------

    def _binop(self, other: "HomogPoly", sign: int) -> "HomogPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if not other.terms:
            return self
        if not self.terms:
            return other * sign if sign != 1 else other
        if self.degree != other.degree:
            raise ValueError("inhomogeneous sum")
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            val = c * sign if sign != 1 else c
            out[e] = val if cur is None else cur + val
            if _is_zero_coeff(out[e]):
                del out[e]
        return HomogPoly(self.nvars, self.degree, out)

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        return self._binop(other, 1)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self._binop(other, -1)

    def __mul__(self, other) -> "HomogPoly":
        if isinstance(other, (int, Fraction, QuadElem)):
            if _is_zero_coeff(other if isinstance(other, QuadElem) else Fraction(other)):
                return HomogPoly.zero(self.nvars, self.degree)
            return HomogPoly(
                self.nvars, self.degree, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out: dict[tuple[int, ...], Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                cur = out.get(e)
                out[e] = prod if cur is None else cur + prod
        return HomogPoly(self.nvars, self.degree + other.degree, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "HomogPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = HomogPoly(self.nvars, 0, {(0,) * self.nvars: Fraction(1)})
        base = self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogPoly)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.degree, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                (("xyzw"[i] if self.nvars <= 4 else f"x{i}") + (f"^{k}" if k > 1 else ""))
                for i, k in enumerate(e)
                if k
            )
            parts.append(f"({_coeff_str(c)}){mono}")
        return " + ".join(parts)

    # -- evaluation and composition -------------------------------------------

    def evaluate(self, coords: Sequence[Union[int, Fraction]]) -> Coeff:
        if len(coords) != self.nvars:
            raise ValueError("coordinate count mismatch")
        total: Coeff = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for x, k in zip(coords, e):
                if k:
                    term = term * (Fraction(x) ** k)
            total = term + total
        return total

    def compose(self, forms: Sequence["HomogPoly"]) -> "HomogPoly":
        """Substitute x_i -> forms[i]; forms must share nvars and degree."""
        if len(forms) != self.nvars:
            raise ValueError("need one form per variable")
        d = forms[0].degree
        nv = forms[0].nvars
        if any(f.degree != d or f.nvars != nv for f in forms):
            raise ValueError("forms must share variable count and degree")
        powers: list[dict[int, HomogPoly]] = [dict() for _ in range(self.nvars)]
        out = HomogPoly.zero(nv, self.degree * d)
        for e, c in self.terms.items():
            term = HomogPoly(nv, 0, {(0,) * nv: Fraction(1)})
            for i, k in enumerate(e):
                if not k:
                    continue
                cache = powers[i]
                if k not in cache:
                    cache[k] = forms[i] ** k
                term = term * cache[k]
            out = out + term * c
        return out

    # -- structure -------------------------------------------------------------

    def conjugate(self) -> "HomogPoly":
        out = {
            e: (c.conjugate() if isinstance(c, QuadElem) else c)
            for e, c in self.terms.items()
        }
        return HomogPoly(self.nvars, self.degree, out)

    def norm_form(self) -> "HomogPoly":
        """G * conj(G); the result has rational coefficients."""
        prod = self * self.conjugate()
        out: dict[tuple[int, ...], Coeff] = {}
        for e, c in prod.terms.items():
            if isinstance(c, QuadElem):
                if c.b != 0:
                    raise ArithmeticError("norm form came out irrational")
                c = c.a
            out[e] = c
        return HomogPoly(prod.nvars, prod.degree, out)

    def content(self) -> Fraction:
        """Positive rational c with self/c integral, coprime coefficients.

        Quadratic coefficients contribute both components a, b.
        """
        nums: list[int] = []
        dens: list[int] = []
        for c in self.terms.values():
            comps = (c.a, c.b) if isinstance(c, QuadElem) else (c,)
            for q in comps:
                if q != 0:
                    nums.append(abs(q.numerator))
                    dens.append(q.denominator)
        if not nums:
            return Fraction(1)
        g = 0
        for n in nums:
            g = gcd(g, n)
        l = 1
        for d in dens:
            l = lcm(l, d)
        return Fraction(g, l)

    def primitive(self) -> "HomogPoly":
        c = self.content()
        if c == 1 or c == 0:
            return self
        return self * Fraction(1, c)

    def coeff_bound(self) -> Fraction:
        """Rational upper bound for sum_t |coeff_t| under any archimedean embedding."""
        total = Fraction(0)
        for c in self.terms.values():
            if isinstance(c, QuadElem):
                d = abs(c.field.d)
                # |a + b sqrt(d)| <= |a| + |b| (isqrt(d)+1) at both embeddings
                total += abs(c.a) + abs(c.b) * (_isqrt_ceil(d))
            else:
                total += abs(c)
        return total

    def ord_along_variable(self, i: int) -> int:
        """Vanishing order along the coordinate hyperplane x_i = 0."""
        if self.is_zero:
            raise ValueError("order of the zero polynomial")
        return min(e[i] for e in self.terms)

    def chart_exponents(self, k: int) -> list[tuple[int, ...]]:
        """Exponent vectors after setting x_k = 1 (coordinate chart k)."""
        return [e[:k] + e[k + 1 :] for e in self.terms]

    def canonical_key(self) -> str:
        rows = [
            ",".join(map(str, e)) + ":" + _coeff_str(c)
            for e, c in sorted(self.terms.items())
        ]
        return f"{self.nvars}|{self.degree}|" + ";".join(rows)


def _isqrt_ceil(d: int) -> int:
    import math

    r = math.isqrt(d)
    return r if r * r == d else r + 1


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjPoint:
    """Primitive integer representative of a point of P^n(Q)."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coords or all(c == 0 for c in self.coords):
            raise ZeroPoint("all coordinates vanish")
        g = 0
        for c in self.coords:
            g = gcd(g, abs(c))
        if g != 1:
            raise ValueError("coordinates are not coprime; use ProjPoint.normalize")
        first = next(c for c in self.coords if c != 0)
        if first < 0:
            raise ValueError("sign convention: first nonzero coordinate positive")

    @classmethod
    def normalize(cls, raw: Sequence[Union[int, Fraction]]) -> "ProjPoint":
        fracs = [Fraction(c) for c in raw]
        if all(c == 0 for c in fracs):
            raise ZeroPoint("all coordinates vanish")
        denom = 1
        for c in fracs:
            denom = lcm(denom, c.denominator)
        ints = [int(c * denom) for c in fracs]
        g = 0
        for c in ints:
            g = gcd(g, abs(c))
        ints = [c // g for c in ints]
        first = next(c for c in ints if c != 0)
        if first < 0:
            ints = [-c for c in ints]
        # coprime with a positive lead already: skip __post_init__'s second gcd
        point = object.__new__(cls)
        object.__setattr__(point, "coords", tuple(ints))
        return point

    @property
    def dim_ambient(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return "(" + " : ".join(map(str, self.coords)) + ")"


def height(x: ProjPoint) -> LogMag:
    """Standard Weil height relative to O(1): log max |x_i| for primitive x."""
    return LogMag.exact(max(abs(c) for c in x.coords))


def height_twisted(x: ProjPoint, e: Union[int, Fraction]) -> LogMag:
    """Height relative to O(e): e * h(x)."""
    e = Fraction(e)
    if e <= 0:
        raise ValueError("twist must be positive")
    return height(x) * e


# ---------------------------------------------------------------------------
# morphisms of P^n
# ---------------------------------------------------------------------------

UNCHECKED = "unchecked"
VERIFIED = "verified"
FAILED = "failed"
PROBABLE = "probable"


@dataclass(frozen=True)
class WellformedReport:
    status: str
    method: str
    trials: int = 0
    witness: Optional[ProjPoint] = None


@dataclass(frozen=True)
class Morphism:
    """Candidate self-map of P^n given by n+1 forms of a common degree d >= 1.

    `status` records what wellformed_check established; iteration is allowed
    for unchecked or failed maps as long as the orbit avoids the common zeros
    (monomial maps restricted to the torus rely on this).
    """

    forms: tuple[HomogPoly, ...]
    status: str = UNCHECKED
    trials: int = 0

    def __post_init__(self) -> None:
        if len(self.forms) < 2:
            raise ValueError("need at least two forms")
        nv = self.forms[0].nvars
        if len(self.forms) != nv:
            raise ValueError("a self-map of P^n needs exactly n+1 forms in n+1 variables")
        d = self.forms[0].degree
        if d < 1:
            raise ValueError("degree must be >= 1")
        for f in self.forms:
            if f.nvars != nv or f.degree != d:
                raise ValueError("forms must share variable count and degree")
            if f.field is not None:
                raise FieldMismatch("dynamics run over Q; quadratic forms belong to divisors")
        if all(f.is_zero for f in self.forms):
            raise ValueError("all forms vanish identically")

    @property
    def nvars(self) -> int:
        return self.forms[0].nvars

    @property
    def degree(self) -> int:
        return self.forms[0].degree

    @property
    def map_id(self) -> str:
        # joint scaling (c*F_0, ..., c*F_n) defines the same map, so the
        # hash is taken over a jointly-normalized representative
        nums: list[int] = []
        dens: list[int] = []
        for form in self.forms:
            for c in form.terms.values():
                nums.append(abs(c.numerator))
                dens.append(c.denominator)
        g = 0
        for n in nums:
            g = gcd(g, n)
        l = 1
        for d in dens:
            l = lcm(l, d)
        scale = Fraction(l, g) if g else Fraction(1)
        first = next(f for f in self.forms if not f.is_zero)
        lead = first.terms[min(first.terms)]
        if lead < 0:
            scale = -scale
        payload = "||".join((f * scale).canonical_key() for f in self.forms)
        return hashlib.sha256(payload.encode()).hexdigest()

    def with_report(self, report: WellformedReport) -> "Morphism":
        return replace(self, status=report.status, trials=report.trials)

    def __repr__(self) -> str:
        return f"Morphism[{', '.join(map(repr, self.forms))}]"


def evaluate(f: Morphism, x: ProjPoint) -> ProjPoint:
    vals = [form.evaluate(x.coords) for form in f.forms]
    if all(v == 0 for v in vals):
        raise IndeterminatePoint(f"{x} is a common zero of the defining forms")
    return ProjPoint.normalize(vals)


@dataclass(frozen=True)
class OrbitStep:
    n: int
    point: ProjPoint
    h: LogMag


@dataclass(frozen=True)
class OrbitRecord:
    map_id: str
    seed: ProjPoint
    steps: tuple[OrbitStep, ...]

    @property
    def depth(self) -> int:
        return len(self.steps) - 1

    def points(self) -> list[ProjPoint]:
        return [s.point for s in self.steps]

    def heights(self) -> list[LogMag]:
        return [s.h for s in self.steps]


def iterate(f: Morphism, seed: ProjPoint, depth: int) -> OrbitRecord:
    """Orbit x, f(x), ..., f^depth(x) with exact heights at every step."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    steps = [OrbitStep(0, seed, height(seed))]
    x = seed
    for n in range(1, depth + 1):
        x = evaluate(f, x)
        steps.append(OrbitStep(n, x, height(x)))
    return OrbitRecord(f.map_id, seed, tuple(steps))


def extend_orbit(record: OrbitRecord, f: Morphism, depth: int) -> OrbitRecord:
    """Extend a cached orbit to the requested depth (no-op if already there)."""
    if record.map_id != f.map_id:
        raise ValueError("orbit record belongs to a different map")
    if depth <= record.depth:
        return record
    steps = list(record.steps)
    x = steps[-1].point
    for n in range(record.depth + 1, depth + 1):
        x = evaluate(f, x)
        steps.append(OrbitStep(n, x, height(x)))
    return OrbitRecord(record.map_id, record.seed, tuple(steps))


def pullback(f: Morphism, g: HomogPoly) -> HomogPoly:
    """(f)^* g = g compose f; degree multiplies by deg f."""
    if g.nvars != f.nvars:
        raise ValueError("variable count mismatch")
    return g.compose(f.forms)


# ---------------------------------------------------------------------------
# wellformedness
# ---------------------------------------------------------------------------

def _resultant_binary(F: HomogPoly, G: HomogPoly) -> Fraction:
    """Resultant of two binary forms of equal degree d (Sylvester determinant).

    Vanishes iff the forms share a projective root over the closure,
    including the root at infinity (both leading coefficients zero).
    """
    d = F.degree
    a = [Fraction(0)] * (d + 1)
    b = [Fraction(0)] * (d + 1)
    for e, c in F.terms.items():
        a[e[0]] = Fraction(c)  # coefficient of x^i y^(d-i)
    for e, c in G.terms.items():
        b[e[0]] = Fraction(c)
    n = 2 * d
    M = [[Fraction(0)] * n for _ in range(n)]
    for row in range(d):
        for i in range(d + 1):
            M[row][row + i] = a[d - i]
    for row in range(d):
        for i in range(d + 1):
            M[d + row][row + i] = b[d - i]
    # fraction-free is unnecessary at these sizes; plain elimination
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, n):
            if M[r][col] != 0:
                factor = M[r][col] * inv
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
    return det


def _small_box_witness(f: Morphism, radius: int = 2) -> Optional[ProjPoint]:
    from itertools import product

    nv = f.nvars
    seen = set()
    for raw in product(range(-radius, radius + 1), repeat=nv):
        if all(c == 0 for c in raw):
            continue
        try:
            x = ProjPoint.normalize(raw)
        except ZeroPoint:
            continue
        if x.coords in seen:
            continue
        seen.add(x.coords)
        if all(form.evaluate(x.coords) == 0 for form in f.forms):
            return x
    return None


def _fp_scan(f: Morphism, p: int) -> Optional[tuple[int, ...]]:
    """Search P^nvars-1(F_p) for a common zero; None if there is none.

    Primes dividing a coefficient denominator are the caller's job to avoid.
    """
    from itertools import product

    nv = f.nvars
    polys = []
    for form in f.forms:
        rows = []
        for e, c in form.terms.items():
            c = Fraction(c)
            num = c.numerator % p
            den = pow(c.denominator % p, -1, p)
            rows.append((e, num * den % p))
        polys.append(rows)

    def eval_mod(rows, pt):
        total = 0
        for e, c in rows:
            t = c
            for x, k in zip(pt, e):
                if k:
                    t = t * pow(x, k, p) % p
            total = (total + t) % p
        return total

    # canonical representatives: first nonzero coordinate = 1
    for lead in range(nv):
        prefix = (0,) * lead + (1,)
        for rest in product(range(p), repeat=nv - lead - 1):
            pt = prefix + rest
            if all(eval_mod(rows, pt) == 0 for rows in polys):
                return pt
    return None


def wellformed_check(f: Morphism, trials: int = 3, seed: int = 0) -> WellformedReport:
    """Decide (P^1: exactly; else heuristically) whether f is a morphism.

    P^1 uses the Sylvester resultant: nonzero iff the two forms have no
    common projective root over the closure.  In higher dimension an exact
    small search looks for rational witnesses and reductions mod several
    primes are scanned exhaustively for F_p-witnesses; absence of a witness
    is reported as `probable`, never as verified.
    """
    if f.nvars == 2:
        res = _resultant_binary(f.forms[0], f.forms[1])
        if res != 0:
            return WellformedReport(VERIFIED, "resultant")
        witness = _small_box_witness(f, radius=3)
        return WellformedReport(FAILED, "resultant", witness=witness)
    witness = _small_box_witness(f)
    if witness is not None:
        return WellformedReport(FAILED, "box-search", witness=witness)
    import random

    rng = random.Random(seed)
    candidates = [p for p in (53, 61, 71, 83, 97, 101, 103, 107, 109, 113)
                  if all(Fraction(c).denominator % p != 0
                         for form in f.forms for c in form.terms.values())]
    rng.shuffle(candidates)
    hits = 0
    used = 0
    for p in candidates[: max(trials, 1)]:
        used += 1
        if _fp_scan(f, p) is not None:
            hits += 1
    if used and hits == used:
        # every tested reduction degenerates; a morphism degenerates only at
        # primes dividing its resultant, so consistent hits mean failure
        return WellformedReport(FAILED, "fp-scan", trials=used)
    if hits:
        return WellformedReport(PROBABLE, "fp-scan-ambiguous", trials=used)
    return WellformedReport(PROBABLE, "fp-scan", trials=used)
