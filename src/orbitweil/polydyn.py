"""Projective points, homogeneous forms, and self-maps of P^n over Q.

Points are kept in primitive integer form (coprime coordinates, first
nonzero positive), which makes the standard height h(x) = log max_i |x_i|
exact: the nonarchimedean contributions vanish by primitivity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import gcd
from typing import Mapping, Optional, Sequence, Union

from .exactnum import (
    FieldMismatch,
    LogMag,
    QuadElem,
    QuadField,
    bareiss,
    integer_normal_form,
)

Coeff = Union[int, Fraction, QuadElem]


class ZeroPoint(ValueError):
    """All projective coordinates vanish."""


class IndeterminatePoint(ValueError):
    """A self-map was evaluated at a common zero of its forms."""


def _coeff_field(c: Coeff) -> Optional[QuadField]:
    return c.field if isinstance(c, QuadElem) else None


def _is_zero_coeff(c: Coeff) -> bool:
    return c.is_zero if isinstance(c, QuadElem) else c == 0


def _coeff(c) -> Coeff:
    # integral rationals are stored as ints, so evaluation stays in ints
    if isinstance(c, (int, QuadElem)):
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _coeff_str(c: Coeff) -> str:
    if isinstance(c, QuadElem):
        return f"{c.a}+{c.b}r{c.field.d}"
    return str(c)


class HomogPoly:
    """Sparse homogeneous polynomial with rational or quadratic coefficients.

    A rational coefficient is an int when it is integral, else a Fraction.
    """

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
            cur = clean.get(exps)
            total = _coeff(c if cur is None else cur + c)
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
        total: Coeff = 0
        for e, c in self.terms.items():
            term = c
            for x, k in zip(coords, e):
                if k:
                    term = term * x**k
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

    def content(self) -> Fraction:
        """Positive rational c with self/c integral, coprime coefficients.

        Quadratic coefficients contribute both components a, b.
        """
        if self.is_zero:
            return Fraction(1)
        comps = [
            q
            for c in self.terms.values()
            for q in ((c.a, c.b) if isinstance(c, QuadElem) else (c,))
        ]
        return abs(integer_normal_form(comps)[1])

    def primitive(self) -> "HomogPoly":
        c = self.content()
        return self if c == 1 else self * (1 / c)

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


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


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
        if gcd(*self.coords) != 1:
            raise ValueError("coordinates are not coprime; use ProjPoint.normalize")
        first = next(c for c in self.coords if c != 0)
        if first < 0:
            raise ValueError("sign convention: first nonzero coordinate positive")

    @classmethod
    def normalize(cls, raw: Sequence[Union[int, Fraction]]) -> "ProjPoint":
        if not any(raw):
            raise ZeroPoint("all coordinates vanish")
        return cls._unchecked(integer_normal_form(raw)[0])

    @classmethod
    def _unchecked(cls, coords: Sequence[int]) -> "ProjPoint":
        """The point of coprime coords with a positive lead, without __post_init__'s gcd."""
        point = object.__new__(cls)
        object.__setattr__(point, "coords", tuple(coords))
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

VERIFIED = "verified"
FAILED = "failed"


@dataclass(frozen=True)
class WellformedReport:
    status: str
    witness: Optional[ProjPoint] = None


@dataclass(frozen=True)
class Morphism:
    """Candidate self-map of P^n given by n+1 forms of a common degree d >= 1.

    The forms define a morphism iff they have no common zero over the
    algebraic closure, iff their Macaulay determinant `macaulay_det` is
    nonzero; every prime of bad reduction (one where the reduced forms
    share a zero over the closure of F_p) divides it.  Iteration is allowed
    for every map as long as the orbit avoids the common zeros (monomial
    maps restricted to the torus rely on this).
    """

    forms: tuple[HomogPoly, ...]

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

    @cached_property
    def integral_forms(self) -> tuple[HomogPoly, ...]:
        """The forms over their joint integer normal form's scale: the same map.

        Their coefficients are coprime integers, and the lead is the
        coefficient of the smallest exponent of the first nonzero form.
        """
        coeffs = [c for f in self.forms for _, c in sorted(f.terms.items())]
        _, scale = integer_normal_form(coeffs)
        return tuple(f * (1 / scale) for f in self.forms)

    @cached_property
    def macaulay_det(self) -> int:
        """Macaulay determinant of `integral_forms`, computed once per map."""
        return macaulay_determinant(self.integral_forms)

    @property
    def map_id(self) -> str:
        # joint scaling (c*F_0, ..., c*F_n) defines the same map, so the hash
        # is taken over the joint integer normal form
        payload = "||".join(f.canonical_key() for f in self.integral_forms)
        return hashlib.sha256(payload.encode()).hexdigest()

    def __repr__(self) -> str:
        return f"Morphism[{', '.join(map(repr, self.forms))}]"


def macaulay_determinant(forms: Sequence[HomogPoly]) -> Union[int, Fraction]:
    """Macaulay determinant of n+1 forms of degree d in n+1 variables.

    The Macaulay matrix has one row per product m*F_i, m a monomial of
    degree N - d with N = (n+1)(d-1)+1, over the monomials of degree N.
    The forms share a zero over the algebraic closure iff its rows do not
    span (Macaulay, 1902; Cox, Little and O'Shea, Using Algebraic
    Geometry, ch. 3), and then the result is 0.  Otherwise it is a nonzero
    maximal minor, the last Bareiss pivot after clearing denominators with
    one common factor.  By Cramer's rule it times each x_j^N is a
    combination of the rows, so for integral forms gcd_i F_i(x) divides it
    at every primitive integer x, and so does every prime of bad
    reduction.  On P^1 the matrix is the Sylvester matrix and the result is
    the resultant Res(F_0, F_1).
    """
    nv, d = forms[0].nvars, forms[0].degree
    if len(forms) != nv or any(f.nvars != nv or f.degree != d for f in forms):
        raise ValueError("need n+1 forms of one degree in n+1 variables")
    top = nv * (d - 1) + 1
    column = {m: j for j, m in enumerate(monomials_of_degree(nv, top))}
    ints, scale = integer_normal_form([c for f in forms for c in f.terms.values()])
    ints = iter(ints)
    rows = []
    for f in forms:
        terms = [(e, next(ints)) for e in f.terms]
        for m in monomials_of_degree(nv, top - d):
            row = [0] * len(column)
            for e, c in terms:
                row[column[tuple(a + b for a, b in zip(m, e))]] = c
            rows.append(row)
    echelon, pivot_cols, sign = bareiss(rows)
    if len(pivot_cols) < len(column):
        return 0
    det = sign * echelon[len(column) - 1][-1] * scale ** len(column)
    return det.numerator if det.denominator == 1 else det


def evaluate(f: Morphism, x: ProjPoint) -> ProjPoint:
    """f(x) as a primitive point.

    For a morphism the gcd of the values of the integral forms at the
    primitive x divides Delta = f.macaulay_det, so it is found from the
    values mod Delta, and not at all when |Delta| = 1.
    """
    vals = [form.evaluate(x.coords) for form in f.integral_forms]
    delta = f.macaulay_det
    if delta == 0:
        if not any(vals):
            raise IndeterminatePoint(f"{x} is a common zero of the defining forms")
        return ProjPoint.normalize(vals)
    g = 1 if abs(delta) == 1 else gcd(delta, *(v % delta for v in vals))
    if next(v for v in vals if v) < 0:
        g = -g
    return ProjPoint._unchecked(vals if g == 1 else [v // g for v in vals])


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


def pullback(f: Morphism, g: HomogPoly) -> HomogPoly:
    """(f)^* g = g compose f; degree multiplies by deg f."""
    if g.nvars != f.nvars:
        raise ValueError("variable count mismatch")
    return g.compose(f.forms)


# ---------------------------------------------------------------------------
# wellformedness
# ---------------------------------------------------------------------------

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


def wellformed_check(f: Morphism) -> WellformedReport:
    """Decide whether f is a morphism: VERIFIED iff its Macaulay determinant is nonzero.

    A failed map gets a rational common zero from a small box search as
    its witness, or None when the box holds none.
    """
    if f.macaulay_det != 0:
        return WellformedReport(VERIFIED)
    return WellformedReport(FAILED, _small_box_witness(f, radius=3 if f.nvars == 2 else 2))
