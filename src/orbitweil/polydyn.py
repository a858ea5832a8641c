"""Projective points, homogeneous forms, and self-maps of P^n over Q.

Points are kept in primitive integer form (coprime coordinates, first
nonzero positive), which makes the standard height h(x) = log max_i |x_i|
exact: the nonarchimedean contributions vanish by primitivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, product
from math import gcd, lcm, prod
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

# str(int) refuses more than 4,300 decimal digits
_DECIMAL_LIMIT = 10**4300


class ZeroPoint(ValueError):
    """All projective coordinates vanish."""


class IndeterminatePoint(ValueError):
    """A self-map was evaluated at a common zero of its forms."""


def _coeff_str(c: Coeff) -> str:
    if isinstance(c, QuadElem):
        return f"{c.a}+{c.b}r{c.field.d}"
    return str(c)


class HomogPoly:
    """Sparse homogeneous polynomial with rational or quadratic coefficients.

    A rational coefficient is an int when it is integral, else a Fraction,
    so evaluation stays in ints.  Outside input enters through `from_terms`
    (and `monomial`), which checks every exponent vector, degree and field.
    The constructor alone drops zero coefficients and turns an integral
    Fraction into an int; it checks only nvars and degree, and the algebra
    calls it on terms it built from valid forms, where `QuadElem`
    arithmetic refuses mixed fields.
    """

    __slots__ = ("nvars", "degree", "terms", "_ints")

    def __init__(self, nvars: int, degree: int, terms: Mapping[tuple[int, ...], Coeff]):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.nvars = nvars
        self.degree = degree
        self.terms = {
            e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for e, c in terms.items()
            if c
        }
        self._ints = None

    @property
    def field(self) -> Optional[QuadField]:
        return next((c.field for c in self.terms.values() if isinstance(c, QuadElem)), None)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- constructors --------------------------------------------------------

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: Coeff = Fraction(1)) -> "HomogPoly":
        return cls.from_terms(len(exps), {tuple(exps): coeff})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "HomogPoly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, 1, {exps: Fraction(1)})

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HomogPoly":
        return cls(nvars, degree, {})

    @classmethod
    def from_terms(cls, nvars: int, terms: Mapping[tuple[int, ...], Coeff]) -> "HomogPoly":
        """The checked entry: one degree, valid exponent vectors, one field."""
        degs = {sum(e) for e in terms if terms[e]}
        if len(degs) > 1:
            raise ValueError(f"mixed degrees {sorted(degs)}")
        degree = degs.pop() if degs else 0
        clean: dict[tuple[int, ...], Coeff] = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars or not all(isinstance(e, int) and e >= 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            if sum(exps) != degree:
                raise ValueError(f"term {exps} is not of degree {degree}")
            c = c if isinstance(c, (int, QuadElem)) else Fraction(c)
            cur = clean.get(exps)
            clean[exps] = c if cur is None else cur + c
        poly = cls(nvars, degree, clean)
        if len({c.field for c in poly.terms.values() if isinstance(c, QuadElem)}) > 1:
            raise FieldMismatch("mixed quadratic fields in one polynomial")
        return poly

    # -- algebra ---------------------------------------------------------------

    def __mul__(self, other) -> "HomogPoly":
        if isinstance(other, (int, Fraction, QuadElem)):
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
        result = HomogPoly(self.nvars, 0, {(0,) * self.nvars: 1})
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

    def _integral(self) -> tuple:
        """(field, C, ((e, a, b), ...)): the form as sum_e (a + b sqrt(d)) x^e / C on ints."""
        fields = {c.field for c in self.terms.values() if type(c) is QuadElem}
        if len(fields) > 1:
            raise FieldMismatch("elements of different quadratic fields")
        pairs = [(c.A, c.B, c.C) if type(c) is QuadElem else (c.numerator, 0, c.denominator)
                 for c in self.terms.values()]
        C = lcm(*(c for _, _, c in pairs))
        terms = tuple((e, a * (C // c), b * (C // c)) for e, (a, b, c) in zip(self.terms, pairs))
        return (fields.pop() if fields else None), C, terms

    def evaluate(self, coords: Sequence[Union[int, Fraction]]) -> Coeff:
        """The value at rational coords: rational, or one QuadElem over the form's field.

        The form is put once over one denominator C, with int coefficients
        a + b sqrt(d) (_integral); each term adds a x^e and b x^e to ints A
        and B, and the value (A + B sqrt(d))/C is reduced once at the end.
        """
        if len(coords) != self.nvars:
            raise ValueError("coordinate count mismatch")
        if self._ints is None:
            self._ints = self._integral()
        field, C, terms = self._ints
        A = B = 0
        # x^0 = 1 stays an int: a Fraction coordinate is raised only where k > 0
        ints = {*map(type, coords)} <= {int}
        for e, a, b in terms:
            t = prod(map(pow, coords, e)) if ints else prod([x**k for x, k in zip(coords, e) if k])
            A += a * t
            if b:
                B += b * t
        if field is None:
            return A if C == 1 else Fraction(A, C)
        if type(A) is not int or type(B) is not int:
            # rational coords: clear the denominators of A and B
            m = lcm(A.denominator, B.denominator)
            A, B, C = int(A * m), int(B * m), C * m
        return QuadElem(field, A, B, C)

    def compose(self, forms: Sequence["HomogPoly"]) -> "HomogPoly":
        """Substitute x_i -> forms[i]; forms must share nvars and degree."""
        if len(forms) != self.nvars:
            raise ValueError("need one form per variable")
        d = forms[0].degree
        nv = forms[0].nvars
        if any(f.degree != d or f.nvars != nv for f in forms):
            raise ValueError("forms must share variable count and degree")
        powers: list[dict[int, HomogPoly]] = [dict() for _ in range(self.nvars)]
        out: dict[tuple[int, ...], Coeff] = {}
        for e, c in self.terms.items():
            term = HomogPoly(nv, 0, {(0,) * nv: 1})
            for i, k in enumerate(e):
                if not k:
                    continue
                cache = powers[i]
                if k not in cache:
                    cache[k] = forms[i] ** k
                term = term * cache[k]
            for t, tc in term.terms.items():
                cur = out.get(t)
                out[t] = c * tc if cur is None else cur + c * tc
        return HomogPoly(nv, self.degree * d, out)

    # -- structure -------------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integral, coprime coefficients.

        Quadratic coefficients contribute both components a, b: the gcd of
        the numerators over the lcm of the denominators, with (A + B*sqrt(d))/C
        giving gcd(A, B) over C.
        """
        if self.is_zero:
            return Fraction(1)
        num, den = 0, 1
        for c in self.terms.values():
            n, m = (gcd(c.A, c.B), c.C) if isinstance(c, QuadElem) else (c.numerator, c.denominator)
            num, den = gcd(num, n), lcm(den, m)
        return Fraction(num, den)

    def primitive(self) -> "HomogPoly":
        c = self.content()
        return self if c == 1 else self * (1 / c)

    def chart_exponents(self, k: int) -> list[tuple[int, ...]]:
        """Exponent vectors after setting x_k = 1 (coordinate chart k)."""
        return [e[:k] + e[k + 1 :] for e in self.terms]


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


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
        """The point of coprime coords, its lead made positive, without __post_init__'s gcd."""
        if next(filter(None, coords)) < 0:
            coords = [-c for c in coords]
        point = object.__new__(cls)
        object.__setattr__(point, "coords", tuple(coords))
        return point

    def __str__(self) -> str:
        """`(x0:x1:...)`: decimal below 10**4300, Python's limit on int-to-decimal
        conversion, and `0x` hex from there on; `int(token, 0)` reads both back."""
        return "(" + ":".join(
            [str(c) if -_DECIMAL_LIMIT < c < _DECIMAL_LIMIT else hex(c) for c in self.coords]
        ) + ")"


def height(x: ProjPoint) -> LogMag:
    """Standard Weil height relative to O(1): log max |x_i| for primitive x, at root 1."""
    return LogMag(max(map(abs, x.coords)), 1, 1)


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
    return ProjPoint._unchecked(vals if g == 1 else [v // g for v in vals])


@dataclass(frozen=True)
class OrbitStep:
    n: int
    point: ProjPoint
    h: LogMag


@dataclass(frozen=True)
class OrbitRecord:
    seed: ProjPoint
    steps: tuple[OrbitStep, ...]

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
    return OrbitRecord(seed, tuple(steps))


def pullback(f: Morphism, g: HomogPoly) -> HomogPoly:
    """(f)^* g = g compose f; degree multiplies by deg f."""
    if g.nvars != f.nvars:
        raise ValueError("variable count mismatch")
    return g.compose(f.forms)


# ---------------------------------------------------------------------------
# wellformedness
# ---------------------------------------------------------------------------

def _small_box_witness(f: Morphism, radius: int = 2) -> Optional[ProjPoint]:
    nv = f.nvars
    seen = set()
    for raw in product(range(-radius, radius + 1), repeat=nv):
        if all(c == 0 for c in raw):
            continue
        x = ProjPoint.normalize(raw)
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
