"""Local Weil functions from divisor presentations, and their global sums.

A presentation of an effective divisor D = {s_D = 0} (with a weight for
formal multiples) is a pair of generating families N = (s_1..s_k) and
M = (t_1..t_l) with deg s_j - deg t_i = deg s_D.  The local function is

    lambda_D(x, v) = weight * max_j min_i [ log|s_j(x)|_v - log|t_i(x)|_v
                                            - log|s_D(x)|_v ],

sections vanishing at x being skipped (they sit at -infinity inside the
max, +infinity inside the min).  The default presentation of a degree-e
hypersurface uses all monomials of degree e against the constant 1, which
makes lambda exact at every place for integer points and sums over all
places to e * h(x) on the nose.

LocalTable holds lambda_D(x, w) for one point, each place evaluated
once.  It is the one implementation of the sum over S (weil_sum) and of
the sum over all places of Q or Q(sqrt d) (weil_global,
galois_symmetrized); the experiment runners read both from one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from typing import Optional, Union

from .exactnum import (
    FieldMismatch,
    LogMag,
    Place,
    QuadElem,
    QuadField,
    abs_value,
    factorize,
    logmag_max,
    logmag_min,
    logmag_sum,
    places_above,
)
from .polydyn import HomogPoly, ProjPoint

RationalLike = Union[int, Fraction]


class SupportHit(ArithmeticError):
    """The evaluation point lies in the support of the divisor."""

    def __init__(self, point: ProjPoint, place: Optional[Place] = None):
        self.point = point
        self.place = place
        where = f" at {place}" if place is not None else ""
        super().__init__(f"{point} lies in the divisor support{where}")


class ExactnessLost(ArithmeticError):
    """A factoring budget ran out where the aggregation shortcut is invalid."""


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


@dataclass(frozen=True)
class DivisorPresentation:
    """Divisor data (s_D; numerators; denominators; weight)."""

    sd: HomogPoly
    numer: tuple[HomogPoly, ...]
    denom: tuple[HomogPoly, ...]
    weight: Fraction = Fraction(1)
    is_default: bool = False

    def __post_init__(self) -> None:
        if self.sd.is_zero:
            raise ValueError("s_D must be a nonzero form")
        if not self.numer or not self.denom:
            raise ValueError("presentation needs nonempty generating families")
        nv = self.sd.nvars
        en = self.numer[0].degree
        em = self.denom[0].degree
        for g in self.numer:
            if g.nvars != nv or g.degree != en:
                raise ValueError("numerator family must share variable count and degree")
        for g in self.denom:
            if g.nvars != nv or g.degree != em:
                raise ValueError("denominator family must share variable count and degree")
        if en - em != self.sd.degree:
            raise ValueError("degree mismatch: deg numer - deg denom must equal deg s_D")
        if self.weight == 0:
            raise ValueError("weight must be nonzero")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def hypersurface(cls, g: HomogPoly, weight: RationalLike = 1) -> "DivisorPresentation":
        """Default presentation of the hypersurface {g = 0}."""
        g = g.primitive()
        nv, e = g.nvars, g.degree
        numer = tuple(HomogPoly.monomial(m) for m in monomials_of_degree(nv, e))
        denom = (HomogPoly(nv, 0, {(0,) * nv: Fraction(1)}),)
        return cls(g, numer, denom, Fraction(weight), is_default=True)

    # -- inspection -------------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.sd.nvars

    @property
    def degree(self) -> int:
        return self.sd.degree

    @property
    def field(self) -> Optional[QuadField]:
        for g in (self.sd, *self.numer, *self.denom):
            f = g.field
            if f is not None:
                return f
        return None

    def support_test(self, x: ProjPoint) -> bool:
        val = self.sd.evaluate(x.coords)
        return val.is_zero if isinstance(val, QuadElem) else val == 0

    def conjugate(self) -> "DivisorPresentation":
        return DivisorPresentation(
            self.sd.conjugate(),
            tuple(g.conjugate() for g in self.numer),
            tuple(g.conjugate() for g in self.denom),
            self.weight,
            self.is_default,
        )

    def scaled(self, c: RationalLike) -> "DivisorPresentation":
        """Same divisor, s_D scaled by a nonzero constant (for invariance tests)."""
        c = Fraction(c)
        if c == 0:
            raise ValueError("scale must be nonzero")
        return DivisorPresentation(self.sd * c, self.numer, self.denom, self.weight, False)

    def with_extra_numerator(self, g: HomogPoly) -> "DivisorPresentation":
        """Enlarged numerator family generating the same sheaf if g lies in it."""
        return DivisorPresentation(self.sd, self.numer + (g,), self.denom, self.weight, False)

    def nonnegativity_constant(self) -> Optional[LogMag]:
        """c with lambda_D(x, v) >= -c at every place, for x off the support.

        Available when the numerator family contains all monomials of its
        degree.  Archimedean places contribute the coefficient triangle
        bound; finite places contribute only through coefficient
        denominators (integral data costs nothing there).
        """
        if not self._full_monomials():
            return None
        bound = self.sd.coeff_bound() * max(t.coeff_bound() for t in self.denom)
        dens = 1
        for g in (self.sd, *self.denom):
            for c in g.terms.values():
                comps = (c.a, c.b) if isinstance(c, QuadElem) else (c,)
                for q in comps:
                    dens = dens * q.denominator // gcd(dens, q.denominator)
        bound = bound * dens
        if bound < 1:
            bound = Fraction(1)
        return LogMag.exact(bound) * abs(self.weight)

    def _full_monomials(self) -> bool:
        have = set(self.numer)
        needed = [HomogPoly.monomial(m) for m in monomials_of_degree(self.nvars, self.numer[0].degree)]
        return all(m in have for m in needed)


def _abs_or_none(val, w: Place) -> Optional[LogMag]:
    if isinstance(val, QuadElem):
        if val.is_zero:
            return None
    elif val == 0:
        return None
    return abs_value(val, w)


def _choose_place(d: DivisorPresentation, v: Place) -> Place:
    field = d.field
    if field is None:
        return v
    if v.ext is not None:
        if v.ext.field != field:
            raise FieldMismatch("place extends a different quadratic field")
        return v
    return places_above(v, field)[0]


def weil_local(d: DivisorPresentation, x: ProjPoint, v: Place) -> LogMag:
    """lambda_D(x, v) from the presentation; exact wherever the inputs are."""
    if d.nvars != len(x.coords):
        raise ValueError("point/divisor dimension mismatch")
    w = _choose_place(d, v)
    sd_val = _abs_or_none(d.sd.evaluate(x.coords), w)
    if sd_val is None:
        raise SupportHit(x, v)
    denom_vals = [t for t in (_abs_or_none(g.evaluate(x.coords), w) for g in d.denom) if t is not None]
    if not denom_vals:
        raise ArithmeticError("denominator family vanishes at the point")
    candidates = []
    for g in d.numer:
        a = _abs_or_none(g.evaluate(x.coords), w)
        if a is not None:
            candidates.append(logmag_min([a - b - sd_val for b in denom_vals]))
    if not candidates:
        raise ArithmeticError("numerator family vanishes at the point")
    return logmag_max(candidates) * d.weight


def weil_sum(d: DivisorPresentation, x: ProjPoint, places: list[Place]) -> LogMag:
    """Sum of lambda_D(x, v) over a duplicate-free list of places."""
    return LocalTable(d, x).lambda_S(places)


def _support_primes(values: list[Fraction], default_ok: bool) -> tuple[list[int], Fraction]:
    """Primes dividing any value, plus the unfactored residual (default route).

    The residual multiplies together the cofactors that the budget left
    unfactored (denominator cofactors go below the bar, keeping the sign of
    their contribution right); for default presentations its prime part
    contributes exactly log(residual) to the global sum, so exactness
    survives partial factoring.
    """
    primes: set[int] = set()
    res_num = 1
    res_den = 1
    for q in values:
        for n, is_den in ((abs(q.numerator), False), (q.denominator, True)):
            if n in (0, 1):
                continue
            fac, cof = factorize(n)
            primes.update(fac)
            if cof != 1:
                if not default_ok:
                    raise ExactnessLost(
                        f"cannot factor {n} and the presentation is not default-monomial"
                    )
                if is_den:
                    res_den *= cof
                else:
                    res_num *= cof
    for p in primes:
        if res_num % p == 0 or res_den % p == 0:
            raise ExactnessLost("residual shares a prime with the factored part")
    return sorted(primes), Fraction(res_num, res_den)


def _support_value(g: HomogPoly, x: ProjPoint, field: Optional[QuadField]) -> Fraction:
    """g(x) over Q; over F = Q(sqrt d) its norm, which has the same primes."""
    val = g.evaluate(x.coords)
    if isinstance(val, QuadElem):
        return val.norm()
    return Fraction(val) if field is None else Fraction(val) ** 2


class LocalTable:
    """lambda_D(x, w) at one point, evaluated once per place w and kept."""

    def __init__(self, d: DivisorPresentation, x: ProjPoint):
        self.divisor = d
        self.point = x
        self._terms: dict[Place, LogMag] = {}

    def _local(self, w: Place) -> LogMag:
        lam = self._terms.get(w)
        if lam is None:
            lam = self._terms[w] = weil_local(self.divisor, self.point, w)
        return lam

    def lambda_S(self, places) -> LogMag:
        """Sum of lambda_D(x, v) over a duplicate-free list of places, in order."""
        if len(set(places)) != len(places):
            raise ValueError("duplicate places in S")
        return logmag_sum([self._local(_choose_place(self.divisor, v)) for v in places])

    def all_places(self, parts: bool = False):
        """Sum of [F_w:Q_v]/[F:Q] * lambda_D(x, w) over all places w of F.

        F = Q or Q(sqrt d) is the field of D; parts=True adds the (place,
        weighted term) rows, the residual for unfactored support last.
        """
        d, x = self.divisor, self.point
        field = d.field
        gens = (d.sd,) if d.is_default else (d.sd, *d.numer, *d.denom)
        values = [_support_value(g, x, field) for g in gens]
        if values[0] == 0:
            raise SupportHit(x)
        primes, residual = _support_primes(values, d.is_default)
        field_degree = 1 if field is None else 2
        rows: list[tuple[Optional[Place], LogMag]] = []
        for v in [Place.archimedean()] + [Place.finite(p) for p in primes]:
            for w in [v] if field is None else places_above(v, field):
                lam = self._local(w)
                weight = Fraction(w.local_degree, field_degree)
                # weight-1 terms are all exact, and exact * 1 is the same value
                rows.append((w, lam if weight == 1 else lam * weight))
        total = logmag_sum([lm for _, lm in rows])
        if residual != 1:
            # unfactored prime support lies only in s_D(x); each hidden p adds
            # weight * ord_p * log p / [F:Q], in total weight * log(residual) / [F:Q]
            extra = LogMag.exact(residual) * (d.weight / field_degree)
            total = total + extra
            rows.append((None, extra))
        return (total, rows) if parts else total


def weil_global(d: DivisorPresentation, x: ProjPoint, *, parts: bool = False):
    """Sum of lambda_D(x, v) over all places of Q (exact for integral data).

    For the default presentation this equals weight * deg(D) * h(x) exactly;
    the identity is the height-machine audit used by the experiment layer.
    """
    if d.field is not None:
        raise FieldMismatch("divisor over a quadratic field: use galois_symmetrized")
    return LocalTable(d, x).all_places(parts)


def galois_symmetrized(d: DivisorPresentation, x: ProjPoint, *, parts: bool = False):
    """(1/2) sum over places w of F of [F_w:Q_v] * lambda_D(x, w).

    This is the Galois-stable combination (D + conj(D))/2 evaluated through
    the quadratic machinery; for default presentations it equals
    weight * deg(D) * h(x) up to the certified archimedean enclosure.
    """
    if d.field is None:
        raise FieldMismatch("divisor is rational: use weil_global")
    return LocalTable(d, x).all_places(parts)


def weil_all_places(d: DivisorPresentation, x: ProjPoint) -> LogMag:
    """Weighted sum of lambda_D(x, w) over all places of the field of D."""
    return LocalTable(d, x).all_places()
