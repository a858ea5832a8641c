"""Local Weil functions from divisor presentations, and their global sums.

A presentation of an effective divisor D = {s_D = 0} (with a weight for
formal multiples) is a pair of generating families N = (s_1..s_k) and
M = (t_1..t_l) with deg s_j - deg t_i = deg s_D.  The local function is

    lambda_D(x, v) = weight * max_j min_i [ log|s_j(x)|_v - log|t_i(x)|_v
                                            - log|s_D(x)|_v ],

sections vanishing at x being skipped (they sit at -infinity inside the
max, +infinity inside the min).  The default presentation of a degree-e
hypersurface uses all monomials of degree e against the constant 1.  As
max_m |x^m|_v = max_i |x_i|_v^e, its lambda is the textbook local height

    lambda_D(x, v) = weight * (e * log max_i |x_i|_v - log|s_D(x)|_v)

(Hindry-Silverman, Diophantine Geometry, GTM 201, Part B), which
weil_local computes in this closed form.  A presentation is default when
its families are exactly these, in any order, however it was built;
is_default reads that off the families, and scaling s_D keeps it, as
log|c|_v cancels in both paths.  Points are primitive integer
vectors, so max_i |x_i|_v = 1 at every finite v; the terms are exact at
every place and sum over all places to weight * e * h(x) on the nose.
The closed form is built on ints over Q and Q(sqrt d) alike, from
s_D(x) = (A + B sqrt d)/C: weight * ord_w(s_D(x)) * log p at a place of
Q or a split place, weight * ord_p(N(s_D(x))) * log p / 2 at an inert or
ramified one, and weight * log(max_i |x_i|^e / |s_D(x)|_w) at infinity.

LocalTable holds lambda_D(x, w) for one point, each place evaluated
once from one value of s_D(x).  It is the one implementation of the sum
over S (weil_sum) and of the sum over all places of Q or Q(sqrt d)
(weil_global, galois_symmetrized); the experiment runners read both from
one table per distinct LocalTable.datum.  The sum over all places factors nothing past trial division;
over Q the support left over goes into one coprime base of exact log
terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional, Union

from .exactnum import (
    COMPLEX,
    INERT,
    RAMIFIED,
    FieldMismatch,
    LogMag,
    Place,
    QuadElem,
    QuadField,
    _log_p_power,
    _split_valuation,
    abs_value,
    factorize,
    logmag_max,
    logmag_sum,
    multiplicity,
    places_above,
)
from .polydyn import HomogPoly, ProjPoint, monomials_of_degree

RationalLike = Union[int, Fraction]

_HALF = Fraction(1, 2)


class SupportHit(ArithmeticError):
    """The evaluation point lies in the support of the divisor."""

    def __init__(self, point: ProjPoint, place: Optional[Place] = None):
        self.point = point
        self.place = place
        where = f" at {place}" if place is not None else ""
        super().__init__(f"{point} lies in the divisor support{where}")


class ExactnessLost(ArithmeticError):
    """Unfactored support over Q(sqrt d) where the presentation is not default."""


@dataclass(frozen=True)
class DivisorPresentation:
    """Divisor data (s_D; numerators; denominators; weight)."""

    sd: HomogPoly
    numer: tuple[HomogPoly, ...]
    denom: tuple[HomogPoly, ...]
    weight: Fraction = Fraction(1)

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
        return cls(g, *_default_families(g.nvars, g.degree), Fraction(weight))

    # -- inspection -------------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.sd.nvars

    @property
    def degree(self) -> int:
        return self.sd.degree

    @cached_property
    def is_default(self) -> bool:
        """Whether the families are the monomials of their degree, each once, and 1.

        Such a presentation takes the closed form, whatever s_D is.
        """
        numer, denom = _default_families(self.nvars, self.degree)
        return (
            self.denom == denom
            and len(self.numer) == len(numer)
            and set(self.numer) == set(numer)
        )

    @cached_property
    def _unit_weight(self) -> bool:
        """weight == 1, decided once: a local term then takes no scaling."""
        return self.weight == 1

    @cached_property
    def field(self) -> Optional[QuadField]:
        for g in (self.sd, *self.numer, *self.denom):
            f = g.field
            if f is not None:
                return f
        return None

    def support_test(self, x: ProjPoint) -> bool:
        return LocalTable(self, x).on_support

    def scaled(self, c: RationalLike) -> "DivisorPresentation":
        """Same divisor, s_D scaled by a nonzero constant (for invariance tests)."""
        c = Fraction(c)
        if c == 0:
            raise ValueError("scale must be nonzero")
        return DivisorPresentation(self.sd * c, self.numer, self.denom, self.weight)

    def with_extra_numerator(self, g: HomogPoly) -> "DivisorPresentation":
        """Enlarged numerator family generating the same sheaf if g lies in it."""
        return DivisorPresentation(self.sd, self.numer + (g,), self.denom, self.weight)


def _default_families(nv: int, e: int) -> tuple[tuple[HomogPoly, ...], tuple[HomogPoly, ...]]:
    """The default presentation's families: every monomial of degree e, and 1."""
    numer = tuple(HomogPoly.monomial(m) for m in monomials_of_degree(nv, e))
    return numer, (HomogPoly(nv, 0, {(0,) * nv: 1}),)


def _abs_or_none(val, w: Place) -> Optional[LogMag]:
    return abs_value(val, w) if val else None


def _choose_place(d: DivisorPresentation, v: Place) -> Place:
    """v if it is a place of D's field (or D is rational), else the first place above it."""
    field = d.field
    if field is None or v.field is field:
        return v
    if v.field is not None:
        raise FieldMismatch("place extends a different quadratic field")
    return places_above(v, field)[0]


def _closed_form(sd, w: Place, top: Optional[int]) -> LogMag:
    """e * log max_i |x_i|_w - log|s_D(x)|_w on ints, for s_D(x) = (A + B sqrt(d))/C.

    B = 0 over Q and for a rational value.  top = max_i |x_i|^e is read at
    infinity only: at a finite w, max_i |x_i|_w = 1.  With N = A^2 - d B^2:
    - infinity, B = 0: log(top C/|A|), reduced by gcd(top, |A|): C is
      prime to A, and top/g to |A|/g;
    - real place i: log(top C/|A +- B sqrt(d)|), the magnitude
      top C (A -+ B sqrt(d))/N up to sign;
    - complex place: log(top^2 C^2/N)/2, as N = |A + B sqrt(d)|^2 > 0;
    - a place of Q, or a split one where B = 0: ord_p(A/C) log p;
    - split: ord_w(s_D(x)) log p, by _split_valuation;
    - inert or ramified: (ord_p N - 2 ord_p C) log p/2, as |y|_w = |N(y)|_p^(1/2).
    """
    if type(sd) is QuadElem:
        A, B, C = sd.A, sd.B, sd.C
    else:
        A, B, C = sd.numerator, 0, sd.denominator
    p = w.p
    if p is None:
        if not B:
            n = abs(A)
            g = gcd(top, n)
            return LogMag((top // g) * C, n // g, 1)
        field = w.field
        N, tc = A * A - field.d * B * B, top * C
        if w.kind == COMPLEX:
            n = tc * tc
            g = gcd(n, N)
            return LogMag(n // g, N // g, 1) * _HALF
        m = QuadElem(field, tc * A, -tc * B if w.index == 0 else tc * B, N)
        return LogMag._positive(m if m.sign() > 0 else -m, 1)
    if w.kind in (INERT, RAMIFIED):
        k = multiplicity(A * A - w.field.d * B * B, p)
        if C != 1:
            k -= 2 * multiplicity(C, p)
        return _log_p_power(p, -k, 2)
    if B:
        k = _split_valuation(sd, p, w.index)
    else:
        k = multiplicity(A, p)
        if C != 1:
            k -= multiplicity(C, p)
    return _log_p_power(p, -k)


def weil_local(
    d: DivisorPresentation, x: ProjPoint, v: Place, *, sd=None, top: Optional[int] = None
) -> LogMag:
    """lambda_D(x, v) from the presentation; exact wherever the inputs are.

    sd is s_D(x), and top is max_i |x_i|^e with e = deg D, if the caller
    has them already.  A default presentation takes the closed form
    weight * (e * log max_i |x_i|_w - log|s_D(x)|_w), on ints over Q and
    Q(sqrt d) alike (_closed_form); any other runs
    max_j log|s_j(x)|_w - max_i log|t_i(x)|_w - log|s_D(x)|_w.
    """
    if d.nvars != len(x.coords):
        raise ValueError("point/divisor dimension mismatch")
    # a place of D's field, as LocalTable passes it, is chosen already
    w = v if v.field is d.field else _choose_place(d, v)
    if sd is None:
        sd = d.sd.evaluate(x.coords)
    if not sd:
        raise SupportHit(x, v)
    if d.is_default:
        if w.p is None and top is None:
            top = max(map(abs, x.coords)) ** d.degree
        lam = _closed_form(sd, w, top)
    else:
        sd_val = abs_value(sd, w)
        denom_vals = [t for t in (_abs_or_none(g.evaluate(x.coords), w) for g in d.denom) if t is not None]
        if not denom_vals:
            raise ArithmeticError("denominator family vanishes at the point")
        numer_vals = [t for t in (_abs_or_none(g.evaluate(x.coords), w) for g in d.numer) if t is not None]
        if not numer_vals:
            raise ArithmeticError("numerator family vanishes at the point")
        # max_j min_i (log|s_j| - log|t_i| - log|s_D|) = max_j log|s_j| - max_i log|t_i| - log|s_D|
        lam = logmag_max(numer_vals) - logmag_max(denom_vals) - sd_val
    return lam if d._unit_weight else lam * d.weight


def weil_sum(d: DivisorPresentation, x: ProjPoint, places: list[Place]) -> LogMag:
    """Sum of lambda_D(x, v) over a duplicate-free list of places."""
    return LocalTable(d, x).lambda_S(places)


def _coprime_base(ns) -> list[int]:
    """Pairwise coprime b > 1, ascending, with every n a product of their powers.

    Pairwise-gcd refinement (Bernstein, J. Algorithms 54, 2005, in its
    quadratic form): a and b with g = gcd(a, b) > 1 become a/g, g, b/g,
    which divides the product of all elements by g, so the loop ends.
    """
    base: list[int] = []
    todo = [n for n in ns if n > 1]
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g != 1:
                del base[i]
                todo += [m for m in (b // g, g, a // g) if m > 1]
                break
        else:
            base.append(a)
    return sorted(base)


def _base_exponent(d: DivisorPresentation, values: list[RationalLike], b: int) -> int:
    """E_b(s_D) + min_i E_b(t_i) - min_j E_b(s_j), zero sections skipped.

    E_b is exactnum.multiplicity, and values are _support_values(d, x).
    """
    k = multiplicity(values[0], b)
    if not d.is_default:
        j = 1 + len(d.numer)
        k += min(multiplicity(v, b) for v in values[j:] if v)
        k -= min(multiplicity(v, b) for v in values[1:j] if v)
    return k


def _support_values(d: DivisorPresentation, x: ProjPoint, sd=None) -> list[RationalLike]:
    """s_D(x), then (unless D is default) the s_j(x) and t_i(x); norms over Q(sqrt d).

    sd is s_D(x) if the caller has it already.  A default presentation
    needs s_D(x) alone: at coprime integer coordinates its monomials and
    its 1 are units at every prime.  Values are ints or Fractions as they
    come, a norm (A^2 - d B^2)/C^2 an int unless C > 1; readers take only
    numerator and denominator.
    """
    if sd is None:
        sd = d.sd.evaluate(x.coords)
    raw = [sd]
    if not d.is_default:
        raw += [g.evaluate(x.coords) for g in (*d.numer, *d.denom)]
    out = []
    for val in raw:
        if isinstance(val, QuadElem):
            n, c = val._norm_pair()
            val = n if c == 1 else Fraction(n, c)
        elif d.field is not None:
            val = val * val
        out.append(val)
    return out


class LocalTable:
    """lambda_D(x, w) at one point, evaluated once per place w and kept.

    s_D(x) is evaluated once, and every local term and the support of the
    sum over all places are read from that one value.
    """

    def __init__(self, d: DivisorPresentation, x: ProjPoint):
        if d.nvars != len(x.coords):
            raise ValueError("point/divisor dimension mismatch")
        self.divisor = d
        self.point = x
        self._sd = d.sd.evaluate(x.coords)
        # max_i |x_i|^e, e = deg D: the closed form's archimedean numerator,
        # built once for the one or two real places
        self._top = max(map(abs, x.coords)) ** d.degree if d.is_default else None
        self._terms: dict[Place, LogMag] = {}

    @property
    def on_support(self) -> bool:
        """Whether x lies on Supp(D), i.e. s_D(x) = 0."""
        return not self._sd

    @property
    def datum(self):
        """A key that determines every lambda_D(x, w) and the sum over all places.

        For a default presentation that is s_D(x) up to sign, with
        max_i |x_i|^e: the closed form reads nothing else, and every
        |.|_w, ord_w and real-place term is invariant under s -> -s.  A
        rational value is keyed by its absolute value, a quadratic one by
        (A, B, C) with (A, B) > (0, 0).  Any other presentation is keyed
        by the point itself.
        """
        if not self.divisor.is_default:
            return self.point.coords
        sd = self._sd
        if type(sd) is QuadElem:
            A, B, C = sd.A, sd.B, sd.C
            sd = (A, B, C) if (A, B) > (0, 0) else (-A, -B, C)
        elif sd < 0:
            sd = -sd
        return sd, self._top

    def local(self, v: Place) -> LogMag:
        """lambda_D(x, w) at the place w that weil_local chooses for v."""
        d = self.divisor
        w = v if v.field is d.field else _choose_place(d, v)
        lam = self._terms.get(w)
        if lam is None:
            lam = self._terms[w] = weil_local(d, self.point, w, sd=self._sd, top=self._top)
        return lam

    def lambda_S(self, places) -> LogMag:
        """Sum of lambda_D(x, v) over a duplicate-free list of places, in order."""
        if len(set(places)) != len(places):
            raise ValueError("duplicate places in S")
        return logmag_sum([self.local(v) for v in places])

    def all_places(self, parts: bool = False):
        """Sum of [F_w:Q_v]/[F:Q] * lambda_D(x, w) over all places w of F.

        F = Q or Q(sqrt d) is the field of D.  The places are those found by
        factorize in the values of D's sections, and the places the table
        holds that divide them, so a lambda_S read first is audited place by
        place.  The support left over goes into one coprime base (over
        Q(sqrt d) only for default D).  Over Q(sqrt d) the terms are summed
        with weight [F_w:Q_v], an inert or ramified one listed twice, and
        the total is halved once.  parts=True adds the (place, weighted
        term) rows, then one (None, term) row per base element.
        """
        d, x = self.divisor, self.point
        field = d.field
        values = _support_values(d, x, self._sd)
        if values[0] == 0:
            raise SupportHit(x)
        primes: set[int] = set()
        cofactors = []  # the parts past trial division, each > 1
        for q in values:
            for n in (abs(q.numerator), q.denominator):
                if n > 1:
                    fac, cof = factorize(n)
                    primes.update(fac)
                    if cof > 1:
                        cofactors.append(cof)
        base = []
        if cofactors:
            primes.update(w.p for w in self._terms if w.p and any(c % w.p == 0 for c in cofactors))
            # a prime is its own base element, so the others are prime to every place row
            big = [p for p in primes if p > 1000]
            base = [b for b in _coprime_base(cofactors + big) if b not in primes]
            if base and field is not None and not d.is_default:
                raise ExactnessLost("a base of norms cannot tell split places apart")
        # (row key, lambda_D(x, w), [F_w:Q_v]); [F:Q] = 2 divides once at the end
        places = [Place.archimedean(), *map(Place, sorted(primes))]
        if field is not None:
            places = [w for v in places for w in places_above(v, field)]
        terms = [(w, self.local(w), w.local_degree) for w in places]
        # Every prime p | b has ord_p(v) = E_b(v) * ord_p(b) in each value v, as
        # the rest of v is prime to b.  So lambda_D(x, p) = weight * ord_p(b) *
        # _base_exponent * log p, and the primes of b sum to weight *
        # _base_exponent * log b.  Over Q(sqrt d) the values are norms of a
        # default s_D, and the places above p, weighted by [F_w:Q_v], sum to
        # that too.
        for b in base:
            terms.append((None, LogMag.exact(b) * (d.weight * _base_exponent(d, values, b)), 1))
        # a term of local degree 2 is doubled, not listed twice: doubled, a
        # term at root 2 is at root 1, and sends no later term through the
        # lcm of roots in __add__
        total = logmag_sum([lam if deg == 1 else lam * 2 for w, lam, deg in terms])
        if field is not None:
            total = total * _HALF
        if not parts:
            return total
        # [F_w:Q_v]/[F:Q] is 1/2 at a split or real w and at a base row, 1 at the others
        rows: list[tuple[Optional[Place], LogMag]] = [
            (key, lam * _HALF if field is not None and deg == 1 else lam) for key, lam, deg in terms
        ]
        return total, rows


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
    weight * deg(D) * h(x) exactly: the two real places give the weight-1/2
    terms of s_D(x) and its conjugate, whose product is rational.
    """
    if d.field is None:
        raise FieldMismatch("divisor is rational: use weil_global")
    return LocalTable(d, x).all_places(parts)

