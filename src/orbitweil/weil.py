"""Local Weil functions of hypersurface divisors, and their global sums.

A divisor here is weight * {s_D = 0} for a nonzero form s_D of degree e,
presented by all monomials of degree e against the constant 1.  As
max_m |x^m|_v = max_i |x_i|_v^e, its local function is the textbook
local height

    lambda_D(x, v) = weight * (e * log max_i |x_i|_v - log|s_D(x)|_v)

(Hindry-Silverman, Diophantine Geometry, GTM 201, Part B), which
weil_local computes in this closed form.  Scaling s_D by a constant c
shifts lambda_D by -weight * log|c|_v.  Points are primitive integer
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
one table per distinct LocalTable.datum.  The sum over all places factors
nothing past trial division; the support left over goes into one coprime
base of exact log terms.
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
    _quad_sign,
    _split_valuation,
    factorize,
    logmag_sum,
    multiplicity,
    places_above,
)
# monomials_of_degree is imported from here by callers of the weil layer
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


@dataclass(frozen=True)
class DivisorPresentation:
    """The divisor weight * {s_D = 0}, presented by the monomials of deg s_D against 1."""

    sd: HomogPoly
    weight: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.sd.is_zero:
            raise ValueError("s_D must be a nonzero form")
        if self.weight == 0:
            raise ValueError("weight must be nonzero")

    @classmethod
    def hypersurface(cls, g: HomogPoly, weight: RationalLike = 1) -> "DivisorPresentation":
        """The hypersurface {g = 0}, g made primitive."""
        return cls(g.primitive(), Fraction(weight))

    @property
    def nvars(self) -> int:
        return self.sd.nvars

    @property
    def degree(self) -> int:
        return self.sd.degree

    @cached_property
    def _unit_weight(self) -> bool:
        """weight == 1, decided once: a local term then takes no scaling."""
        return self.weight == 1

    @cached_property
    def field(self) -> Optional[QuadField]:
        # cached: HomogPoly.field scans the terms, and every local term reads it
        return self.sd.field

    def support_test(self, x: ProjPoint) -> bool:
        """Whether x lies on Supp(D), i.e. s_D(x) = 0."""
        if self.nvars != len(x.coords):
            raise ValueError("point/divisor dimension mismatch")
        return not self.sd.evaluate(x.coords)


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
        a, b = tc * A, -tc * B if w.index == 0 else tc * B
        # (a + b sqrt(d))/N made positive; with A != 0 both parts stay nonzero
        if (_quad_sign(a, b, field.d) > 0) != (N > 0):
            a, b = -a, -b
        m = QuadElem(field, a, b, N)
        return LogMag(m, None, 1) if A else LogMag._positive(m, 1)
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
    """lambda_D(x, w) = weight * (e * log max_i |x_i|_w - log|s_D(x)|_w), exactly.

    w is v if v is a place of D's field (or D is rational), else the first
    place above v.  sd = s_D(x) and top = max_i |x_i|^e, e = deg D, come
    together from a caller that has checked x against D already
    (LocalTable, once per point); without them x is checked here.  The
    closed form is built on ints over Q and Q(sqrt d) alike (_closed_form).
    """
    if sd is None:
        if d.nvars != len(x.coords):
            raise ValueError("point/divisor dimension mismatch")
        sd = d.sd.evaluate(x.coords)
        if not sd:
            raise SupportHit(x, v)
        top = max(map(abs, x.coords)) ** d.degree
    # a place of D's field, as LocalTable passes it, is chosen already
    w = v if v.field is d.field else _choose_place(d, v)
    lam = _closed_form(sd, w, top)
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


class LocalTable:
    """lambda_D(x, w) at one point, evaluated once per place w and kept.

    x is checked against D once: the dimensions match, and on_support
    records whether x lies on Supp(D), i.e. s_D(x) = 0.  s_D(x) is
    evaluated once, and every local term and the support of the sum over
    all places are read from that one value.
    """

    def __init__(self, d: DivisorPresentation, x: ProjPoint):
        sd = d.sd
        if sd.nvars != len(x.coords):
            raise ValueError("point/divisor dimension mismatch")
        self.divisor = d
        self.point = x
        self._sd = sd.evaluate(x.coords)
        self.on_support = not self._sd
        # max_i |x_i|^e, e = deg D: the closed form's archimedean numerator,
        # built once for the one or two real places
        self._top = max(map(abs, x.coords)) ** sd.degree
        self._terms: dict[Place, LogMag] = {}

    @property
    def datum(self):
        """A key that determines every lambda_D(x, w) and the sum over all places.

        That is s_D(x) up to sign, with max_i |x_i|^e: the closed form
        reads nothing else, and every |.|_w, ord_w and real-place term is
        invariant under s -> -s.  A rational value is keyed by its absolute
        value, a quadratic one by (A, B, C) with (A, B) > (0, 0).
        """
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
            if self.on_support:
                raise SupportHit(self.point, v)
            lam = self._terms[w] = weil_local(d, self.point, w, sd=self._sd, top=self._top)
        return lam

    def lambda_S(self, places) -> LogMag:
        """Sum of lambda_D(x, v) over a duplicate-free list of places, in order."""
        if len(set(places)) != len(places):
            raise ValueError("duplicate places in S")
        return logmag_sum(map(self.local, places))

    def all_places(self, parts: bool = False):
        """Sum of [F_w:Q_v]/[F:Q] * lambda_D(x, w) over all places w of F.

        F = Q or Q(sqrt d) is the field of D.  The places are those found by
        factorize in s_D(x), or over Q(sqrt d) in its norm, and the places
        the table holds that divide what factorize left over, so a lambda_S
        read first is audited place by place.  At every other place w,
        s_D(x) is a unit and lambda_D(x, w) = 0: max_i |x_i|_w = 1 at a
        primitive integer point.  The support left over goes into one
        coprime base.  Over Q(sqrt d) the terms are summed with weight
        [F_w:Q_v], an inert or ramified one doubled, and the total is
        halved once.  parts=True adds the (place, weighted term) rows, then
        one (None, term) row per base element.
        """
        if self.on_support:
            raise SupportHit(self.point)
        d, s = self.divisor, self._sd
        field = d.field
        # s_D(x), or over Q(sqrt d) its norm (A^2 - d B^2)/C^2: an int unless C > 1
        if type(s) is QuadElem:
            n, c = s._norm_pair()
            s = n if c == 1 else Fraction(n, c)
        primes: set[int] = set()
        cofactors = []  # the parts past trial division, each > 1
        for n in (abs(s.numerator), s.denominator):
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
        # row keys and [F_w:Q_v] * lambda_D(x, w); [F:Q] = 2 divides once at
        # the end.  A term of local degree 2 is doubled, not listed twice:
        # doubled, a term at root 2 is at root 1, and sends no later term
        # through the lcm of roots in __add__
        keys, terms = [], []
        for v in (Place.archimedean(), *map(Place, sorted(primes))):
            for w in (v,) if field is None else places_above(v, field):
                lam = self.local(w)
                keys.append(w)
                terms.append(lam if w.local_degree == 1 else lam * 2)
        # Every prime p | b has ord_p(s) = E_b(s) * ord_p(b), E_b the
        # multiplicity of b in s, as the rest of s is prime to b.  So
        # lambda_D(x, p) = weight * ord_p(b) * E_b(s) * log p, and the
        # primes of b sum to weight * E_b(s) * log b.  Over Q(sqrt d), s is
        # the norm, and the places above p, weighted by [F_w:Q_v], sum to
        # that too.
        for b in base:
            keys.append(None)
            terms.append(LogMag.exact(b) * (d.weight * multiplicity(s, b)))
        total = logmag_sum(terms)
        if field is not None:
            total = total._halved()
        if not parts:
            return total
        # [F_w:Q_v]/[F:Q] * lambda_D(x, w): each weighted term halved over Q(sqrt d)
        rows: list[tuple[Optional[Place], LogMag]] = [
            (key, lam if field is None else lam * _HALF) for key, lam in zip(keys, terms)
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

