"""Reference local terms by the general max/min presentation, for the tests.

A divisor weight * {s_D = 0} may be presented by generating families
N = (s_1..s_k) and M = (t_1..t_l) of forms with deg s_j - deg t_i = deg s_D.
Its local function is then

    lambda_D(x, v) = weight * max_j min_i [ log|s_j(x)|_v - log|t_i(x)|_v
                                            - log|s_D(x)|_v ],

sections vanishing at x being skipped (they sit at -infinity inside the
max, +infinity inside the min).  The default presentation uses all
monomials of degree e = deg s_D against the constant 1, and gives the
closed form that orbitweil.weil builds on ints; any other presentation of
the same divisor differs from it by a bounded function.  Here every
section is evaluated and every absolute value is taken one element at a
time (abs_value, abs_quad), so the closed form has an independent
reference.  sqrt_mod and rational_support are the references of the
split-place index and of the support of a rational, and split_order
reads ord_w off the p-adic root of d, without exactnum's residue test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from orbitweil import exactnum, weil
from orbitweil.exactnum import (
    COMPLEX,
    INERT,
    RAMIFIED,
    SPLIT,
    ExactnumError,
    FieldMismatch,
    LogMag,
    Place,
    QuadElem,
    ValuationOfZero,
    _abs_rational,
    _canonical_log,
    _log_p_power,
    _split_valuation,
    factorize,
    legendre,
    multiplicity,
)
from orbitweil.polydyn import HomogPoly, ProjPoint, monomials_of_degree


def logmag_max(items: Sequence[LogMag]) -> LogMag:
    if not items:
        raise ValueError("max of empty sequence")
    best = items[0]
    for it in items[1:]:
        if it.compare(best) > 0:
            best = it
    return best


def abs_quad(y: QuadElem, v: Place) -> LogMag:
    """log|y|_v for y in Q(sqrt d), v a place of that field (or of Q, y rational)."""
    if not y:
        raise ValuationOfZero("absolute value of zero")
    if v.field is None:
        if y.is_rational:
            return _abs_rational(y.a, v)
        raise FieldMismatch("quadratic element at a place of Q; choose a place above")
    if v.field is not y.field:
        raise FieldMismatch("element and place belong to different fields")
    kind = v.kind
    if kind in (INERT, RAMIFIED):
        # ord_p N(y) = ord_p(A^2 - d B^2) - 2 ord_p(C)
        n, _ = y._norm_pair()
        return _log_p_power(v.p, multiplicity(n, v.p) - 2 * multiplicity(y.C, v.p), 2)
    if kind == SPLIT:
        return _log_p_power(v.p, _split_valuation(y, v.p, v.index))
    if kind == COMPLEX:
        # |a + b*i*sqrt(|d|)|^2 = a^2 + |d| b^2 = N(y) > 0, exactly rational
        n, c = y._norm_pair()
        g = math.gcd(n, c)
        return LogMag(*_canonical_log(n // g, c // g, 2))
    # real embedding sqrt(d) -> -sqrt(d) (index 1) reads conj(y) under the first
    z = y if v.index == 0 else y.conjugate()
    return LogMag._positive(z if z.sign() > 0 else -z, 1)


def abs_value(x, v: Place) -> LogMag:
    """abs_quad for a QuadElem, exactnum.abs_value for a rational."""
    return abs_quad(x, v) if isinstance(x, QuadElem) else exactnum.abs_value(x, v)


def sqrt_mod(a: int, p: int) -> int:
    """Smallest nonnegative square root of a modulo an odd prime p."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def split_order(y: QuadElem, p: int, index: int) -> int:
    """ord_w(y) at the split place above p whose root of d is s_index, s_1 = -s_0.

    For y = (A + B sqrt d)/C and the p-adic root s of d, (A + B s)(A - B s)
    = A^2 - d B^2 with both factors integral, so ord_p(A + B s) is below
    k = ord_p(A^2 - d B^2) + 1 and A + B s mod p^k decides it.  s_0 is
    sqrt_mod(d, p) lifted by Newton's method for odd p, and at p = 2 the
    root = 1 mod 4, one bit per step (s^2 = d mod 2^(j+1) fixes s mod 2^j).
    """
    d = y.field.d
    k = multiplicity(y._norm_pair()[0], p) + 1
    mod = p**k
    if p == 2:
        s, j = 1, 2
        while j < k:
            if (s * s - d) % 2 ** (j + 2):
                s += 2**j
            j += 1
    else:
        s, m = sqrt_mod(d, p), p
        while m < mod:
            m = min(m * m, mod)
            s = (s - (s * s - d) * pow(2 * s, -1, m)) % m
    return multiplicity((y.A + y.B * (-s if index else s)) % mod, p) - multiplicity(y.C, p)


def rational_support(q) -> list[int]:
    """Primes dividing numerator or denominator of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise ValuationOfZero("support of zero")
    primes: set[int] = set()
    for n in (abs(q.numerator), q.denominator):
        fac, cof = factorize(n)
        if cof != 1:
            raise ExactnumError(f"could not fully factor {n}")
        primes.update(fac)
    return sorted(primes)


def default_families(nv: int, e: int) -> tuple[tuple[HomogPoly, ...], tuple[HomogPoly, ...]]:
    """The default presentation's families: every monomial of degree e, and 1."""
    numer = tuple(HomogPoly.monomial(m) for m in monomials_of_degree(nv, e))
    return numer, (HomogPoly(nv, 0, {(0,) * nv: 1}),)


def general_local(
    d: weil.DivisorPresentation,
    x: ProjPoint,
    v: Place,
    numer: Optional[tuple[HomogPoly, ...]] = None,
    denom: Optional[tuple[HomogPoly, ...]] = None,
) -> LogMag:
    """weight * (max_j log|s_j(x)|_w - max_i log|t_i(x)|_w - log|s_D(x)|_w).

    That is max_j min_i of the module docstring.  The families default to
    the default presentation's, and w is the place weil_local chooses for v.
    """
    if numer is None or denom is None:
        numer, denom = default_families(d.nvars, d.degree)
    if numer[0].degree - denom[0].degree != d.degree:
        raise ValueError("degree mismatch: deg numer - deg denom must equal deg s_D")
    w = weil._choose_place(d, v)

    def top(family):
        vals = [abs_value(y, w) for y in (g.evaluate(x.coords) for g in family) if y]
        if not vals:
            raise ArithmeticError("a generating family vanishes at the point")
        return logmag_max(vals)

    sd = d.sd.evaluate(x.coords)
    if not sd:
        raise weil.SupportHit(x, v)
    return (top(numer) - top(denom) - abs_value(sd, w)) * d.weight
