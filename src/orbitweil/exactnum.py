"""Exact arithmetic over Q and quadratic fields Q(sqrt(d)), with places,
normalized absolute values, and an exact-first log-magnitude value type.

Conventions:
  * Absolute values are Q-normalized: |p|_p = 1/p, archimedean as usual,
    so the product formula sum_v log|q|_v = 0 holds on the nose.
  * For a place w of F = Q(sqrt(d)) above p, abs_value returns the unique
    extension of |.|_p to F_w: the Hensel embedding value at split places
    and |N(y)|_p^(1/2) at inert/ramified places.  Restricting to Q gives
    back |.|_p exactly.  The weighted product formula over F reads
    sum_w [F_w:Q_v] * log|y|_w = 0.
  * Log-magnitudes stay exact (log of a positive rational over a root
    index) whenever the input permits; archimedean embeddings of
    irrational elements fall back to certified interval enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import mpmath
from mpmath import iv, mp

# Working precision for certified enclosures.  300+ bits keeps every
# enclosure width at desk scale far below the 1e-30 error budget.
IV_PREC = 320
iv.prec = IV_PREC

Rational = Fraction
RationalLike = Union[int, Fraction]

# Cross-exponentiation guards: never build integers past ~60 MB silently.
_BIT_BUDGET = 5 * 10**8


class ExactnumError(ArithmeticError):
    pass


class ValuationOfZero(ExactnumError):
    """p-adic valuation (or absolute value) of zero requested."""


class FieldMismatch(ExactnumError, ValueError):
    """Element and place belong to different fields."""


class UndecidableComparison(ExactnumError):
    """Certified intervals overlap; comparison needs more precision."""


class PrecisionExhausted(ExactnumError):
    """Internal precision escalation hit its hard cap."""


# ---------------------------------------------------------------------------
# integer utilities
# ---------------------------------------------------------------------------

def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    return [i for i in range(limit + 1) if flags[i]]


_SMALL_PRIMES = _sieve(1000)

# Deterministic Miller-Rabin base set: correct for all n < 3.317e24,
# which covers every prime this package ever certifies exactly.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:25]:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, seed: int, max_steps: int) -> Optional[int]:
    # Brent's cycle variant of Pollard rho; returns a proper factor or None
    # once the step budget runs out.
    if n % 2 == 0:
        return 2
    y, c, m = (seed % (n - 1)) + 1, (seed // 7 % (n - 1)) + 1, 128
    g = r = q = 1
    steps = 0
    x = ys = y
    while g == 1 and steps < max_steps:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
            steps += min(m, r - k + m)
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g if 1 < g < n else None


def factorize(n: int, *, rho_steps: int = 200_000) -> tuple[dict[int, int], int]:
    """Partial factorization of n >= 1 under a deterministic step budget.

    Returns (factors, cofactor): ``factors`` maps primes to exponents,
    ``cofactor`` is 1 or a leftover integer coprime to every found prime
    (its own prime support stayed out of reach of the budget).
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n == 1:
        return factors, 1
    # the stack holds the remaining composite part as a multiset of factors
    stack = [n]
    cofactor = 1
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        found = None
        for seed in (1, 3, 5):
            found = _pollard_brent(m, seed, rho_steps)
            if found:
                break
        if found is None:
            cofactor *= m
        else:
            stack.extend((found, m // found))
    return factors, cofactor


def rational_support(q: RationalLike) -> list[int]:
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


def integer_nth_root(n: int, r: int) -> int:
    """Floor of the r-th root of n >= 0."""
    if n < 0 or r < 1:
        raise ValueError("integer_nth_root needs n >= 0, r >= 1")
    if r == 1 or n < 2:
        return n
    if r == 2:
        return math.isqrt(n)
    # Newton's method needs a start at or above the root.  The float k
    # below is log2 of the root to within 2**-51 + k * 2**-52; padded by
    # (k + 1) * 2**-40 it gives a start a relative ~k * 2**-40 above the
    # root, from which the steps converge quadratically instead of
    # creeping down from a power of two.
    k = math.log2(n) / r
    s = max(int(k) - 60, 0)
    x = (int(2.0 ** (k * (1 + 2.0**-40) + 2.0**-40 - s)) + 1) << s
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def _perfect_power(n: int, r: int) -> Optional[int]:
    root = integer_nth_root(n, r)
    return root if root**r == n else None


def _is_power(n: int, base: int, e: int) -> bool:
    # n == base**e, rejecting first any power more than two bits longer than n
    if base > 1 and e * math.log2(base) > n.bit_length() + 1:
        return False
    return base**e == n


def padic_valuation(x: RationalLike, p: int) -> int:
    """ord_p(x) for a nonzero rational x and prime p."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    q = Fraction(x)
    if q == 0:
        raise ValuationOfZero("ord_p(0) is +infinity")
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


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


@lru_cache(maxsize=None)
def hensel_sqrt(d: int, p: int, prec: int) -> int:
    """Canonical square root of d in Z_p to precision p^prec.

    For odd p the result is the lift of the smallest nonnegative root
    mod p; for p = 2 (needs d = 1 mod 8) it is the root = 1 mod 4.
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    if p == 2:
        if d % 8 != 1:
            raise ValueError("2-adic square root needs d = 1 mod 8")
        s, k = 1, 3
        while k < prec:
            if (s * s - d) % (1 << (k + 1)) != 0:
                s += 1 << (k - 1)
            k += 1
        return s % (1 << prec)
    if legendre(d % p, p) != 1:
        raise ValueError(f"{d} is not a square mod {p}")
    s = sqrt_mod(d % p, p)
    mod = p
    while mod < p**prec:
        mod = min(mod * mod, p**prec)
        # Newton step s -> s - (s^2-d)/(2s), exact in Z/mod
        inv = pow(2 * s % mod, -1, mod)
        s = (s - (s * s - d) * inv) % mod
    return s % p**prec


# ---------------------------------------------------------------------------
# certified intervals
# ---------------------------------------------------------------------------

def _iv_from_fraction(q: Fraction):
    # iv.mpf rejects Fraction; integer endpoints round outward, and the
    # interval quotient keeps the enclosure valid for huge numerators.
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def _iv_endpoints(x):
    # .a/.b on an interval yield degenerate intervals; go through the raw
    # representation to obtain true mpf endpoints
    lo, hi = x._mpi_
    return mp.make_mpf(lo), mp.make_mpf(hi)


def _mpf_fraction(x) -> Fraction:
    # exact value of a finite mpf
    sign, man, exp, _ = x._mpf_
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def _escalate(step):
    """step() at doubling iv.prec until it is not None; iv.prec is restored."""
    saved = iv.prec
    try:
        while (out := step()) is None:
            iv.prec *= 2
        return out
    finally:
        iv.prec = saved


def _iv_log_fraction(q: Fraction):
    if q <= 0:
        raise ValueError("log of a nonpositive rational")
    if q.numerator == 1:
        hi = iv.mpf(0)
    else:
        hi = iv.log(iv.mpf(q.numerator))
    if q.denominator == 1:
        lo = iv.mpf(0)
    else:
        lo = iv.log(iv.mpf(q.denominator))
    return hi - lo


def _float_log_fraction(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


# ---------------------------------------------------------------------------
# LogMag: the log-magnitude value type
# ---------------------------------------------------------------------------

class LogMag:
    """log(m)/root for an exact positive rational m, or a certified interval.

    Exact values form the working algebra: they add, subtract, scale by
    rationals, and compare without any rounding.  An operation that mixes
    in a certified value degrades the result to a certified interval whose
    width is tracked explicitly.
    """

    __slots__ = ("_m", "_root", "_ival")

    def __init__(self, m: Optional[Fraction], root: int, ival) -> None:
        self._m = m
        self._root = root
        self._ival = ival

    # -- constructors -------------------------------------------------------

    @classmethod
    def exact(cls, m: RationalLike, root: int = 1) -> "LogMag":
        m = Fraction(m)
        if m <= 0:
            raise ValueError("log-magnitude of a nonpositive quantity")
        if root < 1:
            raise ValueError("root index must be >= 1")
        m, root = _canonical_log(m, root)
        return cls(m, root, None)

    @classmethod
    def zero(cls) -> "LogMag":
        return cls(Fraction(1), 1, None)

    @classmethod
    def certified(cls, ival) -> "LogMag":
        return cls(None, 0, ival)

    # -- inspection ----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._m is not None

    @property
    def magnitude(self) -> Fraction:
        if self._m is None:
            raise ValueError("certified value has no exact magnitude")
        return self._m

    @property
    def root(self) -> int:
        if self._m is None:
            raise ValueError("certified value has no root index")
        return self._root

    def interval(self):
        if self._m is not None:
            return _iv_log_fraction(self._m) / iv.mpf(self._root)
        return self._ival

    def err(self) -> float:
        if self._m is not None:
            return 0.0
        lo, hi = _iv_endpoints(self._ival)
        with mp.workprec(IV_PREC + 20):
            return float((hi - lo) / 2)

    def to_float(self) -> float:
        if self._m is not None:
            return _float_log_fraction(self._m) / self._root
        lo, hi = _iv_endpoints(self._ival)
        with mp.workprec(IV_PREC + 20):
            return float((lo + hi) / 2)

    def decimal_str(self, places: int = 12) -> str:
        """Deterministic fixed-point rendering with `places` fractional digits."""
        lo, hi = _iv_endpoints(self.interval())
        with mp.workprec(IV_PREC + 20):
            mid = (lo + hi) / 2
            s = mpmath.nstr(mid, 40, strip_zeros=False)
        with localcontext() as ctx:
            ctx.prec = 60
            d = Decimal(s).quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN)
        out = format(d, "f")
        if out.startswith("-") and Decimal(out) == 0:
            out = out[1:]
        return out

    def __repr__(self) -> str:
        if self._m is not None:
            if self._root == 1:
                return f"LogMag(log {self._m})"
            return f"LogMag(log({self._m})/{self._root})"
        return f"LogMag(~{self.to_float():.15g} +/- {self.err():.2g})"

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "LogMag") -> "LogMag":
        if not isinstance(other, LogMag):
            return NotImplemented
        if self._m is not None and other._m is not None:
            r = math.lcm(self._root, other._root)
            e1, e2 = r // self._root, r // other._root
            _check_bits(self._m, e1)
            _check_bits(other._m, e2)
            return LogMag.exact(self._m**e1 * other._m**e2, r)
        return LogMag.certified(self.interval() + other.interval())

    def __sub__(self, other: "LogMag") -> "LogMag":
        if not isinstance(other, LogMag):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LogMag":
        if self._m is not None:
            return LogMag(Fraction(self._m.denominator, self._m.numerator), self._root, None)
        return LogMag.certified(-self._ival)

    def __mul__(self, k: RationalLike) -> "LogMag":
        if not isinstance(k, (int, Fraction)):
            return NotImplemented
        k = Fraction(k)
        if k == 0:
            return LogMag.zero()
        if self._m is not None:
            a, b = k.numerator, k.denominator
            _check_bits(self._m, abs(a))
            m = self._m ** abs(a)
            if a < 0:
                m = 1 / m
            return LogMag.exact(m, self._root * b)
        return LogMag.certified(self._ival * _iv_from_fraction(k))

    __rmul__ = __mul__

    # -- comparison ----------------------------------------------------------

    def exact_eq(self, other: "LogMag") -> bool:
        """Exact equality; both operands must be exact."""
        if self._m is None or other._m is None:
            raise UndecidableComparison("exact_eq needs two exact values")
        # canonical forms are unique, so structural equality decides
        return self._m == other._m and self._root == other._root

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogMag):
            return NotImplemented
        if self._m is not None and other._m is not None:
            return self._m == other._m and self._root == other._root
        if self._m is None and other._m is None:
            return self._ival.a == other._ival.a and self._ival.b == other._ival.b
        return False

    def __hash__(self) -> int:
        if self._m is not None:
            return hash((self._m, self._root))
        return hash((str(self._ival.a), str(self._ival.b)))

    def compare(self, other: "LogMag", tol: float = 0.0) -> int:
        """-1, 0, +1; returns 0 when the gap is within tol (or exactly zero).

        For certified operands the decision is made on the enclosure: if the
        intervals overlap by more than tol the comparison is reported as 0
        only when the total enclosure width is below tol; otherwise the
        overlap itself is within tolerance and 0 is still the honest answer.
        """
        if self._m is not None and other._m is not None:
            if self._m == other._m and self._root == other._root:
                return 0
            try:
                _check_bits(self._m, other._root)
                _check_bits(other._m, self._root)
            except PrecisionExhausted:
                pass  # fall through to the interval route
            else:
                a, b = self._m**other._root, other._m**self._root
                return -1 if a < b else (1 if a > b else 0)
        da = self.interval() - other.interval()
        if da.b < -tol:
            return -1
        if da.a > tol:
            return 1
        return 0

    def sign(self, tol: float = 0.0) -> int:
        if self._m is not None:
            return -1 if self._m < 1 else (1 if self._m > 1 else 0)
        return self.compare(LogMag.zero(), tol)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.sign(tol) == 0

    # -- ratios --------------------------------------------------------------

    def ratio_exact(self, other: "LogMag") -> Optional[Fraction]:
        """self/other as an exact Fraction whenever it is rational.

        Decides every rational ratio of two exact values from a certified
        enclosure and exact root extraction; every power it builds is at
        most two bits longer than a numerator or denominator of the
        operands.  None means the ratio is irrational, an operand is
        certified, or other is zero.
        """
        if self._m is None or other._m is None or other._m == 1:
            return None
        if self._m == 1:
            return Fraction(0)
        m1, m2 = self._m, other._m
        # log m1 / log m2 = p/q in lowest terms (q > 0) exactly when
        # m1 = c**p and m2 = c**q for one rational c != 1: then c is the
        # q-th root of m2, so the larger of m2's numerator and denominator
        # is at least 2**q and q <= Q, its bit length.  Two distinct
        # rationals with denominators <= Q are at least 1/Q**2 apart, so
        # once the enclosure of rho = log m1 / log m2 is narrower than
        # that, a rational rho is the fraction with denominator <= Q
        # nearest the midpoint, and that is the only candidate to verify.
        # The escalation ends: log m2 != 0 is bounded away from 0 by the
        # size of m2, and the width shrinks with every doubling of
        # precision.
        big = max(m2.numerator, m2.denominator).bit_length()
        gap = Fraction(1, big * big)

        def narrow():
            den = _iv_log_fraction(m2)
            if den.a <= 0 <= den.b:
                return None
            rho = _iv_log_fraction(m1) / den
            lo, hi = (_mpf_fraction(e) for e in _iv_endpoints(rho))
            return (lo, hi) if hi - lo < gap else None

        lo, hi = _escalate(narrow)
        cand = ((lo + hi) / 2).limit_denominator(big)
        if not lo <= cand <= hi:
            return None
        p, q = cand.numerator, cand.denominator
        a = _perfect_power(m2.numerator, q)
        b = _perfect_power(m2.denominator, q) if a is not None else None
        if b is None:
            return None
        # m1 == (a/b)**p, with a/b in lowest terms
        top, bot = (a, b) if p > 0 else (b, a)
        e = abs(p)
        if not (_is_power(m1.numerator, top, e) and _is_power(m1.denominator, bot, e)):
            return None
        return cand * other._root / self._root

    def ratio(self, other: "LogMag") -> tuple[Optional[Fraction], tuple[float, float]]:
        """(exact self/other or None, outward float bounds of self/other).

        The bounds enclose the ratio in both cases; for an exact ratio they
        are the nearest floats on either side, equal only when the ratio
        is itself a float.
        """
        exact = self.ratio_exact(other)
        if exact is None:
            return None, self.ratio_interval(other)
        f = float(exact)
        lo = f if Fraction(f) <= exact else math.nextafter(f, -math.inf)
        hi = f if Fraction(f) >= exact else math.nextafter(f, math.inf)
        return exact, (lo, hi)

    def ratio_interval(self, other: "LogMag") -> tuple[float, float]:
        """Certified float enclosure of self/other (other must be nonzero)."""

        def quotient():
            den = other.interval()
            if not den.a <= 0 <= den.b:
                return self.interval() / den
            # log m != 0 for exact m != 1: more precision will exclude 0
            if other._m is None or other._m == 1:
                raise UndecidableComparison("ratio denominator straddles zero")
            return None

        lo, hi = _iv_endpoints(_escalate(quotient))
        return (
            math.nextafter(float(lo), -math.inf),
            math.nextafter(float(hi), math.inf),
        )


def _small_prime_factors(r: int) -> list[int]:
    out = []
    for p in _SMALL_PRIMES:
        if p * p > r:
            break
        if r % p == 0:
            out.append(p)
            while r % p == 0:
                r //= p
    if r > 1:
        out.append(r)
    return out


def _canonical_log(m: Fraction, root: int) -> tuple[Fraction, int]:
    # reduce (m, root) so that m is not a perfect p-th power for any p | root;
    # this canonical form is unique, making structural equality semantic
    if m == 1:
        return Fraction(1), 1
    r = root
    for p in _small_prime_factors(root):
        while r % p == 0:
            nr = _perfect_power(m.numerator, p)
            if nr is None:
                break
            dr = _perfect_power(m.denominator, p)
            if dr is None:
                break
            m = Fraction(nr, dr)
            r //= p
    return m, r


def _check_bits(m: Fraction, exp: int) -> None:
    bits = (m.numerator.bit_length() + m.denominator.bit_length()) * max(exp, 1)
    if bits > _BIT_BUDGET:
        raise PrecisionExhausted(
            f"exact exponentiation would need ~{bits} bits (cap {_BIT_BUDGET})"
        )


def logmag_sum(items: Iterable[LogMag]) -> LogMag:
    total = LogMag.zero()
    for it in items:
        total = total + it
    return total


def logmag_max(items: Sequence[LogMag]) -> LogMag:
    if not items:
        raise ValueError("max of empty sequence")
    best = items[0]
    for it in items[1:]:
        if it.compare(best) > 0:
            best = it
    return best


def logmag_min(items: Sequence[LogMag]) -> LogMag:
    if not items:
        raise ValueError("min of empty sequence")
    best = items[0]
    for it in items[1:]:
        if it.compare(best) < 0:
            best = it
    return best


# ---------------------------------------------------------------------------
# quadratic fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadField:
    """Q(sqrt(d)) for a squarefree integer d not in {0, 1}."""

    d: int

    def __post_init__(self) -> None:
        if self.d in (0, 1):
            raise ValueError("d must not be 0 or 1")
        fac, cof = factorize(abs(self.d))
        if cof != 1:
            raise ValueError(f"cannot certify {self.d} squarefree")
        if any(e > 1 for e in fac.values()):
            raise ValueError(f"{self.d} is not squarefree")

    @property
    def is_real(self) -> bool:
        return self.d > 0

    @property
    def discriminant(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d

    def element(self, a: RationalLike, b: RationalLike = 0) -> "QuadElem":
        return QuadElem(self, Fraction(a), Fraction(b))

    def sqrt_gen(self) -> "QuadElem":
        return QuadElem(self, Fraction(0), Fraction(1))

    def __repr__(self) -> str:
        return f"Q(sqrt({self.d}))"


@dataclass(frozen=True)
class QuadElem:
    """a + b*sqrt(d) with rational a, b."""

    field: QuadField
    a: Fraction
    b: Fraction

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.field != self.field:
                raise FieldMismatch("elements of different quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.field, Fraction(other), Fraction(0))
        raise TypeError(f"cannot coerce {other!r}")

    def __add__(self, other):
        o = self._coerce(other)
        return QuadElem(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(self.field, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        d = self.field.d
        return QuadElem(
            self.field,
            self.a * o.a + d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        inv = QuadElem(self.field, o.a / n, -o.b / n)
        return self * inv

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return (QuadElem(self.field, Fraction(1), Fraction(0)) / self) ** (-k)
        out = QuadElem(self.field, Fraction(1), Fraction(0))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.field, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.field.d * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __repr__(self) -> str:
        return f"({self.a} + {self.b}*sqrt({self.field.d}))"


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"
REAL = "real"
COMPLEX = "complex"


@dataclass(frozen=True)
class PlaceExt:
    field: QuadField
    kind: str
    index: int = 0


@dataclass(frozen=True)
class Place:
    """A place of Q (ext=None) or of a quadratic field above one of Q."""

    p: Optional[int]  # None = archimedean
    ext: Optional[PlaceExt] = None

    def __post_init__(self) -> None:
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.ext is not None:
            if self.ext.kind in (REAL, COMPLEX) and self.p is not None:
                raise ValueError("archimedean extension kind over a finite place")
            if self.ext.kind in (SPLIT, INERT, RAMIFIED) and self.p is None:
                raise ValueError("finite extension kind over the archimedean place")
            if self.ext.index not in (0, 1):
                raise ValueError("extension index must be 0 or 1")
            if self.ext.kind in (INERT, RAMIFIED, COMPLEX) and self.ext.index != 0:
                raise ValueError(f"{self.ext.kind} place has a single index")

    @classmethod
    def archimedean(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @property
    def is_archimedean(self) -> bool:
        return self.p is None

    @property
    def local_degree(self) -> int:
        """[F_w : Q_v]; 1 for places of Q themselves."""
        if self.ext is None:
            return 1
        return 1 if self.ext.kind in (SPLIT, REAL) else 2

    @property
    def restriction(self) -> "Place":
        return Place(self.p)

    def __repr__(self) -> str:
        base = "inf" if self.p is None else str(self.p)
        if self.ext is None:
            return f"v_{base}"
        return f"w_{base}[{self.ext.kind}{self.ext.index}]"


def places_above(v: Place, field: QuadField) -> list[Place]:
    """Places of Q(sqrt(d)) above a place v of Q, in canonical order."""
    if v.ext is not None:
        raise ValueError("places_above expects a place of Q")
    d = field.d
    if v.is_archimedean:
        if d > 0:
            return [
                Place(None, PlaceExt(field, REAL, 0)),
                Place(None, PlaceExt(field, REAL, 1)),
            ]
        return [Place(None, PlaceExt(field, COMPLEX, 0))]
    p = v.p
    if p == 2:
        if d % 2 == 0 or d % 4 == 3:
            kind = RAMIFIED
        elif d % 8 == 1:
            kind = SPLIT
        else:
            kind = INERT
    elif d % p == 0:
        kind = RAMIFIED
    else:
        kind = SPLIT if legendre(d % p, p) == 1 else INERT
    if kind == SPLIT:
        return [Place(p, PlaceExt(field, SPLIT, 0)), Place(p, PlaceExt(field, SPLIT, 1))]
    return [Place(p, PlaceExt(field, kind, 0))]


# ---------------------------------------------------------------------------
# absolute values
# ---------------------------------------------------------------------------

_HENSEL_CAP = 4096


def _abs_rational(q: Fraction, v: Place) -> LogMag:
    if q == 0:
        raise ValuationOfZero("absolute value of zero")
    if v.is_archimedean:
        return LogMag.exact(abs(q))
    k = padic_valuation(q, v.p)
    return LogMag.exact(Fraction(v.p) ** (-k))


def _split_valuation(y: QuadElem, p: int, index: int) -> int:
    """ord_w(y) at the split place with the given root index."""
    d = y.field.d
    c = math.lcm(y.a.denominator, y.b.denominator)
    A, B = int(y.a * c), int(y.b * c)
    norm = A * A - d * B * B
    if norm == 0:
        raise ValuationOfZero("absolute value of zero")
    prec = padic_valuation(norm, p) + 2 if norm % p == 0 else 2
    prec = max(prec, 3)
    while True:
        if prec > _HENSEL_CAP:
            raise PrecisionExhausted("split-place valuation exceeded the lifting cap")
        s = hensel_sqrt(d, p, prec)
        if index == 1:
            s = p**prec - s
        t = (A + B * s) % p**prec
        if t != 0:
            val = padic_valuation(t, p)
            if val < prec:
                cval = padic_valuation(c, p) if c % p == 0 else 0
                return val - cval
        prec *= 2


def _abs_quad(y: QuadElem, v: Place) -> LogMag:
    if y.is_zero:
        raise ValuationOfZero("absolute value of zero")
    ext = v.ext
    if ext is None:
        if y.is_rational:
            return _abs_rational(y.a, v)
        raise FieldMismatch("quadratic element at a place of Q; choose a place above")
    if ext.field != y.field:
        raise FieldMismatch("element and place belong to different fields")
    d = y.field.d
    kind = ext.kind
    if kind in (INERT, RAMIFIED):
        k = padic_valuation(y.norm(), v.p)
        return LogMag.exact(Fraction(v.p) ** (-k), 2)
    if kind == SPLIT:
        k = _split_valuation(y, v.p, ext.index)
        return LogMag.exact(Fraction(v.p) ** (-k))
    if kind == COMPLEX:
        # |a + b*i*sqrt(|d|)|^2 = a^2 + |d| b^2 = N(y), exactly rational
        return LogMag.exact(y.norm(), 2)
    # real embedding: sqrt(d) -> +sqrt(d) for index 0, -sqrt(d) for index 1
    if y.b == 0:
        return LogMag.exact(abs(y.a))
    if y.a == 0:
        return LogMag.exact(y.b * y.b * d, 2)
    sgn = 1 if ext.index == 0 else -1
    saved = iv.prec
    try:
        for _ in range(3):
            z = _iv_from_fraction(y.a) + _iv_from_fraction(sgn * y.b) * iv.sqrt(iv.mpf(d))
            if not (z.a <= 0 <= z.b):
                return LogMag.certified(iv.log(abs(z)))
            iv.prec *= 2
    finally:
        iv.prec = saved
    raise PrecisionExhausted("real embedding enclosure straddles zero")


def abs_value(x, v: Place) -> LogMag:
    """log of the Q-normalized absolute value |x|_v, exact when possible."""
    if isinstance(x, QuadElem):
        return _abs_quad(x, v)
    if isinstance(x, (int, Fraction)):
        return _abs_rational(Fraction(x), v)
    raise TypeError(f"unsupported value {x!r}")
