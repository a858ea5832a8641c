"""Exact arithmetic over Q and quadratic fields Q(sqrt(d)), with places,
normalized absolute values, and an exact-first log-magnitude value type.

Conventions:
  * Absolute values are Q-normalized: |p|_p = 1/p, archimedean as usual,
    so the product formula sum_v log|q|_v = 0 holds on the nose.
  * abs_value reads rationals.  For a place w of F = Q(sqrt(d)) above p,
    |.|_w is the unique extension of |.|_p to F_w: at split places the
    order of y is read off ord_p(N(y)) and y mod p (or mod 4 at p = 2; see
    _split_valuation), and |N(y)|_p^(1/2) at inert/ramified places; the
    local terms of weil are built from these on ints.  The weighted
    product formula over F reads sum_w [F_w:Q_v] * log|y|_w = 0.
  * Log-magnitudes are exact: the log of a positive rational, or of a
    positive element of a real Q(sqrt(d)) under sqrt(d) -> +sqrt(d), over
    a root index.  Enclosures on Python ints, an integer v and an error e
    at a scale 2^-w, serve only correctly rounded decimals and floats,
    float ratio bounds, and comparisons past the bit budget.  The log of a
    whole magnitude is one fixed-point atanh series on the top bits of its
    numerator and denominator, with square roots only while the quotient
    is far from 1 (_log_quotient).  One loop (_refine) doubles w until a
    question is decided; floats and ratios start each log at its own
    relative precision (_offset).  The module needs nothing beyond the
    standard library.
  * Fields and places are interned: one QuadField per d and one Place per
    (p, field, index), each checked once when first built, so they
    compare and hash by identity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

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
    """A ratio by a zero log-magnitude was requested."""


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
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)

# The first 13 prime bases decide every n < _MR_BOUND (Sorenson and Webster,
# Math. Comp. 86, 2017); past it an answer would only be probable.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """The sieve's table below 1,000, deterministic Miller-Rabin above.

    Below 101^2 trial division by the 25 primes up to 97 decides alone: a
    composite there has a prime factor below 101.  Raises ExactnumError
    for n >= 3.317e24.
    """
    if n >= _MR_BOUND:
        raise ExactnumError(f"cannot prove {n} prime: not below the Miller-Rabin bound")
    if n < 1000:
        return n in _SMALL_PRIME_SET
    for p in _SMALL_PRIMES[:25]:
        if n % p == 0:
            return False
    if n < 101 * 101:
        return True
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


def factorize(n: int) -> tuple[dict[int, int], int]:
    """Trial division of n >= 1 by the primes below 1,000, plus a cofactor.

    Returns (factors, cofactor), factors mapping primes to exponents.  A
    leftover is a factor if below 1,000^2 or proved prime by is_prime, else
    the cofactor (1 if none); no primality test runs past the bound.
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
    if n < 1000**2 or (n < _MR_BOUND and is_prime(n)):
        factors[n] = 1
        return factors, 1
    return factors, n


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


def integer_normal_form(values: Sequence[RationalLike]) -> tuple[list[int], Fraction]:
    """(ints, c) with values == c * ints, ints coprime, first nonzero positive.

    Raises ValueError when every value is zero.
    """
    den = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    # smallest first: gcd costs grow with the operands' lengths, and a small
    # coordinate (often 1) cuts the running gcd down before the huge ones
    g = math.gcd(*sorted(ints, key=abs))
    if g == 0:
        raise ValueError("no integer normal form of an all-zero vector")
    if next(i for i in ints if i) < 0:
        g = -g
    return [i // g for i in ints], Fraction(g, den)


def bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form of an integer matrix (Bareiss, 1968).

    Returns (echelon, pivot_cols, swap_sign).  Row k of the echelon form
    vanishes left of pivot_cols[k], and below row k every entry is a
    (k+1)-minor of the row-swapped input on the pivot columns, so each
    division is exact; for a nonsingular square matrix the last pivot is
    swap_sign * det.
    """
    m = [list(r) for r in rows]
    pivot_cols: list[int] = []
    sign, prev = 1, 1
    for col in range(len(m[0]) if m else 0):
        k = len(pivot_cols)
        if k == len(m):
            break
        piv = next((r for r in range(k, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p = m[k][col]
        for r in range(k + 1, len(m)):
            a = m[r][col]
            m[r] = [(p * x - a * y) // prev for x, y in zip(m[r], m[k])]
        prev = p
        pivot_cols.append(col)
    return m, pivot_cols, sign


def padic_valuation(x: RationalLike, p: int) -> int:
    """ord_p(x) for a nonzero rational x and prime p."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    return multiplicity(Fraction(x), p)


def multiplicity(x: RationalLike, b: int) -> int:
    """Exponent of b > 1 in the numerator of a nonzero x minus that in its denominator.

    For a prime b this is ord_b(x); nothing here checks that b is prime.
    """
    if x == 0:
        raise ValuationOfZero("ord_p(0) is +infinity")
    v = 0
    n = x.numerator
    while n % b == 0:
        n //= b
        v += 1
    d = x.denominator
    while d % b == 0:
        d //= b
        v -= 1
    return v


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


# ---------------------------------------------------------------------------
# enclosures on integers: rendering, floats, ratio bounds and comparisons
# ---------------------------------------------------------------------------
#
# An enclosure at scale 2^-w is a pair (v, e) of integers, e >= 0, standing
# for the interval [(v - e)/2^w, (v + e)/2^w].  Logs are computed in fixed
# point as in Brent and Zimmermann, Modern Computer Arithmetic (2010), ch. 4:
# n 2^s/d = 2^k r with r in [2/3, 4/3], and log r = 2 atanh((r - 1)/(r + 1)).

# The first precision of every loop, in bits: after the binary point for
# decimals and comparisons, and past an operand's offset (_offset, the bits
# its log starts below 1, rational or quadratic) for floats and ratios, so
# that a log near 0 gets 64 significant bits at once too.  64 bits decide
# nearly every read-out.
_PREC_START = 64
_PREC_CAP = 2**16

# Guard bits of the log series; see _log_quotient for why 20 bits keep e <= 2.
_GUARD = 20

# A float read-out needs no more offset than this: a value below 2^-1,075
# rounds to 0.0, and 2^-(_FLOAT_OFFSET + _PREC_START) is far below that.
_FLOAT_OFFSET = 1100

# The largest prime below 2^30, for the ratio witness (LogMag.ratio_exact).
_WITNESS_PRIME = 2**30 - 35


def _refine(step, k: int = 0):
    """step(w) for w = _PREC_START, doubled until it is not None (Ziv's loop).

    step encloses at w plus offsets of at most k bits; raises
    PrecisionExhausted once w + k passes _PREC_CAP bits.
    """
    w = _PREC_START
    while w + k <= _PREC_CAP:
        if (out := step(w)) is not None:
            return out
        w *= 2
    raise PrecisionExhausted(f"enclosures undecided at {_PREC_CAP} bits")


def _offset(n, d: Optional[int], root: int = 1) -> int:
    """k >= 0 with |log m| >= root 2^-k for a LogMag's magnitude m != 1, from bit lengths.

    m = 1 takes 0, which bounds nothing.  For a rational m = n/d,
    |log(n/d)| >= |n - d|/max(n, d) (log(1 + x) >= x/(1 + x)), and
    max(n, d) < 2^L for L = max(len(n), len(d)).  The top bits
    n' = floor(n/2^c), d' = floor(d/2^c), c = max(0, L - 64), give
    |n - d| > (|n' - d'| - 1) 2^c; only when they agree to within 1 is
    |n - d| taken exactly, and then n/d is within 2^-62 of 1.  Lengths
    three or more apart give |log(n/d)| > log 4 > 1, and k = 0 at once.

    A real quadratic m = y = (A + B sqrt(D))/C (d None, A, B != 0) is
    read from one isqrt: F_t = floor((A + B sqrt(D)) 2^t) is
    A 2^t + isqrt(B^2 D 4^t), less one more if B < 0, for t = len(M) + 2
    and M = 1 + 2|B| (isqrt(D) + 1).  y lies strictly between F/C and
    (F + 1)/C, F = floor(F_t/2^t) >= 0, so |log y| exceeds the log of F/C
    when F > C, and of (F + 1)/C when F + 1 < C, each bounded as above.
    Else u = A - C + B sqrt(D) has |u| < 1 and y < 2, so |log y| >=
    |u|/(2C).  (A - C)^2 - D B^2 is a nonzero integer (sqrt(D) is
    irrational), so |u| > 1/|A - C - B sqrt(D)| > 1/M >= 2^(2 - t).  And
    u 2^t lies strictly inside (l, l + 1), l = F_t - C 2^t, so
    |u| 2^t > m for m = l or -l - 1, whichever is >= 0; m >= 3, and
    |log y| > 2^-(t + len(C) + 2 - len(m)), within three bits of |log y|.
    """
    if d is None:
        y, D = n, n.field.d
        M = 2 * abs(y.B) * (math.isqrt(D) + 1) + 1
        t = M.bit_length() + 2
        r = math.isqrt(y.B * y.B * D << 2 * t)
        Ft = (y.A << t) + (r if y.B > 0 else -r - 1)
        n, d = Ft >> t, y.C
        if d - 1 <= n <= d:
            l = Ft - (d << t)
            m = l if l >= 0 else -l - 1
            return max(0, t + d.bit_length() + 2 - m.bit_length()) + (root - 1).bit_length()
        if n < d:
            n += 1
    if n == d:
        return 0
    nb, db = n.bit_length(), d.bit_length()
    L, k = max(nb, db), 0
    if abs(nb - db) < 3:
        c = max(0, L - 64)
        diff = abs((n >> c) - (d >> c)) - 1
        if diff < 1:
            diff, c = abs(n - d), 0
        k = max(0, L - c - diff.bit_length() + 1)
    return k + (root - 1).bit_length()


def _atanh_sum(t: int, y: int, P: int) -> tuple[int, int]:
    """(S, E) with 0 <= 2^P atanh(x) - S < E, from T_0 = t and T_i = floor(T_(i-1) y/2^P).

    Needs x in [0, 1/3], 0 <= 2^P x - t < 1, and 0 <= 2^P x^2 - y < 5/3.
    Then for 0 <= T <= 2^P/3 the step loses 0 <= T x^2 - floor(T y/2^P) <
    T (2^P x^2 - y)/2^P + 1 < 5/9 + 1 = 14/9.  Sums floor(T_i/(2i + 1))
    while T_i > 0, say for i < K.  The shortfall d_i of T_i against the
    exact term 2^P x^(2i+1) is below 1 at i = 0 and below d_(i-1)/9 + 14/9
    after, so below 7/4.  Each summed term is then short by under 7/4 + 1,
    and the tail past K sums to at most d_K/(1 - x^2) < (7/4)(9/8) < 2:
    E = 3K + 2.  As T_i <= 2^P 3^-(2i+1), K <= P/3 + 1.
    """
    s, q = 0, 1  # q = 2i + 1
    while t:
        s += t // q
        t = t * y >> P
        q += 2
    return s, 3 * (q >> 1) + 2


@lru_cache(maxsize=None)
def _ln2(Q: int) -> tuple[int, int]:
    """log 2 = 2 atanh(1/3) at scale 2^-Q: E = 3K + 2 <= Q + 5.

    t = floor(2^Q/3) and y = floor(2^Q/9) give 0 <= 2^Q x^2 - y < 1 at x = 1/3.
    """
    s, err = _atanh_sum((1 << Q) // 3, (1 << Q) // 9, Q)
    return 2 * s + err, err


def _log_quotient(n: int, d: int, s: int, w: int) -> tuple[int, int]:
    """Enclosure (v, e) of log(n 2^s/d) at scale 2^-w, e <= 2, for ints n, d >= 1.

    The one log series (Brent and Zimmermann, sec. 4.2), run at scale 2^-P,
    P = w + _GUARD + j with j = isqrt(w)/4; errors are in units of 2^-P.
    Only the top P + 1 bits n' of n are read: n' >= 2^P once cut, so
    log n - log(n' 2^a) lies in [0, 1); so for d.  With their lengths made
    equal, n 2^s/d = 2^k r for r = n'/d' in (1/2, 2).  Where |r - 1| > 2^-j,
    n' is doubled where 3n' < 2d', and d' where 3n' > 4d', to put r in
    [2/3, 4/3]; then u_0 = floor(2^P r)/2^P, and
    u_i = floor(2^P sqrt(u_(i-1)))/2^P while |u_(i-1) - 1| > 2^-j, for
    i <= m.  Every u_i exceeds 1/2, so each floor moves a log by [0, 2),
    and log r - 2^m log u_m lies in [0, 2^(m+2)); |log r| < 0.41 is halved
    by each root, so m <= j.  Else u_m = r and m = 0.  Then
    log u_m = +-2 atanh(x), x = |u_m - 1|/(u_m + 1) < 1/3, is summed from
    X = floor(2^P x) with steps T -> floor(T Y/2^P), Y = floor(X^2/2^P):
    2^P x^2 - Y = 2^P (x - X/2^P)(x + X/2^P) + X^2/2^P - Y < 2x + 1 <= 5/3,
    as _atanh_sum needs.  Its
    E_s = 3K + 2 <= P + 5, and as x <= 2^-j, K <= P/(2j) + 1 for j >= 1.
    So V = 2^m (+-(2S + E_s) + 2) is within 2^m (E_s + 2) of 2^P log r,
    and the cuts add below 1.  A caller may hand in, for n or d, the floor
    of a real >= 2^(w + _GUARD): below 2^j more.  For k != 0, k log 2 comes
    from log 2 at scale 2^-(P + 64), whose error of P + 69 units there,
    taken |k| < 2^64 times (no int has 2^64 bits), and the floor back to
    scale 2^-P cost at most P + 70.  In all, for every w <= _PREC_CAP,
    E <= 2^j (P + 8) + P + 71 <= 2^j (2P + 79) < 2^(j+18) = 2^(P-w-2), and
    the floor to scale 2^-w adds below one unit:
    e = ceil((E + V mod 2^(P-w))/2^(P-w)) <= 2.
    """
    j = math.isqrt(w) // 4
    sh = _GUARD + j
    P = w + sh
    nb, db = n.bit_length(), d.bit_length()
    L = nb if nb > db else db
    if L > P + 1:
        L = P + 1
    a, b = nb - L, db - L
    n = n >> a if a > 0 else n << -a
    d = d >> b if b > 0 else d << -b
    k = s + a - b
    m = 0
    if abs(n - d) > d >> j:
        if 3 * n > d << 2:
            d, k = d << 1, k + 1
        elif 3 * n < d << 1:
            n, k = n << 1, k - 1
        one = 1 << P
        y = (n << P) // d
        while abs(y - one) > one >> j:
            y, m = math.isqrt(y << P), m + 1
        n, d = y, one
    x = (abs(n - d) << P) // (n + d)
    S, E = _atanh_sum(x, x * x >> P, P)
    V = (2 + 2 * S + E if n > d else 2 - 2 * S - E) << m
    E = ((E + 2) << m) + (1 << j) + 1
    if k:
        ln2, ln2_err = _ln2(P + 64)
        kl = k * ln2
        V += kl >> 64
        E += -(-(abs(k) * ln2_err + (kl & (2**64 - 1))) >> 64)
    return V >> sh, -(-(E + (V & ((1 << sh) - 1))) >> sh)


def _log_magnitude(n, d: Optional[int], w: int) -> tuple[int, int]:
    """Enclosure of log(n/d) at scale 2^-w, e <= 2, for the magnitude n/d of a LogMag.

    A rational n/d != 1 is one _log_quotient, and log 1 is enclosed
    exactly.  A real quadratic n = y = (A + B sqrt(D))/C with d None is one
    _log_quotient too: with N = |A| + |B| sqrt(D) >= |A| + |B| >=
    2^(len(|A| + |B|) - 1) and c = max(0, w + _GUARD + 1 - len(|A| + |B|)),
    L = floor(N 2^c) = |A| 2^c + isqrt(B^2 D 4^c) >= 2^(w + _GUARD), the
    floor of a real that _log_quotient makes room for.  Of one sign, y = N/C
    is L 2^-c/C.  Of opposite signs, y = |A^2 - D B^2|/(C N), with no
    cancellation, is |A^2 - D B^2| 2^c/(C L): C L <= C N 2^c < C (L + 1), so
    log(C N 2^c) - log(C L) lies in [0, 1/L), within the same room.
    """
    if d is not None:
        return (0, 0) if n == d else _log_quotient(n, d, 0, w)
    y = n
    D = y.field.d
    A, B = abs(y.A), abs(y.B)
    c = max(0, w + _GUARD + 1 - (A + B).bit_length())
    L = (A << c) + math.isqrt(B * B * D << 2 * c)
    if y.A > 0 < y.B:
        return _log_quotient(L, y.C, -c, w)
    return _log_quotient(abs(A * A - D * B * B) << c, y.C * L, 0, w)


def _quotient_ends(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int, int, int]:
    """(ln, ld, hn, hd), ld, hd > 0: [ln/ld, hn/hd] is x/y, for enclosures at one scale.

    y excludes 0; taken positive (negating both if not), x/y rises with x
    and falls with y where x >= 0, and rises with y where x < 0.
    """
    (v1, e1), (v2, e2) = x, y
    if v2 < 0:
        v1, v2 = -v1, -v2
    lo, hi = v1 - e1, v1 + e1
    return lo, v2 + e2 if lo >= 0 else v2 - e2, hi, v2 - e2 if hi >= 0 else v2 + e2


def _shifted_float(a: int, b: int, s: int) -> float:
    """a 2^s/b, for b > 0, rounded to the nearest float by int true division.

    Past the float range it rounds to inf of a's sign, as IEEE rounding does.
    """
    try:
        return (a << s) / b if s >= 0 else a / (b << -s)
    except OverflowError:
        return math.copysign(math.inf, a)


def _excludes_zero(x: tuple[int, int]) -> bool:
    return abs(x[0]) > x[1]


def _round_div(a: int, b: int) -> int:
    """a/b rounded half-even to an int, for b > 0: one divmod and a tie test."""
    q, r = divmod(a, b)
    r2 = 2 * r
    if r2 > b or (r2 == b and q & 1):
        q += 1
    return q


def _fixed_point(n: int, places: int) -> str:
    """n/10^places written with `places` fractional digits; an int has no "-0"."""
    digits = str(abs(n)).rjust(places + 1, "0")
    if places:
        digits = digits[:-places] + "." + digits[-places:]
    return "-" + digits if n < 0 else digits


def decimal_fraction(q: Fraction, places: int = 12) -> str:
    """q rounded half-even to `places` fractional digits, fixed point, no "-0"."""
    return _fixed_point(_round_div(q.numerator * 10**places, q.denominator), places)


# ---------------------------------------------------------------------------
# LogMag: the log-magnitude value type
# ---------------------------------------------------------------------------

class LogMag:
    """log(n/d)/root for a positive magnitude n/d, always exact.

    A rational magnitude is a pair of coprime positive ints n, d.  A real
    quadratic one is a QuadElem n = (A + B*sqrt(d))/C with A, B != 0, read
    under sqrt(d) -> +sqrt(d), and d is None.  Values add, subtract, scale
    by rationals and compare without any rounding; enclosures
    (_enclose(w)) serve only read-outs (decimals, floats, ratio bounds)
    and comparisons past the bit budget.
    """

    __slots__ = ("_n", "_d", "_root")

    def __init__(self, n: Union[int, "QuadElem"], d: Optional[int], root: int) -> None:
        self._n = n
        self._d = d
        self._root = root

    # -- constructors -------------------------------------------------------

    @classmethod
    def exact(cls, m: Union[RationalLike, "QuadElem"], root: int = 1) -> "LogMag":
        if root < 1:
            raise ValueError("root index must be >= 1")
        if isinstance(m, QuadElem):
            if m.sign() <= 0:
                raise ValueError("log-magnitude of a nonpositive quantity")
            return cls._positive(m, root)
        if not isinstance(m, (int, Fraction)):
            m = Fraction(m)
        if m <= 0:
            raise ValueError("log-magnitude of a nonpositive quantity")
        return cls(*_canonical_log(m.numerator, m.denominator, root))

    @classmethod
    def _positive(cls, m: "QuadElem", root: int) -> "LogMag":
        """log(m)/root in canonical form, for a QuadElem m known to be positive."""
        if m.A and m.B:
            # m/conj(m) is not +-1, so no power of m is rational and the
            # value differs from every rational-magnitude one
            return cls(m, None, root)
        if m.A:
            # gcd(A, C) = gcd(A, B, C) = 1
            return cls(*_canonical_log(m.A, m.C, root))
        n, d = m.B * m.B * m.field.d, m.C * m.C
        g = math.gcd(n, d)
        return cls(*_canonical_log(n // g, d // g, 2 * root))

    @classmethod
    def zero(cls) -> "LogMag":
        return _ZERO

    # -- inspection ----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        """Always True; traced runs record it per local term."""
        return True

    @property
    def magnitude(self) -> Union[Fraction, "QuadElem"]:
        """The magnitude, a Fraction read-out for a rational one."""
        return self._n if self._d is None else Fraction(self._n, self._d)

    @property
    def root(self) -> int:
        return self._root

    @property
    def form(self) -> tuple:
        """(n, d, root) as held: one canonical form per rational value."""
        return self._n, self._d, self._root

    def _enclose(self, w: int) -> tuple[int, int]:
        """Enclosure (v, e) of the value at scale 2^-w: [(v - e)/2^w, (v + e)/2^w].

        log m takes e <= 2 (_log_magnitude).  The division by r = root
        rounds v down, |v/r - floor(v/r)| < 1, so e/r is rounded up and one
        more unit added unless it divides exactly: ceil(2/r) + 1 <= 2 for
        r >= 2, so e <= 2 for every root.
        """
        v, e = _log_magnitude(self._n, self._d, w)
        r = self._root
        if r == 1:
            return v, e
        q, rem = divmod(v, r)
        return q, -(-e // r) + (1 if rem else 0)

    def _read_out(self, rounding, k: int = 0):
        """rounding(x, w), a monotone rounding of x/2^w, of the value (Ziv's loop).

        Accepts once both endpoints v - e and v + e of an enclosure at
        scale 2^-w round alike, which ends unless the value is a rounding
        boundary.  It never is: log 1 is enclosed exactly as [0, 0], and
        the log of any other positive algebraic number is transcendental
        (Lindemann, 1882), so log(m)/root is no rational decimal tie or
        float midpoint.  A decimal read-out rounds each endpoint on ints,
        (v -+ e) 10^places / 2^w half-even by _round_div, the rule
        decimal_fraction applies to a Fraction; a float is x/2^w by int
        true division, which rounds correctly.  Enclosures are taken at
        w + k, k bits past the loop's precision.
        """

        def agree(w):
            w += k
            v, e = self._enclose(w)
            lo = rounding(v - e, w)
            return lo if lo == rounding(v + e, w) else None

        return _refine(agree, k)

    def to_float(self) -> float:
        """The value rounded to the nearest float, from _PREC_START significant bits on."""
        k = min(_offset(*self.form), _FLOAT_OFFSET)
        f = self._read_out(lambda x, w: x / (1 << w), k)
        # a value within 2^-1075 of 0 reads 0.0 with the value's sign, not an endpoint's
        return f if f else math.copysign(0.0, self.sign())

    def decimal_str(self, places: int = 12) -> str:
        """The value rounded half-even to `places` fractional digits, fixed point."""
        scale = 10**places
        return _fixed_point(self._read_out(lambda x, w: _round_div(x * scale, 1 << w)), places)

    def __repr__(self) -> str:
        if self._root == 1:
            return f"LogMag(log {self.magnitude})"
        return f"LogMag(log({self.magnitude})/{self._root})"

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "LogMag") -> "LogMag":
        if not isinstance(other, LogMag):
            return NotImplemented
        n1, d1, r = self._n, self._d, self._root
        n2, d2 = other._n, other._d
        if other._root != r:
            r = math.lcm(r, other._root)
            n1, d1 = _power(n1, d1, r // self._root)
            n2, d2 = _power(n2, d2, r // other._root)
        if d1 is None or d2 is None:
            # a product of positive magnitudes: no sign to decide
            return LogMag._positive(_quad_product(n1, d1, n2, d2), r)
        # n1 n2/(d1 d2) in lowest terms, as in Fraction._mul
        g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
        return LogMag(*_canonical_log((n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1), r))

    def __sub__(self, other: "LogMag") -> "LogMag":
        if not isinstance(other, LogMag):
            return NotImplemented
        q, d, r = other._n, self._d, self._root
        if other._d is None and d is not None and other._root == r:
            # n/(d q) = n C (A - B sqrt(D))/(d N(A + B sqrt(D))) for q = (A + B sqrt(D))/C:
            # one element, with A, B != 0 as in q, so canonical as it stands
            n = self._n * q.C
            N = q.A * q.A - q.field.d * q.B * q.B
            return LogMag(QuadElem(q.field, n * q.A, -n * q.B, d * N), None, r)
        return self + (-other)

    def __neg__(self) -> "LogMag":
        if self._d is None:
            return LogMag(self._n._inverse(), None, self._root)
        return LogMag(self._d, self._n, self._root)

    def __mul__(self, k: RationalLike) -> "LogMag":
        if not isinstance(k, (int, Fraction)):
            return NotImplemented
        a, b = k.as_integer_ratio()
        if a == b:
            return self
        if a == 0:
            return _ZERO
        if b == 1 and a > 0 and self._d is not None and self._root % a == 0:
            # the primes of root/a divide root: the form stays canonical
            return LogMag(self._n, self._d, self._root // a)
        n, d = _power(self._n, self._d, abs(a))
        if a < 0:
            n, d = (n._inverse(), None) if d is None else (d, n)
        if d is None:
            return LogMag._positive(n, self._root * b)
        r = self._root * b
        # a power of a canonical magnitude at root 1 is canonical at root 1
        return LogMag(n, d, 1) if r == 1 else LogMag(*_canonical_log(n, d, r))

    __rmul__ = __mul__

    def _halved(self) -> "LogMag":
        """self * (1/2): (sqrt n, sqrt d, r) if n and d are squares, else (n, d, 2r).

        Both are canonical for a canonical (n, d, r): a p-th power sqrt(n/d) would make n/d one.
        """
        n, d, r = self._n, self._d, self._root
        if d is None:
            return self * Fraction(1, 2)
        a, b = math.isqrt(n), math.isqrt(d)
        return LogMag(a, b, r) if a * a == n and b * b == d else LogMag(n, d, 2 * r)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogMag):
            return NotImplemented
        n1, n2 = self._n, other._n
        if self._d is None and other._d is None and n1.field is n2.field:
            return self.compare(other) == 0
        # rational canonical forms are unique, and an irrational magnitude
        # equals no rational one, nor one of another field
        return n1 == n2 and self._d == other._d and self._root == other._root

    def __hash__(self) -> int:
        if self._d is None:
            # equal values have equal |N(m)|**(1/root)
            n, c = self._n._norm_pair()
            g = math.gcd(n, c)
            return hash(_canonical_log(abs(n) // g, c // g, self._root))
        return hash((self._n, self._d, self._root))

    def compare(self, other: "LogMag") -> int:
        """-1, 0 or +1 as self is below, equal to or above other, decided exactly.

        Both magnitudes are raised to lcm(root1, root2)/root, as in +.
        Where that passes the bit budget, enclosures of doubling precision
        tell the values apart.  Distinct rational canonical forms are
        distinct values, so there the escalation ends; equal values in
        different irrational forms raise PrecisionExhausted at the cap.
        """
        r1, r2 = self._root, other._root
        if self._n == other._n and self._d == other._d and r1 == r2:
            return 0
        r = math.lcm(r1, r2)
        try:
            return _cmp(*_power(self._n, self._d, r // r1), *_power(other._n, other._d, r // r2))
        except PrecisionExhausted:
            pass

        def separate(w):
            (v1, e1), (v2, e2) = self._enclose(w), other._enclose(w)
            diff = (v1 - v2, e1 + e2)
            return (1 if diff[0] > 0 else -1) if _excludes_zero(diff) else None

        return _refine(separate)

    def sign(self) -> int:
        n, d = self._n, self._d
        if d is None:
            # n - 1 = (A - C + B sqrt(D))/C, with C > 0
            return _quad_sign(n.A - n.C, n.B, n.field.d)
        return (n > d) - (n < d)

    def is_zero(self) -> bool:
        return self._n == self._d

    # -- ratios --------------------------------------------------------------

    def ratio_exact(self, other: "LogMag") -> Optional[Fraction]:
        """self/other as an exact Fraction whenever it is rational, for rational magnitudes.

        Decides every rational ratio of two rational magnitudes from an
        enclosure, a congruence mod one prime (_witness) and exact root
        extraction; every power it builds is at most two bits longer than
        a numerator or denominator of the operands.  None means the ratio
        is irrational, a magnitude is irrational (the ratio is then left
        undecided), or other is zero.
        """
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        if d1 is None or d2 is None or n2 == d2:
            return None
        if n1 == d1:
            return Fraction(0)
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
        # precision.  The gap is absolute, so both logs are enclosed at w
        # plus the offset of log m2 alone: |log m2| >= 2^-k.
        big = max(n2, d2).bit_length()
        k = _offset(n2, d2)

        def narrow(w):
            den = _log_magnitude(n2, d2, w + k)
            if not _excludes_zero(den):
                return None
            ends = _quotient_ends(_log_magnitude(n1, d1, w + k), den)
            ln, ld, hn, hd = ends
            # the width hn/hd - ln/ld is below 1/big^2
            return ends if (hn * ld - ln * hd) * big * big < ld * hd else None

        ln, ld, hn, hd = _refine(narrow, k)
        cand = Fraction(ln * hd + hn * ld, 2 * ld * hd).limit_denominator(big)
        p, q = cand.numerator, cand.denominator
        if not (ln * q <= p * ld and p * hd <= hn * q):
            return None
        # m1^q = m2^p, as ints, mod one prime first: a mismatch refutes p/q
        # without a q-th root
        if q > 1 and not _witness(n1, d1, n2, d2, p, q):
            return None
        a = _perfect_power(n2, q)
        b = _perfect_power(d2, q) if a is not None else None
        if b is None:
            return None
        # m1 == (a/b)**p, with a/b in lowest terms
        top, bot = (a, b) if p > 0 else (b, a)
        e = abs(p)
        if not (_is_power(n1, top, e) and _is_power(d1, bot, e)):
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
        """Outward float enclosure of self/other (other must be nonzero).

        self/other rounded to the nearest float f, read from the first
        quotient of enclosures whose endpoints both round to f, and
        widened by one float each way.  A ratio past the float range
        rounds to inf, so it reads (largest float, inf), and a negative one
        (-inf, -largest float).  Only a ratio that is a float midpoint, a
        rational whose numerator or denominator is at least 2^53, would run
        to the precision cap.
        """
        if other.is_zero():
            raise UndecidableComparison("ratio denominator is zero")
        # each log at _PREC_START significant bits and more; past
        # _FLOAT_OFFSET bits below the denominator the ratio reads 0.0
        k2 = _offset(*other.form)
        k1 = min(_offset(*self.form), k2 + _FLOAT_OFFSET)

        def nearest(w):
            # log m != 0 for m != 1: more precision will exclude 0
            den = other._enclose(w + k2)
            if not _excludes_zero(den):
                return None
            # the quotient of enclosures at scales 2^-(w + k1) and 2^-(w + k2)
            ln, ld, hn, hd = _quotient_ends(self._enclose(w + k1), den)
            lo = _shifted_float(ln, ld, k2 - k1)
            return lo if lo == _shifted_float(hn, hd, k2 - k1) else None

        f = _refine(nearest, max(k1, k2))
        return math.nextafter(f, -math.inf), math.nextafter(f, math.inf)


_ZERO = LogMag(1, 1, 1)


def _decimal_pair(x: LogMag, c: Fraction, y: LogMag, y_enclosures: dict) -> tuple[str, str]:
    """(x, c y - x) rounded half-even to 12 digits, as decimal_str(12) renders each; c >= 0.

    At each precision of Ziv's loop x and y are enclosed once, and c y - x
    is enclosed by c (v_y - e_y) floored and c (v_y + e_y) ceiled, less
    the ends of x.  Both are accepted as LogMag._read_out accepts one
    value: once both ends of each enclosure round alike, here half-up by
    one shift, a monotone rounding, so the value between them rounds
    alike too.  For LogMag values c y - x is the log of an algebraic
    number, so no rounding boundary, where half-up and half-even part:
    each text is decimal_str's correctly rounded one.  y_enclosures keeps
    y's enclosures by (form, w), for the next call with the same y.
    """
    scale = 10**12
    a, b = c.as_integer_ratio()
    key = y.form

    def agree(w):
        v, e = x._enclose(w)
        half = 1 << w - 1
        lo = ((v - e) * scale + half) >> w
        if lo != ((v + e) * scale + half) >> w:
            return None
        yv, ye = y_enclosures.get((key, w)) or y_enclosures.setdefault((key, w), y._enclose(w))
        low = ((a * (yv - ye) // b - v - e) * scale + half) >> w
        return (lo, low) if low == ((-(-a * (yv + ye) // b) - v + e) * scale + half) >> w else None

    lo, low = _refine(agree)
    return _fixed_point(lo, 12), _fixed_point(low, 12)


@lru_cache(maxsize=None)
def _root_primes(root: int) -> tuple[tuple[int, ...], int]:
    """factorize(root) as (primes, cofactor); the same few roots recur."""
    factors, cofactor = factorize(root)
    return tuple(factors), cofactor


def _witness(n1: int, d1: int, n2: int, d2: int, p: int, q: int) -> bool:
    """False only if (n1/d1)^q != (n2/d2)^p, read mod _WITNESS_PRIME (q > 0, p != 0).

    The identity is n1^q d2^p = n2^p d1^q, with the powers of p < 0 moved
    across; a true one holds mod every prime.
    """
    P = _WITNESS_PRIME
    n1, d1, n2, d2 = n1 % P, d1 % P, n2 % P, d2 % P
    if p < 0:
        n2, d2, p = d2, n2, -p
    return pow(n1, q, P) * pow(d2, p, P) % P == pow(n2, p, P) * pow(d1, q, P) % P


def _canonical_log(n: int, d: int, root: int) -> tuple[int, int, int]:
    """(n, d, root) for log(n/d)/root, coprime n, d > 0, in canonical form.

    n/d is reduced until it is no perfect p-th power for any prime p | root;
    this form is unique, making structural equality semantic.
    """
    if n == d:
        return 1, 1, 1
    if root == 1:
        return n, d, 1
    primes, cofactor = _root_primes(root)
    # the cofactor's primes exceed 1,000, and a p-th power other than 1 has
    # more than p bits: it reduces nothing whose terms are below 2^1001
    if cofactor != 1 and max(n, d).bit_length() > 1001:
        raise ExactnumError(f"cannot reduce a log-magnitude at root {root}: {cofactor} unfactored")
    r = root
    for p in primes:
        while r % p == 0:
            nr = _perfect_power(n, p)
            if nr is None:
                break
            dr = _perfect_power(d, p)
            if dr is None:
                break
            n, d = nr, dr
            r //= p
    return n, d, r


def _power(n, d: Optional[int], e: int) -> tuple:
    """(n**e, d**e) for a magnitude n/d (d None: n a QuadElem) and e >= 1.

    Refused past _BIT_BUDGET.
    """
    if e == 1:
        return n, d
    if d is None:
        bits = (n.A.bit_length() + n.B.bit_length() + n.C.bit_length()) * e
    else:
        bits = (n.bit_length() + d.bit_length()) * e
    if bits > _BIT_BUDGET:
        raise PrecisionExhausted(
            f"exact exponentiation would need ~{bits} bits (cap {_BIT_BUDGET})"
        )
    return n**e, None if d is None else d**e


def _quad_product(n1, d1: Optional[int], n2, d2: Optional[int]) -> "QuadElem":
    """(n1/d1)(n2/d2) for magnitudes of which at least one is a QuadElem (d None)."""
    if d1 is None and d2 is None:
        return n1 * n2
    q, n, d = (n1, n2, d2) if d1 is None else (n2, n1, d1)
    return QuadElem(q.field, q.A * n, q.B * n, q.C * d)


def _cmp(n1, d1: Optional[int], n2, d2: Optional[int]) -> int:
    """Sign of n1/d1 - n2/d2 for magnitudes (d None: n a QuadElem of a real field)."""
    if d1 is not None and d2 is not None:
        x, y = n1 * d2, n2 * d1
        return (x > y) - (x < y)
    if d1 is None and d2 is None:
        if n1.field is not n2.field:
            raise FieldMismatch("elements of different quadratic fields")
        # n1 - n2 = (A1 C2 - A2 C1 + (B1 C2 - B2 C1) sqrt(D))/(C1 C2), with C1 C2 > 0
        return _quad_sign(n1.A * n2.C - n2.A * n1.C, n1.B * n2.C - n2.B * n1.C, n1.field.d)
    q, n, d, s = (n1, n2, d2, 1) if d1 is None else (n2, n1, d1, -1)
    # q - n/d = (A d - n C + B d sqrt(D))/(C d), with C d > 0
    return s * _quad_sign(q.A * d - n * q.C, q.B * d, q.field.d)


def _quad_sign(A: int, B: int, d: int) -> int:
    """Sign of A + B*sqrt(d) under sqrt(d) -> +sqrt(d), for d > 0 or B = 0."""
    sa = (A > 0) - (A < 0)
    sb = (B > 0) - (B < 0)
    if sa * sb >= 0:
        return sa or sb
    # opposite signs: A + B*sqrt(d) has the sign of A exactly when A^2 > d*B^2
    return sa if A * A > d * B * B else -sa


def logmag_sum(items: Iterable[LogMag]) -> LogMag:
    """The sum, in the form of the left fold items[0] + items[1] + ...; 0 for no terms.

    A run of rational terms of the running root is multiplied in place by
    the cross gcds of __add__ and put in canonical form once, where it
    ends: a rational value has one canonical form, so the fold's
    intermediate reductions change nothing.  Any other term is added by
    __add__.
    """
    it = iter(items)
    total = next(it, _ZERO)
    # (n, d, r): total's fields, or while d is not None the run's product
    n, d, r = total._n, total._d, total._root
    for x in it:
        if x is _ZERO:  # adding log 1 leaves every form of the fold as it is
            continue
        n2, d2 = x._n, x._d
        if d is not None and d2 is not None and x._root == r:
            g1, g2 = math.gcd(n, d2), math.gcd(n2, d)
            n, d = (n // g1) * (n2 // g2), (d // g2) * (d2 // g1)
            continue
        if d is not None:
            total = LogMag(*_canonical_log(n, d, r))
        total = total + x
        n, d, r = total._n, total._d, total._root
    return total if d is None else LogMag(*_canonical_log(n, d, r))


# ---------------------------------------------------------------------------
# quadratic fields
# ---------------------------------------------------------------------------

class _Interned:
    """Immutable instances, one per constructor key, built by the subclass's __new__.

    Equality and hashing are object identity; a copy or a pickle calls the
    constructor again (on the attributes named in _ARGS) and so comes back
    as the same instance.
    """

    __slots__ = ()
    _ARGS: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._ARGS)

    @classmethod
    def _new(cls, **attrs):
        obj = object.__new__(cls)
        for name, value in attrs.items():
            object.__setattr__(obj, name, value)
        return obj


_FIELDS: dict[int, "QuadField"] = {}


class QuadField(_Interned):
    """Q(sqrt(d)) for a squarefree integer d not in {0, 1}; one instance per d."""

    __slots__ = ("d",)
    _ARGS = ("d",)

    def __new__(cls, d: int) -> "QuadField":
        field = _FIELDS.get(d)
        if field is None:
            if d in (0, 1):
                raise ValueError("d must not be 0 or 1")
            fac, cof = factorize(abs(d))
            # a cofactor below 1,000^3 is composite with no prime factor below
            # 1,000, so it is p * q: squarefree unless a square
            if any(e > 1 for e in fac.values()) or math.isqrt(cof) ** 2 == cof > 1:
                raise ValueError(f"{d} is not squarefree")
            if cof >= 10**9:
                raise ValueError(f"cannot certify {d} squarefree")
            # setdefault: of two threads building one field, both return the first
            field = _FIELDS.setdefault(d, cls._new(d=d))
        return field

    def element(self, a: RationalLike, b: RationalLike = 0) -> "QuadElem":
        """a + b*sqrt(d) for rationals a = n/m and b = k/l."""
        (n, m), (k, l) = Fraction(a).as_integer_ratio(), Fraction(b).as_integer_ratio()
        return QuadElem(self, n * l, k * m, m * l)

    def sqrt_gen(self) -> "QuadElem":
        return QuadElem(self, 0, 1, 1)

    def __repr__(self) -> str:
        return f"Q(sqrt({self.d}))"


class QuadElem:
    """(A + B*sqrt(d))/C with ints A, B, C, C > 0 and gcd(A, B, C) = 1.

    One common denominator keeps the arithmetic in ints (Cohen, A Course
    in Computational Algebraic Number Theory, sec. 4.2), and the form is
    unique, so equality and hashing are structural.  a = A/C and b = B/C
    are Fraction read-outs; a + b*sqrt(d) for rationals is QuadField.element.
    """

    __slots__ = ("field", "A", "B", "C")

    def __init__(self, field: QuadField, A: int, B: int, C: int) -> None:
        """(A + B*sqrt(d))/C for ints with C != 0, reduced to the canonical form."""
        g = math.gcd(A, B, C)
        if C < 0:
            g = -g
        self.field, self.A, self.B, self.C = field, A // g, B // g, C // g

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.C)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.C)

    def _coerce(self, other) -> Optional["QuadElem"]:
        if isinstance(other, QuadElem):
            if other.field is not self.field:
                raise FieldMismatch("elements of different quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.field, other.numerator, 0, other.denominator)
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadElem):
            return NotImplemented
        return (
            self.A == other.A and self.B == other.B and self.C == other.C
            and self.field is other.field
        )

    def __hash__(self) -> int:
        return hash((self.field, self.A, self.B, self.C))

    def __add__(self, other):
        A, B, C = self.A, self.B, self.C
        if isinstance(other, int):
            return QuadElem(self.field, A + other * C, B, C)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.field, A * o.C + o.A * C, B * o.C + o.B * C, C * o.C)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(self.field, -self.A, -self.B, self.C)

    def __sub__(self, other):
        if not isinstance(other, (QuadElem, int, Fraction)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        A, B, C = self.A, self.B, self.C
        if isinstance(other, int):
            return QuadElem(self.field, A * other, B * other, C)
        o = other if type(other) is QuadElem and other.field is self.field else self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(
            self.field, A * o.A + self.field.d * B * o.B, A * o.B + B * o.A, C * o.C
        )

    __rmul__ = __mul__

    def _inverse(self) -> "QuadElem":
        """1/y = C (A - B*sqrt(d))/(A^2 - d B^2)."""
        A, B, C = self.A, self.B, self.C
        n = A * A - self.field.d * B * B
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        return QuadElem(self.field, A * C, -B * C, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self._inverse()

    def __pow__(self, k: int):
        base = self if k >= 0 else self._inverse()
        k = abs(k)
        out = QuadElem(self.field, 1, 0, 1)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.field, self.A, -self.B, self.C)

    def norm(self) -> Fraction:
        return Fraction(*self._norm_pair())

    def _norm_pair(self) -> tuple[int, int]:
        """(A^2 - d B^2, C^2): the norm as a pair of ints, not reduced."""
        return self.A * self.A - self.field.d * self.B * self.B, self.C * self.C

    def sign(self) -> int:
        """Sign of (A + B*sqrt(d))/C under sqrt(d) -> +sqrt(d); d > 0 unless B = 0."""
        if self.B and self.field.d < 0:
            raise ValueError(f"{self!r} has no real embedding")
        return _quad_sign(self.A, self.B, self.field.d)

    def __bool__(self) -> bool:
        return bool(self.A or self.B)

    @property
    def is_rational(self) -> bool:
        return self.B == 0

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


def _place_kind(p: Optional[int], field: Optional[QuadField]) -> Optional[str]:
    """split, inert, ramified, real or complex, read from d and p; None over Q."""
    if field is None:
        return None
    d = field.d
    if p is None:
        return REAL if d > 0 else COMPLEX
    if p == 2:
        if d % 2 == 0 or d % 4 == 3:
            return RAMIFIED
        return SPLIT if d % 8 == 1 else INERT
    if d % p == 0:
        return RAMIFIED
    return SPLIT if legendre(d % p, p) == 1 else INERT


_PLACES: dict[tuple, "Place"] = {}


class Place(_Interned):
    """A place of Q (field None), or the index-th place of a quadratic field above p.

    One instance per (p, field, index), p None for the archimedean place.
    Its kind (_place_kind), and so how many indices it has, follows from
    the field and p; kind and local_degree = [F_w : Q_v] (1 for places of
    Q themselves) are set when the place is first built.  A refused place
    is not kept.
    """

    __slots__ = ("p", "field", "index", "kind", "local_degree")
    _ARGS = ("p", "field", "index")

    def __new__(cls, p: Optional[int], field: Optional[QuadField] = None, index: int = 0) -> "Place":
        key = (p, field, index)
        place = _PLACES.get(key)
        if place is None:
            if p is not None and not is_prime(p):
                raise ValueError(f"{p} is not prime")
            kind = _place_kind(p, field)
            if index != 0 and (index != 1 or kind not in (SPLIT, REAL)):
                raise ValueError(f"a {kind or 'rational'} place has no index {index!r}")
            local_degree = 1 if kind in (None, SPLIT, REAL) else 2
            place = _PLACES.setdefault(
                key, cls._new(p=p, field=field, index=index, kind=kind, local_degree=local_degree)
            )
        return place

    @classmethod
    def archimedean(cls) -> "Place":
        return _ARCHIMEDEAN

    @classmethod
    def finite(cls, p: int) -> "Place":
        """The place of Q at p."""
        return cls(p)

    @property
    def is_archimedean(self) -> bool:
        return self.p is None

    def __repr__(self) -> str:
        base = "inf" if self.p is None else str(self.p)
        if self.field is None:
            return f"v_{base}"
        return f"w_{base}[{self.kind}{self.index}]"


_ARCHIMEDEAN = Place(None)


@lru_cache(maxsize=None)
def places_above(v: Place, field: QuadField) -> tuple[Place, ...]:
    """Places of Q(sqrt(d)) above a place v of Q, in canonical order.

    Cached, as every local term over Q(sqrt(d)) asks for them; a tuple, so
    no caller can change the cached answer.
    """
    if v.field is not None:
        raise ValueError("places_above expects a place of Q")
    w = Place(v.p, field)
    return (w, Place(v.p, field, 1)) if w.kind in (SPLIT, REAL) else (w,)


# ---------------------------------------------------------------------------
# absolute values
# ---------------------------------------------------------------------------

def _log_p_power(p: int, k: int, root: int = 1) -> LogMag:
    """log(p^-k)/root for root 1 or 2 in canonical form: p^k is a square iff k is even."""
    if not k:
        return _ZERO
    if root == 2 and not k & 1:
        k, root = k >> 1, 1
    return LogMag(1, p**k, root) if k > 0 else LogMag(p**-k, 1, root)


def _abs_rational(q: RationalLike, v: Place) -> LogMag:
    if q == 0:
        raise ValuationOfZero("absolute value of zero")
    if v.is_archimedean:
        return LogMag(*_canonical_log(abs(q.numerator), q.denominator, 1))
    return _log_p_power(v.p, multiplicity(q, v.p))


def _split_valuation(y: QuadElem, p: int, index: int) -> int:
    """ord_w(y) at the split place whose root of d is s_index, s_1 = -s_0.

    Write y = c(A + Bs) with A, B coprime, so N = A^2 - dB^2 = (A + Bs)(A - Bs).
    Odd p: no p divides both factors (it would divide 2A and 2Bs), so all of
    ord_p(N) sits where A + Bs = 0 mod p, at index 0 iff t = -A/B mod p has
    2t < p, as s_0 is the smaller square root of d mod p, else at index 1,
    where B -> -B takes t to p - t; only that index counts ord_p(N).
    p = 2: if 2 | N then A, B are odd and the factors differ by 2Bs, of order 1,
    so the factor = 0 mod 4, at index 0 iff A + B = 0 mod 4 (s_0 = 1 mod 4),
    takes ord_2(N) - 1 and the other takes 1.
    """
    A, B = y.A, y.B
    g = math.gcd(A, B)
    if g != 1:
        A, B = A // g, B // g
    N = A * A - y.field.d * B * B
    own = 0
    if N % p == 0:
        if p == 2:
            own = multiplicity(N, 2) - 1 if (A + (-B if index else B)) % 4 == 0 else 1
        elif (2 * (-A * pow(B, -1, p) % p) < p) != index:
            own = multiplicity(N, p)
    # c = g/C in lowest terms, as gcd(g, C) = gcd(y.A, y.B, C) = 1
    if g != 1:
        own += multiplicity(g, p)
    return own if y.C == 1 else own - multiplicity(y.C, p)


def abs_value(x, v: Place) -> LogMag:
    """log of the Q-normalized absolute value |x|_v of a rational x, exact."""
    if isinstance(x, (int, Fraction)):
        return _abs_rational(x, v)
    raise TypeError(f"unsupported value {x!r}")
