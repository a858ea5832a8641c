"""Log canonical thresholds of monomial data and multiplicity growth of
iterated pullbacks.

The exact pieces are:

* a two-phase simplex solver over Fraction (Bland's rule, no floats),
* Newton-polyhedron membership as exact LP feasibility,
* lct of a monomial ideal through the (1,...,1) scaling criterion, with a
  monomial-valuation witness recovered from the optimal vertex,
* spectral data of exponent matrices of monomial self-maps, giving the
  growth rate of ord((f^n)* D) along coordinate divisors: the strongly
  connected pieces come from one transitive closure of the exponent
  digraph, and the columns of A^n from the recurrence col_n = A col_{n-1}.

Everything that is only a bound is labeled as such.  The valuation family
used by the estimators (coordinate hyperplanes plus monomial valuations of
bounded weight on each standard chart) is explicit, and one scan of it,
`lct_valuation_search`, serves both the lct upper bound and the family
multiplicity, its reciprocal.  Results computed from the family are tagged
"family-restricted" or "lower-bound-family"; exactness is claimed only
where the family is provably sufficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactnum import integer_normal_form
from .polydyn import HomogPoly, Morphism, pullback

# ---------------------------------------------------------------------------
# exact linear programming


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            prow = tableau[row]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], prow)]
    basis[row] = col


def _bland(tableau, basis, ncols):
    """Run simplex on a tableau whose last row holds reduced costs.

    Only columns below `ncols` may enter the basis.  Bland's smallest-index
    rule on both the entering and the leaving choice rules out cycling.
    """
    while True:
        cost = tableau[-1]
        enter = -1
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(len(tableau) - 1):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tableau, basis, leave, enter)


def solve_lp(A, b, c):
    """Minimize c.x subject to A x = b, x >= 0, exactly over the rationals.

    Returns (status, x, objective) where status is one of "optimal",
    "infeasible", "unbounded"; x and objective are None unless optimal.
    """
    m = len(A)
    n = len(c)
    rows = []
    rhs = []
    for i in range(m):
        if len(A[i]) != n:
            raise ValueError("row length does not match the cost vector")
        r = [Fraction(v) for v in A[i]]
        bv = Fraction(b[i])
        if bv < 0:
            r = [-v for v in r]
            bv = -bv
        rows.append(r)
        rhs.append(bv)

    total = n + m
    tableau = []
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau.append(rows[i] + art + [rhs[i]])
    cost = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for i in range(m):
        cost = [cv - rv for cv, rv in zip(cost, tableau[i])]
    tableau.append(cost)
    basis = list(range(n, total))

    status = _bland(tableau, basis, total)
    if status != "optimal" or tableau[-1][-1] != 0:
        return "infeasible", None, None

    # drive leftover artificial variables out of the basis; a row where no
    # original column can pivot is a redundant constraint and is dropped
    drop = []
    for i in range(len(basis)):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), -1)
            if col >= 0:
                _pivot(tableau, basis, i, col)
            else:
                drop.append(i)
    for i in reversed(drop):
        del tableau[i]
        del basis[i]

    cost = [Fraction(c[j]) for j in range(n)] + [Fraction(0)] * m + [Fraction(0)]
    for i, bcol in enumerate(basis[: len(tableau) - 1]):
        if cost[bcol] != 0:
            f = cost[bcol]
            cost = [cv - f * rv for cv, rv in zip(cost, tableau[i])]
    tableau[-1] = cost

    status = _bland(tableau, basis, n)
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = tableau[i][-1]
    return "optimal", x, -tableau[-1][-1]


# ---------------------------------------------------------------------------
# monomial ideals, Newton polyhedra, monomial valuations


def _dominates(a, b):
    return all(x >= y for x, y in zip(a, b))


class MonomialIdeal:
    """A monomial ideal given by its minimal generating exponent vectors."""

    __slots__ = ("nvars", "generators")

    def __init__(self, nvars: int, generators):
        if nvars < 1:
            raise ValueError("need at least one variable")
        gens = set()
        for g in generators:
            e = tuple(int(v) for v in g)
            if len(e) != nvars:
                raise ValueError("generator arity mismatch")
            if any(v < 0 for v in e):
                raise ValueError("negative exponent")
            gens.add(e)
        if not gens:
            raise ValueError("the zero ideal has no monomial generators")
        # distinct h <= g componentwise forces sum(h) < sum(g), and domination is transitive:
        # taken by total degree, g is redundant iff it dominates a generator kept earlier
        kept: list[tuple[int, ...]] = []
        for g in sorted(gens, key=sum):
            if not any(_dominates(g, h) for h in kept):
                kept.append(g)
        self.nvars = nvars
        self.generators = tuple(sorted(kept))

    @property
    def is_unit(self) -> bool:
        return self.generators == ((0,) * self.nvars,)

    def ord_along(self, weights) -> int:
        """min over generators of <weights, g> (the valuation of the ideal)."""
        return min(sum(w * e for w, e in zip(weights, g)) for g in self.generators)

    def scaled(self, k: int) -> "MonomialIdeal":
        if k < 1:
            raise ValueError("scale factor must be a positive integer")
        return MonomialIdeal(self.nvars, [tuple(k * v for v in g) for g in self.generators])

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.nvars == other.nvars
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.nvars, self.generators))

    def __repr__(self):
        return f"MonomialIdeal({self.nvars}, {list(self.generators)})"


class NewtonPolyhedron:
    """conv(generators) + nonnegative orthant, with exact membership."""

    __slots__ = ("nvars", "generators")

    def __init__(self, ideal: MonomialIdeal):
        self.nvars = ideal.nvars
        self.generators = ideal.generators

    def contains(self, point) -> bool:
        q = [Fraction(v) for v in point]
        if len(q) != self.nvars:
            raise ValueError("point arity mismatch")
        if any(v < 0 for v in q):
            return False
        k = len(self.generators)
        n = self.nvars
        # lambda_1..lambda_k >= 0 convex weights, r_1..r_n >= 0 orthant shift:
        # sum lambda_j g_j + r = q and sum lambda_j = 1
        A = []
        b = []
        for i in range(n):
            row = [Fraction(g[i]) for g in self.generators]
            row += [Fraction(1) if j == i else Fraction(0) for j in range(n)]
            A.append(row)
            b.append(q[i])
        A.append([Fraction(1)] * k + [Fraction(0)] * n)
        b.append(Fraction(1))
        status, _, _ = solve_lp(A, b, [Fraction(0)] * (k + n))
        return status == "optimal"


# ---------------------------------------------------------------------------
# lct results


@dataclass(frozen=True)
class LctResult:
    """An lct value, bound, or enclosure with its certificate.

    `lower` is None when no lower bound is claimed; `upper` is None when the
    value may be +infinity (only for bounds) or, together with
    `infinite=True`, when the value is exactly +infinity (unit ideal).
    """

    lower: Fraction | None
    upper: Fraction | None
    certificate_kind: str
    witness: tuple[int, ...] | None = None
    infinite: bool = False
    note: str = ""

    def __post_init__(self):
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValueError("empty enclosure")

    @property
    def is_exact(self) -> bool:
        return self.lower is not None and self.lower == self.upper

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("result is not exact")
        return self.lower


LCT_INFINITE = LctResult(None, None, "unit-ideal", infinite=True)


def lct_monomial(ideal: MonomialIdeal) -> LctResult:
    """Exact lct of a monomial ideal via the (1,...,1) scaling criterion.

    Solves max mu subject to <u, g> >= mu for every generator g, sum u = 1,
    u >= 0, exactly; the lct is 1/mu and the optimal u scales to a primitive
    integer monomial-valuation witness attaining it.
    """
    if ideal.is_unit:
        return LCT_INFINITE
    n = ideal.nvars
    gens = ideal.generators
    k = len(gens)
    # variables: u_1..u_n, mu, s_1..s_k (surplus)
    nv = n + 1 + k
    A = []
    b = []
    for j, g in enumerate(gens):
        row = [Fraction(g[i]) for i in range(n)] + [Fraction(-1)]
        row += [Fraction(-1) if t == j else Fraction(0) for t in range(k)]
        A.append(row)
        b.append(Fraction(0))
    A.append([Fraction(1)] * n + [Fraction(0)] * (1 + k))
    b.append(Fraction(1))
    c = [Fraction(0)] * nv
    c[n] = Fraction(-1)
    status, x, _ = solve_lp(A, b, c)
    if status != "optimal":
        raise ArithmeticError(f"lct LP did not solve: {status}")
    mu = x[n]
    if mu <= 0:
        raise ArithmeticError("nonpositive optimum for a non-unit ideal")
    value = 1 / mu

    witness = tuple(integer_normal_form(x[:n])[0])

    ordw = ideal.ord_along(witness)
    if ordw <= 0 or Fraction(sum(witness), ordw) != value:
        raise ArithmeticError("witness verification failed")
    # the witness also proves maximality: for t < mu, <w, t*1> = t*sum(w) is
    # below mu*sum(w) = ord_w(I), so t*1 lies outside the Newton polyhedron
    if not NewtonPolyhedron(ideal).contains([mu] * n):
        raise ArithmeticError("boundary point escaped the Newton polyhedron")
    return LctResult(value, value, "howald-LP", witness=witness)


def _bounded_weight_vectors(n: int, bound: int):
    """Primitive nonzero vectors in {0..bound}^n, in lexicographic order."""
    for v in itertools.product(range(bound + 1), repeat=n):
        if gcd(*v) == 1:
            yield v


def lct_valuation_search(ideal: MonomialIdeal, bound: int) -> LctResult:
    """Upper bound on lct: min of (sum v)/ord_v over weights |v|_inf <= bound.

    Every monomial valuation v has log discrepancy sum(v), so each family
    member gives lct <= (sum v)/ord_v(I).  The minimum over the family is an
    upper bound which is attained once `bound` reaches the entries of some
    optimal valuation; that threshold can exceed the generator exponents.
    """
    if bound < 1:
        raise ValueError("weight bound must be >= 1")
    if ideal.is_unit:
        return LCT_INFINITE
    best = None
    best_v = None
    for v in _bounded_weight_vectors(ideal.nvars, bound):
        o = ideal.ord_along(v)
        if o == 0:
            continue
        ratio = Fraction(sum(v), o)
        if best is None or ratio < best:
            best = ratio
            best_v = v
    return LctResult(
        None,
        best,
        "valuation-witness",
        witness=best_v,
        note=f"monomial valuations with max weight {bound}",
    )


def lct_lower_bound_canonical(max_ord: int) -> LctResult:
    """The reciprocal multiplicity bound 1/M, restricted to the tested family.

    M is the largest ord_E(D) seen over whatever valuation family was
    actually evaluated; the result is labeled family-restricted because the
    untested valuations could very well see larger multiplicities.
    """
    if max_ord < 1:
        raise ValueError("max multiplicity must be >= 1")
    return LctResult(
        Fraction(1, max_ord),
        None,
        "family-restricted",
        note="reciprocal of the largest multiplicity over the tested family",
    )


def max_ord_over_family(ideal: MonomialIdeal, bound: int) -> int:
    """Largest raw ord_v(I) over the bounded monomial-valuation family."""
    if bound < 1:
        raise ValueError("weight bound must be >= 1")
    best = 0
    for v in _bounded_weight_vectors(ideal.nvars, bound):
        best = max(best, ideal.ord_along(v))
    return best


# ---------------------------------------------------------------------------
# exponent matrices and e_f(D)


class ExponentMatrix:
    """k x k nonnegative integer matrix of a monomial self-map.

    Column j holds the exponent vector of the image of the j-th coordinate,
    so (A^n)_{ij} is the order of vanishing of the pullback of the j-th
    coordinate hyperplane under the n-th iterate along the i-th one.  Every
    column must be nonzero (images are nonconstant monomials).
    """

    __slots__ = ("entries", "size")

    def __init__(self, rows):
        entries = tuple(tuple(int(v) for v in row) for row in rows)
        k = len(entries)
        if k == 0 or any(len(r) != k for r in entries):
            raise ValueError("matrix must be square and nonempty")
        if any(v < 0 for r in entries for v in r):
            raise ValueError("entries must be nonnegative")
        for j in range(k):
            if all(entries[i][j] == 0 for i in range(k)):
                raise ValueError(f"column {j} is zero: coordinate {j} has constant image")
        self.entries = entries
        self.size = k

    def __repr__(self):
        return f"ExponentMatrix({[list(r) for r in self.entries]})"


# _spectral_enclosure stops once its enclosure is this narrow, or after
# this many power steps
_ENCLOSURE_WIDTH = Fraction(1, 10**8)
_POWER_STEPS = 500


def _spectral_enclosure(sub):
    """Certified enclosure of the Perron root of an irreducible matrix.

    Works on B + I (primitive whenever B is irreducible) and subtracts 1.
    For any positive vector x, min_i (Bx)_i/x_i <= rho(B) <= max_i (Bx)_i/x_i,
    so every iterate yields valid bounds; iteration only tightens them.
    """
    k = len(sub)
    shifted = [[sub[i][j] + (1 if i == j else 0) for j in range(k)] for i in range(k)]
    x = [Fraction(1)] * k
    lo, hi = None, None
    for _ in range(_POWER_STEPS):
        y = [sum(shifted[i][j] * x[j] for j in range(k)) for i in range(k)]
        ratios = [y[i] / x[i] for i in range(k)]
        cur_lo, cur_hi = min(ratios), max(ratios)
        lo = cur_lo if lo is None else max(lo, cur_lo)
        hi = cur_hi if hi is None else min(hi, cur_hi)
        if hi - lo <= _ENCLOSURE_WIDTH:
            break
        top = max(y)
        x = []
        for v in y:
            r = (v / top).limit_denominator(10**12)
            x.append(r if r > 0 else v / top)
    return lo - 1, hi - 1


@dataclass(frozen=True)
class EfdResult:
    """Growth data for s_n = max multiplicity of the n-th pullback."""

    lower: Fraction
    upper: Fraction
    s_seq: tuple
    ratios: tuple
    column_seq: tuple
    note: str = ""

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> Fraction | None:
        return self.lower if self.exact else None

    @property
    def no_growth(self) -> bool:
        return self.value == 1


def efd_monomial_exact(A: ExponentMatrix, target_column: int, depth: int = 30) -> EfdResult:
    """Growth rate of max_i (A^n)_{i,target}: the multiplicity growth of the
    iterated pullbacks of the target coordinate divisor.

    The rate is the largest Perron root among the strongly connected pieces
    of the exponent digraph that reach the target.  Single-node pieces give
    it exactly (their loop weight); larger pieces get a certified rational
    enclosure of width <= 10^-8 (or the narrowest one 500 power steps reach).
    """
    k = A.size
    if not 0 <= target_column < k:
        raise ValueError("target column out of range")
    a = A.entries

    # Warshall closure: bit j of reach[i] is set iff a path i -> j exists
    reach = [sum(1 << j for j in range(k) if a[i][j]) for i in range(k)]
    for t in range(k):
        for i in range(k):
            if reach[i] >> t & 1:
                reach[i] |= reach[t]
    pieces = {
        tuple(j for j in range(k) if j == i or reach[i] >> j & reach[j] >> i & 1)
        for i in range(k)
        if i == target_column or reach[i] >> target_column & 1
    }
    lo = hi = Fraction(0)
    for piece in pieces:
        if len(piece) == 1:
            clo = chi = Fraction(a[piece[0]][piece[0]])
        else:
            clo, chi = _spectral_enclosure([[a[i][j] for j in piece] for i in piece])
        lo, hi = max(lo, clo), max(hi, chi)

    # column n of A^n is A times column n - 1, from the unit vector e_target
    col = [int(i == target_column) for i in range(k)]
    column_seq = []
    for _ in range(depth):
        col = [sum(a[i][j] * col[j] for j in range(k)) for i in range(k)]
        column_seq.append(tuple(col))
    s_seq = tuple(max(c) for c in column_seq)
    ratios = tuple(Fraction(s_seq[i + 1], s_seq[i]) for i in range(len(s_seq) - 1))
    note = "" if lo == hi else f"certified enclosure, width <= {float(hi - lo):.3g}"
    return EfdResult(lo, hi, s_seq, ratios, tuple(column_seq), note)


# ---------------------------------------------------------------------------
# family estimators for general self-maps


COMPOSE_CAP = 6


def family_ord(P: HomogPoly, bound: int, charts=None) -> Fraction:
    """max over charts and weights |v|_inf <= bound of ord_v(P) / sum(v).

    The normalization by sum(v) = 1 + discrepancy keeps the family values
    comparable across weights; coordinate hyperplanes are the weight-one
    members.  On each chart the maximum is the reciprocal of the bounded
    valuation search's lct bound for the chart's monomial ideal; zero means
    every chart ideal is the unit ideal.  `charts` restricts which standard
    charts contribute (default: all); a torus-invariant map compared against
    its exponent matrix should use the chart at infinity only, since the
    matrix ignores the boundary divisor.
    """
    if bound < 1:
        raise ValueError("weight bound must be >= 1")
    if P.is_zero:
        raise ValueError("zero polynomial")
    chart_list = range(P.nvars) if charts is None else [int(k) for k in charts]
    best = Fraction(0)
    for k in chart_list:
        if not 0 <= k < P.nvars:
            raise ValueError("chart index out of range")
        if P.nvars == 1:
            continue  # the chart of P^0 is a point, where P is a unit
        ideal = MonomialIdeal(P.nvars - 1, P.chart_exponents(k))
        upper = lct_valuation_search(ideal, bound).upper
        if upper is not None:
            best = max(best, 1 / upper)
    return best


@dataclass(frozen=True)
class EfdEstimate:
    """Family-restricted lower-bound data for the pullback growth rate."""

    s_seq: tuple
    ratios: tuple
    estimate: float
    exact_estimate: Fraction | None
    bound: int
    label: str = "lower-bound-family"


def efd_estimate(f: Morphism, D, N: int, bound: int = 2, charts=None) -> EfdEstimate:
    """s_n = max(1, weight * family_ord((f^n)* s_D)) for n <= N.

    The family is the bounded monomial-valuation family on the standard
    charts (restrictable via `charts`); the result is a lower-bound estimate
    of the true growth rate since unseen valuations can only increase the
    multiplicities.  The composition is formal, so maps with base points are
    accepted; only an identically vanishing pullback is an error.
    """
    if N < 1:
        raise ValueError("depth must be >= 1")
    if N > COMPOSE_CAP:
        raise ValueError(f"depth {N} exceeds the symbolic composition cap {COMPOSE_CAP}")
    weight = Fraction(D.weight)
    if weight <= 0:
        raise ValueError("multiplicity growth needs an effective divisor (weight > 0)")
    g = D.sd
    s_seq = []
    for _ in range(N):
        g = pullback(f, g)
        if g.is_zero:
            raise ValueError("pullback vanished identically (support degeneracy)")
        s_seq.append(max(Fraction(1), weight * family_ord(g, bound, charts=charts)))
    ratios = tuple(s_seq[i + 1] / s_seq[i] for i in range(len(s_seq) - 1))
    tail = ratios[-3:] if len(ratios) >= 3 else ratios
    exact_est = tail[0] if tail and all(r == tail[0] for r in tail) else None
    est = float(exact_est) if exact_est is not None else float(s_seq[-1]) ** (1.0 / N)
    return EfdEstimate(tuple(s_seq), ratios, est, exact_est, bound)


@dataclass(frozen=True)
class M0Report:
    """Outcome of the search for the threshold iterate m0."""

    found: bool
    m0: int | None
    depth: int
    rows: tuple  # (m, s_m, (e + eps)^m)
    label: str = "family-restricted"


def remark44_m0(e, eps, s_seq) -> M0Report:
    """Smallest m0 <= N with s_m <= (e + eps)^m for every m0 <= m <= N.

    s_seq is s_1..s_N, the family-restricted multiplicities of the
    pullbacks (f^m)^* D as `efd_estimate` returns them (`EfdEstimate.s_seq`),
    so 1/s_m is the matching family lct lower bound; the report says
    honestly when no such m0 exists within the tested range.
    """
    e = Fraction(e)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if e < 0:
        raise ValueError("e must be nonnegative")
    base = e + eps
    rows = []
    ok = []
    power = Fraction(1)
    for m, s in enumerate(s_seq, start=1):
        power *= base
        rows.append((m, s, power))
        ok.append(s <= power)
    m0 = None
    for m in range(len(ok), 0, -1):
        if not ok[m - 1]:
            break
        m0 = m
    return M0Report(m0 is not None, m0, len(s_seq), tuple(rows))


def cn_calculator(m_list, dim_x: int, delta_f, m: int, n_iter: int):
    """The pair (gamma, c_n) of the coordinate-size inequality constants.

    gamma = (max m_i) * (dim X + 1) and c_n = (sum m_i - gamma)/(delta^n m),
    both exact rationals; negative c_n is meaningful and allowed.
    """
    ms = [int(v) for v in m_list]
    if not ms:
        raise ValueError("empty multiplicity list")
    if any(v < 1 for v in ms):
        raise ValueError("multiplicities must be positive integers")
    if dim_x < 1:
        raise ValueError("dimension must be >= 1")
    delta = Fraction(delta_f)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if m < 1 or n_iter < 1:
        raise ValueError("m and n must be positive integers")
    gamma = Fraction(max(ms) * (dim_x + 1))
    c_n = (sum(ms) - gamma) / (delta**n_iter * m)
    return gamma, c_n
