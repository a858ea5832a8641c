import itertools
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitweil.polydyn import HomogPoly, Morphism
from orbitweil.singular import (
    LCT_INFINITE,
    ExponentMatrix,
    MonomialIdeal,
    NewtonPolyhedron,
    cn_calculator,
    efd_estimate,
    efd_monomial_exact,
    family_ord,
    lct_lower_bound_canonical,
    lct_monomial,
    lct_valuation_search,
    max_ord_over_family,
    remark44_m0,
    solve_lp,
)
from orbitweil.weil import DivisorPresentation


def form(nvars, terms):
    return HomogPoly.from_terms(nvars, terms)


SQUARING = Morphism((form(2, {(2, 0): 1}), form(2, {(0, 2): 1})))
D_X3Y = DivisorPresentation.hypersurface(form(2, {(1, 0): 1, (0, 1): -3}))
D_Y = DivisorPresentation.hypersurface(form(2, {(0, 1): 1}))


def test_solve_lp_basic():
    # min -x - y subject to x + y + s = 1
    st, x, z = solve_lp([[1, 1, 1]], [1], [-1, -1, 0])
    assert st == "optimal" and z == -1 and x[0] + x[1] == 1
    st, _, _ = solve_lp([[-1, 0]], [1], [0, 0])  # -x = 1 with x >= 0
    assert st == "infeasible"
    st, _, _ = solve_lp([[0, 1]], [1], [-1, 0])  # y = 1, minimize -x
    assert st == "unbounded"
    # redundant rows must not confuse phase 2
    st, x, z = solve_lp([[1, 1, 1], [2, 2, 2]], [1, 2], [-1, -2, 0])
    assert st == "optimal" and z == -2 and x[1] == 1


def test_monomial_ideal_reduction():
    ideal = MonomialIdeal(2, [(2, 0), (3, 0), (2, 1)])
    assert ideal.generators == ((2, 0),)
    assert not ideal.is_unit
    unit = MonomialIdeal(2, [(0, 0), (1, 2)])
    assert unit.is_unit
    with pytest.raises(ValueError):
        MonomialIdeal(2, [])
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1, -1)])
    assert MonomialIdeal(2, [(2, 0), (0, 3)]).ord_along((3, 2)) == 6


@st.composite
def _exponent_sets(draw):
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(0, 6)] * n)
    return n, draw(st.lists(vec, min_size=1, max_size=40))


@settings(max_examples=200, deadline=None)
@given(_exponent_sets())
def test_monomial_ideal_keeps_exactly_the_undominated_generators(data):
    n, vectors = data
    gens = set(vectors)
    minimal = [
        g for g in gens
        if not any(h != g and all(a >= b for a, b in zip(g, h)) for h in gens)
    ]
    assert MonomialIdeal(n, vectors).generators == tuple(sorted(minimal))


def test_newton_membership():
    newt = NewtonPolyhedron(MonomialIdeal(2, [(2, 0), (0, 3)]))
    assert not newt.contains((1, 1))
    assert newt.contains((Fraction(6, 5), Fraction(6, 5)))
    assert newt.contains((2, 0))
    assert newt.contains((5, 7))
    assert not newt.contains((Fraction(119, 100), Fraction(119, 100)))
    assert not newt.contains((-1, 5))


def test_lct_monomial_examples():
    assert lct_monomial(MonomialIdeal(1, [(1,)])).value == 1
    res = lct_monomial(MonomialIdeal(2, [(2, 0), (0, 3)]))
    assert res.value == Fraction(5, 6)
    assert res.certificate_kind == "howald-LP"
    assert res.witness == (3, 2)
    principal = lct_monomial(MonomialIdeal(2, [(3, 2)]))
    assert principal.value == Fraction(1, 3)
    assert lct_monomial(MonomialIdeal(2, [(0, 0)])).infinite
    assert LCT_INFINITE.infinite and not LCT_INFINITE.is_exact


def test_lct_grid_oracle():
    # independent certification of 5/6: scan the scaling constants c with
    # denominator <= 12 and find the largest with (1/c, 1/c) in the region
    newt = NewtonPolyhedron(MonomialIdeal(2, [(2, 0), (0, 3)]))
    best = Fraction(0)
    for den in range(1, 13):
        for num in range(1, 2 * den + 1):
            c = Fraction(num, den)
            if c > best and newt.contains((1 / c, 1 / c)):
                best = c
    assert best == Fraction(5, 6) == lct_monomial(MonomialIdeal(2, [(2, 0), (0, 3)])).value


def test_lct_valuation_search_examples():
    ideal = MonomialIdeal(2, [(2, 0), (0, 3)])
    res = lct_valuation_search(ideal, 3)
    assert res.upper == Fraction(5, 6) and res.witness == (3, 2)
    assert res.lower is None
    assert lct_valuation_search(ideal, 2).upper == 1  # bound too small
    assert lct_valuation_search(MonomialIdeal(1, [(1,)]), 1).upper == 1
    assert lct_valuation_search(MonomialIdeal(2, [(1, 1)]), 2).upper == 1
    with pytest.raises(ValueError):
        lct_valuation_search(ideal, 0)


def test_lct_lower_bound():
    assert lct_lower_bound_canonical(1).lower == 1
    assert lct_lower_bound_canonical(4).lower == Fraction(1, 4)
    assert lct_lower_bound_canonical(2).certificate_kind == "family-restricted"
    ideal = MonomialIdeal(2, [(2, 0), (0, 3)])
    m = max_ord_over_family(ideal, 2)
    assert m == 3  # weights (2,1): min(4, 3)
    bound = lct_lower_bound_canonical(m)
    assert bound.lower == Fraction(1, 3) <= lct_monomial(ideal).value


def _random_ideal(rng):
    nvars = rng.randint(1, 3)
    gens = []
    for _ in range(rng.randint(1, 4)):
        vec = [rng.randint(0, 6) for _ in range(nvars)]
        if not any(vec):
            vec = [min(c + 1, 6) for c in vec]
        gens.append(tuple(vec))
    return MonomialIdeal(nvars, gens)


def test_howald_vs_search_agreement():
    rng = random.Random(0)
    for _ in range(50):
        ideal = _random_ideal(rng)
        exact = lct_monomial(ideal)
        search = lct_valuation_search(ideal, 6)
        assert search.upper == exact.value, ideal
        # the family bound can never exceed the exact value
        fam = lct_lower_bound_canonical(max_ord_over_family(ideal, 6))
        assert fam.lower <= exact.value


def test_search_bound_adaptive():
    # with the weight bound taken from the LP witness itself, the search
    # provably contains the optimum and must agree exactly, always
    rng = random.Random(7)
    for _ in range(30):
        ideal = _random_ideal(rng)
        exact = lct_monomial(ideal)
        b = max(exact.witness)
        assert lct_valuation_search(ideal, b).upper == exact.value


def test_search_needs_more_than_generator_exponents():
    # documented caveat: for (x^4, y^5, z^6) the optimal valuation is
    # (15, 12, 10), so a weight bound equal to the largest exponent (6)
    # is not sufficient even though all exponents are <= 6
    ideal = MonomialIdeal(3, [(4, 0, 0), (0, 5, 0), (0, 0, 6)])
    exact = lct_monomial(ideal)
    assert exact.value == Fraction(37, 60)
    assert exact.witness == (15, 12, 10)
    assert lct_valuation_search(ideal, 6).upper > exact.value
    assert lct_valuation_search(ideal, 15).upper == exact.value


def test_lct_monotonicity_chains():
    rng = random.Random(11)
    for _ in range(15):
        ideal = _random_ideal(rng)
        current = ideal
        for _ in range(3):
            gens = [list(g) for g in current.generators]
            j = rng.randrange(len(gens))
            positive = [i for i, v in enumerate(gens[j]) if v > 0]
            if not positive:
                break
            gens[j][positive[rng.randrange(len(positive))]] -= 1
            bigger = MonomialIdeal(current.nvars, gens)
            res_small, res_big = lct_monomial(current), lct_monomial(bigger)
            if res_big.infinite:
                break
            assert res_small.value <= res_big.value
            current = bigger


def test_lct_scaling():
    rng = random.Random(13)
    for _ in range(10):
        ideal = _random_ideal(rng)
        base = lct_monomial(ideal).value
        for k in (2, 3, 5):
            assert lct_monomial(ideal.scaled(k)).value == base / k


def test_exponent_matrix_validation():
    with pytest.raises(ValueError):
        ExponentMatrix([[0, 1], [0, 0]])  # first column zero
    with pytest.raises(ValueError):
        ExponentMatrix([[1, 0, 0], [0, 1, 0]])
    A = ExponentMatrix([[2, 1], [0, 2]])
    assert efd_monomial_exact(A, 0, depth=3).column_seq[2] == (8, 0)
    assert efd_monomial_exact(A, 1, depth=3).column_seq[2] == (12, 8)


# nonnegative k x k matrices, k <= 5, with no zero column; mostly zeros, so
# that paths through several pieces are common
_EXPONENT_ROWS = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), min_size=k, max_size=k),
        min_size=k,
        max_size=k,
    )
).filter(lambda rows: all(any(r[j] for r in rows) for j in range(len(rows))))


def _mpf(q):
    return mpmath.mpf(q.numerator) / q.denominator


@settings(max_examples=100, deadline=None)
@given(_EXPONENT_ROWS)
# the path 0 -> 2 -> 1 -> 3 brings the loop at 0 to target 3 through a
# lower-numbered node
@example([[5, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 1]])
def test_efd_encloses_the_spectral_radius_over_the_nodes_reaching_the_target(rows):
    k = len(rows)
    A = ExponentMatrix(rows)
    radius = {}
    for t in range(k):
        reaching = {t}
        while True:
            more = {i for i in range(k) for j in reaching if rows[i][j]} - reaching
            if not more:
                break
            reaching |= more
        nodes = tuple(sorted(reaching))
        res = efd_monomial_exact(A, t, depth=0)
        with mpmath.workdps(50):
            if nodes not in radius:
                sub = mpmath.matrix([[rows[i][j] for j in nodes] for i in nodes])
                radius[nodes] = max(abs(e) for e in mpmath.eig(sub)[0])
            # a defective eigenvalue of a k x k matrix is good to ~50/k digits
            slack = mpmath.mpf(10) ** (1 - 50 // k)
            assert _mpf(res.lower) - slack <= radius[nodes] <= _mpf(res.upper) + slack


@settings(max_examples=100, deadline=None)
@given(_EXPONENT_ROWS, st.integers(0, 12))
def test_column_seq_is_the_target_column_of_the_matrix_powers(rows, depth):
    k = len(rows)
    columns = [efd_monomial_exact(ExponentMatrix(rows), t, depth=depth).column_seq
               for t in range(k)]
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    for n in range(depth):
        power = [[sum(power[i][m] * rows[m][j] for m in range(k)) for j in range(k)]
                 for i in range(k)]
        for t in range(k):
            assert columns[t][n] == tuple(power[i][t] for i in range(k))


def test_efd_diagonal_exact():
    res = efd_monomial_exact(ExponentMatrix([[2, 0], [0, 2]]), 0, depth=10)
    assert res.exact and res.value == 2
    assert res.s_seq == tuple(2**n for n in range(1, 11))
    assert all(r == 2 for r in res.ratios)
    assert not res.no_growth


def test_efd_jordan_block():
    res = efd_monomial_exact(ExponentMatrix([[2, 1], [0, 2]]), 1, depth=30)
    assert res.exact and res.value == 2
    for n in range(1, 31):
        assert res.column_seq[n - 1][0] == n * 2 ** (n - 1)
        assert res.s_seq[n - 1] == max(n * 2 ** (n - 1), 2**n)
    last = res.ratios[-1]  # s_30 / s_29
    assert abs(float(last) - 2) / 2 < 0.07
    assert last == Fraction(30 * 2**29, 29 * 2**28)


def test_efd_golden_ratio_enclosure():
    res = efd_monomial_exact(ExponentMatrix([[1, 1], [1, 0]]), 0, depth=12)
    assert not res.exact and res.value is None
    assert Fraction(16180, 10000) <= res.lower <= res.upper <= Fraction(16181, 10000)
    fib = [1, 1]
    for _ in range(12):
        fib.append(fib[-1] + fib[-2])
    assert res.s_seq == tuple(fib[1:13])  # s_n = F(n+1) with F(1) = F(2) = 1


def test_efd_permutation_no_growth():
    res = efd_monomial_exact(ExponentMatrix([[0, 1], [1, 0]]), 0, depth=6)
    assert res.exact and res.value == 1 and res.no_growth


def test_efd_reducible_mixed():
    # node 0 feeds node 1; larger loop on 0 dominates the target column 1
    res = efd_monomial_exact(ExponentMatrix([[3, 1], [0, 2]]), 1, depth=8)
    assert res.exact and res.value == 3
    # but column 0 never sees node 1: its rate is just the loop at 0
    res0 = efd_monomial_exact(ExponentMatrix([[3, 0], [1, 2]]), 0, depth=8)
    assert res0.exact and res0.value == 3


def test_family_ord():
    g = form(2, {(0, 4): 1})  # y^4
    assert family_ord(g, 2) == 4
    assert family_ord(form(2, {(1, 0): 1, (0, 1): -3}), 3) == 0
    mono = form(3, {(4, 4, 1): 1})
    assert family_ord(mono, 2) == 4
    assert family_ord(mono, 2, charts=(2,)) == 4
    assert family_ord(form(3, {(32, 16, 33): 1}), 2, charts=(2,)) == 32
    assert family_ord(form(3, {(32, 16, 33): 1}), 2) == 33


def _family_ord_by_weights(P, bound, charts):
    best = Fraction(0)
    for k in charts:
        support = P.chart_exponents(k)
        for v in itertools.product(range(bound + 1), repeat=P.nvars - 1):
            o = min(sum(w * e for w, e in zip(v, m)) for m in support) if any(v) else 0
            if o:
                best = max(best, Fraction(o, sum(v)))
    return best


def test_family_ord_is_the_largest_weighted_order_over_the_weight_box():
    rng = random.Random(29)
    forms = [form(1, {(3,): 1}), form(1, {(0,): 5})]
    for _ in range(300):
        nvars, degree = rng.randint(1, 4), rng.randint(0, 5)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = [0] * nvars
            for _ in range(degree):
                e[rng.randrange(nvars)] += 1
            terms[tuple(e)] = rng.choice([1, -2, Fraction(1, 3)])
        forms.append(HomogPoly(nvars, degree, terms))
    for P in forms:
        bound = rng.randint(1, 3)
        charts = sorted(rng.sample(range(P.nvars), rng.randint(1, P.nvars)))
        assert family_ord(P, bound) == _family_ord_by_weights(P, bound, range(P.nvars))
        assert family_ord(P, bound, charts) == _family_ord_by_weights(P, bound, charts)
    assert family_ord(form(1, {(3,): 1}), 2) == 0


def test_efd_estimate_squaring():
    est = efd_estimate(SQUARING, D_Y, 6)
    assert est.s_seq == tuple(Fraction(2**n) for n in range(1, 7))
    assert est.exact_estimate == 2 and est.estimate == 2.0
    assert est.label == "lower-bound-family"
    est2 = efd_estimate(SQUARING, D_X3Y, 6)
    assert est2.s_seq == (1, 1, 1, 1, 1, 1)
    assert est2.exact_estimate == 1
    with pytest.raises(ValueError):
        efd_estimate(SQUARING, D_Y, 9)


def _monomial_realization():
    # x -> x^2, y -> x y^2 on the torus, homogenized to degree 3
    return Morphism(
        (
            form(3, {(2, 0, 1): 1}),
            form(3, {(1, 2, 0): 1}),
            form(3, {(0, 0, 3): 1}),
        )
    )


def test_efd_estimate_matches_matrix_on_torus_charts():
    f = _monomial_realization()
    d = DivisorPresentation.hypersurface(form(3, {(0, 1, 0): 1}))
    matrix = efd_monomial_exact(ExponentMatrix([[2, 1], [0, 2]]), 1, depth=6)
    est = efd_estimate(f, d, 6, charts=(2,))
    assert est.s_seq == tuple(Fraction(s) for s in matrix.s_seq[:6])
    assert est.ratios[-1] == matrix.ratios[4]
    # with all charts the boundary divisor at infinity takes over from n = 4
    full = efd_estimate(f, d, 6)
    assert full.s_seq[:3] == est.s_seq[:3]
    assert full.s_seq[3] == 33 > est.s_seq[3] == 32
    assert full.s_seq[5] == 473


def test_submultiplicativity_on_computed_ranges():
    est = efd_estimate(SQUARING, D_Y, 6)
    s = [None] + list(est.s_seq)
    for m in range(1, 6):
        for n in range(1, 7 - m):
            assert s[m + n] <= s[m] * s[n]
    est2 = efd_estimate(SQUARING, D_X3Y, 6)
    s2 = [None] + list(est2.s_seq)
    for m in range(1, 6):
        for n in range(1, 7 - m):
            assert s2[m + n] <= s2[m] * s2[n]
    # the max-over-family sequence is NOT submultiplicative in general:
    # the Jordan-block data has s_3 = 12 > 8 = s_1 * s_2
    matrix = efd_monomial_exact(ExponentMatrix([[2, 1], [0, 2]]), 1, depth=3)
    assert matrix.s_seq[2] == 12 > matrix.s_seq[0] * matrix.s_seq[1] == 8


def test_remark44_m0():
    found = remark44_m0(1, Fraction(1, 2), efd_estimate(SQUARING, D_X3Y, 6).s_seq)
    assert found.found and found.m0 == 1
    assert found.rows[0] == (1, Fraction(1), Fraction(3, 2))
    ok = remark44_m0(2, Fraction(1, 2), efd_estimate(SQUARING, D_Y, 6).s_seq)
    assert ok.found and ok.m0 == 1
    missing = remark44_m0(1, Fraction(1, 2), efd_estimate(SQUARING, D_Y, 6).s_seq)
    assert not missing.found and missing.m0 is None
    assert missing.depth == 6
    with pytest.raises(ValueError):
        remark44_m0(1, 0, efd_estimate(SQUARING, D_Y, 6).s_seq)


def test_remark44_partial_suffix():
    # s_m = 1 for all m but the bound dips below 1 early when e + eps < 1:
    # (3/4)^m >= 1 never holds, so no suffix works at all
    rep = remark44_m0(Fraction(1, 4), Fraction(1, 2), efd_estimate(SQUARING, D_X3Y, 6).s_seq)
    assert not rep.found


def test_cn_calculator():
    gamma, c1 = cn_calculator([1, 1, 1], 1, 2, 1, 1)
    assert gamma == 2 and c1 == Fraction(1, 2)
    gamma, c2 = cn_calculator([1], 2, 3, 1, 2)
    assert gamma == 3 and c2 == Fraction(-2, 9)
    gamma, c1 = cn_calculator([2, 2, 2, 2], 1, 2, 2, 1)
    assert gamma == 4 and c1 == 1
    with pytest.raises(ValueError):
        cn_calculator([], 1, 2, 1, 1)
    with pytest.raises(ValueError):
        cn_calculator([1, 0], 1, 2, 1, 1)
