"""Exact rational linear algebra: row echelon, null spaces, Gram-Schmidt, simplex."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bruteforce_oracle import in_span, rational_rref, rational_solve
from groundlattice import exactla as ela


def to_float(m):
    return np.array([[float(x) for x in row] for row in m])


def random_rational_matrix(rng, rows, cols, den=7):
    return [[Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, den))) for _ in range(cols)]
            for _ in range(rows)]


def test_rank_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        m = random_rational_matrix(rng, rows, cols)
        assert ela.rank(m) == np.linalg.matrix_rank(to_float(m), tol=1e-9)


def test_null_space_annihilates_and_has_complementary_dimension():
    rng = np.random.default_rng(11)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        m = random_rational_matrix(rng, rows, cols)
        basis = ela.null_space(m)
        assert len(basis) == cols - ela.rank(m)
        for v in basis:
            assert all(ela.dot(r, v) == 0 for r in m)
        if basis:
            assert ela.rank(basis) == len(basis)


def test_null_space_empty_matrix_needs_ncols():
    assert len(ela.null_space([], ncols=3)) == 3
    with pytest.raises(ValueError):
        ela.null_space([])


def integer_rows(vecs):
    return [ela.integer_row(v)[1] for v in vecs]


def test_orthogonalize_gives_orthogonal_spanning_set():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vecs = random_rational_matrix(rng, 5, 4)
        basis = ela.orthogonalize(integer_rows(vecs))
        assert len(basis) == ela.rank(vecs)
        for i in range(len(basis)):
            for j in range(i):
                assert ela.dot(basis[i], basis[j]) == 0
        for v in vecs:
            assert in_span(basis, v)


def reference_gram_schmidt(vectors):
    """Classical Gram-Schmidt from the textbook, on Fractions: every
    coefficient <b, v> / <b, b> is recomputed from scratch against the
    input vector v (in exact arithmetic this equals the running-vector
    form)."""
    basis = []
    for v in vectors:
        w = [Fraction(x) for x in v]
        for b in basis:
            coeff = sum(x * y for x, y in zip(b, v)) / sum(x * x for x in b)
            w = [wi - coeff * bi for wi, bi in zip(w, b)]
        if any(x != 0 for x in w):
            basis.append(w)
    return basis


def random_span_inputs(rng, rows, cols):
    """Random rational vectors with dependent and zero vectors among them."""
    vecs = random_rational_matrix(rng, rows, cols)
    for _ in range(2):
        a, b = (vecs[int(i)] for i in rng.integers(0, len(vecs), size=2))
        c = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        vecs.insert(int(rng.integers(0, len(vecs) + 1)), [x + c * y for x, y in zip(a, b)])
    vecs.insert(int(rng.integers(0, len(vecs) + 1)), ela.zeros(cols))
    return vecs


def test_orthogonalize_matches_reference_gram_schmidt():
    # each integer vector is the primitive positive multiple of the
    # rational Gram-Schmidt vector
    rng = np.random.default_rng(17)
    for _ in range(40):
        vecs = random_span_inputs(rng, int(rng.integers(1, 6)), int(rng.integers(1, 7)))
        basis = ela.orthogonalize(integer_rows(vecs))
        reference = reference_gram_schmidt(vecs)
        assert len(basis) == len(reference) == ela.rank(vecs)
        for b, r in zip(basis, reference):
            assert all(isinstance(x, int) for x in b) and math.gcd(*b) == 1
            expected = ela.integer_row(r)[1]
            assert b == [x // math.gcd(*expected) for x in expected]


def test_orthogonalize_passes_orthogonal_inputs_verbatim():
    vecs = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1]]
    basis = ela.orthogonalize(vecs)
    assert all(b is v for b, v in zip(basis, vecs)) and len(basis) == 3
    assert ela.orthogonalize([[2, 2, 0], [3, -3, 0]]) == [[1, 1, 0], [1, -1, 0]]


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        ela.frac(0.5)
    assert ela.frac("2/3") == Fraction(2, 3)


def simplex(c, a, b):
    """simplex_max on rational data: each row of [a | b], and c, scaled to
    integers by integer_row; the answer mapped back to Fractions as
    (status, optimal value, optimizer)."""
    rows = [ela.integer_row(list(row) + [r])[1] for row, r in zip(a, b)]
    status, x, det = ela.simplex_max(ela.integer_row(c)[1], [r[:-1] for r in rows],
                                     [r[-1] for r in rows])
    if status != ela.SimplexStatus.OPTIMAL:
        return status, None, None
    assert det > 0
    y = [Fraction(v, det) for v in x]
    return status, ela.dot(c, y), y


class TestSimplex:
    def test_simple_bounded_lp(self):
        # max x1 subject to x1 + x2 = 1, x >= 0  ->  x = (1, 0)
        status, val, x = simplex(
            ela.fvec([1, 0]), [ela.fvec([1, 1])], ela.fvec([1]))
        assert status == ela.SimplexStatus.OPTIMAL
        assert val == 1
        assert x == ela.fvec([1, 0])

    def test_infeasible(self):
        # x1 + x2 = -1 with x >= 0 cannot hold
        status, _, _ = simplex(
            ela.fvec([1, 0]), [ela.fvec([1, 1])], ela.fvec([-1]))
        assert status == ela.SimplexStatus.INFEASIBLE

    def test_unbounded(self):
        # max x1 with x1 - x2 = 0: ray (t, t)
        status, _, _ = simplex(
            ela.fvec([1, 0]), [ela.fvec([1, -1])], ela.fvec([0]))
        assert status == ela.SimplexStatus.UNBOUNDED

    def test_degenerate_transport_like_lp(self):
        # max y1 over the set {y >= 0, sum y = 1, y1 + y2 - y3 - y4 = 0}
        status, val, y = simplex(
            ela.fvec([1, 0, 0, 0]),
            [ela.fvec([1, 1, 1, 1]), ela.fvec([1, 1, -1, -1])],
            ela.fvec([1, 0]))
        assert status == ela.SimplexStatus.OPTIMAL
        assert val == Fraction(1, 2)
        assert sum(y) == 1

    def test_matches_exhaustive_vertex_search_on_random_lps(self):
        # Oracle: enumerate basic feasible points of {y >= 0, Ay = b} by
        # solving every square subsystem; compare optimal values.
        from itertools import combinations
        rng = np.random.default_rng(23)
        used = 0
        for _ in range(60):
            m, n = 2, int(rng.integers(3, 6))
            a = random_rational_matrix(rng, m, n, den=4)
            b = [Fraction(1), Fraction(int(rng.integers(-1, 2)))]
            c = ela.fvec([int(rng.integers(-3, 4)) for _ in range(n)])
            best = None
            for cols in combinations(range(n), m):
                sub = [[a[i][j] for j in cols] for i in range(m)]
                sol = rational_solve(sub, b)
                if sol is None or any(x < 0 for x in sol):
                    continue
                y = ela.zeros(n)
                for jj, cc in enumerate(cols):
                    y[cc] = sol[jj]
                val = ela.dot(c, y)
                best = val if best is None else max(best, val)
            status, val, y = simplex(c, a, b)
            if best is None:
                # no basic feasible point: LP infeasible or feasible set
                # unbounded without vertices; skip ambiguous cases
                continue
            used += 1
            if status == ela.SimplexStatus.OPTIMAL:
                assert val >= best
                assert all(x >= 0 for x in y)
                assert [ela.dot(r, y) for r in a] == b
                # optimal value of an LP with vertices equals the best vertex
                # when bounded
                assert val == best
            else:
                assert status == ela.SimplexStatus.UNBOUNDED
        assert used >= 20


def best_vertex_value(c, a, b):
    """Largest c.y over the basic feasible points of {y >= 0, a y = b}, found
    by solving every square subsystem; None when there is none."""
    from itertools import combinations
    m, n = len(a), len(c)
    best = None
    for cols in combinations(range(n), m):
        sol = rational_solve([[row[j] for j in cols] for row in a], b)
        if sol is None or any(x < 0 for x in sol):
            continue
        y = ela.zeros(n)
        for jj, cc in enumerate(cols):
            y[cc] = sol[jj]
        val = ela.dot(c, y)
        best = val if best is None else max(best, val)
    return best


def test_tableau_reoptimizes_each_objective_from_one_phase_one():
    # one phase I, then phase II from whatever basis the last objective
    # left, on general LPs (redundant rows, negative right-hand sides) and
    # on LPs shaped like the cone sections (homogeneous rows plus
    # sum(y) = 1); each optimum must be the best vertex
    rng = np.random.default_rng(53)
    seen = set()
    for t in range(80):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, m + 5))
        a = random_rational_matrix(rng, m, n, den=5)
        if t % 2:
            a.append([Fraction(1)] * n)
            b = [Fraction(0)] * m + [Fraction(1)]
        else:
            if rng.random() < 0.3:
                a.append([Fraction(-3, 2) * x for x in a[0]])
            b = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5))) for _ in a]
        rows = [ela.integer_row(list(row) + [r])[1] for row, r in zip(a, b)]
        tableau = ela.Tableau([r[:-1] for r in rows], [r[-1] for r in rows])
        for _ in range(4):
            c = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(n)]
            best = best_vertex_value(c, a, b)
            status, x, det = tableau.maximize(ela.integer_row(c)[1])
            seen.add(status)
            if status == ela.SimplexStatus.INFEASIBLE:
                assert best is None
            elif status == ela.SimplexStatus.UNBOUNDED:
                assert best is not None and t % 2 == 0
            else:
                assert det > 0
                y = [Fraction(v, det) for v in x]
                assert all(v >= 0 for v in y) and [ela.dot(r, y) for r in a] == b
                assert ela.dot(c, y) == best
    assert seen == {ela.SimplexStatus.OPTIMAL, ela.SimplexStatus.INFEASIBLE,
                    ela.SimplexStatus.UNBOUNDED}


class TestSimplexEdgeCases:
    def test_beale_cycling_lp_terminates_at_known_optimum(self):
        # Beale (1955): cycles under the largest-coefficient rule; Bland's
        # rule must terminate.  Slack columns x1..x3, then x4..x7.
        c = ela.fvec([0, 0, 0, "3/4", -150, "1/50", -6])
        a = [ela.fvec([1, 0, 0, "1/4", -60, "-1/25", 9]),
             ela.fvec([0, 1, 0, "1/2", -90, "-1/50", 3]),
             ela.fvec([0, 0, 1, 0, 0, 1, 0])]
        status, val, x = simplex(c, a, ela.fvec([0, 0, 1]))
        assert status == ela.SimplexStatus.OPTIMAL
        assert val == Fraction(1, 20)
        assert x == ela.fvec(["3/100", 0, 0, "1/25", 0, 1, 0])

    def test_redundant_rows_are_dropped(self):
        # rows 2 and 3 repeat row 1 (scaled) and row 4 is 0 = 0: their
        # artificials stay basic at 0 after phase 1
        a = [ela.fvec([1, 1, 1]), ela.fvec([2, 2, 2]), ela.fvec(["1/3", "1/3", "1/3"]),
             ela.fvec([0, 0, 0]), ela.fvec([1, -1, 0])]
        b = ela.fvec([1, 2, "1/3", 0, 0])
        status, val, x = simplex(ela.fvec([0, 0, 1]), a, b)
        assert (status, val, x) == (ela.SimplexStatus.OPTIMAL, 1, ela.fvec([0, 0, 1]))
        status, val, x = simplex(ela.fvec([1, 0, 0]), a, b)
        assert (status, val, x) == (ela.SimplexStatus.OPTIMAL, Fraction(1, 2),
                                    ela.fvec(["1/2", "1/2", 0]))

    def test_negative_right_hand_sides(self):
        # -x1 - x2 - x3 = -1 and x1 - x2 = -1/2: x2 = x1 + 1/2
        a = [ela.fvec([-1, -1, -1]), ela.fvec([1, -1, 0])]
        b = ela.fvec([-1, "-1/2"])
        status, val, x = simplex(ela.fvec([1, 0, 0]), a, b)
        assert (status, val, x) == (ela.SimplexStatus.OPTIMAL, Fraction(1, 4),
                                    ela.fvec(["1/4", "3/4", 0]))
        status, _, _ = simplex(ela.fvec([1, 0, 0]), [ela.fvec([1, 1, 1])],
                                       ela.fvec([-1]))
        assert status == ela.SimplexStatus.INFEASIBLE

    def test_rows_with_different_denominators(self):
        # max x1 + x2 over x1/3 + x2/7 + x3 = 1/5, x1/11 - x2/2 = 0
        a = [ela.fvec(["1/3", "1/7", 1]), ela.fvec(["1/11", "-1/2", 0])]
        b = ela.fvec(["1/5", 0])
        c = ela.fvec([1, 1, "1/13"])
        status, val, x = simplex(c, a, b)
        assert status == ela.SimplexStatus.OPTIMAL
        assert [ela.dot(r, x) for r in a] == b and all(v >= 0 for v in x)
        assert val == best_vertex_value(c, a, b) == ela.dot(c, x)
        # x3 = 0, x2 = 2 x1 / 11, so x1 (1/3 + 2/77) = 1/5
        assert x == [Fraction(231, 415), Fraction(42, 415), Fraction(0)]

    def test_matches_exhaustive_vertex_search_up_to_four_rows(self):
        rng = np.random.default_rng(29)
        seen = set()
        for _ in range(160):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m, m + 4))
            a = random_rational_matrix(rng, m, n, den=6)
            b = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 6))) for _ in range(m)]
            c = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(n)]
            best = best_vertex_value(c, a, b)
            status, val, y = simplex(c, a, b)
            seen.add(status)
            if status == ela.SimplexStatus.INFEASIBLE:
                # a nonempty {y >= 0, a y = b} always has a vertex
                assert best is None
            elif status == ela.SimplexStatus.UNBOUNDED:
                assert best is not None
            else:
                assert all(x >= 0 for x in y) and [ela.dot(r, y) for r in a] == b
                assert val == best == ela.dot(c, y)
        assert seen == {ela.SimplexStatus.OPTIMAL, ela.SimplexStatus.INFEASIBLE,
                        ela.SimplexStatus.UNBOUNDED}


# --------------------------------------------------------------------------
# rational references: the same algorithms on Fractions; the integer
# versions must give identical results
# --------------------------------------------------------------------------

def rational_simplex_max(c, a_eq, b_eq):
    m, n = len(a_eq), len(c)
    tab = []
    for i in range(m):
        row, r = list(a_eq[i]), b_eq[i]
        if r < 0:
            row, r = [-x for x in row], -r
        tab.append(row + [Fraction(int(i == j)) for j in range(m)] + [r])
    basis = [n + i for i in range(m)]

    def pivot(tab, pr, pc):
        piv = tab[pr][pc]
        tab[pr] = [x / piv for x in tab[pr]]
        for i in range(len(tab)):
            if i != pr and tab[i][pc] != 0:
                f = tab[i][pc]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[pr])]
        basis[pr] = pc

    def run(tab, obj, allowed):
        while True:
            enter = None
            for j in allowed:
                if j not in basis:
                    z = sum(obj[basis[i]] * tab[i][j] for i in range(len(tab)))
                    if obj[j] - z > 0:
                        enter = j
                        break
            if enter is None:
                return ela.SimplexStatus.OPTIMAL
            ratios = sorted((tab[i][-1] / tab[i][enter], basis[i], i)
                            for i in range(len(tab)) if tab[i][enter] > 0)
            if not ratios:
                return ela.SimplexStatus.UNBOUNDED
            pivot(tab, ratios[0][2], enter)

    phase1 = [Fraction(0)] * n + [Fraction(-1)] * m
    status = run(tab, phase1, range(n + m))
    if status != ela.SimplexStatus.OPTIMAL or any(
            tab[i][-1] != 0 for i in range(m) if basis[i] >= n):
        return ela.SimplexStatus.INFEASIBLE, None, None
    for i in range(m):
        if basis[i] >= n:
            pc = next((j for j in range(n) if tab[i][j] != 0), None)
            if pc is not None:
                pivot(tab, i, pc)
    keep = [i for i in range(m) if basis[i] < n]
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis[:] = [basis[i] for i in keep]
    if run(tab, list(c), range(n)) == ela.SimplexStatus.UNBOUNDED:
        return ela.SimplexStatus.UNBOUNDED, None, None
    x = ela.zeros(n)
    for i, bv in enumerate(basis):
        x[bv] = tab[i][-1]
    return ela.SimplexStatus.OPTIMAL, ela.dot(c, x), x


def test_null_space_is_primitive_multiple_of_rational_reference():
    rng = np.random.default_rng(41)
    for _ in range(200):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        m = random_rational_matrix(rng, rows, cols)
        if rows > 1 and rng.random() < 0.3:
            m[-1] = [Fraction(2, 3) * x - y for x, y in zip(m[0], m[1])]
        red, pivots = rational_rref(m)
        free = [f for f in range(cols) if f not in pivots]
        basis = ela.null_space(m)
        assert len(basis) == len(free)
        for f, v in zip(free, basis):
            assert all(isinstance(x, int) for x in v) and math.gcd(*v) == 1
            reference = [Fraction(int(j == f)) for j in range(cols)]
            for r, pc in enumerate(pivots):
                reference[pc] = -red[r][f]
            assert v[f] > 0 and v == [v[f] * x for x in reference]


def test_simplex_matches_rational_reference():
    # same pivots, so the same status, value and optimizer as the rational
    # simplex on the rows scaled to integers, on LPs shaped like the cone
    # sections (homogeneous rows plus sum(y) = 1) and on general ones with
    # redundant rows and negative right-hand sides; a positive integer
    # factor on a row may change the phase-1 path, but not the status or
    # the optimal value
    rng = np.random.default_rng(37)
    seen = set()
    for t in range(300):
        m = int(rng.integers(0, 5))
        n = int(rng.integers(2, 9))
        a = random_rational_matrix(rng, m, n, den=5)
        if m and rng.random() < 0.3:
            a.append([Fraction(-3, 2) * x for x in a[0]])
        if t % 2:
            b = [Fraction(0)] * len(a) + [Fraction(1)]
            a.append([Fraction(1)] * n)
        else:
            b = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5))) for _ in a]
        c = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(n)]
        result = simplex(c, a, b)
        scaled = [[Fraction(x) for x in ela.integer_row(list(row) + [r])[1]]
                  for row, r in zip(a, b)]
        assert result == rational_simplex_max(c, [r[:-1] for r in scaled],
                                              [r[-1] for r in scaled])
        factors = [int(rng.integers(1, 4)) for _ in a]
        status, val, _ = simplex(c, [[f * x for x in row] for f, row in zip(factors, a)],
                                 [f * r for f, r in zip(factors, b)])
        assert (status, val) == result[:2]
        seen.add(result[0])
    assert len(seen) == 3
