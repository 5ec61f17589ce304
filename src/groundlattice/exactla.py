"""Exact linear algebra over the rationals: row echelon, null spaces, simplex.

Everything here takes and returns lists of :class:`fractions.Fraction` and
never rounds.  Matrices are lists of rows.  Sizes stay small (a few dozen
rows), so dense Gauss-Jordan elimination and a dense two-phase simplex are
adequate.  Both run on integer rows (fraction-free), which gives the
rational results without a gcd per entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = list[Fraction]
Mat = list[Vec]


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions; reject floats."""
    if isinstance(x, float):
        raise TypeError("exact arithmetic does not accept floats")
    return Fraction(x)


def fvec(xs: Iterable) -> Vec:
    return [frac(x) for x in xs]


def zeros(n: int) -> Vec:
    return [Fraction(0)] * n


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def mat_vec(m: Mat, v: Sequence[Fraction]) -> Vec:
    return [dot(row, v) for row in m]


def scale(v: Sequence[Fraction], c: Fraction) -> Vec:
    return [c * x for x in v]


def add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return [x + y for x, y in zip(a, b)]


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list).

    Eliminates on integer rows (:func:`integer_rref` of each input row
    times the lcm of its denominators) and divides by the pivots only at
    the end; the reduced form is unique, so this is the rational
    elimination's result without a gcd per entry.
    """
    if not m:
        return [], []
    rows, pivots = integer_rref([integer_row(row)[1] for row in m])
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
    return red + [zeros(len(m[0])) for _ in range(len(m) - len(pivots))], pivots


def integer_rref(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns the nonzero reduced rows and their pivot columns: row i is
    nonzero at ``pivots[i]`` and zero at every other pivot column, and is a
    nonzero multiple of row i of the rational reduced form.  A pivot on
    (r, c) replaces every other row i by ``m[r][c] * m[i] - m[i][c] * m[r]``
    divided by the gcd of its entries.
    """
    rows = list(m)
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f != 0:
                row = [piv * x - f * y for x, y in zip(rows[i], prow)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def null_space(m: Mat, ncols: int | None = None) -> Mat:
    """Basis (list of vectors) of {x : m @ x = 0}, exact.

    ``ncols`` must be given when ``m`` has no rows.
    """
    if not m:
        if ncols is None:
            raise ValueError("ncols required for an empty constraint matrix")
        return [[Fraction(i == j) for j in range(ncols)] for i in range(ncols)]
    cols = len(m[0])
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = zeros(cols)
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(m: Mat, b: Vec) -> Vec | None:
    """One solution of m @ x = b, or None if inconsistent."""
    if not m:
        return None
    cols = len(m[0])
    aug = [list(row) + [bi] for row, bi in zip(m, b)]
    red, pivots = rref(aug)
    for r in range(len(red)):
        if all(red[r][c] == 0 for c in range(cols)) and red[r][cols] != 0:
            return None
    x = zeros(cols)
    for r, pc in enumerate(pivots):
        if pc == cols:
            return None
        x[pc] = red[r][cols]
    return x


def in_span(basis: Mat, v: Vec) -> bool:
    """Whether v lies in the row span of ``basis``."""
    if not basis:
        return all(x == 0 for x in v)
    return solve([list(col) for col in zip(*basis)], v) is not None


def orthogonalize(vectors: Mat) -> Mat:
    """Gram-Schmidt without normalization: exact pairwise-orthogonal basis.

    Dependent inputs are dropped.  Norms stay rational only as squares, so
    the output is orthogonal, not orthonormal.
    """
    basis: Mat = []
    for v in vectors:
        w = list(v)
        for b in basis:
            nb = dot(b, b)
            if nb != 0:
                w = [x - dot(b, w) / nb * y for x, y in zip(w, b)]
        if any(x != 0 for x in w):
            basis.append(w)
    return basis


class SimplexStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def simplex_max(c: Vec, a_eq: Mat, b_eq: Vec,
                scales: Sequence[int] | None = None) -> tuple[str, Fraction | None, Vec | None]:
    """Maximize c.x subject to a_eq @ x = b_eq, x >= 0, exactly.

    Two-phase primal simplex with Bland's rule, on a fraction-free integer
    tableau: row i of the input is scaled by the lcm of its denominators
    (its artificial column carries the same factor), and the tableau is
    kept as ``M = det * T``, where ``T`` is the rational tableau of the
    current basis and ``det`` the basis determinant of the scaled system.
    A pivot on (r, s) replaces every other row by
    ``(M[r][s] * M[i] - M[i][s] * M[r]) // det``, exact by Cramer's rule
    (Bareiss; Edmonds' integer pivoting), and sets ``det = M[r][s]``.
    ``det`` stays positive, so signs and ratios read off ``M`` are those
    of ``T``, and the pivots are the rational tableau's.

    Takes and returns Fractions: (status, optimal value, optimizer).  With
    ``scales``, the rows come scaled to integers and are not rescaled:
    ``a_eq`` and ``b_eq`` hold ints, and row i stands for the constraint
    ``a_eq[i] / scales[i] = b_eq[i] / scales[i]``.
    """
    m = len(a_eq)
    n = len(c)
    if scales is None:
        scaled = [integer_row(list(row) + [r]) for row, r in zip(a_eq, b_eq)]
    else:
        scaled = [(lam, list(row) + [r]) for lam, row, r in zip(scales, a_eq, b_eq)]
    scaled = [(lam, [-x for x in ints]) if ints[-1] < 0 else (lam, ints) for lam, ints in scaled]
    det = math.prod(lam for lam, _ in scaled)
    # M = det * T with T = [a_eq | I | b_eq] (rows of negative b_eq negated)
    tab = [[det // lam * x for x in ints[:n]] + [det * (j == i) for j in range(m)]
           + [det // lam * ints[n]] for i, (lam, ints) in enumerate(scaled)]
    basis = [n + i for i in range(m)]

    def reduced_costs(cost: list[int]) -> list[int]:
        # det * (cost - cost_B T) over the columns of the tableau, rhs included
        out = [x * det for x in cost] + [0]
        for bv, row in zip(basis, tab):
            if cost[bv]:
                out = [o - cost[bv] * y for o, y in zip(out, row)]
        return out

    def pivot(pr: int, pc: int) -> None:
        nonlocal det
        prow = tab[pr]
        piv = prow[pc]
        rows = tab + [obj]
        for row in rows:
            if row is prow:
                continue
            f = row[pc]
            if f:
                row[:] = [(piv * x - f * y) // det for x, y in zip(row, prow)]
            else:
                row[:] = [piv * x // det for x in row]
        det = piv
        basis[pr] = pc
        if det < 0:  # only a drive-out pivot can be negative
            det = -det
            for row in rows:
                row[:] = [-x for x in row]

    def run() -> str:
        while True:
            enter = next((j for j, rc in enumerate(obj[:-1]) if rc > 0), None)  # Bland
            if enter is None:
                return SimplexStatus.OPTIMAL
            best = None
            for i, row in enumerate(tab):
                a = row[enter]
                if a > 0 and (best is None or (row[-1] * tab[best][enter], basis[i])
                              < (tab[best][-1] * a, basis[best])):
                    best = i  # least ratio, ties to the lowest basic variable
            if best is None:
                return SimplexStatus.UNBOUNDED
            pivot(best, enter)

    # Phase 1: maximize -(sum of artificials).  obj holds the reduced costs
    # times det (times a positive scale in phase 2) and is kept by pivot.
    obj = reduced_costs([0] * n + [-1] * m)
    status = run()
    if status != SimplexStatus.OPTIMAL or any(row[-1] for bv, row in zip(basis, tab) if bv >= n):
        return SimplexStatus.INFEASIBLE, None, None

    # Drive artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            pc = next((j for j in range(n) if tab[i][j] != 0), None)
            if pc is not None:
                pivot(i, pc)
    keep = [i for i in range(m) if basis[i] < n]
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    obj = reduced_costs(integer_row(c)[1])
    status = run()
    if status == SimplexStatus.UNBOUNDED:
        return status, None, None
    x = zeros(n)
    for row, bv in zip(tab, basis):
        x[bv] = Fraction(row[-1], det)
    return SimplexStatus.OPTIMAL, dot(c, x), x


def integer_row(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(lcm of the denominators, the row times that lcm as ints)."""
    lam = math.lcm(*(x.denominator for x in xs))
    return lam, [x.numerator * (lam // x.denominator) for x in xs]
