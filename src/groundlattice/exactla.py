"""Exact linear algebra over the rationals: row echelon, null spaces, simplex.

Nothing here rounds.  Matrices are lists of rows.  Sizes stay small (a few
dozen rows), so dense Gauss-Jordan elimination and a dense two-phase
simplex are adequate.  Everything runs on integer rows (fraction-free),
which gives the rational results without a gcd per entry: rational rows
go in through :func:`integer_row`; ``rank`` and ``null_space`` take
rational or integer rows, and ``null_space`` and ``orthogonalize`` return
primitive integer vectors.  The simplex (:class:`Tableau`) works on
integers only, with each row kept primitive: one gcd per rewritten row,
and only the rows a pivot touches are rewritten.
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


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


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
    """The pivot count of one :func:`integer_rref` of the rows scaled by
    :func:`integer_row`; rational or integer rows."""
    return len(integer_rref([integer_row(row)[1] for row in m])[1])


def null_space(m: Mat, ncols: int | None = None) -> list[list[int]]:
    """Basis of {x : m @ x = 0} as primitive integer vectors, exact.

    One :func:`integer_rref` of the rows scaled by :func:`integer_row`;
    the vector of free column f is positive at f, zero at the other free
    columns, and a positive multiple of the rational basis vector with a 1
    at f.  ``ncols`` must be given when ``m`` has no rows.
    """
    if not m:
        if ncols is None:
            raise ValueError("ncols required for an empty constraint matrix")
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    cols = len(m[0])
    rows, pivots = integer_rref([integer_row(row)[1] for row in m])
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(cols) if c not in pivot_set):
        # x[fc] = lam and x[pc] = -row[fc] * lam / row[pc] on each pivot row
        lam = math.lcm(*(row[pc] for row, pc in zip(rows, pivots) if row[fc]))
        v = [0] * cols
        v[fc] = lam
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc] * lam // row[pc]
        basis.append(primitive(v))
    return basis


def primitive(v: list[int]) -> list[int]:
    """An integer vector divided by the gcd of its entries."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def orthogonalize(vectors: list[list[int]]) -> list[list[int]]:
    """Fraction-free Gram-Schmidt: a pairwise-orthogonal basis of the span
    of integer vectors, each vector primitive and a positive multiple of
    the rational Gram-Schmidt vector.

    Against each basis vector b already found, w becomes
    ``<b, b> w - <b, w> b``; each coefficient is computed once, and a zero
    one leaves w as it is, so orthogonal primitive inputs come back
    verbatim.  Dependent inputs are dropped.
    """
    basis, norms = [], []
    for w in vectors:
        for b, nb in zip(basis, norms):
            c = dot(b, w)
            if c:
                w = primitive([nb * x - c * y for x, y in zip(w, b)])
        if any(w):
            basis.append(primitive(w))
            norms.append(dot(basis[-1], basis[-1]))
    return basis


class SimplexStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class Tableau:
    """Primal simplex with Bland's rule over {x >= 0 : a_eq @ x = b_eq}.

    The constructor runs phase I from the artificial basis and drives the
    artificials out; each :meth:`maximize` runs phase II from the feasible
    basis the last one left, so Bland's rule still terminates.  Each row of
    ``tab``, and the reduced-cost row ``obj``, is the primitive positive
    integer multiple of its row of the rational tableau ``T`` of the
    current basis, so signs and ratios read off ``tab`` are those of ``T``
    and the pivots are the rational tableau's.  A pivot on (r, s) rewrites
    only the rows that are nonzero in column s, each to
    ``piv * row - row[s] * tab[r]`` divided by the gcd of its entries
    (Edmonds' integer pivoting; Bareiss keeps every row at ``det * T``
    instead, so no entry here exceeds its Bareiss counterpart).
    The artificial columns are not stored: phase I reads its reduced costs
    off the column sums of the start, an artificial that leaves the basis
    never re-enters, and a row whose artificial cannot be driven out is
    zero and dropped.  The basic value of row i is
    ``tab[i][-1] / tab[i][basis[i]]``.  Rational rows go in scaled by
    :func:`integer_row`; scaling a row changes the phase-I path, so the
    optimizer may change, but not the optimal value.

    ``obj`` is also the dual read.  After an optimal :meth:`maximize` of
    c, it is a positive multiple of the reduced costs d = c - A^T pi, where
    pi is the dual row of the optimal basis, and its last entry is minus
    that multiple of the optimum pi . b.  Every feasible x has
    c . x = pi . b + d . x with d <= 0, so each column with ``obj[j] < 0``
    is zero in every optimizer.
    """

    def __init__(self, a_eq: list[list[int]], b_eq: Sequence[int]):
        m = len(a_eq)
        n = len(a_eq[0]) if m else 0
        # T = [a_eq | I | b_eq], rows of negative b_eq negated; phase I
        # maximizes -(sum of artificials), whose reduced costs are the
        # column sums of T
        tab = [[x if r >= 0 else -x for x in row] + [abs(r)] for row, r in zip(a_eq, b_eq)]
        self.obj = primitive([sum(col) for col in zip(*tab)] or [0])
        self.tab = [primitive(row) for row in tab]
        self.basis = [n + i for i in range(m)]
        self.feasible = self._run() == SimplexStatus.OPTIMAL and not any(
            row[-1] for bv, row in zip(self.basis, self.tab) if bv >= n)
        if not self.feasible:
            return
        # Drive artificials out of the basis where possible.
        for i in range(m):
            if self.basis[i] >= n:
                pc = next((j for j in range(n) if self.tab[i][j] != 0), None)
                if pc is not None:
                    self._pivot(i, pc)
        keep = [i for i in range(m) if self.basis[i] < n]
        self.tab = [self.tab[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]

    def maximize(self, c: Sequence[int]) -> tuple[str, list[int] | None, int | None]:
        """(status, x, det) of max c.x: the optimizer is ``x / det`` with
        ``det > 0``, the lcm of the basic entries (x and det are None
        unless the status is optimal)."""
        if not self.feasible:
            return SimplexStatus.INFEASIBLE, None, None
        self.obj = self._reduced_costs(c)
        if self._run() == SimplexStatus.UNBOUNDED:
            return SimplexStatus.UNBOUNDED, None, None
        det = math.lcm(*(row[bv] for row, bv in zip(self.tab, self.basis)))
        x = [0] * len(c)
        for row, bv in zip(self.tab, self.basis):
            x[bv] = row[-1] * (det // row[bv])
        return SimplexStatus.OPTIMAL, x, det

    def _reduced_costs(self, cost: Sequence[int]) -> list[int]:
        # a positive multiple of cost - cost_B T over the columns, rhs included
        basic = [(cost[bv], row[bv], row) for bv, row in zip(self.basis, self.tab) if cost[bv]]
        lam = math.lcm(*(b for _, b, _ in basic))
        out = [x * lam for x in cost] + [0]
        for c, b, row in basic:
            f = c * (lam // b)
            out = [o - f * y for o, y in zip(out, row)]
        return primitive(out)

    def _pivot(self, pr: int, pc: int) -> None:
        tab = self.tab
        prow = tab[pr]
        piv = prow[pc]
        if piv < 0:  # only a drive-out pivot can be negative
            prow = tab[pr] = [-x for x in prow]
            piv = -piv
        for i, row in enumerate(tab):
            f = row[pc]
            if f and i != pr:
                tab[i] = primitive([piv * x - f * y for x, y in zip(row, prow)])
        f = self.obj[pc]
        if f:
            self.obj = primitive([piv * x - f * y for x, y in zip(self.obj, prow)])
        self.basis[pr] = pc

    def _run(self) -> str:
        tab, basis = self.tab, self.basis
        while True:
            obj = self.obj
            for enter in range(len(obj) - 1):  # Bland: the first improving column
                if obj[enter] > 0:
                    break
            else:
                return SimplexStatus.OPTIMAL
            best = None
            for i, row in enumerate(tab):
                a = row[enter]
                if a > 0 and (best is None or (row[-1] * tab[best][enter], basis[i])
                              < (tab[best][-1] * a, basis[best])):
                    best = i  # least ratio, ties to the lowest basic variable
            if best is None:
                return SimplexStatus.UNBOUNDED
            self._pivot(best, enter)


def simplex_max(c: Sequence[int], a_eq: list[list[int]],
                b_eq: Sequence[int]) -> tuple[str, list[int] | None, int | None]:
    """Maximize c.x subject to a_eq @ x = b_eq, x >= 0: :meth:`Tableau.maximize`."""
    return Tableau(a_eq, b_eq).maximize(c)


def integer_row(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(lcm of the denominators, the row times that lcm as ints)."""
    lam = math.lcm(*(x.denominator for x in xs))
    return lam, [x.numerator * (lam // x.denominator) for x in xs]
