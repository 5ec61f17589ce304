"""Literal greatest-element membership oracle for the commutative engine.

Decides membership by enumerating *all* support subsets, comparing cones
exactly, and taking the greatest element of each equal-cone class.  Cones
are compared through complete extreme-ray enumeration over row subsets (a
null space per subset), never through the production max-support LP /
witness-kernel route or its double description, so this file is an
independent check of both.  It also holds the textbook Fraction
Gauss-Jordan elimination (``rational_rref``, ``rational_solve``,
``in_span``) that the tests take as the reference for the library's
fraction-free integer elimination.
"""

from fractions import Fraction
from itertools import combinations

from groundlattice import exactla as ela
from groundlattice.subspace import ENGINE_EXACT, from_spanning_set


def rational_rref(m):
    """Textbook Gauss-Jordan on Fractions: (reduced rows, pivot columns),
    with the zero rows kept at the bottom; an independent reference for
    the fraction-free elimination of the library."""
    m = [list(row) for row in m]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rational_solve(m, b):
    """One solution of m x = b off the reduced form of [m | b], or None
    when the system is inconsistent."""
    cols = len(m[0])
    red, pivots = rational_rref([list(row) + [bi] for row, bi in zip(m, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, pc in zip(red, pivots):
        x[pc] = row[cols]
    return x


def in_span(basis, v):
    """Whether v lies in the row span of ``basis``: adding it leaves the
    rank unchanged."""
    return len(rational_rref(list(basis) + [v])[1]) == len(rational_rref(basis)[1])


def _combine(basis, coeffs, n):
    out = [Fraction(0)] * n
    for c, b in zip(coeffs, basis):
        if c != 0:
            for i in range(n):
                out[i] += c * b[i]
    return out


def section_functions(support, u):
    """Exact basis of {g in U : g vanishes on the support}."""
    rows = [[b[x] for b in u.basis] for x in sorted(support)]
    coeffs = ela.null_space(rows, ncols=u.dim)
    return [_combine(u.basis, c, u.ambient_n) for c in coeffs]


def cone_rays(support, u):
    """All extreme rays of the cone of nonnegative section elements.

    Candidates come from (d-1)-subsets of the evaluation rows; the cone is
    pointed, so this enumeration is complete.
    """
    basis = section_functions(support, u)
    d = len(basis)
    n = u.ambient_n
    if d == 0:
        return []
    points = [x for x in range(n) if x not in support]
    rows = [[g[x] for g in basis] for x in points]
    rays = {}
    for subset in combinations(range(len(rows)), d - 1):
        sub = [rows[i] for i in subset]
        null = ela.null_space(sub, ncols=d)
        if len(null) != 1:
            continue
        v = null[0]
        vals = [ela.dot(r, v) for r in rows]
        if all(x >= 0 for x in vals):
            pass
        elif all(x <= 0 for x in vals):
            v = [-c for c in v]
        else:
            continue
        g = _combine(basis, v, n)
        total = sum(g, Fraction(0))
        if total <= 0:
            continue
        g = [x / total for x in g]
        rays[tuple(g)] = g
    return list(rays.values())


def _ray_in_cone(g, support):
    # g is nonnegative and lies in U by construction; membership in the
    # cone of `support` only asks that g vanishes there
    return all(g[x] == 0 for x in support)


def cones_equal(rays_p, support_p, rays_q, support_q):
    return (all(_ray_in_cone(r, support_q) for r in rays_p)
            and all(_ray_in_cone(r, support_p) for r in rays_q))


def random_rational_subspace(rng, n_points, extra_dims):
    """The constant-one function and ``extra_dims`` random functions with
    small numerators and denominators 1 to 3."""
    vectors = [[Fraction(1)] * n_points]
    for _ in range(extra_dims):
        vectors.append([Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                        for _ in range(n_points)])
    return from_spanning_set(vectors, engine=ENGINE_EXACT)


def brute_force_members(rng, n_points, extra_dims):
    """A random rational subspace (with the constant-one function) and its
    member supports by the literal greatest-element definition."""
    u = random_rational_subspace(rng, n_points, extra_dims)
    all_supports = [frozenset(i for i in range(n_points) if mask >> i & 1)
                    for mask in range(2 ** n_points)]
    rays = {s: cone_rays(s, u) for s in all_supports}
    members = set()
    for p in all_supports:
        same_cone = [q for q in all_supports
                     if cones_equal(rays[p], p, rays[q], q)]
        greatest = max(same_cone, key=len)
        assert all(q <= greatest for q in same_cone), \
            "equal-cone class lost its greatest element"
        if greatest == p:
            members.add(p)
    return u, members
