"""Operator subspaces U of hermitian matrices and the sections L(p).

Two engines share one interface:

* ``float-hermitian`` — basis elements are complex hermitian ndarrays,
  orthonormal under the trace inner product.
* ``exact-commutative`` — the ambient algebra is the diagonal one, i.e.
  rational functions on a finite configuration space.  Bases are kept
  as pairwise-orthogonal primitive integer vectors (orthonormality would
  need irrational norms); only the coordinates and projections handed
  back are Fractions.

Both engines give ``perp``, a basis of the orthogonal complement U⊥,
computed on first use.  The section L(p) = U ∩ Herm(range(1 - p))
is read off U or off U⊥, whichever side costs less.

A float U whose elements commute is a polytope in disguise:
:meth:`OperatorSubspace.exact_reading` reads it, on first request, as
rational functions on the columns of a joint eigenbasis, an exact-engine
subspace on which the ray enumerations of the float engine run (see
:func:`read_exact`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import prod

import numpy as np

from . import exactla as ela
from .config import DEFAULT_TOL
from .errors import InputError
from .linalg import (
    CANON_TOL,
    Projection,
    eigh,
    herm_coords,
    herm_from_coords,
    hermitian_matrix,
    is_hermitian,
    nullspace_cols,
    range_cols,
    trace_inner,
)

ENGINE_FLOAT = "float-hermitian"
ENGINE_EXACT = "exact-commutative"


def orthonormalize_hermitian(mats, tol_rank: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Trace-orthonormal basis of the span of hermitian matrices.

    Runs :func:`range_cols` on the matrices read as real vectors, whose
    dot product is the trace inner product; its real basis vectors are
    real combinations of the inputs, so they stay hermitian.  Each input
    is first scaled to unit norm, so that the rank does not depend on how
    the inputs are scaled; zero and dependent inputs are dropped.
    """
    if not mats:
        return []
    stack = np.stack([np.asarray(m, dtype=np.complex128) for m in mats])
    flat = stack.reshape(len(stack), -1).view(float)
    norms = np.linalg.norm(flat, axis=1)
    q = range_cols((flat[norms > 0] / norms[norms > 0, None]).T, tol_rank)
    out = np.ascontiguousarray(q.T).view(complex).reshape(-1, *stack.shape[1:])
    return list(0.5 * (out + out.conj().transpose(0, 2, 1)))


@dataclass
class OperatorSubspace:
    """A linear subspace of the hermitian part of the ambient algebra."""

    ambient_n: int
    engine: str
    basis: list                      # ndarrays (float) or primitive int vectors (exact)
    contains_identity: bool
    site_structure: tuple | None = None   # (N, dims) when built from a composite system
    # k when U is the k-local space of site_structure (exact engine)
    locality: int | None = field(default=None, compare=False)
    # float engine: the basis stacked in one (dim, n, n) ndarray, of which
    # the matrices in ``basis`` are views
    stacked: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _perp: list | np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _readings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.is_exact:
            n = self.ambient_n
            self.stacked = np.stack(self.basis) if self.basis else np.zeros((0, n, n), complex)
            self.basis = list(self.stacked)

    @property
    def perp(self) -> list | np.ndarray:
        """Basis of the orthogonal complement U⊥, so that g lies in U exactly
        when g is orthogonal to it: primitive int rows (exact engine), or
        trace-orthonormal hermitian matrices stacked in one ndarray (float).
        Computed on first use and kept."""
        if self._perp is None:
            if self.is_exact:
                self._perp = ela.null_space(self.basis, ncols=self.ambient_n)
            else:
                coords = nullspace_cols(herm_coords(self.stacked))
                self._perp = herm_from_coords(coords.T, self.ambient_n)
        return self._perp

    @cached_property
    def perp_signs(self) -> list[tuple[int, int]]:
        """The vectors of U⊥ (exact engine) that the exact cone analysis cuts
        by, each as the bitmasks of the points where it is positive and
        where it is negative: the :func:`local_circuit_signs` of a k-local
        space, else the rows of ``perp``."""
        if self.locality is not None:
            return local_circuit_signs(self.site_structure[1], self.locality)
        return [(sum(1 << x for x, v in enumerate(w) if v > 0),
                 sum(1 << x for x, v in enumerate(w) if v < 0)) for w in self.perp]

    def exact_reading(self, tol_rank: float = DEFAULT_TOL) -> ExactReading | None:
        """This float U read as an exact-engine subspace (:func:`read_exact`),
        or None when it does not commute or is not rational within
        ``tol_rank``, and on the exact engine.  Computed on first request
        for each tolerance and kept."""
        if self.is_exact:
            return None
        if tol_rank not in self._readings:
            self._readings[tol_rank] = read_exact(self, tol_rank)
        return self._readings[tol_rank]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_exact(self) -> bool:
        return self.engine == ENGINE_EXACT

    def zero_projection(self) -> Projection:
        return Projection.zero(self.ambient_n, commutative=self.is_exact)

    def identity_projection(self) -> Projection:
        return Projection.identity(self.ambient_n, commutative=self.is_exact)

    def basis_as_matrices(self) -> list[np.ndarray]:
        """Float view of the basis (diagonal embedding in the exact engine)."""
        if not self.is_exact:
            return list(self.basis)
        return [np.diag([float(x) for x in v]).astype(np.complex128) for v in self.basis]

    def coefficients_of(self, a):
        """Coordinates of the orthogonal projection of ``a`` onto U
        (Fractions on the exact engine)."""
        if self.is_exact:
            return [Fraction(ela.dot(b, a), ela.dot(b, b)) for b in self.basis]
        return np.array([trace_inner(b, a).real for b in self.basis])

    def element_from(self, coeffs):
        if self.is_exact:
            out = ela.zeros(self.ambient_n)
            for c, b in zip(coeffs, self.basis):
                if c != 0:
                    out = [o + c * x for o, x in zip(out, b)]
            return out
        return np.tensordot(np.asarray(coeffs, dtype=float), self.stacked, axes=1)


@dataclass
class ExactReading:
    """A commuting float U as rational functions on the n columns of a joint
    eigenbasis ``frame``: ``exact`` is the exact-engine subspace they span.
    Its functions are constant on each joint eigenspace of U, so every
    support of a ray's kernel is a union of them, and its span of columns
    does not depend on the basis chosen inside them.  ``off_diagonal`` is
    the largest off-diagonal norm of an orthonormal basis element of U in
    the frame, and ``rational`` the sine of the largest principal angle
    between the diagonals and ``exact``; both were at most tol_rank."""

    frame: np.ndarray
    exact: OperatorSubspace
    off_diagonal: float
    rational: float

    def support_of(self, p: Projection) -> frozenset[int] | None:
        """The points S with p = frame[:, S] frame[:, S]*, read off the
        diagonal of p in the frame (0 or 1 within CANON_TOL), or None when
        p is not diagonal there."""
        d = self.frame.conj().T @ p.matrix() @ self.frame
        diag = np.diag(d).real
        if np.max(np.abs(d - np.diag(diag))) > CANON_TOL or \
                np.max(np.minimum(np.abs(diag), np.abs(1.0 - diag))) > CANON_TOL:
            return None
        return frozenset(np.flatnonzero(diag > 0.5).tolist())

    def lift(self, support) -> Projection:
        """The projection onto the frame columns of an exact support."""
        return Projection(n=len(self.frame), image_basis=self.frame[:, sorted(support)])

    def matrix(self, g: list[int]) -> np.ndarray:
        """The unit-trace frame diag(g) frame* of an exact function g >= 0."""
        return (self.frame * (np.array(g, dtype=float) / sum(g))) @ self.frame.conj().T


def read_exact(u: OperatorSubspace, tol_rank: float = DEFAULT_TOL) -> ExactReading | None:
    """Read a float U as rational functions on a joint eigenbasis, or None.

    The frame W holds the eigenvectors of one fixed combination of the
    basis, with weights that depend on nothing but dim U (simultaneous
    diagonalisation, Bunse-Gerstner, Byers & Mehrmann 1993).  Every basis
    element must be diagonal in W within tol_rank; that fails when U does
    not commute, or when an eigenvalue of the combination mixes joint
    eigenspaces.  The diagonals (dim U x n, columns in the eigenvalue
    order of the combination) are brought to reduced row-echelon form by
    Gauss-Jordan with partial pivoting, and each entry of that form is
    rounded to the nearest fraction with denominator at most
    tol_rank^(-1/3), so that an irrational entry lands well outside
    tol_rank; the fractions must span dim U functions within tol_rank of
    the diagonals, which fails on a U such as span{1, diag(0, 1, sqrt 2)}.
    The bound applies to the reduced form, so a rational U whose reduction
    needs larger denominators also reads as None.
    """
    weights = np.random.default_rng(0).normal(size=u.dim)
    frame = eigh(np.tensordot(weights, u.stacked, axes=1))[1]
    d = frame.conj().T @ u.stacked @ frame
    diag = np.einsum("kii->ki", d).real
    off_diagonal = float(np.max(np.linalg.norm(d - diag[:, :, None] * np.eye(u.ambient_n),
                                               axis=(1, 2)), initial=0.0))
    if off_diagonal > tol_rank:
        return None
    rows, r = diag.copy(), 0
    for c in range(u.ambient_n):        # Gauss-Jordan with partial pivoting
        if r == len(rows):
            break
        i = r + int(np.argmax(np.abs(rows[r:, c])))
        if abs(rows[i, c]) <= tol_rank:
            continue
        rows[[r, i]] = rows[[i, r]]
        rows[r] /= rows[r, c]
        rows[np.arange(len(rows)) != r] -= np.outer(np.delete(rows[:, c], r), rows[r])
        r += 1
    if not r or r != u.dim:
        return None
    bound = round(tol_rank ** (-1 / 3))
    fractions = [[Fraction(x).limit_denominator(bound) for x in row] for row in rows]
    span = range_cols(np.array(fractions, dtype=float).T, tol_rank)
    rational = float(np.linalg.norm(diag - (diag @ span) @ span.T, 2))
    if span.shape[1] != r or rational > tol_rank:
        return None
    return ExactReading(frame=frame, exact=from_spanning_set(fractions, ENGINE_EXACT),
                        off_diagonal=off_diagonal, rational=rational)


@dataclass
class LinearSection:
    """Basis of L(p) = {u in U : p u = u p = 0}: primitive integer vectors
    (exact), or orthonormal matrices stacked in one (dim, n, n) ndarray
    (float) with the orthonormal basis ``face`` of the range of 1 - p when
    the section was read off that range."""

    base_projection: Projection
    basis: list | np.ndarray
    dim: int
    face: np.ndarray | None = None


def local_circuit_signs(dims: tuple[int, ...], k: int) -> list[tuple[int, int]]:
    """Sign bitmasks of product vectors that span the complement of the
    k-local functions on sites of sizes ``dims``.

    Each is a product over the sites, in the order of the configuration
    index (site 0 the most significant): on k + 1 sites e_b - e_c with
    b < c, on every other site one point e_a.  Any function of at most k
    sites sums to zero against it, and these vectors span U⊥.  A
    permutation of equal-sized sites, or of the levels of one site, maps
    the set onto itself up to sign, so cuts by them decide the same cones
    on every image of a support under such a symmetry, which a basis of
    U⊥ does not.
    """
    n_sites = len(dims)
    strides = [prod(dims[i + 1:]) for i in range(n_sites)]
    out = []
    for nu in combinations(range(n_sites), k + 1):
        rest = [i for i in range(n_sites) if i not in nu]
        for pairs in product(*(combinations(range(dims[i]), 2) for i in nu)):
            for point in product(*(range(dims[i]) for i in rest)):
                base = sum(strides[i] * a for i, a in zip(rest, point))
                signs = [0, 0]       # positive, negative: by the parity of the c's
                for picks in product((0, 1), repeat=k + 1):
                    x = base + sum(strides[i] * pair[c] for i, pair, c in zip(nu, pairs, picks))
                    signs[sum(picks) % 2] |= 1 << x
                out.append((signs[0], signs[1]))
    return out


def from_spanning_set(matrices, engine: str = ENGINE_FLOAT,
                      tol_rank: float = DEFAULT_TOL,
                      config_dims: tuple[int, ...] | None = None) -> OperatorSubspace:
    """Build an OperatorSubspace from a spanning set.

    ``matrices`` holds hermitian ndarrays (float engine) or rational
    vectors over a configuration space (exact engine: ints, Fractions or
    strings like '2/3', no floats), of which the exact engine keeps the
    :func:`exactla.orthogonalize` basis of the rows scaled to integers.
    """
    items = list(matrices)
    if not items:
        raise InputError("spanning set must be non-empty")
    if engine == ENGINE_FLOAT:
        dims = {np.asarray(m).shape for m in items}
        if len(dims) != 1:
            raise InputError(f"mixed matrix shapes in spanning set: {sorted(dims)}")
        n = items[0].shape[0] if hasattr(items[0], "shape") else len(items[0])
        mats = [hermitian_matrix(m) for m in items]
        for m, given in zip(mats, items):
            if not is_hermitian(np.asarray(given, dtype=np.complex128), tol=1e-9):
                raise InputError("spanning matrices must be hermitian")
        basis = orthonormalize_hermitian(mats, tol_rank)
        ident = np.eye(n, dtype=np.complex128)
        resid = ident - sum((trace_inner(b, ident).real * b for b in basis),
                            np.zeros((n, n), dtype=np.complex128))
        has_id = float(np.linalg.norm(resid)) <= tol_rank * np.sqrt(n)
        return OperatorSubspace(ambient_n=n, engine=engine, basis=basis,
                                contains_identity=has_id)
    if engine == ENGINE_EXACT:
        sizes = {len(v) for v in items}
        if len(sizes) != 1:
            raise InputError(f"mixed vector lengths in spanning set: {sorted(sizes)}")
        n = len(items[0])
        if config_dims is not None:
            total = 1
            for d in config_dims:
                total *= d
            if total != n:
                raise InputError(
                    f"config_dims {tuple(config_dims)} give {total} configurations, "
                    f"but vectors have length {n}", field="config_dims")
        basis = ela.orthogonalize([ela.integer_row(ela.fvec(v))[1] for v in items])
        # Parseval: 1 is in the span exactly when its projection has norm² n
        has_id = sum(Fraction(sum(b) ** 2, ela.dot(b, b)) for b in basis) == n
        site = (len(config_dims), tuple(config_dims)) if config_dims else None
        return OperatorSubspace(ambient_n=n, engine=engine, basis=basis,
                                contains_identity=has_id, site_structure=site)
    raise InputError(f"unknown engine {engine!r}", field="engine")


def project_onto(a, u: OperatorSubspace):
    """Orthogonal projection of ``a`` onto U under the trace inner product."""
    if u.is_exact:
        if len(a) != u.ambient_n:
            raise InputError("dimension mismatch in project_onto")
        return u.element_from(u.coefficients_of(ela.fvec(a)))
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (u.ambient_n, u.ambient_n):
        raise InputError("dimension mismatch in project_onto")
    return u.element_from(u.coefficients_of(a))


def supported_on(u: OperatorSubspace, points: list[int]) -> list[list[int]]:
    """Primitive integer basis of {g in U : g = 0 off the sorted ``points``}
    (exact engine): the null space of the rows of U⊥ restricted to them."""
    span = []
    for v in ela.null_space([[w[x] for x in points] for w in u.perp], ncols=len(points)):
        g = [0] * u.ambient_n
        for x, vx in zip(points, v):
            g[x] = vx
        span.append(g)
    return span


def rows_over_u(u: OperatorSubspace, b: np.ndarray) -> np.ndarray:
    """The U side of L(p), one column per basis element u_k of U.

    For the orthonormal image basis b of p the part of u outside
    H = Herm(range(1 - p)) is p u + (1-p) u p, with squared norm
    |u b|^2 + |(1-p) u b|^2, so the rows are the entries of u_k b and of
    (1-p) u_k b: 4 rank n real rows from one product, whose singular
    values are the sines of the principal angles between U and H.
    """
    ub = (u.stacked.reshape(-1, u.ambient_n) @ b).reshape(u.dim, u.ambient_n, -1)
    off = ub - b @ (b.conj().T @ ub)
    return np.concatenate([ub, off], axis=1).reshape(u.dim, -1).view(float).T


def rows_over_h(u: OperatorSubspace, face: np.ndarray) -> np.ndarray:
    """The H side of L(p), one column per coordinate of Herm(m) for the
    orthonormal basis ``face`` (n x m) of the range of 1 - p.

    Y is in the null space exactly when face Y face* is orthogonal to U⊥,
    so the rows are the Herm(m) coordinates of face* w face for the basis
    elements w of U⊥; the singular values are again the sines of the
    principal angles between U and H.
    """
    (n, m), k = face.shape, len(u.perp)
    # two matrix products over all of U⊥: w face, then face* (w face)
    w = (u.perp.reshape(-1, n) @ face).reshape(k, n, m).transpose(1, 0, 2).reshape(n, -1)
    return herm_coords((face.conj().T @ w).reshape(m, k, m).transpose(1, 0, 2))


def linear_section(p: Projection, u: OperatorSubspace,
                   tol_rank: float = DEFAULT_TOL) -> LinearSection:
    """Basis of L(p) = {v in U : p v = v p = 0} = U ∩ Herm(range(1 - p)).

    Float engine: the null space of one of two forms, :func:`rows_over_u`
    in the dim U coefficients of U, or :func:`rows_over_h` in the m^2
    coordinates of Herm(range(1 - p)) for m = n - rank(p), which also
    hands back its face basis.  The H side is taken when it has fewer
    unknowns, counting the face as n more unless it is read off a
    support: the QR that gives it costs about as much.  The
    nonzero singular values of both are the sines of the principal angles
    between U and H, so one cutoff tol_rank * max(1, sigma_max) decides
    alike on either side.  Exact engine: :func:`supported_on` the
    complement of p, as primitive integer vectors.
    """
    if p.n != u.ambient_n:
        raise InputError("projection dimension does not match subspace")
    if u.is_exact:
        if not p.is_commutative:
            raise InputError("exact engine needs support-based projections")
        funcs = supported_on(u, sorted(set(range(p.n)) - p.classical_support))
        return LinearSection(base_projection=p, basis=funcs, dim=len(funcs))
    if u.dim == 0:
        return LinearSection(base_projection=p, basis=[], dim=0)
    m = p.n - p.rank
    face = None
    if u.dim <= m * m + (0 if p.is_commutative else p.n):
        b = np.eye(p.n)[:, sorted(p.classical_support)] if p.is_commutative else p.image_basis
        gamma = nullspace_cols(rows_over_u(u, b), tol_rank)
        mats = (gamma.T @ u.stacked.reshape(u.dim, -1)).reshape(-1, p.n, p.n)
    else:
        face = p.complement_basis()
        y = nullspace_cols(rows_over_h(u, face), tol_rank)
        mats = face @ herm_from_coords(y.T, face.shape[1]) @ face.conj().T
    mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    return LinearSection(base_projection=p, basis=mats, dim=len(mats), face=face)

