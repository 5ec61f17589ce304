"""Hermitian matrix arithmetic: eigendecomposition, projections, image order.

Hermitian matrices are plain complex ``numpy`` arrays; :func:`hermitian_matrix`
is the validating constructor (symmetrizes exactly, checks the real trace).
Projections carry either an orthonormal image basis (float engine) or a
configuration subset (commutative engine).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import InputError, NonConvergenceError


def hermitian_matrix(entries) -> np.ndarray:
    """Validating constructor: square input, symmetrized to (a + a*)/2."""
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.conj().T)


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and \
        np.linalg.norm(a - a.conj().T) <= tol * max(1.0, np.linalg.norm(a))


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def trace_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a* b)."""
    return complex(np.sum(a.conj() * b))


@dataclass
class EigDecomposition:
    """Ascending eigenvalues with tolerance-grouped degeneracies.

    ``groups`` is a list of (start, stop) index ranges; eigenvalues inside a
    range differ by at most tol_spec * max(1, |a|).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unitary, columns are eigenvectors
    groups: list[tuple[int, int]]

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    def ground_columns(self) -> np.ndarray:
        start, stop = self.groups[0]
        return self.eigenvectors[:, start:stop]


def group_close(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Partition sorted values into runs with consecutive gaps <= tol."""
    groups = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol:
            groups.append((start, i))
            start = i
    groups.append((start, len(values)))
    return groups


def eig_herm(a: np.ndarray, tol_spec: float = DEFAULT_TOL) -> EigDecomposition:
    """Full eigendecomposition of a hermitian matrix by LAPACK ``eigh``.

    Eigenvalues come back ascending; eigenvalues within
    tol_spec * max(1, |a|_2) of each other are merged into one group.
    Raises :class:`NonConvergenceError` when LAPACK does not converge.
    """
    if tol_spec <= 0:
        raise InputError("tol_spec must be positive", field="tol_spec")
    a = np.asarray(a, dtype=np.complex128)
    if not is_hermitian(a, tol=1e-12):
        raise InputError("input is not hermitian; construct via hermitian_matrix")
    n = a.shape[0]
    try:
        values, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    except np.linalg.LinAlgError as err:
        raise NonConvergenceError(f"LAPACK eigh failed: {err}", residual=float("nan")) from err
    spectral_scale = max(1.0, float(np.max(np.abs(values))) if n else 1.0)
    groups = group_close(values, tol_spec * spectral_scale) if n else []
    return EigDecomposition(values, vecs, groups)


def nullspace_cols(m: np.ndarray, tol_rank: float = DEFAULT_TOL, scale: float = 1.0) -> np.ndarray:
    """Orthonormal basis of {x : m @ x = 0} by LAPACK ``svd``.

    Right singular vectors whose singular value is at most
    tol_rank * max(scale, sigma_max) are null directions; columns beyond
    the row count have singular value zero.  The absolute floor ``scale``
    treats a constraint matrix that is pure numerical noise (e.g. the
    complement action of an identity projection) as imposing no
    constraint.  Real input gives a real basis.  Raises
    :class:`NonConvergenceError` when LAPACK does not converge.
    """
    m = np.asarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
    if m.ndim != 2:
        raise InputError("nullspace_cols expects a 2-d array")
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=m.dtype)
    if rows == 0:
        return np.eye(cols, dtype=m.dtype)
    try:
        _, sv, vh = np.linalg.svd(m, full_matrices=rows < cols)
    except np.linalg.LinAlgError as err:
        raise NonConvergenceError(f"LAPACK svd failed: {err}", residual=float("nan")) from err
    sigma = np.zeros(cols)
    sigma[:len(sv)] = sv
    keep = sigma <= tol_rank * max(scale, float(sv[0]))
    return vh[keep].conj().T


def orthonormal_columns(cols: np.ndarray, tol_rank: float = DEFAULT_TOL) -> np.ndarray:
    """Modified Gram-Schmidt with norm pivoting; drops dependent columns.

    A fixed phase convention (first significant entry real positive) keeps
    repeated canonicalizations stable.  Real input gives a real basis.
    """
    cols = np.asarray(cols, dtype=np.complex128 if np.iscomplexobj(cols) else np.float64)
    if cols.ndim != 2 or cols.shape[1] == 0:
        return np.zeros((cols.shape[0] if cols.ndim == 2 else 0, 0), dtype=cols.dtype)
    remaining = [cols[:, j].copy() for j in range(cols.shape[1])]
    scale = max(float(np.linalg.norm(c)) for c in remaining)
    out = []
    while remaining:
        norms = [float(np.linalg.norm(c)) for c in remaining]
        j = int(np.argmax(norms))
        if norms[j] <= tol_rank * scale:
            break
        v = remaining.pop(j) / norms[j]
        # re-orthogonalize once for numerical hygiene
        for u in out:
            v = v - np.vdot(u, v) * u
        nv = float(np.linalg.norm(v))
        if nv <= tol_rank:
            continue
        v = v / nv
        k = int(np.argmax(np.abs(v) > 1e-12))
        if abs(v[k]) > 1e-12:
            v = v * (np.conj(v[k]) / abs(v[k]))
        out.append(v)
        remaining = [c - np.vdot(v, c) * v for c in remaining]
    if not out:
        return np.zeros((cols.shape[0], 0), dtype=cols.dtype)
    return np.stack(out, axis=1)


@dataclass
class Projection:
    """A hermitian idempotent, stored by an orthonormal image basis or,
    in the commutative engine, by a support subset of the configuration
    space."""

    n: int
    image_basis: np.ndarray | None = None
    classical_support: frozenset[int] | None = None

    # -- constructors -------------------------------------------------
    @classmethod
    def from_columns(cls, n: int, cols: np.ndarray, tol_rank: float = DEFAULT_TOL) -> "Projection":
        basis = orthonormal_columns(np.asarray(cols, dtype=np.complex128).reshape(n, -1), tol_rank)
        return cls(n=n, image_basis=basis)

    @classmethod
    def from_support(cls, n: int, support) -> "Projection":
        support = frozenset(int(x) for x in support)
        if support and (min(support) < 0 or max(support) >= n):
            raise InputError(f"support indices out of range for n={n}")
        return cls(n=n, classical_support=support)

    @classmethod
    def zero(cls, n: int, commutative: bool = False) -> "Projection":
        if commutative:
            return cls.from_support(n, ())
        return cls(n=n, image_basis=np.zeros((n, 0), dtype=np.complex128))

    @classmethod
    def identity(cls, n: int, commutative: bool = False) -> "Projection":
        if commutative:
            return cls.from_support(n, range(n))
        return cls(n=n, image_basis=np.eye(n, dtype=np.complex128))

    # -- views ---------------------------------------------------------
    @property
    def is_commutative(self) -> bool:
        return self.classical_support is not None

    @property
    def rank(self) -> int:
        if self.is_commutative:
            return len(self.classical_support)
        return self.image_basis.shape[1]

    def matrix(self) -> np.ndarray:
        if self.is_commutative:
            d = np.zeros(self.n)
            for i in self.classical_support:
                d[i] = 1.0
            return np.diag(d).astype(np.complex128)
        b = self.image_basis
        return b @ b.conj().T

    def complement(self) -> "Projection":
        if self.is_commutative:
            return Projection.from_support(self.n, set(range(self.n)) - self.classical_support)
        comp = nullspace_cols(self.image_basis.conj().T) if self.rank else np.eye(self.n, dtype=np.complex128)
        return Projection(n=self.n, image_basis=orthonormal_columns(comp))

    # -- comparisons ----------------------------------------------------
    def same_image(self, other: "Projection", tol: float = 1e-7) -> bool:
        """Equality of images; float engine compares principal angles
        (largest principal angle sine <= tol)."""
        if self.n != other.n:
            return False
        if self.is_commutative and other.is_commutative:
            return self.classical_support == other.classical_support
        if self.rank != other.rank:
            return False
        if self.rank == 0:
            return True
        p, q = self.matrix(), other.matrix()
        return float(np.linalg.norm(p - q, ord=2)) <= tol

    def sort_key(self):
        if self.is_commutative:
            return (self.rank, tuple(sorted(self.classical_support)))
        m = self.matrix()
        q = np.round(m.real, 6) + 1j * np.round(m.imag, 6)
        return (self.rank, tuple(q.flatten().real) + tuple(q.flatten().imag))

    def __repr__(self):
        if self.is_commutative:
            return f"Projection(support={sorted(self.classical_support)}, n={self.n})"
        return f"Projection(rank={self.rank}, n={self.n})"


def loewner_leq(p: Projection, q: Projection, tol: float = DEFAULT_TOL) -> bool:
    """Image inclusion image(p) <= image(q): |(1-q) v| <= tol per basis column."""
    if p.n != q.n:
        raise InputError("projection dimensions differ")
    if p.is_commutative and q.is_commutative:
        return p.classical_support <= q.classical_support
    if p.rank == 0:
        return True
    if p.rank > q.rank:
        return False
    qm = q.matrix()
    resid = p.image_basis - qm @ p.image_basis
    return bool(np.all(np.linalg.norm(resid, axis=0) <= tol))


def image_intersection(p: Projection, q: Projection, tol_rank: float = DEFAULT_TOL) -> Projection:
    """Projection whose image is image(p) ∩ image(q).

    Float engine: kernel of the stacked complement actions
    [(1-p); (1-q)].  Commutative engine: set intersection of supports.
    """
    if p.n != q.n:
        raise InputError("projection dimensions differ")
    if p.is_commutative and q.is_commutative:
        return Projection.from_support(p.n, p.classical_support & q.classical_support)
    n = p.n
    stacked = np.vstack([np.eye(n) - p.matrix(), np.eye(n) - q.matrix()])
    cols = nullspace_cols(stacked, tol_rank)
    return Projection.from_columns(n, cols, tol_rank)


def ground_projection(a: np.ndarray, tol_spec: float = DEFAULT_TOL) -> Projection:
    """Spectral projection onto the lowest eigenvalue group."""
    dec = eig_herm(a, tol_spec)
    return Projection.from_columns(a.shape[0], dec.ground_columns())


def kernel_projection(a: np.ndarray, tol_rank: float = DEFAULT_TOL) -> Projection:
    """Projection onto span of eigenvectors with |eigenvalue| <= tol_rank * max(1, |a|)."""
    dec = eig_herm(a, tol_rank)
    scale = max(1.0, float(np.max(np.abs(dec.eigenvalues))) if len(dec.eigenvalues) else 1.0)
    keep = np.abs(dec.eigenvalues) <= tol_rank * scale
    return Projection.from_columns(a.shape[0], dec.eigenvectors[:, keep])
