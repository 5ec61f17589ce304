"""Hermitian matrix arithmetic: eigendecomposition, projections, image order.

Hermitian matrices are plain complex ``numpy`` arrays; :func:`hermitian_matrix`
is the constructor (checks the shape is square, symmetrizes exactly).
Projections carry either an orthonormal image basis (float engine) or a
configuration subset (commutative engine).

Every float basis, rank and null space comes from LAPACK: :func:`eigh`,
and the two ``svd`` cutoffs :func:`nullspace_cols` and :func:`range_cols`.
Image bases are the orthonormal columns LAPACK returns, used as they are.
:func:`herm_coords` reads hermitian matrices in an orthonormal real basis
of Herm(m), so that their null spaces are null spaces of real matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .config import DEFAULT_TOL
from .errors import InputError, NonConvergenceError

#: principal-angle tolerance for canonical projection equality (float engine)
CANON_TOL = 1e-7


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


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK ``eigh``: ascending eigenvalues and orthonormal eigenvectors.

    Raises :class:`NonConvergenceError` when LAPACK does not converge.
    """
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise NonConvergenceError(f"LAPACK eigh failed: {err}", residual=float("nan")) from err


def eig_herm(a: np.ndarray, tol_spec: float = DEFAULT_TOL) -> EigDecomposition:
    """Full eigendecomposition of a hermitian matrix by :func:`eigh`.

    Eigenvalues come back ascending; eigenvalues within
    tol_spec * max(1, |a|_2) of each other are merged into one group.
    """
    if tol_spec <= 0:
        raise InputError("tol_spec must be positive", field="tol_spec")
    a = np.asarray(a, dtype=np.complex128)
    if not is_hermitian(a, tol=1e-12):
        raise InputError("input is not hermitian; construct via hermitian_matrix")
    n = a.shape[0]
    values, vecs = eigh(0.5 * (a + a.conj().T))
    spectral_scale = max(1.0, float(np.max(np.abs(values))) if n else 1.0)
    groups = group_close(values, tol_spec * spectral_scale) if n else []
    return EigDecomposition(values, vecs, groups)


def _svd(m: np.ndarray, full_matrices: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK ``svd``; raises :class:`NonConvergenceError` when LAPACK does
    not converge."""
    try:
        return np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError as err:
        raise NonConvergenceError(f"LAPACK svd failed: {err}", residual=float("nan")) from err


def nullspace_cols(m: np.ndarray, tol_rank: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {x : m @ x = 0} by LAPACK ``svd``.

    Right singular vectors whose singular value is at most
    tol_rank * max(1, sigma_max) are null directions; columns beyond the
    row count have singular value zero.  The absolute floor 1 treats a
    constraint matrix that is pure numerical noise (e.g. the complement
    action of an identity projection) as imposing no constraint.  Real
    input gives a real basis.
    """
    m = np.asarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
    if m.ndim != 2:
        raise InputError("nullspace_cols expects a 2-d array")
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=m.dtype)
    if rows == 0:
        return np.eye(cols, dtype=m.dtype)
    _, sv, vh = _svd(m, full_matrices=rows < cols)
    sigma = np.zeros(cols)
    sigma[:len(sv)] = sv
    keep = sigma <= tol_rank * max(1.0, float(sv[0]))
    return vh[keep].conj().T


def range_cols(m: np.ndarray, tol_rank: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of m by LAPACK ``svd``.

    The left singular vectors whose singular value is above
    tol_rank * sigma_max; the column count is the numerical rank of m.
    Real input gives a real basis.
    """
    m = np.asarray(m)
    if 0 in m.shape:
        return np.zeros((m.shape[0], 0), dtype=m.dtype)
    u, sv, _ = _svd(m, full_matrices=False)
    return u[:, sv > tol_rank * sv[0]]


@lru_cache(maxsize=None)
def _herm_slots(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gathers between the coordinates of Herm(m) and the 2 m^2 floats of an
    m x m complex matrix: the float slots of the coordinates and their
    scales, and for every float slot its coordinate and factor."""
    rows, cols = np.triu_indices(m, 1)
    upper, lower = 2 * (rows * m + cols), 2 * (cols * m + rows)
    slots = np.concatenate([2 * (m + 1) * np.arange(m), upper, upper + 1])
    scale = np.concatenate([np.ones(m), np.full(2 * len(rows), np.sqrt(2.0))])
    source, factor = np.zeros(2 * m * m, dtype=int), np.zeros(2 * m * m)
    source[slots], factor[slots] = np.arange(m * m), 1.0 / scale
    source[lower], factor[lower] = source[upper], factor[upper]
    source[lower + 1], factor[lower + 1] = source[upper + 1], -factor[upper + 1]
    for shared in (slots, scale, source, factor):     # every caller gets the same arrays
        shared.flags.writeable = False
    return slots, scale, source, factor


def herm_coords(mats: np.ndarray) -> np.ndarray:
    """Real coordinates of stacked hermitian m x m matrices, shape (..., m^2).

    The orthonormal basis of Herm(m) under the trace inner product: the
    diagonal, then sqrt(2) Re and sqrt(2) Im of the strict upper triangle.
    """
    m = mats.shape[-1]
    slots, scale, _, _ = _herm_slots(m)
    flat = np.ascontiguousarray(mats, dtype=np.complex128).reshape(*mats.shape[:-2], m * m)
    return flat.view(np.float64)[..., slots] * scale


def herm_from_coords(x: np.ndarray, m: int) -> np.ndarray:
    """The hermitian m x m matrices with coordinates ``x`` (..., m^2), the
    inverse of :func:`herm_coords`; exactly hermitian."""
    _, _, source, factor = _herm_slots(m)
    out = np.ascontiguousarray(x[..., source] * factor)
    return out.view(np.complex128).reshape(*x.shape[:-1], m, m)


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
        basis = range_cols(np.asarray(cols, dtype=np.complex128).reshape(n, -1), tol_rank)
        return cls(n=n, image_basis=basis)

    @classmethod
    def from_support(cls, n: int, support) -> "Projection":
        """The diagonal projection onto ``support``, a collection of
        integers (``numbers.Integral``, not ``bool``) in ``range(n)``."""
        try:
            entries = list(support)
        except TypeError:
            raise InputError(f"support must be a list of integers, got {support!r}",
                             field="support") from None
        if not all(type(x) is int for x in entries):
            bad = [x for x in entries if isinstance(x, bool) or not isinstance(x, Integral)]
            if bad:
                raise InputError(f"support entries must be integers, got {bad[0]!r}",
                                 field="support")
            entries = [int(x) for x in entries]
        support = frozenset(entries)
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

    def complement_basis(self) -> np.ndarray:
        """Orthonormal basis of the range of 1 - p, n x (n - rank): the unit
        vectors off the support, or the last columns of a complete QR of the
        image basis."""
        if self.is_commutative:
            off = sorted(set(range(self.n)) - self.classical_support)
            return np.eye(self.n, dtype=np.complex128)[:, off]
        return np.linalg.qr(self.image_basis, mode="complete")[0][:, self.rank:]

    def complement(self) -> "Projection":
        if self.is_commutative:
            return Projection.from_support(self.n, set(range(self.n)) - self.classical_support)
        return Projection(n=self.n, image_basis=self.complement_basis())

    # -- comparisons ----------------------------------------------------
    def same_image(self, other: "Projection", tol: float = CANON_TOL) -> bool:
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


def meet_bases(b: np.ndarray, comps: np.ndarray, tol_rank: float = DEFAULT_TOL) -> list:
    """Orthonormal bases of image(b) ∩ ker(comp) for orthonormal columns b
    and each comp = 1 - q of the stack ``comps``: b times the null space of
    the n x rank(b) matrix comp @ b, whose singular values are the sines of
    the principal angles between image(b) and image(q).  One batched SVD,
    with the cutoff of :func:`nullspace_cols` per matrix."""
    _, sv, vh = _svd(comps @ b, full_matrices=False)
    keep = sv <= tol_rank * np.maximum(1.0, sv[:, :1])
    return [b @ v[k].conj().T for v, k in zip(vh, keep)]


def image_intersection(p: Projection, q: Projection, tol_rank: float = DEFAULT_TOL) -> Projection:
    """Projection whose image is image(p) ∩ image(q).

    Float engine: :func:`meet_bases` of the image basis of p and 1 - q.
    Commutative engine: set intersection of supports.
    """
    if p.n != q.n:
        raise InputError("projection dimensions differ")
    if p.is_commutative and q.is_commutative:
        return Projection.from_support(p.n, p.classical_support & q.classical_support)
    b = p.matrix()[:, sorted(p.classical_support)] if p.is_commutative else p.image_basis
    comp = np.eye(p.n) - q.matrix()
    return Projection(n=p.n, image_basis=meet_bases(b, comp[None], tol_rank)[0])


def ground_projection(a: np.ndarray, tol_spec: float = DEFAULT_TOL) -> Projection:
    """Spectral projection onto the lowest eigenvalue group."""
    dec = eig_herm(a, tol_spec)
    return Projection(n=a.shape[0], image_basis=dec.ground_columns())


def kernel_projection(a: np.ndarray, tol_rank: float = DEFAULT_TOL) -> Projection:
    """Projection onto span of eigenvectors with |eigenvalue| <= tol_rank * max(1, |a|)."""
    dec = eig_herm(a, tol_rank)
    scale = max(1.0, float(np.max(np.abs(dec.eigenvalues))) if len(dec.eigenvalues) else 1.0)
    keep = np.abs(dec.eigenvalues) <= tol_rank * scale
    return Projection(n=a.shape[0], image_basis=dec.eigenvectors[:, keep])
