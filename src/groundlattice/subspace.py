"""Operator subspaces U of hermitian matrices and the sections L(p).

Two engines share one interface:

* ``float-hermitian`` — basis elements are complex hermitian ndarrays,
  orthonormal under the trace inner product.
* ``exact-commutative`` — the ambient algebra is the diagonal one, i.e.
  rational functions on a finite configuration space.  Bases are kept
  exactly orthogonal (orthonormality would need irrational norms); every
  formula divides by the stored squared norms, so results stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla as ela
from .config import DEFAULT_TOL
from .errors import InputError
from .linalg import (
    Projection,
    hermitian_matrix,
    is_hermitian,
    nullspace_cols,
    orthonormal_columns,
    trace_inner,
)

ENGINE_FLOAT = "float-hermitian"
ENGINE_EXACT = "exact-commutative"


def _vec(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128).reshape(-1)


def orthonormalize_hermitian(mats, tol_rank: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Gram-Schmidt with norm pivoting on hermitian matrices.

    Runs :func:`orthonormal_columns` on the real vectors (Re, Im) of the
    matrices, whose dot product is the trace inner product; real
    coefficients preserve hermiticity, and the phase convention makes the
    first significant coordinate of (Re, Im) positive.  Dependent inputs
    are dropped.
    """
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    if not mats:
        return []
    shape = mats[0].shape
    cols = np.stack([np.concatenate([_vec(m).real, _vec(m).imag]) for m in mats], axis=1)
    q = orthonormal_columns(cols, tol_rank)
    half = q.shape[0] // 2
    out = [(q[:half, j] + 1j * q[half:, j]).reshape(shape) for j in range(q.shape[1])]
    return [0.5 * (v + v.conj().T) for v in out]


@dataclass
class OperatorSubspace:
    """A linear subspace of the hermitian part of the ambient algebra."""

    ambient_n: int
    engine: str
    basis: list                      # ndarrays (float) or Fraction vectors (exact)
    contains_identity: bool
    site_structure: tuple | None = None   # (N, dims) when built from a composite system
    norms_sq: list[Fraction] | None = None  # exact engine: squared norms of the basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_exact(self) -> bool:
        return self.engine == ENGINE_EXACT

    def identity_element(self):
        if self.is_exact:
            return [Fraction(1)] * self.ambient_n
        return np.eye(self.ambient_n, dtype=np.complex128)

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
        """Coordinates of the orthogonal projection of ``a`` onto U."""
        if self.is_exact:
            return [ela.dot(b, a) / ns for b, ns in zip(self.basis, self.norms_sq)]
        return np.array([trace_inner(b, a).real for b in self.basis])

    def element_from(self, coeffs):
        if self.is_exact:
            out = ela.zeros(self.ambient_n)
            for c, b in zip(coeffs, self.basis):
                if c != 0:
                    out = ela.add(out, ela.scale(b, c))
            return out
        if len(self.basis) == 0:
            return np.zeros((self.ambient_n, self.ambient_n), dtype=np.complex128)
        return np.tensordot(np.asarray(coeffs, dtype=float), np.stack(self.basis), axes=1)


@dataclass
class LinearSection:
    """Orthonormal basis of L(p) = {u in U : p u = u p = 0}."""

    base_projection: Projection
    basis: list
    dim: int


def from_spanning_set(matrices, engine: str = ENGINE_FLOAT,
                      tol_rank: float = DEFAULT_TOL,
                      config_dims: tuple[int, ...] | None = None) -> OperatorSubspace:
    """Build an OperatorSubspace from a spanning set.

    ``matrices`` holds hermitian ndarrays (float engine) or rational
    vectors over a configuration space (exact engine).
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
        vectors = [ela.fvec(v) for v in items]
        basis = ela.orthogonalize(vectors)
        norms_sq = [ela.dot(b, b) for b in basis]
        has_id = ela.in_span(basis, [Fraction(1)] * n)
        site = (len(config_dims), tuple(config_dims)) if config_dims else None
        return OperatorSubspace(ambient_n=n, engine=engine, basis=basis,
                                contains_identity=has_id, norms_sq=norms_sq,
                                site_structure=site)
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


def linear_section(p: Projection, u: OperatorSubspace,
                   tol_rank: float = DEFAULT_TOL) -> LinearSection:
    """Basis of the linear space {v in U : p v = v p = 0}.

    Float engine: null space of the map coefficients -> p @ v restricted to
    U (hermiticity makes the one-sided constraint two-sided).  Exact
    engine: the complement formula, i.e. functions in U vanishing on p.
    """
    if p.n != u.ambient_n:
        raise InputError("projection dimension does not match subspace")
    if u.is_exact:
        if not p.is_commutative:
            raise InputError("exact engine needs support-based projections")
        rows = [[b[x] for b in u.basis] for x in sorted(p.classical_support)]
        coeff_basis = ela.null_space(rows, ncols=u.dim)
        funcs = [u.element_from(c) for c in coeff_basis]
        return LinearSection(base_projection=p, basis=funcs, dim=len(funcs))
    if u.dim == 0:
        return LinearSection(base_projection=p, basis=[], dim=0)
    pm = p.matrix()
    cols = []
    for b in u.basis:
        pb = pm @ b
        cols.append(np.concatenate([pb.real.reshape(-1), pb.imag.reshape(-1)]))
    m = np.stack(cols, axis=1)
    gamma = nullspace_cols(m, tol_rank).real
    mats = [u.element_from(gamma[:, j]) for j in range(gamma.shape[1])]
    mats = [0.5 * (m_ + m_.conj().T) for m_ in mats]
    return LinearSection(base_projection=p, basis=mats, dim=len(mats))


def traceless_part(u: OperatorSubspace, tol_rank: float = DEFAULT_TOL) -> OperatorSubspace:
    """The subspace of trace-zero elements of U."""
    if u.is_exact:
        row = [sum(b, Fraction(0)) for b in u.basis]
        coeffs = ela.null_space([row], ncols=u.dim)
        funcs = [u.element_from(c) for c in coeffs]
        basis = ela.orthogonalize(funcs)
        return OperatorSubspace(ambient_n=u.ambient_n, engine=u.engine, basis=basis,
                                contains_identity=False,
                                norms_sq=[ela.dot(b, b) for b in basis],
                                site_structure=u.site_structure)
    if u.dim == 0:
        return OperatorSubspace(ambient_n=u.ambient_n, engine=u.engine, basis=[],
                                contains_identity=False)
    row = np.array([[float(np.trace(b).real) for b in u.basis]])
    gamma = nullspace_cols(row, tol_rank).real
    mats = [u.element_from(gamma[:, j]) for j in range(gamma.shape[1])]
    basis = orthonormalize_hermitian(mats, tol_rank)
    return OperatorSubspace(ambient_n=u.ambient_n, engine=u.engine, basis=basis,
                            contains_identity=False, site_structure=u.site_structure)
