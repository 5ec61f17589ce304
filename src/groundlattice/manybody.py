"""Composite systems: k-local subspaces, partial traces, marginals.

A :class:`SiteSystem` fixes the number of units and their local dimensions.
The k-local subspace U_(k) is spanned by terms acting on at most k sites,
tensored with the identity elsewhere.  Partial traces are the adjoints of
the identity-padding embeddings, and the marginal map collects the traces
onto every k-subset.  The commutative engine works on rational functions
over the product configuration space; the quantum engine on dense
hermitian matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from math import comb, prod

import numpy as np

from . import exactla as ela
from .config import RunConfig
from .errors import InputError, UnsupportedConfigurationError
from .lattice import GroundLattice, close_to_lattice
from .linalg import Projection
from .subspace import ENGINE_EXACT, ENGINE_FLOAT, OperatorSubspace


@dataclass(frozen=True)
class SiteSystem:
    """N units with local dimensions dims, under one of the two engines."""

    dims: tuple[int, ...]
    engine: str = ENGINE_FLOAT

    def __post_init__(self):
        if len(self.dims) < 1 or any(d < 2 for d in self.dims):
            raise InputError("need N >= 1 sites with local dimension >= 2", field="system")
        if self.engine not in (ENGINE_FLOAT, ENGINE_EXACT):
            raise InputError(f"unknown engine {self.engine!r}", field="engine")

    @classmethod
    def bits(cls, n: int) -> "SiteSystem":
        return cls(dims=(2,) * n, engine=ENGINE_EXACT)

    @classmethod
    def qubits(cls, n: int) -> "SiteSystem":
        return cls(dims=(2,) * n, engine=ENGINE_FLOAT)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    @property
    def is_exact(self) -> bool:
        return self.engine == ENGINE_EXACT

    def configurations(self, sites: tuple[int, ...] | None = None) -> list[tuple[int, ...]]:
        """All configurations of the listed sites (default: every site),
        in row-major order consistent with the kron/index convention."""
        use = range(self.n_sites) if sites is None else sites
        return list(product(*(range(self.dims[i]) for i in use)))


def _site_traceless_hermitian(m: int) -> list[np.ndarray]:
    """Orthogonal traceless hermitian basis of M_m (generalized Gell-Mann)."""
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            sym = np.zeros((m, m), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0
            out.append(sym)
            anti = np.zeros((m, m), dtype=complex)
            anti[i, j] = -1j
            anti[j, i] = 1j
            out.append(anti)
    for level in range(1, m):
        diag = np.zeros(m)
        diag[:level] = 1.0
        diag[level] = -level
        out.append(np.diag(diag).astype(complex))
    return out


def _site_sumzero_integer(m: int) -> list[np.ndarray]:
    """Orthogonal sum-zero integer basis of functions on m points."""
    return [np.array([1] * level + [-level] + [0] * (m - level - 1), np.int64)
            for level in range(1, m)]


def klocal_dimension(sys: SiteSystem, k: int) -> int:
    """Closed form for dim U_(k) on uniform sites: 1 + sum over term sizes."""
    n0 = sys.dims[0]
    if any(d != n0 for d in sys.dims):
        raise InputError("the closed form needs uniform site dimensions")
    m = n0 if sys.is_exact else n0 * n0
    n_sites = sys.n_sites
    return 1 + sum(comb(n_sites, ell) * (m - 1) ** ell for ell in range(1, k + 1))


def build_klocal(sys: SiteSystem, k: int) -> OperatorSubspace:
    """The subspace of k-local Hamiltonians on the system.

    For every site subset nu of size 1..k and every choice of traceless
    single-site basis elements on nu, one term is the Kronecker product
    over the sites of those elements on nu and the identity elsewhere: an
    identity matrix (float) or the all-ones function (exact).  With the
    identity, which comes first, these are pairwise orthogonal, so no
    Gram-Schmidt runs: the float engine normalizes them, and the exact
    engine keeps the integer vectors as built, which are primitive, since
    the single-site factors are.
    """
    if not 1 <= k <= sys.n_sites:
        raise InputError(f"k must lie in 1..{sys.n_sites}, got {k}", field="system")
    n_sites, exact = sys.n_sites, sys.is_exact
    site_basis = [_site_sumzero_integer(d) if exact else _site_traceless_hermitian(d)
                  for d in sys.dims]
    pad = [np.ones(d, np.int64) if exact else np.eye(d, dtype=complex) for d in sys.dims]
    terms = [reduce(np.kron, pad)]
    for ell in range(1, k + 1):
        for nu in combinations(range(n_sites), ell):
            for choice in product(*(site_basis[i] for i in nu)):
                factors = dict(zip(nu, choice))
                terms.append(reduce(np.kron, [factors.get(i, f) for i, f in enumerate(pad)]))
    if exact:
        return OperatorSubspace(ambient_n=sys.total_dim, engine=ENGINE_EXACT,
                                basis=[t.tolist() for t in terms], contains_identity=True,
                                site_structure=(n_sites, tuple(sys.dims)), locality=k)
    return OperatorSubspace(ambient_n=sys.total_dim, engine=ENGINE_FLOAT,
                            basis=[t / np.linalg.norm(t) for t in terms], contains_identity=True,
                            site_structure=(n_sites, tuple(sys.dims)))


def embed_on_sites(sys: SiteSystem, b: np.ndarray, kept: tuple[int, ...]) -> np.ndarray:
    """b acting on the kept sites, identity on the rest, in site order:
    b (x) 1 with the kept sites first, its row and column axes then put
    back in site order.  With no kept site, b is a scalar and this is b 1."""
    kept = tuple(sorted(kept))
    order = kept + tuple(i for i in range(sys.n_sites) if i not in kept)
    d_kept = prod(sys.dims[i] for i in kept)
    b = np.asarray(b, dtype=complex).reshape(d_kept, d_kept)
    out = np.kron(b, np.eye(sys.total_dim // d_kept)).reshape([sys.dims[i] for i in order] * 2)
    axes = np.argsort(order)
    return out.transpose(*axes, *(axes + sys.n_sites)).reshape(sys.total_dim, sys.total_dim)


def partial_trace(a, sys: SiteSystem, nu: tuple[int, ...]):
    """Trace out the sites in nu; the result acts on the remaining sites.

    The adjoint identity <tr_nu(a), b> = <a, b (x) id_nu> holds by
    construction on both engines.
    """
    nu = tuple(sorted(set(nu)))
    if any(i < 0 or i >= sys.n_sites for i in nu):
        raise InputError(f"invalid site subset {nu}")
    kept = tuple(i for i in range(sys.n_sites) if i not in nu)
    if sys.is_exact:
        if len(a) != sys.total_dim:
            raise InputError("vector length does not match the system")
        summed = np.array(a, dtype=object).reshape(sys.dims).sum(axis=nu, keepdims=True)
        return summed.reshape(-1).tolist()
    a = np.asarray(a, dtype=complex)
    if a.shape != (sys.total_dim, sys.total_dim):
        raise InputError("matrix shape does not match the system")
    # einsum with the same axis label on the row and column of a traced site
    n_sites = sys.n_sites
    col = [i if i in nu else n_sites + i for i in range(n_sites)]
    traced = np.einsum(a.reshape(sys.dims * 2), list(range(n_sites)) + col,
                       list(kept) + [n_sites + i for i in kept])
    d_kept = prod(sys.dims[i] for i in kept)
    return traced.reshape(d_kept, d_kept)


@dataclass
class MarginalTuple:
    """Marginals indexed by the k-subsets of sites they live on."""

    k: int
    entries: dict[tuple[int, ...], object]

    def subsets(self) -> list[tuple[int, ...]]:
        return sorted(self.entries)


def marginal_map(a, sys: SiteSystem, k: int) -> MarginalTuple:
    """All k-body marginals of ``a``: entry nu is the trace over nu'."""
    if not 1 <= k <= sys.n_sites:
        raise InputError(f"k must lie in 1..{sys.n_sites}, got {k}", field="system")
    entries = {}
    for nu in combinations(range(sys.n_sites), k):
        traced_out = tuple(i for i in range(sys.n_sites) if i not in nu)
        entries[nu] = partial_trace(a, sys, traced_out)
    return MarginalTuple(k=k, entries=entries)


def truncation_rows(sys: SiteSystem, k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Row index (nu, y) pairs of the 0-1 truncation matrix."""
    rows = []
    for nu in combinations(range(sys.n_sites), k):
        for y in sys.configurations(nu):
            rows.append((nu, y))
    return rows


def marginal_polytope_vertices(sys: SiteSystem, k: int) -> list[list[int]]:
    """Columns of the 0-1 truncation matrix, one per global configuration.

    The marginal body is their convex hull; exact engine only.
    """
    if not sys.is_exact:
        raise UnsupportedConfigurationError(
            "marginal polytope vertices are exact-engine only")
    if not 1 <= k <= sys.n_sites:
        raise InputError(f"k must lie in 1..{sys.n_sites}, got {k}", field="system")
    rows = truncation_rows(sys, k)
    return [[int(tuple(x[i] for i in nu) == y) for nu, y in rows] for x in sys.configurations()]


def affine_dimension(columns: list[list]) -> int:
    """Dimension of the affine hull of rational or integer points, exactly."""
    if not columns:
        return -1
    base = columns[0]
    diffs = [[a - b for a, b in zip(col, base)] for col in columns[1:]]
    return ela.rank(diffs) if diffs else 0


def ff_lattice_3bit(cfg: RunConfig | None = None) -> GroundLattice:
    """Ground-set lattice of frustration-free 2-local Hamiltonians on 3 bits.

    Nodes are all intersections of one cylinder set per 2-subset of sites,
    together with the empty set.  A cylinder set is the intersection of
    the cylinders that exclude one value of its pair each, so the lattice
    is the intersection closure of those 12 cylinders; coatomistic by
    construction.
    """
    sys = SiteSystem.bits(3)
    u = build_klocal(sys, 2)
    confs = sys.configurations()
    cylinders = []
    for nu in combinations(range(3), 2):
        for value in sys.configurations(nu):
            cylinders.append(Projection.from_support(
                len(confs), (i for i, x in enumerate(confs) if tuple(x[j] for j in nu) != value)))
    return close_to_lattice(u, cylinders, "exact", cfg)
