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
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import numpy as np

from . import exactla as ela
from .config import RunConfig
from .errors import InputError, UnsupportedConfigurationError
from .lattice import GroundLattice, lattice_from_nodes
from .linalg import Projection
from .subspace import ENGINE_EXACT, ENGINE_FLOAT, OperatorSubspace, from_spanning_set


@dataclass(frozen=True)
class SiteSystem:
    """N units with local dimensions dims, under one of the two engines."""

    dims: tuple[int, ...]
    engine: str = ENGINE_FLOAT

    def __post_init__(self):
        if len(self.dims) < 1 or any(d < 2 for d in self.dims):
            raise InputError("need N >= 1 sites with local dimension >= 2")
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

    def index_of(self, x: tuple[int, ...]) -> int:
        idx = 0
        for i, xi in enumerate(x):
            idx = idx * self.dims[i] + xi
        return idx


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


def _site_sumzero_rational(m: int) -> list[list[Fraction]]:
    """Orthogonal sum-zero rational basis of functions on m points."""
    out = []
    for level in range(1, m):
        v = [Fraction(0)] * m
        for i in range(level):
            v[i] = Fraction(1)
        v[level] = Fraction(-level)
        out.append(v)
    return out


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

    For every site subset of size 1..k, traceless single-site basis
    elements are tensored together and padded with identity; together with
    the identity these are pairwise orthogonal, so normalization alone
    yields an orthonormal (float) or exactly orthogonal (exact) basis.
    """
    if not 1 <= k <= sys.n_sites:
        raise InputError(f"k must lie in 1..{sys.n_sites}, got {k}")
    n_sites = sys.n_sites
    if sys.is_exact:
        site_basis = {i: _site_sumzero_rational(sys.dims[i]) for i in range(n_sites)}
        vectors = [[Fraction(1)] * sys.total_dim]
        for ell in range(1, k + 1):
            for nu in combinations(range(n_sites), ell):
                for choice in product(*(site_basis[i] for i in nu)):
                    vec = []
                    for x in sys.configurations():
                        val = Fraction(1)
                        for pos, site in enumerate(nu):
                            val *= choice[pos][x[site]]
                        vec.append(val)
                    vectors.append(vec)
        u = from_spanning_set(vectors, engine=ENGINE_EXACT, config_dims=sys.dims)
        u.site_structure = (n_sites, tuple(sys.dims))
        return u

    site_basis_f = {i: _site_traceless_hermitian(sys.dims[i]) for i in range(n_sites)}
    mats = [np.eye(sys.total_dim, dtype=complex)]
    for ell in range(1, k + 1):
        for nu in combinations(range(n_sites), ell):
            for choice in product(*(site_basis_f[i] for i in nu)):
                factors = [choice[nu.index(site)] if site in nu
                           else np.eye(sys.dims[site], dtype=complex)
                           for site in range(n_sites)]
                full = factors[0]
                for f in factors[1:]:
                    full = np.kron(full, f)
                mats.append(full)
    basis = [m / np.linalg.norm(m) for m in mats]
    u = OperatorSubspace(ambient_n=sys.total_dim, engine=ENGINE_FLOAT, basis=basis,
                         contains_identity=True,
                         site_structure=(n_sites, tuple(sys.dims)))
    return u


def embed_on_sites(sys: SiteSystem, b: np.ndarray, kept: tuple[int, ...]) -> np.ndarray:
    """b acting on the kept sites, identity on the rest, in site order."""
    n_sites = sys.n_sites
    kept = tuple(sorted(kept))
    traced = tuple(i for i in range(n_sites) if i not in kept)
    dims = sys.dims
    d_kept = prod(dims[i] for i in kept) if kept else 1
    b = np.asarray(b, dtype=complex).reshape(d_kept, d_kept)
    shape = [dims[i] for i in kept] * 2
    b_t = b.reshape(shape) if kept else b
    full_shape = list(dims) + list(dims)
    out = np.zeros(full_shape, dtype=complex)
    # place b on every diagonal configuration of the identity-padded sites
    for conf in product(*(range(dims[i]) for i in traced)):
        sel_row: list = [slice(None)] * n_sites
        sel_col: list = [slice(None)] * n_sites
        for site, val in zip(traced, conf):
            sel_row[site] = val
            sel_col[site] = val
        out[tuple(sel_row + sel_col)] += b_t if kept else b
    return out.reshape(sys.total_dim, sys.total_dim)


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
        kept_confs = sys.configurations(kept)
        out = {yc: Fraction(0) for yc in kept_confs}
        for x, val in zip(sys.configurations(), a):
            out[tuple(x[i] for i in kept)] += val
        return [out[yc] for yc in kept_confs]
    a = np.asarray(a, dtype=complex)
    if a.shape != (sys.total_dim, sys.total_dim):
        raise InputError("matrix shape does not match the system")
    n_sites = sys.n_sites
    tens = a.reshape(list(sys.dims) * 2)
    # einsum with repeated axis labels on the traced sites
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = []
    col = []
    for i in range(n_sites):
        row.append(letters[i])
        col.append(letters[i] if i in nu else letters[n_sites + i])
    out_labels = [letters[i] for i in kept] + [letters[n_sites + i] for i in kept]
    spec = "".join(row + col) + "->" + "".join(out_labels)
    traced = np.einsum(spec, tens)
    d_kept = prod(sys.dims[i] for i in kept) if kept else 1
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
        raise InputError(f"k must lie in 1..{sys.n_sites}, got {k}")
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


def marginal_polytope_vertices(sys: SiteSystem, k: int) -> list[list[Fraction]]:
    """Columns of the 0-1 truncation matrix, one per global configuration.

    The marginal body is their convex hull; exact engine only.
    """
    if not sys.is_exact:
        raise UnsupportedConfigurationError(
            "marginal polytope vertices are exact-engine only")
    if not 1 <= k <= sys.n_sites:
        raise InputError(f"k must lie in 1..{sys.n_sites}, got {k}")
    rows = truncation_rows(sys, k)
    cols = []
    for x in sys.configurations():
        col = [Fraction(1) if tuple(x[i] for i in nu) == y else Fraction(0)
               for (nu, y) in rows]
        cols.append(col)
    return cols


def affine_dimension(columns: list[list[Fraction]]) -> int:
    """Dimension of the affine hull of rational points, exactly."""
    if not columns:
        return -1
    base = columns[0]
    diffs = [[a - b for a, b in zip(col, base)] for col in columns[1:]]
    return ela.rank(diffs) if diffs else 0


def ff_lattice_3bit(cfg: RunConfig | None = None) -> GroundLattice:
    """Ground-set lattice of frustration-free 2-local Hamiltonians on 3 bits.

    Nodes are all intersections of one cylinder set per 2-subset of sites,
    together with the empty set; coatomistic by construction.
    """
    sys = SiteSystem.bits(3)
    u = build_klocal(sys, 2)
    confs = sys.configurations()
    pairs = list(combinations(range(3), 2))
    pair_confs = {nu: sys.configurations(nu) for nu in pairs}

    def cylinder(nu, chosen) -> frozenset[int]:
        return frozenset(i for i, x in enumerate(confs)
                         if tuple(x[j] for j in nu) in chosen)

    cylinder_sets = {}
    for nu in pairs:
        opts = []
        values = pair_confs[nu]
        for mask in range(1, 2 ** len(values)):
            chosen = {values[i] for i in range(len(values)) if mask >> i & 1}
            opts.append(cylinder(nu, chosen))
        cylinder_sets[nu] = opts

    supports = set()
    for s01 in cylinder_sets[pairs[0]]:
        for s02 in cylinder_sets[pairs[1]]:
            partial = s01 & s02
            for s12 in cylinder_sets[pairs[2]]:
                supports.add(partial & s12)
    supports.add(frozenset())
    nodes = [Projection.from_support(8, s) for s in supports]
    return lattice_from_nodes(u, nodes, "exact")
