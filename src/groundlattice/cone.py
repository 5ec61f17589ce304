"""Analysis of the operator cone K(p): the PSD elements of U that kill p.

K(p) is the set of positive semi-definite members of U whose kernel
contains the image of p.  Its linear hull candidate is the section
L(p) = {u in U : p u = u p = 0}, and K(p) = L(p) ∩ PSD.  The descriptor
computed here records the dimension of the span of K(p), whether the cone
is a ray, a relative-interior witness of maximal rank, and (on request)
extreme-ray generators.

Exact engine: the cone is polyhedral, cut out of U by nonnegativity off p;
membership in U is ``perp @ g = 0`` for a basis ``perp`` of U⊥.  A loop of
max-support LPs on a fraction-free integer simplex finds the maximal
support (about two LPs per cone), and double description enumerates all
extreme rays.

Float engine: alternating projection between L(p) and the PSD cone
(project, clip negative eigenvalues, repeat) harvests cone samples from
seeded starts; accumulated samples certify the span and a maximal-rank
witness.  Extreme rays come from boundary walks inside the trace-one
section followed by a kernel-face certificate: a boundary point x lies on
an extreme ray exactly when K(ker x) is itself a ray.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import exactla as ela
from .config import RunConfig
from .errors import (
    GroundLatticeError,
    IncompleteRaysError,
    PreconditionError,
    TrivialConeError,
    UnsupportedConfigurationError,
)
from .linalg import Projection, kernel_projection, orthonormal_columns
from .subspace import LinearSection, OperatorSubspace, linear_section

logger = logging.getLogger(__name__)

PSD_TOL = 1e-9        # min-eigenvalue acceptance per unit scale
REPAIR_RESID = 1e-10  # joint residual target for clip/reproject repair
AP_MAX_ITER = 4000
AP_HARD_CAP = 400     # absolute cap on restarts inside one accumulation


@dataclass
class ConeDescriptor:
    """Everything computed about K(p)."""

    base_projection: Projection
    section: LinearSection | None                 # float engine only
    dim_K: int
    is_ray: bool
    interior_witness: object | None = None        # ndarray or Fraction vector
    extreme_ray_generators: list | None = None
    engine: str = "float-hermitian"
    span_basis: list = field(default_factory=list, repr=False)
    samples: list = field(default_factory=list, repr=False)
    witness_support: frozenset | None = None      # exact engine: maximal support


# --------------------------------------------------------------------------
# exact engine
# --------------------------------------------------------------------------

def _analyze_exact(p: Projection, u: OperatorSubspace, cfg: RunConfig) -> ConeDescriptor:
    """Max-support LP loop over the section {y >= 0 on the complement C of
    p, perp[:, C] @ y = 0, sum(y) = 1} of K(p).

    Each LP maximizes the mass on the points R not yet in the support; the
    positive points of its optimizer join the support.  An optimum of 0
    certifies that every point of R is zero on all of K(p).
    """
    n = u.ambient_n
    complement = sorted(set(range(n)) - p.classical_support)
    trivial = ConeDescriptor(base_projection=p, section=None, dim_K=0, is_ray=False,
                             engine=u.engine, witness_support=frozenset())
    rows = [r for r in ([w[x] for x in complement] for w in u.perp) if any(r)]
    a_eq = rows + [[Fraction(1)] * len(complement)]
    b_eq = ela.zeros(len(rows)) + [Fraction(1)]

    rest = set(range(len(complement)))
    optimizers = []
    while rest:
        objective = [Fraction(i in rest) for i in range(len(complement))]
        status, val, y = ela.simplex_max(objective, a_eq, b_eq)
        if status == ela.SimplexStatus.INFEASIBLE:
            return trivial
        if status != ela.SimplexStatus.OPTIMAL:
            raise GroundLatticeError(
                f"max-support LP on a compact section returned {status!r}")
        if val == 0:
            break
        optimizers.append(y)
        rest -= {i for i, yi in enumerate(y) if yi > 0}
    if not optimizers:
        return trivial

    support = [x for i, x in enumerate(complement) if i not in rest]
    witness = ela.zeros(n)
    for y in optimizers:
        for i, x in enumerate(complement):
            witness[x] += y[i]
    witness = ela.scale(witness, Fraction(1, len(optimizers)))

    # span K(p) = {g in U : g = 0 off the support}
    span = []
    for v in ela.null_space([[w[x] for x in support] for w in u.perp], ncols=len(support)):
        g = ela.zeros(n)
        for x, vx in zip(support, v):
            g[x] = vx
        span.append(g)
    dim_k = len(span)
    return ConeDescriptor(base_projection=p, section=None, dim_K=dim_k,
                          is_ray=dim_k == 1, interior_witness=witness,
                          engine=u.engine, span_basis=span,
                          witness_support=frozenset(support))


def _combine_exact(basis, coeffs, n):
    out = ela.zeros(n)
    for c, b in zip(coeffs, basis):
        if c != 0:
            out = ela.add(out, ela.scale(b, c))
    return out


def _extreme_rays_exact(desc: ConeDescriptor) -> list:
    """Complete double-description enumeration on the polyhedral cone."""
    d = desc.dim_K
    support = sorted(desc.witness_support)
    if d == 1:
        return [_unit_trace_exact(desc.interior_witness)]
    rows = [[g[x] for g in desc.span_basis] for x in support]
    rays = {}
    for subset in combinations(range(len(rows)), d - 1):
        sub = [rows[i] for i in subset]
        null = ela.null_space(sub, ncols=d)
        if len(null) != 1:
            continue
        v = null[0]
        vals = ela.mat_vec(rows, v)
        if all(x >= 0 for x in vals):
            pass
        elif all(x <= 0 for x in vals):
            v = [-x for x in v]
        else:
            continue
        g = _combine_exact(desc.span_basis, v, len(desc.interior_witness))
        g = _unit_trace_exact(g)
        rays[tuple(g)] = g
    return [rays[k] for k in sorted(rays)]


def _unit_trace_exact(g):
    total = sum(g, Fraction(0))
    if total <= 0:
        raise GroundLatticeError(f"cone generator has trace {total}, not positive")
    return ela.scale(g, Fraction(1) / total)


# --------------------------------------------------------------------------
# float engine
# --------------------------------------------------------------------------

class _SectionOps:
    """Fast projection onto span(L-basis) plus PSD clipping."""

    def __init__(self, sec: LinearSection):
        self.sec = sec
        self.n = sec.base_projection.n
        self.stack = np.stack(sec.basis) if sec.basis else np.zeros((0, self.n, self.n), complex)

    def coeffs(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("kij,ij->k", self.stack.conj(), x).real

    def reconstruct(self, c: np.ndarray) -> np.ndarray:
        return np.tensordot(c, self.stack, axes=1)

    def project(self, x: np.ndarray) -> np.ndarray:
        y = self.reconstruct(self.coeffs(x))
        return 0.5 * (y + y.conj().T)

    @staticmethod
    def clip_psd(y: np.ndarray) -> tuple[np.ndarray, float]:
        # LAPACK eigh here: this is the hot loop of the accumulation
        w, v = np.linalg.eigh(0.5 * (y + y.conj().T))
        lam_min = float(w[0]) if len(w) else 0.0
        wc = np.clip(w, 0.0, None)
        return (v * wc) @ v.conj().T, lam_min

    def ap_into_cone(self, seed: np.ndarray,
                     max_iter: int = AP_MAX_ITER,
                     target: float = REPAIR_RESID) -> np.ndarray | None:
        """Alternate project-onto-L / clip-to-PSD until the joint residual
        falls below ``target``; None on collapse to zero or iteration cap."""
        x = seed
        for _ in range(max_iter):
            y = self.project(x)
            z, _ = self.clip_psd(y)
            norm_z = float(np.linalg.norm(z))
            if norm_z <= 1e-12:
                return None
            resid = float(np.linalg.norm(z - y))
            if resid <= target * max(1.0, norm_z):
                out = self.project(z)
                _, lam_min = self.clip_psd(out)
                if lam_min < -PSD_TOL * max(1.0, float(np.linalg.norm(out))):
                    return None
                return out
            x = z
        return None


def _psd_rank(m: np.ndarray, tol: float) -> int:
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    top = float(w[-1]) if len(w) else 0.0
    return int(np.sum(w > tol * max(1.0, top)))


def _span_rank(vectors: list[np.ndarray], tol: float) -> int:
    if not vectors:
        return 0
    m = np.stack(vectors)
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > tol * max(1.0, float(sv[0]))))


def _analyze_float(p: Projection, u: OperatorSubspace, cfg: RunConfig) -> ConeDescriptor:
    sec = linear_section(p, u, cfg.tol_rank)
    n = u.ambient_n
    if sec.dim == 0:
        return ConeDescriptor(base_projection=p, section=sec, dim_K=0,
                              is_ray=False, engine=u.engine)
    if sec.dim == 1:
        # K = L ∩ PSD with a one-dimensional L: a direct sign test
        b = sec.basis[0]
        w = np.linalg.eigvalsh(b)
        scale = max(1.0, float(np.max(np.abs(w))))
        if w[0] >= -PSD_TOL * scale:
            gen = b
        elif w[-1] <= PSD_TOL * scale:
            gen = -b
        else:
            return ConeDescriptor(base_projection=p, section=sec, dim_K=0,
                                  is_ray=False, engine=u.engine)
        gen = gen / float(np.trace(gen).real)
        return ConeDescriptor(base_projection=p, section=sec, dim_K=1, is_ray=True,
                              interior_witness=gen, engine=u.engine,
                              span_basis=[b], samples=[gen])
    ops = _SectionOps(sec)

    samples: list[np.ndarray] = []
    coeff_samples: list[np.ndarray] = []
    acc = np.zeros((n, n), dtype=np.complex128)
    acc_rank = 0

    def consider(v: np.ndarray) -> bool:
        """Normalize, record, and fold into the witness; True if rank grew."""
        nonlocal acc, acc_rank
        tr = float(np.trace(v).real)
        if tr <= 1e-12:
            return False
        v = v / tr
        samples.append(v)
        coeff_samples.append(ops.coeffs(v))
        grew = _psd_rank(acc + v, cfg.tol_rank) > acc_rank
        if grew:
            acc = acc + v
            acc_rank = _psd_rank(acc, cfg.tol_rank)
        return grew

    # deterministic probes: the PSD parts of each section basis direction
    for b in sec.basis:
        for sign in (1.0, -1.0):
            seed, _ = ops.clip_psd(sign * b)
            if float(np.linalg.norm(seed)) <= 1e-12:
                continue
            v = ops.ap_into_cone(seed)
            if v is not None:
                consider(v)

    failures = 0
    attempt = 0
    while failures < cfg.restarts and attempt < AP_HARD_CAP:
        rng = cfg.rng_for(1, attempt)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        seed = g @ g.conj().T
        if attempt % 2 == 1 and 0 < acc_rank < n:
            # bias toward the unexplored kernel of the accumulated witness
            w, vecs = np.linalg.eigh(acc)
            low = vecs[:, np.abs(w) <= cfg.tol_rank * max(1.0, float(w[-1]))]
            if low.shape[1]:
                k = low @ low.conj().T
                seed = k @ seed @ k
        attempt += 1
        if float(np.linalg.norm(seed)) <= 1e-12:
            failures += 1
            continue
        seed = seed / float(np.trace(seed).real)
        v = ops.ap_into_cone(seed)
        if v is None or not consider(v):
            failures += 1
        else:
            failures = 0

    if not samples:
        return ConeDescriptor(base_projection=p, section=sec, dim_K=0,
                              is_ray=False, engine=u.engine)

    dim_k = _span_rank(coeff_samples, cfg.tol_rank)
    logger.debug("cone accumulation: dim span %d, witness rank %d, attempts %d",
                 dim_k, acc_rank, attempt)

    witness = acc / float(np.trace(acc).real)
    span_cols = _orthonormal_rows(coeff_samples, cfg.tol_rank)
    span_basis = [ops.reconstruct(span_cols[j]) for j in range(span_cols.shape[0])]
    return ConeDescriptor(base_projection=p, section=sec, dim_K=dim_k,
                          is_ray=dim_k == 1, interior_witness=witness,
                          engine=u.engine, span_basis=span_basis, samples=samples)


def _orthonormal_rows(rows, tol: float) -> np.ndarray:
    """Orthonormal basis (as rows) of the row span."""
    return orthonormal_columns(np.stack(rows, axis=1), tol).T


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def analyze_cone(p: Projection, u: OperatorSubspace,
                 cfg: RunConfig | None = None) -> ConeDescriptor:
    """Dimension, ray flag, and relative-interior witness of K(p).

    Deterministic given ``cfg.seed``.  An empty cone is a valid result
    (dim_K = 0, no witness).
    """
    cfg = cfg or RunConfig()
    if p.n != u.ambient_n:
        raise PreconditionError("projection dimension does not match subspace")
    if u.is_exact:
        return _analyze_exact(p, u, cfg)
    return _analyze_float(p, u, cfg)


def relative_interior_point(desc: ConeDescriptor):
    """The stored maximal-rank witness; error if the cone is trivial."""
    if desc.dim_K == 0 or desc.interior_witness is None:
        raise TrivialConeError("K(p) = {0} has no relative interior point")
    return desc.interior_witness


def extreme_rays(desc: ConeDescriptor, cfg: RunConfig | None = None,
                 subspace: OperatorSubspace | None = None) -> list:
    """Generators of extreme rays of K(p), each normalized to unit trace.

    Exact engine: the complete list by double description.  Float engine:
    boundary walks in the trace-one section, each end point certified by
    the kernel-face test (the face of x is a ray iff K(ker x) is); needs
    ``subspace`` and dim_K <= cfg.max_ray_dim.
    """
    cfg = cfg or RunConfig()
    if desc.dim_K < 1:
        raise PreconditionError("extreme rays need dim K(p) >= 1")
    if desc.engine == "exact-commutative":
        rays = _extreme_rays_exact(desc)
        desc.extreme_ray_generators = rays
        return rays
    if desc.dim_K > cfg.max_ray_dim:
        raise UnsupportedConfigurationError(
            f"float extreme-ray search supports dim K <= {cfg.max_ray_dim}, got {desc.dim_K}")
    if subspace is None:
        raise PreconditionError("float extreme-ray search needs the subspace")
    rays = _extreme_rays_float(desc, subspace, cfg)
    desc.extreme_ray_generators = rays
    return rays


def _unit_trace_float(v: np.ndarray) -> np.ndarray:
    return v / float(np.trace(v).real)


def _extreme_rays_float(desc: ConeDescriptor, u: OperatorSubspace,
                        cfg: RunConfig) -> list[np.ndarray]:
    d = desc.dim_K
    if d == 1:
        return [_unit_trace_float(desc.interior_witness)]
    ops = _SectionOps(desc.section)
    w = _unit_trace_float(desc.interior_witness)
    w_coeff = ops.coeffs(w)

    # directions inside the trace-one section: span(K) coefficients with
    # zero trace, i.e. orthogonal complement of the trace functional
    span_rows = np.stack([ops.coeffs(m) for m in desc.span_basis])
    trace_vec = np.array([float(np.trace(b).real) for b in desc.section.basis])
    tt = float(np.dot(trace_vec, trace_vec))
    if tt > 0:
        span_rows = span_rows - np.outer(span_rows @ trace_vec, trace_vec) / tt
    dirs_basis = list(_orthonormal_rows(span_rows, cfg.tol_rank))

    def boundary_point(direction: np.ndarray) -> np.ndarray | None:
        """Largest t with w + t * direction PSD; the boundary matrix."""
        def feasible(t: float) -> bool:
            m = ops.reconstruct(w_coeff + t * direction)
            lam = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
            return lam >= -PSD_TOL * max(1.0, float(np.linalg.norm(m)))
        if not feasible(0.0):
            return None
        hi = 1.0
        for _ in range(80):
            if not feasible(hi):
                break
            hi *= 2.0
        else:
            return None  # direction lies in the cone; no boundary this way
        lo = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        m = ops.reconstruct(w_coeff + lo * direction)
        return 0.5 * (m + m.conj().T)

    def descend(x: np.ndarray) -> np.ndarray | None:
        """Walk down the face lattice of K(p) from boundary point x."""
        q = kernel_projection(x, max(cfg.tol_rank, 1e-8))
        sub = analyze_cone(q, u, cfg)
        if sub.dim_K == 1:
            return _unit_trace_float(sub.interior_witness)
        if sub.dim_K == 0 or sub.dim_K >= d:
            return None  # kernel certificate failed to shrink the face
        try:
            sub_rays = _extreme_rays_float(sub, u, cfg)
        except IncompleteRaysError as err:
            sub_rays = err.partial
        return sub_rays[0] if sub_rays else None

    rays: list[np.ndarray] = []
    ray_coeffs: list[np.ndarray] = []

    def register(candidate: np.ndarray | None) -> None:
        if candidate is None:
            return
        c = ops.coeffs(candidate)
        nc = float(np.linalg.norm(c))
        if nc <= 1e-12:
            return
        for known in ray_coeffs:
            if float(np.linalg.norm(c / nc - known / np.linalg.norm(known))) <= 1e-6:
                return
        rays.append(_unit_trace_float(candidate))
        ray_coeffs.append(c)

    trial_dirs = []
    for e in dirs_basis:
        trial_dirs.append(e)
        trial_dirs.append(-e)
    rng_budget = 12 * d
    for t in range(rng_budget):
        rng = cfg.rng_for(2, t)
        if dirs_basis:
            coeffs = rng.normal(size=len(dirs_basis))
            v = sum(c * e for c, e in zip(coeffs, dirs_basis))
            nv = float(np.linalg.norm(v))
            if nv > 1e-12:
                trial_dirs.append(v / nv)

    for direction in trial_dirs:
        if _span_rank(ray_coeffs, cfg.tol_rank) >= d:
            break
        x = boundary_point(direction)
        if x is None:
            continue
        register(descend(x))

    if _span_rank(ray_coeffs, cfg.tol_rank) < d:
        raise IncompleteRaysError(
            f"found {len(rays)} extreme rays spanning "
            f"{_span_rank(ray_coeffs, cfg.tol_rank)} < {d} dimensions", partial=rays)
    return rays
