"""Analysis of the operator cone K(p): the PSD elements of U that kill p.

K(p) is the set of positive semi-definite members of U whose kernel
contains the image of p.  Its linear hull candidate is the section
L(p) = {u in U : p u = u p = 0} = U ∩ Herm(range(1 - p)), and
K(p) = L(p) ∩ PSD.  The analysis decides the rank of q_max(p), which is
all that membership needs; the descriptor computes dim K(p), a basis of
the span of K(p) and a relative-interior witness of maximal rank on first
read, from data the analysis already holds, so a decision builds neither
span nor witness.  :func:`extreme_rays` computes extreme-ray generators on
request.

Exact engine: the cone is polyhedral, cut out of U by nonnegativity off p;
membership in U is ``perp @ g = 0`` for the primitive integer rows
``perp`` of U⊥.  Everything up to the output runs on integers.  The
maximal support S comes from facial reduction.  Sign cuts drop the points
where a vector of U⊥ that has one sign on the points still live is
nonzero, until none cuts; many cones K(p) = {0} end there, with no LP.
The vectors are ``OperatorSubspace.perp_signs``: on a k-local space the
product vectors of :func:`subspace.local_circuit_signs`, which the site
symmetries permute, so symmetric supports are cut alike; else the rows
of ``perp``.
One max-min LP then maximizes the least entry of a trace-one y on the
live points, on one integer tableau (:class:`exactla.Tableau`, which
keeps each row primitive, rewrites only the rows a pivot touches and
stores no artificial columns): a positive optimum certifies that S is all
of them, and an optimum of 0 drops the points its dual row exposes (the
negative reduced costs) and continues the max-support loop on the same
tableau for the points not yet hit.  dim K(p) is |S| - rank perp[:, S],
from one elimination; the span of K(p) is the null space of ``perp`` on S
(:func:`subspace.supported_on`, which also gives the exact section); and
extreme rays come from incremental double description on integer vectors:
start from the simplicial cone that this null-space basis spans, add the
other points of S one at a time, and combine a positive and a negative ray
only when the zero-set test finds them adjacent.  Only the witness and the
unit-trace rays of :func:`extreme_rays` are Fractions; :func:`integer_rays`
gives the same rays as primitive integer vectors.

Float engine: facial reduction.  L(p) is read off U or off U⊥, whichever
costs less (:func:`subspace.linear_section`), and compressed to the range
of 1 - p.  A log-barrier phase I maximizes the least eigenvalue
over its trace-one elements from the minimum-norm one, which ends it at
once when positive definite.  A positive-definite element is a witness of
maximal rank, and the section spans K(p); a negative optimum means
K(p) = {0}; an optimum of zero cuts the face down to the large
eigenvalues of the last iterate and repeats, at most rank(1 - p) times;
each cut loosens the later tolerances to the tilt it can leave.  Extreme
rays come from face descents: from a point inside a face, move in the
trace-one section to a boundary point x and replace the face by K(ker x),
the smallest face holding x, until the face is a ray; ker x is read off
the whitened eigenproblem that finds x.  :func:`extreme_rays` keeps the
first dim K(p) linearly independent rays.  The same descents from K(0)
give the float coatoms.  A U whose elements commute skips the descents
when it has an exact reading (:meth:`OperatorSubspace.exact_reading`):
for p diagonal in its frame, :func:`extreme_rays` runs the exact cone of
p's support on the exact subspace, and, when that cone has the float
dim K(p), returns its :func:`pivot_rays` as frame diag(g) frame*;
:func:`lattice.coatom_decomposition` reads its parts off the zero sets of
the same rays.  Decisions stay on the float cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import exactla as ela
from .config import RunConfig
from .errors import (
    GroundLatticeError,
    IncompleteRaysError,
    InputError,
    NonConvergenceError,
    PreconditionError,
    TrivialConeError,
)
from .linalg import Projection, eigh, nullspace_cols, range_cols
from .subspace import ENGINE_EXACT, OperatorSubspace, linear_section, supported_on

PSD_TOL = 1e-9        # phase-I acceptance of t* = max lambda_min(X) at tr X = 1
MU_FACE = 1e-10       # barrier weight times face size at which t* = 0 is decided
MU_STEP = 100.0       # barrier weight reduction per centred point
CENTRED = 1e-3        # Newton decrement that counts as centred
NEWTON_CAP = 500      # Newton steps per phase-I round
HESS_RCOND = 1e-14    # relative singular-value cutoff of the Newton system
LINE_STEPS = 30       # scalar Newton steps of one line search


@dataclass
class ConeDescriptor:
    """Everything computed about K(p).

    ``q_max_rank``, ``witness_support`` and ``margin`` come from the
    analysis.  ``dim_K``, ``span_basis`` and ``interior_witness`` are
    computed on first read, once, from ``source``, which starts with the
    subspace: then the LP columns (the points the sign cuts leave) and the
    optimizers y over them of the max-min LP and the loop after it (exact), or
    the phase-I coefficients x, the face section c, the face, the
    restriction coefficients and the section stack (float); None when
    K(p) = {0}.
    """

    base_projection: Projection
    # rank of q_max(p), the kernel of a maximal witness: n - |maximal support|
    # (exact), n - rank of the final face (float, at tol_rank <= PSD_TOL), n
    # when K(p) = {0}
    q_max_rank: int
    engine: str = "float-hermitian"
    witness_support: frozenset | None = None      # exact engine: maximal support
    # float engine: the closest call of the facial reduction as a ratio to
    # its threshold (|t*| / tolerance, lambda_min(X0) / tolerance <= that when
    # phase I accepts its start, or the eigenvalue gap at a face split)
    margin: float | None = None
    source: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def dim_K(self) -> int:
        """dim K(p), the length of ``span_basis``, computed without it."""
        if self.source is None:
            return 0
        if self.engine == ENGINE_EXACT:     # |S| - rank perp[:, S]
            support = sorted(self.witness_support)
            rows = [[w[x] for x in support] for w in self.source[0].perp]
            return len(support) - len(ela.integer_rref(rows)[1])
        return self.source[4].shape[1]

    @cached_property
    def span_basis(self) -> list:
        """Basis of the span of K(p): primitive int vectors, each positive at
        its free point and zero at the others (exact), or matrices (float)."""
        if self.source is None:
            return []
        if self.engine == ENGINE_EXACT:
            return supported_on(self.source[0], sorted(self.witness_support))
        coeffs, stack = self.source[4:]
        return list(np.tensordot(coeffs.T, stack, axes=1))

    @cached_property
    def interior_witness(self):
        """Unit-trace element of maximal rank: the mean of the LP optimizers
        (a Fraction vector) or face X face* (an ndarray); None when K(p) = {0}."""
        if self.source is None:
            return None
        if self.engine == ENGINE_EXACT:
            _, columns, optimizers = self.source
            witness = ela.zeros(self.base_projection.n)
            for i, x in enumerate(columns):
                witness[x] = sum(Fraction(y[i], det) for y, det in optimizers) / len(optimizers)
            return witness
        x, c, face = self.source[1:4]
        return _unit_trace_float(face @ np.tensordot(x, c, axes=1) @ face.conj().T)

    @property
    def is_ray(self) -> bool:
        return self.dim_K == 1

    @property
    def member(self) -> bool:
        """p = q_max(p), read as rank q_max(p) = rank p: p <= q_max(p) always."""
        return self.q_max_rank == self.base_projection.rank


# --------------------------------------------------------------------------
# exact engine
# --------------------------------------------------------------------------

def _analyze_exact(p: Projection, u: OperatorSubspace, cfg: RunConfig) -> ConeDescriptor:
    """Maximal support S of K(p) = {y >= 0 on the complement C of p :
    perp[:, C] @ y = 0}, by facial reduction.

    Sign cuts come first: a vector w of U⊥ (``u.perp_signs``) with one
    sign on the points still live forces y = 0 wherever it is nonzero
    there, as w . y = 0 and y >= 0.  They repeat until none cuts; with no
    point left, K(p) = {0} and no tableau is built.  On the live points L, one tableau over
    (z, t), with y = z + t 1 and z, t >= 0, holds the rows
    [perp[:, L] | row sums] = 0 and [1 ... 1 | |L|] = 1, and maximizes t,
    the least entry of y.  An optimum t > 0 certifies S = L, and its y is
    the witness.  At t = 0 the dual row pi of the optimal basis has
    A^T pi >= 0 on the z columns and sum(A^T pi) >= 1 on t, so pi exposes
    a face: each point whose z column has a negative reduced cost
    (``Tableau.obj``) is zero on all of K(p), and there is at least one.
    Those points drop, and the max-support loop goes on from the same
    basis for the points R the max-min vertex has not hit: each LP
    maximizes the mass on R, sum_R z + |R| t, the positive points of its
    optimizer join the support, and an optimum of 0 certifies that every
    point of R is zero on all of K(p).
    """
    n = u.ambient_n
    live = (1 << n) - 1
    for x in p.classical_support:
        live ^= 1 << x
    while live:
        dead = 0
        for pos, neg in u.perp_signs:
            if not live & neg:
                dead |= live & pos
            elif not live & pos:
                dead |= live & neg
        if not dead:
            break
        live ^= dead
    if not live:
        return _zero_cone(p, u)

    columns = [x for x in range(n) if live >> x & 1]
    m = len(columns)
    rows = [r + [sum(r)] for r in ([w[x] for x in columns] for w in u.perp) if any(r)]
    tableau = ela.Tableau(rows + [[1] * m + [m]], [0] * len(rows) + [1])
    rest, support, optimizers = set(range(m)), set(), []
    objective = [0] * m + [1]
    while rest:
        status, x, det = tableau.maximize(objective)
        if status == ela.SimplexStatus.INFEASIBLE:
            return _zero_cone(p, u)
        if status != ela.SimplexStatus.OPTIMAL:
            raise GroundLatticeError(
                f"cone LP on a compact section returned {status!r}")
        y = [z + x[m] for z in x[:m]]
        hit = {i for i in rest if y[i] > 0}
        if not hit:
            break
        if not optimizers and not x[m]:     # max-min optimum 0: the dual row cuts
            rest -= {i for i in range(m) if tableau.obj[i] < 0}
        optimizers.append((y, det))
        support |= hit
        rest -= hit
        objective = [int(i in rest) for i in range(m)] + [len(rest)]

    return ConeDescriptor(base_projection=p, q_max_rank=n - len(support), engine=u.engine,
                          witness_support=frozenset(columns[i] for i in support),
                          source=(u, columns, optimizers))


def _zero_cone(p: Projection, u: OperatorSubspace) -> ConeDescriptor:
    """The descriptor of an exact K(p) = {0}."""
    return ConeDescriptor(base_projection=p, q_max_rank=u.ambient_n, engine=u.engine,
                          witness_support=frozenset())


def integer_rays(desc: ConeDescriptor) -> list[list[int]]:
    """Integer extreme rays of an exact K(p), by double description on its support S.

    The span basis as :func:`subspace.supported_on` gives it holds d
    vectors that each are positive at one free point of S and zero at the
    others: the rays of the simplicial cone {g >= 0 on the free points}.
    Each other point x of S then cuts the cone by g(x) >= 0: the rays with
    g(x) >= 0 stay, and every pair of a positive and a negative ray
    combines into a ray with g(x) = 0 when the two are adjacent, that is,
    when no third ray vanishes on every point where both vanish.  Rays are
    kept as gcd-normalised integer vectors, with their zero sets over the
    points added so far as bitmasks, and are returned in the order
    :func:`extreme_rays` gives their unit-trace multiples.
    """
    rays = desc.span_basis
    d = len(rays)
    # the free points are the last basis among the points of S (the
    # complement of the first basis of the columns of perp): the free point
    # of a vector is the last point where it alone is nonzero, and positive
    nonzero = [sum(1 for g in rays if g[x]) for x in range(desc.base_projection.n)]
    free = [max(x for x, v in enumerate(g) if v > 0 and nonzero[x] == 1) for g in rays]
    # so the other points go in from the last down; bit i of a zero set
    # stands for the i-th point in, so zero sets stay short while few are in
    zero_sets = [(1 << d) - 1 - (1 << i) for i in range(d)]
    for bit, x in enumerate(sorted(desc.witness_support - set(free), reverse=True), d):
        kept, kept_zeros, positive, negative = [], [], [], []
        for ray, zs in zip(rays, zero_sets):
            if ray[x] < 0:
                negative.append((ray, zs))
                continue
            if ray[x] > 0:
                positive.append((ray, zs))
            else:
                zs |= 1 << bit
            kept.append(ray)
            kept_zeros.append(zs)
        for a, za in positive:
            for b, zb in negative:
                # adjacent rays share d - 2 independent zeros at least
                common = za & zb
                if common.bit_count() >= d - 2 and _adjacent(common, zero_sets):
                    kept.append(ela.primitive([a[x] * vb - b[x] * va for va, vb in zip(a, b)]))
                    kept_zeros.append(common | 1 << bit)
        rays, zero_sets = kept, kept_zeros
    lam = math.lcm(*(sum(g) for g in rays))    # order as if scaled to trace lam
    return sorted(rays, key=lambda g: [v * (lam // sum(g)) for v in g])


def pivot_rays(desc: ConeDescriptor) -> list[list[int]]:
    """The first dim K(p) linearly independent rays of :func:`integer_rays`:
    the pivot columns of one integer elimination."""
    rays = integer_rays(desc)
    return [rays[j] for j in ela.integer_rref([list(col) for col in zip(*rays)])[1]]


def _adjacent(common: int, zero_sets: list[int]) -> bool:
    """Whether only the two rays of a pair vanish on all of ``common``."""
    count = 0
    for zs in zero_sets:
        if zs & common == common:
            count += 1
            if count > 2:
                return False
    return True


def _unit_trace_exact(g: list[int]) -> list[Fraction]:
    total = sum(g)
    if total <= 0:
        raise GroundLatticeError(f"cone generator has trace {total}, not positive")
    return [Fraction(x, total) for x in g]


# --------------------------------------------------------------------------
# float engine
# --------------------------------------------------------------------------

def _phase_one(c: np.ndarray, tol_rank: float, tol: float) -> tuple:
    """Barrier phase I for  max t  s.t.  X - tI >= 0, X in span(c), tr X = 1.

    ``c`` holds hermitian r x r matrices.  The start X0 = sum_k x0_k c_k,
    x0 = a / |a|^2 for the traces a of ``c``, has trace one, so
    lambda_min(X0) <= t*: above max(tol, tol_rank), X0 is returned with no
    Newton step.  Otherwise, with X = X0 + sum_j z_j D_j (traceless D_j),
    Newton steps with an exact line search minimize
    -t/mu - log det(X - tI), and mu is cut by MU_STEP at each centred
    point, where t* lies in [t, t + mu r].  Returns the status
    ("interior": t > tol; "empty": K = {0}; "face": |t*| <= tol), the
    decided value (t, or the dual bound t + mu r), the coefficients of X
    in ``c``, and the eigenpairs of X - tI, or of X when "interior".
    """
    r = c.shape[1]
    a = np.einsum("kii->k", c).real
    if np.linalg.norm(a) <= tol_rank:   # a traceless section: no PSD element but 0
        return "empty", -np.inf, None, None, None
    x0 = a / (a @ a)
    x_base = np.tensordot(x0, c, axes=1)
    lam, vecs = eigh(x_base)
    t = float(lam[0])
    if t > max(tol, tol_rank) or len(c) == 1:
        # t = t* when X0 is the only trace-one element; the tol_rank floor
        # keeps X0's eigenvalues above the kernel cutoff of its witness
        status = "interior" if t > tol else "empty" if t < -tol else "face"
        return status, t, x0, lam - min(t, 0.0), vecs
    null = nullspace_cols(a[None, :], tol_rank)
    dirs = np.concatenate([np.tensordot(null.T, c, axes=1), -np.eye(r)[None]])
    w = np.zeros(len(dirs))
    w[-1] = lam[0] - 1.0 / r
    mu = 1.0 / float(np.sum(1.0 / (lam - w[-1])))   # the start is centred in t
    for _ in range(NEWTON_CAP):
        s, vecs = eigh(x_base + np.tensordot(w, dirs, axes=1))
        if s[0] <= 0.0:
            raise NonConvergenceError("phase-I iterate left the PSD cone", residual=float(s[0]))
        inv_sqrt = 1.0 / np.sqrt(s)
        f = (vecs.conj().T @ dirs @ vecs) * np.outer(inv_sqrt, inv_sqrt)
        grad = -np.einsum("kii->k", f).real
        grad[-1] -= 1.0 / mu
        flat = f.reshape(len(f), -1)
        try:
            # near a face the curvature spans (s_max / s_min)^2: the truncated
            # least-squares solve drops the directions it swamps
            step = np.linalg.lstsq((flat.conj() @ flat.T).real, -grad, rcond=HESS_RCOND)[0]
        except np.linalg.LinAlgError as err:
            raise NonConvergenceError(f"phase-I Newton system: {err}",
                                      residual=float("nan")) from err
        if -grad @ step > CENTRED ** 2:
            # damped steps 1 / (1 + decrement) cost a quarter more time
            e = eigh(np.tensordot(step, f, axes=1))[0]
            w = w + _line_search(e, -step[-1] / mu) * step
            continue
        t, x = float(w[-1]), x0 + null @ w[:-1]
        if t > tol:
            return "interior", t, x, s + t, vecs
        if t + mu * r < -tol:
            return "empty", t + mu * r, x, s, vecs
        if mu * r <= MU_FACE:
            return "face", t, x, s, vecs
        mu /= MU_STEP
    raise NonConvergenceError(f"phase I not centred after {NEWTON_CAP} Newton steps",
                              residual=float("nan"))


def _line_search(e: np.ndarray, slope: float) -> float:
    """Minimizer over a > 0 of  a * slope - sum log(1 + a e), by safeguarded
    Newton from a = 0.  ``e`` are the eigenvalues of the step whitened by
    S, so every a < 1 / max(-e) keeps the iterate strictly feasible."""
    cap = 1.0 / -e.min() if e.min() < 0 else np.inf
    a = 0.0
    for _ in range(LINE_STEPS):
        q = e / (1.0 + a * e)
        slope_a = slope - q.sum()
        if slope_a >= 0:
            break
        a_next = a - slope_a / (q @ q)
        a = a_next if a_next < cap else 0.5 * (a + cap)
    return float(a)


def _analyze_float(p: Projection, u: OperatorSubspace, cfg: RunConfig) -> ConeDescriptor:
    """Facial reduction of K(p) = L(p) ∩ PSD on the range of 1 - p.

    Each round runs phase I on the current face.  A positive-definite X
    ends the search: X compressed to its face is the witness, and the
    section restricted to the face spans K(p).  A face with t* = 0 is cut
    at the widest eigenvalue gap s_low / s_high of the last iterate (the
    central path tends to the analytic centre of the optimal face), and
    the section restricted to the matrices supported above the cut.  Where
    phase I is not strictly complementary the low eigenvalues, and the
    tilt of the kept eigenvectors, fall like sqrt(mu), not mu; so each cut
    raises the tolerance of the restriction and of later decisions to
    sqrt(s_low / s_high), the PSD bound on that tilt.
    """
    sec = linear_section(p, u, cfg.tol_rank)
    empty = ConeDescriptor(base_projection=p, q_max_rank=p.n, engine=u.engine, margin=np.inf)
    if sec.dim == 0:
        return empty
    stack = sec.basis
    face = sec.face if sec.face is not None else p.complement_basis()
    c = face.conj().T @ stack @ face
    coeffs = np.eye(sec.dim)
    margin = np.inf
    tol = PSD_TOL
    # each cut leaves cut in [1, r - 1], so the face shrinks every round,
    # and on a 1 x 1 face phase I ends "interior" or "empty": the raise
    # after the loop only guards that invariant
    rounds = face.shape[1]
    for _ in range(rounds):
        status, t, x, s, vecs = _phase_one(c, cfg.tol_rank, tol)
        if status == "empty":
            return replace(empty, margin=min(margin, -t / tol))
        if status == "interior":
            # X > 0 on a face inside range(1 - p): the witness's kernel, as
            # kernel_projection reads it, is the complement of the face plus
            # the eigenvalues of X / tr X at most tol_rank (none unless
            # tol_rank > PSD_TOL)
            return ConeDescriptor(
                base_projection=p, q_max_rank=p.n - int(np.sum(s > cfg.tol_rank * s.sum())),
                engine=u.engine, margin=min(margin, t / tol),
                source=(u, x, c, face, coeffs, stack))
        logs = np.log(np.maximum(s, np.finfo(float).tiny))
        cut = int(np.argmax(np.diff(logs))) + 1
        gap = float(np.exp(logs[cut] - logs[cut - 1]))
        margin, tol = min(margin, gap), max(tol, gap ** -0.5)
        off = c @ vecs[:, :cut]
        restrict = nullspace_cols(np.concatenate([off.real, off.imag], axis=1)
                                  .reshape(len(c), -1).T, max(cfg.tol_rank, tol))
        if restrict.shape[1] == 0:
            return replace(empty, margin=margin)
        coeffs = coeffs @ restrict
        face = face @ vecs[:, cut:]
        c = vecs[:, cut:].conj().T @ np.tensordot(restrict.T, c, axes=1) @ vecs[:, cut:]
    raise NonConvergenceError(
        f"facial reduction did not end within rank(1 - p) = {rounds} rounds",
        residual=float("nan"))


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def analyze_cone(p: Projection, u: OperatorSubspace,
                 cfg: RunConfig | None = None) -> ConeDescriptor:
    """The rank of q_max(p), with dim K(p), the span and a relative-interior
    witness computed on first read (see :class:`ConeDescriptor`).

    Deterministic, and independent of ``cfg.seed``.  An empty cone is a
    valid result (dim_K = 0, no witness).  Float descriptors carry
    ``margin``, the closest call of the facial reduction as a ratio to its
    threshold.
    """
    cfg = cfg or RunConfig()
    if p.n != u.ambient_n:
        raise PreconditionError("projection dimension does not match subspace")
    if u.is_exact:
        if not p.is_commutative:
            raise InputError("exact engine needs support-based projections")
        return _analyze_exact(p, u, cfg)
    return _analyze_float(p, u, cfg)


def relative_interior_point(desc: ConeDescriptor):
    """The stored maximal-rank witness; error if the cone is trivial."""
    if desc.dim_K == 0 or desc.interior_witness is None:
        raise TrivialConeError("K(p) = {0} has no relative interior point")
    return desc.interior_witness


def extreme_rays(desc: ConeDescriptor, cfg: RunConfig | None = None) -> list:
    """Generators of extreme rays of K(p), each normalized to unit trace.

    Exact engine: the complete list, sorted, by incremental double
    description with the combinatorial adjacency test.  Float engine:
    dim K(p) linearly independent rays.  When U has an exact reading, p
    is diagonal in its frame and the exact cone of p's support has the
    same dim K(p), they are the :func:`pivot_rays` of that cone, as frame
    diag(g) frame* / tr g.  Otherwise they come in the order the face
    descents from the witness reach them (see :func:`descent_rays`): each
    ray that raises the rank of those kept is kept, over at most
    12 dim K(p) descents, else :class:`IncompleteRaysError` with every
    ray found.
    """
    cfg = cfg or RunConfig()
    if desc.dim_K < 1:
        raise PreconditionError("extreme rays need dim K(p) >= 1")
    if desc.engine == ENGINE_EXACT:
        return [_unit_trace_exact(g) for g in integer_rays(desc)]
    found = _reading_rays(desc, cfg)
    if found is not None:
        reading, _, rays = found
        return [reading.matrix(g) for g in rays]
    return _extreme_rays_float(desc, cfg)


def _reading_rays(desc: ConeDescriptor, cfg: RunConfig) -> tuple | None:
    """For a float K(p) with dim K(p) >= 1: the exact reading of U, p's
    support in its frame and the :func:`pivot_rays` of the exact cone of
    that support, when U has a reading, p is diagonal in its frame and that
    cone has the float dim K(p); else None."""
    reading = desc.source[0].exact_reading(cfg.tol_rank)
    support = None if reading is None else reading.support_of(desc.base_projection)
    if support is None:
        return None
    # the private analysis: the traced analyze_cone counts float cones only
    exact = _analyze_exact(Projection.from_support(desc.base_projection.n, support),
                           reading.exact, cfg)
    return (reading, support, pivot_rays(exact)) if exact.dim_K == desc.dim_K else None


def _unit_trace_float(v: np.ndarray) -> np.ndarray:
    return v / float(np.trace(v).real)


def _exit_time(w: np.ndarray, d: np.ndarray) -> tuple[float, tuple]:
    """The largest t with w + t d >= 0, for d on the face of w, or inf when
    d never leaves the cone, with the eigenpairs it is read from.  On that
    face w + t d = w^{1/2} (1 + t m) w^{1/2} with m = w^{-1/2} d w^{-1/2},
    so t = -1 / m_min."""
    lam, vecs = eigh(w)
    on = lam > PSD_TOL
    face = vecs[:, on] / np.sqrt(lam[on])
    m, v = eigh(face.conj().T @ d @ face)
    return (np.inf if m[0] >= 0.0 else -1.0 / float(m[0])), (vecs[:, ~on], face, m, v)


def _exit(w: np.ndarray, d: np.ndarray) -> np.ndarray | None:
    """An orthonormal basis of ker(w + t d) at the :func:`_exit_time` t, or
    None when d never leaves the cone: ker w plus w^{-1/2} v for the
    eigenvectors v of m with 1 + t m <= PSD_TOL."""
    t, (null, face, m, v) = _exit_time(w, d)
    if m[0] >= 0.0:
        return None
    return np.linalg.qr(np.concatenate([null, face @ v[:, 1.0 + t * m <= PSD_TOL]], axis=1))[0]


def _descend(desc: ConeDescriptor, cfg: RunConfig, found: np.ndarray,
             mean: np.ndarray | None, rng: np.random.Generator) -> np.ndarray | None:
    """One walk from inside a float cone down its faces to a ray.

    Each step takes a random trace-free direction R in the span of the
    current face F and a relative-interior point W of F halfway from the
    unit-trace witness to the boundary along R.  It moves from W along a
    trace-free direction D to the boundary point x = W + t D, where t is
    the largest step that keeps W + t D >= 0.  The smallest face of K(0)
    holding x is K(ker x) (Ramana & Goldman 1995), a proper face of F, so
    the dimension drops at every step; ker x is read off the eigenproblem
    that gives t (:func:`_exit`).  D is W minus the mean of the rays of
    ``found`` that lie on F: along it every ray of a simplicial F not yet
    found keeps a growing coefficient, so the walk ends on a new one.
    When F holds no found ray, D = R.  ``mean`` is the mean of ``found``,
    all of which lie on the first F, or None.  Returns the unit-trace ray,
    or None when it is in ``found`` or a step does not shrink the face.
    """
    n = desc.base_projection.n
    while True:
        w = _unit_trace_float(desc.interior_witness)
        if desc.dim_K == 1:
            return None if mean is not None else w
        g = np.tensordot(rng.normal(size=desc.dim_K), np.stack(desc.span_basis), axes=1)
        r = g - np.trace(g).real * w
        w = w + 0.5 * _exit_time(w, r)[0] * r
        kernel = _exit(w, w - mean if mean is not None else r)
        if kernel is None:
            return None
        sub = analyze_cone(Projection(n=n, image_basis=kernel), desc.source[0], cfg)
        if not 0 < sub.dim_K < desc.dim_K:
            return None
        desc = sub
        # the found rays on this face, among those on the last one: a PSD
        # ray g lies on K(q) exactly when g q = 0
        found = found[np.linalg.norm((found.reshape(-1, n) @ kernel)
                                     .reshape(len(found), kernel.size), axis=1) <= 1e-6]
        mean = found.mean(axis=0) if len(found) else None


def descent_rays(desc: ConeDescriptor, cfg: RunConfig, attempts: int, stream: int):
    """Yields the distinct unit-trace extreme rays of a float cone that up
    to ``attempts`` face descents reach, as they reach them; descent t
    draws from random stream ``cfg.rng_for(stream, t)``.  The caller stops
    the search by no longer asking for rays."""
    n = desc.base_projection.n
    buf, count = np.empty((8, n, n), complex), 0      # doubled when full
    total = np.zeros((n, n), complex)                  # the sum of the rays found
    for t in range(attempts):
        ray = _descend(desc, cfg, buf[:count], total / count if count else None,
                       cfg.rng_for(stream, t))
        if ray is None:
            continue
        if count == len(buf):
            buf = np.concatenate([buf, np.empty_like(buf)])
        buf[count] = ray
        total += ray
        count += 1
        yield ray


def _extreme_rays_float(desc: ConeDescriptor, cfg: RunConfig) -> list[np.ndarray]:
    d, n = desc.dim_K, desc.base_projection.n
    found, kept = [], []
    for ray in descent_rays(desc, cfg, 12 * d, 2):
        found.append(ray)
        rows = np.stack(kept + [ray]).reshape(len(kept) + 1, n * n).view(float)
        if range_cols(rows, cfg.tol_rank).shape[1] > len(kept):
            kept.append(ray)
            if len(kept) == d:
                return kept
    raise IncompleteRaysError(
        f"found {len(found)} extreme rays spanning {len(kept)} < {d} dimensions",
        partial=found)
