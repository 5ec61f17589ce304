"""The lattice of ground projections of an operator subspace.

Membership is decided by the greatest-projection characterization: the
projections q with K(q) = K(p) have a greatest element q_max(p), the
kernel of a relative-interior witness of K(p), and p belongs to the
lattice exactly when p = q_max(p).  Since p <= q_max(p) always, that is
the rank equality rank q_max(p) = rank p, read off the cone analysis
(:attr:`ConeDescriptor.member`) with no eigendecomposition of the witness
and no principal-angle test.  Coatoms are the members whose cone is a
ray, so a decision reads only ``q_max_rank`` and ``dim_K``; the span and
the witness, which the descriptor computes on first read, are built only
for decompositions, q_max and coatom enumeration.  Coatoms are read off
as the kernels of the extreme rays of K(0) = U ∩ PSD, all of them in the
exact engine and those that face descents reach in the float engine.  A
float U with an exact reading (:meth:`OperatorSubspace.exact_reading`:
its elements commute and are rational functions on the columns of a joint
eigenbasis) gets the complete exact coatoms and closure of the reading,
with each support mapped back to its frame columns, flagged "complete".
Its decompositions of members diagonal in the frame are read off supports
the same way; membership and dim K(p) stay on the float cone.  An exact
decomposition runs no cone LP: it reads membership off the sign cuts and
the supports of the rays of one double description on the complement of p
(:func:`cone.member_rays`).
The lattice is built from the top down: every node is the intersection of the
coatoms above it, keyed by their bitmask (its intent), and Lindig's
neighbour test picks its lower covers among its meets with one more
coatom.  Exact nodes are supports; float nodes are image bases B, whose
meets with all coatoms Q outside the intent come from one batched SVD of
the stacked (1 - Q) B (:func:`linalg.meet_bases`), and whose intents come
from one product with the stacked complements 1 - Q of all coatoms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cache, reduce

import numpy as np

from .cone import (
    ConeDescriptor,
    analyze_cone,
    descent_rays,
    extreme_rays,
    integer_rays,
    member_rays,
    pivot_rays,
)
from .config import RunConfig
from .errors import IncompleteRaysError, NodeBudgetError, PreconditionError
from .linalg import (
    CANON_TOL,
    Projection,
    image_intersection,
    kernel_projection,
    meet_bases,
    sort_keys,
)
from .subspace import OperatorSubspace


def _require_identity(u: OperatorSubspace):
    if not u.contains_identity:
        raise PreconditionError("the subspace must contain the identity matrix")


def _kernel_of(witness, u: OperatorSubspace, cfg: RunConfig) -> Projection:
    if u.is_exact:
        support = frozenset(i for i, v in enumerate(witness) if v == 0)
        return Projection.from_support(u.ambient_n, support)
    return kernel_projection(witness, cfg.tol_rank)


def q_max_from_descriptor(desc: ConeDescriptor, u: OperatorSubspace,
                          cfg: RunConfig) -> Projection:
    if u.is_exact:      # the witness is positive exactly on the maximal support
        return Projection.from_support(u.ambient_n, set(range(u.ambient_n)) - desc.witness_support)
    if desc.dim_K == 0:
        return u.identity_projection()
    return _kernel_of(desc.interior_witness, u, cfg)


def q_max(p: Projection, u: OperatorSubspace, cfg: RunConfig | None = None) -> Projection:
    """Greatest projection with the same cone as p.

    The kernel of a maximal-rank witness of K(p); the identity when the
    cone is trivial, and the zero projection when the witness is positive
    definite.  Requires the identity inside U.
    """
    cfg = cfg or RunConfig()
    _require_identity(u)
    desc = analyze_cone(p, u, cfg)
    return q_max_from_descriptor(desc, u, cfg)


def is_ground_projection(p: Projection, u: OperatorSubspace,
                         cfg: RunConfig | None = None) -> bool:
    """Membership in the ground-projection lattice: p equals q_max(p).

    As p <= q_max(p), this is rank q_max(p) = rank p, compared as integers
    (:attr:`ConeDescriptor.member`); with K(p) = {0}, q_max(p) = id and p
    is a member exactly when rank p = n.
    """
    cfg = cfg or RunConfig()
    _require_identity(u)
    return analyze_cone(p, u, cfg).member


def is_coatom(p: Projection, u: OperatorSubspace, cfg: RunConfig | None = None) -> bool:
    """Maximal proper lattice element test: a member (by the rank rule of
    :func:`is_ground_projection`) whose cone is a ray; dim K(p) is read
    only for members."""
    cfg = cfg or RunConfig()
    _require_identity(u)
    desc = analyze_cone(p, u, cfg)
    return desc.member and desc.dim_K == 1


def coatom_decomposition(p: Projection, u: OperatorSubspace,
                         cfg: RunConfig | None = None) -> list[Projection]:
    """Coatoms q_1 .. q_d (d = dim K(p)) whose intersection is p.

    The q_i are the kernels of the first d linearly independent extreme
    rays of K(p): the pivot columns of one integer elimination of the
    exact rays, or the d rays that float :func:`extreme_rays` returns.  Any d
    independent rays span the linear hull of K(p), so the range of their
    sum holds the range of every element of K(p), and their kernels meet
    in the kernel of a witness, which is p.  Exact kernels are supports:
    the rays are the :func:`cone.member_rays` of p, with no cone LP; p is
    a member exactly when the sign cuts keep its whole complement C and
    the union of the rays' supports is C, and then the zero sets meet in
    p's support.  So do those of a float U with an exact reading when p is
    diagonal in its frame and its support S has member rays on the
    reading with the float dim K(p): their zero sets are mapped to frame
    columns.  Other float p take the rays of :func:`extreme_rays`, whose
    kernels must meet in p by :func:`linalg.image_intersection`.
    Float membership is decided on the float cone.  Returns [] for p = id
    (the empty infimum).
    """
    cfg = cfg or RunConfig()
    _require_identity(u)
    if p.rank == 0:
        raise PreconditionError("the zero projection has no finite coatom decomposition")
    if u.is_exact:
        rays = member_rays(p, u)
        member = rays is not None
    else:
        desc = analyze_cone(p, u, cfg)
        member = desc.member
    if not member:
        raise PreconditionError("p is not a ground projection of U")
    if p.rank == p.n:
        return []  # p = id: the infimum of no coatoms
    if u.is_exact:
        lift, rays = (lambda s: Projection(n=p.n, classical_support=s)), pivot_rays(rays)
    else:
        reading = u.exact_reading(cfg.tol_rank)
        support = None if reading is None else reading.support_of(p)
        rays = [] if support is None else \
            pivot_rays(member_rays(Projection.from_support(p.n, support), reading.exact) or [])
        if len(rays) != desc.dim_K:
            coatoms = [_kernel_of(v, u, cfg) for v in extreme_rays(desc, cfg)]
            if not reduce(lambda a, q: image_intersection(a, q, cfg.tol_rank),
                          coatoms).same_image(p):
                raise IncompleteRaysError(
                    "extreme-ray kernels failed to intersect back to p", partial=coatoms)
            return coatoms
        lift = reading.lift
    return [lift(frozenset(x for x, v in enumerate(g) if v == 0)) for g in rays]


def enumerate_coatoms(u: OperatorSubspace,
                      cfg: RunConfig | None = None) -> tuple[list[Projection], str]:
    """All coatoms (exact engine, or a float U with an exact reading) or a
    sampled subset (float).

    Exact: the kernels of the extreme rays of K(0) = U ∩ PSD, whose rays
    are exactly the ray cones K(q) of the coatoms q; the list is complete,
    flagged "exact".  A float U with an exact reading: the exact coatoms of
    the reading on the columns of its frame, flagged "complete".  Other
    float U: the kernels of the rays that cfg.samples face descents from the
    witness of K(0) end on (see :func:`cone.descent_rays`), each a coatom.
    A descent that ends on a ray found before returns none, so the coatoms
    are distinct; the list may miss coatoms, hence the flag "sampled".
    The lists are sorted by :func:`linalg.sort_keys`.
    Returns (coatoms, completeness flag).
    """
    cfg = cfg or RunConfig()
    _require_identity(u)
    reading = u.exact_reading(cfg.tol_rank)
    if reading is not None:
        exact, _ = enumerate_coatoms(reading.exact, cfg)
        return _sorted([reading.lift(q.classical_support) for q in exact]), "complete"
    top = analyze_cone(u.zero_projection(), u, cfg)
    if u.is_exact:
        rays, flag = integer_rays(top), "exact"
    else:
        rays, flag = descent_rays(top, cfg, cfg.samples, 3), "sampled"
    return _sorted([_kernel_of(g, u, cfg) for g in rays]), flag


def _sorted(projections: list[Projection]) -> list[Projection]:
    """The projections in the order of their :func:`linalg.sort_keys`."""
    keys = sort_keys(projections)
    return [projections[i] for i in sorted(range(len(projections)), key=keys.__getitem__)]


@dataclass
class GroundLattice:
    """Canonicalized node set with Hasse edges and the coatom subset."""

    nodes: list[Projection]
    hasse_edges: list[tuple[int, int]]   # (child index, parent index) covers
    coatoms: list[int]
    completeness_flag: str

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def dual_supports(self) -> set[frozenset[int]]:
        """Complements of the node supports (commutative engine only)."""
        out = set()
        for p in self.nodes:
            if not p.is_commutative:
                raise PreconditionError("dual supports need the commutative engine")
            out.add(frozenset(range(p.n)) - p.classical_support)
        return out


def lattice_from_nodes(nodes: dict[object, Projection], covers: list[tuple[object, object]],
                       flag: str) -> GroundLattice:
    """Sort the nodes, renumber the given covers, and mark the coatoms.

    ``nodes`` maps a key to each node and ``covers`` holds (child, parent)
    key pairs.  Nodes are ordered by :func:`linalg.sort_keys`, covers by
    their new indices, and the coatoms are the children of the top (the
    node of largest rank, hence the last).
    """
    keys = dict(zip(nodes, sort_keys(list(nodes.values()))))
    order = sorted(nodes, key=keys.__getitem__)
    index = {key: i for i, key in enumerate(order)}
    edges = sorted((index[a], index[b]) for a, b in covers)
    top = len(order) - 1
    return GroundLattice(nodes=[nodes[key] for key in order], hasse_edges=edges,
                         coatoms=[i for i, j in edges if j == top], completeness_flag=flag)


def build_lattice(u: OperatorSubspace, cfg: RunConfig | None = None) -> GroundLattice:
    """The lattice generated by the coatoms of U, built from the top down.

    Inherits the completeness flag of the coatom enumeration.  A float U
    with an exact reading gets the exact closure of the reading, its nodes
    mapped to frame columns in the order of their exact supports, flagged
    "complete".  Raises :class:`NodeBudgetError` carrying the partial
    lattice if the closure exceeds cfg.max_nodes.
    """
    cfg = cfg or RunConfig()
    _require_identity(u)
    reading = u.exact_reading(cfg.tol_rank)
    if reading is None:
        coatoms, flag = enumerate_coatoms(u, cfg)
        return close_to_lattice(u, coatoms, flag, cfg)

    def lift(lat: GroundLattice) -> GroundLattice:
        return replace(lat, nodes=[reading.lift(p.classical_support) for p in lat.nodes],
                       completeness_flag="complete")

    try:
        return lift(build_lattice(reading.exact, cfg))
    except NodeBudgetError as err:
        raise NodeBudgetError(str(err), partial=lift(err.partial)) from None


def close_to_lattice(u: OperatorSubspace, coatoms: list[Projection], flag: str,
                     cfg: RunConfig | None = None) -> GroundLattice:
    """Intersection closure of {id} ∪ coatoms with its Hasse covers, plus zero.

    Breadth-first from the top.  A node is keyed by its intent, the bitmask
    of the coatoms above it.  Lindig's neighbour test walks the coatoms c
    outside the intent A from the last down: the intent B of meet(node, c)
    is a lower cover when B - A - c misses ``mins`` (at first the complement
    of A), else c leaves ``mins``.  Exact nodes are support bitmasks, and an
    intent is the AND of ``cont[x]`` (the coatoms holding x) over the points
    x.  Float nodes are image bases, met with every coatom outside A by
    one :func:`linalg.meet_bases`, and the intents of all those meets test
    every coatom in one product with the stacked 1 - Q.  Zero goes below a
    nonzero meet of all coatoms.  Duplicates give one node.

    Raises :class:`NodeBudgetError` when the node count exceeds
    cfg.max_nodes; its partial lattice holds the first cfg.max_nodes nodes
    in breadth-first order (the top, then the coatoms) and the covers
    between them.
    """
    cfg = cfg or RunConfig()
    exact, n, full = u.is_exact, u.ambient_n, (1 << len(coatoms)) - 1
    if exact:
        masks = [sum(1 << x for x in q.classical_support) for q in coatoms]
        cont = [sum(1 << c for c, m in enumerate(masks) if m >> x & 1) for x in range(n)]
        intent = cache(lambda s: reduce(int.__and__,
                                        [cont[x] for x in range(n) if s >> x & 1], full))

        def meets(node: int, cs: list[int]) -> list:
            return [(m, intent(m)) for m in (node & masks[c] for c in cs)]

        top = (1 << n) - 1
        top_intent = intent(top)
    else:
        comp = np.eye(n) - np.array([q.matrix() for q in coatoms]).reshape(-1, n, n)

        def intents(bases: list) -> list[int]:
            # loewner_leq of every basis against every coatom from one
            # product; its rank guard never decides for orthonormal columns,
            # as sum |Q v_i|^2 <= rank Q.  A basis passes a coatom when none
            # of its columns, counted by a running sum, fails it
            fails = np.linalg.norm(comp @ np.concatenate(bases, axis=1), axis=1) > CANON_TOL
            counts = np.zeros((len(comp), fails.shape[1] + 1), int)
            np.cumsum(fails, axis=1, out=counts[:, 1:])
            ends = np.cumsum([0] + [b.shape[1] for b in bases])
            ok = np.packbits(counts[:, ends[1:]] == counts[:, ends[:-1]], axis=0, bitorder="little")
            return [int.from_bytes(col.tobytes(), "little") for col in ok.T]

        def meets(node: np.ndarray, cs: list[int]) -> list:
            if not cs:
                return []
            bases = meet_bases(node, comp[cs], cfg.tol_rank)
            return list(zip(bases, intents(bases)))

        top = np.eye(n, dtype=complex)
        top_intent = intents([top])[0]
    nodes = {top_intent: top}
    covers, queue = [], deque([top_intent])   # covers: (child intent, parent intent)
    while queue and len(nodes) <= cfg.max_nodes:
        a = queue.popleft()
        node, mins, lower = nodes[a], full & ~a, {}
        cs = [c for c in range(len(coatoms)) if not a >> c & 1][::-1]
        for c, (m, found) in zip(cs, meets(node, cs)):
            b = a | found
            if b & ~a & ~(1 << c) & mins:
                mins &= ~(1 << c)
            else:
                lower[b] = m
        for b in reversed(lower):   # by ascending first coatom of B - A, where B passed
            if len(nodes) > cfg.max_nodes:
                break
            covers.append((b, a))
            if b not in nodes:
                nodes[b] = lower[b]
                queue.append(b)
    nodes = {key: Projection.from_support(n, (x for x in range(n) if s >> x & 1)) if exact
             else Projection(n=n, image_basis=s) for key, s in nodes.items()}
    if not queue and nodes[full].rank > 0:
        nodes[None] = u.zero_projection()
        covers.append((None, full))
    if len(nodes) <= cfg.max_nodes:
        return lattice_from_nodes(nodes, covers, flag)
    kept = dict(list(nodes.items())[: cfg.max_nodes])
    partial = [(a, b) for a, b in covers if a in kept and b in kept]
    raise NodeBudgetError(f"intersection closure exceeded {cfg.max_nodes} nodes",
                          partial=lattice_from_nodes(kept, partial, flag))
