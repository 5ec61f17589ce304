"""Named fixtures and their documented checks.

The fixtures embed the library's reference instances as code: the
rank-three non-commutative example and the 3-bit system.  ``CHECKS`` maps
each fixture name of the ``verify`` command (``m3``, ``3bit``,
``3bit-ff``, ``klocal-dims``) to a function ``RunConfig -> [(name, ok,
detail)]`` holding that fixture's checks; the ``verify`` command and the
acceptance suite both run them.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from .config import RunConfig
from .cone import analyze_cone, extreme_rays
from .lattice import coatom_decomposition, enumerate_coatoms
from .linalg import Projection, frobenius, image_intersection
from .manybody import (
    SiteSystem,
    affine_dimension,
    build_klocal,
    ff_lattice_3bit,
    klocal_dimension,
    marginal_polytope_vertices,
)
from .subspace import OperatorSubspace, from_spanning_set

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def block_plus_scalar(two_by_two: np.ndarray, scalar: float) -> np.ndarray:
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = two_by_two
    out[2, 2] = scalar
    return out


def rank_one_qubit(z: complex) -> np.ndarray:
    """p(z) = [[1, conj(z)], [z, 1]] / 2, a rank-one projection for |z| = 1."""
    return 0.5 * np.array([[1, np.conj(z)], [z, 1]], dtype=complex)


# the two distinguished unit phases with real part -1/2
Z_PLUS = -0.5 + 0.5j * np.sqrt(3.0)
Z_MINUS = -0.5 - 0.5j * np.sqrt(3.0)

M3_A1 = block_plus_scalar(SIGMA_X, 2.0)
M3_A2 = block_plus_scalar(SIGMA_Y, 0.0)
U_PLUS = block_plus_scalar(2.0 * rank_one_qubit(Z_PLUS), 0.0)
U_MINUS = block_plus_scalar(2.0 * rank_one_qubit(Z_MINUS), 0.0)


def m3_subspace() -> OperatorSubspace:
    """Span of the identity, sigma_X (+) 2, and sigma_Y (+) 0 inside M_3."""
    return from_spanning_set([np.eye(3, dtype=complex), M3_A1, M3_A2])


def m3_p_plus() -> Projection:
    cols = np.hstack([block_plus_scalar(rank_one_qubit(-Z_PLUS), 0.0)[:, :2],
                      np.eye(3, dtype=complex)[:, 2:]])
    return Projection.from_columns(3, cols)


def m3_p_minus() -> Projection:
    cols = np.hstack([block_plus_scalar(rank_one_qubit(-Z_MINUS), 0.0)[:, :2],
                      np.eye(3, dtype=complex)[:, 2:]])
    return Projection.from_columns(3, cols)


def m3_p_bottom() -> Projection:
    """The rank-one projection 0 (+) 1, the meet of the two special coatoms."""
    return Projection.from_columns(3, np.eye(3, dtype=complex)[:, 2:])


def m3_known_coatoms() -> list[Projection]:
    """The two rank-two coatoms, the ends of the flat edge of K(0): the
    reference that :func:`check_m3` and the tests hold the engine to.  Face
    descents reach them, but a sampled enumeration is not certified to."""
    return [m3_p_plus(), m3_p_minus()]


# --------------------------------------------------------------------------
# three bits, 2-local
# --------------------------------------------------------------------------

def three_bit_system() -> SiteSystem:
    return SiteSystem.bits(3)


def three_bit_two_local() -> OperatorSubspace:
    return build_klocal(three_bit_system(), 2)


def three_bit_configurations() -> list[tuple[int, int, int]]:
    return list(product((0, 1), repeat=3))


def parity_of(x: tuple[int, ...]) -> int:
    return (-1) ** sum(x)


def parity_classes() -> tuple[frozenset[int], frozenset[int]]:
    """Index sets of even-parity (+1) and odd-parity (-1) configurations."""
    confs = three_bit_configurations()
    plus = frozenset(i for i, x in enumerate(confs) if parity_of(x) == 1)
    minus = frozenset(i for i, x in enumerate(confs) if parity_of(x) == -1)
    return plus, minus


def bipartite_edges() -> list[frozenset[int]]:
    """All pairs with opposite parity: the complete bipartite graph on the
    two parity classes (16 edges)."""
    plus, minus = parity_classes()
    return [frozenset({a, b}) for a in sorted(plus) for b in sorted(minus)]


# --------------------------------------------------------------------------
# documented checks, one list of (name, ok, detail) per fixture
# --------------------------------------------------------------------------

Check = tuple[str, bool, str]


def _subsets(n: int, sizes) -> list[frozenset[int]]:
    return [frozenset(s) for size in sizes for s in combinations(range(n), size)]


def check_m3(cfg: RunConfig) -> list[Check]:
    """dim K(0 (+) 1) = 2, its two ray coatoms, their decomposition and rays."""
    checks = []
    u = m3_subspace()
    bottom = m3_p_bottom()
    desc = analyze_cone(bottom, u, cfg)
    checks.append(("dim K(0+1) = 2", desc.dim_K == 2, f"dim_K={desc.dim_K}"))
    p_plus, p_minus = m3_known_coatoms()
    for name, p in (("p_plus", p_plus), ("p_minus", p_minus)):
        d = analyze_cone(p, u, cfg)
        ok = d.dim_K == 1 and d.member
        checks.append((f"{name} is a coatom with a ray cone", ok, f"dim_K={d.dim_K}"))
    parts = coatom_decomposition(bottom, u, cfg)
    ok = len(parts) == 2 and all(
        any(part.same_image(t) for part in parts) for t in (p_plus, p_minus))
    checks.append(("decomposition of 0+1 is {p_plus, p_minus}", ok, f"parts={len(parts)}"))
    rays = extreme_rays(desc, cfg)
    targets = [U_PLUS / np.trace(U_PLUS).real, U_MINUS / np.trace(U_MINUS).real]
    ok = len(rays) == 2 and all(
        min(frobenius(r - t) for r in rays) <= 1e-6 for t in targets)
    checks.append(("extreme rays match u_plus, u_minus up to scaling", ok,
                   f"rays={len(rays)}"))
    meet = image_intersection(parts[0], parts[1]) if len(parts) == 2 else None
    checks.append(("intersection of the two coatoms is 0+1",
                   meet is not None and meet.same_image(bottom), ""))
    return checks


def check_3bit(cfg: RunConfig) -> list[Check]:
    """The 16 coatoms, then the membership strata from one cone per support."""
    checks = []
    u = three_bit_two_local()
    coatoms, flag = enumerate_coatoms(u, cfg)
    complements = {frozenset(range(8)) - p.classical_support for p in coatoms}
    ok = (flag == "exact" and len(coatoms) == 16 and all(p.rank == 6 for p in coatoms)
          and complements == set(bipartite_edges()))
    checks.append(("exactly 16 coatoms, complements are bipartite edges", ok,
                   f"count={len(coatoms)}"))
    members, ray_members = set(), set()
    for support in _subsets(8, range(9)):
        p = Projection.from_support(8, support)
        desc = analyze_cone(p, u, cfg)
        if desc.member:
            members.add(support)
            if desc.dim_K == 1:
                ray_members.add(support)
    small = _subsets(8, range(4))
    checks.append(("all 93 supports of size <= 3 are members",
                   len(small) == 93 and all(s in members for s in small), ""))
    checks.append(("no size-7 support is a member",
                   not any(len(s) == 7 for s in members), ""))
    checks.append(("no support of size <= 5 is a coatom",
                   not any(len(s) <= 5 for s in ray_members), ""))
    misses = [frozenset(range(8)) - s for s in _subsets(8, [4]) if s not in members]
    checks.append(("dual four-sets: 68 of 70, exceptions the parity classes",
                   len(misses) == 2 and set(misses) == set(parity_classes()),
                   f"missing={len(misses)}"))
    return checks


def check_3bit_ff(cfg: RunConfig) -> list[Check]:
    """The frustration-free lattice: small nodes, large duals, 48 of 56 fives."""
    lat = ff_lattice_3bit(cfg)
    supports = {p.classical_support for p in lat.nodes}
    duals = lat.dual_supports()
    absent = [s for s in _subsets(8, [5]) if s not in duals]
    plus, minus = parity_classes()
    return [
        ("all supports of size <= 2 are nodes",
         all(s in supports for s in _subsets(8, range(3))), ""),
        ("dual contains all sets of size >= 6",
         all(s in duals for s in _subsets(8, (6, 7, 8))), ""),
        ("dual contains 48 of the 56 five-sets",
         len(absent) == 8 and all(plus <= s or minus <= s for s in absent),
         f"present={56 - len(absent)}"),
    ]


def check_klocal_dims(cfg: RunConfig) -> list[Check]:
    """Closed-form k-local dimensions and the 3-bit marginal polytope."""
    checks = []
    u_bits = build_klocal(SiteSystem.bits(3), 2)
    checks.append(("dim U_(2) = 7 for three bits",
                   u_bits.dim == 7 == klocal_dimension(SiteSystem.bits(3), 2),
                   f"dim={u_bits.dim}"))
    u_qubits = build_klocal(SiteSystem.qubits(3), 2)
    sv = np.linalg.svd(np.stack([b.reshape(-1) for b in u_qubits.basis]), compute_uv=False)
    checks.append(("dim U_(2) = 37 for three qubits (marginal body 36)",
                   u_qubits.dim == 37 and int(np.sum(sv > 1e-9 * sv[0])) == 37,
                   f"dim={u_qubits.dim}"))
    detail = []
    for n_sites in range(1, 5):
        for k in range(1, n_sites + 1):
            for sys_ in (SiteSystem.bits(n_sites), SiteSystem.qubits(n_sites)):
                dim, expected = build_klocal(sys_, k).dim, klocal_dimension(sys_, k)
                if dim != expected:
                    detail.append(f"{sys_.engine} N={n_sites} k={k}: {dim}!={expected}")
    checks.append(("closed-form dimensions match for all N <= 4", not detail,
                   "; ".join(detail)))
    cols = marginal_polytope_vertices(SiteSystem.bits(3), 2)
    checks.append(("3-bit marginal polytope has affine dimension 6",
                   affine_dimension(cols) == 6, ""))
    return checks


CHECKS = {
    "m3": check_m3,
    "3bit": check_3bit,
    "3bit-ff": check_3bit_ff,
    "klocal-dims": check_klocal_dims,
}
