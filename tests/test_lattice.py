"""Membership via the greatest-projection rule, coatoms, lattice building."""

import ast
import inspect
import time

import numpy as np
import pytest

import bruteforce_oracle
from bruteforce_oracle import brute_force_members

from groundlattice import exactla as ela
from groundlattice import lattice as lattice_mod
from groundlattice.config import RunConfig
from groundlattice.cone import (
    _extreme_rays_float,
    _sign_cuts,
    analyze_cone,
    descent_rays,
    extreme_rays,
)
from groundlattice.errors import InputError, NodeBudgetError, PreconditionError
from groundlattice.fixtures import (
    U_MINUS,
    U_PLUS,
    bipartite_edges,
    m3_known_coatoms,
    m3_p_bottom,
    m3_p_minus,
    m3_p_plus,
    m3_subspace,
    parity_classes,
    three_bit_system,
    three_bit_two_local,
)
from groundlattice.lattice import (
    CANON_TOL,
    build_lattice,
    close_to_lattice,
    coatom_decomposition,
    enumerate_coatoms,
    is_coatom,
    is_ground_projection,
    lattice_from_nodes,
    q_max,
    q_max_from_descriptor,
)
from groundlattice.linalg import (
    Projection,
    frobenius,
    ground_projection,
    hermitian_matrix,
    image_intersection,
    kernel_projection,
    loewner_leq,
    nullspace_cols,
    sort_keys,
)
from groundlattice.manybody import (
    SiteSystem,
    affine_dimension,
    build_klocal,
    marginal_polytope_vertices,
)
from groundlattice.subspace import from_spanning_set


def random_member_subspace(rng, n, dim):
    """Random U containing the identity."""
    mats = [np.eye(n, dtype=complex)]
    for _ in range(dim - 1):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mats.append(hermitian_matrix(g))
    return from_spanning_set(mats)


def haar_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_space(u, v):
    """The diagonal embedding of an exact space, conjugated by v."""
    return from_spanning_set([v @ m @ v.conj().T for m in u.basis_as_matrices()])


def rotated_support(p, v, tol=1e-6):
    """Support S with image(p) = span(v[:, S]), or None if there is none."""
    d = v.conj().T @ p.matrix() @ v
    diag = np.diag(d).real
    if np.max(np.abs(d - np.diag(diag))) > tol or \
            np.max(np.minimum(np.abs(diag), np.abs(diag - 1.0))) > tol:
        return None
    return frozenset(int(x) for x in np.flatnonzero(diag > 0.5))


def descent_coatoms(u, cfg):
    """The float coatoms that cfg.samples face descents from K(0) reach, as
    :func:`enumerate_coatoms` finds them on a U with no exact reading: the
    kernels of :func:`descent_rays` on stream 3, sorted."""
    top = analyze_cone(u.zero_projection(), u, cfg)
    found = [kernel_projection(g, cfg.tol_rank) for g in descent_rays(top, cfg, cfg.samples, 3)]
    return [p for _, p in sorted(zip(sort_keys(found), found), key=lambda kp: kp[0])]


def inclusion_covers(supports):
    """(child, parent) pairs with child < parent and no support in between."""
    return {(a, b) for a in supports for b in supports
            if a < b and not any(a < c < b for c in supports if len(a) < len(c) < len(b))}


def lattice_covers(lat, key):
    nodes = [key(p) for p in lat.nodes]
    return {(nodes[i], nodes[j]) for i, j in lat.hasse_edges}


def coatoms_by_support_scan(u):
    """Reference: every proper support whose cone is a ray and that is a
    member, in the library's sort order."""
    n = u.ambient_n
    found = []
    for mask in range(2 ** n - 1):  # the identity is never a coatom
        p = Projection.from_support(n, [i for i in range(n) if mask >> i & 1])
        if analyze_cone(p, u).dim_K == 1 and is_ground_projection(p, u):
            found.append(p)
    return [sorted(p.classical_support) for _, p in sorted(zip(sort_keys(found), found),
                                                           key=lambda kp: kp[0])]


def random_projection(rng, n):
    k = int(rng.integers(0, n + 1))
    cols = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    return Projection.from_columns(n, cols)


class TestQMax:
    def test_rank_seven_support_maps_to_identity(self):
        u = three_bit_two_local()
        p = Projection.from_support(8, set(range(8)) - {5})
        result = q_max(p, u)
        assert result.classical_support == frozenset(range(8))
        assert not is_ground_projection(p, u)

    def test_m3_coatom_is_fixed_point(self):
        u = m3_subspace()
        p_plus = m3_p_plus()
        assert q_max(p_plus, u).same_image(p_plus, tol=1e-7)
        assert is_ground_projection(p_plus, u)

    def test_zero_projection_is_fixed_when_identity_present(self):
        u = m3_subspace()
        z = Projection.zero(3)
        assert q_max(z, u).rank == 0
        assert is_ground_projection(z, u)

    def test_requires_identity(self):
        u = from_spanning_set([np.array([[1, 0], [0, -1]], dtype=complex)])
        with pytest.raises(PreconditionError):
            q_max(Projection.zero(2), u)

    def test_extensive_and_idempotent_random(self):
        rng = np.random.default_rng(31)
        cfg = RunConfig(seed=5)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            u = random_member_subspace(rng, n, int(rng.integers(2, 5)))
            p = random_projection(rng, n)
            q1 = q_max(p, u, cfg)
            assert loewner_leq(p, q1, tol=1e-6)
            q2 = q_max(q1, u, cfg)
            assert q1.same_image(q2, tol=1e-6)

    def test_fixed_point_law_on_sampled_ground_projections(self):
        rng = np.random.default_rng(32)
        cfg = RunConfig(seed=6)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            u = random_member_subspace(rng, n, int(rng.integers(2, 5)))
            a = u.element_from(rng.normal(size=u.dim))
            p0 = ground_projection(hermitian_matrix(a))
            assert q_max(p0, u, cfg).same_image(p0, tol=1e-6)

    def test_cone_equality_after_q_max(self):
        rng = np.random.default_rng(33)
        cfg = RunConfig(seed=7)
        for _ in range(10):
            n = 3
            u = random_member_subspace(rng, n, 3)
            p = random_projection(rng, n)
            d1 = analyze_cone(p, u, cfg)
            d2 = analyze_cone(q_max(p, u, cfg), u, cfg)
            assert d1.dim_K == d2.dim_K
            if d1.dim_K:
                b1 = np.stack([m.reshape(-1) for m in d1.span_basis])
                b2 = np.stack([m.reshape(-1) for m in d2.span_basis])
                overlap = b1.conj() @ b2.T
                angles = np.linalg.svd(overlap, compute_uv=False)
                assert np.all(angles >= 1 - 1e-6)


class TestMembership3Bit:
    def test_small_supports_are_members(self):
        u = three_bit_two_local()
        cfg = RunConfig()
        for support in [set(), {0}, {3}, {0, 1}, {0, 7}, {1, 2, 4}, {0, 3, 5}]:
            p = Projection.from_support(8, support)
            assert is_ground_projection(p, u, cfg), support

    def test_equal_parity_pair_complement_is_not_member(self):
        u = three_bit_two_local()
        # p' = {000, 011}: equal parity
        p = Projection.from_support(8, set(range(8)) - {0, 3})
        assert not is_ground_projection(p, u)

    def test_identity_is_member(self):
        u = three_bit_two_local()
        assert is_ground_projection(Projection.from_support(8, range(8)), u)


class TestIsCoatom:
    def test_complement_cross_pair_is_coatom(self):
        u = three_bit_two_local()
        p = Projection.from_support(8, set(range(8)) - {0, 7})
        assert is_coatom(p, u)

    def test_m3_bottom_is_not_a_coatom(self):
        u = m3_subspace()
        assert not is_coatom(m3_p_bottom(), u)

    def test_small_supports_are_not_coatoms(self):
        u = three_bit_two_local()
        for support in [{0, 1, 2}, {0, 1, 2, 3, 4}, set(range(5))]:
            p = Projection.from_support(8, support)
            assert not is_coatom(p, u)


class TestCoatomDecomposition:
    def test_m3_bottom_decomposes_into_p_plus_and_p_minus(self):
        u = m3_subspace()
        parts = coatom_decomposition(m3_p_bottom(), u)
        assert len(parts) == 2
        expected = m3_known_coatoms()
        for e in expected:
            assert any(part.same_image(e, tol=1e-6) for part in parts)
        meet = image_intersection(parts[0], parts[1])
        assert meet.same_image(m3_p_bottom(), tol=1e-7)

    def test_identity_decomposes_into_nothing(self):
        u = m3_subspace()
        assert coatom_decomposition(Projection.identity(3), u) == []
        top = Projection.identity(8, commutative=True)
        assert top.classical_support == frozenset(range(8))
        assert coatom_decomposition(top, three_bit_two_local()) == []

    def test_non_member_rejected(self):
        # {0, ..., 6} on bits:N=3:k=2 has q_max = id; e0 is not a ground
        # projection of m3
        e0 = Projection.from_columns(3, np.eye(3, dtype=complex)[:, [0]])
        for p, u in ((Projection.from_support(8, range(7)), three_bit_two_local()),
                     (e0, m3_subspace())):
            assert not is_ground_projection(p, u)
            with pytest.raises(PreconditionError, match="not a ground projection"):
                coatom_decomposition(p, u)

    def test_three_bit_two_disjoint_edges(self):
        u = three_bit_two_local()
        # complement = {000, 111} | {011, 100}: two disjoint cross-parity edges
        comp = {0, 7} | {3, 4}
        p = Projection.from_support(8, set(range(8)) - comp)
        parts = coatom_decomposition(p, u)
        assert len(parts) == 3  # dim K(p) = 3
        complements = [frozenset(range(8)) - q.classical_support for q in parts]
        edges = set(bipartite_edges())
        assert all(c in edges for c in complements)
        # two of the returned coatoms have disjoint edge complements and
        # already intersect to p (the pairing of comp into edges is not
        # unique, so only disjointness is intrinsic)
        disjoint_pairs = [(a, b) for a in complements for b in complements
                          if a is not b and not (a & b)]
        assert any(a | b == comp for a, b in disjoint_pairs)
        meet = parts[0]
        for q in parts[1:]:
            meet = image_intersection(meet, q)
        assert meet.classical_support == frozenset(range(8)) - comp
        # brute-force: every part must be a coatom
        for q in parts:
            assert is_coatom(q, u)

    def test_zero_projection_rejected(self):
        u = m3_subspace()
        with pytest.raises(PreconditionError):
            coatom_decomposition(Projection.zero(3), u)
        with pytest.raises(PreconditionError, match="zero projection"):
            coatom_decomposition(Projection.zero(8, commutative=True), three_bit_two_local())

    def test_exact_preconditions(self):
        u = three_bit_two_local()
        with pytest.raises(PreconditionError, match="dimension"):
            coatom_decomposition(Projection.from_support(4, [0, 1]), u)
        with pytest.raises(PreconditionError, match="dimension"):
            coatom_decomposition(Projection.identity(4, commutative=True), u)
        with pytest.raises(InputError, match="support-based"):
            coatom_decomposition(Projection.from_columns(8, np.eye(8)[:, :3]), u)

    def test_raises_exactly_for_non_members(self):
        # the exact decomposition reads membership off the sign cuts and the
        # supports of its rays, with no cone LP: it must raise exactly where
        # the LP decision says that p is no member
        cases = [(three_bit_two_local(), range(1, 256))]
        rng = np.random.default_rng(30)
        cases.append((build_klocal(SiteSystem.bits(4), 2),
                      [int(m) for m in rng.integers(1, 1 << 16, 400)]))
        for _ in range(8):
            v, members = brute_force_members(rng, int(rng.integers(4, 8)), int(rng.integers(1, 4)))
            cases.append((v, range(1, 1 << v.ambient_n)))
        counts = {"member": 0, "cut": 0, "uncut": 0}
        for u, masks in cases:
            n = u.ambient_n
            for mask in masks:
                p = Projection.from_support(n, (x for x in range(n) if mask >> x & 1))
                if is_ground_projection(p, u):
                    assert len(coatom_decomposition(p, u)) == analyze_cone(p, u).dim_K
                    counts["member"] += 1
                    continue
                with pytest.raises(PreconditionError, match="not a ground projection"):
                    coatom_decomposition(p, u)
                whole = _sign_cuts(p, u).bit_count() == n - p.rank
                counts["uncut" if whole else "cut"] += 1
        # non-members that the sign cuts keep whole reach the union-of-supports test
        assert min(counts.values()) > 0, counts

    def test_decomposition_parts_are_fixed_points(self):
        u = m3_subspace()
        for q in coatom_decomposition(m3_p_bottom(), u):
            assert q_max(q, u).same_image(q, tol=1e-6)

    def test_rotated_cube_vertices_decompose_into_three_facets(self):
        # bits:N=3:k=1 conjugated by a Haar unitary: each vertex has
        # dim K = 3 and is the meet of the three facets through it, by the
        # exact reading and by the face descents alike
        v = haar_unitary(np.random.default_rng(0), 8)
        cube = build_klocal(three_bit_system(), 1)
        u = from_spanning_set([v @ np.diag([float(x) for x in f]) @ v.conj().T
                               for f in cube.basis])
        cfg = RunConfig()
        for x in range(8):
            p = Projection.from_columns(8, v[:, [x]])
            descended = [kernel_projection(g, cfg.tol_rank)
                         for g in _extreme_rays_float(analyze_cone(p, u, cfg), cfg)]
            for parts in (coatom_decomposition(p, u), descended):
                assert len(parts) == 3
                meet = parts[0]
                for q in parts[1:]:
                    meet = image_intersection(meet, q)
                assert meet.same_image(p, tol=1e-7)

    def test_every_three_bit_member_decomposes(self):
        # each member with dim K >= 2 is the meet of dim K coatoms, whose
        # complements are bipartite edges; of the 226 nodes these are all
        # but zero, the identity and the 16 coatoms
        u = three_bit_two_local()
        edges = set(bipartite_edges())
        decomposed = 0
        for mask in range(1, 256):
            p = Projection.from_support(8, (i for i in range(8) if mask >> i & 1))
            desc = analyze_cone(p, u)
            if desc.dim_K < 2 or not is_ground_projection(p, u):
                continue
            parts = coatom_decomposition(p, u)
            assert len(parts) == desc.dim_K, sorted(p.classical_support)
            assert {frozenset(range(8)) - q.classical_support for q in parts} <= edges
            meet = parts[0]
            for q in parts[1:]:
                meet = image_intersection(meet, q)
            assert meet.classical_support == p.classical_support
            decomposed += 1
        assert decomposed == 208

    @staticmethod
    def first_independent_ray_kernels(u, p):
        """Kernels of the first dim K independent rays of the public list,
        rank by rank on the unit-trace Fraction rays."""
        desc = analyze_cone(p, u)
        chosen = []
        for g in extreme_rays(desc) if desc.dim_K else []:
            if len(chosen) < desc.dim_K and ela.rank(chosen + [g]) > len(chosen):
                chosen.append(g)
        return [frozenset(x for x, v in enumerate(g) if v == 0) for g in chosen]

    def test_exact_decomposition_keeps_the_public_ray_order(self):
        # the integer rays behind the exact decomposition must come in the
        # order of the public unit-trace list: the kernels of its first
        # dim K independent rays, in that order
        u = three_bit_two_local()
        members = [p for p in build_lattice(u).nodes if p.rank > 0]
        rng = np.random.default_rng(97)
        cases = [(u, members)]
        for _ in range(12):
            v, supports = brute_force_members(rng, int(rng.integers(4, 8)), int(rng.integers(2, 5)))
            cases.append((v, [Projection.from_support(v.ambient_n, s) for s in supports if s]))
        checked = 0
        for v, projections in cases:
            for p in projections:
                parts = [q.classical_support for q in coatom_decomposition(p, v)]
                assert parts == self.first_independent_ray_kernels(v, p), p
                checked += 1
        assert checked > 225


class TestEnumerateCoatoms:
    def test_three_bit_sixteen_coatoms(self):
        u = three_bit_two_local()
        coatoms, flag = enumerate_coatoms(u)
        assert flag == "exact"
        assert len(coatoms) == 16
        edges = set(bipartite_edges())
        for p in coatoms:
            assert p.rank == 6
            assert frozenset(range(8)) - p.classical_support in edges

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_extreme_rays_of_k0_match_support_scan(self, k):
        u = build_klocal(three_bit_system(), k)
        coatoms, flag = enumerate_coatoms(u)
        assert flag == "exact"
        assert [sorted(p.classical_support) for p in coatoms] == coatoms_by_support_scan(u)

    def test_extreme_rays_of_k0_match_support_scan_on_random_subspaces(self):
        rng = np.random.default_rng(61)
        for _ in range(12):
            u, members = brute_force_members(rng, int(rng.integers(3, 7)), int(rng.integers(1, 4)))
            coatoms, _ = enumerate_coatoms(u)
            listed = [sorted(p.classical_support) for p in coatoms]
            assert listed == coatoms_by_support_scan(u)
            assert all(frozenset(s) in members for s in listed)

    @pytest.mark.parametrize("n_bits, facets", [(4, 56), (5, 368)])
    def test_cut_polytope_facet_counts(self, n_bits, facets):
        # bits:N:k=2 has the correlation polytope COR(N) as its marginal
        # body, affinely the cut polytope CUT(N+1); coatoms are its facets,
        # 56 for CUT(5) and 368 for CUT(6) (Deza & Laurent, 1997)
        u = build_klocal(SiteSystem.bits(n_bits), 2)
        t0 = time.perf_counter()
        coatoms, flag = enumerate_coatoms(u)
        assert time.perf_counter() - t0 < 30.0
        assert flag == "exact"
        assert len(coatoms) == facets
        assert len({p.classical_support for p in coatoms}) == facets

    def test_identity_span_float_engine(self):
        # span{1} commutes: its exact reading gives the one coatom, 0, and
        # so do the descents
        u = from_spanning_set([np.eye(3, dtype=complex)])
        cfg = RunConfig(samples=50)
        coatoms, flag = enumerate_coatoms(u, cfg)
        assert flag == "complete"
        for found in (coatoms, descent_coatoms(u, cfg)):
            assert len(found) == 1
            assert found[0].rank == 0

    def test_m3_sampled_family(self):
        # descents end on the rank-one family in the upper 2x2 block and on
        # the two rank-two coatoms at the ends of the flat edge of K(0)
        u = m3_subspace()
        coatoms, flag = enumerate_coatoms(u, RunConfig(samples=40, seed=2))
        assert flag == "sampled"
        assert len(coatoms) >= 10
        for p in coatoms:
            assert is_coatom(p, u)
            if p.rank == 1:
                assert abs(p.image_basis[2, 0]) <= 1e-7
        for q in m3_known_coatoms():
            assert any(p.same_image(q, tol=1e-6) for p in coatoms)

    @pytest.mark.parametrize("space, samples, seed", [
        ("m3", 300, 0), ("m3", 300, 1), ("qubits:N=2:k=1", 200, 0), ("rotated cube", 300, 0)])
    def test_float_coatoms_are_pairwise_distinct(self, space, samples, seed):
        # a descent that ends on a ray found before returns none, so no two
        # coatoms share an image: a pairwise scan at CANON_TOL finds no pair.
        # The rotated cube has an exact reading, so its descents run directly
        cfg = RunConfig(samples=samples, seed=seed)
        if space == "m3":
            u = m3_subspace()
        elif space == "qubits:N=2:k=1":
            u = build_klocal(SiteSystem.qubits(2), 1)
        else:
            u = rotated_space(build_klocal(three_bit_system(), 1),
                              haar_unitary(np.random.default_rng(seed), 8))
        if space == "rotated cube":
            coatoms = descent_coatoms(u, cfg)
        else:
            coatoms, flag = enumerate_coatoms(u, cfg)
            assert flag == "sampled"
        assert (len(coatoms) == 6) if space == "rotated cube" else (len(coatoms) > 100)
        assert not any(p.same_image(q, tol=CANON_TOL)
                       for i, p in enumerate(coatoms) for q in coatoms[:i])

    @pytest.mark.parametrize("k, seed", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_rotated_float_coatoms_match_exact(self, k, seed):
        # the face descents and the exact reading both find every coatom
        exact = build_klocal(three_bit_system(), k)
        expected = sorted(sorted(p.classical_support) for p in enumerate_coatoms(exact)[0])
        v = haar_unitary(np.random.default_rng(seed), 8)
        u, cfg = rotated_space(exact, v), RunConfig(samples=60)
        coatoms, flag = enumerate_coatoms(u, cfg)
        assert flag == "complete"
        for found in (coatoms, descent_coatoms(u, cfg)):
            assert sorted(sorted(rotated_support(p, v)) for p in found) == expected

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rotated_four_bit_float_coatoms_are_exact_coatoms(self, seed):
        # a descent must end on a ray: every float coatom of a Haar-rotated
        # bits:N=4:k=2 maps back to one of its 56 exact coatoms.  A kernel
        # read off a tilted end point can stop the walk next to a 2-face,
        # whose section then looks one-dimensional
        exact = build_klocal(SiteSystem.bits(4), 2)
        expected = {frozenset(p.classical_support) for p in enumerate_coatoms(exact)[0]}
        assert len(expected) == 56
        v = haar_unitary(np.random.default_rng(seed), 16)
        u = rotated_space(exact, v)
        coatoms = descent_coatoms(u, RunConfig(samples=200))
        supports = [rotated_support(p, v) for p in coatoms]
        assert all(s in expected for s in supports)
        assert len(set(supports)) == len(supports) >= 40
        # the face-lattice identity dim K(p) + dim(p U p) = dim U of a
        # rotated polytope, read on the float engine alone: dim(p U p) is
        # the rank of the compressions b* u_k b to the image b of p (a
        # 2-face read as a ray gives one less)
        for p in coatoms:
            b = p.image_basis
            compressed = np.stack([b.conj().T @ m @ b for m in u.basis])
            dim_pup = np.linalg.matrix_rank(compressed.reshape(u.dim, -1).view(float), tol=1e-6)
            assert analyze_cone(p, u).dim_K + dim_pup == u.dim == 11

    def test_qubit_pair_coatom_families(self):
        # the coatoms of qubits:N=2:k=1 are P (x) 1 and 1 (x) P with P of
        # rank one; the lattice they generate adds the products P (x) Q
        u = build_klocal(SiteSystem.qubits(2), 1)
        cfg = RunConfig(samples=12)
        coatoms, _ = enumerate_coatoms(u, cfg)
        families = []
        for p in coatoms:
            m = p.matrix().reshape(2, 2, 2, 2)
            left, right = np.einsum("ijkj->ik", m) / 2, np.einsum("ijil->jl", m) / 2
            if np.allclose(p.matrix(), np.kron(left, np.eye(2)), atol=1e-7):
                families.append("left")
                assert np.linalg.matrix_rank(left, tol=1e-7) == 1
            else:
                assert np.allclose(p.matrix(), np.kron(np.eye(2), right), atol=1e-7)
                assert np.linalg.matrix_rank(right, tol=1e-7) == 1
                families.append("right")
        a, b = families.count("left"), families.count("right")
        assert a and b
        lat = close_to_lattice(u, coatoms, "sampled", cfg)
        assert lat.node_count == 2 + a + b + a * b
        assert len(lat.coatoms) == a + b


def mask_projection(n, mask):
    return Projection.from_support(n, (x for x in range(n) if mask >> x & 1))


def route_outcomes(p, u):
    """What the four public calls answer for p: membership, the coatom
    test, q_max, and the decomposition's parts in order, or the type and
    message of the error it raises."""
    try:
        parts = [q.classical_support for q in coatom_decomposition(p, u)]
    except PreconditionError as err:
        parts = (type(err), str(err))
    return is_ground_projection(p, u), is_coatom(p, u), q_max(p, u), parts


def four_bit_cases(u, rng):
    """Seeded bits:N=4:k=2 supports: random masks, and meets of 1 to 4
    random coatoms of u (so members of every dim K up to 4)."""
    coatoms = [q.classical_support for q in enumerate_coatoms(u)[0]]
    supports = [frozenset(x for x in range(16) if m >> x & 1)
                for m in rng.integers(0, 1 << 16, 300)]
    for _ in range(150):
        picks = rng.choice(len(coatoms), size=int(rng.integers(1, 5)), replace=False)
        supports.append(frozenset.intersection(*(coatoms[i] for i in picks)))
    return [Projection.from_support(16, s) for s in supports]


class TestKeptCoatomRays:
    """Decisions, q_max and decompositions on an exact U whose K(0) rays
    enumerate_coatoms has kept read them off the rays' supports; a fresh
    U keeps the LP and member_rays route, and no call enumerates."""

    @pytest.mark.parametrize("n_bits", [3, 4])
    def test_kept_rays_agree_with_the_lp_route(self, n_bits):
        system = SiteSystem.bits(n_bits)
        kept, fresh = build_klocal(system, 2), build_klocal(system, 2)
        enumerate_coatoms(kept)
        assert kept._coatom_rays is not None
        n = 2 ** n_bits
        if n_bits == 3:
            cases = [mask_projection(n, m) for m in range(1 << n)]
        else:
            cases = four_bit_cases(kept, np.random.default_rng(31))
        members = 0
        for p in cases:
            outcome = route_outcomes(p, kept)
            assert outcome == route_outcomes(p, fresh), sorted(p.classical_support)
            members += outcome[0]
        assert fresh._coatom_rays is None
        # both sides of every decision are met
        assert 0 < members < len(cases)
        if n_bits == 3:
            assert members == 226

    def test_kept_rays_route_runs_no_lp_and_no_member_rays(self, monkeypatch):
        u, fresh = three_bit_two_local(), three_bit_two_local()
        coatoms = enumerate_coatoms(u)
        expected = {m: route_outcomes(mask_projection(8, m), fresh) for m in range(256)}

        def forbidden(*args, **kwargs):
            raise AssertionError("the kept-ray route called the LP route")

        monkeypatch.setattr(lattice_mod, "analyze_cone", forbidden)
        monkeypatch.setattr(lattice_mod, "member_rays", forbidden)
        monkeypatch.setattr(lattice_mod, "integer_rays", forbidden)
        assert enumerate_coatoms(u) == coatoms
        for m, outcome in expected.items():
            assert route_outcomes(mask_projection(8, m), u) == outcome

    def test_decisions_never_enumerate(self, monkeypatch):
        # bits:N=6:k=2 has 116,764 coatoms: a decision must not start
        # their enumeration, so a fresh U keeps the LP route
        cases = four_bit_cases(build_klocal(SiteSystem.bits(4), 2), np.random.default_rng(32))

        def forbidden(*args, **kwargs):
            raise AssertionError("a decision enumerated the coatoms")

        monkeypatch.setattr(lattice_mod, "integer_rays", forbidden)
        u = build_klocal(SiteSystem.bits(4), 2)
        for p in cases[::5]:
            route_outcomes(p, u)
        assert u._coatom_rays is None

    def test_kept_rays_keep_the_errors(self):
        u = three_bit_two_local()
        enumerate_coatoms(u)
        calls = (is_ground_projection, is_coatom, q_max, coatom_decomposition)
        for call in calls:
            with pytest.raises(PreconditionError, match="dimension"):
                call(Projection.from_support(4, [0, 1]), u)
            with pytest.raises(InputError, match="support-based"):
                call(Projection.from_columns(8, np.eye(8)[:, :3]), u)
        with pytest.raises(PreconditionError, match="zero projection"):
            coatom_decomposition(Projection.zero(8, commutative=True), u)
        with pytest.raises(PreconditionError, match="not a ground projection"):
            coatom_decomposition(Projection.from_support(8, [0, 3, 5, 6]), u)


class TestRankRule:
    """Membership as rank q_max(p) = rank p (``ConeDescriptor.member``)
    against the rule it replaced: the kernel of the witness compared with p
    by principal angles at CANON_TOL."""

    @staticmethod
    def check(p, u, cfg=None):
        cfg = cfg or RunConfig()
        desc = analyze_cone(p, u, cfg)
        qm = q_max_from_descriptor(desc, u, cfg)
        by_angles = qm.same_image(p, tol=CANON_TOL)
        assert qm.rank == desc.q_max_rank >= p.rank
        assert desc.member == by_angles
        assert is_ground_projection(p, u, cfg) == by_angles
        assert is_coatom(p, u, cfg) == (by_angles and desc.dim_K == 1)
        return by_angles

    def test_every_support_of_rotated_three_bit_spaces(self):
        exact = three_bit_two_local()
        for seed in (21, 22, 23):
            v = haar_unitary(np.random.default_rng(seed), 8)
            u = rotated_space(exact, v)
            members = sum(self.check(Projection.from_columns(8, v[:, [x for x in range(8)
                                                                      if mask >> x & 1]]), u)
                          for mask in range(256))
            assert members == 226

    def test_every_support_of_exact_three_bit_space(self):
        u = three_bit_two_local()
        members = sum(self.check(Projection.from_support(8, [x for x in range(8) if mask >> x & 1]),
                                 u) for mask in range(256))
        assert members == 226

    def test_m3_fixture(self):
        u = m3_subspace()
        rng = np.random.default_rng(5)
        known = [m3_p_bottom(), *m3_known_coatoms(), Projection.zero(3), Projection.identity(3)]
        answers = [self.check(p, u) for p in known]
        assert answers == [True] * len(known)
        for _ in range(20):
            self.check(random_projection(rng, 3), u)

    def test_qubit_ground_spaces_and_pure_state_complements(self):
        u = build_klocal(SiteSystem.qubits(3), 2)
        rng = np.random.default_rng(8)
        for _ in range(6):
            h = u.element_from(rng.normal(size=u.dim))
            assert self.check(ground_projection(hermitian_matrix(h)), u)
        for _ in range(6):
            psi = rng.normal(size=(8, 1)) + 1j * rng.normal(size=(8, 1))
            p = Projection.from_columns(8, psi).complement()
            assert not self.check(p, u)
            assert analyze_cone(p, u).q_max_rank == 8

    def test_loose_rank_cutoff_reads_the_witness_kernel(self):
        # K(e3) is the ray of diag(1, 1e-7, 0): a positive-definite witness
        # on its face, whose second eigenvalue a tol_rank of 1e-6 reads as
        # kernel, so q_max(e3) has rank 2 there and e3 is not a member
        u = from_spanning_set([np.eye(3, dtype=complex),
                               np.diag([0.0, 1e-7 - 1.0, -1.0]).astype(complex)])
        p = Projection.from_columns(3, np.eye(3, dtype=complex)[:, [2]])
        for tol_rank, member in ((1e-9, True), (1e-6, False)):
            cfg = RunConfig(tol_rank=tol_rank)
            assert self.check(p, u, cfg) == member
            assert analyze_cone(p, u, cfg).q_max_rank == (1 if member else 2)


class TestImageBasisClosure:
    """The float closure meets image bases with the stacked complements of
    the coatoms; these pin it to the counts of the principal-angle
    closure it replaced."""

    def test_rotated_cube_closes_to_its_faces(self):
        # bits:N=3:k=1 is the cube: its 6 facets close to the 27 nonempty
        # faces and the empty one, with the face covers
        exact = build_klocal(three_bit_system(), 1)
        reference = build_lattice(exact)
        v = haar_unitary(np.random.default_rng(4), 8)
        facets = [Projection.from_columns(8, v[:, sorted(reference.nodes[i].classical_support)])
                  for i in reference.coatoms]
        lat = close_to_lattice(rotated_space(exact, v), facets, "complete")
        nodes = [rotated_support(p, v) for p in lat.nodes]
        assert len(facets) == 6 and None not in nodes
        assert len(nodes) == reference.node_count == 28
        assert sorted(nodes, key=sorted) == sorted(
            (p.classical_support for p in reference.nodes), key=sorted)
        assert lattice_covers(lat, lambda p: rotated_support(p, v)) == \
            lattice_covers(reference, lambda p: p.classical_support)
        assert {nodes[i] for i in lat.coatoms} == \
            {reference.nodes[i].classical_support for i in reference.coatoms}
        # opposite facets meet in rank 0, which is the bottom: no zero added below it
        assert [p.rank for p in lat.nodes].count(0) == 1
        # loewner_leq one coatom at a time, the reference for the batched
        # intent: the facets above each node are those holding its face
        for p, face in zip(lat.nodes, nodes):
            above = {nodes[i] for i in lat.coatoms if loewner_leq(p, lat.nodes[i], CANON_TOL)}
            assert above == {nodes[i] for i in lat.coatoms if face <= nodes[i]}

    def test_seeded_m3_lattice_counts(self):
        # the counts follow the last bits of m3's orthonormal basis, as the
        # descents draw in its sections, but not the shape: the sampled
        # coatoms, the top, 0 ⊕ 1 (the meet of p_plus and p_minus) and zero;
        # each coatom covered by the top and covering zero or 0 ⊕ 1
        u = m3_subspace()
        for seed in (0, 3):
            lat = build_lattice(u, RunConfig(samples=50, seed=seed))
            coatoms = [lat.nodes[i] for i in lat.coatoms]
            assert lat.node_count == len(coatoms) + 3
            assert len(lat.hasse_edges) == 2 * len(coatoms) + 1
            rank_two = [p for p in coatoms if p.rank == 2]
            assert len(rank_two) == 2 and len(coatoms) - 2 == sum(p.rank == 1 for p in coatoms)
            assert {(p.same_image(m3_p_plus()), p.same_image(m3_p_minus()))
                    for p in rank_two} == {(True, False), (False, True)}

    @pytest.mark.parametrize("case", ["rotated-cube", "m3"])
    def test_batched_meets_match_one_svd_per_meet(self, case, monkeypatch):
        # the reference meets a node with one coatom at a time, by its own SVD
        cfg = RunConfig(samples=50)
        if case == "m3":
            u = m3_subspace()
            coatoms, flag = enumerate_coatoms(u, cfg)
        else:
            exact = build_klocal(three_bit_system(), 1)
            v = haar_unitary(np.random.default_rng(4), 8)
            u, flag = rotated_space(exact, v), "complete"
            coatoms = [Projection.from_columns(8, v[:, sorted(q.classical_support)])
                       for q in enumerate_coatoms(exact)[0]]
        batched = close_to_lattice(u, coatoms, flag, cfg)
        monkeypatch.setattr(lattice_mod, "meet_bases", lambda b, comps, tol: [
            b @ nullspace_cols(comp @ b, tol) for comp in comps])
        reference = close_to_lattice(u, coatoms, flag, cfg)
        assert batched.node_count == reference.node_count > len(coatoms) + 1
        assert all(np.array_equal(p.image_basis, q.image_basis)
                   for p, q in zip(batched.nodes, reference.nodes))
        assert batched.hasse_edges == reference.hasse_edges
        assert batched.coatoms == reference.coatoms

    def test_stacked_sort_keys_keep_the_per_node_order(self):
        # the reference builds and rounds one matrix per node
        def per_node_key(p):
            m = p.matrix()
            q = np.round(m.real, 6) + 1j * np.round(m.imag, 6)
            return (p.rank, tuple(q.flatten().real) + tuple(q.flatten().imag))

        exact = build_klocal(three_bit_system(), 1)
        v = haar_unitary(np.random.default_rng(4), 8)
        facets = [Projection.from_columns(8, v[:, sorted(q.classical_support)])
                  for q in enumerate_coatoms(exact)[0]]
        lattices = [close_to_lattice(rotated_space(exact, v), facets, "complete"),
                    build_lattice(m3_subspace(), RunConfig(samples=50, seed=0))]
        assert [lat.node_count for lat in lattices] == [28, 37]
        rng = np.random.default_rng(5)
        for lat in lattices:
            nodes = [lat.nodes[i] for i in rng.permutation(lat.node_count)]
            assert sort_keys(nodes) == [per_node_key(p) for p in nodes]
            position = {id(p): i for i, p in enumerate(nodes)}
            resorted = lattice_from_nodes(dict(enumerate(nodes)), [], lat.completeness_flag)
            assert [position[id(p)] for p in resorted.nodes] == \
                [position[id(p)] for p in sorted(nodes, key=per_node_key)] == \
                [position[id(p)] for p in lat.nodes]

    def test_zero_goes_below_a_nonzero_meet_of_all_coatoms(self):
        # two exact coatoms meet in a support of size 5, so the closure
        # ends there and the zero projection is added below it
        u = three_bit_two_local()
        lat = close_to_lattice(u, enumerate_coatoms(u)[0][:2], "sampled")
        assert [sorted(p.classical_support) for p in lat.nodes] == [
            [], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 6], list(range(8))]
        assert lat.hasse_edges == [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]
        assert lat.coatoms == [2, 3]

    def test_meet_of_rank_zero_lies_below_every_coatom(self):
        # two lines in C^3 meet in rank 0: that meet's intent holds every coatom
        u = from_spanning_set([np.eye(3, dtype=complex)])
        e = np.eye(3, dtype=complex)
        lines = [Projection.from_columns(3, e[:, [0]]), Projection.from_columns(3, e[:, [1]])]
        meet = image_intersection(*lines)
        assert meet.rank == 0 and meet.image_basis.shape == (3, 0)
        lat = close_to_lattice(u, lines, "complete")
        assert [p.rank for p in lat.nodes] == [0, 1, 1, 3]
        assert sorted(lat.hasse_edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]


class TestBuildLattice:
    def test_identity_span_two_node_chain(self):
        u = from_spanning_set([np.eye(3, dtype=complex)])
        lat = build_lattice(u, RunConfig(samples=20))
        assert lat.node_count == 2
        assert lat.hasse_edges == [(0, 1)]
        assert lat.coatoms == [0]

    def test_large_identity_keeps_a_small_generator(self):
        # span{1e10 1, diag(1, -1, 1/2)}: the segment [-1, 1] of values has
        # two coatoms, the kernels {0} and {1} of its ends, meeting in 0
        u = from_spanning_set([1e10 * np.eye(3), np.diag([1.0, -1.0, 0.5])])
        lat = build_lattice(u, RunConfig(samples=20))
        assert lat.node_count == 4
        assert {rotated_support(p, np.eye(3)) for p in lat.nodes} == \
            {frozenset(), frozenset({0}), frozenset({1}), frozenset(range(3))}

    def test_three_bit_lattice_contents(self):
        u = three_bit_two_local()
        lat = build_lattice(u)
        assert lat.completeness_flag == "exact"
        # all 93 supports of size <= 3 appear as nodes
        supports = {p.classical_support for p in lat.nodes}
        from itertools import combinations
        count = 0
        for size in range(4):
            for sub in combinations(range(8), size):
                if frozenset(sub) in supports:
                    count += 1
        assert count == 93
        assert len(lat.coatoms) == 16
        # node set: complements are exactly the unions of bipartite edges
        plus, minus = parity_classes()
        for p in lat.nodes:
            comp = frozenset(range(8)) - p.classical_support
            if comp and p.rank < 8:
                assert comp & plus and comp & minus

    def test_three_bit_dual_four_sets(self):
        u = three_bit_two_local()
        lat = build_lattice(u)
        duals = lat.dual_supports()
        from itertools import combinations
        four_sets = [frozenset(c) for c in combinations(range(8), 4)]
        present = [s for s in four_sets if s in duals]
        assert len(present) == 68
        plus, minus = parity_classes()
        missing = [s for s in four_sets if s not in duals]
        assert sorted(map(sorted, missing)) == sorted(map(sorted, [plus, minus]))

    def test_three_bit_lattice_is_the_face_lattice_of_the_marginal_polytope(self):
        # the node with support S is the face conv{m(x) : x in S} of the
        # marginal polytope; its dimension comes from affine_dimension of
        # the marginal vectors, with no cone code, and a member has
        # dim K(p) + dim F(p) = dim U - 1 by rank-nullity
        sys = SiteSystem.bits(3)
        u = build_klocal(sys, 2)
        verts = marginal_polytope_vertices(sys, 2)
        lat = build_lattice(u)
        assert lat.node_count == 226
        f_vector = [0] * u.dim
        for p in lat.nodes:
            face_dim = affine_dimension([verts[x] for x in sorted(p.classical_support)])
            assert analyze_cone(p, u).dim_K + face_dim == u.dim - 1
            if face_dim >= 0:
                f_vector[face_dim] += 1
        assert f_vector == [8, 28, 56, 68, 48, 16, 1]
        assert sum((-1) ** i * f for i, f in enumerate(f_vector)) == 1   # Euler-Poincare

    def test_m3_lattice_with_fixture_coatoms(self):
        u = m3_subspace()
        cfg = RunConfig(samples=25, seed=3)
        sampled, flag = enumerate_coatoms(u, cfg)
        lat = close_to_lattice(u, sampled + m3_known_coatoms(), flag, cfg)
        assert lat.completeness_flag == "sampled"
        for marker in [m3_p_plus(), m3_p_bottom(), Projection.identity(3), Projection.zero(3)]:
            assert any(p.same_image(marker) for p in lat.nodes)

    def test_three_bit_hasse_covers_are_inclusion_covers(self):
        lat = build_lattice(three_bit_two_local())
        supports = [p.classical_support for p in lat.nodes]
        expected = inclusion_covers(supports)
        assert (len(supports), len(expected)) == (226, 856)
        assert lattice_covers(lat, lambda p: p.classical_support) == expected
        assert len(lat.hasse_edges) == 856

    def test_frustration_free_hasse_covers_are_inclusion_covers(self):
        from groundlattice.manybody import ff_lattice_3bit
        lat = ff_lattice_3bit()
        expected = inclusion_covers([p.classical_support for p in lat.nodes])
        assert lattice_covers(lat, lambda p: p.classical_support) == expected
        assert len(lat.hasse_edges) == len(expected)

    def test_rotated_three_bit_closure_matches_exact_lattice(self):
        # float closure of the 16 Haar-rotated coatoms of bits:N=3:k=2,
        # rotated from the exact ones or found by face descents, and the
        # lattice of the exact reading, mapped back to supports, against
        # the exact lattice
        exact = three_bit_two_local()
        reference = build_lattice(exact)
        v = haar_unitary(np.random.default_rng(11), 8)
        u, cfg = rotated_space(exact, v), RunConfig(samples=60)
        coatoms = [Projection.from_columns(8, v[:, sorted(reference.nodes[i].classical_support)])
                   for i in reference.coatoms]
        for lat in (close_to_lattice(u, coatoms, "complete"),
                    close_to_lattice(u, descent_coatoms(u, cfg), "sampled", cfg),
                    build_lattice(u, cfg)):
            nodes = [rotated_support(p, v) for p in lat.nodes]
            assert None not in nodes
            assert len(nodes) == 226
            assert sorted(nodes, key=sorted) == sorted(
                (p.classical_support for p in reference.nodes), key=sorted)
            assert len(lat.hasse_edges) == 856
            assert lattice_covers(lat, lambda p: rotated_support(p, v)) == \
                lattice_covers(reference, lambda p: p.classical_support)
            assert {nodes[i] for i in lat.coatoms} == \
                {reference.nodes[i].classical_support for i in reference.coatoms}

    def test_random_rational_lattices_match_oracle(self):
        # the lattice of a random rational subspace holds exactly the
        # oracle's member supports, with their inclusion covers as Hasse
        # edges; the closure of the coatoms duplicated and shuffled gives
        # the same lattice
        rng = np.random.default_rng(71)
        for _ in range(12):
            u, members = brute_force_members(rng, int(rng.integers(4, 8)), int(rng.integers(2, 5)))
            lat = build_lattice(u)
            supports = [p.classical_support for p in lat.nodes]
            assert sorted(supports, key=sorted) == sorted(members, key=sorted)
            assert lattice_covers(lat, lambda p: p.classical_support) == inclusion_covers(supports)
            assert len(lat.hasse_edges) == len(inclusion_covers(supports))
            coatoms = [lat.nodes[i] for i in lat.coatoms]
            shuffled = [coatoms[i] for i in rng.permutation(2 * len(coatoms)) % len(coatoms)]
            again = close_to_lattice(u, shuffled, "exact")
            assert [p.classical_support for p in again.nodes] == supports
            assert (again.hasse_edges, again.coatoms) == (lat.hasse_edges, lat.coatoms)

    def test_four_bit_lattice_counts(self):
        # bits:N=4:k=2: the closure of the 56 facets of CUT(5) on integer
        # intents and support bitmasks.  The time bound only catches a
        # closure that tests minimality pair by pair (about 30 s on a
        # 2-vCPU host, against 1.5 s for the neighbour test)
        u = build_klocal(SiteSystem.bits(4), 2)
        t0 = time.perf_counter()
        lat = build_lattice(u)
        elapsed = time.perf_counter() - t0
        assert (lat.node_count, len(lat.hasse_edges), len(lat.coatoms)) == (20298, 129064, 56)
        assert elapsed < 20.0, elapsed

    def test_exact_lattice_is_coatomistic(self):
        u = three_bit_two_local()
        lat = build_lattice(u)
        coatom_supports = [lat.nodes[i].classical_support for i in lat.coatoms]
        full = frozenset(range(8))
        for p in lat.nodes:
            s = p.classical_support
            if s == full:
                continue
            above = [c for c in coatom_supports if s <= c]
            meet = full
            for c in above:
                meet = meet & c
            assert meet == s, f"node {sorted(s)} is not the meet of coatoms above it"


class TestExactReadingRoute:
    """A commuting float U enumerates its rays on its exact reading: the
    complete exact coatoms and lattice, mapped back to the frame."""

    def test_rotated_five_bit_coatoms_are_complete(self):
        exact = build_klocal(SiteSystem.bits(5), 2)
        expected = {p.classical_support for p in enumerate_coatoms(exact)[0]}
        v = haar_unitary(np.random.default_rng(0), 32)
        coatoms, flag = enumerate_coatoms(rotated_space(exact, v))
        assert flag == "complete"
        assert len(coatoms) == len(expected) == 368
        assert {rotated_support(p, v) for p in coatoms} == expected

    def test_rotated_four_bit_lattice(self):
        exact = build_klocal(SiteSystem.bits(4), 2)
        v = haar_unitary(np.random.default_rng(1), 16)
        lat = build_lattice(rotated_space(exact, v))
        assert lat.completeness_flag == "complete"
        assert (lat.node_count, len(lat.hasse_edges), len(lat.coatoms)) == (20298, 129064, 56)
        ranks = [p.rank for p in lat.nodes]
        assert ranks == sorted(ranks) and ranks[-1] == 16
        # the nodes and covers rotate back to those of the exact lattice
        reference = build_lattice(exact)
        assert lattice_covers(lat, lambda p: rotated_support(p, v)) == \
            lattice_covers(reference, lambda p: p.classical_support)

    def test_two_dimensional_blocks(self):
        # span{1, Z (x) 1} on two qubits, rotated: the coatoms are the two
        # rotated eigenspaces of Z (x) 1, of rank two, meeting in 0
        v = haar_unitary(np.random.default_rng(2), 4)
        z1 = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        u = from_spanning_set([np.eye(4), v @ z1 @ v.conj().T])
        lat = build_lattice(u)
        assert lat.completeness_flag == "complete"
        assert [p.rank for p in lat.nodes] == [0, 2, 2, 4]
        spectral = [v @ np.diag(d) @ v.conj().T for d in ([0, 0, 1, 1], [1, 1, 0, 0])]
        for i in lat.coatoms:
            assert any(np.allclose(lat.nodes[i].matrix(), q, atol=1e-9) for q in spectral)

    def test_node_budget_keeps_the_lifted_partial_lattice(self):
        u = rotated_space(three_bit_two_local(), haar_unitary(np.random.default_rng(3), 8))
        reading = u.exact_reading()
        for budget in (17, 20, 40, 100):
            cfg = RunConfig(max_nodes=budget)
            with pytest.raises(NodeBudgetError) as err:
                build_lattice(u, cfg)
            partial = err.value.partial
            assert partial.completeness_flag == "complete" and partial.node_count == budget
            assert all(not p.is_commutative for p in partial.nodes)
            # the partial lattice of the reading, mapped to the frame
            with pytest.raises(NodeBudgetError) as err:
                build_lattice(reading.exact, cfg)
            exact = err.value.partial
            assert np.allclose([reading.lift(p.classical_support).matrix() for p in exact.nodes],
                               [p.matrix() for p in partial.nodes], atol=1e-12)
            assert (exact.hasse_edges, exact.coatoms) == (partial.hasse_edges, partial.coatoms)

    def test_decompositions_are_the_kernels_of_the_extreme_rays(self):
        # on every member of a rotated bits:N=3:k=2, the parts taken from
        # the reading's supports are the kernels of extreme_rays, in order
        exact = three_bit_two_local()
        v = haar_unitary(np.random.default_rng(5), 8)
        u = rotated_space(exact, v)
        count = 0
        for mask in range(1, 256):
            sub = [x for x in range(8) if mask >> x & 1]
            desc = analyze_cone(Projection.from_support(8, sub), exact)
            if not desc.member or desc.dim_K == 0:
                continue
            count += 1
            p = Projection.from_columns(8, v[:, sub])
            parts = coatom_decomposition(p, u)
            kernels = [kernel_projection(g) for g in extreme_rays(analyze_cone(p, u))]
            assert len(parts) == len(kernels) == desc.dim_K, sub
            assert all(a.same_image(b) for a, b in zip(parts, kernels)), sub
        assert count == 224

    def test_irrational_and_noncommuting_spaces_keep_the_descents(self):
        spaces = [from_spanning_set([np.eye(3), np.diag([0.0, 1.0, np.sqrt(2.0)])]),
                  m3_subspace(), build_klocal(SiteSystem.qubits(3), 2)]
        for u, samples in zip(spaces, (20, 20, 1)):
            assert u.exact_reading() is None
            assert enumerate_coatoms(u, RunConfig(samples=samples))[1] == "sampled"
        # span{1, diag(0, 1, sqrt 2)}: its two coatoms, the ends of the segment
        coatoms = enumerate_coatoms(spaces[0], RunConfig(samples=20))[0]
        assert {rotated_support(p, np.eye(3)) for p in coatoms} == {frozenset({0}), frozenset({2})}

    @pytest.mark.parametrize("k", [1, 2])
    def test_decompositions_rotate_back_to_exact_ones(self, k):
        # every member of a rotated bits:N=3 decomposes on the exact route:
        # dim K exact coatoms above it that meet in it, the ones the exact
        # engine picks wherever K(p) has no more rays than its dimension
        exact = build_klocal(three_bit_system(), k)
        v = haar_unitary(np.random.default_rng(k), 8)
        u = rotated_space(exact, v)
        coatoms = {p.classical_support for p in enumerate_coatoms(exact)[0]}
        count = 0
        for mask in range(1, 256):
            sub = [x for x in range(8) if mask >> x & 1]
            p_exact = Projection.from_support(8, sub)
            desc = analyze_cone(p_exact, exact)
            if not desc.member or desc.dim_K == 0:
                continue
            count += 1
            parts = [rotated_support(q, v) for q in coatom_decomposition(
                Projection.from_columns(8, v[:, sub]), u)]
            assert len(set(parts)) == desc.dim_K, sub
            assert all(s in coatoms for s in parts), sub
            assert frozenset.intersection(*parts) == frozenset(sub)
            if len(extreme_rays(desc)) == desc.dim_K:
                assert set(parts) == {q.classical_support
                                      for q in coatom_decomposition(p_exact, exact)}, sub
        assert count == (26 if k == 1 else 224)


class TestEngineAgreement:
    def test_diagonal_embedding_matches_exact_engine(self):
        # the float engine on the diagonal embedding of bits:N=3:k=2
        # against the exact engine, on every support
        exact = three_bit_two_local()
        embedded = from_spanning_set(exact.basis_as_matrices())
        from itertools import combinations
        for size in range(9):
            for sub in combinations(range(8), size):
                p_exact = Projection.from_support(8, sub)
                p_float = Projection.from_columns(8, np.eye(8)[:, list(sub)])
                assert is_ground_projection(p_float, embedded) == \
                    is_ground_projection(p_exact, exact), sub
                assert is_coatom(p_float, embedded) == is_coatom(p_exact, exact), sub


    def test_high_dimensional_decompositions_match_exact_engine(self):
        # every member with dim K > 4 of the diagonal embedding of
        # bits:N=3:k=2 decomposes into dim K exact coatoms meeting in it,
        # by the exact reading and by the face descents alike
        exact = three_bit_two_local()
        embedded = from_spanning_set(exact.basis_as_matrices())
        cfg = RunConfig()
        count = 0
        for mask in range(1, 256):
            sub = [x for x in range(8) if mask >> x & 1]
            p_exact = Projection.from_support(8, sub)
            dim_k = analyze_cone(p_exact, exact).dim_K
            if dim_k <= 4 or not is_ground_projection(p_exact, exact):
                continue
            count += 1
            p = Projection.from_columns(8, np.eye(8)[:, sub])
            descended = [kernel_projection(g, cfg.tol_rank)
                         for g in _extreme_rays_float(analyze_cone(p, embedded, cfg), cfg)]
            meet = descended[0]
            for q in descended[1:]:
                meet = image_intersection(meet, q)
            assert meet.same_image(p, tol=1e-7), sub
            for parts in (coatom_decomposition(p, embedded), descended):
                supports = {frozenset(rotated_support(q, np.eye(8))) for q in parts}
                assert len(supports) == dim_k, sub
                assert all(is_coatom(Projection.from_support(8, s), exact) for s in supports), sub
                assert frozenset.intersection(*supports) == frozenset(sub)
        assert count == 36

    @pytest.mark.parametrize("k, seed", [(1, 100), (1, 101), (2, 100)])
    def test_rotated_space_matches_exact_engine(self, k, seed):
        # a Haar-rotated bits:N=3 against the exact engine on every
        # support; on the rotated cube (k=1) the face-diagonal pairs such
        # as {1, 2} have a ray cone, which seeded alternating projection
        # read as two-dimensional (and then called six of them members)
        exact = build_klocal(three_bit_system(), k)
        v = haar_unitary(np.random.default_rng(seed), 8)
        u = rotated_space(exact, v)
        for mask in range(256):
            sub = [x for x in range(8) if mask >> x & 1]
            p_exact = Projection.from_support(8, sub)
            p_float = Projection.from_columns(8, v[:, sub])
            assert analyze_cone(p_float, u).dim_K == analyze_cone(p_exact, exact).dim_K, sub
            assert is_ground_projection(p_float, u) == is_ground_projection(p_exact, exact), sub
            assert is_coatom(p_float, u) == is_coatom(p_exact, exact), sub


class TestQubitPair:
    """qubits:N=2:k=1, U = span{A (x) 1 + 1 (x) B}: the cone of a
    projection is known in closed form.  Every PSD element with psi (x) C^2
    in its kernel is a multiple of psi'psi'* (x) 1 (psi' orthogonal to
    psi); with psi (x) phi in its kernel, a sum of that and 1 (x) phi'phi'*;
    an entangled vector is never in the kernel of a nonzero one."""

    @staticmethod
    def unit_pair(rng):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        return psi, np.array([-np.conj(psi[1]), np.conj(psi[0])])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cones_membership_and_coatoms(self, seed):
        rng = np.random.default_rng(seed)
        psi, psi_perp = self.unit_pair(rng)
        phi, phi_perp = self.unit_pair(rng)
        e = np.eye(2)
        u = build_klocal(SiteSystem.qubits(2), 1)
        cases = [
            (np.stack([np.kron(psi, e[0]), np.kron(psi, e[1])], axis=1), 1, True, True),
            (np.stack([np.kron(e[0], phi), np.kron(e[1], phi)], axis=1), 1, True, True),
            (np.kron(psi, phi)[:, None], 2, True, False),
            ((np.kron(psi, phi) + np.kron(psi_perp, phi_perp))[:, None] / np.sqrt(2), 0,
             False, False),
        ]
        for cols, dim_k, member, coatom in cases:
            p = Projection.from_columns(4, cols)
            assert analyze_cone(p, u).dim_K == dim_k
            assert is_ground_projection(p, u) == member
            assert is_coatom(p, u) == coatom


class TestBruteForceOracleSmoke:
    """Small version of the exhaustive membership oracle (full run in
    the acceptance suite)."""

    def test_oracle_agrees_on_one_instance(self):
        # on the LP route, then on the kept rays of K(0)
        rng = np.random.default_rng(40)
        u, members = brute_force_members(rng, n_points=4, extra_dims=2)
        cfg = RunConfig()
        for _ in range(2):
            for mask in range(2 ** 4):
                support = frozenset(i for i in range(4) if mask >> i & 1)
                p = Projection.from_support(4, support)
                assert is_ground_projection(p, u, cfg) == (support in members)
            enumerate_coatoms(u, cfg)

    def test_oracle_uses_neither_route(self):
        # the oracle compares cones by its own ray enumeration: of the
        # library it imports only the integer algebra and the subspace
        # builder, no cone analysis, double description or lattice call
        tree = ast.parse(inspect.getsource(bruteforce_oracle))
        imported = {f"{node.module}.{a.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for a in node.names}
        imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for a in node.names}
        library = {name.split(".")[1] for name in imported if name.startswith("groundlattice.")}
        assert library == {"exactla", "subspace"}


class TestNodeBudget:
    def test_budget_error_carries_partial_lattice(self):
        from groundlattice.errors import NodeBudgetError
        u = three_bit_two_local()
        with pytest.raises(NodeBudgetError) as err:
            build_lattice(u, RunConfig(max_nodes=50))
        partial = err.value.partial
        assert partial.node_count <= 50
        assert partial.completeness_flag == "exact"
        # breadth-first from the top: the top and all 16 coatoms are held
        supports = [p.classical_support for p in partial.nodes]
        coatoms, _ = enumerate_coatoms(u)
        assert frozenset(range(8)) in supports
        assert len(partial.coatoms) == 16
        assert {supports[i] for i in partial.coatoms} == {p.classical_support for p in coatoms}
        # every edge joins two held nodes, child strictly inside parent
        for i, j in partial.hasse_edges:
            assert 0 <= i < partial.node_count and 0 <= j < partial.node_count
            assert supports[i] < supports[j]

    def test_budget_partials_are_breadth_first_prefixes(self):
        # a smaller budget keeps a subset of the nodes, every held node but
        # the top hangs from a held upper cover, and every held cover is a
        # cover of the full lattice; the coatoms are expanded in their
        # order, so the nodes after the top and the 16 coatoms lie below
        # the first coatom
        from groundlattice.errors import NodeBudgetError
        u = three_bit_two_local()
        every_cover = lattice_covers(build_lattice(u), lambda p: p.classical_support)
        first = enumerate_coatoms(u)[0][0].classical_support
        previous = set()
        for budget in (17, 20, 40, 100, 225):
            with pytest.raises(NodeBudgetError) as err:
                build_lattice(u, RunConfig(max_nodes=budget))
            partial = err.value.partial
            supports = {p.classical_support for p in partial.nodes}
            assert len(supports) == budget and previous <= supports
            covers = lattice_covers(partial, lambda p: p.classical_support)
            assert covers <= every_cover
            assert {a for a, _ in covers} == supports - {frozenset(range(8))}
            if budget == 20:
                assert all(s < first for s in supports - previous)
            previous = supports
