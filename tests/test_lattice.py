"""Membership via the greatest-projection rule, coatoms, lattice building."""

import numpy as np
import pytest

from groundlattice.config import RunConfig
from groundlattice.cone import analyze_cone
from groundlattice.errors import PreconditionError
from groundlattice.fixtures import (
    U_MINUS,
    U_PLUS,
    bipartite_edges,
    m3_known_coatoms,
    m3_p_bottom,
    m3_p_plus,
    m3_subspace,
    parity_classes,
    three_bit_system,
    three_bit_two_local,
)
from groundlattice.lattice import (
    build_lattice,
    close_to_lattice,
    coatom_decomposition,
    enumerate_coatoms,
    is_coatom,
    is_ground_projection,
    q_max,
)
from groundlattice.linalg import (
    Projection,
    frobenius,
    ground_projection,
    hermitian_matrix,
    image_intersection,
    loewner_leq,
)
from groundlattice.manybody import build_klocal
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

    def test_decomposition_parts_are_fixed_points(self):
        u = m3_subspace()
        for q in coatom_decomposition(m3_p_bottom(), u):
            assert q_max(q, u).same_image(q, tol=1e-6)

    def test_rotated_cube_vertices_decompose_into_three_facets(self):
        # bits:N=3:k=1 conjugated by a Haar unitary: each vertex has
        # dim K = 3 and is the meet of the three facets through it
        v = haar_unitary(np.random.default_rng(0), 8)
        cube = build_klocal(three_bit_system(), 1)
        u = from_spanning_set([v @ np.diag([float(x) for x in f]) @ v.conj().T
                               for f in cube.basis])
        for x in range(8):
            p = Projection.from_columns(8, v[:, [x]])
            parts = coatom_decomposition(p, u)
            assert len(parts) == 3
            meet = parts[0]
            for q in parts[1:]:
                meet = image_intersection(meet, q)
            assert meet.same_image(p, tol=1e-7)


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

    def test_identity_span_float_engine(self):
        u = from_spanning_set([np.eye(3, dtype=complex)])
        coatoms, flag = enumerate_coatoms(u, RunConfig(samples=50))
        assert flag == "sampled"
        assert len(coatoms) == 1
        assert coatoms[0].rank == 0

    def test_m3_sampled_family(self):
        u = m3_subspace()
        coatoms, flag = enumerate_coatoms(u, RunConfig(samples=40, seed=2))
        assert flag == "sampled"
        # generic samples give rank-one ground projections, all coatoms
        assert len(coatoms) >= 10
        for p in coatoms:
            assert p.rank == 1
            # the sampled family lives in the upper 2x2 block: rank-one
            # projections whose image vector has no third component
            v = p.image_basis[:, 0]
            assert abs(v[2]) <= 1e-7


class TestBuildLattice:
    def test_identity_span_two_node_chain(self):
        u = from_spanning_set([np.eye(3, dtype=complex)])
        lat = build_lattice(u, RunConfig(samples=20))
        assert lat.node_count == 2
        assert lat.hasse_edges == [(0, 1)]
        assert lat.coatoms == [0]

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

    def test_m3_lattice_with_fixture_coatoms(self):
        u = m3_subspace()
        cfg = RunConfig(samples=25, seed=3)
        sampled, flag = enumerate_coatoms(u, cfg)
        lat = close_to_lattice(u, sampled + m3_known_coatoms(), flag, cfg)
        assert lat.completeness_flag == "sampled"
        for marker in [m3_p_plus(), m3_p_bottom(), Projection.identity(3), Projection.zero(3)]:
            assert lat.contains(marker)

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


class TestBruteForceOracleSmoke:
    """Small version of the exhaustive membership oracle (full run in
    the acceptance suite)."""

    def test_oracle_agrees_on_one_instance(self):
        from bruteforce_oracle import brute_force_members
        rng = np.random.default_rng(40)
        u, members = brute_force_members(rng, n_points=4, extra_dims=2)
        cfg = RunConfig()
        for mask in range(2 ** 4):
            support = frozenset(i for i in range(4) if mask >> i & 1)
            p = Projection.from_support(4, support)
            assert is_ground_projection(p, u, cfg) == (support in members)


class TestNodeBudget:
    def test_budget_error_carries_partial_lattice(self):
        from groundlattice.errors import NodeBudgetError
        u = three_bit_two_local()
        with pytest.raises(NodeBudgetError) as err:
            build_lattice(u, RunConfig(max_nodes=50))
        partial = err.value.partial
        assert partial.node_count <= 50
        assert partial.completeness_flag == "exact"
