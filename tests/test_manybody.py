"""Composite-system builders: k-local spaces, traces, marginals, fixtures."""

from fractions import Fraction
from itertools import combinations
import math
from math import comb

import numpy as np
import pytest

from groundlattice import exactla as ela
from groundlattice import jsonio
from groundlattice.errors import InputError, UnsupportedConfigurationError
from groundlattice.fixtures import (
    bipartite_edges,
    parity_classes,
    parity_of,
    three_bit_configurations,
    three_bit_two_local,
)
from groundlattice.lattice import build_lattice
from groundlattice.linalg import frobenius, hermitian_matrix, trace_inner
from groundlattice.manybody import (
    SiteSystem,
    affine_dimension,
    build_klocal,
    embed_on_sites,
    ff_lattice_3bit,
    klocal_dimension,
    marginal_map,
    marginal_polytope_vertices,
    partial_trace,
    truncation_rows,
)
from groundlattice.subspace import ENGINE_EXACT, from_spanning_set, project_onto

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def parity_vector() -> list[Fraction]:
    return [Fraction(parity_of(x)) for x in three_bit_configurations()]


def complement_pair_edges() -> list[frozenset[int]]:
    """The edges joining a configuration to its bitwise complement."""
    confs = three_bit_configurations()
    out = []
    for i, x in enumerate(confs):
        j = confs.index(tuple(1 - b for b in x))
        if i < j:
            out.append(frozenset({i, j}))
    return out


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return hermitian_matrix(g)


def random_state(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestBuildKlocal:
    def test_three_bit_dimension_seven(self):
        u = build_klocal(SiteSystem.bits(3), 2)
        assert u.dim == 7
        assert u.contains_identity
        assert klocal_dimension(SiteSystem.bits(3), 2) == 7

    def test_three_qubit_dimension(self):
        u = build_klocal(SiteSystem.qubits(3), 2)
        assert u.dim == 37  # marginal body dimension 36, plus the identity
        assert u.contains_identity
        gram = np.array([[trace_inner(a, b).real for b in u.basis] for a in u.basis])
        assert np.allclose(gram, np.eye(37), atol=1e-10)

    def test_k_equals_n_gives_full_space(self):
        sys = SiteSystem.qubits(2)
        u = build_klocal(sys, 2)
        assert u.dim == 16  # (2*2)^2

    def test_dimension_formula_all_uniform_cases(self):
        for n_sites in range(1, 5):
            for k in range(1, n_sites + 1):
                bits = build_klocal(SiteSystem.bits(n_sites), k)
                assert bits.dim == klocal_dimension(SiteSystem.bits(n_sites), k)
        for n_sites in range(1, 4):
            for k in range(1, n_sites + 1):
                trits = build_klocal(SiteSystem(dims=(3,) * n_sites, engine="exact-commutative"), k)
                expected = 1 + sum(comb(n_sites, ell) * 2 ** ell for ell in range(1, k + 1))
                assert trits.dim == expected

    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 2, 3), (2, 3)])
    def test_exact_basis_is_the_gram_schmidt_basis(self, dims):
        # the product vectors are kept as built, as primitive ints;
        # Gram-Schmidt over the same vectors must hand them back unchanged,
        # with the same flags
        sys = SiteSystem(dims=dims, engine=ENGINE_EXACT)
        for k in range(1, len(dims) + 1):
            u = build_klocal(sys, k)
            assert all(type(x) is int for v in u.basis for x in v)
            assert all(math.gcd(*v) == 1 for v in u.basis)
            ref = from_spanning_set(u.basis, engine=ENGINE_EXACT, config_dims=dims)
            assert u.basis == ref.basis
            assert u.contains_identity is ref.contains_identity is True
            assert u.site_structure == ref.site_structure == (len(dims), dims)
            copy = jsonio.subspace_from_json(jsonio.subspace_to_json(u))
            assert (copy.basis, copy.site_structure) == (u.basis, u.site_structure)

    def test_k_out_of_range(self):
        with pytest.raises(InputError):
            build_klocal(SiteSystem.bits(2), 3)
        with pytest.raises(InputError):
            build_klocal(SiteSystem.bits(2), 0)

    def test_matches_fixture_subspace(self):
        u = three_bit_two_local()
        f = parity_vector()
        # parity spans the complement of U_(2)
        assert project_onto(f, u) == ela.zeros(8)
        assert u.dim == 7


def embed_reference(sys, b, kept):
    """Entry (x, y) of b on the kept sites and the identity elsewhere: b at
    the kept parts of x and y when x and y agree on every other site."""
    confs, kept_confs = sys.configurations(), sys.configurations(kept)
    at = [kept_confs.index(tuple(x[i] for i in kept)) for x in confs]
    out = np.zeros((len(confs), len(confs)), complex)
    for r, x in enumerate(confs):
        for c, y in enumerate(confs):
            if all(x[i] == y[i] for i in range(sys.n_sites) if i not in kept):
                out[r, c] = b[at[r], at[c]]
    return out


class TestPartialTrace:
    def test_single_site_quantum(self):
        sys = SiteSystem.qubits(2)
        a = np.kron(SX, np.eye(2))
        out = partial_trace(a, sys, (1,))
        assert np.allclose(out, 2 * SX)

    def test_classical_point_mass(self):
        sys = SiteSystem.bits(3)
        vec = [Fraction(0)] * 8
        vec[5] = Fraction(1)  # configuration (1, 0, 1)
        out = partial_trace(vec, sys, (1,))
        confs = sys.configurations((0, 2))
        assert out[confs.index((1, 1))] == 1
        assert sum(out, Fraction(0)) == 1

    def test_empty_trace_is_identity_map(self):
        sys = SiteSystem.qubits(2)
        rng = np.random.default_rng(0)
        a = random_hermitian(rng, 4)
        assert np.allclose(partial_trace(a, sys, ()), a)

    def test_adjoint_identity_quantum_full_bases(self):
        # nu of every size, up to the full trace, whose adjoint embeds a
        # scalar b as b 1; the embedding is also checked entry for entry
        rng = np.random.default_rng(1)
        for dims in [(2, 2), (2, 3), (2, 2, 2)]:
            sys = SiteSystem(dims=dims)
            n = sys.total_dim
            for nu_size in range(1, len(dims) + 1):
                for nu in combinations(range(len(dims)), nu_size):
                    kept = tuple(i for i in range(len(dims)) if i not in nu)
                    d_kept = int(np.prod([dims[i] for i in kept]))
                    for _ in range(6):
                        a = random_hermitian(rng, n)
                        b = random_hermitian(rng, d_kept)
                        embedded = embed_on_sites(sys, b, kept)
                        assert np.array_equal(embedded, embed_reference(sys, b, kept))
                        lhs = trace_inner(partial_trace(a, sys, nu), b)
                        rhs = trace_inner(a, embedded)
                        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_adjoint_identity_classical(self):
        sys = SiteSystem.bits(3)
        rng = np.random.default_rng(2)
        for nu in [(0,), (2,), (0, 1)]:
            kept = tuple(i for i in range(3) if i not in nu)
            kept_confs = sys.configurations(kept)
            a = [Fraction(int(rng.integers(-5, 6)), 3) for _ in range(8)]
            b = [Fraction(int(rng.integers(-5, 6)), 2) for _ in kept_confs]
            ta = partial_trace(a, sys, nu)
            lhs = sum((x * y for x, y in zip(ta, b)), Fraction(0))
            # embed b: configuration x maps to b(x restricted to kept)
            rhs = Fraction(0)
            for x, val in zip(sys.configurations(), a):
                rhs += val * b[kept_confs.index(tuple(x[i] for i in kept))]
            assert lhs == rhs

    def test_invalid_subset(self):
        with pytest.raises(InputError):
            partial_trace(np.eye(4, dtype=complex), SiteSystem.qubits(2), (5,))


class TestMarginalMap:
    def test_product_state_marginals(self):
        sys = SiteSystem.qubits(3)
        rng = np.random.default_rng(3)
        rhos = [random_state(rng, 2) for _ in range(3)]
        rho = np.kron(np.kron(rhos[0], rhos[1]), rhos[2])
        tup = marginal_map(rho, sys, 1)
        assert tup.subsets() == [(0,), (1,), (2,)]
        for i in range(3):
            assert frobenius(tup.entries[(i,)] - rhos[i]) <= 1e-10

    def test_marginal_map_factors_through_projection(self):
        sys = SiteSystem.qubits(3)
        u = build_klocal(sys, 2)
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = random_hermitian(rng, 8)
            pa = project_onto(a, u)
            t1 = marginal_map(a, sys, 2)
            t2 = marginal_map(pa, sys, 2)
            for nu in t1.subsets():
                assert frobenius(t1.entries[nu] - t2.entries[nu]) <= 1e-8

    def test_maximally_mixed(self):
        sys = SiteSystem.qubits(2)
        rho = np.eye(4, dtype=complex) / 4
        tup = marginal_map(rho, sys, 1)
        for nu in tup.subsets():
            assert np.allclose(tup.entries[nu], np.eye(2) / 2)

    def test_overlapping_marginals_consistent(self):
        sys = SiteSystem.qubits(3)
        rng = np.random.default_rng(5)
        rho = random_state(rng, 8)
        tup = marginal_map(rho, sys, 2)
        # further tracing (0,1) and (1,2) down to site 1 must agree
        a01 = tup.entries[(0, 1)]
        a12 = tup.entries[(1, 2)]
        sub01 = SiteSystem(dims=(2, 2))
        site1_from_01 = partial_trace(a01, sub01, (0,))
        site1_from_12 = partial_trace(a12, sub01, (1,))
        assert frobenius(site1_from_01 - site1_from_12) <= 1e-10


class TestMarginalPolytope:
    def test_three_bit_columns(self):
        sys = SiteSystem.bits(3)
        cols = marginal_polytope_vertices(sys, 2)
        assert len(cols) == 8
        assert all(len(c) == 12 for c in cols)  # 3 subsets x 4 pair configs
        assert affine_dimension(cols) == 6
        rows = truncation_rows(sys, 2)
        assert len(rows) == 12
        # each column has exactly one 1 per subset block
        for col in cols:
            for nu in combinations(range(3), 2):
                block = [col[i] for i, (m, _) in enumerate(rows) if m == nu]
                assert sum(block) == 1

    def test_two_bit_single_site(self):
        sys = SiteSystem.bits(2)
        cols = marginal_polytope_vertices(sys, 1)
        assert len(cols) == 4
        # oracle: exact rank of the translated column set
        base = cols[0]
        diffs = [[a - b for a, b in zip(c, base)] for c in cols[1:]]
        assert ela.rank(diffs) == 2
        assert affine_dimension(cols) == 2

    def test_single_site_simplex(self):
        sys = SiteSystem(dims=(4,), engine="exact-commutative")
        cols = marginal_polytope_vertices(sys, 1)
        expected = [[Fraction(int(i == j)) for i in range(4)] for j in range(4)]
        assert cols == expected

    def test_float_engine_unsupported(self):
        with pytest.raises(UnsupportedConfigurationError):
            marginal_polytope_vertices(SiteSystem.qubits(2), 1)

    def test_dimension_formula_across_systems(self):
        for n_sites in range(1, 5):
            for k in range(1, n_sites + 1):
                sys = SiteSystem.bits(n_sites)
                cols = marginal_polytope_vertices(sys, k)
                expected = sum(comb(n_sites, ell) for ell in range(1, k + 1))
                assert affine_dimension(cols) == expected


class TestFrustrationFreeLattice:
    def test_all_small_supports_present(self):
        lat = ff_lattice_3bit()
        supports = {p.classical_support for p in lat.nodes}
        for size in range(3):
            for sub in combinations(range(8), size):
                assert frozenset(sub) in supports

    def test_dual_five_sets(self):
        lat = ff_lattice_3bit()
        duals = lat.dual_supports()
        five_sets = [frozenset(c) for c in combinations(range(8), 5)]
        present = [s for s in five_sets if s in duals]
        assert len(present) == 48
        plus, minus = parity_classes()
        for s in five_sets:
            if s not in duals:
                assert plus <= s or minus <= s

    def test_dual_contains_all_large_sets(self):
        lat = ff_lattice_3bit()
        duals = lat.dual_supports()
        for size in (6, 7, 8):
            for sub in combinations(range(8), size):
                assert frozenset(sub) in duals

    def test_dual_atoms_are_non_complement_edges(self):
        lat = ff_lattice_3bit()
        # atoms of the dual = coatoms' complements ... dual order reverses:
        # atoms of Q* correspond to coatoms of Q; instead read them directly:
        # minimal nonzero dual elements = complements of maximal proper nodes
        duals = lat.dual_supports()
        nonzero = [s for s in duals if s]
        atoms = [s for s in nonzero
                 if not any(t < s for t in nonzero if t)]
        expected = set(bipartite_edges()) - set(complement_pair_edges())
        assert set(atoms) == expected
        assert len(atoms) == 12

    def test_ff_lattice_inside_ground_lattice(self):
        u = three_bit_two_local()
        full = build_lattice(u)
        ff = ff_lattice_3bit()
        full_supports = {p.classical_support for p in full.nodes}
        for p in ff.nodes:
            assert p.classical_support in full_supports
