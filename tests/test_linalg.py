"""Eigendecomposition, projections, and the image partial order."""

import numpy as np
import pytest

from groundlattice.errors import InputError
from groundlattice.linalg import (
    Projection,
    eig_herm,
    frobenius,
    ground_projection,
    hermitian_matrix,
    image_intersection,
    kernel_projection,
    loewner_leq,
    nullspace_cols,
    orthonormal_columns,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def block(two_by_two, scalar):
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = two_by_two
    out[2, 2] = scalar
    return out


def rank_one(z):
    """p(z) = [[1, conj(z)], [z, 1]] / 2 for |z| = 1."""
    return 0.5 * np.array([[1, np.conj(z)], [z, 1]], dtype=complex)


A1 = block(SX, 2.0)            # sigma_X (+) 2
A2 = block(SY, 0.0)            # sigma_Y (+) 0
Z_PLUS = -0.5 + 0.5j * np.sqrt(3.0)
Z_MINUS = np.conj(Z_PLUS)
U_PLUS = block(2.0 * rank_one(Z_PLUS), 0.0)
U_MINUS = block(2.0 * rank_one(Z_MINUS), 0.0)


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return hermitian_matrix(g)


class TestEigHerm:
    def test_diagonal_input(self):
        dec = eig_herm(np.diag([0.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(dec.eigenvalues, [0, 1, 2])
        assert dec.groups == [(0, 1), (1, 2), (2, 3)]

    def test_sigma_x_block_spectrum(self):
        dec = eig_herm(A1)
        assert np.allclose(dec.eigenvalues, [-1, 1, 2], atol=1e-12)

    def test_identity_single_group(self):
        dec = eig_herm(np.eye(4, dtype=complex))
        assert dec.groups == [(0, 4)]
        assert np.allclose(dec.eigenvalues, 1.0)

    def test_reconstruction_and_unitarity_random(self):
        rng = np.random.default_rng(0)
        tol_resid = 1e-9
        for n in range(1, 13):
            a = random_hermitian(rng, n)
            dec = eig_herm(a)
            v, lam = dec.eigenvectors, dec.eigenvalues
            recon = v @ np.diag(lam) @ v.conj().T
            assert frobenius(a - recon) <= 10 * tol_resid * max(1.0, frobenius(a))
            assert frobenius(v.conj().T @ v - np.eye(n)) <= 10 * tol_resid
            assert np.all(np.diff(lam) >= -1e-12)

    def test_eigenvalues_match_lapack(self):
        # independent oracle: LAPACK eigvalsh
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = random_hermitian(rng, n)
            dec = eig_herm(a)
            assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(a), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            eig_herm(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_degenerate_grouping(self):
        a = np.diag([0.0, 1e-12, 5.0]).astype(complex)
        dec = eig_herm(a, tol_spec=1e-9)
        assert dec.groups[0] == (0, 2)


class TestGroundProjection:
    def test_sigma_x_block_ground_is_minus_one_eigvec(self):
        p = ground_projection(A1)
        assert p.rank == 1
        target = np.array([1, -1, 0], dtype=complex) / np.sqrt(2)
        assert np.allclose(p.matrix() @ target, target, atol=1e-10)

    def test_identity_ground_is_identity(self):
        p = ground_projection(np.eye(3, dtype=complex))
        assert p.same_image(Projection.identity(3))

    def test_u_plus_ground_projection_rank_two(self):
        # ground projection of u_+ = 2 p(z_+) (+) 0 is p(-z_+) (+) 1
        p = ground_projection(U_PLUS)
        assert p.rank == 2
        expected = block(rank_one(-Z_PLUS), 1.0)
        assert np.allclose(p.matrix(), expected, atol=1e-10)

    def test_commutes_and_eigen_relation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = random_hermitian(rng, n)
            dec = eig_herm(a)
            p = ground_projection(a).matrix()
            assert frobenius(a @ p - p @ a) <= 1e-9 * max(1.0, frobenius(a))
            assert frobenius(a @ p - dec.ground_energy * p) <= 1e-9 * max(1.0, frobenius(a))

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_hermitian(rng, 5)
            mu = float(rng.normal())
            p = ground_projection(a)
            q = ground_projection(a + mu * np.eye(5))
            assert p.same_image(q, tol=1e-8)


class TestKernelProjection:
    def test_diagonal(self):
        p = kernel_projection(np.diag([0.0, 0.0, 5.0]).astype(complex))
        assert np.allclose(p.matrix(), np.diag([1.0, 1.0, 0.0]))

    def test_u_plus_plus_u_minus(self):
        # u_+ + u_- = (2 I - sigma_X) (+) 0; oracle: its spectrum is {1, 3, 0}
        s = U_PLUS + U_MINUS
        expected_block = 2.0 * np.eye(2) - SX
        assert np.allclose(s, block(expected_block, 0.0), atol=1e-12)
        oracle_eigs = np.linalg.eigvalsh(s)
        assert np.allclose(np.sort(oracle_eigs), [0.0, 1.0, 3.0], atol=1e-12)
        p = kernel_projection(s)
        assert np.allclose(p.matrix(), np.diag([0.0, 0.0, 1.0]), atol=1e-10)

    def test_positive_definite_has_zero_kernel(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = hermitian_matrix(g @ g.conj().T + 0.5 * np.eye(4))
        assert kernel_projection(a).rank == 0


class TestLoewnerOrder:
    def test_diagonal_examples(self):
        p1 = Projection.from_columns(3, np.eye(3)[:, :1])
        p2 = Projection.from_columns(3, np.eye(3)[:, :2])
        assert loewner_leq(p1, p2)
        assert not loewner_leq(p2, p1)
        e1 = Projection.from_columns(2, np.eye(2)[:, :1])
        e2 = Projection.from_columns(2, np.eye(2)[:, 1:])
        assert not loewner_leq(e1, e2)

    def test_p_minus_z_below_p_plus(self):
        small = Projection.from_columns(3, block(rank_one(-Z_PLUS), 0.0)[:, :2])
        big = Projection.from_columns(3, block(rank_one(-Z_PLUS), 1.0))
        assert loewner_leq(small, big)

    def test_partial_order_on_random_projections(self):
        rng = np.random.default_rng(5)
        n = 5
        projs = []
        for _ in range(12):
            k = int(rng.integers(0, n + 1))
            cols = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
            projs.append(Projection.from_columns(n, cols))
        for p in projs:
            assert loewner_leq(p, p)
        for p in projs:
            for q in projs:
                if loewner_leq(p, q) and loewner_leq(q, p):
                    assert p.same_image(q, tol=1e-7)
                for r in projs:
                    if loewner_leq(p, q) and loewner_leq(q, r):
                        assert loewner_leq(p, r, tol=1e-7)


class TestImageIntersection:
    def test_diagonal(self):
        p = Projection.from_columns(3, np.eye(3)[:, :2])
        q = Projection.from_columns(3, np.eye(3)[:, 1:])
        r = image_intersection(p, q)
        assert np.allclose(r.matrix(), np.diag([0.0, 1.0, 0.0]), atol=1e-10)

    def test_p_plus_meet_p_minus(self):
        p_plus = Projection.from_columns(3, block(rank_one(-Z_PLUS), 1.0))
        p_minus = Projection.from_columns(3, block(rank_one(-Z_MINUS), 1.0))
        r = image_intersection(p_plus, p_minus)
        assert np.allclose(r.matrix(), np.diag([0.0, 0.0, 1.0]), atol=1e-8)

    def test_commutative_supports(self):
        p = Projection.from_support(8, {0, 1, 2})
        q = Projection.from_support(8, {2, 3})
        assert image_intersection(p, q).classical_support == frozenset({2})

    def test_algebraic_laws_on_random_triples(self):
        rng = np.random.default_rng(6)
        n = 4
        for _ in range(15):
            ps = []
            for _ in range(3):
                k = int(rng.integers(0, n + 1))
                cols = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
                ps.append(Projection.from_columns(n, cols))
            p, q, r = ps
            assert image_intersection(p, q).same_image(image_intersection(q, p), tol=1e-7)
            left = image_intersection(image_intersection(p, q), r)
            right = image_intersection(p, image_intersection(q, r))
            assert left.same_image(right, tol=1e-6)
            assert image_intersection(p, p).same_image(p, tol=1e-7)


class TestNullspaceAndOrthonormalization:
    def test_nullspace_matches_numpy_svd(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 7))
            m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            # plant a rank deficiency half the time
            if rng.random() < 0.5 and cols >= 2:
                m[:, -1] = m[:, 0] * (1 + 1j)
            ns = nullspace_cols(m)
            sv = np.linalg.svd(m, compute_uv=False)
            oracle_rank = int(np.sum(sv > 1e-9 * max(1.0, sv.max())))
            assert ns.shape[1] == cols - oracle_rank
            if ns.shape[1]:
                assert np.linalg.norm(m @ ns) <= 1e-8 * max(1.0, np.linalg.norm(m))
                gram = ns.conj().T @ ns
                assert np.allclose(gram, np.eye(ns.shape[1]), atol=1e-10)

    def test_orthonormal_columns_drops_dependent(self):
        v = np.array([[1.0], [1.0]], dtype=complex)
        cols = np.hstack([v, 2 * v, np.array([[1.0], [0.0]])])
        q = orthonormal_columns(cols)
        assert q.shape == (2, 2)
        assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-12)

    def test_hermitian_matrix_constructor(self):
        a = hermitian_matrix([[1, 2 + 1j], [2 - 1j, 3]])
        assert np.allclose(a, a.conj().T)
        with pytest.raises(InputError):
            hermitian_matrix(np.zeros((2, 3)))
        assert abs(np.trace(a).imag) == 0.0


class TestNonConvergence:
    @staticmethod
    def _lapack_fails(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    def test_lapack_failure_raises_typed_error(self, monkeypatch):
        from groundlattice import linalg
        from groundlattice.errors import NonConvergenceError
        monkeypatch.setattr(np.linalg, "eigh", self._lapack_fails)
        monkeypatch.setattr(np.linalg, "svd", self._lapack_fails)
        with pytest.raises(NonConvergenceError, match="eigh"):
            linalg.eig_herm(SX.astype(complex))
        with pytest.raises(NonConvergenceError, match="svd"):
            linalg.nullspace_cols(SX.astype(complex))
