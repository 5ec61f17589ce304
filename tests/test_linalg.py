"""Eigendecomposition, projections, and the image partial order."""

import numpy as np
import pytest

from groundlattice.errors import InputError
from groundlattice.linalg import (
    Projection,
    eig_herm,
    frobenius,
    ground_projection,
    herm_coords,
    herm_from_coords,
    hermitian_matrix,
    image_intersection,
    kernel_projection,
    loewner_leq,
    nullspace_cols,
    range_cols,
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

    def test_planted_spectrum_is_recovered(self):
        # oracle: a = V diag(lam) V^dagger with V a random unitary and lam
        # (multiplicities included) chosen beforehand
        rng = np.random.default_rng(1)
        for _ in range(20):
            mult = [int(k) for k in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
            levels = np.cumsum(rng.uniform(0.5, 3.0, size=len(mult))) - 2.0
            lam = np.repeat(levels, mult)
            n = len(lam)
            v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            a = hermitian_matrix(v @ np.diag(lam) @ v.conj().T)
            dec = eig_herm(a)
            w, vecs = dec.eigenvalues, dec.eigenvectors
            assert np.allclose(w, lam, atol=1e-10)
            starts = np.concatenate([[0], np.cumsum(mult)])
            assert dec.groups == list(zip(starts[:-1].tolist(), starts[1:].tolist()))
            assert frobenius(a @ vecs - vecs * w) <= 1e-10 * max(1.0, frobenius(a))
            assert frobenius(vecs.conj().T @ vecs - np.eye(n)) <= 1e-10

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


class TestFromSupport:
    def test_accepts_integers_only(self):
        assert Projection.from_support(4, [np.int64(3), 0]).classical_support == {0, 3}
        assert Projection.from_support(4, range(2)).classical_support == {0, 1}
        # a float or a bool is no configuration index, even where int() takes it
        for support in ([0.5, 2], [2.0], ["a"], [True, 2], [None], 5):
            with pytest.raises(InputError) as exc:
                Projection.from_support(4, support)
            assert exc.value.field == "support"

    def test_out_of_range(self):
        with pytest.raises(InputError):
            Projection.from_support(4, [4])


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

    def test_basis_form_matches_stacked_form_on_random_triples(self):
        # the meet reads null((1 - q) b) off the image basis b of p; the
        # reference is the null space of the stacked complements
        # [(1 - p); (1 - q); ...].  Each triple shares a subspace of rank
        # 0, 1 or 2 and adds up to two random columns each.
        rng = np.random.default_rng(12)
        n = 6

        def cols(k):
            return rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))

        def stacked(*ps):
            comp = np.vstack([np.eye(n) - p.matrix() for p in ps])
            return Projection(n=n, image_basis=nullspace_cols(comp))

        for _ in range(30):
            shared = cols(int(rng.integers(0, 3)))
            p, q, r = (Projection.from_columns(n, np.hstack([shared, cols(int(rng.integers(0, 3)))]))
                       for _ in range(3))
            pq = image_intersection(p, q)
            pqr = image_intersection(pq, r)
            assert pq.same_image(stacked(p, q), tol=1e-8)
            assert pqr.same_image(stacked(p, q, r), tol=1e-8)
            assert pqr.same_image(Projection.from_columns(n, shared), tol=1e-8)
            assert pqr.image_basis.shape == (n, shared.shape[1])


class TestNullspaceAndOrthonormalization:
    def test_nullspace_of_planted_rank_products(self):
        # oracle: m = l @ r with a chosen inner dimension k has rank
        # min(k, rows, cols), and for k <= rows its null space is that of r
        rng = np.random.default_rng(7)
        for _ in range(30):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 7))
            k = int(rng.integers(1, 7))
            l = rng.normal(size=(rows, k)) + 1j * rng.normal(size=(rows, k))
            r = rng.normal(size=(k, cols)) + 1j * rng.normal(size=(k, cols))
            m = l @ r
            ns = nullspace_cols(m)
            assert ns.shape[1] == cols - min(k, rows, cols)
            if ns.shape[1]:
                assert np.linalg.norm(m @ ns) <= 1e-8 * max(1.0, np.linalg.norm(m))
                assert np.allclose(ns.conj().T @ ns, np.eye(ns.shape[1]), atol=1e-10)
                if k <= rows:
                    assert np.linalg.norm(r @ ns) <= 1e-8 * max(1.0, np.linalg.norm(r))

    def test_range_cols_drops_dependent(self):
        v = np.array([[1.0], [1.0], [0.0]])
        real = np.hstack([v, 2 * v, np.array([[1.0], [0.0], [0.0]])])
        for cols in (real, real * np.exp(0.3j), real + 1j * np.roll(real, 1, axis=0)):
            q = range_cols(cols)
            assert q.shape == (3, 2)
            assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-12)
            assert np.allclose(q @ (q.conj().T @ cols), cols, atol=1e-12)
        assert range_cols(real).dtype == np.float64
        assert range_cols(real + 0j).dtype == np.complex128
        assert range_cols(np.zeros((3, 2))).shape == (3, 0)
        assert range_cols(np.zeros((3, 0))).shape == (3, 0)

    def test_float_projection_bases_are_orthonormal(self):
        rng = np.random.default_rng(12)
        n = 5

        def check(p):
            b = p.image_basis
            assert np.linalg.norm(b.conj().T @ b - np.eye(p.rank)) <= 1e-12

        for _ in range(10):
            cols = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
            p = Projection.from_columns(n, cols @ rng.normal(size=(3, 4)))
            q = Projection.from_columns(n, rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)))
            assert p.rank == 3
            # a double ground level -1 and a double kernel
            g = random_hermitian(rng, n)
            lam = np.repeat([-1.0, 0.0, 2.0], [2, 2, 1])
            w = np.linalg.eigh(g)[1]
            a = hermitian_matrix(w @ np.diag(lam) @ w.conj().T)
            for r in (p, image_intersection(p, q), p.complement(),
                      kernel_projection(a), ground_projection(a)):
                check(r)
            assert kernel_projection(a).rank == 2 and ground_projection(a).rank == 2
            assert np.abs(p.matrix() + p.complement().matrix() - np.eye(n)).max() <= 1e-12
        # the range of 1 - p for a support is read off the unit vectors
        face = Projection.from_support(n, {1, 3}).complement_basis()
        assert np.array_equal(face, np.eye(n)[:, [0, 2, 4]])

    def test_hermitian_matrix_constructor(self):
        a = hermitian_matrix([[1, 2 + 1j], [2 - 1j, 3]])
        assert np.allclose(a, a.conj().T)
        with pytest.raises(InputError):
            hermitian_matrix(np.zeros((2, 3)))
        assert abs(np.trace(a).imag) == 0.0

    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    def test_herm_coordinates_are_an_isometry(self, m):
        # the coordinates of Herm(m): dot products are trace inner products,
        # and the inverse gives back the matrices, exactly hermitian
        rng = np.random.default_rng(7)
        mats = np.stack([hermitian_matrix(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
                         for _ in range(3)]).reshape(3, m, m)
        x = herm_coords(mats)
        assert x.shape == (3, m * m) and x.dtype == np.float64
        gram = np.array([[np.trace(a @ b).real for b in mats] for a in mats])
        assert np.abs(x @ x.T - gram).max() <= 1e-12 * max(1.0, np.abs(gram).max())
        back = herm_from_coords(np.asfortranarray(x), m)
        assert np.abs(back - mats).max(initial=0.0) <= 1e-14 * max(1.0, np.abs(mats).max(initial=0.0))
        assert np.array_equal(back, back.conj().transpose(0, 2, 1))
        units = herm_from_coords(np.eye(m * m), m).reshape(m * m, m * m)
        assert np.abs(units.conj() @ units.T - np.eye(m * m)).max(initial=0.0) <= 1e-15


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
        with pytest.raises(NonConvergenceError, match="svd"):
            linalg.range_cols(SX.astype(complex))
