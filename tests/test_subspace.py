"""Operator subspaces, orthogonal projection, and linear sections."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bruteforce_oracle import in_span
from groundlattice import exactla as ela
from groundlattice import jsonio
from groundlattice.errors import InputError
from groundlattice.linalg import (
    Projection,
    frobenius,
    herm_from_coords,
    hermitian_matrix,
    nullspace_cols,
    trace_inner,
)
from groundlattice.manybody import SiteSystem, build_klocal
from groundlattice.subspace import (
    ENGINE_EXACT,
    ENGINE_FLOAT,
    from_spanning_set,
    linear_section,
    project_onto,
    read_exact,
    rows_over_h,
    rows_over_u,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def traceless_span(u):
    """The subspace spanned by the trace-free parts of U's basis."""
    n = u.ambient_n
    if u.is_exact:
        return from_spanning_set([[n * x - sum(b) for x in b] for b in u.basis],
                                 engine=ENGINE_EXACT)
    return from_spanning_set([b - np.trace(b).real / n * np.eye(n) for b in u.basis])


def block(two_by_two, scalar):
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = two_by_two
    out[2, 2] = scalar
    return out


A1 = block(SX, 2.0)
A2 = block(SY, 0.0)


def m3_subspace():
    return from_spanning_set([np.eye(3, dtype=complex), A1, A2])


# --- three-bit configuration space, built by hand as an oracle fixture ---

def bit_sign(x, i):
    return Fraction(-1) ** x[i]


def three_bit_two_local():
    """U_(2) for three bits: span of 1, s_i, s_i s_j (parity characters)."""
    xs = list(product((0, 1), repeat=3))
    vecs = [[Fraction(1)] * 8]
    for i in range(3):
        vecs.append([bit_sign(x, i) for x in xs])
    for i in range(3):
        for j in range(i + 1, 3):
            vecs.append([bit_sign(x, i) * bit_sign(x, j) for x in xs])
    return xs, from_spanning_set(vecs, engine=ENGINE_EXACT, config_dims=(2, 2, 2))


def parity_vector():
    xs = list(product((0, 1), repeat=3))
    return [bit_sign(x, 0) * bit_sign(x, 1) * bit_sign(x, 2) for x in xs]


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return hermitian_matrix(g)


def haar_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def span_projector(mats, n):
    """Orthogonal projector onto the span of hermitian matrices, as real
    n^2-vectors under the trace inner product."""
    if not len(mats):
        return np.zeros((2 * n * n, 2 * n * n))
    q = np.linalg.qr(np.stack([np.asarray(m, complex).reshape(-1).view(float)
                               for m in mats], axis=1))[0]
    return q @ q.T


def full_section(p, u, tol_rank=1e-9):
    """Reference section: the null space of the 2 n^2 real rows of p u = 0,
    one column per basis element of U."""
    pm = p.matrix()
    m = np.stack([np.concatenate([(pm @ b).real.reshape(-1), (pm @ b).imag.reshape(-1)])
                  for b in u.basis], axis=1)
    gamma = nullspace_cols(m, tol_rank).real
    return [u.element_from(g) for g in gamma.T]


def image_basis(p):
    return np.eye(p.n)[:, sorted(p.classical_support)] if p.is_commutative else p.image_basis


def both_sides(p, u, tol_rank=1e-9):
    """The section from the rows over U and from the rows over
    H = Herm(range(1 - p)), whichever side linear_section would pick."""
    gamma = nullspace_cols(rows_over_u(u, image_basis(p)), tol_rank)
    face = nullspace_cols(p.matrix(), tol_rank)
    y = nullspace_cols(rows_over_h(u, face), tol_rank)
    return ([u.element_from(g) for g in gamma.T],
            [face @ m @ face.conj().T for m in herm_from_coords(y.T, face.shape[1])])


def compressed_test_space(space, rng):
    """One of the three spaces of the section tests, and a unitary v that
    maps it onto itself (local on qubits, the rotation itself on bits)."""
    if space.startswith("qubits"):
        n_sites, k = (2, 1) if space == "qubits:N=2:k=1" else (3, 2)
        u = build_klocal(SiteSystem.qubits(n_sites), k)
        v = haar_unitary(rng, 2)
        for _ in range(n_sites - 1):
            v = np.kron(v, haar_unitary(rng, 2))
        return u, v
    v = haar_unitary(rng, 8)
    return from_spanning_set([v @ m @ v.conj().T for m in build_klocal(SiteSystem.bits(3), 2)
                              .basis_as_matrices()]), v


class TestFromSpanningSet:
    def test_m3_span_has_dim_three_with_identity(self):
        u = m3_subspace()
        assert u.dim == 3
        assert u.contains_identity
        gram = np.array([[trace_inner(a, b).real for b in u.basis] for a in u.basis])
        assert np.allclose(gram, np.eye(3), atol=1e-12)

    def test_span_of_identity(self):
        u = from_spanning_set([np.eye(4, dtype=complex)])
        assert u.dim == 1
        assert u.contains_identity

    def test_small_generators_are_kept(self):
        # each generator is scaled to unit norm before the rank cutoff, so
        # one 1e9 times larger does not swamp the identity
        z = np.diag([1.0, -1.0]).astype(complex)
        u = from_spanning_set([np.eye(2, dtype=complex), 1e9 * z])
        assert u.dim == 2
        assert u.contains_identity
        assert from_spanning_set([1e-12 * np.eye(2, dtype=complex), z]).dim == 2

    def test_collinear_inputs_collapse(self):
        u = from_spanning_set([SX, 2 * SX])
        assert u.dim == 1
        assert not u.contains_identity

    def test_empty_and_mixed_inputs_rejected(self):
        with pytest.raises(InputError):
            from_spanning_set([])
        with pytest.raises(InputError):
            from_spanning_set([SX, np.eye(3, dtype=complex)])

    def test_exact_identity_test_agrees_with_in_span(self):
        # contains_identity is read off the orthogonal basis by Parseval;
        # the Fraction Gauss-Jordan of the oracle's in_span is the reference
        rng = np.random.default_rng(29)
        seen = set()
        for trial in range(60):
            n, rows = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            vecs = [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5))) for _ in range(n)]
                    for _ in range(rows)]
            if trial % 2:   # the all-ones vector, as such or hidden in a combination
                c = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                vecs.append([1 + c * x for x in vecs[0]])
            u = from_spanning_set(vecs, engine=ENGINE_EXACT)
            assert u.contains_identity == in_span(u.basis, [1] * n)
            assert u.contains_identity == in_span(vecs, [1] * n)
            seen.add(u.contains_identity)
        assert seen == {True, False}

    def test_exact_engine_gram_is_diagonal(self):
        _, u = three_bit_two_local()
        assert u.dim == 7
        assert u.contains_identity
        for i, a in enumerate(u.basis):
            for j, b in enumerate(u.basis):
                if i != j:
                    assert ela.dot(a, b) == 0
                else:
                    assert ela.dot(a, b) != 0

    @pytest.mark.parametrize("space", ["m3", "qubits:N=2:k=1"])
    def test_float_perp_is_an_orthonormal_basis_of_the_orthogonal_complement(self, space):
        u = m3_subspace() if space == "m3" else build_klocal(SiteSystem.qubits(2), 1)
        round_trip = jsonio.subspace_from_json(jsonio.subspace_to_json(u))
        assert all(np.array_equal(a, b) for a, b in zip(round_trip.basis, u.basis))
        for v in (u, traceless_span(u), round_trip):
            n = v.ambient_n
            assert len(v.perp) + v.dim == n * n
            assert np.array_equal(v.perp, v.perp.conj().transpose(0, 2, 1))
            flat = v.perp.reshape(len(v.perp), -1)
            assert np.abs(flat.conj() @ flat.T - np.eye(len(flat))).max() <= 1e-12
            basis = np.stack(v.basis).reshape(v.dim, -1)
            assert np.abs(flat.conj() @ basis.T).max() <= 1e-12

    def test_float_perp_is_built_on_first_use_only(self):
        # perp is an SVD over all n^2 coordinates of Herm(n) and n^2 - dim U
        # dense matrices: building a k-local subspace, a subspace from a
        # spanning set, a verbatim copy, or a section read off U does not pay for it
        u = build_klocal(SiteSystem.qubits(5), 2)
        copy = jsonio.subspace_from_json(jsonio.subspace_to_json(u))
        for v in (u, traceless_span(u), copy):
            assert v._perp is None
        assert all(b.base is u.stacked for b in u.basis)     # one copy of the basis
        pure = Projection.from_columns(32, np.eye(32)[:, :1])
        assert linear_section(pure, u).face is None and u._perp is None
        small = build_klocal(SiteSystem.qubits(3), 2)
        sec = linear_section(Projection.from_columns(8, np.eye(8)[:, :7]), small)
        assert sec.face is not None and small.perp is small._perp is not None

    def test_exact_perp_is_a_basis_of_the_orthogonal_complement(self):
        _, u = three_bit_two_local()
        traceless = traceless_span(u)
        assert traceless.dim == u.dim - 1
        for v in (u, traceless):
            assert len(v.perp) + v.dim == v.ambient_n
            assert ela.rank(v.perp) == len(v.perp)
            assert all(ela.dot(w, b) == 0 for w in v.perp for b in v.basis)
        assert in_span(traceless.perp, [1] * 8)

    @pytest.mark.parametrize("dims, k", [((2, 2, 2, 2), 2), ((2, 3, 2), 1), ((3, 3, 3), 2)])
    def test_klocal_sign_cuts_span_perp_and_follow_the_site_symmetries(self, dims, k):
        # the exact cone analysis cuts a k-local space by product vectors of
        # U-perp, not by the rows of perp: they span U-perp, and a permutation
        # of equal sites or of the levels of a site maps them onto themselves
        # up to sign, so a support and its image are cut alike
        u = build_klocal(SiteSystem(dims=dims, engine=ENGINE_EXACT), k)
        n = u.ambient_n
        vecs = [[(pos >> x & 1) - (neg >> x & 1) for x in range(n)] for pos, neg in u.perp_signs]
        assert all(ela.dot(w, b) == 0 for w in vecs for b in u.basis)
        assert ela.rank(vecs) == len(u.perp)
        cuts = {frozenset(signs) for signs in u.perp_signs}
        configs = list(product(*(range(d) for d in dims)))
        index = {c: x for x, c in enumerate(configs)}
        rng = np.random.default_rng(3)
        for _ in range(6):
            sites = list(range(len(dims)))
            for d in set(dims):
                same = [i for i in sites if dims[i] == d]
                for i, j in zip(same, rng.permutation(same)):
                    sites[i] = int(j)
            levels = [rng.permutation(d) for d in dims]
            move = [index[tuple(int(levels[i][c[sites[i]]]) for i in range(len(dims)))]
                    for c in configs]
            assert sorted(move) == list(range(n))
            moved = {frozenset(sum(1 << move[x] for x in range(n) if mask >> x & 1)
                               for mask in signs) for signs in cuts}
            assert moved == cuts
        # a subspace that is not known to be k-local cuts by the rows of perp
        plain = from_spanning_set(u.basis, engine=ENGINE_EXACT)
        assert plain.perp_signs == [
            (sum(1 << x for x, v in enumerate(w) if v > 0),
             sum(1 << x for x, v in enumerate(w) if v < 0)) for w in plain.perp]


class TestExactReading:
    """A commuting float U read as rational functions on a joint eigenbasis."""

    @pytest.mark.parametrize("n_bits, k", [(3, 1), (3, 2), (4, 2), (6, 2)])
    def test_rotated_bits_read_as_the_exact_space(self, n_bits, k):
        exact = build_klocal(SiteSystem.bits(n_bits), k)
        n = 2 ** n_bits
        v = haar_unitary(np.random.default_rng(n_bits + k), n)
        u = from_spanning_set([v @ m @ v.conj().T for m in exact.basis_as_matrices()])
        reading = u.exact_reading()
        assert reading is u.exact_reading()         # computed once
        assert reading.off_diagonal <= 1e-9 and reading.rational <= 1e-9
        assert reading.exact.dim == exact.dim and reading.exact.contains_identity
        # the frame is v up to phases and an order of its columns, and the
        # exact space is bits in that order
        overlap = np.abs(v.conj().T @ reading.frame)
        order = np.argmax(overlap, axis=0)
        assert np.allclose(overlap[order, range(n)], 1.0, atol=1e-9)
        assert sorted(order) == list(range(n))
        permuted = [[x[order[i]] for i in range(n)] for x in exact.basis]
        assert all(in_span(reading.exact.basis, x) for x in permuted)
        p = Projection.from_columns(n, v[:, [0, 3]])
        assert reading.support_of(p) == frozenset(np.flatnonzero(np.isin(order, [0, 3])))
        assert reading.lift(reading.support_of(p)).same_image(p)

    def test_two_dimensional_blocks(self):
        # span{1, Z (x) 1}, rotated: each eigenvalue of Z (x) 1 is a joint
        # eigenspace of dimension two, on which the exact functions are
        # constant
        v = haar_unitary(np.random.default_rng(5), 4)
        z1 = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        reading = from_spanning_set([np.eye(4), v @ z1 @ v.conj().T]).exact_reading()
        assert reading.exact.dim == 2
        values = np.diag(reading.frame.conj().T @ v @ z1 @ v.conj().T @ reading.frame).real
        for g in reading.exact.basis:
            assert len({(round(float(x), 6), g[i]) for i, x in enumerate(values)}) == 2

    @pytest.mark.parametrize("space", ["sqrt2", "m3", "qubits:N=3:k=2"])
    def test_no_reading(self, space):
        # an irrational diagonal, and two spaces that do not commute
        if space == "sqrt2":
            u = from_spanning_set([np.eye(3), np.diag([0.0, 1.0, np.sqrt(2.0)])])
        elif space == "m3":
            u = m3_subspace()
        else:
            u = build_klocal(SiteSystem.qubits(3), 2)
        assert read_exact(u) is None
        assert u.exact_reading() is None

    def test_rational_diagonal_with_small_denominators(self):
        u = from_spanning_set([np.eye(3), np.diag([0.0, 1.0, 2.0 / 7.0])])
        reading = u.exact_reading()
        assert reading is not None and reading.exact.dim == 2
        # at tol 1e-6 a fixed bound of 1000 would take sqrt 2 for 1393/985,
        # 4e-7 off; the bound tol^(-1/3) = 100 leaves it 7e-5 off
        irrational = from_spanning_set([np.eye(3), np.diag([0.0, 1.0, np.sqrt(2.0)])],
                                       tol_rank=1e-6)
        assert irrational.exact_reading(1e-6) is None

    def test_exact_engine_has_no_reading(self):
        assert three_bit_two_local()[1].exact_reading() is None


class TestProjectOnto:
    def test_idempotence_on_members(self):
        u = m3_subspace()
        a = 0.3 * np.eye(3) + 1.7 * A1 - 0.4 * A2
        assert frobenius(project_onto(a, u) - a) <= 1e-10

    def test_parity_function_projects_to_zero(self):
        _, u = three_bit_two_local()
        f = parity_vector()
        assert project_onto(f, u) == ela.zeros(8)

    def test_orthogonal_input_projects_to_zero(self):
        u = from_spanning_set([SX])
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        assert frobenius(project_onto(z, u)) <= 1e-12

    def test_idempotent_and_self_adjoint_random(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 5))
            u = from_spanning_set([random_hermitian(rng, n) for _ in range(k)])
            a, b = random_hermitian(rng, n), random_hermitian(rng, n)
            pa = project_onto(a, u)
            assert frobenius(project_onto(pa, u) - pa) <= 1e-9
            lhs = trace_inner(pa, b).real
            rhs = trace_inner(a, project_onto(b, u)).real
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestLinearSection:
    def test_zero_projection_gives_whole_space(self):
        u = m3_subspace()
        sec = linear_section(Projection.zero(3), u)
        assert sec.dim == u.dim

    def test_identity_projection_gives_zero_space(self):
        u = m3_subspace()
        sec = linear_section(Projection.identity(3), u)
        assert sec.dim == 0

    def test_three_bit_cross_pair_is_one_dimensional(self):
        xs, u = three_bit_two_local()
        f = parity_vector()
        x, y = 0, 7  # (000) and (111): f(x) = 1, f(y) = -1
        support = frozenset(range(8)) - {x, y}
        sec = linear_section(Projection.from_support(8, support), u)
        assert sec.dim == 1
        g = sec.basis[0]
        # spanned by delta_x + delta_y
        assert g[x] == g[y] != 0
        assert all(g[i] == 0 for i in range(8) if i not in (x, y))

    def test_members_annihilate_and_reproject(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            u = from_spanning_set(
                [np.eye(n, dtype=complex)] + [random_hermitian(rng, n) for _ in range(3)])
            k = int(rng.integers(0, n + 1))
            cols = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
            p = Projection.from_columns(n, cols)
            sec = linear_section(p, u)
            pm = p.matrix()
            for b in sec.basis:
                assert np.array_equal(b, b.conj().T)
                assert frobenius(pm @ b) <= 1e-8
                assert frobenius(b @ pm) <= 1e-8
                assert frobenius(project_onto(b, u) - b) <= 1e-8

    @pytest.mark.parametrize("space", ["qubits:N=2:k=1", "qubits:N=3:k=2",
                                       "rotated bits:N=3:k=2"])
    def test_compressed_rows_give_the_full_section(self, space):
        # linear_section and both of its sides, the rows over U and over
        # Herm(range(1 - p)), have the dimension and the span of the null
        # space of the 2 n^2 rows of p u = 0.  At every rank p is in turn the
        # span of rank columns of a unitary v that maps U onto itself (so not
        # every section is {0}), a Haar-random projection, and a support
        # projection (the CLI reads {"support": ...} on either engine)
        rng = np.random.default_rng(31)
        u, v = compressed_test_space(space, rng)
        n = u.ambient_n
        dims = set()
        for rank in range(n + 1):
            cols = [v[:, rng.permutation(n)[:rank]], haar_unitary(rng, n)[:, :rank]]
            projections = [Projection.from_columns(n, c) if rank else Projection.zero(n)
                           for c in cols] + [Projection.from_support(n, range(rank))]
            for p in projections:
                ref = full_section(p, u)
                for basis in (linear_section(p, u).basis, *both_sides(p, u)):
                    assert len(basis) == len(ref), (rank, len(basis), len(ref))
                    assert np.abs(span_projector(basis, n)
                                  - span_projector(ref, n)).max() <= 1e-10
                dims.add((rank, len(ref)))
        assert any(rank and dim for rank, dim in dims)

    @pytest.mark.parametrize("tilt", [1e-10, 1e-8, 1e-6])
    def test_both_sides_see_a_tilted_face_alike(self, tilt):
        # a rank-5 support face of the rotated bits:N=3:k=2 space has a
        # 2-dimensional section; tilted by a small unitary it has none, and
        # the two smallest singular values of both sides are the sines of
        # the two small principal angles between U and Herm(range(1 - p))
        rng = np.random.default_rng(32)
        u, v = compressed_test_space("rotated bits:N=3:k=2", rng)
        w, vecs = np.linalg.eigh(random_hermitian(rng, 8))
        turn = vecs @ np.diag(np.exp(1j * tilt * w / np.abs(w).max())) @ vecs.conj().T
        for support in ([0, 1, 2, 3, 4], [1, 2, 4, 6, 7]):
            flat = Projection.from_columns(8, v[:, support])
            assert linear_section(flat, u).dim == 2
            p = Projection(n=8, image_basis=turn @ v[:, support])
            face = nullspace_cols(p.matrix())
            sines = [np.linalg.svd(rows, compute_uv=False)[-2:]
                     for rows in (rows_over_u(u, p.image_basis), rows_over_h(u, face))]
            assert 1e-2 * tilt <= sines[0].min() <= sines[0].max() <= tilt
            assert np.allclose(sines[0], sines[1], rtol=1e-6, atol=1e-15), sines

    def test_antitone_in_the_projection(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            n = 5
            u = from_spanning_set(
                [np.eye(n, dtype=complex)] + [random_hermitian(rng, n) for _ in range(4)])
            cols = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            p = Projection.from_columns(n, cols[:, :1])
            q = Projection.from_columns(n, cols)
            sec_p = linear_section(p, u)
            sec_q = linear_section(q, u)
            assert sec_q.dim <= sec_p.dim
            # every element of L(q) reprojects onto itself within span L(p)
            for b in sec_q.basis:
                coeffs = [trace_inner(c, b).real for c in sec_p.basis]
                recon = sum(co * c for co, c in zip(coeffs, sec_p.basis))
                assert frobenius(recon - b) <= 1e-8

