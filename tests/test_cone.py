"""Cone descriptors: dimension, ray test, witnesses, extreme rays."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from bruteforce_oracle import cone_rays, random_rational_subspace, rational_rref

from groundlattice import cone as cone_mod
from groundlattice import exactla as ela
from groundlattice import subspace as subspace_mod
from groundlattice.config import RunConfig
from groundlattice.cone import analyze_cone, extreme_rays, relative_interior_point
from groundlattice.lattice import is_coatom, is_ground_projection
from groundlattice.errors import (
    GroundLatticeError,
    InputError,
    NonConvergenceError,
    TrivialConeError,
)
from groundlattice.linalg import (
    Projection,
    eig_herm,
    frobenius,
    ground_projection,
    hermitian_matrix,
    kernel_projection,
    loewner_leq,
)
from groundlattice.manybody import SiteSystem, build_klocal
from groundlattice.subspace import ENGINE_EXACT, from_spanning_set, linear_section, project_onto

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def block(two_by_two, scalar):
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = two_by_two
    out[2, 2] = scalar
    return out


def rank_one(z):
    return 0.5 * np.array([[1, np.conj(z)], [z, 1]], dtype=complex)


A1 = block(SX, 2.0)
A2 = block(SY, 0.0)
Z_PLUS = -0.5 + 0.5j * np.sqrt(3.0)
Z_MINUS = np.conj(Z_PLUS)
U_PLUS = block(2.0 * rank_one(Z_PLUS), 0.0)
U_MINUS = block(2.0 * rank_one(Z_MINUS), 0.0)
P_PLUS_COLS = np.hstack([block(rank_one(-Z_PLUS), 0.0)[:, :2], np.eye(3, dtype=complex)[:, 2:]])
P_BOTTOM = Projection.from_columns(3, np.eye(3, dtype=complex)[:, 2:])


def m3_subspace():
    return from_spanning_set([np.eye(3, dtype=complex), A1, A2])


def bit_sign(x, i):
    return Fraction(-1) ** x[i]


def three_bit_two_local():
    xs = list(product((0, 1), repeat=3))
    vecs = [[Fraction(1)] * 8]
    for i in range(3):
        vecs.append([bit_sign(x, i) for x in xs])
    for i in range(3):
        for j in range(i + 1, 3):
            vecs.append([bit_sign(x, i) * bit_sign(x, j) for x in xs])
    return xs, from_spanning_set(vecs, engine=ENGINE_EXACT, config_dims=(2, 2, 2))


def parity(x):
    return (-1) ** sum(x)


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return hermitian_matrix(g)


class TestAnalyzeConeFloat:
    def test_m3_bottom_block_has_dim_two(self):
        u = m3_subspace()
        desc = analyze_cone(P_BOTTOM, u)
        assert desc.dim_K == 2
        assert not desc.is_ray

    def test_m3_coatom_cone_is_ray_spanned_by_u_plus(self):
        u = m3_subspace()
        p_plus = Projection.from_columns(3, P_PLUS_COLS)
        assert p_plus.rank == 2
        desc = analyze_cone(p_plus, u)
        assert desc.dim_K == 1
        assert desc.is_ray
        w = relative_interior_point(desc)
        # witness is a positive multiple of u_+
        w_unit = w / np.trace(w).real
        assert frobenius(w_unit - U_PLUS / np.trace(U_PLUS).real) <= 1e-7

    def test_identity_gives_trivial_cone_and_error(self):
        u = m3_subspace()
        desc = analyze_cone(Projection.identity(3), u)
        assert desc.dim_K == 0
        with pytest.raises(TrivialConeError):
            relative_interior_point(desc)

    def test_bottom_witness_is_rank_two_with_kernel_e3(self):
        u = m3_subspace()
        desc = analyze_cone(P_BOTTOM, u)
        w = relative_interior_point(desc)
        dec = eig_herm(hermitian_matrix(w))
        assert np.sum(dec.eigenvalues > 1e-8) == 2
        ker = kernel_projection(w)
        assert ker.same_image(P_BOTTOM, tol=1e-7)
        # the derived example witness u_+ + u_- passes the same checks
        s = U_PLUS + U_MINUS
        assert np.allclose(np.linalg.eigvalsh(s), [0.0, 1.0, 3.0], atol=1e-12)
        assert kernel_projection(s).same_image(P_BOTTOM, tol=1e-10)

    def test_witness_lies_in_cone(self):
        rng = np.random.default_rng(21)
        u = m3_subspace()
        for _ in range(10):
            a = sum(float(c) * b for c, b in zip(rng.normal(size=3), u.basis))
            p = ground_projection(hermitian_matrix(a))
            desc = analyze_cone(p, u)
            if desc.dim_K == 0:
                continue
            w = relative_interior_point(desc)
            assert float(np.linalg.eigvalsh(w)[0]) >= -1e-8
            assert frobenius(p.matrix() @ w) <= 1e-8
            assert frobenius(project_onto(w, u) - w) <= 1e-8

    def test_witness_rank_stable_across_seeds(self):
        # facial reduction draws no random numbers: the witness itself is
        # the same for every seed
        u = m3_subspace()
        ranks = []
        witnesses = []
        for seed in (0, 1, 2):
            desc = analyze_cone(P_BOTTOM, u, RunConfig(seed=seed))
            w = relative_interior_point(desc)
            ranks.append(int(np.sum(np.linalg.eigvalsh(w) > 1e-8)))
            witnesses.append(w)
        assert len(set(ranks)) == 1
        assert all(np.array_equal(w, witnesses[0]) for w in witnesses)

    def test_ground_energy_zero_on_witnesses(self):
        # with id in U and p != 0, nonzero cone elements have ground energy 0
        # and ground projection equal to the kernel projection
        u = m3_subspace()
        for p in (P_BOTTOM, Projection.from_columns(3, P_PLUS_COLS)):
            desc = analyze_cone(p, u)
            w = relative_interior_point(desc)
            dec = eig_herm(hermitian_matrix(w))
            assert abs(dec.ground_energy) <= 1e-8
            assert ground_projection(hermitian_matrix(w)).same_image(
                kernel_projection(w), tol=1e-6)

    def test_antitone_in_p(self):
        rng = np.random.default_rng(22)
        for trial in range(8):
            n = 4
            u = from_spanning_set(
                [np.eye(n, dtype=complex)] + [random_hermitian(rng, n) for _ in range(3)])
            cols = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            p = Projection.from_columns(n, cols[:, :1])
            q = Projection.from_columns(n, cols)
            assert loewner_leq(p, q)
            dp = analyze_cone(p, u)
            dq = analyze_cone(q, u)
            assert dq.dim_K <= dp.dim_K
            if dq.dim_K >= 1:
                w = relative_interior_point(dq)
                # w must lie in K(p) too
                assert frobenius(p.matrix() @ w) <= 1e-7
                assert float(np.linalg.eigvalsh(w)[0]) >= -1e-8

    def test_margins_of_ground_projections_are_clear(self):
        # a ground projection p of a random a in U has a - E_0 in K(p),
        # positive definite off p: phase I ends far above PSD_TOL
        rng = np.random.default_rng(71)
        diag = build_klocal(SiteSystem.bits(3), 2)
        z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        v, _ = np.linalg.qr(z)
        u = from_spanning_set([v @ m @ v.conj().T for m in diag.basis_as_matrices()])
        for _ in range(20):
            p = ground_projection(hermitian_matrix(u.element_from(rng.normal(size=u.dim))))
            desc = analyze_cone(p, u)
            assert desc.dim_K >= 1
            assert desc.margin >= 100
        assert analyze_cone(Projection.from_support(8, {0}), diag).margin is None

    def test_lapack_failure_raises_typed_error(self, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        u = m3_subspace()
        assert linear_section(P_BOTTOM, u).dim >= 2
        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(NonConvergenceError, match="eigh"):
            analyze_cone(P_BOTTOM, u)

    @staticmethod
    def chain_space(depth, coupling, v):
        """U = span{1, E_dd, B_1, ..., B_{d-1}} on C^(d+2), conjugated by v,
        with B_j = c E_{j-1,j+1} + c* E_{j+1,j-1} + E_jj (0-based, d =
        depth).  On the range of 1 - E_{d+1,d+1}, E_00 = 0 forces the
        coefficient of B_1 to 0, which leaves E_11 = 0, and so on down the
        chain: K(p) is the ray of E_dd, and facial reduction needs depth
        cuts, the first one not strictly complementary."""
        n = depth + 2

        def unit(i, j):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            return m

        mats = [np.eye(n, dtype=complex), unit(depth, depth)]
        mats += [coupling * unit(j - 1, j + 1) + np.conj(coupling) * unit(j + 1, j - 1)
                 + unit(j, j) for j in range(1, depth)]
        u = from_spanning_set([v @ m @ v.conj().T for m in mats])
        ray = v @ unit(depth, depth) @ v.conj().T
        return u, Projection.from_columns(n, v[:, [n - 1]]), ray

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("coupling", [1.0, 1j])
    @pytest.mark.parametrize("rotation", [None, 0, 1])
    def test_face_that_takes_several_cuts(self, depth, coupling, rotation):
        # the eigenvectors at the first cut are tilted by about sqrt(mu):
        # with the cut's own tolerance the restriction emptied the section
        # (K = {0}) or kept a rank-2 witness.  The witness itself is off
        # the ray by about mu^(2^(1 - depth)) (Sturm's error bound for
        # singularity degree depth - 1), read at mu r = MU_FACE.
        n = depth + 2
        if rotation is None:
            v = np.eye(n, dtype=complex)
        else:
            rng = np.random.default_rng(rotation)
            v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        u, p, ray = self.chain_space(depth, coupling, v)
        desc = analyze_cone(p, u)
        assert desc.dim_K == 1 and desc.is_ray
        w = relative_interior_point(desc)
        assert int(np.sum(np.linalg.eigvalsh(w) > 1e-8)) == 1
        assert frobenius(w - ray) <= cone_mod.MU_FACE ** (0.5 ** (depth - 1))
        assert kernel_projection(w).rank == desc.q_max_rank == n - 1


class TestPhaseOne:
    """The start X0 = sum_k (a / |a|^2)_k c_k of phase I, the minimum-norm
    trace-one element of the section, ends it when it is positive definite
    clear of max(PSD_TOL, tol_rank); every other section runs Newton."""

    @staticmethod
    def run(monkeypatch, mats, tol_rank=1e-9):
        calls = []

        def counting(a):
            calls.append(a)
            return np.linalg.eigh(a)

        monkeypatch.setattr(cone_mod, "eigh", counting)
        c = np.array([np.diag(m) for m in mats], dtype=complex)
        a = np.einsum("kii->k", c).real
        x0 = a / (a @ a)
        start = float(np.linalg.eigvalsh(np.tensordot(x0, c, axes=1))[0])
        return cone_mod._phase_one(c, tol_rank, cone_mod.PSD_TOL), x0, start, len(calls)

    def test_indefinite_start_goes_through_newton(self, monkeypatch):
        # X0 = diag(1.0005, -5e-4) is indefinite, but the section holds
        # 500.5 diag(1, 0) + 500 diag(-1, 1e-3) = diag(1/2, 1/2): t* = 1/2
        (status, t, x, _, _), x0, start, calls = self.run(
            monkeypatch, [(1.0, 0.0), (-1.0, 1e-3)])
        assert start < 0
        assert status == "interior" and t > 0 and calls > 1
        assert abs(t - 0.5) <= 0.01

    def test_positive_definite_start_is_the_witness(self, monkeypatch):
        # X0 = diag(1/3, 2/3): t = 1/3 is returned, below t* = 1/2
        (status, t, x, _, _), x0, start, calls = self.run(
            monkeypatch, [(1.0, 2.0), (1.0, -1.0)])
        assert status == "interior" and calls == 1
        assert np.array_equal(x, x0) and t == start == pytest.approx(1 / 3)

    def test_start_below_the_rank_cutoff_goes_through_newton(self, monkeypatch):
        # lambda_min(X0) = 2e-7 clears PSD_TOL but not tol_rank = 1e-6: a
        # kernel read at tol_rank would count it, so Newton decides
        (status, t, x, _, _), x0, start, calls = self.run(
            monkeypatch, [(1.0, 2e-7), (1.0, -1.0)], tol_rank=1e-6)
        assert cone_mod.PSD_TOL < start <= 1e-6
        assert status == "interior" and calls > 1
        assert t > 1e-6 and not np.allclose(x, x0)


class TestAnalyzeConeExact:
    def test_image_basis_projection_is_an_input_error(self):
        # the exact engine reads supports only: an image basis is an input
        # error, not a failure inside the LP loop
        _, u = three_bit_two_local()
        with pytest.raises(InputError, match="support-based"):
            analyze_cone(Projection.zero(8), u)

    def test_rank_seven_support_has_trivial_cone(self):
        xs, u = three_bit_two_local()
        p = Projection.from_support(8, set(range(8)) - {3})
        desc = analyze_cone(p, u)
        assert desc.dim_K == 0

    def test_cross_pair_cone_is_ray(self):
        xs, u = three_bit_two_local()
        # complement {000, 111}: parity differs
        p = Projection.from_support(8, set(range(8)) - {0, 7})
        desc = analyze_cone(p, u)
        assert desc.dim_K == 1 and desc.is_ray
        w = relative_interior_point(desc)
        assert w[0] == w[7] == Fraction(1, 2)
        assert all(w[i] == 0 for i in range(8) if i not in (0, 7))

    def test_equal_parity_pair_cone_is_trivial(self):
        xs, u = three_bit_two_local()
        # {000, 011} have equal parity
        p = Projection.from_support(8, set(range(8)) - {0, 3})
        desc = analyze_cone(p, u)
        assert desc.dim_K == 0

    def test_exact_dim_matches_float_dim_on_diagonal_embedding(self):
        xs, u = three_bit_two_local()
        for support in ({0, 7}, {0, 3}, {0, 1, 2, 7}):
            p_exact = Projection.from_support(8, set(range(8)) - support)
            d_exact = analyze_cone(p_exact, u)
            u_float = from_spanning_set(
                [np.diag([float(v) for v in b]).astype(complex) for b in u.basis])
            cols = np.eye(8, dtype=complex)[:, sorted(set(range(8)) - support)]
            p_float = Projection.from_columns(8, cols)
            d_float = analyze_cone(p_float, u_float)
            assert d_exact.dim_K == d_float.dim_K

    def test_antitone_exact(self):
        xs, u = three_bit_two_local()
        small = Projection.from_support(8, {1})
        large = Projection.from_support(8, {1, 2, 4})
        d_small = analyze_cone(small, u)
        d_large = analyze_cone(large, u)
        assert d_large.dim_K <= d_small.dim_K
        w = relative_interior_point(d_large)
        # the witness of the larger projection lies in the smaller cone
        assert w[1] == 0 and all(v >= 0 for v in w)

    @pytest.mark.parametrize("case", [1, 2, "rational", "four-bit"])
    def test_matches_double_description_oracle_on_every_support(self, case):
        # oracle: complete extreme-ray enumeration of each cone over row
        # subsets, not the max-support LPs; on every support of bits:N=3
        # for k = 1, 2, and of the random subspaces of brute_force_members,
        # where U⊥ has rows that are not integral in the rational basis (a 1
        # at the free column), so the LPs and the witness see scaled rows;
        # and on 30 supports of size 5-12 of bits:N=4:k=2, where U⊥ has
        # five rows and the LPs re-optimized on one tableau take more pivots
        if case == "rational":
            rng = np.random.default_rng(43)
            spaces = [random_rational_subspace(rng, int(rng.integers(4, 7)),
                                               int(rng.integers(1, 4))) for _ in range(8)]
            # row j of perp is positive at the j-th free column of the basis
            free = [sorted(set(range(u.ambient_n)) - set(rational_rref(u.basis)[1])) for u in spaces]
            assert any(w[f] > 1 for u, fs in zip(spaces, free) for w, f in zip(u.perp, fs))
            cases = [(u, range(2 ** u.ambient_n)) for u in spaces]
        elif case == "four-bit":
            rng = np.random.default_rng(47)
            masks = [sum(1 << int(x) for x in rng.choice(16, int(rng.integers(5, 13)),
                                                         replace=False)) for _ in range(30)]
            cases = [(build_klocal(SiteSystem.bits(4), 2), masks)]
            assert len(cases[0][0].perp) == 5
        else:
            cases = [(build_klocal(SiteSystem.bits(3), case), range(2 ** 8))]
        for u, masks in cases:
            n = u.ambient_n
            for mask in masks:
                support = {x for x in range(n) if mask >> x & 1}
                desc = analyze_cone(Projection.from_support(n, support), u)
                rays = cone_rays(support, u)
                assert desc.dim_K == (ela.rank(rays) if rays else 0)
                assert desc.witness_support == frozenset(
                    x for r in rays for x in range(n) if r[x] != 0)
                if desc.dim_K:
                    w = desc.interior_witness
                    assert {x for x in range(n) if w[x] != 0} == desc.witness_support
                    assert all(v >= 0 for v in w) and project_onto(w, u) == w

    def test_five_bit_cones_are_faces_of_the_bottom_cone(self):
        # K(p) is the face of K(0) where g = 0 on p, so its rays are the rays
        # of K(0) supported inside the complement C of p: q_max(p) is the
        # complement of the union R of their supports, p is a member when
        # R = C, and dim K(p) is their rank.  bits:N=5:k=2 has 16 rows in
        # U-perp, a tableau no other test reaches.
        u = build_klocal(SiteSystem.bits(5), 2)
        n = u.ambient_n
        rays = cone_mod.integer_rays(analyze_cone(Projection.zero(n, commutative=True), u))
        assert len(rays) == 368 and len(u.perp) == 16
        masks = [sum(1 << x for x in range(n) if g[x]) for g in rays]
        full = (1 << n) - 1
        rng = np.random.default_rng(61)
        supports = [int(m) for m in rng.integers(0, 1 << n, 100)]
        supports += [sum(1 << int(x) for x in rng.choice(n, int(rng.integers(1, 12)),
                                                         replace=False)) for _ in range(60)]
        for t in range(140):    # meets of 1-4 coatoms, every other one less a point
            meet = full
            for i in rng.choice(len(masks), int(rng.integers(1, 5)), replace=False):
                meet &= full ^ masks[i]
            if t % 2 and meet:
                meet &= ~(1 << int(rng.choice([x for x in range(n) if meet >> x & 1])))
            supports.append(meet)
        mismatches, members, coatoms = [], 0, 0
        for mask in supports:
            complement = full ^ mask
            inside = [(g, m) for g, m in zip(rays, masks) if m & complement == m]
            reached = 0
            for _, m in inside:
                reached |= m
            rank = np.linalg.matrix_rank(np.array([g for g, _ in inside], dtype=float)) \
                if inside else 0
            expected = (reached == complement, n - reached.bit_count(), int(rank))
            desc = analyze_cone(support_of(mask, n), u)
            if (desc.member, desc.q_max_rank, desc.dim_K) != expected:
                mismatches.append(mask)
            members += expected[0]
            coatoms += expected[0] and rank == 1
            if desc.dim_K:
                # a member's max-min LP ends at t > 0 (its support is all of
                # the complement); the witness of a non-member here is mostly
                # the mean of a max-min optimizer at t = 0 and the optimizers
                # of the max-support loop after it
                w = desc.interior_witness
                assert {x for x in range(n) if w[x] != 0} == \
                    {x for x in range(n) if w[x] > 0} == desc.witness_support
                assert sum(w) == 1 and all(ela.dot(row, w) == 0 for row in u.perp)
        assert mismatches == []
        assert members >= 100 and coatoms >= 10 and len(supports) - members >= 100

    def test_lp_failure_raises_typed_error(self, monkeypatch):
        xs, u = three_bit_two_local()
        monkeypatch.setattr(ela.Tableau, "maximize",
                            lambda *args: (ela.SimplexStatus.UNBOUNDED, None, None))
        with pytest.raises(GroundLatticeError, match="unbounded"):
            analyze_cone(Projection.from_support(8, {1}), u)

    def test_generator_without_positive_trace_raises_typed_error(self):
        with pytest.raises(GroundLatticeError, match="trace"):
            cone_mod._unit_trace_exact([Fraction(1), Fraction(-1)])


def bit_spaces_and_supports():
    """All 256 supports of bits:N=3:k=2 and 200 seeded ones of bits:N=4:k=2."""
    rng = np.random.default_rng(20)
    return [(build_klocal(SiteSystem.bits(3), 2), range(256)),
            (build_klocal(SiteSystem.bits(4), 2), [int(m) for m in rng.integers(0, 2 ** 16, 200)])]


def support_of(mask, n):
    return Projection.from_support(n, [x for x in range(n) if mask >> x & 1])


class TestLazyDescriptor:
    """dim_K, span_basis and interior_witness are computed on first read."""

    def test_decisions_build_no_span(self, monkeypatch):
        cases = [(u, [support_of(m, u.ambient_n) for m in masks])
                 for u, masks in bit_spaces_and_supports()]
        expected = [[(is_ground_projection(p, u), is_coatom(p, u)) for p in ps] for u, ps in cases]
        assert any(coatom for answers in expected for _, coatom in answers)

        def refuse(*args, **kwargs):
            raise AssertionError("a decision built a span")

        # u.perp is computed and kept by now; nothing else may build a null space
        for owner in (subspace_mod, cone_mod):
            monkeypatch.setattr(owner, "supported_on", refuse)
        monkeypatch.setattr(ela, "null_space", refuse)
        assert [[(is_ground_projection(p, u), is_coatom(p, u)) for p in ps]
                for u, ps in cases] == expected

    def test_cones_run_one_max_min_lp(self, monkeypatch):
        # sign cuts by vectors of U-perp decide every K(p) = {0} of
        # bits:N=3:k=2 with no tableau, and one max-min LP every other cone;
        # on bits:N=4:k=2 some max-min optimum is 0, and the points of
        # negative reduced cost in its dual row drop: the max-support loop
        # after it leaves them out of its objective, and does not run when
        # they and the points hit are all of the columns
        built, runs, drops = [], [], []
        settled = {}    # tableau -> columns hit or dropped by a max-min optimum of 0
        init, maximize = ela.Tableau.__init__, ela.Tableau.maximize

        def counted_init(self, *args):
            built.append(self)
            init(self, *args)

        def counted_maximize(self, c):
            if self in settled:
                known = settled.pop(self)
                assert [j for j in range(len(c) - 1) if c[j]] == \
                    [j for j in range(len(c) - 1) if j not in known]
            out = maximize(self, c)
            if self not in runs and out[0] == ela.SimplexStatus.OPTIMAL and out[1][-1] == 0:
                dropped = {j for j, d in enumerate(self.obj[:len(c) - 1]) if d < 0}
                hit = {j for j, v in enumerate(out[1][:-1]) if v > 0}
                assert dropped and not dropped & hit
                drops.append(len(dropped))
                settled[self] = dropped | hit
            runs.append(self)
            return out

        monkeypatch.setattr(ela.Tableau, "__init__", counted_init)
        monkeypatch.setattr(ela.Tableau, "maximize", counted_maximize)
        (u3, masks3), (u4, masks4) = bit_spaces_and_supports()
        trivial = 0
        for mask in masks3:
            built.clear()
            runs.clear()
            desc = analyze_cone(support_of(mask, 8), u3)
            assert (len(built), len(runs)) == ((1, 1) if desc.dim_K else (0, 0))
            trivial += not desc.dim_K
        assert trivial >= 30 and not drops
        for mask in masks4:
            runs.clear()
            analyze_cone(support_of(mask, 16), u4)
            # a loop that did not run had nothing left to find
            assert all(len(known) == len(t.obj) - 2 for t, known in settled.items())
            settled.clear()
        assert len(drops) >= 1

    def test_exact_dim_k_span_and_witness(self):
        for u, masks in bit_spaces_and_supports():
            n = u.ambient_n
            for mask in masks:
                desc = analyze_cone(support_of(mask, n), u)
                assert not {"dim_K", "span_basis", "interior_witness"} & set(vars(desc))
                dim = desc.dim_K        # read before the span exists
                assert dim == len(desc.span_basis) and desc.span_basis is desc.span_basis
                w = desc.interior_witness
                if not dim:
                    assert w is None and desc.witness_support == frozenset()
                    continue
                assert {x for x in range(n) if w[x] != 0} == \
                    {x for x in range(n) if w[x] > 0} == desc.witness_support
                assert sum(w) == 1 and all(ela.dot(row, w) == 0 for row in u.perp)

    def test_float_dim_k_is_the_span_length(self):
        exact = build_klocal(SiteSystem.bits(3), 2)
        for seed in (1, 2):
            z = np.random.default_rng(seed).normal(size=(2, 8, 8))
            q, r = np.linalg.qr(z[0] + 1j * z[1])
            v = q * (np.diag(r) / np.abs(np.diag(r)))
            u = from_spanning_set([v @ m @ v.conj().T for m in exact.basis_as_matrices()])
            dims = []
            for mask in range(256):
                cols = v[:, [x for x in range(8) if mask >> x & 1]]
                desc = analyze_cone(Projection(n=8, image_basis=cols), u)
                dims.append(desc.dim_K)
                assert dims[-1] == len(desc.span_basis)
                assert (desc.interior_witness is None) == (dims[-1] == 0)
            assert dims == [analyze_cone(support_of(m, 8), exact).dim_K for m in range(256)]


class TestExtremeRays:
    def test_m3_bottom_rays_are_u_plus_and_u_minus(self):
        u = m3_subspace()
        desc = analyze_cone(P_BOTTOM, u)
        rays = extreme_rays(desc)
        assert len(rays) == 2
        targets = [U_PLUS / np.trace(U_PLUS).real, U_MINUS / np.trace(U_MINUS).real]
        for t in targets:
            assert min(frobenius(r - t) for r in rays) <= 1e-6
        # ray generators share the witness laws: ground energy 0, ground
        # projection equal to the kernel projection
        for r in rays:
            dec = eig_herm(hermitian_matrix(r))
            assert abs(dec.ground_energy) <= 1e-8
            assert ground_projection(hermitian_matrix(r)).same_image(
                kernel_projection(r), tol=1e-6)

    def test_ray_cone_returns_single_generator(self):
        u = m3_subspace()
        p_plus = Projection.from_columns(3, P_PLUS_COLS)
        desc = analyze_cone(p_plus, u)
        rays = extreme_rays(desc)
        assert len(rays) == 1
        assert frobenius(rays[0] - U_PLUS / np.trace(U_PLUS).real) <= 1e-7

    def test_float_rays_of_seven_dimensional_cone(self):
        # the diagonal embedding of bits:N=3:k=2 at p = 0 has dim K = 7;
        # the exact reading (extreme_rays) and the face descents each give
        # rays that span it, each the generator of an exact coatom's ray cone
        _, exact = three_bit_two_local()
        u = from_spanning_set(exact.basis_as_matrices())
        desc = analyze_cone(Projection.zero(8), u)
        assert desc.dim_K == 7
        for rays in (extreme_rays(desc), cone_mod._extreme_rays_float(desc, RunConfig())):
            assert len(rays) == 7
            assert np.linalg.matrix_rank(np.stack([r.reshape(-1) for r in rays]), tol=1e-8) == 7
            for r in rays:
                assert np.allclose(r, np.diag(np.diag(r)), atol=1e-9)
                support = {x for x in range(8) if r[x, x].real <= 1e-9}
                assert is_coatom(Projection.from_support(8, support), exact), sorted(support)

    def test_three_bit_two_edge_cone_rays_match_bipartite_edges(self):
        xs, u = three_bit_two_local()
        # complement {000, 111, 011, 100}: two + and two - parities
        comp = {0, 7, 3, 4}
        p = Projection.from_support(8, set(range(8)) - comp)
        desc = analyze_cone(p, u)
        assert desc.dim_K == 3
        rays = extreme_rays(desc)
        # brute-force oracle: cross-parity pairs inside the complement
        expected = []
        for a in sorted(comp):
            for b in sorted(comp):
                if a < b and parity(xs[a]) != parity(xs[b]):
                    g = [Fraction(0)] * 8
                    g[a] = g[b] = Fraction(1, 2)
                    expected.append(tuple(g))
        assert sorted(tuple(r) for r in rays) == sorted(expected)
        assert len(rays) == 4
        # exactly dim_K of them are linearly independent
        from groundlattice import exactla as ela
        assert ela.rank([list(r) for r in rays]) == 3

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_rays_match_bruteforce_oracle_on_every_support(self, k):
        # the oracle solves a null space per (d-1)-subset of the rows; the
        # production route is incremental double description
        u = build_klocal(SiteSystem.bits(3), k)
        for mask in range(256):
            support = {x for x in range(8) if mask >> x & 1}
            desc = analyze_cone(Projection.from_support(8, support), u)
            expected = sorted(cone_rays(support, u))
            assert (extreme_rays(desc) if desc.dim_K else []) == expected, sorted(support)

    def test_exact_rays_match_bruteforce_oracle_on_random_subspaces(self):
        from bruteforce_oracle import brute_force_members
        rng = np.random.default_rng(83)
        for _ in range(12):
            u, _ = brute_force_members(rng, int(rng.integers(3, 7)), int(rng.integers(1, 4)))
            n = u.ambient_n
            for mask in range(2 ** n):
                support = {x for x in range(n) if mask >> x & 1}
                desc = analyze_cone(Projection.from_support(n, support), u)
                expected = sorted(cone_rays(support, u))
                assert (extreme_rays(desc) if desc.dim_K else []) == expected, sorted(support)

    def test_float_dim_three_cone_via_diagonal_embedding(self):
        # same instance as above, pushed through the float engine: by the
        # exact reading (extreme_rays) and by the face descents alike
        xs, u = three_bit_two_local()
        u_float = from_spanning_set(
            [np.diag([float(v) for v in b]).astype(complex) for b in u.basis])
        comp = {0, 7, 3, 4}
        cols = np.eye(8, dtype=complex)[:, sorted(set(range(8)) - comp)]
        p = Projection.from_columns(8, cols)
        desc = analyze_cone(p, u_float)
        assert desc.dim_K == 3
        expected = []
        for a in sorted(comp):
            for b in sorted(comp):
                if a < b and parity(xs[a]) != parity(xs[b]):
                    g = np.zeros(8)
                    g[a] = g[b] = 0.5
                    expected.append(np.diag(g).astype(complex))
        for rays in (extreme_rays(desc), cone_mod._extreme_rays_float(desc, RunConfig())):
            assert len(rays) == 3
            for r in rays:
                assert min(frobenius(r - e) for e in expected) <= 1e-6
