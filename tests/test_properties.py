"""Property tests: membership and dim K(p) do not depend on how U and p are given."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from groundlattice.cone import analyze_cone
from groundlattice.lattice import is_ground_projection
from groundlattice.linalg import Projection
from groundlattice.manybody import SiteSystem, build_klocal
from groundlattice.subspace import ENGINE_EXACT, from_spanning_set

EXACT = build_klocal(SiteSystem.bits(3), 2)
DIAGONALS = EXACT.basis_as_matrices()


def haar_unitary(seed: int, n: int) -> np.ndarray:
    z = np.random.default_rng(seed).normal(size=(2, n, n))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    return q * (np.diag(r) / np.abs(np.diag(r)))


def decided(p, u):
    return is_ground_projection(p, u), analyze_cone(p, u).dim_K


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(mask=st.integers(0, 255),
       scales=st.lists(st.floats(0.1, 10.0), min_size=len(DIAGONALS), max_size=len(DIAGONALS)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_membership_and_dim_k_survive_scaling_and_conjugation(mask, scales, seed):
    # the float engine on bits:N=3:k=2 with its spanning set scaled, and with
    # U and p conjugated by a Haar unitary, agrees with the exact engine
    support = [x for x in range(8) if mask >> x & 1]
    p = Projection.from_support(8, support)
    expected = decided(p, EXACT)
    scaled = from_spanning_set([c * m for c, m in zip(scales, DIAGONALS)])
    assert decided(Projection(n=8, image_basis=np.eye(8, dtype=complex)[:, support]),
                   scaled) == expected
    v = haar_unitary(seed, 8)
    rotated = from_spanning_set([c * v @ m @ v.conj().T for c, m in zip(scales, DIAGONALS)])
    assert decided(Projection(n=8, image_basis=v[:, support]), rotated) == expected


RATIONALS = st.fractions(-3, 3, max_denominator=4)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(mask=st.integers(0, 255), order=st.permutations(range(len(EXACT.basis))),
       lower=st.lists(RATIONALS, min_size=21, max_size=21),
       diagonal=st.lists(RATIONALS.filter(bool), min_size=7, max_size=7))
def test_exact_engine_survives_rational_recombination(mask, order, lower, diagonal):
    # row i of the spanning set is diagonal[i] b_order[i] plus a rational
    # combination of the b_order[j], j < i: an invertible recombination of
    # the basis of bits:N=3:k=2, which must give the same U, stored as a
    # pairwise-orthogonal basis of primitive ints
    basis = [EXACT.basis[i] for i in order]
    entries = iter(lower)
    rows = []
    for i, (d, b) in enumerate(zip(diagonal, basis)):
        row = [d * x for x in b]
        for bj, c in zip(basis[:i], entries):
            row = [x + c * y for x, y in zip(row, bj)]
        rows.append(row)
    u = from_spanning_set(rows, engine=ENGINE_EXACT, config_dims=(2, 2, 2))
    assert u.dim == 7 and u.contains_identity
    assert all(type(x) is int for v in u.basis for x in v)
    assert all(math.gcd(*v) == 1 for v in u.basis)
    assert all(sum(x * y for x, y in zip(a, b)) == 0
               for i, a in enumerate(u.basis) for b in u.basis[:i])
    assert u.perp == EXACT.perp
    p = Projection.from_support(8, [x for x in range(8) if mask >> x & 1])
    assert decided(p, u) == decided(p, EXACT)
