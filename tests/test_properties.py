"""Property tests: membership and dim K(p) do not depend on how U and p are given."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from groundlattice.cone import analyze_cone
from groundlattice.lattice import is_ground_projection
from groundlattice.linalg import Projection
from groundlattice.manybody import SiteSystem, build_klocal
from groundlattice.subspace import from_spanning_set

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
