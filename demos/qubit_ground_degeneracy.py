"""Ground-space degeneracy of 2-local 3-qubit Hamiltonians: evidence runs.

Random 2-local Hamiltonians on three qubits generically have a simple
ground space, yet constructed instances reach multiplicity four (the sum
of two-site swaps).  Whether multiplicity seven is reachable is decided
elsewhere by exact algebraic methods and is out of reach at desk scale;
this script only gathers randomized-search evidence and makes no proof
claim: a descent that drives the seven lowest eigenvalues toward a common
value stalls far from zero from every start.
"""

import numpy as np

from groundlattice import RunConfig, SiteSystem, build_klocal, eig_herm, ground_projection
from groundlattice.cone import analyze_cone
from groundlattice.manybody import embed_on_sites

sys3 = SiteSystem.qubits(3)
u = build_klocal(sys3, 2)
print(f"three qubits, 2-local: dim U = {u.dim}")

# 1. random draws: ground multiplicity histogram (generically 1)
rng = np.random.default_rng(0)
counts: dict[int, int] = {}
for _ in range(500):
    a = u.element_from(rng.normal(size=u.dim))
    dec = eig_herm(a, 1e-7)
    mult = dec.groups[0][1] - dec.groups[0][0]
    counts[mult] = counts.get(mult, 0) + 1
print(f"\nground multiplicity over 500 random draws: {dict(sorted(counts.items()))}")

# 2. a constructed degenerate instance: minus the sum of two-site swaps
#    has the four-dimensional symmetric subspace as its ground space
swap = np.zeros((4, 4), dtype=complex)
for i in range(2):
    for j in range(2):
        swap[2 * j + i, 2 * i + j] = 1.0
h = -sum(embed_on_sites(sys3, swap, kept) for kept in [(0, 1), (0, 2), (1, 2)])
dec = eig_herm(h)
mult = dec.groups[0][1] - dec.groups[0][0]
print(f"\nswap-sum Hamiltonian: ground energy {dec.ground_energy:.1f}, "
      f"multiplicity {mult}")

cfg = RunConfig(seed=0)
p_sym = ground_projection(h)
desc = analyze_cone(p_sym, u, cfg)
print(f"symmetric-subspace projection: member = {desc.member}, dim K = {desc.dim_K} "
      f"(> 1, so it is not a coatom; it is a meet of {desc.dim_K} coatoms)")

# 3. directed search for multiplicity seven: minimize the spread of the
#    seven lowest eigenvalues over unit-norm traceless elements of U
basis_stack = np.stack(u.basis)
traces = np.array([float(np.trace(b).real) for b in u.basis])
id_coeff = traces / np.linalg.norm(traces)


def project_tangent(c):
    c = c - np.dot(id_coeff, c) * id_coeff
    return c / np.linalg.norm(c)


def defect_and_grad(c):
    a = np.tensordot(c, basis_stack, axes=1)
    lam, vecs = np.linalg.eigh(a)
    low, v_low = lam[:7], vecs[:, :7]
    centered = low - low.mean()
    value = float(np.sum(centered ** 2))
    # d lambda_i / d c_k = <v_i | B_k | v_i>
    sens = np.einsum("ai,kab,bi->ki", v_low.conj(), basis_stack, v_low).real
    grad = 2.0 * sens @ centered
    return value, grad


best = np.inf
for restart in range(8):
    c = project_tangent(rng.normal(size=u.dim))
    value, grad = defect_and_grad(c)
    step = 0.5
    for _ in range(300):
        tangent = grad - np.dot(grad, c) * c
        tangent = tangent - np.dot(id_coeff, tangent) * id_coeff
        trial = project_tangent(c - step * tangent)
        t_value, t_grad = defect_and_grad(trial)
        if t_value < value:
            c, value, grad = trial, t_value, t_grad
            step = min(step * 1.2, 1.0)
        else:
            step *= 0.5
            if step < 1e-12:
                break
    print(f"restart {restart}: residual spread of the 7 lowest eigenvalues "
          f"= {value:.3e}")
    best = min(best, value)

print(f"\nbest defect over all restarts: {best:.3e}")
print("(a multiplicity-7 ground space would give 0; stalling well above 0 is "
      "evidence only, not a proof)")
