"""Walk through the rank-three example: one subspace of M_3, its whole story.

The subspace U is spanned by the identity, sigma_X (+) 2, and sigma_Y (+) 0.
Its ground projections form a lattice with a continuous family of rank-one
coatoms, two special rank-two coatoms, and a single rank-one element below
them.  We reproduce each piece numerically.
"""

import numpy as np

from groundlattice import (
    RunConfig,
    analyze_cone,
    coatom_decomposition,
    extreme_rays,
    ground_projection,
    image_intersection,
    is_coatom,
    is_ground_projection,
    q_max,
    relative_interior_point,
)
from groundlattice.fixtures import (
    U_MINUS,
    U_PLUS,
    m3_p_bottom,
    m3_p_minus,
    m3_p_plus,
    m3_subspace,
)

cfg = RunConfig(seed=0)
u = m3_subspace()
print(f"ambient dimension: {u.ambient_n}, dim U = {u.dim}, "
      f"contains identity: {u.contains_identity}")

# A generic element of U has a rank-one ground projection.
rng = np.random.default_rng(0)
a = u.element_from(rng.normal(size=3))
p0 = ground_projection(a)
print(f"\nrandom element: ground projection rank {p0.rank}")
print(f"  is it a lattice member (it must be)? {is_ground_projection(p0, u, cfg)}")
print(f"  is it a coatom? {is_coatom(p0, u, cfg)}")

# The two special rank-two coatoms p_plus and p_minus.
p_plus, p_minus = m3_p_plus(), m3_p_minus()
for name, p in (("p_plus", p_plus), ("p_minus", p_minus)):
    desc = analyze_cone(p, u, cfg)
    print(f"\n{name}: rank {p.rank}, dim K = {desc.dim_K}, ray: {desc.is_ray}")
    print(f"  coatom: {is_coatom(p, u, cfg)}")

# Below both sits the rank-one projection 0 (+) 1, whose cone is a wedge.
bottom = m3_p_bottom()
desc = analyze_cone(bottom, u, cfg)
print(f"\nbottom 0(+)1: dim K = {desc.dim_K} (a two-dimensional wedge)")
witness = relative_interior_point(desc)
print(f"  witness eigenvalues: {np.round(np.linalg.eigvalsh(witness), 6)}")

rays = extreme_rays(desc, cfg)
targets = {"u_plus": U_PLUS / np.trace(U_PLUS).real,
           "u_minus": U_MINUS / np.trace(U_MINUS).real}
for name, t in targets.items():
    err = min(np.linalg.norm(r - t) for r in rays)
    print(f"  extreme ray matches {name} up to scaling: error {err:.2e}")

# The coatom decomposition recovers p_plus and p_minus, and their meet
# is the bottom projection again.
parts = coatom_decomposition(bottom, u, cfg)
meet = image_intersection(parts[0], parts[1])
print(f"\ndecomposition of 0(+)1 into {len(parts)} coatoms; "
      f"meet equals 0(+)1: {meet.same_image(bottom, tol=1e-7)}")

# A projection that is NOT a ground projection: the span of e1, e2.  Its
# cone is trivial, so q_max returns the identity and membership fails.
from groundlattice import Projection

span_e1_e2 = Projection.from_columns(3, np.eye(3, dtype=complex)[:, :2])
greatest = q_max(span_e1_e2, u, cfg)
print(f"\nspan(e1, e2): q_max has rank {greatest.rank} (the identity), so "
      f"member = {is_ground_projection(span_e1_e2, u, cfg)}")
