"""The complete ground-projection lattice of 2-local 3-bit Hamiltonians.

Everything here is exact rational arithmetic: the subspace U_(2) of
functions on {0,1}^3 spanned by at-most-2-local terms, its 16 coatoms,
the membership strata, the dual-lattice counts, and the f-vector of the
marginal polytope whose face lattice the ground lattice is.
"""

from itertools import combinations

from groundlattice import Projection, build_lattice, enumerate_coatoms, is_ground_projection
from groundlattice.fixtures import (
    bipartite_edges,
    parity_classes,
    three_bit_configurations,
    three_bit_system,
    three_bit_two_local,
)
from groundlattice.jsonio import lattice_to_dot
from groundlattice.manybody import affine_dimension, marginal_polytope_vertices

u = three_bit_two_local()
print(f"dim U_(2) = {u.dim} over {u.ambient_n} configurations")

confs = three_bit_configurations()
plus, minus = parity_classes()
print(f"parity classes: +1 -> {sorted(confs[i] for i in plus)}")
print(f"                -1 -> {sorted(confs[i] for i in minus)}")

# The 16 coatoms: complements are exactly the cross-parity pairs, i.e. the
# edges of the complete bipartite graph between the parity classes.
coatoms, flag = enumerate_coatoms(u)
print(f"\ncoatoms ({flag}): {len(coatoms)}")
edges = {frozenset(range(8)) - p.classical_support for p in coatoms}
assert edges == set(bipartite_edges())
for p in coatoms[:4]:
    comp = sorted(frozenset(range(8)) - p.classical_support)
    print(f"  rank-6 coatom, complement {[confs[i] for i in comp]}")
print("  ...")

# Membership strata: every support of size <= 3 is a ground set; no
# size-7 support is; sizes 4-6 are mixed.
print("\nmembership counts by support size:")
for size in range(9):
    total = 0
    members = 0
    for sub in combinations(range(8), size):
        total += 1
        if is_ground_projection(Projection.from_support(8, sub), u):
            members += 1
    print(f"  |p| = {size}: {members:3d} of {total:3d}")

# The full lattice, built top-down by intersecting coatoms.
lattice = build_lattice(u)
print(f"\nlattice: {lattice.node_count} nodes, {len(lattice.hasse_edges)} covers, "
      f"{len(lattice.coatoms)} coatoms, completeness={lattice.completeness_flag}")

# The lattice is the face lattice of the marginal polytope: the node with
# support S is the face conv{m(x) : x in S}.  Face dimensions come from the
# marginal vectors alone, so the count is independent of the cone code.
verts = marginal_polytope_vertices(three_bit_system(), 2)
f_vector = [0] * u.dim                  # faces of dimension 0 .. dim U - 1
for p in lattice.nodes:
    face_dim = affine_dimension([verts[x] for x in sorted(p.classical_support)])
    if face_dim >= 0:                   # the zero projection is the empty face
        f_vector[face_dim] += 1
euler = sum((-1) ** i * f for i, f in enumerate(f_vector))
print(f"f-vector of the marginal polytope: {tuple(f_vector)}")
print(f"Euler-Poincare: sum (-1)^i f_i = {euler} (1 for a polytope, itself included)")
assert tuple(f_vector) == (8, 28, 56, 68, 48, 16, 1) and euler == 1

dot = lattice_to_dot(lattice)
print(f"DOT export: {len(dot.splitlines())} lines (pipe to `dot -Tsvg` to draw)")
