"""Lattices of ground projections of hermitian-matrix subspaces.

The library decides whether a projection is the ground projection of some
element of a subspace U (greatest-element test on the operator cone K(p)),
detects coatoms (ray cones), builds the full lattice top-down from coatom
intersections, and provides builders for k-local Hamiltonian spaces and
classical/quantum marginals.  Two engines: exact rational arithmetic over
finite configuration spaces, and floating hermitian matrices.
"""

from .config import RunConfig
from .cone import ConeDescriptor, analyze_cone, extreme_rays, relative_interior_point
from .errors import (
    GroundLatticeError,
    IncompleteRaysError,
    InputError,
    NodeBudgetError,
    NonConvergenceError,
    PreconditionError,
    TrivialConeError,
    UnsupportedConfigurationError,
)
from .lattice import (
    GroundLattice,
    build_lattice,
    coatom_decomposition,
    enumerate_coatoms,
    is_coatom,
    is_ground_projection,
    q_max,
)
from .linalg import (
    EigDecomposition,
    Projection,
    eig_herm,
    ground_projection,
    hermitian_matrix,
    image_intersection,
    kernel_projection,
    loewner_leq,
)
from .manybody import (
    MarginalTuple,
    SiteSystem,
    build_klocal,
    ff_lattice_3bit,
    marginal_map,
    marginal_polytope_vertices,
    partial_trace,
)
from .subspace import (
    LinearSection,
    OperatorSubspace,
    from_spanning_set,
    linear_section,
    project_onto,
)

__version__ = "0.1.0"

__all__ = [
    "ConeDescriptor",
    "EigDecomposition",
    "GroundLattice",
    "GroundLatticeError",
    "IncompleteRaysError",
    "InputError",
    "LinearSection",
    "MarginalTuple",
    "NodeBudgetError",
    "NonConvergenceError",
    "OperatorSubspace",
    "PreconditionError",
    "Projection",
    "RunConfig",
    "SiteSystem",
    "TrivialConeError",
    "UnsupportedConfigurationError",
    "analyze_cone",
    "build_klocal",
    "build_lattice",
    "coatom_decomposition",
    "eig_herm",
    "enumerate_coatoms",
    "extreme_rays",
    "ff_lattice_3bit",
    "from_spanning_set",
    "ground_projection",
    "hermitian_matrix",
    "image_intersection",
    "is_coatom",
    "is_ground_projection",
    "kernel_projection",
    "linear_section",
    "loewner_leq",
    "marginal_map",
    "marginal_polytope_vertices",
    "partial_trace",
    "project_onto",
    "q_max",
    "relative_interior_point",
]
