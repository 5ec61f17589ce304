"""Run configuration shared by the cone, lattice, and CLI layers."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError

#: Default tolerance used when an operation is called without a config.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class RunConfig:
    """All knobs that influence a computation, bundled for reproducibility.

    ``seed`` feeds a splittable generator (numpy ``SeedSequence``); every
    random restart draws from its own spawned stream, so results do not
    depend on evaluation order.
    """

    seed: int = 0
    tol_spec: float = DEFAULT_TOL    # eigenvalue degeneracy grouping
    tol_rank: float = DEFAULT_TOL    # singular-value / rank cutoff
    samples: int = 10_000            # sampled coatom enumeration draws
    restarts: int = 20               # consecutive failures before the cone search stops
    max_nodes: int = 100_000         # lattice closure budget
    max_ray_dim: int = 4             # float-engine extreme-ray search limit
    engine: str = "float"

    def __post_init__(self):
        for name in ("tol_spec", "tol_rank"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be strictly positive", field=name)
        if self.engine not in ("float", "exact"):
            raise InputError("engine must be 'float' or 'exact'", field="engine")

    def with_(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def rng_for(self, *key: int) -> np.random.Generator:
        """Independent generator for a named sub-task of this run."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))
