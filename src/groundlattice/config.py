"""Run configuration shared by the cone, lattice, and CLI layers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

#: Default tolerance used when an operation is called without a config.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class RunConfig:
    """All knobs that influence a computation, bundled for reproducibility.

    ``seed`` feeds a splittable generator (numpy ``SeedSequence``) for the
    random directions of the float face descents: stream (2, t) for
    descent t of an extreme-ray search, stream (3, t) for descent t of the
    float coatom enumeration.  Each descent draws from its own spawned
    stream, so results do not depend on evaluation order.  The cone
    analysis itself (facial reduction) uses no randomness.
    """

    seed: int = 0
    tol_rank: float = DEFAULT_TOL    # singular-value / rank cutoff
    samples: int = 10_000            # face descents of float coatom enumeration
    max_nodes: int = 100_000         # lattice closure budget

    def __post_init__(self):
        if self.tol_rank <= 0:
            raise InputError("tol_rank must be strictly positive", field="tol_rank")

    def rng_for(self, *key: int) -> np.random.Generator:
        """Independent generator for a named sub-task of this run."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))
