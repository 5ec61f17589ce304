"""Run configuration validation and derived random streams."""

import numpy as np
import pytest

from groundlattice.config import RunConfig
from groundlattice.errors import InputError


def test_defaults():
    cfg = RunConfig()
    assert cfg.tol_rank == 1e-9
    assert cfg.samples == 10_000
    assert cfg.max_nodes == 100_000


def test_positive_tolerances_enforced():
    with pytest.raises(InputError):
        RunConfig(tol_rank=0.0)
    with pytest.raises(InputError):
        RunConfig(tol_rank=-1e-9)


def test_split_streams_are_stable_and_independent():
    cfg = RunConfig(seed=42)
    a1 = cfg.rng_for(1, 0).normal(size=4)
    a2 = RunConfig(seed=42).rng_for(1, 0).normal(size=4)
    b = cfg.rng_for(1, 1).normal(size=4)
    assert np.allclose(a1, a2)
    assert not np.allclose(a1, b)

