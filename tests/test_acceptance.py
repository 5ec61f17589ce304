"""Acceptance suite: each fixture's ``verify`` checks and two property suites.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import functools
import time

import numpy as np
import pytest

from bruteforce_oracle import brute_force_members
from groundlattice.config import RunConfig
from groundlattice.cone import analyze_cone
from groundlattice.fixtures import CHECKS
from groundlattice.lattice import is_ground_projection, q_max, q_max_from_descriptor
from groundlattice.linalg import Projection, ground_projection, hermitian_matrix, loewner_leq
from groundlattice.subspace import from_spanning_set


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


#: wall-clock bounds in seconds on a fixture's whole check list
TIME_LIMIT_S = {"m3": 5.0, "3bit": 10.0}


@functools.lru_cache(maxsize=None)
def run_checks(fixture: str) -> tuple[list, float]:
    """A fixture's check list and its wall-clock seconds, computed once per session."""
    started = time.perf_counter()
    checks = CHECKS[fixture](RunConfig())
    return checks, time.perf_counter() - started


def report_time(fixture: str, elapsed: float) -> None:
    if fixture in TIME_LIMIT_S:
        report(f"{fixture}: under {TIME_LIMIT_S[fixture]:g} s",
               elapsed < TIME_LIMIT_S[fixture], f"{elapsed:.2f}s")


def report_named(fixture: str, *names: str) -> None:
    """Report the named checks of a fixture, and its time bound."""
    checks, elapsed = run_checks(fixture)
    by_name = {name: (ok, detail) for name, ok, detail in checks}
    for name in names:
        assert name in by_name, f"{fixture} has no check {name!r}"
        report(f"{fixture}: {name}", *by_name[name])
    report_time(fixture, elapsed)


@pytest.mark.parametrize("fixture", list(CHECKS))
def test_fixture_checks(fixture):
    """The fixture's documented checks, shared with the ``verify`` command."""
    checks, elapsed = run_checks(fixture)
    for name, ok, detail in checks:
        report(f"{fixture}: {name}", ok, detail)
    report_time(fixture, elapsed)


def test_three_bit_coatoms():
    """Exact enumeration: 16 coatoms of rank 6, complements bipartite edges."""
    report_named("3bit", "exactly 16 coatoms, complements are bipartite edges")


def test_three_bit_membership_strata():
    """All 93 supports of size <= 3 in; no size-7 member; no size-<=5 coatom."""
    report_named("3bit", "all 93 supports of size <= 3 are members",
                 "no size-7 support is a member",
                 "no support of size <= 5 is a coatom")


def test_three_bit_dual_lattice_count():
    """68 of 70 four-sets lie in the dual; exceptions are the parity classes."""
    report_named("3bit", "dual four-sets: 68 of 70, exceptions the parity classes")


def test_greatest_element_property_suite():
    """>= 200 random instances: extensive, idempotent, fixed-point, cone match."""
    rng = np.random.default_rng(2024)
    cfg = RunConfig(seed=17)
    failures = []
    trials = 0
    instance = 0
    while trials < 200:
        instance += 1
        n = int(rng.integers(2, 7))
        dim_u = int(rng.integers(2, min(8, n * n) + 1))
        mats = [np.eye(n, dtype=complex)]
        for _ in range(dim_u - 1):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            mats.append(hermitian_matrix(g))
        u = from_spanning_set(mats)
        k = int(rng.integers(0, n + 1))
        cols = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        p = Projection.from_columns(n, cols)
        trials += 1

        d_p = analyze_cone(p, u, cfg)
        q1 = q_max_from_descriptor(d_p, u, cfg)
        if not loewner_leq(p, q1, tol=1e-6):
            failures.append((instance, "extensive"))
            continue
        d_q = analyze_cone(q1, u, cfg)
        q2 = q_max_from_descriptor(d_q, u, cfg)
        if not q1.same_image(q2, tol=1e-6):
            failures.append((instance, "idempotent"))
            continue
        # fixed-point law on a sampled ground projection
        a = u.element_from(rng.normal(size=u.dim))
        p0 = ground_projection(hermitian_matrix(a))
        if not q_max(p0, u, cfg).same_image(p0, tol=1e-6):
            failures.append((instance, "fixed-point"))
            continue
        # cone equality: dimension and span angle
        if d_p.dim_K != d_q.dim_K:
            failures.append((instance, "cone-dim"))
            continue
        if d_p.dim_K:
            b1 = np.stack([m.reshape(-1) for m in d_p.span_basis])
            b2 = np.stack([m.reshape(-1) for m in d_q.span_basis])
            angles = np.linalg.svd(b1.conj() @ b2.T, compute_uv=False)
            if not np.all(angles >= 1 - 1e-6):
                failures.append((instance, "cone-span"))
    report("greatest-element (q_max) property suite (200 random instances)",
           len(failures) == 0, f"failures={failures[:5]}")


def test_brute_force_oracle_equivalence():
    """>= 50 random exact instances: literal greatest-element search agrees
    with the witness-kernel membership path on every subset."""
    rng = np.random.default_rng(77)
    cfg = RunConfig()
    mismatches = 0
    instances = 0
    while instances < 50:
        n_points = int(rng.integers(3, 7))
        extra = int(rng.integers(1, 4))
        u, members = brute_force_members(rng, n_points, extra)
        instances += 1
        for mask in range(2 ** n_points):
            support = frozenset(i for i in range(n_points) if mask >> i & 1)
            p = Projection.from_support(n_points, support)
            if is_ground_projection(p, u, cfg) != (support in members):
                mismatches += 1
    report("brute-force oracle equivalence (50 exact instances, all subsets)",
           mismatches == 0, f"mismatches={mismatches}")
