"""Independent answers for the benchmark's checks, computed without groundlattice.

Commutative spaces only.  ``bits:N=n:k`` is rebuilt here as the span of
spin products ``s_A(x) = prod_{i in A} (1 - 2 x_i)`` over site sets
``|A| <= k``; configuration ``x`` has index ``sum_i x_i 2^(n-1-i)``, the
row-major order of the library.  For a support ``S`` one max-support LP,
solved by HiGHS,

    max sum_x t_x   s.t.  0 <= t_x <= 1,  t_x <= f(x) off S,  f|S = 0,  f in U,

reaches ``t_x = 1`` exactly on the largest support of the cone
``K(S) = {f in U : f >= 0, f|S = 0}``.  Its complement is ``q_max(S)``;
``dim K`` is the dimension of the functions in ``U`` that vanish on
``q_max(S)``, a numpy rank.

The face lattice of the cube and the weight-<=2 Pauli strings used by the
quantum checks are built here too.  scipy is imported only by the LP.

Run as a script it prints oracle answers as JSON, so that the benchmark
can pick its inputs without loading scipy into the measured process:

    python3 perfbench/oracle.py classify N K
    python3 perfbench/oracle.py pick N K SEED COATOMS DIMS...
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from itertools import combinations, product

import numpy as np


@lru_cache(maxsize=None)
def spin_basis(n: int, k: int) -> np.ndarray:
    """Columns: the spin products on at most k of n bits, over 2^n configurations."""
    spins = np.array([[1 - 2 * ((x >> (n - 1 - i)) & 1) for i in range(n)]
                      for x in range(2 ** n)], dtype=float)
    cols = [np.prod(spins[:, list(a)], axis=1)
            for size in range(k + 1) for a in combinations(range(n), size)]
    return np.stack(cols, axis=1)


def dim_vanishing(b: np.ndarray, points) -> int:
    """Dimension of the functions in span(b) that vanish on ``points``."""
    rows = b[sorted(points)]
    return b.shape[1] - (int(np.linalg.matrix_rank(rows)) if len(rows) else 0)


def q_max(b: np.ndarray, support) -> tuple[frozenset, int]:
    """(q_max(S) as a support, dim K(S)) by one max-support LP."""
    from scipy.optimize import linprog

    n_pts, d = b.shape
    support = sorted(support)
    off = [x for x in range(n_pts) if x not in set(support)]
    if not off:
        return frozenset(range(n_pts)), 0
    m = len(off)
    cost = np.concatenate([np.zeros(d), -np.ones(m)])
    a_ub = np.hstack([-b[off], np.eye(m)])            # t_x - f(x) <= 0
    a_eq = np.hstack([b[support], np.zeros((len(support), m))]) if support else None
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq,
                  b_eq=np.zeros(len(support)) if support else None,
                  bounds=[(None, None)] * d + [(0.0, 1.0)] * m, method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed on support {support}: {res.message}")
    positive = {x for x, t in zip(off, res.x[d:]) if t > 0.5}
    qmax = frozenset(x for x in range(n_pts) if x not in positive)
    return qmax, dim_vanishing(b, qmax)


def classify(b: np.ndarray, support) -> dict:
    """Membership, coatom status and dim K of one support."""
    qmax, dim_k = q_max(b, support)
    member = qmax == frozenset(support)
    return {"support": sorted(support), "member": member,
            "coatom": member and dim_k == 1, "dim_k": dim_k}


def coatoms_from_objectives(b: np.ndarray, rng: np.random.Generator, count: int) -> list[list[int]]:
    """Zero sets of vertices of {f in U : f >= 0, sum f = 1} under random
    objectives: extreme rays of K(0), whose zero sets are the coatoms."""
    from scipy.optimize import linprog

    n_pts, d = b.shape
    found: list[list[int]] = []
    for _ in range(50 * count):
        if len(found) == count:
            break
        w = rng.normal(size=n_pts)
        res = linprog(b.T @ w, A_ub=-b, b_ub=np.zeros(n_pts),
                      A_eq=b.sum(axis=0, keepdims=True), b_eq=[1.0],
                      bounds=[(None, None)] * d, method="highs-ds")
        if res.status != 0:
            continue
        f = b @ res.x
        zeros = sorted(int(x) for x in np.flatnonzero(np.abs(f) <= 1e-9))
        if zeros not in found and classify(b, zeros)["coatom"]:
            found.append(zeros)
    if len(found) < count:
        raise RuntimeError(f"found {len(found)} of {count} coatoms")
    return found


def members_of_dims(b: np.ndarray, rng: np.random.Generator, dims) -> dict[int, list[int]]:
    """One member with each requested dim K, as q_max of random supports."""
    n_pts = b.shape[0]
    out: dict[int, list[int]] = {}
    for _ in range(2000):
        if len(out) == len(dims):
            break
        size = int(rng.integers(1, n_pts // 2 + 1))
        s = rng.choice(n_pts, size=size, replace=False)
        qmax, dim_k = q_max(b, s)
        if dim_k in dims and dim_k not in out:
            out[dim_k] = sorted(qmax)
    if len(out) < len(dims):
        raise RuntimeError(f"no members found for dim K in {sorted(set(dims) - set(out))}")
    return out


def cube_faces(n: int) -> list[frozenset]:
    """Faces of the n-cube as vertex sets, the empty face included."""
    faces = {frozenset()}
    for pattern in product((0, 1, None), repeat=n):
        faces.add(frozenset(
            x for x in range(2 ** n)
            if all(v is None or (x >> (n - 1 - i)) & 1 == v for i, v in enumerate(pattern))))
    return sorted(faces, key=lambda f: (len(f), sorted(f)))


def covers(sets: list[frozenset]) -> set[tuple[frozenset, frozenset]]:
    """Cover pairs (a, b) of a family ordered by inclusion.

    Above each a, the sets taken by increasing size are covers exactly when
    they contain no cover found before them.
    """
    by_size = sorted(sets, key=len)
    out = set()
    for a in sets:
        minimal: list[frozenset] = []
        for b in by_size:
            if a < b and not any(m < b for m in minimal):
                minimal.append(b)
        out.update((a, b) for b in minimal)
    return out


def pauli_strings(n: int, max_weight: int) -> list[np.ndarray]:
    """All n-qubit Pauli strings acting on at most ``max_weight`` qubits."""
    paulis = [np.eye(2, dtype=complex),
              np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex)]
    out = []
    for labels in product(range(4), repeat=n):
        if sum(1 for a in labels if a) > max_weight:
            continue
        m = np.eye(1, dtype=complex)
        for a in labels:
            m = np.kron(m, paulis[a])
        out.append(m)
    return out


def span_residual(m: np.ndarray, basis: list[np.ndarray]) -> float:
    """Relative least-squares residual of m against real combinations of basis."""
    a = np.stack([np.concatenate([p.real.ravel(), p.imag.ravel()]) for p in basis], axis=1)
    y = np.concatenate([m.real.ravel(), m.imag.ravel()])
    coeffs, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(np.linalg.norm(a @ coeffs - y) / np.linalg.norm(y))


def main(argv: list[str]) -> int:
    cmd, n, k = argv[0], int(argv[1]), int(argv[2])
    b = spin_basis(n, k)
    if cmd == "classify":
        out = [classify(b, [x for x in range(2 ** n) if mask >> x & 1])
               for mask in range(2 ** 2 ** n)]
    elif cmd == "pick":
        rng = np.random.default_rng(int(argv[3]))
        coatoms = coatoms_from_objectives(b, rng, int(argv[4]))
        members = members_of_dims(b, rng, [int(a) for a in argv[5:]])
        out = {"coatoms": coatoms, "members": {str(d): s for d, s in sorted(members.items())}}
    else:
        print(f"unknown command {cmd!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
