"""Documented JSON schemas and DOT export.

Matrix:      {"n": int, "entries": [[re, im], ...]} row-major, n*n pairs, hermitian.
Projection:  {"support": [ints]} (commutative) or
             {"image_basis": [column, ...]} with column = [[re, im], ...].
Subspace:    {"engine": "float-hermitian", "ambient_n": int, "basis": [matrix, ...]} or
             {"engine": "exact-commutative", "config_dims": [ints],
              "vectors": [["p/q", ...], ...]}; exact vectors are read as
             rationals and written as the integers of the stored basis.
             Without "engine", a file with "vectors" is exact.
Cone:        {"dim_K": int, "is_ray": bool, "witness": matrix|null,
              "extreme_rays": [matrix, ...]|null}.
Lattice:     {"completeness": ..., "nodes": [{"id", "rank", "projection"}],
              "hasse": [[child, parent], ...], "coatoms": [ids]}.
Marginals:   [{"nu": [ints], "matrix": matrix}, ...].

A float image or subspace basis that is orthonormal to 1e-12 is parsed
verbatim, so payloads round-trip byte for byte; any other float basis is
replaced by an SVD basis of its span, which drops dependent elements.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .cone import ConeDescriptor
from .config import DEFAULT_TOL
from .errors import InputError
from .exactla import frac
from .lattice import GroundLattice
from .linalg import Projection, hermitian_matrix, is_hermitian
from .manybody import MarginalTuple
from .subspace import ENGINE_EXACT, ENGINE_FLOAT, OperatorSubspace, from_spanning_set


def matrix_to_json(a) -> dict:
    if isinstance(a, list):  # exact engine vector: embed as a diagonal matrix
        a = np.diag([float(x) for x in a]).astype(complex)
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    entries = [[float(x.real), float(x.imag)] for x in a.reshape(-1)]
    return {"n": n, "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    try:
        n, entries = obj["n"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"matrix object needs 'n' and 'entries': {exc}", field="matrix")
    # int() would read 2.7 (or true) as a size nobody gave
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InputError(f"'n' must be a non-negative integer, got {n!r}", field="n")
    if not isinstance(entries, list) or len(entries) != n * n:
        raise InputError(f"expected a list of {n * n} entries", field="entries")
    if not all(isinstance(e, list) and len(e) == 2 and all(_is_real(x) for x in e)
               for e in entries):
        raise InputError("each entry must be a [re, im] pair of real numbers", field="entries")
    a = np.array([complex(re, im) for re, im in entries]).reshape(n, n)
    if not is_hermitian(a, tol=1e-9):
        raise InputError("the matrix must be hermitian", field="entries")
    return hermitian_matrix(a)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _orthonormal(cols: np.ndarray) -> bool:
    """Whether to keep a parsed basis verbatim: an SVD would rotate it."""
    return bool(np.linalg.norm(cols.conj().T @ cols - np.eye(cols.shape[1])) <= 1e-12)


def projection_to_json(p: Projection) -> dict:
    if p.is_commutative:
        return {"support": sorted(p.classical_support)}
    cols = [[[float(x.real), float(x.imag)] for x in p.image_basis[:, j]]
            for j in range(p.rank)]
    return {"image_basis": cols}


def projection_from_json(obj, n: int, tol_rank: float = DEFAULT_TOL) -> Projection:
    if "support" in obj:
        return Projection.from_support(n, obj["support"])
    if "image_basis" in obj:
        cols = obj["image_basis"]
        if not cols:
            return Projection.zero(n)
        try:
            mat = np.array([[complex(re, im) for re, im in col] for col in cols]).T
        except (TypeError, ValueError) as exc:
            raise InputError(f"image basis columns must be lists of [re, im] pairs: {exc}",
                             field="image_basis") from None
        if mat.shape[0] != n:
            raise InputError(f"image basis columns have length {mat.shape[0]}, expected {n}",
                             field="image_basis")
        if _orthonormal(mat):
            return Projection(n=n, image_basis=mat)
        return Projection.from_columns(n, mat, tol_rank)
    raise InputError("projection object needs 'support' or 'image_basis'",
                     field="projection")


def subspace_to_json(u: OperatorSubspace) -> dict:
    if u.is_exact:
        dims = list(u.site_structure[1]) if u.site_structure else [u.ambient_n]
        return {"engine": u.engine,
                "config_dims": dims,
                "vectors": [[str(x) for x in v] for v in u.basis]}
    return {"engine": u.engine,
            "ambient_n": u.ambient_n,
            "basis": [matrix_to_json(b) for b in u.basis]}


def subspace_from_json(obj, tol_rank: float = DEFAULT_TOL) -> OperatorSubspace:
    engine = obj.get("engine", ENGINE_EXACT if "vectors" in obj else ENGINE_FLOAT)
    if engine not in (ENGINE_FLOAT, ENGINE_EXACT):
        raise InputError(f"unknown engine {engine!r}", field="engine")
    if engine == ENGINE_EXACT:
        try:
            dims = tuple(int(d) for d in obj["config_dims"])
            vectors = [[frac(x) for x in v] for v in obj["vectors"]]
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"bad exact subspace object: {exc}", field="vectors")
        return from_spanning_set(vectors, engine=ENGINE_EXACT, config_dims=dims)
    try:
        mats = [matrix_from_json(m) for m in obj["basis"]]
    except KeyError as exc:
        raise InputError(f"float subspace object needs 'basis': {exc}", field="basis")
    u = from_spanning_set(mats, engine=ENGINE_FLOAT, tol_rank=tol_rank)
    if _orthonormal(np.stack([m.reshape(-1) for m in mats], axis=1)):
        return replace(u, basis=mats)
    return u


def cone_to_json(desc: ConeDescriptor, rays: list | None = None) -> dict:
    witness = None
    if desc.interior_witness is not None:
        witness = matrix_to_json(desc.interior_witness)
    return {"dim_K": desc.dim_K, "is_ray": desc.is_ray, "witness": witness,
            "extreme_rays": None if rays is None else [matrix_to_json(r) for r in rays]}


def lattice_to_json(lat: GroundLattice) -> dict:
    return {
        "completeness": lat.completeness_flag,
        "nodes": [{"id": i, "rank": p.rank, "projection": projection_to_json(p)}
                  for i, p in enumerate(lat.nodes)],
        "hasse": [[child, parent] for child, parent in lat.hasse_edges],
        "coatoms": list(lat.coatoms),
    }


def lattice_to_dot(lat: GroundLattice) -> str:
    lines = ["digraph ground_lattice {", "  rankdir=BT;"]
    for i, p in enumerate(lat.nodes):
        if p.is_commutative:
            label = "{" + ",".join(str(x) for x in sorted(p.classical_support)) + "}"
        else:
            label = f"rank {p.rank}"
        shape = ', shape=box' if i in lat.coatoms else ''
        lines.append(f'  n{i} [label="{label}"{shape}];')
    for child, parent in lat.hasse_edges:
        lines.append(f"  n{child} -> n{parent};")
    lines.append("}")
    return "\n".join(lines)


def marginal_tuple_to_json(tup: MarginalTuple) -> list:
    return [{"nu": list(nu), "matrix": matrix_to_json(tup.entries[nu])}
            for nu in tup.subsets()]
