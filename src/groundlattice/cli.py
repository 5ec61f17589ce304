"""Command-line surface: membership, cones, coatoms, lattices, fixtures.

Subcommands: membership, qmax, cone, coatoms, lattice, klocal, marginal,
verify.  Exit codes: 0 success, 1 verification failure, 2 input error,
3 budget or incompleteness.  Reports echo the command and configuration;
re-running with identical inputs reproduces the payload byte-identically
(timing is reported outside the payload).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import fixtures, jsonio
from .config import RunConfig
from .cone import analyze_cone, extreme_rays
from .errors import (
    GroundLatticeError,
    IncompleteRaysError,
    InputError,
    NodeBudgetError,
    PreconditionError,
    UnsupportedConfigurationError,
)
from .lattice import (
    build_lattice,
    close_to_lattice,
    coatom_decomposition,
    enumerate_coatoms,
    is_coatom,
    is_ground_projection,
    q_max,
    q_max_from_descriptor,
)
from .linalg import Projection, frobenius, image_intersection
from .manybody import (
    SiteSystem,
    build_klocal,
    ff_lattice_3bit,
    klocal_dimension,
    marginal_map,
    marginal_polytope_vertices,
    affine_dimension,
)
from .subspace import ENGINE_EXACT, ENGINE_FLOAT, OperatorSubspace, from_spanning_set

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


# --------------------------------------------------------------------------
# input resolution
# --------------------------------------------------------------------------

def _parse_kv(text: str) -> dict[str, str]:
    out = {}
    for part in text.split(":")[1:] if ":" in text else []:
        if "=" in part:
            key, val = part.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def parse_system_spec(spec: str, engine_flag: str | None = None) -> tuple[SiteSystem, int | None]:
    """Parse system strings: bits:N=3, qubits:N=3, sites:dims=[2,3,2].

    An inline k (e.g. bits:N=3:k=2) is returned alongside; None otherwise.
    """
    kv = _parse_kv(spec)
    k = int(kv["k"]) if "k" in kv else None
    if spec.startswith("bits:"):
        return SiteSystem.bits(int(kv["N"])), k
    if spec.startswith("qubits:"):
        return SiteSystem.qubits(int(kv["N"])), k
    if spec.startswith("sites:"):
        dims = tuple(int(x) for x in kv["dims"].strip("[]").split(","))
        engine = ENGINE_EXACT if engine_flag == "exact" else ENGINE_FLOAT
        return SiteSystem(dims=dims, engine=engine), k
    raise InputError(f"unknown system spec {spec!r}", field="system")


def load_subspace(token: str, cfg: RunConfig, k: int | None = None) -> tuple[OperatorSubspace, list[Projection]]:
    """Resolve a subspace argument: file path, fixture name, or spec string.

    Returns the subspace and any curated coatoms the fixture contributes
    (measure-zero strata that sampling cannot reach).
    """
    if token == "m3-example":
        return fixtures.m3_subspace(), fixtures.m3_known_coatoms()
    if token.startswith("span{id}"):
        kv = _parse_kv(token)
        n = int(kv.get("n", 2))
        return from_spanning_set([np.eye(n, dtype=complex)]), []
    if token.startswith(("bits:", "qubits:", "sites:")):
        sys_, inline_k = parse_system_spec(token, cfg.engine)
        use_k = k if k is not None else inline_k
        if use_k is None:
            raise InputError("k-local system specs need k (flag --k or spec :k=)",
                             field="k")
        return build_klocal(sys_, use_k), []
    try:
        with open(token) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read subspace file {token!r}: {exc}", field="subspace")
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON in {token!r} at line {exc.lineno}: {exc.msg}",
                         field="subspace")
    return jsonio.subspace_from_json(obj), []


def load_projection(token: str, n: int) -> Projection:
    try:
        with open(token) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read projection file {token!r}: {exc}", field="projection")
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON in {token!r} at line {exc.lineno}: {exc.msg}",
                         field="projection")
    return jsonio.projection_from_json(obj, n)


def config_from_args(args) -> RunConfig:
    return RunConfig(seed=args.seed, tol_spec=args.tol, tol_rank=args.tol,
                     samples=args.samples, max_nodes=args.max_nodes, engine=args.engine)


def make_report(command: str, cfg: RunConfig, payload: dict, started: float) -> dict:
    return {
        "command": command,
        "config": {"seed": cfg.seed, "tol_spec": cfg.tol_spec, "tol_rank": cfg.tol_rank,
                   "samples": cfg.samples, "max_nodes": cfg.max_nodes, "engine": cfg.engine},
        "payload": payload,
        "timing_s": round(time.perf_counter() - started, 6),
    }


def emit(report: dict, stream=None) -> None:
    json.dump(report, stream or sys.stdout, indent=2, sort_keys=True)
    (stream or sys.stdout).write("\n")


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_membership(args) -> int:
    started = time.perf_counter()
    cfg = config_from_args(args)
    u, _ = load_subspace(args.subspace, cfg, args.k)
    if not u.contains_identity:
        raise PreconditionError("membership needs the identity inside the subspace")
    p = load_projection(args.projection, u.ambient_n)
    desc = analyze_cone(p, u, cfg)
    qm = q_max_from_descriptor(desc, u, cfg)
    payload = {
        "member": bool(qm.same_image(p)),
        "q_max": jsonio.projection_to_json(qm),
        "dim_K": desc.dim_K,
    }
    emit(make_report("membership", cfg, payload, started))
    return EXIT_OK


def cmd_qmax(args) -> int:
    started = time.perf_counter()
    cfg = config_from_args(args)
    u, _ = load_subspace(args.subspace, cfg, args.k)
    p = load_projection(args.projection, u.ambient_n)
    qm = q_max(p, u, cfg)
    payload = {"q_max": jsonio.projection_to_json(qm), "rank": qm.rank}
    emit(make_report("qmax", cfg, payload, started))
    return EXIT_OK


def cmd_cone(args) -> int:
    started = time.perf_counter()
    cfg = config_from_args(args)
    u, _ = load_subspace(args.subspace, cfg, args.k)
    p = load_projection(args.projection, u.ambient_n)
    desc = analyze_cone(p, u, cfg)
    if args.rays and desc.dim_K >= 1:
        extreme_rays(desc, cfg, subspace=None if u.is_exact else u)
    payload = jsonio.cone_to_json(desc)
    emit(make_report("cone", cfg, payload, started))
    return EXIT_OK


def cmd_coatoms(args) -> int:
    started = time.perf_counter()
    cfg = config_from_args(args)
    u, extra = load_subspace(args.subspace, cfg, args.k)
    coatoms, flag = enumerate_coatoms(u, cfg)
    for p in extra:
        if is_coatom(p, u, cfg) and not any(p.same_image(q) for q in coatoms):
            coatoms.append(p)
    payload = {
        "completeness": flag,
        "count": len(coatoms),
        "coatoms": [jsonio.projection_to_json(p) for p in coatoms],
    }
    emit(make_report("coatoms", cfg, payload, started))
    return EXIT_OK


def cmd_lattice(args) -> int:
    started = time.perf_counter()
    cfg = config_from_args(args)
    u, extra = load_subspace(args.subspace, cfg, args.k)
    partial = False
    try:
        if extra:
            sampled, flag = enumerate_coatoms(u, cfg)
            verified = [p for p in extra if is_coatom(p, u, cfg)]
            lat = close_to_lattice(u, sampled + verified, flag, cfg)
        else:
            lat = build_lattice(u, cfg)
    except NodeBudgetError as exc:
        lat = exc.partial
        partial = True
    if args.out == "dot":
        sys.stdout.write(jsonio.lattice_to_dot(lat) + "\n")
        return EXIT_BUDGET if partial else EXIT_OK
    payload = jsonio.lattice_to_json(lat)
    payload["coatom_count"] = len(lat.coatoms)
    payload["partial"] = partial
    emit(make_report("lattice", cfg, payload, started))
    return EXIT_BUDGET if partial else EXIT_OK


def cmd_klocal(args) -> int:
    started = time.perf_counter()
    cfg = config_from_args(args)
    sys_, inline_k = parse_system_spec(args.system, cfg.engine)
    k = args.k if args.k is not None else inline_k
    if k is None:
        raise InputError("klocal needs k (flag --k or spec :k=)", field="k")
    u = build_klocal(sys_, k)
    payload = {
        "dim_U": u.dim,
        "dim_marginal_body": u.dim - 1,
        "contains_identity": u.contains_identity,
        "subspace": jsonio.subspace_to_json(u),
    }
    try:
        payload["closed_form_dim"] = klocal_dimension(sys_, k)
    except InputError:
        pass  # non-uniform sites have no closed form
    emit(make_report("klocal", cfg, payload, started))
    return EXIT_OK


def cmd_marginal(args) -> int:
    started = time.perf_counter()
    cfg = config_from_args(args)
    sys_, inline_k = parse_system_spec(args.system, cfg.engine)
    k = args.k if args.k is not None else inline_k
    if k is None:
        raise InputError("marginal needs k (flag --k or spec :k=)", field="k")
    try:
        with open(args.matrix) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read matrix file {args.matrix!r}: {exc}", field="matrix")
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON in {args.matrix!r} at line {exc.lineno}: {exc.msg}",
                         field="matrix")
    a = jsonio.matrix_from_json(obj)
    if sys_.is_exact:
        if not np.allclose(a, np.diag(np.diag(a))):
            raise InputError("exact engine expects a diagonal matrix", field="matrix")
        vec = [Fraction(float(x.real)).limit_denominator(10 ** 9) for x in np.diag(a)]
        tup = marginal_map(vec, sys_, k)
    else:
        tup = marginal_map(a, sys_, k)
    payload = {"marginals": jsonio.marginal_tuple_to_json(tup)}
    emit(make_report("marginal", cfg, payload, started))
    return EXIT_OK


# --------------------------------------------------------------------------
# verify: named fixture checks
# --------------------------------------------------------------------------

def _verify_m3(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    checks = []
    u = fixtures.m3_subspace()
    bottom = fixtures.m3_p_bottom()
    desc = analyze_cone(bottom, u, cfg)
    checks.append(("dim K(0+1) = 2", desc.dim_K == 2, f"dim_K={desc.dim_K}"))
    p_plus, p_minus = fixtures.m3_known_coatoms()
    for name, p in (("p_plus", p_plus), ("p_minus", p_minus)):
        d = analyze_cone(p, u, cfg)
        ok = d.dim_K == 1 and q_max_from_descriptor(d, u, cfg).same_image(p)
        checks.append((f"{name} is a coatom with a ray cone", ok, f"dim_K={d.dim_K}"))
    parts = coatom_decomposition(bottom, u, cfg)
    ok = len(parts) == 2 and all(
        any(part.same_image(t, tol=1e-7) for part in parts) for t in (p_plus, p_minus))
    checks.append(("decomposition of 0+1 is {p_plus, p_minus}", ok, f"parts={len(parts)}"))
    rays = extreme_rays(desc, cfg, subspace=u)
    targets = [fixtures.U_PLUS / np.trace(fixtures.U_PLUS).real,
               fixtures.U_MINUS / np.trace(fixtures.U_MINUS).real]
    ok = len(rays) == 2 and all(
        min(frobenius(r - t) for r in rays) <= 1e-6 for t in targets)
    checks.append(("extreme rays match u_plus, u_minus up to scaling", ok,
                   f"rays={len(rays)}"))
    meet = image_intersection(parts[0], parts[1]) if len(parts) == 2 else None
    checks.append(("intersection of the two coatoms is 0+1",
                   meet is not None and meet.same_image(bottom, tol=1e-7), ""))
    return checks


def _verify_3bit(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    checks = []
    u = fixtures.three_bit_two_local()
    coatoms, flag = enumerate_coatoms(u, cfg)
    edges = set(fixtures.bipartite_edges())
    comp_ok = all(frozenset(range(8)) - p.classical_support in edges for p in coatoms)
    checks.append(("exactly 16 coatoms, complements are bipartite edges",
                   flag == "exact" and len(coatoms) == 16 and comp_ok,
                   f"count={len(coatoms)}"))
    member_small = all(
        is_ground_projection(Projection.from_support(8, s), u, cfg)
        for s in _subsets_up_to(8, 3))
    checks.append(("all 93 supports of size <= 3 are members", member_small, ""))
    big_bad = all(
        not is_ground_projection(Projection.from_support(8, set(range(8)) - {x}), u, cfg)
        for x in range(8))
    checks.append(("no size-7 support is a member", big_bad, ""))
    no_small_coatom = all(
        not is_coatom(Projection.from_support(8, s), u, cfg)
        for s in _subsets_up_to(8, 5))
    checks.append(("no support of size <= 5 is a coatom", no_small_coatom, ""))
    from itertools import combinations as comb_
    plus, minus = fixtures.parity_classes()
    misses = []
    for four in comb_(range(8), 4):
        t = frozenset(four)
        member = is_ground_projection(
            Projection.from_support(8, frozenset(range(8)) - t), u, cfg)
        if not member:
            misses.append(t)
    ok = len(misses) == 2 and set(misses) == {plus, minus}
    checks.append(("dual four-sets: 68 of 70, exceptions the parity classes",
                   ok, f"missing={len(misses)}"))
    return checks


def _subsets_up_to(n: int, size: int):
    from itertools import combinations
    for s in range(size + 1):
        for sub in combinations(range(n), s):
            yield frozenset(sub)


def _verify_3bit_ff(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    checks = []
    lat = ff_lattice_3bit(cfg)
    supports = {p.classical_support for p in lat.nodes}
    small_ok = all(s in supports for s in _subsets_up_to(8, 2))
    checks.append(("all supports of size <= 2 are nodes", small_ok, ""))
    duals = lat.dual_supports()
    from itertools import combinations as comb_
    large_ok = all(frozenset(s) in duals
                   for size in (6, 7, 8) for s in comb_(range(8), size))
    checks.append(("dual contains all sets of size >= 6", large_ok, ""))
    five = [frozenset(s) for s in comb_(range(8), 5)]
    present = sum(1 for s in five if s in duals)
    checks.append(("dual contains 48 of the 56 five-sets", present == 48,
                   f"present={present}"))
    return checks


def _verify_klocal_dims(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    checks = []
    u_bits = build_klocal(SiteSystem.bits(3), 2)
    checks.append(("dim U_(2) = 7 for three bits", u_bits.dim == 7, f"dim={u_bits.dim}"))
    u_qubits = build_klocal(SiteSystem.qubits(3), 2)
    checks.append(("dim U_(2) = 37 for three qubits (marginal body 36)",
                   u_qubits.dim == 37, f"dim={u_qubits.dim}"))
    ok = True
    detail = []
    for n_sites in range(1, 5):
        for k in range(1, n_sites + 1):
            for sys_ in (SiteSystem.bits(n_sites), SiteSystem.qubits(n_sites)):
                u = build_klocal(sys_, k)
                expected = klocal_dimension(sys_, k)
                if u.dim != expected:
                    ok = False
                    detail.append(f"{sys_.engine} N={n_sites} k={k}: {u.dim}!={expected}")
    checks.append(("closed-form dimensions match for all N <= 4", ok, "; ".join(detail)))
    cols = marginal_polytope_vertices(SiteSystem.bits(3), 2)
    checks.append(("3-bit marginal polytope has affine dimension 6",
                   affine_dimension(cols) == 6, ""))
    return checks


VERIFIERS = {
    "m3": _verify_m3,
    "3bit": _verify_3bit,
    "3bit-ff": _verify_3bit_ff,
    "klocal-dims": _verify_klocal_dims,
}


def cmd_verify(args) -> int:
    started = time.perf_counter()
    cfg = config_from_args(args)
    if args.fixture not in VERIFIERS:
        raise InputError(f"unknown fixture {args.fixture!r}; "
                         f"choose from {sorted(VERIFIERS)}", field="fixture")
    checks = VERIFIERS[args.fixture](cfg)
    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status}: {name}{suffix}")
        all_ok = all_ok and ok
    payload = {"fixture": args.fixture,
               "checks": [{"name": n, "ok": ok} for n, ok, _ in checks],
               "all_ok": all_ok}
    emit(make_report("verify", cfg, payload, started))
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundlattice",
        description="Ground-projection lattices of hermitian-matrix subspaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--engine", choices=["exact", "float"], default="float")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=10_000)
        p.add_argument("--max-nodes", type=int, default=100_000, dest="max_nodes")
        p.add_argument("--k", type=int, default=None,
                       help="locality for k-local system specs")

    p = sub.add_parser("membership", help="is the projection a ground projection?")
    p.add_argument("subspace")
    p.add_argument("projection")
    common(p)
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("qmax", help="greatest projection with the same cone")
    p.add_argument("subspace")
    p.add_argument("projection")
    common(p)
    p.set_defaults(func=cmd_qmax)

    p = sub.add_parser("cone", help="analyze the operator cone K(p)")
    p.add_argument("subspace")
    p.add_argument("projection")
    p.add_argument("--rays", action="store_true", help="also compute extreme rays")
    common(p)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("coatoms", help="enumerate (exact) or sample (float) coatoms")
    p.add_argument("subspace")
    common(p)
    p.set_defaults(func=cmd_coatoms)

    p = sub.add_parser("lattice", help="build the ground-projection lattice")
    p.add_argument("subspace")
    p.add_argument("--out", choices=["json", "dot"], default="json")
    common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("klocal", help="build a k-local subspace and report dimensions")
    p.add_argument("system")
    common(p)
    p.set_defaults(func=cmd_klocal)

    p = sub.add_parser("marginal", help="k-body marginals of a matrix")
    p.add_argument("matrix")
    p.add_argument("--system", required=True)
    common(p)
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("verify", help="run a named fixture's documented checks")
    p.add_argument("fixture")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NodeBudgetError, IncompleteRaysError, UnsupportedConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except GroundLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
