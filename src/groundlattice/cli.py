"""Command-line surface: membership, cones, coatoms, lattices, fixtures.

Subcommands: membership, qmax, cone, coatoms, lattice, klocal, marginal,
verify.  SUBSPACE or SYSTEM names the whole space: a spec such as
bits:N=3:k=2 (:data:`SPEC_FORMS`), m3-example, or a JSON file read at
--tol.  Each command takes only the options it reads (:data:`COMMANDS`
lists them; any other option is a usage error, exit 2), and --tol,
--seed, --samples and --max-nodes default to :class:`RunConfig`'s values.
Exit codes: 0 success, 1 verification failure, 2 input error, 3 budget or
incompleteness.  Each command is one library call whose result :func:`run`
reports as it is, as one line of JSON, with the command and its
configuration: the RunConfig fields it reads and the engine that ran.
coatoms and lattice report exactly what :func:`enumerate_coatoms` and
:func:`build_lattice` return, under their completeness flag.  Re-running
with identical inputs reproduces the payload byte-identically (timing is
reported outside the payload).  The membership and cone reports also
carry, outside the payload, the cone's ``margin``: the closest call of
the float facial reduction as a ratio to its threshold, null where no
threshold was tested (exact engine, or a section {0}).  The coatoms and
lattice reports carry, outside the payload, the two residuals of the
``reading`` that sends a commuting float U to the exact engine (its
largest off-diagonal norm in the joint eigenbasis, and its distance to
the rational functions), each accepted at most tol_rank; null when there
is no reading (exact engine, or a U that does not commute or is not
rational), and the flag then is "exact" or "sampled", not "complete".
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import fields
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
from .lattice import build_lattice, enumerate_coatoms, q_max, q_max_from_descriptor
from .linalg import Projection
from .manybody import SiteSystem, build_klocal, klocal_dimension, marginal_map
from .subspace import ENGINE_EXACT, ENGINE_FLOAT, OperatorSubspace, from_spanning_set

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


# --------------------------------------------------------------------------
# input resolution
# --------------------------------------------------------------------------

#: the spec strings that name a space, by kind (bits: is exact, qubits:
#: float, sites: float unless :engine=exact); each key once, all but engine
SYSTEM_FORMS = {"bits": "bits:N=<int>:k=<int>", "qubits": "qubits:N=<int>:k=<int>",
                "sites": "sites:dims=[<int>,...]:k=<int>[:engine=exact|float]"}
SPEC_FORMS = {**SYSTEM_FORMS, "span{id}": "span{id}:n=<int>"}
_READ = {"dims": lambda text: tuple(int(d) for d in text.strip("[]").split(",")),
         "engine": {"exact": ENGINE_EXACT, "float": ENGINE_FLOAT}.__getitem__}


def parse_spec(spec: str, field: str, forms: dict = SPEC_FORMS) -> tuple[str, dict]:
    """The kind and values of a spec ``kind:key=value:...`` with the keys
    of one of ``forms``; any other string is an InputError on ``field``."""
    kind, *parts = spec.split(":")
    given = dict(part.partition("=")[::2] for part in parts)
    kv = {"engine": "float", **given} if kind == "sites" else given
    keys = re.findall(r"(\w+)=", forms.get(kind, ""))
    try:
        if keys and len(given) == len(parts) and sorted(kv) == sorted(keys):
            return kind, {key: _READ.get(key, int)(text) for key, text in kv.items()}
    except (KeyError, ValueError):
        pass
    expected = forms.get(kind) or " or ".join(forms.values())
    raise InputError(f"cannot read {spec!r} as {expected}", field=field)


def parse_system_spec(spec: str) -> tuple[SiteSystem, int]:
    """The system and k of a spec of :data:`SYSTEM_FORMS`."""
    kind, kv = parse_spec(spec, "system", SYSTEM_FORMS)
    if kind == "sites":
        return SiteSystem(dims=kv["dims"], engine=kv["engine"]), kv["k"]
    return (SiteSystem.bits if kind == "bits" else SiteSystem.qubits)(kv["N"]), kv["k"]


def read_json(path: str, field: str):
    """Parse a JSON file; unreadable files and bad JSON raise InputError
    with ``field`` naming the argument."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {field} file {path!r}: {exc}", field=field)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON in {path!r} at line {exc.lineno}: {exc.msg}", field=field)


def load_subspace(token: str, tol_rank: float) -> OperatorSubspace:
    """Resolve a subspace argument: a spec string, the fixture m3-example,
    or a JSON file, whose spanning set is read at ``tol_rank``."""
    if token == "m3-example":
        return fixtures.m3_subspace()
    kind = token.split(":")[0]
    if kind not in SPEC_FORMS:
        return jsonio.subspace_from_json(read_json(token, "subspace"), tol_rank)
    if kind in SYSTEM_FORMS:
        return build_klocal(*parse_system_spec(token))
    n = parse_spec(token, "subspace")[1]["n"]
    if n < 1:
        raise InputError(f"span{{id}} needs n >= 1, got {n}", field="subspace")
    return from_spanning_set([np.eye(n, dtype=complex)])


def load_projection(token: str, n: int, tol_rank: float) -> Projection:
    return jsonio.projection_from_json(read_json(token, "projection"), n, tol_rank)


# --------------------------------------------------------------------------
# commands: each returns (payload, what it ran on, the report's fields
# outside the payload, exit code)
# --------------------------------------------------------------------------

def cmd_membership(args, cfg: RunConfig):
    u = load_subspace(args.subspace, cfg.tol_rank)
    if not u.contains_identity:
        raise PreconditionError("membership needs the identity inside the subspace")
    desc = analyze_cone(load_projection(args.projection, u.ambient_n, cfg.tol_rank), u, cfg)
    payload = {
        "member": desc.member,
        "q_max": jsonio.projection_to_json(q_max_from_descriptor(desc, u, cfg)),
        "dim_K": desc.dim_K,
    }
    return payload, u, _margin(desc), EXIT_OK


def cmd_qmax(args, cfg: RunConfig):
    u = load_subspace(args.subspace, cfg.tol_rank)
    qm = q_max(load_projection(args.projection, u.ambient_n, cfg.tol_rank), u, cfg)
    return {"q_max": jsonio.projection_to_json(qm), "rank": qm.rank}, u, {}, EXIT_OK


def cmd_cone(args, cfg: RunConfig):
    u = load_subspace(args.subspace, cfg.tol_rank)
    desc = analyze_cone(load_projection(args.projection, u.ambient_n, cfg.tol_rank), u, cfg)
    rays = extreme_rays(desc, cfg) if args.rays and desc.dim_K >= 1 else None
    return jsonio.cone_to_json(desc, rays), u, _margin(desc), EXIT_OK


def _margin(desc) -> dict:
    finite = desc.margin is not None and math.isfinite(desc.margin)
    return {"margin": desc.margin if finite else None}


def _reading(u: OperatorSubspace, cfg: RunConfig) -> dict:
    reading = u.exact_reading(cfg.tol_rank)
    return {"reading": None if reading is None else
            {"off_diagonal": reading.off_diagonal, "rational": reading.rational}}


def cmd_coatoms(args, cfg: RunConfig):
    u = load_subspace(args.subspace, cfg.tol_rank)
    coatoms, flag = enumerate_coatoms(u, cfg)
    payload = {
        "completeness": flag,
        "count": len(coatoms),
        "coatoms": [jsonio.projection_to_json(p) for p in coatoms],
    }
    return payload, u, _reading(u, cfg), EXIT_OK


def cmd_lattice(args, cfg: RunConfig):
    u = load_subspace(args.subspace, cfg.tol_rank)
    try:
        lat, code = build_lattice(u, cfg), EXIT_OK
    except NodeBudgetError as exc:
        lat, code = exc.partial, EXIT_BUDGET
    if args.out == "dot":
        sys.stdout.write(jsonio.lattice_to_dot(lat) + "\n")
        return None, u, {}, code
    payload = jsonio.lattice_to_json(lat)
    payload["coatom_count"] = len(lat.coatoms)
    payload["partial"] = code == EXIT_BUDGET
    return payload, u, _reading(u, cfg), code


def cmd_klocal(args, cfg: RunConfig):
    sys_, k = parse_system_spec(args.system)
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
    return payload, u, {}, EXIT_OK


def cmd_marginal(args, cfg: RunConfig):
    sys_, k = parse_system_spec(args.system)
    a = jsonio.matrix_from_json(read_json(args.matrix, "matrix"))
    if sys_.is_exact:
        if not np.allclose(a, np.diag(np.diag(a))):
            raise InputError("exact engine expects a diagonal matrix", field="matrix")
        a = [Fraction(float(x.real)).limit_denominator(10 ** 9) for x in np.diag(a)]
    payload = {"marginals": jsonio.marginal_tuple_to_json(marginal_map(a, sys_, k))}
    return payload, sys_, {}, EXIT_OK


def cmd_verify(args, cfg: RunConfig):
    """Run a named fixture's checks, printing a PASS or FAIL line each.
    The report's engine is null: the fixtures carry their own."""
    if args.fixture not in fixtures.CHECKS:
        raise InputError(f"unknown fixture {args.fixture!r}; "
                         f"choose from {sorted(fixtures.CHECKS)}", field="fixture")
    checks = fixtures.CHECKS[args.fixture](cfg)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    all_ok = all(ok for _, ok, _ in checks)
    payload = {"fixture": args.fixture,
               "checks": [{"name": n, "ok": ok} for n, ok, _ in checks],
               "all_ok": all_ok}
    return payload, None, {}, EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def run(args) -> int:
    """Run one command and emit its report: the command, the configuration
    (the RunConfig fields the command reads, and the engine of what ran),
    the payload, and outside it the wall time and the command's own fields
    (a cone's margin, a reading's residuals)."""
    started = time.perf_counter()
    config = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    payload, ran, extras, code = args.func(args, RunConfig(**config))
    if payload is None:
        return code
    report = {
        "command": args.command,
        "config": {**config,
                   "engine": None if ran is None else "exact" if ran.is_exact else "float"},
        "payload": payload,
        "timing_s": round(time.perf_counter() - started, 6),
        **extras,
    }
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return code


# --------------------------------------------------------------------------
# argument parsing: every option once, and each command with the ones it reads
# --------------------------------------------------------------------------

_DEFAULTS = RunConfig()

#: the options of all commands; --tol, --seed, --samples and --max-nodes
#: set the RunConfig field of their destination and take its default
OPTIONS = {
    "--tol": dict(type=float, dest="tol_rank", metavar="TOL", default=_DEFAULTS.tol_rank),
    "--seed": dict(type=int, default=_DEFAULTS.seed),
    "--samples": dict(type=int, default=_DEFAULTS.samples),
    "--max-nodes": dict(type=int, default=_DEFAULTS.max_nodes),
    "--rays": dict(action="store_true", help="also compute extreme rays"),
    "--out": dict(choices=["json", "dot"], default="json"),
}

#: command: (function, help, positionals, the options it reads)
COMMANDS = {
    "membership": (cmd_membership, "is the projection a ground projection?",
                   "subspace projection", "--tol"),
    "qmax": (cmd_qmax, "greatest projection with the same cone", "subspace projection", "--tol"),
    "cone": (cmd_cone, "analyze the operator cone K(p)",
             "subspace projection", "--tol --seed --rays"),
    "coatoms": (cmd_coatoms, "enumerate (exact or commuting float) or sample (float) coatoms",
                "subspace", "--tol --seed --samples"),
    "lattice": (cmd_lattice, "build the ground-projection lattice",
                "subspace", "--tol --seed --samples --max-nodes --out"),
    "klocal": (cmd_klocal, "build a k-local subspace and report dimensions", "system", ""),
    "marginal": (cmd_marginal, "k-body marginals of a matrix", "matrix system", ""),
    "verify": (cmd_verify, "run a named fixture's documented checks",
               "fixture", "--tol --seed --max-nodes"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundlattice",
        description="Ground-projection lattices of hermitian-matrix subspaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for arg in positionals.split():
            p.add_argument(arg)
        for option in options.split():
            p.add_argument(option, **OPTIONS[option])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (NodeBudgetError, IncompleteRaysError, UnsupportedConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GroundLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
