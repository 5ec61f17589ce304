"""Benchmark of groundlattice: membership, coatom tests, decompositions, lattices.

    python3 perfbench/run.py --workload exact-3bit --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  The library is imported from ``src/``
of that checkout, in this one process and on one BLAS thread.  The run:

1. makes the workload's inputs from ``--seed`` (the oracle answers that
   pick them come from a child interpreter);
2. sets up: a fresh import of the package plus building the subspaces and
   projections, once before the passes and twice after each; ``setup_s``
   is the median;
3. repeats timed passes over the workload's operation list for
   ``--seconds`` (whole passes, at least one; with ``--trace 1`` every
   second pass is traced), with probes of the host's speed before each
   pass and after every 50 ms or more of operations;
4. compares the answers of every later pass with the first pass's as it
   ends, keeping only the first pass's; after the passes it reads the peak
   resident memory, then checks the first pass's answers against the oracle.

Every time reported is rescaled to one reference speed of the host: a
pass's wall time is multiplied by ``REFERENCE_PROBE_S`` over the mean time
of the probes taken in it (see ``run_pass``), a set-up's by the probes just
before and after it.  On a shared 2-vCPU virtual machine the same work ran up to half
again as slow for seconds to minutes at a time; there a pass's probe time
followed its wall time with correlation 0.6 to 0.9, and the rescaled times
spread a third to a quarter as much as the wall times.  The wall times
are kept in the record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller record,
with the versions of the interpreter and libraries, goes to
``perfbench/out/``.
"""

import os

# one BLAS / OpenMP thread, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DECISIONS, Failure  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS_PER_PASS = 2
PROBE_EVERY_S = 0.05         # operation time between two probes
PROBES_MAX = 8               # probes in a row after a long stretch
REFERENCE_PROBE_S = 0.004    # a probe's time at the reference speed

# bound before any tracer wraps numpy.linalg.eigh, so probes are never traced
_EIGH = np.linalg.eigh
_PROBE_MATRIX = np.add.outer(np.arange(8.0), np.arange(8.0)) % 5

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "decisions_per_s": "1/s",
                    "decision_ms.p50": "ms", "peak_rss_mb": "MB"}


def is_program_module(name: str) -> bool:
    return name == "groundlattice" or name.startswith("groundlattice.")


def import_program():
    """A fresh import of groundlattice from this checkout's src/."""
    for key in [k for k in sys.modules if is_program_module(k)]:
        del sys.modules[key]
    gl = importlib.import_module("groundlattice")
    if Path(gl.__file__).resolve().parent != (SRC / "groundlattice").resolve():
        raise ImportError(f"groundlattice imported from {gl.__file__}, not from {SRC}")
    return gl


def probe() -> float:
    """Wall seconds of a fixed slice of work that does not touch the program.

    Pure-Python integer and fraction arithmetic and small LAPACK calls, the
    mix the two engines run.  On a shared host the time of the same work
    moves by a third or more, from tens of milliseconds to minutes; probes
    taken among the operations measure that speed as it is while they run.
    The garbage collector is held off, so that the objects the program
    keeps alive do not change a probe's work.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 180):
            acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
        x = 0
        for i in range(6000):
            x += i * i % 7
        for _ in range(90):
            _EIGH(_PROBE_MATRIX)
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def probe_group(n: int) -> float:
    """Mean time of ``n`` probes in a row."""
    return statistics.fmean(probe() for _ in range(n))


def at_reference_speed(wall_s: float, probe_s: float) -> float:
    """``wall_s`` rescaled to the host speed at which a probe takes REFERENCE_PROBE_S."""
    return wall_s * REFERENCE_PROBE_S / probe_s


def timed_setup(work, inp):
    """One set-up, a fresh import plus the workload's subspaces and projections.

    Returns (seconds at the reference speed, wall seconds, package, objects).
    """
    before = probe()
    t0 = time.perf_counter()
    gl = import_program()
    st = work.setup(gl, inp)
    wall = time.perf_counter() - t0
    return at_reference_speed(wall, (before + probe()) / 2), wall, gl, st


@dataclass
class Pass:
    """One timed pass over the operation list."""

    answers: list
    latencies: list[float]       # wall seconds of each operation
    probe_s: float               # mean probe time over the pass, weighted by time
    probes: int

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def run_s(self) -> float:
        return at_reference_speed(self.wall_s, self.probe_s)

    @property
    def scale(self) -> float:
        return at_reference_speed(1.0, self.probe_s)


def run_pass(gl, ops) -> Pass:
    """One pass, with probes of the host's speed among the operations.

    A probe runs before the first operation, and probes run after every
    stretch of at least PROBE_EVERY_S of operations and after the last: one
    per PROBE_EVERY_S of the stretch, at most PROBES_MAX, so that the speed
    during a long operation is estimated from more than two probes.  The
    speed during a stretch is the mean of the probes on either side of it,
    and the pass's probe time is the mean over its stretches weighted by
    their length.
    """
    answers, latencies = [], []
    clock = time.perf_counter
    before, probes = probe(), 1
    stretch, weighted = 0.0, 0.0
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            out = op.fn()
        except gl.GroundLatticeError as err:
            out = Failure(type(err).__name__)
        dt = clock() - t0
        latencies.append(dt)
        answers.append(out)
        stretch += dt
        if stretch >= PROBE_EVERY_S or i == len(ops) - 1:
            n = max(1, min(PROBES_MAX, int(stretch / PROBE_EVERY_S)))
            after = probe_group(n)
            probes += n
            weighted += stretch * (before + after) / 2
            before, stretch = after, 0.0
    return Pass(answers, latencies, weighted / sum(latencies), probes)


def layer_metrics(per_pass: list[dict], setup: dict, overhead_s: float) -> dict:
    """Per-layer metrics: means over traced passes, set-up layers per set-up."""
    def mean(name, field):
        return statistics.fmean(p[name][field] if name in p else 0.0 for p in per_pass)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("exactla.simplex_max", "exactla.null_space", "subspace.linear_section",
                 "linalg.nullspace_cols", "linalg.eig_herm", "linalg.image_intersection",
                 "linalg.Projection.same_image", "lattice.is_ground_projection",
                 "lattice.is_coatom", "lattice.coatom_decomposition", "numpy.linalg.eigh"):
        m[f"{name}.calls"] = (mean(name, "calls"), "count")
        m[f"{name}.ms"] = (mean(name, "ms"), "ms")
    for name in ("cone.analyze_cone", "cone.extreme_rays"):
        m[f"{name}.calls"] = (mean(name, "calls"), "count")
        m[f"{name}.self_ms"] = (mean(name, "self_ms"), "ms")
    m["cone.extreme_rays.rays"] = (mean("cone.extreme_rays", "rays"), "count")
    m["cone.extreme_rays.incomplete"] = (mean("cone.extreme_rays", "incomplete"), "count")
    for name in ("lattice.enumerate_coatoms", "lattice.close_to_lattice",
                 "lattice.lattice_from_nodes"):
        m[f"{name}.ms"] = (mean(name, "ms"), "ms")
    cones = mean("cone.analyze_cone", "calls")
    m["exactla.lp_per_cone"] = (ratio(mean("exactla.simplex_max", "calls"), cones), "ratio")
    m["cone.eigh_per_cone"] = (ratio(mean("numpy.linalg.eigh", "calls"), cones), "ratio")
    for name in ("manybody.build_klocal", "subspace.from_spanning_set"):
        m[f"{name}.ms"] = (setup.get(name, {}).get("ms", 0.0), "ms")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def traced_summary(tracer: Tracer, scale: float) -> dict:
    """The spans recorded so far, their times multiplied by ``scale``; then a reset."""
    summary = tracer.summary()
    for row in summary.values():
        row["ms"] *= scale
        row["self_ms"] *= scale
    rays = summary.setdefault("cone.extreme_rays", {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    rays["rays"] = tracer.returned.get("cone.extreme_rays", 0)
    rays["incomplete"] = tracer.errors.get(("cone.extreme_rays", "IncompleteRaysError"), 0)
    tracer.reset()
    return summary


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"), "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "groundlattice" / "__init__.py").is_file():
        print(f"error: no groundlattice package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = workloads.WORKLOADS[args.workload]
    inp = work.inputs(args.seed)

    # set-up is timed once here and again after every pass, so that its
    # samples are spread over the run; the passes use the first set-up
    tracer = Tracer()
    setup_layers: dict = {}
    if args.trace:
        import_program()
        before = probe()
        tracer.install()
        work.setup(sys.modules["groundlattice"], inp)
        tracer.uninstall()
        setup_layers = traced_summary(tracer, at_reference_speed(1.0, (before + probe()) / 2))
    dt, wall, gl, st = timed_setup(work, inp)
    setup_times, setup_walls = [dt], [wall]
    program_modules = {k: m for k, m in sys.modules.items() if is_program_module(k)}
    ops = work.operations(gl, inp, st)

    # timed passes; with tracing, untraced and traced passes alternate.  Only
    # the first pass's answers are kept, for the checks; every later pass is
    # compared with it at once, so that memory does not grow with the passes
    plain, traced_passes, layers = [], [], []
    first, first_summary, problems, failed = None, None, [], 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and (len(plain) + len(traced_passes)) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.install()
        try:
            done = run_pass(gl, ops)
        finally:
            if traced:
                tracer.uninstall()
        pass_wall = time.perf_counter() - t0
        summary = [work.summary(op, out, inp) for op, out in zip(ops, done.answers)]
        if first is None:
            first, first_summary = done.answers, summary
        elif summary != first_summary:
            n = len(plain) + len(traced_passes) + 1
            problems.append(f"pass {n} answered differently from pass 1")
        failed += sum(isinstance(out, Failure) for out in done.answers)
        done.answers = []
        if traced:
            traced_passes.append(done)
            layers.append(traced_summary(tracer, done.scale))
        else:
            plain.append(done)
        for _ in range(SETUPS_PER_PASS):
            dt, wall, _, _ = timed_setup(work, inp)
            setup_times.append(dt)
            setup_walls.append(wall)
        for key in [k for k in sys.modules if is_program_module(k)]:
            del sys.modules[key]
        sys.modules.update(program_modules)
        gc.collect()     # the set-ups' modules, so that memory does not grow with passes
        elapsed = time.perf_counter() - start
        if elapsed + pass_wall > args.seconds and (not args.trace or traced_passes):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks, outside the timed passes
    problems = work.check(gl, inp, st, ops, first) + problems
    attempted = len(ops) * (len(plain) + len(traced_passes))

    decision_latencies = [t * p.scale for p in plain
                          for op, t in zip(ops, p.latencies) if op.kind in DECISIONS]
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(p.run_s for p in plain),
        "decisions_per_s": len(decision_latencies) / sum(decision_latencies),
        "decision_ms.p50": 1e3 * statistics.median(decision_latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        overhead = (statistics.median(p.run_s for p in traced_passes)
                    - end_to_end["run_s"])
        shown = layer_metrics(layers, setup_layers, overhead)
    else:
        shown = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "passes": {kind: {"run_s": [p.run_s for p in passes],
                                "wall_s": [p.wall_s for p in passes],
                                "probes": [p.probes for p in passes],
                                "probe_ms": [1e3 * p.probe_s for p in passes]}
                         for kind, passes in (("untraced", plain), ("traced", traced_passes))},
              "setups": {"setup_s": setup_times, "wall_s": setup_walls},
              "operations_per_pass": len(ops),
              "end_to_end": end_to_end, "metrics": metrics, "problems": problems}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    for k, v in shown.items():
        print(f"{args.workload:>20} {k:<36} {v[0]:>14.6g} {v[1]}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
