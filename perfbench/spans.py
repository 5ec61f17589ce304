"""Spans around the library's public functions, recorded from outside.

A :class:`Tracer` replaces each traced function by a wrapper in every
module of the package that binds it (``from .x import f`` makes one binding
per importing module), records one span per call with a link to the span
that was open when it started, and puts the originals back on
:meth:`Tracer.uninstall`.  Self time is a span's duration minus the time
covered by its child spans; total time counts only spans with no open
ancestor of the same name, so recursion is not counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: (metric prefix, module, attribute): the layer boundaries that are traced
TARGETS = [
    ("exactla.simplex_max", "groundlattice.exactla", "simplex_max"),
    ("exactla.null_space", "groundlattice.exactla", "null_space"),
    ("subspace.linear_section", "groundlattice.subspace", "linear_section"),
    ("subspace.from_spanning_set", "groundlattice.subspace", "from_spanning_set"),
    ("linalg.eig_herm", "groundlattice.linalg", "eig_herm"),
    ("linalg.nullspace_cols", "groundlattice.linalg", "nullspace_cols"),
    ("linalg.image_intersection", "groundlattice.linalg", "image_intersection"),
    ("linalg.Projection.same_image", "groundlattice.linalg", "Projection.same_image"),
    ("cone.analyze_cone", "groundlattice.cone", "analyze_cone"),
    ("cone.extreme_rays", "groundlattice.cone", "extreme_rays"),
    ("lattice.is_ground_projection", "groundlattice.lattice", "is_ground_projection"),
    ("lattice.is_coatom", "groundlattice.lattice", "is_coatom"),
    ("lattice.coatom_decomposition", "groundlattice.lattice", "coatom_decomposition"),
    ("lattice.enumerate_coatoms", "groundlattice.lattice", "enumerate_coatoms"),
    ("lattice.close_to_lattice", "groundlattice.lattice", "close_to_lattice"),
    ("lattice.lattice_from_nodes", "groundlattice.lattice", "lattice_from_nodes"),
    ("manybody.build_klocal", "groundlattice.manybody", "build_klocal"),
    ("numpy.linalg.eigh", "numpy.linalg", "eigh"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.returned: dict[str, int] = defaultdict(int)   # summed len() of list results
        self._restore: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, stack, errors, returned = self.spans, self.stack, self.errors, self.returned
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                errors[(name, type(err).__name__)] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if isinstance(out, list):
                returned[name] += len(out)
            return out

        return traced

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:                      # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            bindings = [m for key, m in list(sys.modules.items())
                        if key == module_name or key.startswith("groundlattice")]
            for module in bindings:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reading ---------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.errors.clear()
        self.returned.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms (outermost spans), self ms."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_ms"] += 1e3 * (end - start - child[i])
            if not self._has_ancestor(parent, name):
                row["ms"] += 1e3 * (end - start)
        return dict(out)

    def _has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
