"""Span tracing of nvbmesh from outside the package.

A ``Tracer`` replaces public functions of the nvbmesh modules with wrappers
that record one span per call: name, start, end, parent span and pass id.
Calls inside the package look these names up when they are made, so the
wrappers see them; a function imported by value into another module (for
example ``marking.step_with_plan``) is replaced there too, wherever the
same function object is bound.  ``restore`` puts every original back.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans cover.  Counts are taken from
return values after a span has closed, so counting is not billed to the
layer being counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict


def _targets():
    """(owner, attribute, span name, counter) for every traced entry point."""
    from nvbmesh import (analysis, cli, correspondence, marking, mesh, meshio,
                         refine, stability)

    def count_close(tr, args, plan):
        tr.add("refine.closure_iterations", plan.iterations)
        tr.add("refine.closed_edges", len(plan.closed_edges))

    def count_split(tr, args, new):
        old, plan, policy = args["mesh"], args["plan"], args.get("policy")
        tr.add("refine.new_vertices", new.n_vertices - old.n_vertices)
        patterns = Counter(plan.pattern)
        full = [t for t, p in enumerate(plan.pattern)
                if p in refine.FULL_PATTERNS]
        if policy is not None and full:
            for p in refine.FULL_PATTERNS:
                patterns.pop(p, None)
            patterns.update(policy.choose(t, t in plan.marked_elements)
                            for t in full)
        for name, n in patterns.items():
            if name != refine.PATTERN_NONE:
                tr.add(f"refine.pattern.{name}", n)

    def count_step(tr, args, result):
        tr.add("refine.marked", len(args["marking"].elements))
        tr.add("refine.refined", len(result[1]))

    def count_marked(tr, args, marked):
        tr.add("marking.marked", len(marked))

    def count_written(tr, args, _):
        tr.add("meshio.bytes_written", os.path.getsize(args["path"]))

    def count_read(tr, args, _):
        tr.add("meshio.bytes_read", os.path.getsize(args["path"]))

    def count_pairs(tr, args, corr):
        tr.add("correspondence.pairs", len(corr.pairs))

    return [
        (cli, "main", "cli.main", None),
        (mesh, "build_edge_table", "mesh.build_edge_table", None),
        (mesh.Mesh, "__init__", "mesh.Mesh", None),
        (mesh, "validate_mesh", "mesh.validate_mesh", None),
        (marking, "select_marked", "marking.select_marked", count_marked),
        (refine, "refine_step", "refine.refine_step", None),
        (refine, "step_with_plan", "refine.step_with_plan", count_step),
        (refine, "close_marks", "refine.close_marks", count_close),
        (refine, "split", "refine.split", count_split),
        (refine, "uniform", "refine.uniform", None),
        (meshio, "write_mesh", "meshio.write_mesh", count_written),
        (meshio, "read_mesh", "meshio.read_mesh", count_read),
        (analysis, "verify_levels", "analysis.verify_levels", None),
        (analysis, "verify_neighbor_rules", "analysis.verify_neighbor_rules",
         None),
        (analysis, "closure_accounting", "analysis.closure_accounting", None),
        (stability, "compute_weights", "stability.compute_weights", None),
        (stability, "check_conditions", "stability.check_conditions", None),
        (stability, "measure_h1_stability", "stability.measure_h1_stability",
         None),
        (stability, "assemble", "stability.assemble", None),
        (stability, "prolongation", "stability.prolongation", None),
        (stability.SparseSystem, "mass_solve", "stability.mass_solve", None),
        (correspondence, "corresponding_sequence",
         "correspondence.corresponding_sequence", None),
        (correspondence, "transfer_marking", "correspondence.transfer_marking",
         None),
        (correspondence, "build_corr", "correspondence.build_corr",
         count_pairs),
        (correspondence, "verify_corr", "correspondence.verify_corr", None),
    ]


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, pass_id]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def add(self, name: str, value) -> None:
        self.counts[self.pass_id][name] += value

    def _wrap(self, func, name: str, counter):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, signature.bind(*args, **kwargs).arguments,
                        result)
            return result

        return wrapper

    def install(self) -> None:
        self._patched = []
        modules = [m for n, m in sys.modules.items()
                   if n == "nvbmesh" or n.startswith("nvbmesh.")]
        for owner, attr, name, counter in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original]
            for o in owners:
                self._patched.append((o, attr, original))
                setattr(o, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """Whether every wrapped attribute holds its original again."""
        return all(getattr(owner, attr) is original
                   for owner, attr, original in self._patched)

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Self time and call count per span name, plus counts, for one pass."""
        child = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            out[f"{name}.self_s"] = (out.get(f"{name}.self_s", 0.0)
                                     + (end - start) - child[i])
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out.update(self.counts[pass_id])
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
