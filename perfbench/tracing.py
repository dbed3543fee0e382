"""Span recorder for the traced benchmark run.

The recorder wraps the public functions the adaptive loop calls across
module boundaries, records one span per call, and restores the originals
when its ``installed`` block ends.  Nothing under ``src/lsfem`` changes.
Spans stay in memory; the caller writes them out once the run is over.

Level indices come from the loop's shape: every level starts with exactly
one ``build_dofmap`` call from ``lsfem.driver``, so the n-th such call opens
level n - 1.  Spans opened before the first level (the CLI entry, the loop
itself) carry level ``None``; the final writes carry the last level's.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
import weakref
from dataclasses import asdict, dataclass, field
from typing import Optional

# (module, attribute, span name) of every wrapped callable.  The
# ``lsfem.driver`` entries are the names that module imports, so patching
# them there catches exactly the loop's own calls.
TARGETS = (
    ("lsfem.cli", "run_adaptive", "driver.run_adaptive"),
    ("lsfem.driver", "build_dofmap", "spaces.build_dofmap"),
    ("lsfem.driver", "assemble_system", "assembly.assemble_system"),
    ("lsfem.driver", "exact_solve", "solver.exact_solve"),
    ("lsfem.driver", "pcg_run", "solver.pcg_run"),
    ("lsfem.driver", "prolongate", "spaces.prolongate"),
    ("lsfem.driver", "compute_indicators", "estimator.compute_indicators"),
    ("lsfem.driver", "compute_error_norms", "estimator.compute_error_norms"),
    ("lsfem.driver", "mark", "marking.mark"),
    ("lsfem.driver", "refine_nvb", "mesh.refine_nvb"),
    ("lsfem.spaces", "prolongation_matrix", "spaces.prolongation_matrix"),
    ("lsfem.assembly", "SparseSpd.factor", "assembly.SparseSpd.factor"),
    ("lsfem.cli", "write_mesh_text", "formats.write_mesh_text"),
    ("lsfem.cli", "write_vtk", "formats.write_vtk"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    level: Optional[int]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def target_owner(module_name, attr):
    """The module or class holding a target, and the target's own name."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Recorder:
    """Collects spans of one run; single-threaded, like the program."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._level = None
        # SparseSpd objects whose factor was built, and those of them whose
        # factor exact_solve then used; weak, so the trace keeps no system alive
        self._built = weakref.WeakSet()
        self._used = weakref.WeakSet()

    def call(self, name, fn, args, kwargs, after=None):
        """Run ``fn`` inside a span; ``after(span, args, result)`` adds counts."""
        if name == "spaces.build_dofmap":       # the first call of every level
            self._level = 0 if self._level is None else self._level + 1
        span = Span(name=name, start=0.0, end=0.0,
                    parent=self._stack[-1] if self._stack else None,
                    run=self.run_id, level=self._level)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(span, args, result)
        return result

    def _counter(self, name):
        """The ``after`` hook that records counts for span ``name``, if any."""
        def dofs(span, args, result):
            span.attrs["dofs"] = int(result.n_total)

        def nnz(span, args, result):
            span.attrs["nnz"] = int(result[0].matrix.nnz)

        def factor(span, args, result):
            span.attrs["built"] = args[0] not in self._built
            self._built.add(args[0])

        def solve(span, args, result):
            span.attrs["first_use"] = (args[0] in self._built
                                       and args[0] not in self._used)
            if span.attrs["first_use"]:
                self._used.add(args[0])

        def pcg(span, args, result):
            span.attrs["iterations"] = int(result.iterations)
            span.attrs["stop_reason"] = result.stop_reason

        def prolongated(span, args, result):
            span.attrs["dofs"] = int(len(result))

        def marked(span, args, result):
            span.attrs["marked"] = int(len(result))
            span.attrs["elements"] = int(len(args[1]))

        def bisections(span, args, result):
            span.attrs["bisections"] = int(result.n_elements
                                           - args[0].n_elements)

        def written(span, args, result):
            span.attrs["bytes"] = os.path.getsize(args[0])

        return {
            "spaces.build_dofmap": dofs,
            "assembly.assemble_system": nnz,
            "assembly.SparseSpd.factor": factor,
            "solver.exact_solve": solve,
            "solver.pcg_run": pcg,
            "spaces.prolongate": prolongated,
            "marking.mark": marked,
            "mesh.refine_nvb": bisections,
            "formats.write_mesh_text": written,
            "formats.write_vtk": written,
        }.get(name)

    def _wrap(self, name, fn):
        after = self._counter(name)

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after=after)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                owner, leaf = target_owner(module_name, attr)
                original = owner.__dict__[leaf]
                setattr(owner, leaf, self._wrap(name, original))
                saved.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def to_json(self):
        return [asdict(span) for span in self.spans]


# -- analysis ------------------------------------------------------------------

def self_times(spans):
    """Duration of each span minus the part of it its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cursor = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo = max(kid.start, cursor)
            hi = min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.duration - covered)
    return result


def spans_from_json(items):
    return [Span(**item) for item in items]


def layer_metrics(spans):
    """Per-layer metrics of one traced run, keyed by benchmark metric name."""
    selfs = self_times(spans)

    def total(name, own=False):
        return sum(s if own else span.duration
                   for span, s in zip(spans, selfs) if span.name == name)

    def attr_sum(name, key):
        return sum(span.attrs.get(key, 0) for span in spans
                   if span.name == name)

    def named(name):
        return [span for span in spans if span.name == name]

    pcg_indices = {i for i, span in enumerate(spans)
                   if span.name == "solver.pcg_run"}
    in_pcg = sum(span.duration for span in named("estimator.compute_indicators")
                 if span.parent in pcg_indices)
    factors_built = attr_sum("assembly.SparseSpd.factor", "built")
    factors_used = attr_sum("solver.exact_solve", "first_use")
    marked = attr_sum("marking.mark", "marked")
    marked_of = attr_sum("marking.mark", "elements")
    return {
        "mesh.refine_s": total("mesh.refine_nvb"),
        "mesh.refine_calls": len(named("mesh.refine_nvb")),
        "mesh.bisections": attr_sum("mesh.refine_nvb", "bisections"),
        "spaces.dofmap_s": total("spaces.build_dofmap"),
        "spaces.prolongate_s": total("spaces.prolongate"),
        "spaces.prolongated_dofs": attr_sum("spaces.prolongate", "dofs"),
        "assembly.assemble_self_s": total("assembly.assemble_system", own=True),
        "assembly.factor_s": total("assembly.SparseSpd.factor"),
        "assembly.factors_built": factors_built,
        "assembly.factor_use_ratio": (factors_used / factors_built
                                      if factors_built else 0.0),
        "assembly.matrix_nnz": attr_sum("assembly.assemble_system", "nnz"),
        "solver.exact_s": total("solver.exact_solve", own=True),
        "solver.pcg_self_s": total("solver.pcg_run", own=True),
        "solver.pcg_iterations": attr_sum("solver.pcg_run", "iterations"),
        "solver.pcg_max_iter_stops": sum(
            span.attrs.get("stop_reason") == "max_iter"
            for span in named("solver.pcg_run")),
        "estimator.indicators_s": total("estimator.compute_indicators"),
        "estimator.indicators_calls": len(named("estimator.compute_indicators")),
        "estimator.indicators_in_pcg_s": in_pcg,
        "estimator.error_norms_s": total("estimator.compute_error_norms"),
        "marking.mark_s": total("marking.mark"),
        "marking.marked_share": marked / marked_of if marked_of else 0.0,
        "driver.self_s": total("driver.run_adaptive", own=True),
        "formats.write_s": (total("formats.write_mesh_text")
                            + total("formats.write_vtk")),
        "formats.bytes_written": (attr_sum("formats.write_mesh_text", "bytes")
                                  + attr_sum("formats.write_vtk", "bytes")),
    }


# Stage columns of the per-level table: (column, span name, self time?).
STAGES = (
    ("refine", "mesh.refine_nvb", False),
    ("dofmap", "spaces.build_dofmap", False),
    ("assemble", "assembly.assemble_system", True),
    ("factor", "assembly.SparseSpd.factor", False),
    ("exact_solve", "solver.exact_solve", True),
    ("pcg", "solver.pcg_run", True),
    ("prolongate", "spaces.prolongate", False),
    ("indicators", "estimator.compute_indicators", False),
    ("error_norms", "estimator.compute_error_norms", False),
    ("mark", "marking.mark", False),
)


def level_table(spans):
    """Seconds per stage and level, with each level's dof count."""
    selfs = self_times(spans)
    levels = sorted({span.level for span in spans if span.level is not None})
    rows = []
    for level in levels:
        row = {"level": level, "n_dofs": None}
        for column, name, own in STAGES:
            row[column] = sum(s if own else span.duration
                              for span, s in zip(spans, selfs)
                              if span.level == level and span.name == name)
        for span in spans:
            if span.level == level and span.name == "spaces.build_dofmap":
                row["n_dofs"] = span.attrs["dofs"]
        rows.append(row)
    return rows
