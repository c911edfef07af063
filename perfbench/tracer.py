"""Outside-in span tracer for the mixedwidths benchmark.

The package sources carry no instrumentation.  ``Tracer.install`` wraps
each traced function and patches the wrapper into every mixedwidths
module that holds the function under its name (the defining module, the
package namespace and every module that imported it with ``from ... import``),
so calls between layers are seen as well as calls from the benchmark.
``SpreadOperator.__init__`` is wrapped on the class.

Each span records its name, start, end, parent span and item id in
``array`` columns kept in memory.  The item id is the index of the
benchmark unit the span ran under (one grid, one design, one ``sweep``
invocation with all its rows, one witness), counted across rounds.
``dump`` writes the spans out once the run has ended.  A span's self time
is its duration minus the durations of its direct children: calls nest on
one thread, so that is the part of its interval the children cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

import numpy as np

# (module, attribute) pairs; "SpreadOperator.__init__" names a method.
TARGETS = (
    ("designs", "affine_line_design"),
    ("designs", "repeat_design"),
    ("designs", "verify_design"),
    ("partitions", "partition_from_sets"),
    ("partitions", "good_partition"),
    ("partitions", "restrict"),
    ("partitions", "verify_partition"),
    ("spread", "SpreadOperator.__init__"),
    ("spread", "approximate"),
    ("spread", "grouped_subspace_approximate"),
    ("norms", "sample_ball"),
    ("norms", "extreme_points_inf1"),
    ("norms", "block_norm_vector"),
    ("norms", "lq_norm"),
    ("norms", "mixed_norm"),
    ("widths", "nonrigidity_witness"),
    ("cli", "sweep_row"),
    ("cli", "main"),
)

MODULES = ("designs", "norms", "partitions", "spread", "widths", "cli")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__init__', '.init')}"


def design_grid(b: int, d: int) -> int:
    """The b' = 2^(u*d) >= b that good_partition builds before restricting."""
    if b == 1:
        return 1
    u = 1
    while 2 ** (u * d) < b:
        u += 1
    return 2 ** (u * d)


# Argument summaries kept per span, for the ratio metrics.  The library
# passes these arguments positionally.
ARG_RECORDERS = {
    "partitions.good_partition": lambda args: tuple(int(a) for a in args[:3]),
    "partitions.verify_partition": lambda args: args[0].shape.n,
}


# The per-layer metrics the traced run reports, with their units.
PER_LAYER = {
    "designs.affine_line_design.self_s": "s",
    "designs.affine_line_design.misses": "count",
    "designs.repeat_design.self_s": "s",
    "designs.verify_design.self_s": "s",
    "partitions.partition_from_sets.self_s": "s",
    "partitions.good_partition.self_s": "s",
    "partitions.good_partition.calls": "count",
    "partitions.good_partition.distinct_ratio": "ratio",
    "partitions.kept_cell_ratio": "ratio",
    "partitions.restrict.self_s": "s",
    "partitions.restrict.calls": "count",
    "partitions.verify_partition.self_s": "s",
    "partitions.verify_partition.cells_per_s": "1/s",
    "spread.SpreadOperator.init.self_s": "s",
    "spread.SpreadOperator.init.calls": "count",
    "spread.approximate.self_s": "s",
    "spread.approximate.calls": "count",
    "spread.grouped_subspace_approximate.self_s": "s",
    "norms.sample_ball.self_s": "s",
    "norms.extreme_points_inf1.self_s": "s",
    "norms.block_norm_vector.self_s": "s",
    "norms.lq_norm.self_s": "s",
    "norms.lq_norm.calls": "count",
    "norms.mixed_norm.self_s": "s",
    "norms.mixed_norm.calls": "count",
    "widths.nonrigidity_witness.self_s": "s",
    "widths.nonrigidity_witness.p50_s": "s",
    "cli.sweep_row.self_s": "s",
    "cli.sweep_row.p50_s": "s",
    "cli.sweep_row.max_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Span recorder; ``install`` patches the wrappers in, ``uninstall``
    restores the original functions."""

    def __init__(self):
        self.names = [span_name(m, a) for m, a in TARGETS]
        self.name = array("l")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self.span_args: dict[int, object] = {}
        self.item_id = -1
        self.round_bounds: list[tuple[int, int]] = []
        self.design_misses: list[int] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._round_open: tuple[int, int] | None = None
        self._design_cache = importlib.import_module("mixedwidths.designs").affine_line_design

    def next_item(self) -> None:
        """Spans from here on belong to the next benchmark unit."""
        self.item_id += 1

    def _wrap(self, name_id: int, fn):
        name = self.names[name_id]
        record = ARG_RECORDERS.get(name)
        names, parents, items = self.name, self.parent, self.item
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            items.append(self.item_id)
            ends.append(0.0)
            if record is not None:
                self.span_args[idx] = record(args)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("mixedwidths")
        modules = [package] + [importlib.import_module(f"mixedwidths.{m}") for m in MODULES]
        for name_id, (mod_name, attr) in enumerate(TARGETS):
            home = importlib.import_module(f"mixedwidths.{mod_name}")
            if attr.endswith(".__init__"):
                cls = getattr(home, attr.split(".")[0])
                original = cls.__dict__["__init__"]
                self._patch(cls, "__init__", original, self._wrap(name_id, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name_id, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_round(self) -> None:
        self._round_open = (len(self.name), self._design_cache.cache_info().misses)

    def end_round(self) -> None:
        first, misses = self._round_open
        self.round_bounds.append((first, len(self.name)))
        self.design_misses.append(self._design_cache.cache_info().misses - misses)
        self._round_open = None

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "item": np.asarray(self.item, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
        }

    def dump(self, path: str) -> None:
        """Write every recorded span as columns of a compressed .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names), **self.columns())

    def layer_metrics(self) -> dict[str, float]:
        """The PER_LAYER figures except trace.overhead_ratio: self times and
        call counts are means per traced round."""
        rounds = len(self.round_bounds)
        if rounds == 0:
            raise RuntimeError("no traced rounds")
        cols = self.columns()
        name, parent = cols["name"], cols["parent"]
        dur = cols["end"] - cols["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - covered

        out: dict[str, float] = {}
        for name_id, label in enumerate(self.names):
            mask = name == name_id
            out[f"{label}.self_s"] = float(self_time[mask].sum()) / rounds
            out[f"{label}.calls"] = float(mask.sum()) / rounds

        def p50_max(label):
            d = dur[name == self.names.index(label)]
            return (float(np.median(d)), float(d.max())) if d.size else (0.0, 0.0)

        out["cli.sweep_row.p50_s"], out["cli.sweep_row.max_s"] = p50_max("cli.sweep_row")
        out["widths.nonrigidity_witness.p50_s"], _ = p50_max("widths.nonrigidity_witness")
        out["designs.affine_line_design.misses"] = sum(self.design_misses) / rounds

        verify_id = self.names.index("partitions.verify_partition")
        verify_ids = [i for i in self.span_args if name[i] == verify_id]
        verify_time = float(dur[verify_ids].sum()) if verify_ids else 0.0
        verify_cells = sum(self.span_args[i] for i in verify_ids)
        out["partitions.verify_partition.cells_per_s"] = verify_cells / verify_time if verify_time else 0.0

        gp_id = self.names.index("partitions.good_partition")
        ratios, kept, built = [], 0, 0
        for first, last in self.round_bounds:
            keys = [v for i, v in self.span_args.items() if first <= i < last and name[i] == gp_id]
            if keys:
                ratios.append(len(set(keys)) / len(keys))
            for s, b, d in keys:
                kept += s * b
                built += s * design_grid(b, d)
        out["partitions.good_partition.distinct_ratio"] = float(np.mean(ratios)) if ratios else 0.0
        out["partitions.kept_cell_ratio"] = kept / built if built else 0.0
        return {k: out[k] for k in PER_LAYER if k != "trace.overhead_ratio"}
