"""Seeded workloads of the mixedwidths benchmark and the checks on their
outputs.

A workload is a list of units.  Each unit is one call the benchmark times
(one design or grid built and verified, one ``mixedwidths sweep``
invocation, one non-rigidity witness) and a check that turns the unit's output into one
list of problems per item (an item is a grid, a design, a sweep row or a
witness).  An empty list means the item is correct.  Checks never call the
library code they check, except the witness spot-check, which is run once
after timing.

Every input is drawn from the seed, but within a fixed skeleton: the seed
moves sizes inside windows that keep the design grid b' and the
repetition count l of each construction fixed, so two seeds cost about the
same and a figure measured on one seed can be confirmed on another.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mixedwidths import cli, designs, norms, partitions, spread, widths

from tracer import design_grid

# Captured before any tracing wrapper replaces the module attributes.
_CACHES = (designs.affine_line_design, partitions._good_partition_full)


def clear_caches() -> None:
    for cache in _CACHES:
        cache.cache_clear()


@dataclass
class Unit:
    label: str
    n_items: int
    run: Callable[[], object]
    check: Callable[[object], tuple[list[list[str]], str]]


# ---------------------------------------------------------------- checks


def expected_rl(s: int, b: int, d: int) -> tuple[int, int]:
    """(r, l) that good_partition must certify, recomputed from (s, b, d)
    the way the acceptance suite's partition criterion does."""
    if b == 1:
        return 1, 0
    b_full = design_grid(b, d)
    r = round(b_full ** (1 / d))
    return r, -(-(s * (r - 1)) // (b_full - 1))


def partition_cells_problems(partition, s: int, b: int) -> list[str]:
    """Independent check of the cover and group shapes of a partition:
    every cell of [s] x [b] in exactly one group, no group meeting a column
    twice, no group larger than the certified r."""
    problems = []
    if (partition.shape.s, partition.shape.b) != (s, b):
        problems.append(f"shape {partition.shape.s}x{partition.shape.b}, expected {s}x{b}")
    sizes = np.fromiter((len(g) for g in partition.groups), dtype=np.int64, count=len(partition.groups))
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.chain.from_iterable(partition.groups)),
        dtype=np.int64, count=2 * int(sizes.sum()),
    )
    rows, cols = flat[0::2], flat[1::2]
    if ((rows < 0) | (rows >= s) | (cols < 0) | (cols >= b)).any():
        return problems + ["cell outside the grid"]
    counts = np.bincount(cols * s + rows, minlength=s * b)
    if not (counts == 1).all():
        problems.append(
            f"cover broken: {int((counts == 0).sum())} cells missing, "
            f"{int((counts > 1).sum())} duplicated"
        )
    group = np.repeat(np.arange(sizes.size), sizes)
    if np.unique(group * b + cols).size != cols.size:
        problems.append("a group meets some column twice")
    if sizes.size and (sizes.min() < 1 or sizes.max() > partition.r):
        problems.append(f"group sizes span [{sizes.min()}, {sizes.max()}], certified r={partition.r}")
    return problems


def check_grid(s: int, b: int, d: int, partition, report) -> list[str]:
    problems = []
    if not report.ok:
        problems.append(f"verify_partition: {list(report.violations)[:3]}")
    if report.r_observed > partition.r:
        problems.append(f"r_observed {report.r_observed} > r {partition.r}")
    if report.l_observed > partition.l:
        problems.append(f"l_observed {report.l_observed} > l {partition.l}")
    if (partition.r, partition.l) != expected_rl(s, b, d):
        problems.append(f"(r, l) = ({partition.r}, {partition.l}), expected {expected_rl(s, b, d)}")
    return problems + partition_cells_problems(partition, s, b)


def check_design(r: int, d: int, design, report) -> list[str]:
    problems = []
    if not report.ok:
        problems.append(f"verify_design: {list(report.violations)[:3]}")
    if report.l_observed != 1:
        problems.append(f"l_observed {report.l_observed}, expected 1")
    m = r ** (d - 1) * (r**d - 1) // (r - 1)
    if design.m != m:
        problems.append(f"m = {design.m}, expected {m}")
    return problems


# The CSV header the README fixes for `mixedwidths sweep`, written out here
# rather than taken from cli, so a changed column layout fails the check.
SWEEP_HEADER = "s,b,d,k,r,l,dim,d0,sup_sampled_error,ratio,certified_bound"
SWEEP_FIELDS = SWEEP_HEADER.split(",")


def check_sweep(rc: int, text: str, sizes: list[int]) -> list[list[str]]:
    """One problem list per requested size, from the sweep CSV."""
    lines = text.splitlines()
    if rc != 0 or not lines or lines[0] != SWEEP_HEADER or len(lines) != len(sizes) + 1:
        whole = f"exit code {rc}, {len(lines)} lines, header {lines[0] if lines else None!r}"
        return [[whole] for _ in sizes]
    out = []
    for size, line in zip(sizes, lines[1:]):
        fields = line.split(",")
        if len(fields) != len(SWEEP_FIELDS):
            out.append([f"{len(fields)} fields, expected {len(SWEEP_FIELDS)}: {line!r}"])
            continue
        try:
            row = dict(zip(SWEEP_FIELDS, (float(v) for v in fields)))
        except ValueError:
            out.append([f"unparsable row {line!r}"])
            continue
        problems = []
        if not all(math.isfinite(v) for v in row.values()):
            problems.append(f"row not finite: {line!r}")
        elif (row["s"], row["b"]) != (size, size):
            problems.append(f"row for {row['s']}x{row['b']}, expected {size}x{size}")
        else:
            if row["sup_sampled_error"] > row["certified_bound"] + 1e-9:
                problems.append("sup_sampled_error exceeds certified_bound")
            if row["dim"] > row["s"] * row["b"]:
                problems.append("dim exceeds s*b")
        out.append(problems)
    return out


def check_witness(record, s: int, b: int) -> list[str]:
    problems = []
    if record.kind != "computed":
        problems.append(f"kind {record.kind!r}, expected 'computed'")
    if record.n is None or not 0 < record.n <= s * b:
        problems.append(f"n = {record.n} outside (0, {s * b}]")
    if record.error_ratio is None or not math.isfinite(record.error_ratio):
        problems.append(f"error ratio {record.error_ratio} not finite")
    return problems


# ------------------------------------------------------------- workloads


class Workload:
    name = ""

    def __init__(self, seed: int, **sizes):
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        """Generate the inputs and warm what users would have warm."""

    def before_round(self) -> None:
        """Untimed reset before each timed round."""

    def units(self) -> list[Unit]:
        raise NotImplementedError

    def spot_checks(self) -> list[list[str]]:
        """Checks run once after timing; one problem list each."""
        return []


# d, b' = r^d, s window, number of unaligned b drawn below b', aligned b = b'?
# Each s window keeps l = ceil(s*(r-1)/(b'-1)) constant.
BUILD_SKELETON = (
    (2, 256, (256, 272), 2, True),
    (2, 64, (64, 72), 1, True),
    (3, 512, (293, 320), 2, False),
    (3, 64, (64, 84), 1, True),
    (4, 256, (256, 320), 2, True),
    (4, 16, (64, 75), 1, True),
)


class Build(Workload):
    """Cold construction and verification, as ``mixedwidths design --verify``
    and ``mixedwidths partition --verify`` do."""

    name = "build"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        grids = []
        for d, b_full, (s_lo, s_hi), n_unaligned, aligned in self.sizes.get("skeleton", BUILD_SKELETON):
            s = int(rng.integers(s_lo, s_hi + 1))
            b_prev = round(b_full ** (1 / d)) // 2
            b_prev = b_prev**d if b_prev > 1 else 1
            hi = min(b_full, s)
            # upper half of the unaligned range, so verification cost varies little by seed
            lo = max(b_prev + 1, (b_prev + hi) // 2)
            bs = [int(b) for b in rng.integers(lo, hi + 1 - aligned, size=n_unaligned)]
            grids += [(s, b, d) for b in bs + ([b_full] if aligned else [])]
        self.grids = grids
        self.orders = sorted({(round(design_grid(b, d) ** (1 / d)), d) for s, b, d in grids})

    def before_round(self) -> None:
        clear_caches()

    def units(self) -> list[Unit]:
        out = []
        for r, d in self.orders:
            def run(r=r, d=d):
                design = designs.affine_line_design(r, d)
                return design, designs.verify_design(design)

            def check(res, r=r, d=d):
                design, report = res
                return [check_design(r, d, design, report)], f"{r},{d},{design.m},{report.ok},{report.l_observed}"

            out.append(Unit(f"design {r}^{d}", 1, run, check))
        for s, b, d in self.grids:
            def run(s=s, b=b, d=d):
                part = partitions.good_partition(s, b, d)
                return part, partitions.verify_partition(part)

            def check(res, s=s, b=b, d=d):
                part, rep = res
                summary = f"{s},{b},{d},{part.r},{part.l},{part.m},{part.dropped_empty},{rep.ok},{rep.r_observed},{rep.l_observed}"
                return [check_grid(s, b, d, part, rep)], summary

            out.append(Unit(f"partition {s}x{b} d={d}", 1, run, check))
        return out


SWEEP_TUPLES = (("inf", "1", "1", "2"), ("2", "1", "1", "2"))
SWEEP_WINDOWS = ((64, 72), (124, 132), (248, 256))
SWEEP_SAMPLES = 96
WIDE_TUPLE = ("inf", 1, 1, 2)
WIDE_WINDOWS = (((24, 32), (600, 680)), ((56, 64), (944, 1024)))
WIDE_SAMPLES = 6


class Pipeline(Workload):
    """The two pipeline drivers with warm partitions.

    ``mixedwidths sweep`` runs through ``cli.main`` in-process, one call per
    exceptional tuple over seeded square sizes.  ``widths.nonrigidity_witness``
    runs on wide grids (s < b), which is the grouped pipeline: one restriction
    and one SpreadOperator per point and column group.
    """

    name = "pipeline"

    def setup(self) -> None:
        clear_caches()
        rng = np.random.default_rng([self.seed, 1])
        self.square_sizes = [int(rng.integers(lo, hi + 1)) for lo, hi in self.sizes.get("sweep_windows", SWEEP_WINDOWS)]
        self.sweep_seed = int(rng.integers(0, 2**31))
        self.samples = self.sizes.get("samples", SWEEP_SAMPLES)
        self.grids = [
            (int(rng.integers(s_lo, s_hi + 1)), int(rng.integers(b_lo, b_hi + 1)), int(rng.integers(0, 2**31)))
            for (s_lo, s_hi), (b_lo, b_hi) in self.sizes.get("wide_windows", WIDE_WINDOWS)
        ]
        self.wide_samples = self.sizes.get("wide_samples", WIDE_SAMPLES)
        for p1, p2, q1, q2 in SWEEP_TUPLES:
            for n in self.square_sizes:
                d = spread.choose_pipeline_params(p1, p2, q1, q2, n, n).d
                partitions.good_partition(n, n, d)
        for s, b, _ in self.grids:
            d = spread.choose_pipeline_params(*WIDE_TUPLE, s, b).d
            for width in {min(s, b - lo) for lo in range(0, b, s)}:
                partitions.good_partition(s, width, d)

    def units(self) -> list[Unit]:
        out = []
        for p1, p2, q1, q2 in SWEEP_TUPLES:
            argv = [
                "sweep", "--p1", p1, "--p2", p2, "--q1", q1, "--q2", q2,
                "--sizes", *(f"{n}x{n}" for n in self.square_sizes),
                "--samples", str(self.samples), "--seed", str(self.sweep_seed),
            ]

            def run(argv=argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
                return rc, buf.getvalue()

            def check(res):
                rc, text = res
                return check_sweep(rc, text, self.square_sizes), text

            out.append(Unit(f"sweep ({p1},{p2},{q1},{q2})", len(self.square_sizes), run, check))
        for s, b, seed in self.grids:
            def run(s=s, b=b, seed=seed):
                return widths.nonrigidity_witness(
                    *WIDE_TUPLE, s, b, samples=self.wide_samples, seed=seed, strategy="auto"
                )

            def check(record, s=s, b=b):
                return [check_witness(record, s, b)], json.dumps(record.to_json_dict(), sort_keys=True)

            out.append(Unit(f"witness {s}x{b}", 1, run, check))
        return out

    def spot_checks(self) -> list[list[str]]:
        """measured <= certified on the first ball point and the first
        extreme point of each witness, through the grouped pipeline."""
        out = []
        for s, b, seed in self.grids:
            shape = norms.BlockShape(s, b)
            params = spread.choose_pipeline_params(*WIDE_TUPLE, s, b)
            points = norms.sample_ball(shape, "inf", 1, seed, 1) + norms.extreme_points_inf1(shape, seed + 1, 1)
            for x in points:
                res = spread.grouped_subspace_approximate(x, params)
                ok = res.measured_error <= res.certified_bound + 1e-9
                out.append([] if ok else [f"{s}x{b}: measured {res.measured_error} > certified {res.certified_bound}"])
        return out


WORKLOADS = {cls.name: cls for cls in (Build, Pipeline)}
