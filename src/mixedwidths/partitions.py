"""Partitions of the grid [s] x [b] with three structural guarantees:
bounded group size, at most one cell per column per group, and a bound on
how many groups may meet any two columns simultaneously.

The workhorse constructor assigns, for every column j, its s cells to the
s lowest-indexed input sets containing j; all three guarantees are then
inherited from the set system.  Good parameters come from an affine-line
design with every line taken l times, enough that every point is covered
s-fold; good_partition builds that partition row by row, row i holding
the lines of the design's (i // l)-th direction.
"""

from __future__ import annotations

import gc
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain

import numpy as np

from .designs import (
    MAX_DESIGN_POINTS,
    SUPPORTED_ORDERS,
    PointSets,
    _owner_points,
    _pair_multiplicities,
    _Ragged,
    affine_line_design,
    design_size_error,
)
from .norms import BlockShape, _check_non_negative, _json_ints

__all__ = [
    "CellGroups",
    "Partition",
    "PartitionReport",
    "partition_from_sets",
    "good_partition",
    "restrict",
    "verify_partition",
    "singleton_partition",
]

Cell = tuple[int, int]

# Most cells of a grid the constructions build and verify_partition checks,
# one 4096 x 4096 grid: good_partition(4096, 4096, 2) peaks at 266 MiB and
# transposition_partition(4096) at its arrays' 320 MiB (tracemalloc), a
# SpreadOperator over either at a further 516 or 640 MiB, and
# verify_partition of either at about 206 or 472 MiB.
MAX_GRID_CELLS = MAX_DESIGN_POINTS**2


def _check_grid(s: int, b: int) -> None:
    """A ValueError when the grid [s] x [b] has over MAX_GRID_CELLS cells,
    raised before a construction allocates its arrays."""
    if s * b > MAX_GRID_CELLS:
        raise ValueError(f"grid {s}x{b} has {s * b} cells, over {MAX_GRID_CELLS}")


class CellGroups(_Ragged):
    """The cell groups of a partition as read-only int64 arrays: ``sizes``,
    then ``rows`` and ``cols``, the row and column of every cell, group by
    group.  It reads as the tuple of groups of (row, col) int tuples it
    stands for (designs._Ragged) and is built from one (or lists, as JSON
    gives them).  A cell that is not a pair, or an index that is a bool or
    has a fractional part, is a ValueError (norms._json_ints).  Cells may
    lie outside any grid and groups may be empty or overlap:
    verify_partition reports such defects.
    """

    __slots__ = _FIELDS = ("rows", "cols")

    def __new__(cls, groups: Sequence[Sequence[Cell]]):
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        cells = list(chain.from_iterable(groups))
        flat = np.array(cells, dtype=np.int64) if cells else np.empty((0, 2), dtype=np.int64)
        if flat.shape != (len(cells), 2):
            raise ValueError("every cell must be a (row, col) pair")
        _json_ints(list(chain.from_iterable(cells)), "cell index")  # np.array took True as 1 and 0.7 as 0
        return cls._of(sizes, flat[:, 0].copy(), flat[:, 1].copy())


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of the grid [s] x [b] by nonempty cell groups.

    r bounds every group size, l bounds the number of groups meeting any
    fixed pair of columns; both are certified bounds carried from the
    construction, verify_partition reports the observed values.  Empty
    groups are dropped from ``groups`` but counted in ``dropped_empty``
    since the dimension of the induced subspace counts nonempty groups
    only.

    ``groups`` is a CellGroups: the constructor takes a tuple of groups of
    (row, col) tuples and converts it, and the constructions build the
    arrays directly, at 16 bytes per cell and 8 per group.
    """

    shape: BlockShape
    groups: CellGroups
    r: int
    l: int
    dropped_empty: int = 0

    def __post_init__(self):
        _check_non_negative(r=self.r, l=self.l, dropped_empty=self.dropped_empty)
        if not isinstance(self.groups, CellGroups):
            object.__setattr__(self, "groups", CellGroups(self.groups))

    @property
    def m(self) -> int:
        return len(self.groups)

    def to_json_dict(self) -> dict:
        """The partition as JSON types.  The [row, col] lists of the cells
        are made from the cell arrays in one tolist, sharing one Python
        int per index when every cell lies in the grid, and each group
        is a slice of them.  The cyclic garbage collector is paused while
        the lists are made, since its passes over millions of new lists
        cost more than making them, and left as it was found."""
        groups = self.groups
        cells = np.stack([groups.rows, groups.cols], axis=1)
        n = max(self.shape.s, self.shape.b)
        if cells.size and cells.min() >= 0 and cells.max() < n:
            cells = np.arange(n, dtype=object)[cells]
        ends = np.cumsum(groups.sizes).tolist()
        collecting = gc.isenabled()
        gc.disable()
        try:
            cells = cells.tolist()
            cells = [cells[start:end] for start, end in zip([0, *ends], ends)]
        finally:
            if collecting:
                gc.enable()
        return {
            "s": self.shape.s,
            "b": self.shape.b,
            "m": self.m,
            "r": self.r,
            "l": self.l,
            "dropped_empty": self.dropped_empty,
            "groups": cells,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Partition":
        fields = [data["s"], data["b"], data["r"], data["l"], data.get("dropped_empty", 0)]
        s, b, r, l, dropped = _json_ints(fields, "partition field")
        groups = CellGroups(data["groups"])
        return cls(shape=BlockShape(s, b), groups=groups, r=r, l=l, dropped_empty=dropped)


def partition_from_sets(sets: Sequence[Sequence[int]], s: int, b: int) -> Partition:
    """Partition [s] x [b] by assigning column j's cells to the s
    lowest-indexed sets containing j.

    Requires every point of [b] to lie in at least s sets.  The certified
    r is the largest set size, the certified l the largest number of sets
    containing any single pair of points.

    A stable argsort of the flattened sets lists each point's sets in
    order, so a cell's row is its rank there; cells are then put in
    (set, point) order, by one stable sort of those keys unless every
    set's points already increase.  The pairs counted for l are those of
    each set's distinct points (designs._owner_points), by the one pair
    count, designs._pair_multiplicities.
    """
    sets = sets if isinstance(sets, PointSets) else PointSets(sets)
    sizes, points = sets.sizes, sets.points
    outside = (points < 0) | (points >= b)
    if outside.any():
        first = int(outside.argmax())
        k = np.searchsorted(np.cumsum(sizes), first, side="right")
        raise ValueError(f"set {k} contains point {points[first]} outside [0, {b})")
    shape = BlockShape(s, b)
    counts = np.bincount(points, minlength=b)
    short = np.flatnonzero(counts < s)
    if short.size:
        j = short[0]
        raise ValueError(
            f"point {j} lies in {counts[j]} sets, but every point needs at least {s}"
        )

    # Each temporary is dropped once used, to keep peak memory near one
    # int64 per membership times a few.
    held, distinct, _ = _owner_points(sizes, points, b)
    l_bound = int(_pair_multiplicities(held, distinct, b).max(initial=0))
    del held
    by_point = np.argsort(points, kind="stable")
    rank = np.empty_like(points)
    rank[by_point] = np.arange(points.size) - np.repeat(np.cumsum(counts) - counts, counts)
    del by_point
    keys = np.repeat(np.arange(sizes.size) * b, sizes) + points
    by_key = slice(None) if distinct is points else np.argsort(keys, kind="stable")
    del points, distinct
    keys, rank = keys[by_key], rank[by_key]
    del by_key
    keep = rank < s
    group, col = np.divmod(keys[keep], b)
    row = rank[keep]
    del keys, rank, keep
    group_sizes = np.bincount(group, minlength=sizes.size)
    nonempty = CellGroups._of(group_sizes[group_sizes > 0], row, col)

    return Partition(
        shape=shape,
        groups=nonempty,
        r=int(sizes.max(initial=0)),
        l=l_bound,
        dropped_empty=len(sets) - len(nonempty),
    )


# bounded, so a sweep over many sizes does not hold every partition it built
@lru_cache(maxsize=16)
def _good_partition_full(s: int, d: int, r: int) -> Partition:
    """The partition of [s] x [r^d] that partition_from_sets makes from
    the affine-line design on F_r^d with each line repeated
    l = ceil(s*(r-1)/(r^d - 1)) times, built row by row without the repeat.

    Line t has direction t // r^(d-1), and a point lies on one line of
    each direction, so its k-th line has its k-th direction: copy c of
    line t lies in the one row l*(t // r^(d-1)) + c, and row i holds the
    lines of direction i // l.  The groups are the copies whose row is
    below s, in (line, copy) order as partition_from_sets gives them.  The
    certified l is the repeat count: the design covers each pair once.
    """
    design = affine_line_design(r, d)
    b_full, m = design.b, design.m
    n_dir = (b_full - 1) // (r - 1)
    l = -(-s // n_dir)  # ceil(s*(r-1)/(b_full - 1))
    if l * n_dir < s:  # every point lies on n_dir lines, l copies each
        raise ValueError(f"point 0 lies in {l * n_dir} sets, but every point needs at least {s}")
    lines = design.sets.points.reshape(m, r)
    row = l * (np.arange(m) // (m // n_dir))[:, None] + np.arange(l)
    line, copy = np.nonzero(row < s)
    sizes = np.full(line.size, r, dtype=np.int64)
    groups = CellGroups._of(sizes, np.repeat(row[line, copy], r), lines[line].ravel())
    return Partition(BlockShape(s, b_full), groups, r=r, l=l, dropped_empty=m * l - line.size)


_FIELD_ORDERS = ("power_of_two", "smallest")


def _field_order(b: int, d: int, field_order: str) -> int:
    """Least r in SUPPORTED_ORDERS with r^d >= b, among its powers of two
    ("power_of_two") or all of it ("smallest").  The latter is never
    larger; both satisfy b^(1/d) <= r <= 2*b^(1/d).  Every b up to
    MAX_DESIGN_POINTS has one, since 64^d >= 4096 for d >= 2."""
    powers = field_order == "power_of_two"
    return next(r for r in SUPPORTED_ORDERS if r**d >= b and not (powers and r & (r - 1)))


def good_partition(s: int, b: int, d: int, *, field_order: str = "power_of_two") -> Partition:
    """Partition of [s] x [b] (s >= b) with r between b^(1/d) and 2*b^(1/d).

    Routes through a design grid b' = r^d >= b: builds the affine-line
    design on b' points with block size r, partitions [s] x [b'] as
    partition_from_sets does with each line taken l = ceil(s*(r-1)/(b'-1))
    times, so every point is covered s-fold (row i holds the lines of the
    (i // l)-th direction; the repeat is never built), and restricts to
    the first b columns.  A design grid over MAX_DESIGN_POINTS points or
    MAX_DESIGN_MEMBERSHIPS line memberships, and a grid [s] x [b'] over
    MAX_GRID_CELLS cells, are refused before anything is built; b over
    MAX_DESIGN_POINTS is refused before r is chosen.

    field_order picks r: "power_of_two" (the default) takes the least
    r = 2^u with r^d >= b; "smallest" takes the least supported order,
    prime or 2^u, which is never larger and so drops fewer groups.  The
    approximation pipeline uses "smallest".
    """
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    if b < 1:
        raise ValueError("b must be positive")
    if s < b:
        raise ValueError(
            f"s={s} < b={b}: this construction needs s >= b "
            "(group the columns first)"
        )
    if field_order not in _FIELD_ORDERS:
        raise ValueError(f"unknown field order {field_order!r}; choose from {_FIELD_ORDERS}")
    if b == 1:
        return singleton_partition(s, 1)
    # r = 2 is asked first, so a huge d is refused without searching powers
    too_large = design_size_error(2, d)
    if too_large is None and b > MAX_DESIGN_POINTS:
        too_large = f"b = {b} columns exceed the {MAX_DESIGN_POINTS} points of the largest design grid"
    if too_large is None:
        r = _field_order(b, d, field_order)
        too_large = design_size_error(r, d)
    if too_large is not None:
        raise ValueError(too_large)
    _check_grid(s, r**d)
    full = _good_partition_full(s, d, r)
    return restrict(full, s, b)


def restrict(partition: Partition, s: int, b: int) -> Partition:
    """Induced partition of the sub-grid [s] x [b]; empties are dropped
    and the certified (r, l) bounds are carried over unchanged."""
    if not (1 <= s <= partition.shape.s and 1 <= b <= partition.shape.b):
        raise ValueError(
            f"restriction {s}x{b} not inside {partition.shape.s}x{partition.shape.b}"
        )
    if s == partition.shape.s and b == partition.shape.b:
        return partition
    old = partition.groups
    keep = (old.rows < s) & (old.cols < b)
    # kept cells per group: reduceat sums the keep mask from each nonempty
    # group's start to the next one's, and empty groups keep none
    nonempty = old.sizes > 0
    kept = np.zeros(old.sizes.size, dtype=np.int64)
    if keep.size:
        starts = (np.cumsum(old.sizes) - old.sizes)[nonempty]
        kept[nonempty] = np.add.reduceat(keep, starts, dtype=np.int64)
    groups = CellGroups._of(kept[kept > 0], old.rows[keep], old.cols[keep])
    return replace(
        partition,
        shape=BlockShape(s, b),
        groups=groups,
        dropped_empty=partition.dropped_empty + partition.m - len(groups),
    )


def singleton_partition(s: int, b: int) -> Partition:
    """Every cell its own group: r = 1, l = 0; the induced map is the identity."""
    _check_grid(s, b)
    shape = BlockShape(s, b)
    groups = CellGroups._of(
        np.ones(shape.n, dtype=np.int64), np.tile(np.arange(s), b), np.repeat(np.arange(b), s)
    )
    return Partition(shape, groups, r=1, l=0)


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    r_observed: int
    l_observed: int
    cover_ok: bool
    violations: tuple[str, ...]


def verify_partition(partition: Partition) -> PartitionReport:
    """Exhaustive check of the cover and all three structural bounds.

    The check reads the partition's cell arrays (copied only when some
    cell is outside the grid).  The cover takes one byte per cell of the
    grid: it holds when there are s*b cells and each is hit, and only a
    broken cover is counted cell by cell, for its message.  Repeated
    columns come from a sort of the (group, column) keys made only when
    some group's columns do not increase, and column sharing from an
    entry per pair of columns inside each group (a run of groups on the
    same columns counted once), counted by designs._pair_multiplicities,
    the one pair count, which also gives the pipeline's column scores.

    Every grid up to MAX_GRID_CELLS is checked; larger ones are refused.
    At 4096 x 4096, good_partition(4096, 4096, d) for d = 2, 3 and 4
    peaks at about 200 MiB, 12.4 to 12.9 bytes a cell (tracemalloc), in
    about 0.5 to 0.8 s, and transposition_partition(4096), whose groups'
    columns decrease and so are sorted, at about 472 MiB, 29.5 bytes a
    cell, in about 1.6 s.
    """
    s, b = partition.shape.s, partition.shape.b
    if s * b > MAX_GRID_CELLS:
        raise ValueError(f"grid {s}x{b} has {s * b} cells, over {MAX_GRID_CELLS}: too large to verify")

    groups = partition.groups
    sizes, rows, cols = groups.sizes, groups.rows, groups.cols
    inside = (rows >= 0) & (rows < s) & (cols >= 0) & (cols < b)

    # (group, place in group, message), sorted into the order of a scan
    # over the groups and their cells
    found = [(int(k), -1, f"group {k} is empty") for k in np.flatnonzero(sizes == 0)]
    held = sizes
    if not inside.all():
        group = np.repeat(np.arange(sizes.size), sizes)
        found += [
            (int(group[c]), int(c), f"group {group[c]} has cell ({rows[c]}, {cols[c]}) outside the grid")
            for c in np.flatnonzero(~inside)
        ]
        held = np.bincount(group[inside], minlength=sizes.size)
        rows, cols = rows[inside], cols[inside]
    # s*b cells held, each hit at least once, means each exactly once
    cells = cols * s + rows
    hit = np.zeros(s * b, dtype=np.uint8)
    hit[cells] = 1
    cover_ok = cells.size == s * b and bool(hit.all())
    del hit
    if not cover_ok:
        seen = np.bincount(cells, minlength=s * b)
        missing = int((seen == 0).sum())
        doubled = int((seen > 1).sum())
        # reported after every group's violations
        found.append((sizes.size, 0, f"cover broken: {missing} cells missing, {doubled} duplicated"))
    del cells
    held, cols, repeated = _owner_points(held, cols, b)
    found += [(k, inside.size, f"group {k} meets some column more than once") for k in repeated]
    violations = [message for _, _, message in sorted(found)]

    r_observed = int(sizes.max(initial=0))
    l_observed = int(_pair_multiplicities(held, cols, b).max(initial=0))
    if r_observed > partition.r:
        violations.append(
            f"observed group size {r_observed} exceeds declared bound {partition.r}"
        )
    if l_observed > partition.l:
        violations.append(
            f"observed column sharing {l_observed} exceeds declared bound {partition.l}"
        )

    return PartitionReport(
        ok=not violations,
        r_observed=r_observed,
        l_observed=l_observed,
        cover_ok=cover_ok,
        violations=tuple(violations),
    )
