"""Partitions of the grid [s] x [b] with three structural guarantees:
bounded group size, at most one cell per column per group, and a bound on
how many groups may meet any two columns simultaneously.

The workhorse constructor assigns, for every column j, its s cells to the
s lowest-indexed input sets containing j; all three guarantees are then
inherited from the set system.  Good parameters come from repeating an
affine-line design enough times that every point is covered s-fold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, compress, islice
from typing import Sequence

import numpy as np

from .designs import _pair_multiplicities, affine_line_design, is_supported_order, repeat_design
from .norms import BlockShape

__all__ = [
    "Partition",
    "PartitionReport",
    "partition_from_sets",
    "good_partition",
    "restrict",
    "verify_partition",
    "singleton_partition",
]

Cell = tuple[int, int]


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of the grid [s] x [b] by nonempty cell groups.

    r bounds every group size, l bounds the number of groups meeting any
    fixed pair of columns; both are certified bounds carried from the
    construction, verify_partition reports the observed values.  Empty
    groups are dropped from ``groups`` but counted in ``dropped_empty``
    since the dimension of the induced subspace counts nonempty groups
    only.
    """

    shape: BlockShape
    groups: tuple[tuple[Cell, ...], ...]
    r: int
    l: int
    dropped_empty: int = 0

    @property
    def m(self) -> int:
        return len(self.groups)

    def to_json_dict(self) -> dict:
        return {
            "s": self.shape.s,
            "b": self.shape.b,
            "m": self.m,
            "r": self.r,
            "l": self.l,
            "dropped_empty": self.dropped_empty,
            "groups": [[[i, j] for (i, j) in g] for g in self.groups],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Partition":
        groups = tuple(tuple((int(i), int(j)) for i, j in g) for g in data["groups"])
        return cls(
            shape=BlockShape(int(data["s"]), int(data["b"])),
            groups=groups,
            r=int(data["r"]),
            l=int(data["l"]),
            dropped_empty=int(data.get("dropped_empty", 0)),
        )


def _flatten_groups(partition: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sizes, rows, cols) of partition.groups as int64 arrays: the size
    of each group, then the row and column of every cell, group by group."""
    groups = partition.groups
    sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
    cells = np.fromiter(
        chain.from_iterable(chain.from_iterable(groups)), dtype=np.int64, count=2 * int(sizes.sum())
    )
    return sizes, cells[0::2], cells[1::2]


def partition_from_sets(sets: Sequence[Sequence[int]], s: int, b: int) -> Partition:
    """Partition [s] x [b] by assigning column j's cells to the s
    lowest-indexed sets containing j.

    Requires every point of [b] to lie in at least s sets.  The certified
    r is the largest set size, the certified l the largest number of sets
    containing any single pair of points.

    A stable argsort of the flattened sets lists each point's sets in
    order, so a cell's row is its rank there; cells are then grouped by
    one stable sort of the (set, point) keys, whose distinct values also
    give the pairs counted for l.
    """
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    points = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=int(sizes.sum()))
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
    by_point = np.argsort(points, kind="stable")
    rank = np.empty_like(points)
    rank[by_point] = np.arange(points.size) - np.repeat(np.cumsum(counts) - counts, counts)
    del by_point
    keys = np.repeat(np.arange(sizes.size) * b, sizes) + points
    del points
    by_key = np.argsort(keys, kind="stable")
    keys, rank = keys[by_key], rank[by_key]
    del by_key
    l_bound = int(_pair_multiplicities(keys, b).max(initial=0))
    keep = rank < s
    group, col = np.divmod(keys[keep], b)
    group_sizes = np.bincount(group, minlength=sizes.size)
    ints = np.arange(max(s, b)).astype(object)  # one int object per index value
    cells = zip(ints[rank[keep]].tolist(), ints[col].tolist())
    del keys, rank, keep, group, col
    nonempty = tuple(tuple(islice(cells, n)) for n in group_sizes[group_sizes > 0].tolist())

    return Partition(
        shape=shape,
        groups=nonempty,
        r=int(sizes.max(initial=0)),
        l=l_bound,
        dropped_empty=len(sets) - len(nonempty),
    )


@lru_cache(maxsize=None)
def _good_partition_full(s: int, d: int, r: int) -> Partition:
    b_full = r**d
    l = -(-(s * (r - 1)) // (b_full - 1))  # ceil
    rep = repeat_design(affine_line_design(r, d), l)
    return partition_from_sets(rep.sets, s, b_full)


_FIELD_ORDERS = ("power_of_two", "smallest")


def _field_order(b: int, d: int, field_order: str) -> int:
    """Least r with r^d >= b among the powers of two ("power_of_two") or
    among all supported orders, primes and 2^u with u <= 6 ("smallest").
    The latter is never larger; both satisfy b^(1/d) <= r <= 2*b^(1/d)."""
    r = 2
    if field_order == "power_of_two":
        while r**d < b:
            r *= 2
    else:
        while r**d < b or not is_supported_order(r):
            r += 1
    return r


def good_partition(s: int, b: int, d: int, *, field_order: str = "power_of_two") -> Partition:
    """Partition of [s] x [b] (s >= b) with r between b^(1/d) and 2*b^(1/d).

    Routes through a design grid b' = r^d >= b: builds the affine-line
    design on b' points with block size r, repeats each set
    l = ceil(s*(r-1)/(b'-1)) times so every point is covered s-fold,
    partitions [s] x [b'], and restricts to the first b columns.

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
        groups = tuple(((i, 0),) for i in range(s))
        return Partition(BlockShape(s, 1), groups, r=1, l=0)

    full = _good_partition_full(s, d, _field_order(b, d, field_order))
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
    sizes, rows, cols = _flatten_groups(partition)
    keep = (rows < s) & (cols < b)
    kept = np.bincount(np.repeat(np.arange(sizes.size), sizes)[keep], minlength=sizes.size)
    cells = map(tuple, compress(chain.from_iterable(partition.groups), keep.tolist()))
    groups = tuple(tuple(islice(cells, n)) for n in kept[kept > 0].tolist())
    return replace(
        partition,
        shape=BlockShape(s, b),
        groups=groups,
        dropped_empty=partition.dropped_empty + partition.m - len(groups),
    )


def singleton_partition(s: int, b: int) -> Partition:
    """Every cell its own group: r = 1, l = 0; the induced map is the identity."""
    shape = BlockShape(s, b)
    groups = tuple(((i, j),) for j in range(b) for i in range(s))
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

    The cells are flattened into arrays: the cover comes from one
    bincount over the s*b cells, repeated columns from one sort of the
    (group, column) keys, and column sharing from an entry per pair of
    columns inside each group (a run of groups on the same columns
    counted once), summed after one sort.  The cost is a few int64
    arrays per cell plus one entry per column pair.

    Grids above 10^6 cells are still refused.  The check itself would
    manage them, but its input would not: groups held as tuples of cell
    tuples cost about 100 bytes per cell in Python objects before the
    check starts, so the bound stays until partitions are held as arrays.
    """
    s, b = partition.shape.s, partition.shape.b
    if s * b > 10**6:
        raise ValueError("grid too large for exhaustive verification")

    sizes, rows, cols = _flatten_groups(partition)
    group = np.repeat(np.arange(sizes.size), sizes)
    inside = (rows >= 0) & (rows < s) & (cols >= 0) & (cols < b)

    # (group, place in group, message), sorted into the order of a scan
    # over the groups and their cells
    found = [(int(k), -1, f"group {k} is empty") for k in np.flatnonzero(sizes == 0)]
    found += [
        (int(group[c]), int(c), f"group {group[c]} has cell ({rows[c]}, {cols[c]}) outside the grid")
        for c in np.flatnonzero(~inside)
    ]
    rows, cols, group = rows[inside], cols[inside], group[inside]
    seen = np.bincount(cols * s + rows, minlength=s * b)
    keys = group * b + cols
    del rows, cols, group
    keys.sort()
    repeated = set((keys[np.diff(keys, prepend=-1) == 0] // b).tolist())
    found += [(k, inside.size, f"group {k} meets some column more than once") for k in repeated]
    violations = [message for _, _, message in sorted(found)]

    cover_ok = bool((seen == 1).all())
    if not cover_ok:
        missing = int((seen == 0).sum())
        doubled = int((seen > 1).sum())
        violations.append(f"cover broken: {missing} cells missing, {doubled} duplicated")

    r_observed = int(sizes.max(initial=0))
    l_observed = int(_pair_multiplicities(keys, b).max(initial=0))
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
