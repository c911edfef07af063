"""Finite fields of prime or 2^u order, and pairwise-balanced set systems.

The central construction is the family of all affine lines in the space
F_r^d: it covers every pair of points exactly once, every point lies on
(b-1)/(r-1) lines, and there are r^(d-1) * (r^d - 1)/(r - 1) lines in
total.  Repeating every set h times multiplies the pair coverage by h.

GF(r) is held as its r x r addition and multiplication tables
(field_tables), all the line construction needs.  affine_line_design
refuses a bad dimension, field order or grid size itself, before it
builds anything, and fills a Design's int64 arrays (PointSets) directly.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from .norms import _check_non_negative, _json_ints

__all__ = [
    "field_tables",
    "Design",
    "DesignReport",
    "PointSets",
    "is_supported_order",
    "affine_line_design",
    "repeat_design",
    "verify_design",
]

# Largest ground set r^d the toolkit builds a design on.  Of the designs
# both caps admit, verify_design peaks highest at 4^6 (about 139 MiB), then
# 8^4 (131 MiB), 16^3 (129 MiB) and 64^2 (128 MiB); 2^11 takes 44 MiB.
MAX_DESIGN_POINTS = 4096

# Largest field order a design within MAX_DESIGN_POINTS can use (d >= 2);
# field_tables refuses larger orders before it allocates r^2 entries.
MAX_FIELD_ORDER = math.isqrt(MAX_DESIGN_POINTS)

# Largest number of (line, point) memberships m*r of a design the toolkit
# builds.  Of the designs within MAX_DESIGN_POINTS only 2^12 (16.8 million)
# is over it: four times 2^11 (4.2 million), built cold in about 0.8 s
# (peak 80 MiB) and verified in 0.1 s (44 MiB); 4^6 (5.6 million) in 0.3 s.
MAX_DESIGN_MEMBERSHIPS = 6_000_000


def design_size_error(r: int, d: int) -> str | None:
    """Why the affine-line design on F_r^d (r >= 2) is too large to
    build, or None when it is within both caps.  The points come first:
    once d reaches the cap's bit length 2^d alone exceeds it, so a huge d
    is decided without computing the power.  Both counts grow with r, so
    r = 2 refused means every order is."""
    if d >= MAX_DESIGN_POINTS.bit_length() or r**d > MAX_DESIGN_POINTS:
        return f"design grid r^d = {r}^{d} exceeds {MAX_DESIGN_POINTS} points"
    n = r**d
    memberships = n * (n - 1) // (r - 1)
    if memberships > MAX_DESIGN_MEMBERSHIPS:
        return (
            f"design grid r^d = {r}^{d} has {memberships} line memberships,"
            f" over {MAX_DESIGN_MEMBERSHIPS}"
        )
    return None


# Smallest irreducible polynomial over GF(2) per extension degree,
# bit-encoded with the x^u term as the top bit; fixed so that field
# arithmetic (and everything built on it) is reproducible bit-exactly.
_IRREDUCIBLE = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
}


# The field orders field_tables builds, none above MAX_FIELD_ORDER: the
# primes, whose fields are the integers mod r, and 2^u for each
# _IRREDUCIBLE degree u.  The other prime powers up to 64 (9, 25, 27, 49)
# have no tables.
SUPPORTED_ORDERS = tuple(
    sorted(
        {r for r in range(2, MAX_FIELD_ORDER + 1) if all(r % f for f in range(2, r))}
        | {2**u for u in _IRREDUCIBLE}
    )
)


def is_supported_order(r: int) -> bool:
    """True for the orders of SUPPORTED_ORDERS, False for every other
    integer.  Any integer type is taken as its int; a float is a
    TypeError."""
    return operator.index(r) in SUPPORTED_ORDERS


def field_tables(r: int) -> tuple[np.ndarray, np.ndarray]:
    """GF(r)'s addition and multiplication tables, int64 r x r arrays, for
    r in SUPPORTED_ORDERS: the integers mod r for an odd prime r, and for
    r = 2^u polynomials over GF(2) modulo _IRREDUCIBLE[u], bit-encoded, so
    that x + y is x XOR y.  Any other r is a ValueError."""
    if r > MAX_FIELD_ORDER:
        raise ValueError(f"field order {r} exceeds {MAX_FIELD_ORDER}, the largest order a design can use")
    if r not in SUPPORTED_ORDERS:
        raise ValueError(f"field order {r} is neither a prime nor 2^u with 1 <= u <= 6")
    x = np.arange(r, dtype=np.int64)
    if r & (r - 1):  # an odd prime
        return np.add.outer(x, x) % r, np.multiply.outer(x, x) % r
    u = r.bit_length() - 1
    mul = np.zeros((r, r), dtype=np.int64)
    shifted = x.copy()  # x * t^k, reduced
    for k in range(u):
        mul ^= shifted[:, None] * ((x >> k) & 1)  # added where y has bit k
        shifted <<= 1
        shifted ^= np.where(shifted & r, _IRREDUCIBLE[u], 0)
    return np.bitwise_xor.outer(x, x), mul


class _Ragged(Sequence):
    """A tuple of int tuples as read-only int64 arrays: ``sizes``, then one
    array per name in _FIELDS holding every item's members in turn (an
    int for one field, a tuple of ints for several).  It reads, slices,
    iterates, compares (either way round) and hashes as that tuple, and
    copies and pickles as read-only arrays.
    """

    __slots__ = ("sizes", "_ends")
    _FIELDS: tuple[str, ...] = ()

    @classmethod
    def _of(cls, *arrays: np.ndarray):
        """Items over new int64 arrays, sizes then _FIELDS, handed over."""
        held = object.__new__(cls)
        for name, a in zip(("sizes", *cls._FIELDS), arrays):
            a.setflags(write=False)
            setattr(held, name, a)
        held._ends = None
        return held

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in ("sizes", *self._FIELDS))

    def __reduce__(self):
        return type(self)._of, self._arrays()

    def _members(self, start: int = 0, end: int | None = None):
        columns = [a[start:end].tolist() for a in self._arrays()[1:]]
        return zip(*columns) if len(columns) > 1 else columns[0]

    def __len__(self) -> int:
        return self.sizes.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        k = range(len(self))[k]  # negative indices, and IndexError out of range
        if self._ends is None:
            self._ends = np.cumsum(self.sizes)
        end = int(self._ends[k])
        return tuple(self._members(end - int(self.sizes[k]), end))

    def __iter__(self):
        members = iter(self._members())
        return (tuple(islice(members, n)) for n in self.sizes.tolist())

    def __eq__(self, other):
        if type(other) is type(self):
            return all(map(np.array_equal, self._arrays(), other._arrays()))
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"


class PointSets(_Ragged):
    """A design's sets: ``sizes``, then ``points`` of every set in turn.
    Sets may be ragged, repeat a point or leave the ground set; a point
    that is a bool or has a fractional part is a ValueError
    (norms._json_ints)."""

    __slots__ = _FIELDS = ("points",)

    def __new__(cls, sets: Sequence[Sequence[int]]):
        sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        points = _json_ints(list(chain.from_iterable(sets)), "set point")
        return cls._of(sizes, np.fromiter(points, np.int64, int(sizes.sum())))


@dataclass(frozen=True)
class Design:
    """m sets of size r over ground set [b], every pair covered l times.

    Point indices are 0-based; each point lies in l*(b-1)/(r-1) sets and
    m = l*b*(b-1)/(r^2 - r) whenever the coverage is exact.  ``sets`` is a
    PointSets; the constructor converts a tuple (or lists) of int tuples.
    """

    b: int
    r: int
    l: int
    sets: PointSets

    def __post_init__(self):
        _check_non_negative(r=self.r, l=self.l)
        if not isinstance(self.sets, PointSets):
            object.__setattr__(self, "sets", PointSets(self.sets))

    @property
    def m(self) -> int:
        return len(self.sets)

    def point_replication(self) -> list[int]:
        return np.bincount(self.sets.points, minlength=self.b).tolist()

    def to_json_dict(self) -> dict:
        sizes, points = self.sets.sizes, self.sets.points
        if points.size and sizes.min() == sizes.max() and 0 <= points.min() and points.max() < self.b:
            # one reshape, and one int object per point of [b], shared by the lists
            sets = np.arange(self.b, dtype=object)[points.reshape(sizes.size, -1)].tolist()
        else:
            sets = [list(s) for s in self.sets]
        return {"b": self.b, "r": self.r, "l": self.l, "sets": sets}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Design":
        b, r, l = _json_ints([data["b"], data["r"], data["l"]], "design field")
        return cls(b=b, r=r, l=l, sets=data["sets"])


# bounded, so a sweep over many sizes does not hold every design it built
@lru_cache(maxsize=16)
def affine_line_design(r: int, d: int) -> Design:
    """All affine lines {a + t*v : t in F_r} of F_r^d as a design on r^d points.

    Points are indexed by their position in lexicographic coordinate
    order.  Lines are emitted grouped by canonical direction (first
    nonzero coordinate scaled to 1), each direction's lines ordered by
    smallest point, so the output is deterministic: line t has direction
    t // r^(d-1), since each direction has r^(d-1) parallel lines.

    A line of direction v, whose leading coordinate is v_i = 1, meets the
    hyperplane x_i = 0 exactly once, at its smallest point.  So v's lines
    are a + t*v for the r^(d-1) points a of that hyperplane, in order,
    computed in the field tables for every direction of lead i at once,
    and then sorted, into one (m, r) int64 array.

    Bad inputs are ValueErrors raised before anything is built, cheapest
    first: d < 2, r < 2, a grid over either cap (design_size_error), then
    an order outside SUPPORTED_ORDERS.
    """
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    if r < 2:
        raise ValueError(f"field order {r} must be at least 2")
    too_large = design_size_error(r, d)
    if too_large is not None:
        raise ValueError(too_large)
    add, mul = field_tables(r)
    n = r**d
    weights = r ** np.arange(d - 1, -1, -1, dtype=np.int64)
    coords = np.arange(n, dtype=np.int64)[:, None] // weights % r
    lead_at = (coords != 0).argmax(axis=1)
    canonical = coords[np.arange(n), lead_at] == 1
    blocks = []
    for i in range(d - 1, -1, -1):  # directions with a later lead come first
        dirs = coords[canonical & (lead_at == i)]
        plane = coords[coords[:, i] == 0]
        # lines[v, a, t] = a + t*v, point by point, for v's of lead i
        lines = np.zeros((len(dirs), len(plane), r), dtype=np.int64)
        for k in range(d):
            lines += add[plane[None, :, k, None], mul[:, dirs[:, k]].T[:, None, :]] * weights[k]
        blocks.append(lines.reshape(-1, r))
    lines = np.concatenate(blocks)
    lines.sort(axis=1)
    return Design(b=n, r=r, l=1, sets=PointSets._of(np.full(len(lines), r, dtype=np.int64), lines.ravel()))


def repeat_design(design: Design, h: int) -> Design:
    """Repeat each set h times; pair coverage scales from l to l*h."""
    if h < 1:
        raise ValueError(f"repetition count {h} must be >= 1")
    if h == 1:
        return design
    sets = tuple(s for s in design.sets for _ in range(h))
    return Design(b=design.b, r=design.r, l=design.l * h, sets=sets)


@dataclass(frozen=True)
class DesignReport:
    ok: bool
    l_observed: int | None
    violations: tuple[str, ...]


def _owner_points(sizes: np.ndarray, points: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Each owner's size and points in [0, n), strictly increasing within
    each owner, and the owners that held a point more than once.  Input in
    that order (affine-line designs, good partitions) is returned as it is;
    other input is sorted by the keys owner*n + point, below 2^63."""
    later = points[1:] > points[:-1]
    starts = np.cumsum(sizes)[:-1]
    later[starts[(starts > 0) & (starts < points.size)] - 1] = True  # no order across owners
    if later.all():
        return sizes, points, []
    del later, starts
    keys = np.repeat(np.arange(sizes.size) * n, sizes)
    keys += points
    keys.sort()
    repeat = keys[1:] == keys[:-1]
    repeated = np.unique(keys[1:][repeat] // n).tolist()
    if repeated:
        keys = keys[np.r_[True, ~repeat]]
    del repeat
    points = keys % n
    keys //= n  # each key's owner
    return np.bincount(keys, minlength=sizes.size), points, repeated


def _pair_multiplicities(sizes: np.ndarray, points: np.ndarray, n: int, square: bool = False) -> np.ndarray:
    """How many owners hold each pair of points, by the pair key
    upper*(upper-1)//2 + lower: the one pair count behind verify_design,
    partition_from_sets, verify_partition and the pipeline's column scores
    (spread._Plan._score_columns).

    sizes and points are as _owner_points returns them.  Owners are taken
    one size class at a time, and a run of owners with the same points, as
    a repeated design has, is counted once with the run length as its
    weight.  When the n*(n-1)/2 keys are at most twice the pair entries
    the count is dense, one per key with zeros included: an np.bincount of
    the keys, or np.add.at with the weights when some run is longer than
    1.  Sparser pairs are counted without zeros: the keys are sorted and
    the weights summed run by run, or, with no run longer than 1 (an
    affine-line design), the keys sorted in place and the runs of equal
    keys measured, with no weight or order array.

    With square the count is dense whatever its density, and returned as
    the symmetric (n, n) float64 array of the counts, exact, 0 on the
    diagonal: row j holds, for each point j', how many owners hold j and
    j'.  The keys run over the lower triangle in C order, so one boolean
    mask of it places them, in the array and in its transpose.
    """
    per_size = np.bincount(sizes)
    whole = np.count_nonzero(per_size[1:]) == 1  # one size class, taken without a copy
    classes = []
    for c in (np.flatnonzero(per_size[2:]) + 2).tolist():  # fewer than 2 points hold no pair
        members = (points if whole else points[np.repeat(sizes == c, sizes)]).reshape(-1, c)
        new = np.zeros(len(members) - 1, dtype=bool)  # owner k+1 differs from owner k
        for column in members.T:  # column by column: faster than any(axis=1) on narrow rows
            new |= column[1:] != column[:-1]
        if new.all():
            classes.append((c, members, None))
        else:
            first = np.flatnonzero(np.r_[True, new])
            classes.append((c, members[first], np.diff(first, append=members.shape[0])))
    weighted = any(run is not None for _, _, run in classes)
    total = sum(len(members) * (c * (c - 1) // 2) for c, members, _ in classes)
    pairs = np.empty(total, dtype=np.int64)
    weights = np.empty(total, dtype=np.int64) if weighted else None
    at = 0
    for c, members, run in classes:
        above = members[:, 1:] - 1  # the upper part of the keys, per later point
        above *= members[:, 1:]
        above //= 2
        for p in range(c - 1):
            end = at + len(members) * (c - 1 - p)
            np.add(above[:, p:], members[:, p, None], out=pairs[at:end].reshape(len(members), -1))
            if weighted:
                weights[at:end].reshape(len(members), -1)[:] = 1 if run is None else run[:, None]
            at = end
    classes = members = above = None  # freed before the count
    slots = n * (n - 1) // 2
    if square or slots <= 2 * total:
        if weighted:
            counts = np.zeros(slots, dtype=np.int64)
            np.add.at(counts, pairs, weights)
        else:
            counts = np.bincount(pairs, minlength=slots)
        if not square:
            return counts
        pairs = weights = None  # freed before the square
        lower = np.tri(n, k=-1, dtype=bool)
        rows = np.zeros((n, n))
        rows[lower] = counts
        rows.T[lower] = counts
        return rows
    if weighted:
        order = np.argsort(pairs)
        starts = np.flatnonzero(np.diff(pairs[order], prepend=-1))
        return np.add.reduceat(weights[order], starts) if starts.size else weights
    if total == 0:
        return pairs
    pairs.sort()
    starts = np.flatnonzero(np.r_[True, pairs[1:] != pairs[:-1]])
    del pairs
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = total - starts[-1]
    return counts


def verify_design(design: Design) -> DesignReport:
    """Exhaustive check of set sizes and pair-coverage multiplicity.

    Violations are collected, never raised.  The design's arrays are read
    as they are: sizes and range checks are elementwise; the (set, point)
    keys are sorted, for the repeated points, only when some set's points
    do not increase (_owner_points); and the pair coverage comes from one
    array with an entry per pair inside each set, r*(r-1)/2 per set (a run
    of equal sets counted once), counted by an np.bincount over the
    b*(b-1)/2 pairs, which an affine-line design covers once each, or,
    for sparser sets, after one sort (_pair_multiplicities).  Time and
    memory grow with m*r^2 pairs and m*r memberships: about 16 bytes per
    pair, the entry and its count, when the sets are large (r = 64, d = 2:
    8.4 million pairs, a peak of about 128 MiB), more when the per-set
    arrays dominate.  Of the affine-line designs affine_line_design
    admits, 4^6 peaks highest, at about 139 MiB, then 8^4 at about
    131 MiB and 16^3 at about 129 MiB (tracemalloc).
    """
    sizes, points = design.sets.sizes, design.sets.points
    inside = (points >= 0) & (points < design.b)
    fits = inside.all() and max(design.b, sizes.size) * design.b < 2**63  # no relabelling needed
    labels, point_id = (np.arange(design.b), points) if fits else np.unique(points, return_inverse=True)
    held, point_id, repeated = _owner_points(sizes, point_id, labels.size)
    repeats = np.zeros(sizes.size, dtype=bool)
    repeats[repeated] = True
    wrong_size = sizes != design.r
    outside = np.zeros(sizes.size, dtype=bool)
    if not fits:
        outside[np.repeat(np.arange(sizes.size), sizes)[~inside]] = True

    violations = []
    for k in np.flatnonzero(repeats | wrong_size | outside).tolist():
        if repeats[k]:
            violations.append(f"set {k} repeats a point")
        if wrong_size[k]:
            violations.append(f"set {k} has size {sizes[k]}, expected {design.r}")
        if outside[k]:
            violations.append(f"set {k} leaves the ground set [0, {design.b})")

    counts = _pair_multiplicities(held, point_id, labels.size)

    n_pairs = design.b * (design.b - 1) // 2
    l_observed: int | None
    if n_pairs == 0:
        l_observed = None
    else:
        values = {int(counts.min()), int(counts.max())} if counts.size else set()
        if len(values) > 1:  # np.unique only for coverage that is not constant
            values = set(np.unique(counts).tolist())
        values.discard(0)  # a dense count's keys include pairs no set holds
        if np.count_nonzero(counts) < n_pairs:
            values.add(0)
        if len(values) == 1:
            l_observed = values.pop()
            if l_observed != design.l:
                violations.append(
                    f"pair coverage {l_observed} differs from declared {design.l}"
                )
        else:
            l_observed = None
            violations.append(f"pair coverage not constant: {sorted(values)}")

    return DesignReport(ok=not violations, l_observed=l_observed, violations=tuple(violations))
