"""Finite fields of prime or 2^u order, and pairwise-balanced set systems.

The central construction is the family of all affine lines in the space
F_r^d: it covers every pair of points exactly once, every point lies on
(b-1)/(r-1) lines, and there are r^(d-1) * (r^d - 1)/(r - 1) lines in
total.  Repeating every set h times multiplies the pair coverage by h.

GF(r) is held as its r x r addition and multiplication tables
(field_tables), all the line construction needs.  affine_line_design
refuses a bad dimension, field order or grid size itself, before it
builds anything.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

__all__ = [
    "field_tables",
    "Design",
    "DesignReport",
    "is_supported_order",
    "affine_line_design",
    "repeat_design",
    "verify_design",
]

# Largest ground set r^d the toolkit builds a design on: verify_design
# peaks at about 150 MiB there (r = 64, d = 2).
MAX_DESIGN_POINTS = 4096

# Largest field order a design within MAX_DESIGN_POINTS can use (d >= 2);
# field_tables refuses larger orders before it allocates r^2 entries.
MAX_FIELD_ORDER = math.isqrt(MAX_DESIGN_POINTS)

# Largest number of (line, point) memberships m*r of a design the toolkit
# builds, each held in a Python tuple.  Of the designs within
# MAX_DESIGN_POINTS only 2^12 (16.8 million) is over it: four times 2^11
# (4.2 million), whose cold build takes about 2.7 s and 190 MiB.  4^6
# (5.6 million) takes 1.7 s and 160 MiB.
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


# Miller-Rabin with the 13 prime bases up to 41 is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster, 2015);
# larger orders are refused.  The bases up to 37 alone would be exact only
# below 318665857834031151167461, a strong pseudoprime to each of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _MR_LIMIT; a
    ValueError for larger n."""
    if n >= _MR_LIMIT:
        raise ValueError(f"order {n} is too large to test for primality (limit {_MR_LIMIT})")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BASES[-1] ** 2:  # no prime factor up to its square root
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_supported_order(r: int) -> bool:
    """True for primes and for 2^u with u <= 6; a ValueError for r at or
    above 3.3 * 10^24, past the exact range of the primality test.  Any
    integer type is taken as its int; a float is a TypeError."""
    r = operator.index(r)
    if _is_prime(r):
        return True
    return r >= 2 and r & (r - 1) == 0 and (r.bit_length() - 1) in _IRREDUCIBLE


def field_tables(r: int) -> tuple[np.ndarray, np.ndarray]:
    """GF(r)'s addition and multiplication tables, int64 r x r arrays:
    the integers mod r for a prime r, and for r = 2^u polynomials over
    GF(2) modulo _IRREDUCIBLE[u], bit-encoded, so that x + y is x XOR y."""
    if r < 2:
        raise ValueError(f"field order {r} must be at least 2")
    if r > MAX_FIELD_ORDER:
        raise ValueError(f"field order {r} exceeds {MAX_FIELD_ORDER}, the largest order a design can use")
    x = np.arange(r, dtype=np.int64)
    if _is_prime(r):
        return np.add.outer(x, x) % r, np.multiply.outer(x, x) % r
    if r & (r - 1):
        raise ValueError(f"order {r} is neither prime nor a power of two")
    u = r.bit_length() - 1
    if u not in _IRREDUCIBLE:
        raise ValueError(f"GF(2^{u}) not supported (u > 6)")
    mul = np.zeros((r, r), dtype=np.int64)
    shifted = x.copy()  # x * t^k, reduced
    for k in range(u):
        mul ^= shifted[:, None] * ((x >> k) & 1)  # added where y has bit k
        shifted <<= 1
        shifted ^= np.where(shifted & r, _IRREDUCIBLE[u], 0)
    return np.bitwise_xor.outer(x, x), mul


@dataclass(frozen=True)
class Design:
    """m sets of size r over ground set [b], every pair covered l times.

    Point indices are 0-based; each point lies in l*(b-1)/(r-1) sets and
    m = l*b*(b-1)/(r^2 - r) whenever the coverage is exact.
    """

    b: int
    r: int
    l: int
    sets: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.sets)

    def point_replication(self) -> list[int]:
        counts = [0] * self.b
        for s in self.sets:
            for p in s:
                counts[p] += 1
        return counts

    def to_json_dict(self) -> dict:
        return {"b": self.b, "r": self.r, "l": self.l, "sets": [list(s) for s in self.sets]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Design":
        return cls(
            b=int(data["b"]),
            r=int(data["r"]),
            l=int(data["l"]),
            sets=tuple(tuple(int(p) for p in s) for s in data["sets"]),
        )


@lru_cache(maxsize=None)
def affine_line_design(r: int, d: int) -> Design:
    """All affine lines {a + t*v : t in F_r} of F_r^d as a design on r^d points.

    Points are indexed by their position in lexicographic coordinate
    order.  Lines are emitted grouped by canonical direction (first
    nonzero coordinate scaled to 1), each direction's lines ordered by
    smallest point, so the output is deterministic.

    A line of direction v, whose leading coordinate is v_i = 1, meets the
    hyperplane x_i = 0 exactly once.  So v's lines are a + t*v for the
    r^(d-1) points a of that hyperplane, looked up in the field tables
    for all of them at once; each line is then sorted, and the lines
    ordered by their smallest point.

    Bad inputs are ValueErrors raised before anything is built, cheapest
    first: d < 2, r < 2, a grid over either cap (design_size_error), then
    an order with no field, so a huge r is refused by the cap without a
    primality test.
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
    planes = [coords[coords[:, i] == 0] for i in range(d)]
    ints = np.arange(n).astype(object)  # one int object per point
    sets: list[tuple[int, ...]] = []
    for v, i in zip(coords[canonical], lead_at[canonical].tolist()):  # in sorted order
        lines = (add[planes[i][:, None, :], mul[:, v]] * weights).sum(axis=2)
        lines.sort(axis=1)
        sets += map(tuple, ints[lines[np.argsort(lines[:, 0])]].tolist())
    return Design(b=n, r=r, l=1, sets=tuple(sets))


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


def _pair_multiplicities(keys: np.ndarray, n: int) -> np.ndarray:
    """How many owners hold each pair of points that some owner holds,
    in the order of the pair keys lower*n + upper.

    keys are the sorted keys owner*n + point, with points in [0, n);
    repeats are ignored.  Owners are taken one size class at a time, and
    a run of owners with the same points, as a repeated design has, is
    counted once with the run length as its weight.  The pair keys are
    sorted, and the weights summed run by run.  When no two adjacent
    owners are equal, as in an affine-line design, every weight is 1: the
    keys are then sorted in place and the multiplicities are the lengths
    of the runs of equal keys, with no weight or order array.
    """
    keys = keys[np.diff(keys, prepend=-1) != 0]
    owner = keys // n
    size = np.bincount(owner)[owner]
    del owner
    point = np.remainder(keys, n, out=keys)
    classes = []
    for c in np.flatnonzero(np.bincount(size)).tolist():
        members = point[size == c].reshape(-1, c)
        first = np.flatnonzero(np.r_[True, (members[1:] != members[:-1]).any(axis=1)])
        classes.append((c, members[first], np.diff(first, append=members.shape[0])))
    weighted = any((run > 1).any() for _, _, run in classes)
    total = sum(len(members) * (c * (c - 1) // 2) for c, members, _ in classes)
    pairs = np.empty(total, dtype=np.int64)
    weights = np.empty(total, dtype=np.int64) if weighted else None
    at = 0
    for c, members, run in classes:
        for p in range(c - 1):
            block = (members[:, p, None] * n + members[:, p + 1 :]).ravel()
            pairs[at : at + block.size] = block
            if weighted:
                weights[at : at + block.size] = np.repeat(run, c - 1 - p)
            at += block.size
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

    Violations are collected, never raised.  The sets are flattened into
    arrays: sizes and range checks are elementwise, repeated points come
    from one sort of the (set, point) keys, and the pair coverage from
    one array with an entry per pair inside each set, r*(r-1)/2 per set
    (a run of equal sets counted once), summed after one sort.  Time and
    memory grow with m*r^2, about 19 bytes per pair for an affine-line
    design.  Intended for b <= 4096, where an affine-line design has 8.4
    million pairs (r = 64, d = 2: a peak of about 150 MiB); b <= 4096 is
    MAX_DESIGN_POINTS, the cap affine_line_design enforces.
    """
    sizes = np.fromiter(map(len, design.sets), dtype=np.int64, count=len(design.sets))
    points = np.fromiter(chain.from_iterable(design.sets), dtype=np.int64, count=int(sizes.sum()))
    owner = np.repeat(np.arange(sizes.size), sizes)
    labels, point_id = np.unique(points, return_inverse=True)
    keys = np.sort(owner * labels.size + point_id)
    repeats = np.zeros(sizes.size, dtype=bool)
    repeats[keys[np.diff(keys, prepend=-1) == 0] // labels.size] = True
    wrong_size = sizes != design.r
    outside = np.bincount(owner[(points < 0) | (points >= design.b)], minlength=sizes.size) > 0

    violations = []
    for k in np.flatnonzero(repeats | wrong_size | outside).tolist():
        if repeats[k]:
            violations.append(f"set {k} repeats a point")
        if wrong_size[k]:
            violations.append(f"set {k} has size {sizes[k]}, expected {design.r}")
        if outside[k]:
            violations.append(f"set {k} leaves the ground set [0, {design.b})")

    counts = _pair_multiplicities(keys, labels.size)

    n_pairs = design.b * (design.b - 1) // 2
    l_observed: int | None
    if n_pairs == 0:
        l_observed = None
    else:
        values = set(np.unique(counts).tolist())
        if counts.size < n_pairs:
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
