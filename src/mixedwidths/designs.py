"""Finite fields of prime or 2^u order, and pairwise-balanced set systems.

The central construction is the family of all affine lines in the space
F_r^d: it covers every pair of points exactly once, every point lies on
(b-1)/(r-1) lines, and there are r^(d-1) * (r^d - 1)/(r - 1) lines in
total.  Repeating every set h times multiplies the pair coverage by h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

__all__ = [
    "GaloisField",
    "Design",
    "DesignReport",
    "is_supported_order",
    "affine_line_design",
    "repeat_design",
    "verify_design",
]

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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def is_supported_order(r: int) -> bool:
    """True for primes and for 2^u with u <= 6."""
    if _is_prime(r):
        return True
    return r >= 2 and r & (r - 1) == 0 and (r.bit_length() - 1) in _IRREDUCIBLE


class GaloisField:
    """Field arithmetic for order r prime (integers mod r) or r = 2^u
    (polynomials over GF(2) modulo a fixed irreducible polynomial)."""

    def __init__(self, order: int):
        if order < 2:
            raise ValueError(f"field order {order} must be at least 2")
        self.order = order
        if _is_prime(order):
            self.modulus = None
        elif order & (order - 1) == 0:
            u = order.bit_length() - 1
            if u not in _IRREDUCIBLE:
                raise ValueError(f"GF(2^{u}) not supported (u > 6)")
            self.modulus = _IRREDUCIBLE[u]
        else:
            raise ValueError(f"order {order} is neither prime nor a power of two")

    @property
    def is_binary(self) -> bool:
        return self.modulus is not None

    def elements(self) -> range:
        return range(self.order)

    def add(self, x: int, y: int) -> int:
        if self.is_binary:
            return x ^ y
        return (x + y) % self.order

    def mul(self, x: int, y: int) -> int:
        if not self.is_binary:
            return (x * y) % self.order
        acc = 0
        a = x
        while y:
            if y & 1:
                acc ^= a
            a <<= 1
            if a & self.order:
                a ^= self.modulus
            y >>= 1
        return acc

    def power(self, x: int, e: int) -> int:
        acc = 1
        base = x
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.power(x, self.order - 2)


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
    smallest base point, so the output is deterministic.

    For each direction, a + t*v is looked up in the field tables for
    every point a at once; a line is kept at its smallest point.
    """
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    gf = GaloisField(r)
    add = np.array([[gf.add(x, y) for y in gf.elements()] for x in gf.elements()])
    mul = np.array([[gf.mul(x, y) for y in gf.elements()] for x in gf.elements()])
    n = r**d
    weights = r ** np.arange(d - 1, -1, -1, dtype=np.int64)
    coords = np.arange(n, dtype=np.int64)[:, None] // weights % r
    lead = coords[np.arange(n), (coords != 0).argmax(axis=1)]
    ints = np.arange(n).astype(object)  # one int object per point
    sets: list[tuple[int, ...]] = []
    for v in coords[lead == 1]:  # canonical directions, in sorted order
        lines = (add[coords[:, None, :], mul[:, v]] * weights).sum(axis=2)
        lines.sort(axis=1)
        sets += map(tuple, ints[lines[lines[:, 0] == np.arange(n)]].tolist())
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
    counted once with the run length as its weight.  The weighted pair
    keys are sorted and their weights summed run by run.
    """
    keys = keys[np.diff(keys, prepend=-1) != 0]
    owner = keys // n
    size = np.bincount(owner)[owner]
    del owner
    point = np.remainder(keys, n, out=keys)
    pairs, weights = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for c in np.flatnonzero(np.bincount(size)).tolist():
        members = point[size == c].reshape(-1, c)
        first = np.flatnonzero(np.r_[True, (members[1:] != members[:-1]).any(axis=1)])
        run = np.diff(first, append=members.shape[0])
        members = members[first]
        for p in range(c - 1):
            pairs.append((members[:, p, None] * n + members[:, p + 1 :]).ravel())
            weights.append(np.repeat(run, c - 1 - p))
    pairs, weights = np.concatenate(pairs), np.concatenate(weights)
    order = np.argsort(pairs)
    starts = np.flatnonzero(np.diff(pairs[order], prepend=-1))
    return np.add.reduceat(weights[order], starts) if starts.size else weights


def verify_design(design: Design) -> DesignReport:
    """Exhaustive check of set sizes and pair-coverage multiplicity.

    Violations are collected, never raised.  The sets are flattened into
    arrays: sizes and range checks are elementwise, repeated points come
    from one sort of the (set, point) keys, and the pair coverage from
    one array with an entry per pair inside each set, r*(r-1)/2 per set
    (a run of equal sets counted once), summed after one sort.  Time and
    memory grow with m*r^2, about 50 bytes per pair.  Intended for
    b <= 4096, where an affine-line design has 8.4 million pairs.
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
