"""The array-based design and partition layers against their loop versions.

Each ``_oracle_*`` function below is the scalar-loop implementation the
library used before these layers were rewritten with numpy, kept here as
the reference.  Valid inputs must give equal Designs, Partitions and
reports; malformed inputs (empty groups, cells outside the grid, doubled
cells, a column hit twice in one group, repeated or out-of-range design
points, ragged sets) must give equal reports or the same ValueError
message.
"""

import itertools
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedwidths import (
    BlockShape,
    Design,
    DesignReport,
    GaloisField,
    Partition,
    PartitionReport,
    affine_line_design,
    good_partition,
    is_supported_order,
    partition_from_sets,
    repeat_design,
    restrict,
    verify_design,
    verify_partition,
)

# Fixed example sequence, no example database: the suite stays deterministic.
EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True, database=None)


# ------------------------------------------------------------- oracles


def _oracle_canonical_direction(gf, v):
    lead = next(c for c in v if c != 0)
    scale = gf.inv(lead)
    return tuple(gf.mul(scale, c) for c in v)


def _oracle_affine_line_design(r, d):
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    gf = GaloisField(r)
    points = list(itertools.product(range(r), repeat=d))
    index = {pt: i for i, pt in enumerate(points)}

    directions = sorted({_oracle_canonical_direction(gf, pt) for pt in points if any(pt)})
    sets = []
    for v in directions:
        seen = [False] * len(points)
        for a in points:
            if seen[index[a]]:
                continue
            line = []
            for t in gf.elements():
                pt = tuple(gf.add(ac, gf.mul(t, vc)) for ac, vc in zip(a, v))
                line.append(index[pt])
            for i in line:
                seen[i] = True
            sets.append(tuple(sorted(line)))
    return Design(b=r**d, r=r, l=1, sets=tuple(sets))


def _oracle_verify_design(design):
    violations = []
    for k, s in enumerate(design.sets):
        if len(set(s)) != len(s):
            violations.append(f"set {k} repeats a point")
        if len(s) != design.r:
            violations.append(f"set {k} has size {len(s)}, expected {design.r}")
        if any(p < 0 or p >= design.b for p in s):
            violations.append(f"set {k} leaves the ground set [0, {design.b})")

    counts = Counter()
    for s in design.sets:
        for pair in itertools.combinations(sorted(set(s)), 2):
            counts[pair] += 1

    n_pairs = design.b * (design.b - 1) // 2
    if n_pairs == 0:
        l_observed = None
    else:
        values = set(counts.values())
        if len(counts) < n_pairs:
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


def _oracle_partition_from_sets(sets, s, b):
    membership = [[] for _ in range(b)]
    for k, a in enumerate(sets):
        for j in a:
            if not 0 <= j < b:
                raise ValueError(f"set {k} contains point {j} outside [0, {b})")
            membership[j].append(k)

    for j in range(b):
        if len(membership[j]) < s:
            raise ValueError(
                f"point {j} lies in {len(membership[j])} sets, "
                f"but every point needs at least {s}"
            )

    groups = [[] for _ in sets]
    for j in range(b):
        chosen = membership[j][:s]
        for i, k in enumerate(chosen):
            groups[k].append((i, j))

    r_bound = max((len(a) for a in sets), default=0)
    pair_counts = Counter()
    for a in sets:
        for pair in combinations(sorted(set(a)), 2):
            pair_counts[pair] += 1
    l_bound = max(pair_counts.values(), default=0)

    nonempty = tuple(tuple(g) for g in groups if g)
    return Partition(
        shape=BlockShape(s, b),
        groups=nonempty,
        r=r_bound,
        l=l_bound,
        dropped_empty=len(sets) - len(nonempty),
    )


def _oracle_restrict(partition, s, b):
    if not (1 <= s <= partition.shape.s and 1 <= b <= partition.shape.b):
        raise ValueError(
            f"restriction {s}x{b} not inside {partition.shape.s}x{partition.shape.b}"
        )
    if s == partition.shape.s and b == partition.shape.b:
        return partition
    groups = []
    dropped = partition.dropped_empty
    for g in partition.groups:
        kept = tuple((i, j) for (i, j) in g if i < s and j < b)
        if kept:
            groups.append(kept)
        else:
            dropped += 1
    return replace(
        partition,
        shape=BlockShape(s, b),
        groups=tuple(groups),
        dropped_empty=dropped,
    )


def _oracle_verify_partition(partition):
    s, b = partition.shape.s, partition.shape.b
    if s * b > 10**6:
        raise ValueError("grid too large for exhaustive verification")

    violations = []
    seen = np.zeros(s * b, dtype=np.int64)
    r_observed = 0
    pair_counts = Counter()

    for k, g in enumerate(partition.groups):
        if not g:
            violations.append(f"group {k} is empty")
            continue
        r_observed = max(r_observed, len(g))
        cols = []
        for (i, j) in g:
            if not (0 <= i < s and 0 <= j < b):
                violations.append(f"group {k} has cell ({i}, {j}) outside the grid")
                continue
            seen[j * s + i] += 1
            cols.append(j)
        if len(set(cols)) != len(cols):
            violations.append(f"group {k} meets some column more than once")
        for pair in combinations(sorted(set(cols)), 2):
            pair_counts[pair] += 1

    cover_ok = bool((seen == 1).all())
    if not cover_ok:
        missing = int((seen == 0).sum())
        doubled = int((seen > 1).sum())
        violations.append(f"cover broken: {missing} cells missing, {doubled} duplicated")

    l_observed = max(pair_counts.values(), default=0)
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


def outcome(f, *args):
    """The result of f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_same(a, b):
    assert a == b
    # the same types too, so reports serialise the same way
    assert type(a) is type(b)
    if isinstance(a, Partition):
        assert all(type(c) is tuple and tuple(map(type, c)) == (int, int) for g in a.groups for c in g)
    if isinstance(a, PartitionReport):
        assert (type(a.r_observed), type(a.l_observed)) == (int, int)
    if isinstance(a, DesignReport):
        assert a.l_observed is None or type(a.l_observed) is int


# ----------------------------------------------------------- strategies

# every supported field order r and dimension d >= 2 with r^d <= 512
DESIGN_GRIDS = [
    (r, d) for d in range(2, 10) for r in range(2, 23) if is_supported_order(r) and r**d <= 512
]

grid_params = st.tuples(
    st.integers(1, 40), st.integers(1, 40), st.integers(2, 4), st.sampled_from(["power_of_two", "smallest"])
).map(lambda t: (max(t[0], t[1]), min(t[0], t[1]), t[2], t[3]))


@st.composite
def set_systems(draw):
    """(sets, s, b): ragged sets, mostly inside [0, b), some with repeated
    or out-of-range points, often padded with s copies of [0, b) so every
    point is covered, and s mostly 1 to 5 but sometimes 0 or -1."""
    b = draw(st.integers(0, 9))
    s = draw(st.sampled_from([-1, 0, 1, 1, 2, 2, 2, 3, 3, 4, 5]))
    point = st.integers(-1, b) if draw(st.booleans()) else st.integers(0, max(b - 1, 0))
    sets = draw(st.lists(st.lists(point, max_size=6), max_size=10))
    if draw(st.booleans()):
        sets = draw(st.permutations(sets + [list(range(b))] * max(s, 0)))
    as_tuples = draw(st.booleans())
    return ([tuple(a) for a in sets] if as_tuples else sets), s, b


@st.composite
def malformed_partitions(draw):
    """Partitions of an s x b grid built as Partition(shape, groups, r, l):
    a valid partition (rows, columns, a good partition or singletons)
    with cells moved, doubled, dropped or pushed outside the grid, and
    empty groups, plus a restriction size to try."""
    s = draw(st.integers(1, 7))
    b = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["rows", "singletons", "good", "random"]))
    if kind == "rows":
        groups = [[(i, j) for j in range(b)] for i in range(s)]
    elif kind == "singletons":
        groups = [[(i, j)] for j in range(b) for i in range(s)]
    elif kind == "good" and s >= b:
        groups = [list(g) for g in good_partition(s, b, draw(st.integers(2, 3))).groups]
    else:
        cells = [(i, j) for j in range(b) for i in range(s)]
        labels = draw(st.lists(st.integers(0, 5), min_size=len(cells), max_size=len(cells)))
        groups = [[c for c, g in zip(cells, labels) if g == k] for k in range(6)]
    cell = st.tuples(st.integers(-1, s + 1), st.integers(-1, b + 1))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["move", "double", "drop", "add", "empty"]))
        k = draw(st.integers(0, len(groups)))
        if edit == "empty" or k == len(groups):
            groups.insert(min(k, len(groups)), [])
        elif edit == "add":
            groups[k].append(draw(cell))
        elif groups[k]:
            at = draw(st.integers(0, len(groups[k]) - 1))
            if edit == "move":
                groups[k][at] = draw(cell)
            elif edit == "double":
                groups[k].append(groups[k][at])
            else:
                del groups[k][at]
    part = Partition(
        BlockShape(s, b),
        tuple(tuple(g) for g in groups),
        r=draw(st.integers(0, 8)),
        l=draw(st.integers(0, 8)),
        dropped_empty=draw(st.integers(0, 3)),
    )
    return part, draw(st.integers(0, s + 1)), draw(st.integers(0, b + 1))


@st.composite
def malformed_designs(draw):
    """Designs with ragged sets, repeated points, points outside [0, b)
    and runs of equal sets."""
    b = draw(st.integers(0, 10))
    sets = draw(st.lists(st.lists(st.integers(-2, b + 1), max_size=5), max_size=12))
    sets = [a for a in sets for _ in range(draw(st.integers(1, 3)))]
    return Design(
        b=b,
        r=draw(st.integers(0, 5)),
        l=draw(st.integers(0, 3)),
        sets=tuple(tuple(a) for a in sets),
    )


# ---------------------------------------------------------------- tests


@pytest.mark.parametrize("r,d", DESIGN_GRIDS)
def test_affine_line_design_matches_loops(r, d):
    design = affine_line_design(r, d)
    assert_same(design, _oracle_affine_line_design(r, d))
    assert all(type(p) is int for a in design.sets for p in a)
    assert_same(verify_design(design), _oracle_verify_design(design))


def test_affine_line_design_errors_match():
    for r, d in [(2, 1), (2, 0), (6, 2), (1, 2), (128, 2)]:
        assert outcome(affine_line_design, r, d) == outcome(_oracle_affine_line_design, r, d)


@EXAMPLES
@given(grid_params)
def test_good_partition_layers_match_loops(params):
    s, b, d, order = params
    part = good_partition(s, b, d, field_order=order)
    if b > 1:
        r = part.r
        b_full = r**d
        rep = repeat_design(affine_line_design(r, d), part.l)
        full = partition_from_sets(rep.sets, s, b_full)
        assert_same(full, _oracle_partition_from_sets(rep.sets, s, b_full))
        assert_same(part, _oracle_restrict(full, s, b))
    assert_same(verify_partition(part), _oracle_verify_partition(part))


@EXAMPLES
@given(set_systems())
def test_partition_from_sets_matches_loops(case):
    sets, s, b = case
    assert_same(outcome(partition_from_sets, sets, s, b), outcome(_oracle_partition_from_sets, sets, s, b))


@EXAMPLES
@given(malformed_partitions())
def test_verify_partition_matches_loops(case):
    part, _, _ = case
    assert_same(verify_partition(part), _oracle_verify_partition(part))


@EXAMPLES
@given(malformed_partitions())
def test_restrict_matches_loops(case):
    part, s, b = case
    assert_same(outcome(restrict, part, s, b), outcome(_oracle_restrict, part, s, b))


@EXAMPLES
@given(malformed_designs())
def test_verify_design_matches_loops(design):
    assert_same(verify_design(design), _oracle_verify_design(design))


def test_violation_order_within_and_across_groups():
    # group 0: outside cell then a repeated column; group 1 empty; group 2
    # two outside cells; then the cover and both bound violations
    part = Partition(
        BlockShape(2, 3),
        (((0, 0), (5, 1), (1, 0)), (), ((0, 9), (-1, 2)), ((0, 1), (0, 2))),
        r=1,
        l=0,
    )
    report = verify_partition(part)
    assert_same(report, _oracle_verify_partition(part))
    assert report.violations == (
        "group 0 has cell (5, 1) outside the grid",
        "group 0 meets some column more than once",
        "group 1 is empty",
        "group 2 has cell (0, 9) outside the grid",
        "group 2 has cell (-1, 2) outside the grid",
        "cover broken: 2 cells missing, 0 duplicated",
        "observed group size 3 exceeds declared bound 1",
        "observed column sharing 1 exceeds declared bound 0",
    )


def test_large_grids_match_loops():
    # larger grids, a design with no two equal sets in a row, and a
    # partition whose declared bounds are too small
    for s, b, d in [(300, 260, 2), (100, 97, 3), (90, 81, 4)]:
        part = good_partition(s, b, d)
        assert_same(verify_partition(part), _oracle_verify_partition(part))
    design = affine_line_design(16, 2)
    sparse = replace(design, sets=design.sets[::7])
    assert_same(verify_design(sparse), _oracle_verify_design(sparse))
    cut = replace(good_partition(64, 64, 2), r=3, l=1)
    assert_same(verify_partition(cut), _oracle_verify_partition(cut))
