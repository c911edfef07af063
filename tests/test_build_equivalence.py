"""The array-based design and partition layers against their loop versions.

Each ``_oracle_*`` function below is the scalar-loop implementation the
library used before these layers were rewritten with numpy, kept here as
the reference.  Valid inputs must give equal Designs, Partitions and
reports; malformed inputs (empty groups, cells outside the grid, doubled
cells, a column hit twice in one group, repeated or out-of-range design
points, ragged sets) must give equal reports or the same ValueError
message.
"""

import copy
import hashlib
import itertools
import json
import math
import pickle
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
    Partition,
    PartitionReport,
    PointSets,
    affine_line_design,
    field_tables,
    good_partition,
    is_supported_order,
    partition_from_sets,
    repeat_design,
    restrict,
    verify_design,
    verify_partition,
)
from mixedwidths.designs import _owner_points, _pair_multiplicities, design_size_error
from mixedwidths.partitions import _good_partition_full

# Fixed example sequence, no example database: the suite stays deterministic.
EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True, database=None)


# ------------------------------------------------------------- oracles


def _oracle_canonical_direction(mul, v):
    lead = next(c for c in v if c != 0)
    scale = mul[lead].tolist().index(1)
    return tuple(int(mul[scale, c]) for c in v)


def _oracle_affine_line_design(r, d):
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    if r < 2:
        raise ValueError(f"field order {r} must be at least 2")
    too_large = design_size_error(r, d)
    if too_large is not None:
        raise ValueError(too_large)
    add, mul = field_tables(r)
    points = list(itertools.product(range(r), repeat=d))
    index = {pt: i for i, pt in enumerate(points)}

    directions = sorted({_oracle_canonical_direction(mul, pt) for pt in points if any(pt)})
    sets = []
    for v in directions:
        seen = [False] * len(points)
        for a in points:
            if seen[index[a]]:
                continue
            line = []
            for t in range(r):
                pt = tuple(int(add[ac, mul[t, vc]]) for ac, vc in zip(a, v))
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


# sha256 of the int64 bytes of affine_line_design(r, d).sets, recorded
# from the implementation that computed every line from each of its points
DESIGN_DIGESTS = {
    (32, 2): "11e7aadbbe0aea3ddde0a3d6da55b059e16a8efe1011c167824f87ba78030e28",
    (64, 2): "437fafbc6ba8090e70824c8acb0d9e22c8ddb1bfc269eb1842158fecc7ce9e6f",
    (16, 3): "92f8bbb53bb25bb7ab30c3ade44349de1d44e5e81d39dc90affef06ba94be79e",
    (4, 5): "46f90f6e6189e3ac39ecdb354fd5024fa05a05674cdb855f204addc326ab43ea",
}


@pytest.mark.parametrize("r,d", list(DESIGN_DIGESTS))
def test_affine_line_design_digests_on_grids_too_large_for_loops(r, d):
    sets = np.array(affine_line_design(r, d).sets, dtype=np.int64)
    assert hashlib.sha256(sets.tobytes()).hexdigest() == DESIGN_DIGESTS[r, d]


def _full_partition_cases():
    """(s, d, r) for every design grid: s = r^d, the largest s with the
    same repetition count l = r (l*(r^d - 1)/(r - 1)), and one between."""
    for r, d in DESIGN_GRIDS:
        b_full = r**d
        s_max = r * (b_full - 1) // (r - 1)
        for s in (b_full, (b_full + s_max) // 2, s_max):
            yield s, d, r


@pytest.mark.parametrize("s,d,r", list(_full_partition_cases()))
def test_full_partition_matches_repeated_design(s, d, r):
    b_full = r**d
    l = -(-(s * (r - 1)) // (b_full - 1))
    full = _good_partition_full(s, d, r)
    expected = partition_from_sets(repeat_design(affine_line_design(r, d), l).sets, s, b_full)
    for name in ("sizes", "rows", "cols"):
        assert np.array_equal(getattr(full.groups, name), getattr(expected.groups, name)), name
    assert (full.shape, full.r, full.l, full.dropped_empty) == (
        expected.shape, expected.r, expected.l, expected.dropped_empty
    )


@pytest.mark.parametrize("r,d", DESIGN_GRIDS + list(DESIGN_DIGESTS))
def test_affine_line_designs_cover_every_pair_once(r, d):
    # the certified l of a good partition is its repeat count because of this
    report = verify_design(affine_line_design(r, d))
    assert report.ok and report.l_observed == 1


@pytest.mark.parametrize("s,d,r", list(_full_partition_cases()))
def test_full_partition_certifies_the_repeat_count(s, d, r):
    b_full = r**d
    full = _good_partition_full(s, d, r)
    assert (full.r, full.l) == (r, math.ceil(s * (r - 1) / (b_full - 1)))
    if s * b_full <= 10**6:
        report = verify_partition(full)
        assert report.ok and report.l_observed == full.l


@EXAMPLES
@given(grid_params)
def test_good_partition_rows_are_parallel_classes(params):
    # every group lies in one row, and row i holds the lines of direction
    # i // l (the design's r^(d-1) lines from line (i // l) * r^(d-1) on),
    # each cut to the columns below b
    s, b, d, order = params
    part = good_partition(s, b, d, field_order=order)
    if b == 1:
        return
    r, l = part.r, part.l
    per_direction = r ** (d - 1)
    lines = affine_line_design(r, d).sets.points.reshape(-1, r)
    by_row = {}
    for g in part.groups:
        rows = {i for i, _ in g}
        assert len(rows) == 1, g
        by_row.setdefault(rows.pop(), []).append(tuple(j for _, j in g))
    assert set(by_row) == set(range(s))
    for i, groups in by_row.items():
        parallel = lines[i // l * per_direction : (i // l + 1) * per_direction]
        assert sorted(parallel.ravel().tolist()) == list(range(r**d))
        cut = [tuple(p for p in line if p < b) for line in parallel.tolist()]
        assert sorted(groups) == sorted(c for c in cut if c)


@pytest.mark.parametrize("make", [
    lambda: affine_line_design(2, 3),
    lambda: affine_line_design(5, 2),
    lambda: repeat_design(affine_line_design(3, 2), 2),
    lambda: replace(affine_line_design(16, 2), sets=affine_line_design(16, 2).sets[::7]),
    lambda: Design(b=4, r=3, l=1, sets=((0, 1), (2, 3))),
    lambda: Design(b=3, r=2, l=1, sets=((0, 5, -1), (), (1, 1))),
])
class TestDesignArrays:
    def test_equal_to_tuple_and_json_built_designs(self, make):
        design = make()
        as_tuples = tuple(tuple(a) for a in design.sets)
        for other in (
            Design(design.b, design.r, design.l, as_tuples),
            Design(design.b, design.r, design.l, [list(a) for a in as_tuples]),
            Design.from_json_dict(design.to_json_dict()),
        ):
            assert design == other and other == design
            assert hash(design) == hash(other)
        assert design.sets == as_tuples and as_tuples == design.sets
        assert hash(design.sets) == hash(as_tuples)
        as_lists = {"b": design.b, "r": design.r, "l": design.l, "sets": [list(a) for a in as_tuples]}
        assert json.dumps(design.to_json_dict()) == json.dumps(as_lists)
        assert design.sets != as_tuples[:-1] and as_tuples[:-1] != design.sets

    def test_reads_as_tuples_of_ints(self, make):
        design = make()
        sets = design.sets
        as_tuples = tuple(sets)
        assert all(type(a) is tuple and all(type(p) is int for p in a) for a in as_tuples)
        assert len(sets) == design.m == len(as_tuples)
        assert [sets[k] for k in range(len(sets))] == list(as_tuples)
        assert sets[-1] == as_tuples[-1] and sets[1:3] == as_tuples[1:3]
        assert sets[::2] == as_tuples[::2]
        with pytest.raises(IndexError):
            sets[len(sets)]

    def test_pickled_and_copied_arrays_stay_read_only(self, make):
        design = make()
        for held in (design, copy.deepcopy(design), pickle.loads(pickle.dumps(design))):
            assert held == design and type(held.sets) is PointSets
            for a in (held.sets.sizes, held.sets.points):
                assert a.dtype == np.int64
                with pytest.raises(ValueError):
                    a[...] = 7

    def test_verified_and_replicated_as_the_loops_do(self, make):
        design = make()
        assert_same(verify_design(design), _oracle_verify_design(design))
        if all(0 <= p < design.b for a in design.sets for p in a):
            counts = Counter(p for a in design.sets for p in a)
            assert design.point_replication() == [counts[p] for p in range(design.b)]


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


# ------------------------------------------- in-order input and its order


@EXAMPLES
@given(st.lists(st.lists(st.integers(0, 7), max_size=5), max_size=8))
def test_owner_points_sorts_only_out_of_order_input(sets):
    sizes = np.array([len(a) for a in sets], dtype=np.int64)
    points = np.array([p for a in sets for p in a], dtype=np.int64)
    held, distinct, repeated = _owner_points(sizes, points, 8)
    assert (distinct is points) == all(list(a) == sorted(set(a)) for a in sets)
    assert held.tolist() == [len(set(a)) for a in sets]
    assert distinct.tolist() == [p for a in sets for p in sorted(set(a))]
    assert repeated == [k for k, a in enumerate(sets) if len(set(a)) < len(a)]


@EXAMPLES
@given(malformed_partitions(), st.randoms(use_true_random=False))
def test_verify_partition_ignores_the_order_of_cells_in_a_group(case, rnd):
    # the in-grid cells of each group sorted by column (the in-order path
    # unless a column repeats) and shuffled (the sorting path); cells
    # outside the grid keep their places, since their messages name them
    part, _, _ = case
    s, b = part.shape.s, part.shape.b

    def reordered(arrange):
        groups = []
        for g in part.groups:
            at = [k for k, (i, j) in enumerate(g) if 0 <= i < s and 0 <= j < b]
            cells = list(g)
            for k, cell in zip(at, arrange([g[k] for k in at])):
                cells[k] = cell
            groups.append(tuple(cells))
        return replace(part, groups=tuple(groups))

    report = verify_partition(part)
    for arrange in (lambda cells: sorted(cells, key=lambda c: c[1]), lambda cells: rnd.sample(cells, len(cells))):
        other = reordered(arrange)
        assert_same(verify_partition(other), report)
        assert_same(verify_partition(other), _oracle_verify_partition(other))


@EXAMPLES
@given(malformed_designs(), st.randoms(use_true_random=False))
def test_verify_design_ignores_the_order_of_points_in_a_set(design, rnd):
    report = verify_design(design)
    for arrange in (sorted, lambda a: rnd.sample(a, len(a))):
        other = replace(design, sets=tuple(tuple(arrange(list(a))) for a in design.sets))
        assert_same(verify_design(other), report)
        assert_same(verify_design(other), _oracle_verify_design(other))


# ------------------------------------------------------- the pair count


def _pair_entries(owners):
    """The pair entries _pair_multiplicities counts: per size class, in the
    order of the owners, a run of equal owners once."""
    entries = 0
    for c in {len(a) for a in owners}:
        of_c = [a for a in owners if len(a) == c]
        runs = sum(1 for k, a in enumerate(of_c) if k == 0 or a != of_c[k - 1])
        entries += runs * (c * (c - 1) // 2)
    return entries


@st.composite
def owner_points(draw):
    """(owners, n): owners as _owner_points returns them, each a tuple of
    increasing points, in runs of equal owners, some empty, of one size
    or of mixed sizes; n is the last ground-set size on the dense side of
    the switch (at most twice as many pair keys as pair entries) or the
    first past it, and never below the points' range."""
    u = draw(st.integers(1, 12))
    one_size = draw(st.booleans())
    c = draw(st.integers(0, u))
    size = st.just(c) if one_size else st.integers(0, u)
    owners = []
    for k in draw(st.lists(size, min_size=1, max_size=14)):
        owner = tuple(sorted(draw(st.permutations(range(u)))[:k]))
        owners += [owner] * draw(st.sampled_from([1, 1, 2, 3]))
    entries = _pair_entries(owners)
    dense_end = 1
    while (dense_end + 1) * dense_end // 2 <= 2 * entries:
        dense_end += 1  # n(n-1)/2 <= 2*entries for every n up to dense_end
    return owners, max(u, dense_end + draw(st.integers(0, 1)))


@EXAMPLES
@given(owner_points())
def test_pair_multiplicities_counts_every_owners_pairs(case):
    owners, n = case
    sizes = np.array([len(a) for a in owners], dtype=np.int64)
    points = np.array([p for a in owners for p in a], dtype=np.int64)
    counts = _pair_multiplicities(sizes, points, n)
    held = Counter(pair for a in owners for pair in combinations(a, 2))
    assert counts.dtype == np.int64
    assert sorted(counts[counts > 0].tolist()) == sorted(held.values())
    slots = n * (n - 1) // 2
    if slots <= 2 * _pair_entries(owners):  # dense: one count per key, zeros included
        assert counts.size == slots
        assert all(counts[upper * (upper - 1) // 2 + lower] == k for (lower, upper), k in held.items())
    else:  # sorted: only the pairs some owner holds
        assert counts.size == len(held)
    # square: every count, dense, at [lower, upper] and at [upper, lower]
    square = np.zeros((n, n))
    for (lower, upper), k in held.items():
        square[lower, upper] = square[upper, lower] = k
    counts = _pair_multiplicities(sizes, points, n, square=True)
    assert counts.dtype == np.float64 and np.array_equal(counts, square)


# grids on which the one pair count is checked against its closed form
CLOSED_FORM_GRIDS = [
    (16, 16, 4), (64, 64, 4), (81, 81, 4), (72, 70, 4), (264, 209, 2), (297, 277, 3), (40, 40, 2), (30, 25, 2),
]


@pytest.mark.parametrize("field_order", ["power_of_two", "smallest"])
@pytest.mark.parametrize("s,b,d", CLOSED_FORM_GRIDS)
def test_good_partition_pair_counts_have_the_closed_form(s, b, d, field_order):
    # row i holds the lines of direction i // l, so two columns on a line of
    # direction delta share the l rows from l * delta on, cut at s
    part = good_partition(s, b, d, field_order=field_order)
    r, l = part.r, part.l
    design = affine_line_design(r, d)
    lines = design.sets.points.reshape(design.m, r)
    direction = np.zeros((design.b, design.b), dtype=np.int64)
    direction[lines[:, :, None], lines[:, None, :]] = (np.arange(design.m) // r ** (d - 1))[:, None, None]
    expected = np.minimum(l, np.maximum(0, s - l * direction[:b, :b]))
    np.fill_diagonal(expected, 0)
    held, cols, repeated = _owner_points(part.groups.sizes, part.groups.cols, b)
    assert repeated == []
    counts = _pair_multiplicities(held, cols, b, square=True)
    assert np.array_equal(counts, expected)
    assert counts.max() == verify_partition(part).l_observed


@st.composite
def designs_beyond_the_ground_set(draw):
    """Designs whose points, relabelled by np.unique, outnumber b: every
    pair of the labels is often held, so the pair count is dense over
    labels outside [0, b) too."""
    b = draw(st.integers(0, 5))
    labels = sorted(draw(st.sets(st.integers(-3, b + 3), min_size=2, max_size=8)) | {b})
    sets = [tuple(labels)] * draw(st.integers(0, 2))
    sets += [tuple(draw(st.permutations(labels))[: draw(st.integers(0, len(labels)))]) for _ in range(3)]
    sets = draw(st.permutations(sets + list(combinations(labels, 2)) * draw(st.integers(0, 2))))
    return Design(b=b, r=draw(st.integers(0, 3)), l=draw(st.integers(0, 2)), sets=tuple(sets))


@EXAMPLES
@given(designs_beyond_the_ground_set())
def test_verify_design_counts_only_held_pairs_beyond_the_ground_set(design):
    assert_same(verify_design(design), _oracle_verify_design(design))


# The verifiers skip their sort because the constructions emit each set's
# points and each group's columns in increasing order; if a construction
# stops doing so, these fail, where the verifiers would only slow down.


@pytest.mark.parametrize("r,d", DESIGN_GRIDS)
def test_affine_line_designs_hold_each_set_increasing(r, d):
    sets = affine_line_design(r, d).sets
    assert _owner_points(sets.sizes, sets.points, r**d)[1] is sets.points


# grids of the build benchmark's skeleton: for each (d, b') the ends of its
# s window, with b at b' (when s >= b') and at the ends of its unaligned window
BUILD_GRIDS = [
    (256, 160, 2), (272, 255, 2), (272, 256, 2), (64, 40, 2), (72, 63, 2), (64, 64, 2),
    (293, 178, 3), (320, 320, 3), (64, 36, 3), (84, 63, 3), (84, 64, 3),
    (256, 136, 4), (320, 255, 4), (320, 256, 4), (64, 8, 4), (75, 15, 4), (75, 16, 4),
]


@pytest.mark.parametrize("field_order", ["power_of_two", "smallest"])
@pytest.mark.parametrize("s,b,d", BUILD_GRIDS)
def test_good_partitions_hold_each_group_increasing(s, b, d, field_order):
    groups = good_partition(s, b, d, field_order=field_order).groups
    assert _owner_points(groups.sizes, groups.cols, b)[1] is groups.cols
