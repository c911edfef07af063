import copy
import gc
import json
import pickle
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mixedwidths import (
    BlockMatrix,
    BlockShape,
    Design,
    Partition,
    affine_line_design,
    good_partition,
    partition_from_sets,
    restrict,
    singleton_partition,
    verify_partition,
)
from mixedwidths.designs import MAX_DESIGN_POINTS, design_size_error, is_supported_order
from mixedwidths.partitions import CellGroups, _good_partition_full
from mixedwidths.spread import transposition_partition


class TestPartitionFromSets:
    def test_row_partition(self):
        s, b = 3, 4
        sets = [list(range(b))] * s
        part = partition_from_sets(sets, s, b)
        assert part.r == b and part.l == s and part.m == s
        assert part.groups == tuple(tuple((i, j) for j in range(b)) for i in range(s))
        assert verify_partition(part).ok

    def test_from_affine_design(self):
        part = partition_from_sets(affine_line_design(2, 2).sets, s=3, b=4)
        assert part.r == 2 and part.l == 1
        report = verify_partition(part)
        assert report.ok and report.l_observed <= 1

    def test_deficient_point_named(self):
        sets = [[0, 1], [0, 1], [0]]
        with pytest.raises(ValueError, match="point 1"):
            partition_from_sets(sets, s=3, b=2)

    def test_out_of_range_point_rejected(self):
        with pytest.raises(ValueError):
            partition_from_sets([[0, 5]], s=1, b=2)


class TestGoodPartition:
    def test_16_16_2(self):
        part = good_partition(16, 16, 2)
        assert part.r == 4 and part.l == 4
        # l * b * (b-1) / (r^2 - r) groups before empties are dropped
        assert part.m + part.dropped_empty == 80
        assert verify_partition(part).ok

    def test_4_4_2(self):
        part = good_partition(4, 4, 2)
        assert part.r == 2 and part.l == 2
        assert verify_partition(part).ok

    def test_non_power_routes_through_larger_grid(self):
        part = good_partition(8, 5, 2)
        assert part.shape.s == 8 and part.shape.b == 5
        assert verify_partition(part).ok

    def test_block_size_within_bounds(self):
        for (s, b, d) in [(16, 16, 2), (50, 23, 2), (64, 64, 3), (40, 10, 3)]:
            part = good_partition(s, b, d)
            assert b <= part.r**d <= (2**d) * b

    def test_wide_grid_rejected(self):
        with pytest.raises(ValueError):
            good_partition(4, 8, 2)

    def test_single_column_trivial(self):
        part = good_partition(5, 1, 2)
        assert part.r == 1 and part.l == 0 and part.m == 5
        assert verify_partition(part).ok

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            good_partition(4, 4, 1)

    def test_group_count_bound(self):
        for (s, b, d) in [(16, 16, 2), (32, 20, 2), (27, 9, 3)]:
            part = good_partition(s, b, d)
            u = 1
            while 2 ** (u * d) < b:
                u += 1
            r, bf = 2**u, 2 ** (u * d)
            assert part.m <= part.l * bf * (bf - 1) // (r * (r - 1))


def _supported_orders(limit):
    """Primes and 2^u (u <= 6) up to limit, by trial division."""
    primes = [n for n in range(2, limit + 1) if all(n % f for f in range(2, int(n**0.5) + 1))]
    return sorted(set(primes) | {2**u for u in range(1, 7) if 2**u <= limit})


class TestSmallestFieldOrder:
    def test_least_supported_order(self):
        orders = _supported_orders(64)
        # every b up to s for a few s, then b = 80..90, where the order
        # steps from 3 to 4 at d = 4 and skips the unsupported 9 at d = 2
        grids = [(s, b) for s in (3, 10, 28, 64) for b in range(2, s + 1)]
        grids += [(90, b) for b in range(80, 91)]
        for d in (2, 3, 4):
            for s, b in grids:
                part = good_partition(s, b, d, field_order="smallest")
                r = min(o for o in orders if o**d >= b)
                power_of_two = min(2**u for u in range(1, 7) if 2 ** (u * d) >= b)
                assert part.r == r <= power_of_two, (s, b, d)
                # b^(1/d) <= r <= 2*b^(1/d), in integers
                assert b <= r**d <= 2**d * b, (s, b, d)
                assert part.l == -(-(s * (r - 1)) // (r**d - 1)), (s, b, d)
                assert verify_partition(part).ok, (s, b, d)

    def test_odd_prime_order_drops_fewer_groups(self):
        part = good_partition(64, 64, 4, field_order="smallest")
        assert (part.r, part.l, part.m) == (3, 2, 1688)
        assert part.m + part.dropped_empty == 2 * 3**3 * (3**4 - 1) // 2
        default = good_partition(64, 64, 4)
        assert (default.r, default.l, default.m) == (4, 1, 3088)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="field order"):
            good_partition(8, 8, 2, field_order="largest")


class TestRestrict:
    def test_full_restriction_is_identity(self):
        part = good_partition(8, 8, 2)
        assert restrict(part, 8, 8) == part

    def test_row_partition_restriction(self):
        part = partition_from_sets([list(range(4))] * 3, 3, 4)
        small = restrict(part, 3, 2)
        assert small.groups == tuple(tuple((i, j) for j in range(2)) for i in range(3))

    def test_restricted_good_partition_verifies(self):
        part = restrict(good_partition(16, 16, 2), 16, 9)
        report = verify_partition(part)
        assert report.ok and report.l_observed <= 4

    def test_bad_bounds_rejected(self):
        part = good_partition(4, 4, 2)
        with pytest.raises(ValueError):
            restrict(part, 5, 4)


class TestVerifyPartition:
    def test_duplicated_cell_breaks_cover(self):
        part = Partition(
            shape=good_partition(2, 2, 2).shape,
            groups=(((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 0),)),
            r=2,
            l=2,
        )
        report = verify_partition(part)
        assert not report.ok and not report.cover_ok

    def test_understated_l_flagged(self):
        s, b = 3, 4
        rows = partition_from_sets([list(range(b))] * s, s, b)
        mislabeled = Partition(shape=rows.shape, groups=rows.groups, r=rows.r, l=s - 1)
        report = verify_partition(mislabeled)
        assert not report.ok and report.l_observed == s

    def test_column_hit_twice_flagged(self):
        part = Partition(
            shape=good_partition(2, 2, 2).shape,
            groups=(((0, 0), (1, 0)), ((0, 1), (1, 1))),
            r=2,
            l=2,
        )
        report = verify_partition(part)
        assert not report.ok

    def test_singleton_partition(self):
        part = singleton_partition(3, 5)
        report = verify_partition(part)
        assert report.ok and report.r_observed == 1 and report.l_observed == 0

    def test_grid_size_guard(self):
        # one column over MAX_GRID_CELLS = 2^24 cells, refused before anything is allocated
        huge = Partition(shape=BlockShape(2**12, 2**12 + 1), groups=(((0, 0),),), r=1, l=0)
        with pytest.raises(ValueError, match="over 16777216"):
            verify_partition(huge)


class TestSerialization:
    def test_json_round_trip(self):
        part = good_partition(6, 5, 2)
        again = Partition.from_json_dict(part.to_json_dict())
        assert again.shape == part.shape and again.groups == part.groups
        assert again.r == part.r and again.l == part.l

    def test_dropped_empty_round_trip(self):
        part = good_partition(8, 5, 2)
        assert part.dropped_empty == 12
        data = part.to_json_dict()
        assert data["dropped_empty"] == 12
        assert Partition.from_json_dict(data) == part

    @pytest.mark.parametrize("load,data,bad", [
        (Partition.from_json_dict, {"s": 2.9, "b": 1, "r": 1.5, "l": 0, "groups": [[[0, 0.7]], [[1.2, 0]]]}, "2.9"),
        (Partition.from_json_dict, {"s": 2, "b": 1, "r": 1, "l": 0, "groups": [[[0, 0.7]], [[1.2, 0]]]}, "0.7"),
        (Partition.from_json_dict, {"s": 2, "b": 1, "r": 1, "l": 0, "groups": [[[0, False]], [[1, 0]]]}, "False"),
        (Partition.from_json_dict, {"s": 2, "b": 1, "r": 1, "l": True, "groups": [[[0, 0]], [[1, 0]]]}, "True"),
        (Design.from_json_dict, {"b": 4.5, "r": 2, "l": 1, "sets": [[0, 1.9], [2, 3]]}, "4.5"),
        (Design.from_json_dict, {"b": 4, "r": 2, "l": 1, "sets": [[0, 1.9], [2, 3]]}, "1.9"),
        (Design.from_json_dict, {"b": 4, "r": 2, "l": 1, "sets": [[0, float("nan")], [2, 3]]}, "nan"),
        (BlockMatrix.from_json_dict, {"s": 1.5, "b": 1, "entries": [1.0]}, "1.5"),
    ])
    def test_malformed_json_fails_as_it_loads(self, load, data, bad):
        # a bool or a fractional size, index or count used to be truncated
        # into a partition, design or matrix that then verified clean
        with pytest.raises(ValueError, match=f"{bad} is not an integer"):
            load(data)

    def test_constructors_reject_what_json_loading_rejects(self):
        # these were truncated into cells (0, 0), (1, 0) and sets (0, 1), (2, 1)
        with pytest.raises(ValueError, match="^cell index 0.7 is not an integer$"):
            Partition(BlockShape(2, 1), (((0, 0.7),), ((1.2, 0),)), r=1, l=0)
        with pytest.raises(ValueError, match="^cell index True is not an integer$"):
            CellGroups((((True, 0),),))
        with pytest.raises(ValueError, match="^set point 1.9 is not an integer$"):
            Design(4, 2, 1, ((0, 1.9), (2, True)))
        with pytest.raises(ValueError, match="^set point True is not an integer$"):
            Design(4, 2, 1, ((0, 1), (2, True)))
        with pytest.raises(ValueError, match="^every cell must be a \\(row, col\\) pair$"):
            CellGroups((((0, 1, 2),),))
        # integers of any type, and integral floats, are their ints
        cells = (((np.int64(0), 0.0),), ((1, np.int32(0)),))
        assert Partition(BlockShape(2, 1), cells, r=1, l=0).groups == (((0, 0),), ((1, 0),))
        assert Design(4, 2, 1, ((np.int64(0), 1.0), (2, 3))).sets == ((0, 1), (2, 3))

    @pytest.mark.parametrize("field, value", [("r", -1), ("l", -3), ("dropped_empty", -2)])
    def test_a_negative_partition_field_fails_as_it_is_built(self, field, value):
        # a negative r or l loaded and gave a negative or complex certified coefficient
        data = {"s": 2, "b": 1, "r": 1, "l": 0, "groups": [[[0, 0]], [[1, 0]]], field: value}
        with pytest.raises(ValueError, match=f"^{field}={value} must be non-negative$"):
            Partition.from_json_dict(data)
        fields = {"r": 1, "l": 0, "dropped_empty": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field}={value} must be non-negative$"):
            Partition(BlockShape(2, 1), (((0, 0),), ((1, 0),)), **fields)

    @pytest.mark.parametrize("field, value", [("r", -2), ("l", -1)])
    def test_a_negative_design_field_fails_as_it_is_built(self, field, value):
        data = {"b": 4, "r": 2, "l": 1, "sets": [[0, 1], [2, 3]], field: value}
        with pytest.raises(ValueError, match=f"^{field}={value} must be non-negative$"):
            Design.from_json_dict(data)
        with pytest.raises(ValueError, match=f"^{field}={value} must be non-negative$"):
            Design(**data)

    def test_integral_floats_load_as_ints(self):
        part = Partition.from_json_dict({"s": 2.0, "b": 1, "r": 1.0, "l": 0, "groups": [[[0, 0.0]], [[1, 0]]]})
        assert part == Partition(BlockShape(2, 1), (((0, 0),), ((1, 0),)), r=1, l=0)
        design = Design.from_json_dict({"b": 4.0, "r": 2, "l": 1, "sets": [[0, 1.0], [2, 3]]})
        assert design == Design(4, 2, 1, ((0, 1), (2, 3))) and type(design.b) is int
        assert BlockMatrix.from_json_dict({"s": 1.0, "b": 1, "entries": [2.0]}).shape == BlockShape(1, 1)

    def test_dropped_empty_defaults_to_zero(self):
        data = good_partition(8, 5, 2).to_json_dict()
        del data["dropped_empty"]
        assert Partition.from_json_dict(data).dropped_empty == 0

    @pytest.mark.parametrize("collecting", [True, False])
    def test_collector_paused_and_restored(self, collecting):
        # the cell lists are made with the collector paused; the output is
        # the cells group by group, and the collector is left as it was
        part = good_partition(40, 37, 2)
        expected = [[[int(i), int(j)] for i, j in group] for group in part.groups]
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            data = part.to_json_dict()
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert data["groups"] == expected
        assert json.dumps(data) == json.dumps(_as_tuples(part).to_json_dict())


def _as_tuples(part):
    """The same partition built through the constructor from a tuple of
    (row, col) tuples."""
    groups = tuple(tuple((int(i), int(j)) for i, j in g) for g in part.groups)
    return Partition(part.shape, groups, part.r, part.l, part.dropped_empty)


@pytest.mark.parametrize("make", [
    lambda: good_partition(12, 9, 2),
    lambda: restrict(good_partition(16, 16, 2), 11, 7),
    lambda: partition_from_sets([list(range(4))] * 3, 3, 4),
    lambda: singleton_partition(3, 4),
])
class TestCellGroups:
    def test_tuple_and_array_built_compare_and_hash_equal(self, make):
        part = make()
        again = _as_tuples(part)
        as_tuple = tuple(part.groups)
        assert part == again and again == part
        assert hash(part) == hash(again)
        assert part.groups == as_tuple and as_tuple == part.groups
        assert hash(part.groups) == hash(as_tuple)
        assert part.groups != as_tuple[:-1] and as_tuple[:-1] != part.groups

    def test_json_bytes_identical(self, make):
        part = make()
        assert json.dumps(part.to_json_dict()) == json.dumps(_as_tuples(part).to_json_dict())
        assert Partition.from_json_dict(part.to_json_dict()) == part

    def test_replace_keeps_the_arrays(self, make):
        part = make()
        other = replace(part, r=part.r + 1)
        assert other.groups is part.groups and other.r == part.r + 1

    def test_arrays_are_read_only(self, make):
        groups = make().groups
        for held in (groups, copy.deepcopy(groups), pickle.loads(pickle.dumps(groups))):
            assert held == groups
            for a in (held.sizes, held.rows, held.cols):
                assert a.dtype == np.int64
                with pytest.raises(ValueError):
                    a[0] = 7

    def test_reads_as_tuples_of_int_pairs(self, make):
        groups = make().groups
        as_tuple = tuple(groups)
        assert all(type(g) is tuple for g in as_tuple)
        assert all(type(c) is tuple and tuple(map(type, c)) == (int, int) for g in as_tuple for c in g)
        assert len(groups) == len(as_tuple)
        assert [groups[k] for k in range(len(groups))] == list(as_tuple)
        assert groups[-1] == as_tuple[-1] and groups[1:3] == as_tuple[1:3]
        with pytest.raises(IndexError):
            groups[len(groups)]


def test_cells_must_be_pairs():
    with pytest.raises(ValueError, match="pair"):
        Partition(BlockShape(1, 1), (((0, 0, 0),),), r=1, l=0)
    with pytest.raises(ValueError, match="pair"):
        Partition(BlockShape(1, 1), ((0,),), r=1, l=0)


def test_empty_groups_and_outside_cells_are_held():
    # malformed partitions stay representable, for verify_partition to report
    part = Partition(BlockShape(2, 2), ((), ((0, 0), (5, -1))), r=2, l=1)
    assert part.groups.sizes.tolist() == [0, 2] and part.groups == ((), ((0, 0), (5, -1)))
    assert verify_partition(part).violations[:2] == (
        "group 0 is empty",
        "group 1 has cell (5, -1) outside the grid",
    )


@pytest.mark.parametrize("field_order", ["power_of_two", "smallest"])
def test_design_grids_up_to_4096_columns_stay_within_the_cap(field_order):
    from mixedwidths.partitions import _field_order

    for d in (2, 3, 4):
        assert max(_field_order(b, d, field_order) ** d for b in range(2, 4097)) == MAX_DESIGN_POINTS


def test_design_grid_over_the_cap_refused():
    with pytest.raises(ValueError, match="4096"):
        good_partition(8, 8, 13)
    with pytest.raises(ValueError, match="4096"):
        good_partition(3200, 3200, 5, field_order="smallest")  # 7^5 points


@pytest.mark.parametrize("field_order", ["power_of_two", "smallest"])
def test_columns_over_the_cap_refused_before_any_search(field_order):
    # stepping r up to 10^10 would take hours
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceed the 4096 points"):
        good_partition(10**20, 10**20, 2, field_order=field_order)
    assert time.perf_counter() - start < 1.0


def test_design_memberships_over_the_cap_refused():
    # of the designs within the 4096-point cap only 2^12 (16,773,120
    # memberships) is refused; 4^6 (5,591,040) and 2^11 are built
    within_points = [
        (r, d) for r in range(2, 65) if is_supported_order(r)
        for d in range(2, 13) if r**d <= MAX_DESIGN_POINTS
    ]
    assert len(within_points) == 52
    for r, d in within_points:
        error = design_size_error(r, d)
        if (r, d) == (2, 12):
            assert error == "design grid r^d = 2^12 has 16773120 line memberships, over 6000000"
        else:
            assert error is None, (r, d)
    _good_partition_full.cache_clear()
    with pytest.raises(ValueError, match="16773120 line memberships"):
        good_partition(8, 8, 12)
    assert _good_partition_full.cache_info().misses == 0


def test_cold_good_partition_peak_memory():
    # the repeated design is never materialised: about 4.8 MiB, where
    # building and sorting the l copies of every line took 12.6 MiB
    good_partition(4, 4, 2)  # first-call imports
    affine_line_design.cache_clear()
    _good_partition_full.cache_clear()
    tracemalloc.start()
    try:
        good_partition(297, 291, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20


@pytest.mark.parametrize("d", [2, 3])
def test_verify_partition_peak_memory_at_the_grid_guard(d):
    # the check on a 10^6-cell grid peaked at about 32 MiB for d = 2 and 3
    # (55 MiB while it sorted every (group, column) key); the bound leaves
    # a 25 % margin.  Lifting the 10^6-cell guard needs such a figure above it.
    part = good_partition(1000, 1000, d)
    verify_partition(good_partition(8, 8, d))  # first-call imports
    tracemalloc.start()
    try:
        report = verify_partition(part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.l_observed == part.l
    assert peak < 40 * 2**20, peak / 2**20


def _verify_bytes_per_cell(part):
    verify_partition(good_partition(8, 8, 2))  # first-call imports
    tracemalloc.start()
    try:
        report = verify_partition(part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.l_observed == part.l
    return peak / (part.shape.s * part.shape.b)


def test_verify_partition_bytes_per_cell_of_a_good_partition():
    # a one-byte hit per cell for the cover and a dense pair count: about
    # 13 bytes a cell at 2048^2, where an int64 cover bincount and a sorted
    # pair count took 33
    assert _verify_bytes_per_cell(good_partition(2048, 2048, 2)) < 16


def test_verify_partition_bytes_per_cell_of_a_transposition_partition():
    # each group's two columns are out of order, so the (group, column)
    # keys are sorted: about 30 bytes a cell at s = 2048, where the sort's
    # copies and a sorted pair count took 50
    assert _verify_bytes_per_cell(transposition_partition(2048)) < 36


def test_construction_caches_stay_within_their_bound():
    # a sweep over more distinct designs and grids than either cache holds
    # keeps at most maxsize of each, where an unbounded cache held them all
    designs = [(r, d) for r in range(2, 24) if is_supported_order(r) for d in range(2, 10) if r**d <= 512]
    for cache, sweep in (
        (affine_line_design, lambda: [affine_line_design(r, d) for r, d in designs]),
        (_good_partition_full, lambda: [good_partition(s, 4, 2) for s in range(4, 40)]),
    ):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and maxsize >= 16
        cache.cache_clear()
        built = sweep()
        assert len(built) > maxsize
        assert cache.cache_info().currsize == maxsize
