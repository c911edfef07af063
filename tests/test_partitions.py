import pytest

from mixedwidths import (
    Partition,
    affine_line_design,
    good_partition,
    partition_from_sets,
    restrict,
    singleton_partition,
    verify_partition,
)


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
        from mixedwidths import BlockShape

        huge = Partition(shape=BlockShape(1001, 1001), groups=(((0, 0),),), r=1, l=0)
        with pytest.raises(ValueError):
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

    def test_dropped_empty_defaults_to_zero(self):
        data = good_partition(8, 5, 2).to_json_dict()
        del data["dropped_empty"]
        assert Partition.from_json_dict(data).dropped_empty == 0
