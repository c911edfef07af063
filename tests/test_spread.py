import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mixedwidths import (
    BlockMatrix,
    BlockShape,
    Exponent,
    Partition,
    SpreadOperator,
    approximate,
    best_k_term,
    ceil_power,
    check_one_column_bound,
    choose_pipeline_params,
    d0_mixed,
    extreme_points_inf1,
    float_pow,
    good_partition,
    grouped_subspace_approximate,
    lq_norm,
    mixed_norm,
    partition_from_sets,
    pipeline_operators,
    sample_ball,
    sampled_sup,
    singleton_partition,
    spread_error_coefficient,
    transposition_partition,
    verify_partition,
)
from mixedwidths import norms
from mixedwidths import spread as spread_module
from mixedwidths.norms import _chunk_points
from mixedwidths.spread import _error_coefficient, _Plan


def _transposition_image(x: BlockMatrix) -> np.ndarray:
    """Dense oracle for the transposition spread: x + x^T with the diagonal
    kept once."""
    mat = x.as_matrix()
    out = mat + mat.T
    np.fill_diagonal(out, np.diagonal(mat))
    return out


class TestSpreadOperator:
    def test_singleton_is_identity(self):
        x = BlockMatrix.from_matrix(np.arange(12.0).reshape(3, 4))
        op = SpreadOperator(singleton_partition(3, 4))
        assert np.array_equal(op.apply(x).entries, x.entries)

    def test_row_partition_spreads_rows(self):
        part = partition_from_sets([list(range(4))] * 3, 3, 4)
        x = BlockMatrix.one_column(BlockShape(3, 4), 0, [1, 0, 0])
        image = SpreadOperator(part).apply(x).as_matrix()
        assert np.array_equal(image, [[1, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]])

    def test_transposition_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        part = transposition_partition(5)
        op = SpreadOperator(part)
        for _ in range(50):
            x = BlockMatrix(BlockShape(5, 5), rng.standard_normal(25))
            assert np.allclose(op.apply(x).as_matrix(), _transposition_image(x), atol=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(22)
        op = SpreadOperator(good_partition(8, 8, 2))
        for _ in range(100):
            x = BlockMatrix(BlockShape(8, 8), rng.standard_normal(64))
            y = BlockMatrix(BlockShape(8, 8), rng.standard_normal(64))
            a, b = rng.standard_normal(2)
            lhs = op.apply(BlockMatrix(x.shape, a * x.entries + b * y.entries)).entries
            rhs = a * op.apply(x).entries + b * op.apply(y).entries
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_range_constant_on_groups(self):
        rng = np.random.default_rng(23)
        part = good_partition(9, 7, 2)
        op = SpreadOperator(part)
        x = BlockMatrix(BlockShape(9, 7), rng.standard_normal(63))
        image = op.apply(x).as_matrix()
        for group in part.groups:
            values = {image[i, j] for (i, j) in group}
            assert len(values) == 1

    def test_dim_counts_nonempty_groups(self):
        part = good_partition(16, 16, 2)
        assert SpreadOperator(part).dim == part.m

    def test_shape_mismatch_rejected(self):
        op = SpreadOperator(singleton_partition(2, 2))
        with pytest.raises(ValueError):
            op.apply(BlockMatrix.zeros(BlockShape(3, 2)))

    def test_partition_must_cover(self):
        from mixedwidths import Partition

        gappy = Partition(BlockShape(2, 2), (((0, 0),), ((1, 1),)), r=1, l=0)
        with pytest.raises(ValueError):
            SpreadOperator(gappy)

    def test_overlapping_groups_rejected(self):
        from mixedwidths import Partition

        # cell (0, 0) sits in two groups; dim would read 5 on a 4-cell grid
        groups = (((0, 0),), ((0, 0),), ((1, 0),), ((0, 1),), ((1, 1),))
        overlapping = Partition(BlockShape(2, 2), groups, r=2, l=1)
        with pytest.raises(ValueError, match="more than one group"):
            SpreadOperator(overlapping)

    def test_empty_group_rejected(self):
        from mixedwidths import Partition, verify_partition

        # covers the grid, but group 1 is empty: dim would read 4 for a range of dimension 3
        groups = (((0, 0), (1, 1)), (), ((1, 0),), ((0, 1),))
        empty = Partition(BlockShape(2, 2), groups, r=2, l=1)
        assert "group 1 is empty" in verify_partition(empty).violations
        with pytest.raises(ValueError, match="partition has an empty group"):
            SpreadOperator(empty)

    @pytest.mark.parametrize("cell", [(2, 0), (0, 2), (-1, 0)])
    def test_cell_outside_grid_rejected(self, cell):
        from mixedwidths import Partition

        groups = (((0, 0),), ((1, 0),), ((0, 1),), ((1, 1), cell))
        with pytest.raises(ValueError, match="outside the grid"):
            SpreadOperator(Partition(BlockShape(2, 2), groups, r=2, l=1))


class TestErrorCoefficient:
    def test_singleton_p1_is_zero(self):
        part = singleton_partition(4, 4)
        assert spread_error_coefficient(part, 1, 1, 2) == 0.0

    def test_transposition_sup_to_12(self):
        part = transposition_partition(9)
        assert spread_error_coefficient(part, "inf", 1, 2) == pytest.approx(3.0, abs=1e-12)

    def test_good_16_16_2(self):
        part = good_partition(16, 16, 2)
        assert spread_error_coefficient(part, "inf", 1, 2) == pytest.approx(16.0, abs=1e-12)

    def test_remembered_per_parameters_and_exponents(self):
        # the value is the formula's, computed once per (r, l, b, p, q1, q2)
        # whatever the partition object and the spelling of the exponents
        part = good_partition(12, 10, 2)
        formula = float_pow(part.l, Fraction(1, 6)) * float_pow(part.r - 1, Fraction(1, 2))
        first = spread_error_coefficient(part, 2, "3/2", 2)
        hits = _error_coefficient.cache_info().hits
        twin = Partition(part.shape, part.groups, r=part.r, l=part.l)
        again = spread_error_coefficient(twin, "2", Fraction(3, 2), 2)
        assert first == again == formula
        assert _error_coefficient.cache_info().hits == hits + 1


    @pytest.mark.parametrize("p", [1, 2, "inf"])
    def test_an_r_below_1_is_refused(self, p):
        # (r - 1)^(1/p) is real only for r >= 1: r = 0 gave 0j, or -1.0 at p = inf
        part = Partition(BlockShape(2, 1), (((0, 0),), ((1, 0),)), r=0, l=0)
        with pytest.raises(ValueError, match="^certified r=0 must be at least 1$"):
            spread_error_coefficient(part, p, 1, 2)


class TestOneColumnBound:
    def test_zero_vector(self):
        part = transposition_partition(3)
        x = BlockMatrix.zeros(BlockShape(3, 3))
        check = check_one_column_bound(SpreadOperator(part), 1, 1, 2, x)
        assert check.ok and check.lhs == 0.0 and check.rhs == 0.0

    def test_extreme_column_near_tight(self):
        s = 8
        part = transposition_partition(s)
        x = BlockMatrix.one_column(BlockShape(s, s), 2, np.ones(s))
        check = check_one_column_bound(SpreadOperator(part), "inf", 1, 2, x)
        assert check.lhs == pytest.approx(math.sqrt(s - 1), abs=1e-12)
        assert check.rhs == pytest.approx(math.sqrt(s), abs=1e-12)
        assert check.ok

    def test_randomized_certification(self):
        rng = np.random.default_rng(31)
        partitions = [
            good_partition(12, 12, 2),
            transposition_partition(10),
            singleton_partition(6, 9),
        ]
        configs = [
            (p, q1, q2)
            for p in (1, 2, "inf")
            for (q1, q2) in ((1, 2), (1, 1), (2, 2), (2, "inf"))
        ]
        for part in partitions:
            op = SpreadOperator(part)
            s, b = part.shape.s, part.shape.b
            for (p, q1, q2) in configs:
                for _ in range(100):
                    j = int(rng.integers(0, b))
                    x = BlockMatrix.one_column(part.shape, j, rng.standard_normal(s))
                    assert check_one_column_bound(op, p, q1, q2, x).ok

    def test_multi_column_support_rejected(self):
        part = transposition_partition(3)
        x = BlockMatrix.from_matrix(np.ones((3, 3)))
        with pytest.raises(ValueError):
            check_one_column_bound(SpreadOperator(part), 1, 1, 2, x)

    def test_lhs_matches_full_grid_spread(self):
        # spreading the one column alone gives the same bits as spreading
        # the whole grid and subtracting
        rng = np.random.default_rng(32)
        partitions = (good_partition(12, 12, 2), transposition_partition(10), singleton_partition(6, 9))
        for part in partitions:
            op = SpreadOperator(part)
            for _ in range(50):
                j = int(rng.integers(0, part.shape.b))
                x = BlockMatrix.one_column(part.shape, j, rng.standard_normal(part.shape.s))
                for q1, q2 in ((1, 2), (2, "inf")):
                    lhs = check_one_column_bound(op, 2, q1, q2, x).lhs
                    assert lhs == mixed_norm(x - op.apply(x), (q1, q2))

    def test_shape_mismatch_rejected(self):
        x = BlockMatrix.one_column(BlockShape(3, 3), 0, np.ones(3))
        with pytest.raises(ValueError):
            check_one_column_bound(SpreadOperator(transposition_partition(4)), 1, 1, 2, x)

class TestBestKTerm:
    def test_keep_largest(self):
        result = best_k_term([3, 2, 1], 1, "inf")
        assert result.error == 2.0 and result.support == (0,)

    def test_budget_covers_support(self):
        result = best_k_term([0, 5, 0, -1], 2, 2)
        assert result.error == 0.0 and result.support == (1, 3)

    def test_ties_take_lowest_index(self):
        result = best_k_term([1.0, -1.0, 1.0], 2, 1)
        assert result.support == (0, 1)

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            best_k_term([1, 2], 3, 1)

    def test_greedy_matches_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            y = rng.standard_normal(n)
            for q in (1, 2, "inf"):
                qe = Exponent.of(q)
                for k in range(n + 1):
                    best = min(
                        lq_norm(
                            [y[i] for i in range(n) if i not in set(supp)], qe
                        )
                        for supp in itertools.combinations(range(n), k)
                    )
                    assert best_k_term(y, k, qe).error == pytest.approx(best, abs=1e-12)

    def test_decay_inequality_spot(self):
        rng = np.random.default_rng(33)
        p, q = Exponent.of(1), Exponent.of(2)
        for _ in range(300):
            y = rng.standard_normal(int(rng.integers(1, 20)))
            k = int(rng.integers(1, y.size + 1))
            bound = float(k) ** (-float(p.recip - q.recip)) * lq_norm(y, p)
            assert best_k_term(y, k - 1, q).error <= bound + 1e-9


class TestChooseParams:
    def test_square_example_tuple(self):
        params = choose_pipeline_params("inf", 1, 1, 2, 256, 256)
        assert params.alpha == Fraction(1, 2)
        assert params.d == 4
        assert params.k == 2

    def test_k_grows_with_b(self):
        params = choose_pipeline_params("inf", 1, 1, 2, 10**6, 10**6)
        assert params.k == ceil_power(10**6, Fraction(1, 8))

    def test_non_exceptional_rejected_with_reason(self):
        with pytest.raises(ValueError, match="q1 < p1"):
            choose_pipeline_params(2, 2, 2, 2, 4, 4)
        with pytest.raises(ValueError, match="q2 <= 2"):
            choose_pipeline_params("inf", 1, 1, 3, 4, 4)

    def test_d_rule_minimal(self):
        # alpha = 1/q1 - 1/q2 when p1 = inf and q2 <= 2 <= p1
        params = choose_pipeline_params("inf", 1, "4/3", 2, 16, 16)
        alpha = Fraction(3, 4) - Fraction(1, 2)
        assert params.alpha == alpha
        d = params.d
        assert Fraction(1, d) * Fraction(3, 4) <= alpha / 2
        assert d == 2 or Fraction(1, d - 1) * Fraction(3, 4) > alpha / 2


class TestApproximate:
    def test_zero_input(self):
        params = choose_pipeline_params("inf", 1, 1, 2, 4, 4)
        part = transposition_partition(4)
        res = approximate(BlockMatrix.zeros(BlockShape(4, 4)), params, SpreadOperator(part))
        assert res.measured_error == 0.0 and res.certified_bound == 0.0

    def test_single_column_within_budget(self):
        params = choose_pipeline_params("inf", 1, 1, 2, 8, 8)
        part = good_partition(8, 8, params.d)
        x = BlockMatrix.one_column(BlockShape(8, 8), 5, np.ones(8))
        res = approximate(x, params, SpreadOperator(part))
        assert res.tail_error == 0.0
        assert res.selected_columns == (5,)
        direct = mixed_norm(x - SpreadOperator(part).apply(x), (1, 2))
        assert res.measured_error == pytest.approx(direct, abs=1e-15)

    def test_square_example_exact_values(self):
        s = 16
        params = choose_pipeline_params("inf", 1, 1, 2, s, s)
        part = transposition_partition(s)
        x = extreme_points_inf1(BlockShape(s, s), seed=5, count=1)[0]
        res = approximate(x, params, SpreadOperator(part))
        assert res.measured_error == pytest.approx(math.sqrt(s - 1), abs=1e-12)
        assert res.certified_bound == pytest.approx(math.sqrt(s), abs=1e-12)
        d0 = d0_mixed(BlockShape(s, s), "inf", 1, 1, 2)
        assert res.certified_bound / d0 == pytest.approx(1 / math.sqrt(s), abs=1e-12)
        assert res.dim == s * (s + 1) // 2

    def test_certified_dominates_measured_on_samples(self):
        params = choose_pipeline_params("inf", 1, 1, 2, 16, 16)
        part = good_partition(16, 16, params.d)
        op = SpreadOperator(part)
        points = sample_ball(BlockShape(16, 16), "inf", 1, seed=6, count=20)
        points += extreme_points_inf1(BlockShape(16, 16), seed=7, count=20)
        for x in points:
            res = approximate(x, params, op)
            assert res.measured_error <= res.certified_bound + 1e-9

    def test_residual_structure_for_one_column(self):
        params = choose_pipeline_params("inf", 1, 1, 2, 16, 16)
        part = good_partition(16, 16, params.d)
        op = SpreadOperator(part)
        rng = np.random.default_rng(34)
        sizes = {k: len(g) for k, g in enumerate(part.groups)}
        for _ in range(50):
            j = int(rng.integers(0, 16))
            x = BlockMatrix.one_column(part.shape, j, rng.standard_normal(16))
            res = x - op.apply(x)
            nnz = (res.as_matrix() != 0).sum(axis=0)
            assert nnz[j] == 0
            assert (nnz <= part.l).all()
            expected = sum(
                sizes[op._group_index[j * 16 + i]] - 1 for i in range(16)
            )
            assert int((res.entries != 0).sum()) == expected
            assert max(sizes.values()) - 1 <= part.r - 1

    def test_ball_membership_enforced(self):
        params = choose_pipeline_params("inf", 1, 1, 2, 4, 4)
        part = transposition_partition(4)
        x = BlockMatrix(BlockShape(4, 4), 2 * np.ones(16))
        with pytest.raises(ValueError):
            approximate(x, params, SpreadOperator(part))

    def test_shape_mismatch_rejected(self):
        params = choose_pipeline_params("inf", 1, 1, 2, 4, 4)
        op = SpreadOperator(transposition_partition(5))
        with pytest.raises(ValueError):
            approximate(BlockMatrix.zeros(BlockShape(4, 4)), params, op)

    def test_oversized_budget_clamped(self):
        params = replace(choose_pipeline_params("inf", 1, 1, 2, 4, 4), k=100)
        part = transposition_partition(4)
        x = extreme_points_inf1(BlockShape(4, 4), seed=11, count=1)[0]
        res = approximate(x, params, SpreadOperator(part))
        assert res.tail_error == 0.0 and len(res.selected_columns) <= 4

    def test_json_payload(self):
        params = choose_pipeline_params("inf", 1, 1, 2, 4, 4)
        part = transposition_partition(4)
        x = extreme_points_inf1(BlockShape(4, 4), seed=12, count=1)[0]
        payload = approximate(x, params, SpreadOperator(part)).to_json_dict()
        assert set(payload) == {
            "selected_columns", "measured_error", "certified_bound", "dim", "tail_error",
        }


class TestSampledSup:
    def test_memory_stays_within_a_few_points(self):
        # 64 ball points through a prebuilt operator, in chunks of 4 drawn
        # into the stream's one array: memory does not grow with the count
        s = b = 128
        params = choose_pipeline_params("2", 1, 1, 2, s, b)
        part = good_partition(s, b, params.d, field_order="smallest")
        ops = {b: SpreadOperator(part)}
        sampled_sup(BlockShape(s, b), params, ops, 0, 1)  # first-call imports
        tracemalloc.start()
        try:
            sup = sampled_sup(BlockShape(s, b), params, ops, 0, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sup.count == 64 and sup.dim == part.m
        assert sup.sup_error <= sup.sup_bound + 1e-9
        assert peak < 8 * s * b * 8, peak / (s * b * 8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_screen_runs_few_points_exactly(self, seed):
        # one point a chunk at 251 x 251: only the points the screen cannot
        # rule out run through the pipeline, so a looser margin fails here
        s = b = 251
        params = choose_pipeline_params("2", 1, 1, 2, s, b)
        ops = pipeline_operators(s, b, params.d, "good")
        sup = sampled_sup(BlockShape(s, b), params, ops, seed, 96)
        assert sup.count == 96
        assert 1 <= sup.exact_points <= 8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("s,b,count", [(251, 251, 96), (57, 1016, 12)])
    def test_inf_1_ball_points_draw_no_block(self, monkeypatch, s, b, count, seed):
        # a sweep row and a witness grid: each (inf, 1) ball point is
        # screened from its weights alone, and the bound from the column
        # scores rules every one out, so none draws its blocks or reruns
        draw = norms._symmetric_power_sample

        def no_blocks(rng, p, size, out=None):
            if size == (b, s):
                raise AssertionError("a ball point drew its blocks")
            return draw(rng, p, size, out)

        monkeypatch.setattr(norms, "_symmetric_power_sample", no_blocks)
        params = choose_pipeline_params("inf", 1, 1, 2, s, b)
        sup = sampled_sup(BlockShape(s, b), params, pipeline_operators(s, b, params.d, "good"), seed, count)
        assert sup.count == 2 * count
        assert sup.exact_points == 0



class TestOperatorCache:
    @pytest.mark.parametrize("p1", ["inf", "2"])
    @pytest.mark.parametrize("s,b", [(48, 48), (90, 90), (12, 40), (30, 100)])
    def test_cached_operators_give_a_fresh_build_s_sup(self, p1, s, b):
        # square and wide grids, both exceptional tuples: the shared
        # operators, warm from the first call, against new ones per width
        shape, params = BlockShape(s, b), choose_pipeline_params(p1, 1, 1, 2, s, b)
        cached = pipeline_operators(s, b, params.d, "good")
        again = pipeline_operators(s, b, params.d, "good")
        assert all(again[w] is op for w, op in cached.items())
        for seed in (0, 1):
            fresh = {
                w: SpreadOperator(good_partition(s, w, params.d, field_order="smallest")) for w in cached
            }
            warm, new = (sampled_sup(shape, params, ops, seed, 8) for ops in (cached, fresh))
            assert warm == new
            assert (math.copysign(1, warm.sup_error), warm.sup_error.hex()) == (1, new.sup_error.hex())
            assert warm.sup_bound.hex() == new.sup_bound.hex()

    def test_cache_stays_within_its_bound(self):
        cache = spread_module._good_operator
        maxsize = cache.cache_info().maxsize
        assert maxsize == 16
        cache.cache_clear()
        built = [pipeline_operators(s, s, 2, "good") for s in range(4, 24)]
        assert len(built) > maxsize
        assert cache.cache_info().currsize == maxsize

    def test_cached_arrays_are_read_only(self):
        op = pipeline_operators(40, 40, 4, "good")[40]
        arrays = [
            op._group_index, op._column_groups, op._group_cells, op._group_size, op._group_start,
            op.partition.groups.rows, op.partition.groups.cols, op._column_counts, op._column_norms(Exponent.TWO),
        ]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.reshape(-1)[:1] = 0
        assert op._column_counts.dtype == np.uint8
        assert op._column_norms(Exponent.TWO) is op._column_norms(Exponent.TWO)


class TestExtremeColumns:
    """An extreme point of the (inf, 1) ball on column j leaves, in every
    other column j', one unit of residual for each group meeting j and j':
    its error for (inf, 1, 1, 2) is the 2-norm of those pair counts."""

    @staticmethod
    def _errors(shape, params, op):
        """Each column's error, through approximate on a point of random
        signs and as sampled_sup scores the column."""
        s, b = shape.s, shape.b
        rng = np.random.default_rng(s)
        looped = [
            approximate(BlockMatrix.one_column(shape, j, rng.integers(0, 2, size=s) * 2.0 - 1.0), params, op)
            for j in range(b)
        ]
        scored, _, _ = _Plan(shape, params, b, {b: op}, _chunk_points(shape))._score_columns(np.arange(b))
        assert scored.tolist() == [res.measured_error for res in looped]
        return scored

    @pytest.mark.parametrize("r,d,ratio", [(2, 4, 0.3536), (3, 4, 0.2722), (4, 4, 0.2165)])
    def test_aligned_grids_have_the_closed_form(self, r, d, ratio):
        # s = b = r^d gives l = r copies of each line, and the s rows hold
        # r^(d-1) directions: the (r-1) * r^(d-1) columns on a line through
        # j share l groups with it, the others none, so the error over
        # d0 = s is sqrt((r-1) * r^(d-1)) * r / r^d
        n = r**d
        shape = BlockShape(n, n)
        params = choose_pipeline_params("inf", 1, 1, 2, n, n)
        part = good_partition(n, n, params.d, field_order="smallest")
        assert (params.d, part.r, part.l, params.k) == (d, r, r, 2)
        op = SpreadOperator(part)
        closed = math.sqrt((r - 1) / r ** (d - 1))
        assert round(closed, 4) == ratio
        d0 = d0_mixed(shape, "inf", 1, 1, 2)
        assert d0 == n
        errors = self._errors(shape, params, op) / d0
        assert errors == pytest.approx(np.full(n, closed), rel=1e-12)
        sup = sampled_sup(shape, params, {n: op}, 0, 8)
        assert sup.sup_error / d0 == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("s", [2, 5, 16, 33])
    def test_transposition_partition_gives_root_s_minus_one(self, s):
        # any two columns share exactly one group
        shape = BlockShape(s, s)
        params = choose_pipeline_params("inf", 1, 1, 2, s, s)
        assert params.k >= 2
        errors = self._errors(shape, params, SpreadOperator(transposition_partition(s)))
        assert errors == pytest.approx(np.full(s, math.sqrt(s - 1)), rel=1e-12)


class TestGroupedApproximate:
    def test_narrow_grid_rejected(self):
        params = choose_pipeline_params("inf", 1, 1, 2, 8, 8)
        with pytest.raises(ValueError):
            grouped_subspace_approximate(BlockMatrix.zeros(BlockShape(8, 8)), params)

    def test_zero_input(self):
        params = choose_pipeline_params("inf", 1, 1, 2, 4, 8)
        res = grouped_subspace_approximate(BlockMatrix.zeros(BlockShape(4, 8)), params)
        assert res.measured_error == 0.0

    def test_locality_of_supported_group(self):
        s, b = 8, 16
        params = choose_pipeline_params("inf", 1, 1, 2, s, b)
        rng = np.random.default_rng(35)
        column = rng.uniform(-1, 1, s) / s
        x = BlockMatrix.one_column(BlockShape(s, b), 3, column)
        res = grouped_subspace_approximate(x, params)
        # nothing placed outside the supported column group
        assert np.all(res.approximant.entries[s * s :] == 0)
        sub = BlockMatrix(BlockShape(s, s), x.entries[: s * s])
        sub_params = replace(params, k=max(1, ceil_power(s, params.alpha / 4)))
        single = approximate(sub, sub_params, SpreadOperator(good_partition(s, s, params.d)))
        assert res.measured_error == single.measured_error
        assert np.array_equal(res.approximant.entries[: s * s], single.approximant.entries)

    def test_dimension_adds_over_groups(self):
        s, b = 8, 32
        params = choose_pipeline_params("inf", 1, 1, 2, s, b)
        x = sample_ball(BlockShape(s, b), "inf", 1, seed=8, count=1)[0]
        res = grouped_subspace_approximate(x, params)
        sub_params = replace(params, k=max(1, ceil_power(s, params.alpha / 4)))
        single = approximate(
            BlockMatrix.zeros(BlockShape(s, s)),
            sub_params,
            SpreadOperator(good_partition(s, s, params.d)),
        )
        assert res.dim == 4 * single.dim

    def test_groups_use_smallest_order(self):
        s, b = 32, 64
        params = choose_pipeline_params("inf", 1, 1, 2, s, b)
        x = extreme_points_inf1(BlockShape(s, b), seed=13, count=1)[0]
        res = grouped_subspace_approximate(x, params)
        part = good_partition(s, s, params.d, field_order="smallest")
        assert part.r == 3 and res.dim == 2 * part.m
        assert res.measured_error <= res.certified_bound + 1e-9

    def test_certified_dominates_measured(self):
        s, b = 8, 32
        params = choose_pipeline_params("inf", 1, 1, 2, s, b)
        points = sample_ball(BlockShape(s, b), "inf", 1, seed=9, count=10)
        points += extreme_points_inf1(BlockShape(s, b), seed=10, count=10)
        for x in points:
            res = grouped_subspace_approximate(x, params)
            assert res.measured_error <= res.certified_bound + 1e-9

    def test_ragged_final_group(self):
        s, b = 8, 20  # groups of widths 8, 8, 4
        params = choose_pipeline_params("inf", 1, 1, 2, s, b)
        for x in sample_ball(BlockShape(s, b), "inf", 1, seed=11, count=6):
            res = grouped_subspace_approximate(x, params)
            assert res.measured_error <= res.certified_bound + 1e-9

    def test_missing_width_named_before_point_work(self):
        # groups of 8 tile 40 columns, but a 36-column point also needs width 4
        s, b = 8, 36
        params = choose_pipeline_params("inf", 1, 1, 2, s, b)
        ops = pipeline_operators(s, 40, params.d, "good")
        assert sorted(ops) == [8]
        with pytest.raises(ValueError, match="width 4"):
            grouped_subspace_approximate(BlockMatrix.zeros(BlockShape(s, b)), params, ops)
        # raised before the ball check: a point outside the ball fails the same way
        outside = BlockMatrix(BlockShape(s, b), np.full(s * b, 5.0))
        with pytest.raises(ValueError, match="width 4"):
            grouped_subspace_approximate(outside, params, ops)

    def test_other_exceptional_tuple(self):
        s, b = 12, 12
        params = choose_pipeline_params(4, 1, 1, "3/2", s, b)
        part = good_partition(s, b, params.d)
        op = SpreadOperator(part)
        for x in sample_ball(BlockShape(s, b), 4, 1, seed=12, count=8):
            res = approximate(x, params, op)
            assert res.measured_error <= res.certified_bound + 1e-9


class TestTranspositionPartition:
    def test_smallest_case(self):
        part = transposition_partition(2)
        assert part.groups == (((0, 1), (1, 0)), ((0, 0),), ((1, 1),))

    def test_parameters(self):
        part = transposition_partition(4)
        assert part.m == 10 and part.r == 2 and part.l == 1
        assert verify_partition(part).ok

    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            transposition_partition(0)

    @pytest.mark.parametrize("s", range(1, 8))
    def test_groups_in_pair_order_then_the_diagonal(self, s):
        pairs = [((i, j), (j, i)) for i in range(s) for j in range(i + 1, s)]
        assert transposition_partition(s).groups == tuple(pairs) + tuple(((i, i),) for i in range(s))

    def test_peak_memory_is_its_arrays(self):
        # rows and columns are written pair by pair into their s^2 arrays:
        # about 1.0 times the three arrays' bytes, where the upper-triangle
        # indices and their stacked copies took 1.8 times
        transposition_partition(2)  # first-call imports
        tracemalloc.start()
        try:
            groups = transposition_partition(1024).groups
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = groups.sizes.nbytes + groups.rows.nbytes + groups.cols.nbytes
        assert peak < 1.25 * held, peak / held
