"""The streaming pipeline against the dense one it replaced.

``_oracle_approximate`` and ``_oracle_grouped_subspace_approximate`` are
the implementations the library used before ``approximate`` spread only
the selected columns: zero the other columns, spread the whole grid,
subtract.  ``_oracle_sample_ball`` and ``_oracle_extreme_points_inf1``
are the point-by-point samplers the chunked streams replaced.  Every
float the pipeline reports must be bit-identical to theirs, as must every
point the streams draw.
"""

import math
import sys
import threading
from contextlib import closing
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedwidths import (
    BlockMatrix,
    BlockShape,
    Exponent,
    Partition,
    SpreadOperator,
    approximate,
    block_norm_vector,
    choose_pipeline_params,
    d0_mixed,
    extreme_points_inf1,
    good_partition,
    grouped_subspace_approximate,
    lq_norm,
    mixed_norm,
    pipeline_operators,
    sample_ball,
    sampled_sup,
    transposition_partition,
)
from mixedwidths import norms as norms_module
from mixedwidths import spread as spread_module
from mixedwidths.norms import (
    _CHUNK_CELLS,
    _ball_draw,
    _chunk_points,
    _draw_ball_chunk,
    _draw_ball_raw,
    _draw_chunks,
    _extreme_columns,
    _extreme_draw,
    _row_norms,
    _stream_chunks,
    _symmetric_power_sample,
)
from mixedwidths.spread import (
    PIPELINE_FIELD_ORDER,
    ApproxResult,
    _group_budget,
    _Plan,
    best_k_term,
    ceil_power,
    float_pow,
    recip_gap,
    spread_error_coefficient,
)

# Fixed example sequence, no example database: the suite stays deterministic.
EXAMPLES = settings(max_examples=120, deadline=None, derandomize=True, database=None)

P1_VALUES = ("inf", "2", "3/2", "4")


# ------------------------------------------------------------- oracles


def _oracle_approximate(x, params, op):
    partition = op.partition
    if partition.shape != x.shape:
        raise ValueError("partition shape does not match the input")
    if mixed_norm(x, (params.p1, params.p2)) > 1 + 1e-9:
        raise ValueError("input lies outside the unit ball")

    y = block_norm_vector(x, params.p1)
    budget = min(max(params.k - 1, 0), x.shape.b)
    kterm = best_k_term(y, budget, params.q2)
    selected = kterm.support

    keep = np.zeros(x.shape.b, dtype=bool)
    keep[list(selected)] = True
    x_sel = BlockMatrix(x.shape, np.where(np.repeat(keep, x.shape.s), x.entries, 0.0))
    approximant = op.apply(x_sel)
    measured = mixed_norm(x - approximant, (params.q1, params.q2))

    coeff = spread_error_coefficient(partition, params.p1, params.q1, params.q2)
    tail_factor = float_pow(x.shape.s, recip_gap(params.q1, params.p1))
    certified = kterm.error * tail_factor + coeff * float(sum(y[j] for j in selected))

    return ApproxResult(
        selected_columns=selected,
        approximant=approximant,
        measured_error=measured,
        certified_bound=certified,
        dim=partition.m,
        tail_error=kterm.error,
    )


def _oracle_grouped_subspace_approximate(x, params, ops):
    s, b = x.shape.s, x.shape.b
    approx_entries = np.zeros(x.shape.n)
    selected, dim, bounds, tails = [], 0, [], []
    for g in range(-(-b // s)):
        lo, hi = g * s, min((g + 1) * s, b)
        width = hi - lo
        sub = BlockMatrix(BlockShape(s, width), x.entries[lo * s : hi * s])
        sub_k = max(1, ceil_power(width, params.alpha / 4))
        result = _oracle_approximate(sub, replace(params, k=sub_k), ops[width])
        approx_entries[lo * s : hi * s] = result.approximant.entries
        selected.extend(lo + j for j in result.selected_columns)
        dim += result.dim
        bounds.append(result.certified_bound)
        tails.append(result.tail_error)
    approximant = BlockMatrix(x.shape, approx_entries)
    return ApproxResult(
        selected_columns=tuple(selected),
        approximant=approximant,
        measured_error=mixed_norm(x - approximant, (params.q1, params.q2)),
        certified_bound=lq_norm(np.asarray(bounds), params.q2),
        dim=dim,
        tail_error=lq_norm(np.asarray(tails), params.q2),
    )


def _oracle_sample_ball(shape, p1, p2, seed, count):
    p1, p2 = Exponent.of(p1), Exponent.of(p2)
    rng = np.random.default_rng(seed)
    out = []
    for idx in range(count):
        blocks = _symmetric_power_sample(rng, p1, (shape.b, shape.s))
        blocks = blocks / _row_norms(blocks, p1)[:, None]
        weights = np.abs(_symmetric_power_sample(rng, p2, shape.b))
        weights = weights / lq_norm(weights, p2)
        flat = (blocks * weights[:, None]).reshape(-1)
        if idx % 2 == 1:
            flat = flat * float(rng.uniform()) ** (1.0 / shape.n)
        out.append(BlockMatrix(shape, flat))
    return out


def _oracle_extreme_points_inf1(shape, seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        j = int(rng.integers(0, shape.b))
        signs = rng.integers(0, 2, size=shape.s) * 2 - 1
        out.append(BlockMatrix.one_column(shape, j, signs.astype(float)))
    return out


# ------------------------------------------------------------- helpers


def _bits(value) -> bytes:
    """The exact float64 bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_same_result(got, expected):
    assert got.selected_columns == expected.selected_columns
    assert _bits(got.measured_error) == _bits(expected.measured_error)
    assert _bits(got.certified_bound) == _bits(expected.certified_bound)
    assert _bits(got.tail_error) == _bits(expected.tail_error)
    assert got.dim == expected.dim
    assert got.approximant.shape == expected.approximant.shape
    assert _bits(got.approximant.entries) == _bits(expected.approximant.entries)


def assert_same_points(got, expected):
    got, expected = list(got), list(expected)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.shape == b.shape and _bits(a.entries) == _bits(b.entries)


def _points(shape, p1, seed, count):
    """Ball points, the zero matrix and, for (inf, 1), extreme points."""
    points = _oracle_sample_ball(shape, p1, 1, seed, count) + [BlockMatrix.zeros(shape)]
    if Exponent.of(p1).is_inf:
        points += _oracle_extreme_points_inf1(shape, seed + 1, count)
    return points


def _params(p1, s, b, k):
    params = choose_pipeline_params(p1, 1, 1, 2, s, b)
    return params if k is None else replace(params, k=k)


# budgets of 0-3 columns, and the tuple's own k
K_VALUES = st.sampled_from((1, 2, 3, 4, None))
SEEDS = st.integers(0, 2**32 - 1)


# ------------------------------------------------------------- approximate


@EXAMPLES
@given(
    p1=st.sampled_from(P1_VALUES),
    b=st.integers(1, 30),
    extra_rows=st.integers(0, 12),
    k=K_VALUES,
    seed=SEEDS,
)
def test_approximate_matches_dense_on_good_partitions(p1, b, extra_rows, k, seed):
    # square grids (extra_rows = 0) and tall ones, through the pipeline's partition
    s = b + extra_rows
    params = _params(p1, s, b, k)
    partition = good_partition(s, b, params.d, field_order=PIPELINE_FIELD_ORDER)
    op = SpreadOperator(partition)
    for x in _points(BlockShape(s, b), p1, seed, 3):
        assert_same_result(approximate(x, params, op), _oracle_approximate(x, params, op))


@EXAMPLES
@given(p1=st.sampled_from(P1_VALUES), s=st.integers(1, 24), k=K_VALUES, seed=SEEDS)
def test_approximate_matches_dense_on_transposition_partitions(p1, s, k, seed):
    params = _params(p1, s, s, k)
    partition = transposition_partition(s)
    op = SpreadOperator(partition)
    for x in _points(BlockShape(s, s), p1, seed, 3):
        assert_same_result(approximate(x, params, op), _oracle_approximate(x, params, op))


@EXAMPLES
@given(p1=st.sampled_from(P1_VALUES), s=st.integers(1, 12), extra_cols=st.integers(1, 40), seed=SEEDS)
def test_grouped_matches_dense_on_wide_grids(p1, s, extra_cols, seed):
    b = s + extra_cols
    params = _params(p1, s, b, None)
    ops = pipeline_operators(s, b, params.d, "good")
    for x in _points(BlockShape(s, b), p1, seed, 3):
        assert_same_result(
            grouped_subspace_approximate(x, params, ops),
            _oracle_grouped_subspace_approximate(x, params, ops),
        )


def _band_partition(s, b, height):
    """Groups of `height` consecutive rows across every column, so a group
    meets every selected column: with three of them, each group sum adds
    three or more values and its result depends on their order."""
    groups = tuple(
        tuple((i, j) for i in range(lo, min(lo + height, s)) for j in range(b))
        for lo in range(0, s, height)
    )
    return Partition(BlockShape(s, b), groups, r=b * height, l=height * b)


@EXAMPLES
@given(
    p1=st.sampled_from(P1_VALUES),
    s=st.integers(1, 16),
    b=st.integers(1, 16),
    height=st.integers(1, 3),
    k=K_VALUES,
    seed=SEEDS,
)
def test_approximate_matches_dense_when_groups_meet_several_columns(p1, s, b, height, k, seed):
    s = max(s, b)
    params = _params(p1, s, b, k)
    partition = _band_partition(s, b, height)
    op = SpreadOperator(partition)
    for x in _points(BlockShape(s, b), p1, seed, 3):
        assert_same_result(approximate(x, params, op), _oracle_approximate(x, params, op))


def test_group_sums_depend_on_column_order():
    # the case the test above relies on: summing the kept columns of one
    # band in another order changes the bits of some group sum
    s, b, p1 = 12, 12, "2"
    params = _params(p1, s, b, 4)
    partition = _band_partition(s, b, 2)
    x = _oracle_sample_ball(BlockShape(s, b), p1, 1, 5, 1)[0]
    op = SpreadOperator(partition)
    result = approximate(x, params, op)
    assert len(result.selected_columns) == 3
    cols = np.array(result.selected_columns)
    index = op._group_index
    forward, backward = ((c[:, None] * s + np.arange(s)).ravel() for c in (cols, cols[::-1]))
    sums = [np.bincount(index[kept], weights=x.entries[kept]) for kept in (forward, backward)]
    assert _bits(sums[0]) != _bits(sums[1])
    assert_same_result(result, _oracle_approximate(x, params, op))


# ------------------------------------------------------------- point streams


@EXAMPLES
@given(
    p1=st.sampled_from(P1_VALUES + ("1",)),
    p2=st.sampled_from(("1", "3/2", "2", "inf")),
    s=st.integers(1, 9),
    b=st.integers(1, 9),
    count=st.integers(1, 6),
    seed=SEEDS,
)
def test_samplers_draw_the_oracles_points(p1, p2, s, b, count, seed):
    shape = BlockShape(s, b)
    expected_ball = _oracle_sample_ball(shape, p1, p2, seed, count)
    assert_same_points(sample_ball(shape, p1, p2, seed, count), expected_ball)
    expected_extreme = _oracle_extreme_points_inf1(shape, seed, count)
    assert_same_points(extreme_points_inf1(shape, seed, count), expected_extreme)

    # the extreme stream read as columns, as the pipeline scores it: each
    # point's column and sign bits, without a grid
    columns = _extreme_columns(np.random.default_rng(seed), shape, count)
    stream = [BlockMatrix.one_column(shape, j, bits * 2.0 - 1.0) for j, bits in columns]
    assert_same_points(stream, expected_extreme)


def test_point_streams_check_count_before_drawing():
    # the chunk generators refuse when called, before their first chunk is asked for
    with pytest.raises(ValueError, match="count"):
        _draw_chunks(BlockShape(2, 2), 0, _ball_draw(BlockShape(2, 2), 2, 1, 0))
    with pytest.raises(ValueError, match="count"):
        _draw_chunks(BlockShape(2, 2), 0, _extreme_draw(BlockShape(2, 2), 0))
    with pytest.raises(ValueError, match="count"):
        sampled_sup(BlockShape(2, 2), _params("inf", 2, 2, None), {2: SpreadOperator(transposition_partition(2))}, 0, 0)
    with pytest.raises(ValueError, match="count"):
        sample_ball(BlockShape(2, 2), 2, 1, 0, 0)
    with pytest.raises(ValueError, match="count"):
        extreme_points_inf1(BlockShape(2, 2), 0, 0)


# ------------------------------------------------------------- reduction


@EXAMPLES
@given(p1=st.sampled_from(P1_VALUES), n=st.integers(2, 20), k=K_VALUES, count=st.integers(1, 5), seed=SEEDS)
def test_sampled_sup_matches_max_over_the_list(p1, n, k, count, seed):
    shape = BlockShape(n, n)
    params = _params(p1, n, n, k)
    partition = good_partition(n, n, params.d, field_order=PIPELINE_FIELD_ORDER)
    op = SpreadOperator(partition)
    points = _oracle_sample_ball(shape, p1, 1, seed, count)
    if Exponent.of(p1).is_inf:
        points += _oracle_extreme_points_inf1(shape, seed + 1, count)
    results = [_oracle_approximate(x, params, op) for x in points]

    sup = sampled_sup(shape, params, {n: op}, seed, count)
    assert _bits(sup.sup_error) == _bits(max(r.measured_error for r in results))
    assert _bits(sup.sup_bound) == _bits(max(r.certified_bound for r in results))
    assert sup.dim == results[0].dim
    assert sup.count == len(points)


def test_sampled_sup_rejects_an_empty_stream():
    params = _params("inf", 2, 2, None)
    with pytest.raises(ValueError):
        sampled_sup(BlockShape(2, 2), params, {2: SpreadOperator(transposition_partition(2))}, 0, 0)


# ------------------------------------------------------------- chunks

# Grids of 2^12 to 2^15 cells, so a chunk holds 2 to 16 points.
CHUNKED_SIDES = st.integers(64, 181)


@st.composite
def _chunked_streams(draw):
    """(kind, s, b, count): a square good or transposition partition, or a
    wide grid whose last column group is narrower, with a count of points
    below the chunk size, equal to it, or not a multiple of it."""
    kind = draw(st.sampled_from(("good", "transposition", "wide")))
    if kind == "wide":
        s = draw(st.integers(16, 40))
        b = draw(st.integers(-(-4096 // s), 32768 // s).filter(lambda b: b % s))
    else:
        s = b = draw(CHUNKED_SIDES)
    per = _chunk_points(BlockShape(s, b))
    count = draw(
        st.one_of(
            st.integers(1, per - 1),
            st.just(per),
            st.builds(lambda m, r: m * per + r, st.integers(1, 2), st.integers(1, per - 1)),
        )
    )
    return kind, s, b, count


def _stream_ops(kind, s, b, params):
    """The operators of a good or transposition partition of a square
    grid, or of a wide grid's column groups."""
    if kind == "wide":
        return pipeline_operators(s, b, params.d, "good")
    if kind == "transposition":
        return {b: SpreadOperator(transposition_partition(s))}
    return {b: SpreadOperator(good_partition(s, b, params.d, field_order=PIPELINE_FIELD_ORDER))}


def _loop(shape, params, ops):
    """The one-point pipeline sampled_sup must agree with."""
    if shape.s < shape.b:
        return partial(grouped_subspace_approximate, params=params, ops=ops)
    return partial(approximate, params=params, op=ops[shape.b])


def _assert_sup_matches_a_loop(shape, params, ops, seed, count):
    points = _oracle_sample_ball(shape, params.p1, 1, seed, count)
    if params.p1.is_inf:
        points += _oracle_extreme_points_inf1(shape, seed + 1, count)
    results = [_loop(shape, params, ops)(x) for x in points]

    sup = sampled_sup(shape, params, ops, seed, count)
    assert _bits(sup.sup_error) == _bits(max(r.measured_error for r in results))
    assert _bits(sup.sup_bound) == _bits(max(r.certified_bound for r in results))
    assert sup.dim == results[0].dim
    assert sup.count == len(points)


@EXAMPLES
@given(p1=st.sampled_from(P1_VALUES), stream=_chunked_streams(), seed=SEEDS)
def test_chunked_sampled_sup_matches_a_loop_over_the_points(p1, stream, seed):
    kind, s, b, count = stream
    shape = BlockShape(s, b)
    assert 2 <= _chunk_points(shape) <= 16 and s * b <= _CHUNK_CELLS // 2
    assert kind != "wide" or (s < b and b % s)
    params = _params(p1, s, b, None)
    _assert_sup_matches_a_loop(shape, params, _stream_ops(kind, s, b, params), seed, count)


# ------------------------------------------------------------- extreme columns


@st.composite
def _column_grids(draw):
    """(kind, s, b): a square good or transposition partition, or a wide
    grid whose last column group may be narrower."""
    kind = draw(st.sampled_from(("good", "transposition", "wide")))
    if kind == "wide":
        s = draw(st.integers(1, 12))
        return kind, s, s + draw(st.integers(1, 40))
    s = draw(st.integers(1, 40))
    return kind, s, s


@EXAMPLES
@given(grid=_column_grids(), k=K_VALUES, count=st.integers(1, 12), seed=SEEDS)
def test_sampled_sup_scores_extreme_columns_as_a_loop_over_the_points(grid, k, count, seed):
    # k = 1 keeps no column, so the residual is the point itself
    kind, s, b = grid
    params = _params("inf", s, b, k)
    _assert_sup_matches_a_loop(BlockShape(s, b), params, _stream_ops(kind, s, b, params), seed, count)


@EXAMPLES
@given(grid=_column_grids(), k=K_VALUES, seed=SEEDS)
def test_every_column_scores_as_its_extreme_points(grid, k, seed):
    # each column scored from its pair counts, in rows of b two at a time,
    # against the pipeline on an extreme point of that column with random signs
    kind, s, b = grid
    shape = BlockShape(s, b)
    params = _params("inf", s, b, k)
    ops = _stream_ops(kind, s, b, params)
    run = _loop(shape, params, ops)
    plan = _Plan(shape, params, min(s, b), ops, _chunk_points(shape))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spread_module, "_SLAB_CELLS", 2 * b)
        measured, bounds, _ = plan._score_columns(np.arange(b))
    rng = np.random.default_rng(seed)
    for j in range(b):
        result = run(BlockMatrix.one_column(shape, j, rng.integers(0, 2, size=s) * 2.0 - 1.0))
        assert _bits(measured[j]) == _bits(result.measured_error)
        assert _bits(bounds[j]) == _bits(result.certified_bound)


@EXAMPLES
@given(s=st.integers(2, 12), b=st.integers(1, 12), k=st.integers(2, 4), count=st.integers(1, 8), seed=SEEDS)
def test_band_partitions_fall_back_to_the_chunked_pipeline(s, b, k, count, seed):
    # a band of height 2 meets each column twice, so an extreme point's
    # error depends on its signs: the columns are not scored on their own
    s = max(s, b)
    shape = BlockShape(s, b)
    params = _params("inf", s, b, k)
    ops = {b: SpreadOperator(_band_partition(s, b, 2))}
    assert _Plan(shape, params, b, ops, _chunk_points(shape))._score_columns(np.arange(b)) is None
    _assert_sup_matches_a_loop(shape, params, ops, seed, count)


def test_other_inner_exponents_run_the_extreme_points_in_chunks():
    # with q1 != 1 the residual's column norms are not pair counts
    s = b = 12
    params = choose_pipeline_params("inf", 1, "3/2", 2, s, b)
    _assert_sup_matches_a_loop(BlockShape(s, b), params, _stream_ops("good", s, b, params), 4, 6)


def test_a_point_outside_the_ball_in_the_middle_of_a_chunk_raises():
    s = b = 100  # 6 points a chunk
    shape = BlockShape(s, b)
    params = _params("2", s, b, None)
    op = SpreadOperator(good_partition(s, b, params.d, field_order=PIPELINE_FIELD_ORDER))
    plan = _Plan(shape, params, b, {b: op}, _chunk_points(shape))
    points = _oracle_sample_ball(shape, "2", 1, 3, 6)
    chunk = np.array([x.entries for x in points])
    chunk[3] *= 2.0  # the sphere point 2 scaled out of the ball
    with pytest.raises(ValueError, match="input lies outside the unit ball"):
        plan.run(chunk)
    chunk[:] = [x.entries for x in points]
    plan.run(chunk)  # the same chunk inside the ball runs


@pytest.mark.parametrize("p1,p2", [("2", "1"), ("inf", "1"), ("3/2", "2"), ("4", "3/2")])
def test_lists_drawn_in_chunks_equal_the_list_samplers(p1, p2):
    # 7 chunks of 6 points and a last one of 3: every point equals the
    # oracle's once the whole list is drawn, and no two share memory
    shape, count = BlockShape(100, 100), 45
    assert _chunk_points(shape) == 6
    ball = sample_ball(shape, p1, p2, 11, count)
    extreme = extreme_points_inf1(shape, 12, count)
    assert_same_points(ball, _oracle_sample_ball(shape, p1, p2, 11, count))
    assert_same_points(extreme, _oracle_extreme_points_inf1(shape, 12, count))
    for points in (ball, extreme):
        for i in range(1, count):
            assert not np.shares_memory(points[i - 1].entries, points[i].entries)
    # the stream behind them draws every chunk into its one array
    chunks = list(_draw_chunks(shape, count, _ball_draw(shape, p1, p2, 11)))
    assert [len(chunk) for chunk in chunks] == [6] * 7 + [3]
    assert all(chunk.base is chunks[0].base for chunk in chunks)
    # and so does the extreme stream, into an array of its own
    extreme_chunks = list(_draw_chunks(shape, count, _extreme_draw(shape, 12)))
    assert [len(chunk) for chunk in extreme_chunks] == [6] * 7 + [3]
    assert all(chunk.base is extreme_chunks[0].base for chunk in extreme_chunks)
    assert extreme_chunks[0].base is not chunks[0].base


@pytest.mark.parametrize(
    "s,b", [(1, 1), (8, 8), (100, 100), (128, 128), (255, 257), (256, 256), (300, 290), (24, 640)]
)
def test_chunks_stay_within_the_cell_budget(s, b):
    shape = BlockShape(s, b)
    chunk = next(_draw_chunks(shape, 1, _ball_draw(shape, "inf", 1, 0)))  # one point, in the stream's one array
    rows = chunk.base
    assert chunk.shape == (1, shape.n)
    assert rows.shape == (_chunk_points(shape), shape.n)
    assert rows.size <= max(_CHUNK_CELLS, shape.n)
    if shape.n <= _CHUNK_CELLS:
        assert rows.size > _CHUNK_CELLS - shape.n  # one more point would not fit
    # the stream's array is the chunk: the plan keeps no array, so no approximant
    params = _params("inf", s, b, None)
    plan = _Plan(shape, params, min(s, b), pipeline_operators(s, b, params.d, "good"), _chunk_points(shape))
    assert [name for name, v in vars(plan).items() if isinstance(v, np.ndarray)] == []


# ------------------------------------------------------------- run-ahead draws


def _raw_draw(rng, shape, p1):
    """The raw draw of a screened (p1, 1) ball stream, as the screen makes
    it: each chunk's weights, scales and states."""

    def draw(chunk, first):
        weights, states = np.empty((chunk.shape[0], shape.b)), []
        return weights, _draw_ball_raw(rng, shape, p1, Exponent.ONE, chunk, weights, first, states), states

    return draw


def _assert_run_ahead_matches_a_loop(shape, p1, seed, count):
    # the chunks a worker draws ahead against a serial loop of the raw
    # draw over the same chunks: the same points, weights, scales and
    # states, in halves of the stream's one array
    p1 = Exponent.of(p1)
    per = max(1, _chunk_points(shape) // 2)
    rng, got = np.random.default_rng(seed), []
    with closing(norms_module._Drawn(shape, count, _raw_draw(rng, shape, p1))) as stream:
        for first, chunk, (weights, scales, states) in stream:
            half = per * (len(got) % 2)  # chunk c in half c % 2
            got.append((first, chunk.copy(), weights, scales, states))
            rows = chunk.base
            assert rows.shape == (max(_chunk_points(shape), min(count, 2)), shape.n)
            assert chunk.shape[0] == min(per, count - first)
            assert np.shares_memory(chunk, rows[half : half + per])
            assert not np.shares_memory(chunk, rows[per - half : 2 * per - half])
    assert [first for first, *_ in got] == list(range(0, count, per))
    loop_rng = np.random.default_rng(seed)
    for first, chunk, weights, scales, states in got:
        k = chunk.shape[0]
        loop_chunk, loop_weights, loop_states = np.empty((k, shape.n)), np.empty((k, shape.b)), []
        loop_scales = _draw_ball_raw(loop_rng, shape, p1, Exponent.ONE, loop_chunk, loop_weights, first, loop_states)
        assert _bits(chunk) == _bits(loop_chunk)
        assert _bits(weights) == _bits(loop_weights)
        assert _bits(np.array(scales)) == _bits(np.array(loop_scales))
        assert states == loop_states
    assert loop_rng.bit_generator.state == rng.bit_generator.state


@EXAMPLES
@given(p1=st.sampled_from(("2", "3/2", "4", "inf")), stream=_chunked_streams(), seed=SEEDS)
def test_chunks_drawn_ahead_equal_a_serial_draw(p1, stream, seed):
    # every p1 whose ball is screened from its raw draw, on chunks of 1-8
    # points: one chunk, the two halves, or many chunks
    _, s, b, count = stream
    before = threading.active_count()
    _assert_run_ahead_matches_a_loop(BlockShape(s, b), p1, seed, count)
    assert threading.active_count() == before


@pytest.mark.parametrize("count", [1, 2, 5])
def test_one_point_chunks_are_drawn_ahead_in_a_second_row(count):
    # K = 1 (a grid over 2^15 cells): a second one-point row, only when count > 1
    shape = BlockShape(200, 200)
    assert _chunk_points(shape) == 1
    before = threading.active_count()
    _assert_run_ahead_matches_a_loop(shape, "2", 7, count)
    assert threading.active_count() == before


def test_streams_drawn_ahead_side_by_side_keep_their_order():
    # four streams of 40 one-point chunks read on four threads at once,
    # with a short switch interval: each equals its serial draw
    shape, count = BlockShape(181, 181), 40
    assert max(1, _chunk_points(shape) // 2) == 1
    failures = []

    def read(seed):
        try:
            _assert_run_ahead_matches_a_loop(shape, "2", seed, count)
        except BaseException as exc:  # asserted empty after the join
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert failures == []


class _Boom(Exception):
    pass


def _raising_after(calls, function):
    """function, raising _Boom on its call number calls instead."""
    made = []

    def raising(*args, **kwargs):
        made.append(1)
        if len(made) == calls:
            raise _Boom()
        return function(*args, **kwargs)

    return raising


@pytest.mark.parametrize(
    "patched,calls",
    [("_draw_ball_raw", 2), ("_estimate", 1), ("_estimate", 3), (None, 0)],
)
def test_a_failure_on_either_thread_reaches_the_caller_and_joins_the_worker(monkeypatch, patched, calls):
    # 100 x 100: 6 points a chunk, 4 chunks of 3 for 12 points; a raw draw
    # raising on the second chunk, or the screen on the first or third,
    # is raised by sampled_sup, and no worker thread is left
    s = b = 100
    shape, count, seed = BlockShape(s, b), 12, 4
    params = _params("2", s, b, None)
    ops = _stream_ops("good", s, b, params)
    if patched == "_draw_ball_raw":
        monkeypatch.setattr(spread_module, patched, _raising_after(calls, spread_module._draw_ball_raw))
    elif patched == "_estimate":
        monkeypatch.setattr(_Plan, patched, _raising_after(calls, _Plan._estimate))
    before = threading.active_count()
    if patched is None:
        _assert_sup_matches_a_loop(shape, params, ops, seed, count)
    else:
        with pytest.raises(_Boom):
            sampled_sup(shape, params, ops, seed, count)
    assert threading.active_count() == before


def test_closing_the_screen_early_joins_the_worker():
    # the worker has run ahead and waits for a free half when the raw
    # screen is closed after its first chunk
    s = b = 100
    shape = BlockShape(s, b)
    params = _params("2", s, b, None)
    plan = _Plan(shape, params, b, _stream_ops("good", s, b, params), _chunk_points(shape))
    before = threading.active_count()
    chunks = plan._raw_estimates(np.random.default_rng(0), 12, plan.margin())
    first, states, *_ = next(chunks)
    assert first == 0 and len(states) == 3
    assert threading.active_count() == before + 1
    chunks.close()
    assert threading.active_count() == before


# ------------------------------------------------------------- screen


def _estimates(shape, params, ops, seed, count):
    """The screen's (measured, bounds, flagged) at the count ball points
    from seed, each an array over the points, and its margin; the raw
    draw is looked up in norms, where a test may plant into it."""
    plan = _Plan(shape, params, min(shape.s, shape.b), ops, _chunk_points(shape))
    margin, rng, parts = plan.margin(), np.random.default_rng(seed), []
    for first, chunk in _stream_chunks(shape, count):
        weights = np.empty((chunk.shape[0], shape.b))
        scales = norms_module._draw_ball_raw(rng, shape, params.p1, params.p2, chunk, weights, first)
        parts.append(plan._estimate(chunk, weights, scales, first, margin))
    return [np.concatenate(part) for part in zip(*parts)], margin


@EXAMPLES
@given(
    p1=st.sampled_from(P1_VALUES),
    q1=st.sampled_from(("1", "3/2")),
    stream=_chunked_streams(),
    k=K_VALUES,
    seed=SEEDS,
)
def test_screen_estimates_lie_within_the_margin(p1, q1, stream, k, seed):
    # every estimate from the raw draw is within margin * (d0 + bound) of
    # the exact value, and random draws make no near-tie
    assume(Exponent.of(q1) < Exponent.of(p1))
    kind, s, b, count = stream
    shape = BlockShape(s, b)
    params = choose_pipeline_params(p1, 1, q1, 2, s, b)
    params = params if k is None else replace(params, k=k)
    ops = _stream_ops(kind, s, b, params)
    (measured, bounds, flagged), margin = _estimates(shape, params, ops, seed, count)
    assert margin == 2.0**-30 and not flagged.any()
    d0 = d0_mixed(shape, p1, 1, q1, 2)
    for i, x in enumerate(sample_ball(shape, p1, 1, seed, count)):
        result = _loop(shape, params, ops)(x)
        tolerance = margin * (d0 + bounds[i])
        assert abs(measured[i] - result.measured_error) <= tolerance
        assert abs(bounds[i] - result.certified_bound) <= tolerance


def _planted_draw(plant, kept):
    """norms._draw_ball_raw with a plant in every point of even index: its
    kept-th and (kept + 1)-th largest weights made equal, its first block
    zero (where the blocks are drawn, not skipped), or all its weights
    zero."""
    draw = norms_module._draw_ball_raw

    def planted(rng, shape, p1, p2, chunk, weights, first, states=None):
        scales = draw(rng, shape, p1, p2, chunk, weights, first, states)
        for i in range(-first % 2, weights.shape[0], 2):
            if plant == "tie":
                order = np.argsort(-np.abs(weights[i]), kind="stable")
                weights[i, order[kept]] = weights[i, order[kept - 1]]
            elif plant == "zero block":
                if chunk is not None:
                    chunk.reshape(chunk.shape[0], shape.b, shape.s)[i, 0] = 0.0
            else:
                weights[i] = 0.0
        return scales

    return planted


@pytest.mark.parametrize("plant", ["tie", "zero block", "zero weights"])
@pytest.mark.parametrize("p1", ["inf", "2", "4"])
def test_planted_points_are_all_run_exactly(monkeypatch, plant, p1):
    # a near-tie at the kept boundary or a zero-norm guard makes a ball
    # point a candidate, whatever its estimate, and the suprema still
    # match the loop bit for bit.  The (inf, 1) ball is screened from its
    # weights alone, which the tie and the zero weights are planted in; a
    # zero block it never draws, and the bound on the error holds for any
    # blocks, so those points need not run exactly.  At 40 x 40 that bound
    # reaches the extreme points' error for every ball point, so the
    # (inf, 1) ball is planted at 48 x 48, where it stays below
    s = b = 48 if Exponent.of(p1).is_inf else 40
    shape, count, seed = BlockShape(s, b), 9, 3
    params = _params(p1, s, b, 3)
    ops = _stream_ops("good", s, b, params)
    planted = _planted_draw(plant, params.k - 1)
    monkeypatch.setattr(norms_module, "_draw_ball_raw", planted)
    monkeypatch.setattr(spread_module, "_draw_ball_raw", planted)
    (_, _, flagged), _ = _estimates(shape, params, ops, seed, count)
    assert flagged.tolist() == [i % 2 == 0 for i in range(count)]
    points = sample_ball(shape, p1, 1, seed, count)  # through the plant
    if plant == "zero block":  # the guard made the zero block constant
        assert all(np.ptp(x.block(0)) == 0.0 for x in points[::2])
    if Exponent.of(p1).is_inf:
        points += _oracle_extreme_points_inf1(shape, seed + 1, count)
    results = [_loop(shape, params, ops)(x) for x in points]
    sup = sampled_sup(shape, params, ops, seed, count)
    # the five planted points, and few others; the extreme points are scored by column
    if plant == "zero block" and Exponent.of(p1).is_inf:
        assert sup.exact_points == 0
    else:
        assert 5 <= sup.exact_points < count
    assert _bits(sup.sup_error) == _bits(max(r.measured_error for r in results))
    assert _bits(sup.sup_bound) == _bits(max(r.certified_bound for r in results))


def test_screen_keeps_every_point_that_may_reach_a_floor(monkeypatch):
    # the candidate rule on set estimates: a point is dropped only when its
    # estimates + delta are below both floors, the estimates - delta of
    # an unflagged point; a flagged point is always kept
    s = b = 8
    shape = BlockShape(s, b)
    params = _params("2", s, b, None)
    plan = _Plan(shape, params, b, _stream_ops("good", s, b, params), _chunk_points(shape))
    margin, d0 = plan.margin(), d0_mixed(shape, "2", 1, 1, 2)
    top, low = margin * (d0 + 3.0), margin * (d0 + 2.0)  # delta at bounds 3 and 2
    measured = np.array([1.0, 1.0 - top - 0.9 * low, 1.0 - top - 1.1 * low, 0.5, 0.5])
    bounds = np.array([3.0, 2.0, 2.0, 2.0, 2.0])
    flagged = np.array([False, False, False, True, False])
    monkeypatch.setattr(_Plan, "_estimate", lambda *args: (measured.copy(), bounds.copy(), flagged.copy()))
    floors, candidates = plan._screen(np.random.default_rng(0), 5, (-math.inf, -math.inf), None)
    assert floors == (1.0 - top, 3.0 - top)
    assert [first for first, *_ in candidates] == [0, 1, 3]


@pytest.mark.parametrize("p1,p2", [("2", "1"), ("inf", "1"), ("3/2", "2"), ("4", "3/2")])
def test_a_point_redrawn_from_its_state_equals_its_chunked_draw(p1, p2):
    # chunks of 7 points, so chunks start at even and odd indices
    shape, count, seed = BlockShape(90, 100), 16, 5
    assert _chunk_points(shape) == 7
    p1, p2 = Exponent.of(p1), Exponent.of(p2)
    rng, states = np.random.default_rng(seed), []
    for first, chunk in _stream_chunks(shape, count):
        _draw_ball_raw(rng, shape, p1, p2, chunk, np.empty((chunk.shape[0], shape.b)), first, states)
    assert len(states) == count
    again = np.random.default_rng(0)
    for i, x in enumerate(sample_ball(shape, p1, p2, seed, count)):
        row = np.empty((1, shape.n))
        again.bit_generator.state = states[i]
        _draw_ball_chunk(again, shape, p1, p2, row, i)
        assert _bits(row[0]) == _bits(x.entries), i


def _skipped_draw(shape, seed, count, per):
    """The weights, scales and states of the count points of the (inf, 1)
    ball stream from seed, drawn in chunks of per points with their blocks
    skipped, or drawn whole (per None) in the stream's own chunks."""
    inf, one = Exponent.INF, Exponent.ONE
    rng, weights, scales, states = np.random.default_rng(seed), [], [], []
    if per is None:
        chunks = ((first, chunk.shape[0], chunk) for first, chunk in _stream_chunks(shape, count))
    else:
        chunks = ((first, min(per, count - first), None) for first in range(0, count, per))
    for first, k, chunk in chunks:
        weights.append(np.empty((k, shape.b)))
        scales += _draw_ball_raw(rng, shape, inf, one, chunk, weights[-1], first, states)
    return np.concatenate(weights), scales, states


@EXAMPLES
@given(grid=_column_grids(), k=K_VALUES, count=st.integers(1, 12), per=st.integers(1, 4), seed=SEEDS)
def test_the_weight_screen_bounds_each_point_from_its_weights(grid, k, count, per, seed):
    # the (inf, 1) ball screened in chunks of per points, its blocks
    # skipped: the same weights, scales and states as the full draw, block
    # norms equal to the drawn points', their bounds exact, their error
    # below the screen's upper estimate plus delta, and the suprema those
    # of the loop
    kind, s, b = grid
    shape = BlockShape(s, b)
    params = _params("inf", s, b, k)
    ops = _stream_ops(kind, s, b, params)
    weights, scales, states = _skipped_draw(shape, seed, count, per)
    full_weights, full_scales, full_states = _skipped_draw(shape, seed, count, None)
    assert _bits(weights) == _bits(full_weights) and _bits(scales) == _bits(full_scales)
    assert states == full_states

    with pytest.MonkeyPatch.context() as patch:
        # the screen's chunks of per points
        patch.setattr(spread_module, "_WEIGHT_CELLS", per * b)
        plan = _Plan(shape, params, min(s, b), ops, _chunk_points(shape))
        margin, scores = plan.margin(), plan._score_columns(np.arange(0))[2]
        chunks = list(plan._weight_estimates(np.random.default_rng(seed), count, margin, scores))
    assert [first for first, *_ in chunks] == list(range(0, count, per))
    assert [state for chunk in chunks for state in chunk[1]] == full_states
    upper, bounds, flagged = (np.concatenate(part) for part in list(zip(*chunks))[2:])
    assert not flagged.any()
    y, _ = plan._block_norms(weights, scales, 0, margin)
    exact_upper = plan._bounds(*plan._select(y)[2:], scores)
    assert _bits(upper) == _bits(exact_upper * (1 + margin))
    d0 = d0_mixed(shape, "inf", 1, 1, 2)
    for i, x in enumerate(sample_ball(shape, "inf", 1, seed, count)):
        result = _loop(shape, params, ops)(x)
        assert _bits(y[i]) == _bits(block_norm_vector(x, Exponent.INF))
        assert _bits(bounds[i]) == _bits(result.certified_bound)
        assert result.measured_error <= upper[i] + margin * (d0 + bounds[i])
    _assert_sup_matches_a_loop(shape, params, ops, seed, count)


def test_only_uniform_blocks_are_skipped():
    # normal and Gamma draws take a varying number of generator outputs
    for p1 in ("2", "3/2"):
        with pytest.raises(ValueError, match="skipped"):
            _draw_ball_raw(np.random.default_rng(0), BlockShape(3, 4), Exponent.of(p1), Exponent.ONE, None,
                           np.empty((1, 4)), 0)


@EXAMPLES
@given(grid=_column_grids(), k=K_VALUES)
def test_a_column_score_is_the_largest_error_of_an_extreme_point(grid, k):
    # each width's score against the measured error of every column of its groups
    kind, s, b = grid
    shape = BlockShape(s, b)
    params = _params("inf", s, b, k)
    plan = _Plan(shape, params, min(s, b), _stream_ops(kind, s, b, params), _chunk_points(shape))
    measured, _, scores = plan._score_columns(np.arange(b))
    for group, score in zip(plan.groups, scores):
        top = measured[group.lo : group.hi].max()
        assert score == (top if group.width == b else pytest.approx(top, rel=1e-15))


@pytest.mark.parametrize("r,d", [(2, 4), (3, 4), (4, 4)])
def test_column_scores_of_aligned_grids_have_the_closed_form(r, d):
    # every column of an aligned grid scores sqrt((r-1) / r^(d-1)) * d0, d0 = r^d
    n = r**d
    params = _params("inf", n, n, None)
    plan = _Plan(BlockShape(n, n), params, n, _stream_ops("good", n, n, params), _chunk_points(BlockShape(n, n)))
    assert plan._score_columns(np.arange(0))[2] == [pytest.approx(math.sqrt((r - 1) / r ** (d - 1)) * n, rel=1e-12)]


def test_the_weight_screen_falls_back_where_a_column_meets_a_group_twice():
    # a band meets each column twice: no column score, so the raw screen runs
    s = b = 12
    shape = BlockShape(s, b)
    params = _params("inf", s, b, 3)
    ops = {b: SpreadOperator(_band_partition(s, b, 2))}
    assert _Plan(shape, params, b, ops, _chunk_points(shape))._score_columns(np.arange(0)) is None
    _assert_sup_matches_a_loop(shape, params, ops, 5, 8)


def test_the_weight_screen_keeps_few_points_on_a_small_grid():
    # at 40 x 40 the weight bound of every ball point reaches the extreme
    # points' error; their raw draw, redrawn from the saved states, rules
    # most of them out before any runs exactly
    s = b = 40
    shape, count, seed = BlockShape(s, b), 9, 3
    params = _params("inf", s, b, 3)
    ops = _stream_ops("good", s, b, params)
    plan = _Plan(shape, params, b, ops, _chunk_points(shape))
    measured, bounds, scores = plan._extreme_scores(seed + 1, count)
    floors = (measured.max(), bounds.max())
    weights = plan._weight_estimates(np.random.default_rng(seed), count, plan.margin(), scores)
    assert len(plan._kept(weights, floors, plan.margin(), False)[1]) == count
    sup = sampled_sup(shape, params, ops, seed, count)
    assert sup.exact_points < count
    _assert_sup_matches_a_loop(shape, params, ops, seed, count)


@pytest.mark.parametrize("s,b", [(40, 40), (12, 40)])
def test_each_column_is_counted_once_per_stream(monkeypatch, s, b):
    # the extreme columns and the column scores share one count of the
    # pairs of each width's operator, which holds a row for each column;
    # the operator keeps it, so a second stream counts nothing
    shape, count, seed = BlockShape(s, b), 24, 2
    params = _params("inf", s, b, 3)
    spread_module._good_operator.cache_clear()
    ops = _stream_ops("wide" if s < b else "good", s, b, params)
    counted = []
    pair_multiplicities = spread_module._pair_multiplicities

    def counting(sizes, points, n, square=False):
        counts = pair_multiplicities(sizes, points, n, square)
        counted.append((n, counts.shape))
        return counts

    monkeypatch.setattr(spread_module, "_pair_multiplicities", counting)
    first = sampled_sup(shape, params, ops, seed, count)
    widths = sorted({min(s, b - lo) for lo in range(0, b, s)})
    assert sorted(counted) == [(w, (w, w)) for w in widths]
    sampled_sup(shape, params, ops, seed + 1, count)
    assert sampled_sup(shape, params, ops, seed, count) == first
    assert len(counted) == len(widths)
    _assert_sup_matches_a_loop(shape, params, ops, seed, count)


# ------------------------------------------------------------- large budgets

# Budgets past 8 kept columns: the certified bound adds each group's kept
# block norms left to right, where a batched np.sum pairs them from 8 terms.
LARGE_K = st.integers(9, 16)


def _oracle_grouped_with_budget(x, params, ops):
    """_oracle_grouped_subspace_approximate, except that every full group
    (width s) takes params.k, as the pipeline does when k is overridden;
    a narrower last group keeps its own ceil_power budget."""
    s, b = x.shape.s, x.shape.b
    approx_entries = np.zeros(x.shape.n)
    selected, dim, bounds, tails = [], 0, [], []
    for lo in range(0, b, s):
        width = min(s, b - lo)
        sub = BlockMatrix(BlockShape(s, width), x.entries[lo * s : (lo + width) * s])
        k = params.k if width == s else max(1, ceil_power(width, params.alpha / 4))
        result = _oracle_approximate(sub, replace(params, k=k), ops[width])
        approx_entries[lo * s : (lo + width) * s] = result.approximant.entries
        selected.extend(lo + j for j in result.selected_columns)
        dim += result.dim
        bounds.append(result.certified_bound)
        tails.append(result.tail_error)
    approximant = BlockMatrix(x.shape, approx_entries)
    return ApproxResult(
        selected_columns=tuple(selected),
        approximant=approximant,
        measured_error=mixed_norm(x - approximant, (params.q1, params.q2)),
        certified_bound=lq_norm(np.asarray(bounds), params.q2),
        dim=dim,
        tail_error=lq_norm(np.asarray(tails), params.q2),
    )


@EXAMPLES
@given(p1=st.sampled_from(P1_VALUES), b=st.integers(9, 30), extra_rows=st.integers(0, 6), k=LARGE_K, seed=SEEDS)
def test_approximate_matches_dense_with_large_budgets(p1, b, extra_rows, k, seed):
    s = b + extra_rows
    params = _params(p1, s, b, k)
    op = SpreadOperator(good_partition(s, b, params.d, field_order=PIPELINE_FIELD_ORDER))
    for x in _points(BlockShape(s, b), p1, seed, 2):
        assert_same_result(approximate(x, params, op), _oracle_approximate(x, params, op))


@EXAMPLES
@given(p1=st.sampled_from(P1_VALUES), s=st.integers(9, 16), height=st.integers(1, 3), k=LARGE_K, seed=SEEDS)
def test_large_budgets_when_groups_meet_several_columns(p1, s, height, k, seed):
    # every group sum adds k - 1 values, in the order of the kept columns
    params = _params(p1, s, s, k)
    op = SpreadOperator(_band_partition(s, s, height))
    for x in _points(BlockShape(s, s), p1, seed, 2):
        assert_same_result(approximate(x, params, op), _oracle_approximate(x, params, op))


@EXAMPLES
@given(
    p1=st.sampled_from(P1_VALUES),
    s=st.integers(1, 14),
    extra_cols=st.integers(1, 40),
    k=st.one_of(K_VALUES, LARGE_K),
    seed=SEEDS,
)
def test_grouped_matches_dense_with_budget_overrides(p1, s, extra_cols, k, seed):
    b = s + extra_cols
    params = _params(p1, s, b, k)
    ops = pipeline_operators(s, b, params.d, "good")
    for x in _points(BlockShape(s, b), p1, seed, 2):
        assert_same_result(
            grouped_subspace_approximate(x, params, ops), _oracle_grouped_with_budget(x, params, ops)
        )


# ------------------------------------------------------------- column bounds


@pytest.mark.parametrize("k", [None, 1])
@pytest.mark.parametrize("s,b", [(68, 68), (30, 640), (60, 1000), (30, 631)])
def test_column_bounds_have_the_closed_form(s, b, k):
    # each column's bound, its group's one-column coefficient or, where the
    # group keeps no column, tail_factor, against the selection and bound
    # on its one-hot block norms; 30 x 631 ends in a one-column group
    shape = BlockShape(s, b)
    params = _params("inf", s, b, k)
    plan = _Plan(shape, params, min(s, b), pipeline_operators(s, b, params.d, "good"), _chunk_points(shape))
    _, bounds, _ = plan._score_columns(np.arange(b))
    one_hot = np.eye(b)
    assert _bits(bounds) == _bits(plan._bounds(*plan._select(one_hot)[2:]))
    last = plan.groups[-1]
    if b == 631:
        assert (last.width, _group_budget(1, params.alpha), last.kept) == (1, 1, 0)
        assert _bits(bounds[-1]) == _bits(plan.tail_factor)
    if k == 1:  # full groups keep no column; a narrower last one keeps its own budget
        full = plan.groups[0].hi
        assert _bits(bounds[:full]) == _bits(np.full(full, plan.tail_factor))


# ------------------------------------------------------------- one stream's worker


def _stream_of(shape, seed, count):
    return norms_module._Drawn(shape, count, _raw_draw(np.random.default_rng(seed), shape, Exponent.TWO))


def _serial(shape, seed, count):
    """The raw draw of a (2, 1) ball stream in one chunk."""
    chunk, weights = np.empty((count, shape.n)), np.empty((count, shape.b))
    _draw_ball_raw(np.random.default_rng(seed), shape, Exponent.TWO, Exponent.ONE, chunk, weights, 0)
    return chunk


def test_a_stream_closed_before_its_end_yields_nothing_more():
    # after one chunk and close, the stream yields nothing and its worker is joined
    shape = BlockShape(100, 100)
    before = threading.active_count()
    stream = _stream_of(shape, 0, 9)
    _, chunk, _ = next(stream)
    assert _bits(chunk) == _bits(_serial(shape, 0, 9)[:3])
    assert threading.active_count() == before + 1
    stream.close()
    assert list(stream) == []
    assert threading.active_count() == before


def test_a_stream_never_asked_for_starts_no_thread():
    # a stream's thread starts at its first chunk, not when it is made,
    # and a stream closed unread draws nothing
    shape, drawn = BlockShape(40, 40), []
    before = threading.active_count()
    with closing(norms_module._Drawn(shape, 4, lambda chunk, first: drawn.append(first))) as chunks:
        assert threading.active_count() == before
        chunks.close()
        assert threading.active_count() == before and drawn == []
    assert threading.active_count() == before and drawn == []


def test_the_worker_draws_at_most_one_chunk_ahead_of_the_reader():
    # while chunk c is read, chunks 0 to c + 1 are drawn and no later one;
    # a task queued behind the stream's drains the one worker first, and
    # every chunk is drawn on that worker
    shape, count, filled = BlockShape(100, 100), 14, []  # 5 chunks of up to 3 points
    firsts = list(range(0, count, 3))
    with closing(norms_module._Drawn(shape, count, lambda chunk, first: filled.append((first, threading.get_ident())))) as stream:
        for c, (first, _, _) in enumerate(stream):
            stream._executor.submit(lambda: None).result()
            assert first == firsts[c]
            assert [f for f, _ in filled] == firsts[: c + 2]
    workers = {ident for _, ident in filled}
    assert len(workers) == 1 and threading.get_ident() not in workers


def test_draw_threads_side_by_side_keep_each_stream_s_order():
    # four readers, each reading three streams of one-point chunks one
    # after another, at once with a short switch interval: every stream
    # equals its serial draw, and every worker is joined
    shape, count, failures = BlockShape(181, 181), 6, []
    assert max(1, _chunk_points(shape) // 2) == 1

    def read(reader):
        try:
            for seed in [3 * reader + i for i in range(3)]:
                with closing(_stream_of(shape, seed, count)) as stream:
                    got = np.concatenate([chunk.copy() for _, chunk, _ in stream])
                assert _bits(got) == _bits(_serial(shape, seed, count))
        except BaseException as exc:  # asserted empty after the join
            failures.append(exc)

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read, args=(reader,)) for reader in range(4)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert failures == []
    assert threading.active_count() == before
