"""Spreading operator over a grid partition and the block-sparse
approximation pipeline built on it.

The operator replaces each cell by the sum of its partition group, so its
range is the space of group-constant vectors, of dimension equal to the
number of nonempty groups.  For a matrix supported in one column the
residual has at most l nonzero entries per column and repeats each source
coordinate at most r - 1 times, which yields an explicit error
coefficient.  The full pipeline keeps the heaviest few blocks, spreads
them, and certifies the total error with a triangle inequality whose
every factor is computed from the concrete partition, never from
unnamed constants.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .designs import _owner_points, _pair_multiplicities
from .norms import (
    BlockMatrix,
    BlockShape,
    Exponent,
    _Drawn,
    _SLAB_CELLS,
    _abs_row_norms,
    _ball_weights,
    _chunk_points,
    _draw_ball_chunk,
    _draw_ball_raw,
    _draw_chunks,
    _extreme_columns,
    _extreme_draw,
    _row_norms,
    block_norm_vector,
    ceil_power,
    d0_mixed,
    float_pow,
    lq_norm,
    mixed_norm,
    pos_part,
    recip_gap,
)
from .partitions import CellGroups, Partition, _check_grid, good_partition

# Field order of every partition the pipeline builds: the least supported
# order r with r^d >= b, so the design grid r^d overshoots b the least.
PIPELINE_FIELD_ORDER = "smallest"

# Floats an array of the screens holds, at least a chunk's points: the
# (inf, 1) screen's batches of block weights (_Plan._weight_estimates), and
# the raw screen's batches of block weights and runs of cells read
# (_Plan._estimates), 2^13, 64 KiB an array.  Against 2^12 the raw screen
# costs about 15 % less a chunk, and the pipeline benchmark's peak RSS read
# 0.1 to 0.3 MiB higher; at 2^14 a 128 x 128 stream of 64 points no longer
# stays within eight points of memory (tests/test_spread.py).
_WEIGHT_CELLS = 2**13

# Least block p1-norm the raw screen trusts (_Plan._estimate): below it a
# point is flagged.  For p1 = 2 that is a sum of squares below 2^-900, where
# squares that underflow could lose more than u of it.
_NORM_FLOOR = 2.0**-450

__all__ = [
    "SpreadOperator",
    "spread_error_coefficient",
    "OneColumnCheck",
    "check_one_column_bound",
    "KTermApproximation",
    "best_k_term",
    "PipelineParams",
    "choose_pipeline_params",
    "ApproxResult",
    "approximate",
    "grouped_subspace_approximate",
    "pipeline_operators",
    "SampledSup",
    "sampled_sup",
    "transposition_partition",
]


class SpreadOperator:
    """Linear map sending each unit cell to the indicator of its group.

    Application is a single scatter-gather over a precomputed cell-to-group
    index, so repeated use on one partition is cheap.  The cells are also
    kept group by group, so the pipeline can spread a few columns without
    touching the rest of the grid.  The arrays are read-only, so one
    operator can be shared (pipeline_operators keeps the good ones), and
    so are the pair counts of its columns and their row norms, made on
    first use and kept (_column_counts, _column_norms).
    """

    def __init__(self, partition: Partition):
        self.partition = partition
        s, b, n = partition.shape.s, partition.shape.b, partition.shape.n
        groups = partition.groups
        sizes, i, j = groups.sizes, groups.rows, groups.cols
        if ((i < 0) | (i >= s) | (j < 0) | (j >= b)).any():
            raise ValueError("partition has a cell outside the grid")
        flat = j * s + i
        cover = np.bincount(flat, minlength=n)
        if (cover == 0).any():
            raise ValueError("partition does not cover the grid")
        if (cover > 1).any():
            raise ValueError("partition puts some cell in more than one group")
        if (sizes == 0).any():
            raise ValueError("partition has an empty group")
        index = np.empty(n, dtype=np.int64)
        index[flat] = np.repeat(np.arange(partition.m, dtype=np.int64), sizes)
        starts = np.cumsum(sizes) - sizes
        for a in (index, flat, starts):
            a.setflags(write=False)
        self._group_index = index
        self._column_groups = index.reshape(b, s)  # group of cell (i, j) at [j, i]
        # cells of group g: _group_cells[_group_start[g] : _group_start[g] + _group_size[g]]
        self._group_cells = flat
        self._group_size = sizes
        self._group_start = starts
        self._norms: tuple[Exponent, np.ndarray | None] | None = None

    @property
    def dim(self) -> int:
        """Dimension of the range: the number of nonempty groups."""
        return self.partition.m

    def apply(self, x: BlockMatrix) -> BlockMatrix:
        if x.shape != self.partition.shape:
            raise ValueError(
                f"matrix shape {x.shape} does not match partition shape "
                f"{self.partition.shape}"
            )
        sums = np.bincount(self._group_index, weights=x.entries, minlength=self.dim)
        return BlockMatrix(x.shape, sums[self._group_index])

    @cached_property
    def _column_counts(self) -> np.ndarray | None:
        """The pair counts of the partition's columns: the (w, w) square of
        designs._pair_multiplicities, row j holding lambda_jj', the number
        of groups that meet columns j and j', in the least unsigned integer
        type that holds them (a byte each while l < 256, against the
        float64 square's eight), or None when some group meets a column
        twice (designs._owner_points).  Counted on first use and kept."""
        groups, w = self.partition.groups, self.partition.shape.b
        held, cols, repeated = _owner_points(groups.sizes, groups.cols, w)
        if repeated:
            return None
        square = _pair_multiplicities(held, cols, w, square=True)
        counts = square.astype(np.min_scalar_type(int(square.max(initial=0))))
        counts.setflags(write=False)
        return counts

    def _column_norms(self, q2: Exponent) -> np.ndarray | None:
        """The q2-norm of each row of _column_counts, or None with it: the
        measured error of an extreme point on each column of a grid this
        partition covers alone, where it keeps a column (_Plan._score_columns),
        and their maximum is the column score.  Kept for the last q2."""
        if self._norms is None or self._norms[0] != q2:
            counts = self._column_counts
            norms = None if counts is None else _row_norms(counts.astype(float), q2)
            if norms is not None:
                norms.setflags(write=False)
            self._norms = (q2, norms)
        return self._norms[1]

    def _spread_columns(
        self, entries: np.ndarray, columns: np.ndarray, first: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cells where the spread of entries kept on columns can be nonzero,
        and its values there: every cell of every group that meets the
        columns.

        entries are flat, a stack of columns of s entries (one or more
        grids, read in place), and columns is a (count, kept) array: the
        sorted columns kept in each of count copies of the partition's
        grid, copy c starting at column first[c] of the stack, where first
        strictly increases.  Copy c's group ids are offset by first[c] *
        dim, so the ids of distinct copies never meet and keep the copies'
        order, and one bincount sums every group of every copy, each adding
        its cells of the columns in flat order, as apply does (its other
        terms are zeros): the values are bit-identical to apply's.  The
        cells index entries.
        """
        s = self.partition.shape.s
        group = self._column_groups[columns]  # (count, kept, s)
        group += (first * self.dim)[:, None, None]
        weights = entries.reshape(-1, s)[columns + first[:, None]].ravel()
        group = group.ravel()
        # the distinct groups in increasing order, as np.unique gives them
        ordered = np.sort(group)
        starts = np.empty(ordered.size, dtype=bool)
        starts[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        touched = ordered[starts]
        sums = np.bincount(np.searchsorted(touched, group), weights=weights)
        start, touched = np.divmod(touched, self.dim)  # start: the copy's first column
        sizes = self._group_size[touched]
        # where each touched group's cells sit in _group_cells: the group's
        # start plus 0, 1, ..., size - 1
        offsets = np.cumsum(sizes) - sizes
        at = np.repeat(self._group_start[touched] - offsets, sizes) + np.arange(sizes.sum())
        return self._group_cells[at] + np.repeat(start * s, sizes), np.repeat(sums, sizes)


def spread_error_coefficient(partition: Partition, p, q1, q2) -> float:
    """Factor c with ||x - Dx||_{q1,q2} <= c * ||x||_p for one-column x.

    c = l^(1/q1-1/p)_+ * b^(1/q2-1/p)_+ * (r-1)^(1/p), using the
    partition's certified (r, l).  Conventions: (r-1)^(1/p) is 1 when
    p = inf and 0 when r = 1 with p finite.  Remembered per (r, l, b) and
    exponents, so repeated checks on one partition pay for it once.  r
    below 1, where (r-1)^(1/p) is not a real factor, is a ValueError.
    """
    if partition.r < 1:
        raise ValueError(f"certified r={partition.r} must be at least 1")
    p, q1, q2 = Exponent.of(p), Exponent.of(q1), Exponent.of(q2)
    return _error_coefficient(partition.r, partition.l, partition.shape.b, p, q1, q2)


@lru_cache(maxsize=4096)
def _error_coefficient(r: int, l: int, b: int, p: Exponent, q1: Exponent, q2: Exponent) -> float:
    return float_pow(l, recip_gap(q1, p)) * float_pow(b, recip_gap(q2, p)) * float_pow(r - 1, p.recip)


@dataclass(frozen=True)
class OneColumnCheck:
    lhs: float
    rhs: float
    ok: bool


def check_one_column_bound(op: SpreadOperator, p, q1, q2, x: BlockMatrix) -> OneColumnCheck:
    """Evaluate both sides of the one-column error bound of op's partition
    on a concrete x."""
    if x.shape != op.partition.shape:
        raise ValueError(f"matrix shape {x.shape} does not match partition shape {op.partition.shape}")
    nonzero_cols = np.flatnonzero(block_norm_vector(x, Exponent.ONE))
    if nonzero_cols.size > 1:
        raise ValueError(f"support spans columns {nonzero_cols.tolist()}; need one")
    lhs = mixed_norm(x - op.apply(x), (q1, q2))
    rhs = spread_error_coefficient(op.partition, p, q1, q2) * lq_norm(x.entries, p)
    return OneColumnCheck(lhs=lhs, rhs=rhs, ok=lhs <= rhs + 1e-9)


@dataclass(frozen=True)
class KTermApproximation:
    error: float
    support: tuple[int, ...]


def best_k_term(y, k: int, q) -> KTermApproximation:
    """Best approximation of y by vectors supported on at most k indices.

    Keeping the k largest magnitudes (ties to the lowest index) is exactly
    optimal for every monotone norm, so the greedy support is returned
    together with the q-norm of the remainder.
    """
    y = np.asarray(y, dtype=float)
    if not 0 <= k <= y.size:
        raise ValueError(f"budget {k} outside [0, {y.size}]")
    order = np.argsort(-np.abs(y), kind="stable")
    support = tuple(sorted(int(i) for i in order[:k]))
    rest = order[k:]
    return KTermApproximation(error=lq_norm(y[rest], q), support=support)


@dataclass(frozen=True)
class PipelineParams:
    """Parameters of one pipeline run.

    alpha = (1/q1 - 1/p1) - (1/q2 - 1/p1)_+ held as an exact rational;
    d is the design dimension, k the block budget.
    """

    p1: Exponent
    p2: Exponent
    q1: Exponent
    q2: Exponent
    d: int
    k: int
    alpha: Fraction


def _exceptional_failure(p1: Exponent, p2: Exponent, q1: Exponent, q2: Exponent) -> str | None:
    """Name of the first violated condition of the exceptional region, or None."""
    if not q1 < p1:
        return f"q1 < p1 fails (q1={q1}, p1={p1})"
    if not q1 < q2:
        return f"q1 < q2 fails (q1={q1}, q2={q2})"
    if not p2 < q2:
        return f"p2 < q2 fails (p2={p2}, q2={q2})"
    if not q2 <= Exponent.TWO:
        return f"q2 <= 2 fails (q2={q2})"
    return None


def _group_budget(width: int, alpha: Fraction) -> int:
    """Block budget ceil(width^(alpha/4)) of a column group of the given
    width, decided in exact integer arithmetic; at least 1."""
    return ceil_power(width, alpha / 4)


def choose_pipeline_params(p1, p2, q1, q2, s: int, b: int) -> PipelineParams:
    """Pipeline parameters for an exceptional tuple.

    d is the least integer >= 2 with (1/d)*(1/q1) <= alpha/2, the weakest
    choice that lets the block-size contribution r^(1/q1) be absorbed at
    the alpha/2 decay rate.  k = ceil(min(s, b)^(alpha/4)), with the
    ceiling decided in exact integer arithmetic, is the budget of every
    column group as wide as min(s, b): the one group of a square grid,
    each full group of s columns of a wide one.
    """
    p1, p2, q1, q2 = (Exponent.of(e) for e in (p1, p2, q1, q2))
    failure = _exceptional_failure(p1, p2, q1, q2)
    if failure is not None:
        raise ValueError(f"tuple ({p1},{p2},{q1},{q2}) is not exceptional: {failure}")

    alpha = (q1.recip - p1.recip) - pos_part(q2.recip - p1.recip)
    assert alpha > 0

    # least d with (1/d) * q1.recip <= alpha / 2
    ratio = 2 * q1.recip / alpha
    d = max(2, -(-ratio.numerator // ratio.denominator))
    k = _group_budget(min(s, b), alpha)
    return PipelineParams(p1=p1, p2=p2, q1=q1, q2=q2, d=d, k=k, alpha=alpha)


@dataclass(frozen=True, eq=False)
class ApproxResult:
    """Outcome of one pipeline run.

    certified_bound is the triangle-inequality bound evaluated with the
    partition's actual (r, l): tail_error * s^(1/q1-1/p1)_+ plus the
    one-column coefficient times the kept block norms, per column group
    and aggregated by the q2-norm.  measured_error never exceeds it (up to
    float roundoff).
    """

    selected_columns: tuple[int, ...]
    approximant: BlockMatrix
    measured_error: float
    certified_bound: float
    dim: int
    tail_error: float

    def to_json_dict(self) -> dict:
        return {
            "selected_columns": list(self.selected_columns),
            "measured_error": self.measured_error,
            "certified_bound": self.certified_bound,
            "dim": self.dim,
            "tail_error": self.tail_error,
        }


class _ColumnGroups:
    """The column groups of one width: count contiguous groups of width
    columns from column lo of a b-column grid, each spread through op and
    keeping its best kept blocks, with the one-column coefficient coeff of
    the certified bound, for chunks of up to points grids."""

    def __init__(
        self, op: SpreadOperator, lo: int, width: int, count: int, kept: int, coeff: float,
        b: int, points: int,
    ):
        self.op, self.width, self.count, self.kept, self.coeff = op, width, count, kept, coeff
        self.lo, self.hi = lo, lo + count * width
        self.starts = lo + width * np.arange(count)  # each group's first column
        # the groups of a chunk, point by point: each one's first column in
        # the chunk's stack of points * b columns
        self.first = np.tile(self.starts, points) + np.repeat(b * np.arange(points), count)
        self.first_cells = self.first * op.partition.shape.s  # and its first cell
        self.kept_starts = np.repeat(self.starts, kept)  # the first column of each kept column's group
        # a window: as many places in the operator's cells by group as its largest group
        self.slots = np.arange(int(op._group_size.max())).reshape(-1, 1, 1)

    def windows(self, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(groups, places) for the kept columns of k points' groups of this
        width, a (k, count * kept) array of columns within their groups:
        the group through each of their cells, (k, 1, count, kept * s), and
        its window, slot by slot, R places in the operator's cells by group
        (SpreadOperator._group_cells) from the group's first,
        (k, R, count, kept * s), R the largest group size.  A window's
        first places are its group's own, as many as its size; the others
        are cells of the groups after it, or past the last cell, which
        np.take with mode "clip" reads as the last."""
        k = kept.shape[0]
        groups = self.op._column_groups[kept.reshape(k * self.count, self.kept)].reshape(k, 1, self.count, -1)
        return groups, self.op._group_start[groups] + self.slots

    def select(self, y: np.ndarray, q2: Exponent):
        """(support, selected columns, tails, sums) of these groups for the
        (k, b) block norms y of k points: the kept columns of every group,
        a row per group, then the selected columns, the tails (q2-norms of
        the norms not kept) and the sums of the kept norms of each point's
        groups as its row."""
        k = y.shape[0]
        groups, width, kept = k * self.count, self.width, self.kept
        rows = np.arange(groups)[:, None]
        norms = y[:, self.lo : self.hi].reshape(groups, width)
        order = np.argsort(-norms, axis=1, kind="stable")  # norms are >= 0: -|y|
        support = np.sort(order[:, :kept], axis=1)
        if kept < width:
            tails = _row_norms(norms[rows, order[:, kept:]], q2)
        else:
            tails = np.zeros(groups)
        # each group's kept norms summed left to right, as the certified
        # bound of one group adds them; np.sum would pair them from 8 terms
        kept_norms = norms[rows, support]
        sums = np.zeros(groups)
        for c in range(kept):
            sums += kept_norms[:, c]
        selected = (support.reshape(k, self.count, kept) + self.starts[:, None]).reshape(k, self.count * kept)
        return support, selected, tails.reshape(k, self.count), sums.reshape(k, self.count)

    def cut(self, y: np.ndarray, margin: float):
        """(ties, kept, rest) for the (k, b) block norms y of k points:
        whether some group of each point has a near-tie at its kept/not-kept
        boundary, its least kept norm at most 1 + margin times its greatest
        norm not kept, and the norms of each group split there, a row per
        group: the kept ones and the others, each in no order.  Norms off by
        less than a relative margin / 2 select the same columns as y does in
        every group without a near-tie."""
        k, kept = y.shape[0], self.kept
        norms = y[:, self.lo : self.hi].reshape(k * self.count, self.width)
        if kept in (0, self.width):
            return np.zeros(k, dtype=bool), norms[:, :kept], norms[:, kept:]
        order = -np.partition(-norms, (kept - 1, kept), axis=1)  # order[:, kept - 1] is the least kept norm
        ties = (order[:, kept - 1] <= order[:, kept] * (1 + margin)).reshape(k, self.count).any(axis=1)
        return ties, order[:, :kept], order[:, kept:]


class _Plan:
    """What the pipeline computes once per stream: the shape checks, the
    column groups of each width with their budgets and coefficients, for
    chunks of up to points grids, the tail factor and the dimension."""

    def __init__(self, shape: BlockShape, params: PipelineParams, width: int, ops: dict, points: int):
        s, b = shape.s, shape.b
        full, rest = divmod(b, width)
        widths = [w for w, count in ((width, full), (rest, 1)) if w and count]
        missing = [w for w in widths if w not in ops]
        if missing:
            raise ValueError(f"no column-group operator for width {', '.join(map(str, missing))}")
        self.params, self.shape, self.points = params, shape, points
        self.groups = []
        for w in widths:
            op = ops[w]
            if op.partition.shape != BlockShape(s, w):
                raise ValueError("partition shape does not match the input")
            k = params.k if w >= min(s, b) else _group_budget(w, params.alpha)
            lo, count = (0, full) if w == width else (full * width, 1)
            coeff = spread_error_coefficient(op.partition, params.p1, params.q1, params.q2)
            self.groups.append(_ColumnGroups(op, lo, w, count, min(max(k - 1, 0), w), coeff, b, points))
        self.screened = [g for g in self.groups if g.kept]  # the widths the raw screen reads windows for
        self.tail_factor = float_pow(s, recip_gap(params.q1, params.p1))
        self.dim = sum(g.op.dim * g.count for g in self.groups)
        self.exact_points = 0

    def _select(self, y: np.ndarray):
        """(supports, selected, tails, sums) of every column group for the
        block norms y (_ColumnGroups.select): the supports one per width,
        the others with a row per point."""
        supports, *rest = zip(*(g.select(y, self.params.q2) for g in self.groups))
        return supports, *(p[0] if len(p) == 1 else np.concatenate(p, axis=-1) for p in rest)

    def _bounds(self, tails: np.ndarray, sums: np.ndarray, coeffs=None) -> np.ndarray:
        """For each point, the q2-norm over its groups of tails *
        tail_factor + c * sums, c the coefficient coeffs gives the group's
        width: by default the one-column coefficient, so the certified
        bound."""
        if coeffs is None:
            coeffs = [g.coeff for g in self.groups]
        c = np.repeat(coeffs, [g.count for g in self.groups])
        return _row_norms(tails * self.tail_factor + c * sums, self.params.q2)

    def run(self, chunk: np.ndarray):
        """The pipeline on the k points in the rows of chunk, a (k, n) array
        that it overwrites: (selected, measured, bounds, tails, cells,
        values), the first four with a row or an entry per point, and the
        cells of chunk the spread writes, with their values.  The points
        are counted in exact_points.

        The block norms, the ball check, the selection, the spread and the
        error norms each take one pass over the whole chunk; the residual
        x - Dx is formed in chunk itself, then its absolute value."""
        params, shape = self.params, self.shape
        k = chunk.shape[0]
        self.exact_points += k
        y = _row_norms(chunk.reshape(k * shape.b, shape.s), params.p1).reshape(k, shape.b)
        if (_row_norms(y, params.p2) > 1 + 1e-9).any():
            raise ValueError("input lies outside the unit ball")
        entries = chunk.reshape(-1)
        supports, selected, tails, sums = self._select(y)
        spreads = [
            g.op._spread_columns(entries, support, g.first[: support.shape[0]])
            for g, support in zip(self.groups, supports)
        ]
        cells, values = (parts[0] if len(parts) == 1 else np.concatenate(parts) for parts in zip(*spreads))
        entries[cells] -= values
        np.abs(entries, out=entries)
        q2 = params.q2
        rows = chunk.reshape(k * shape.b, shape.s)
        measured = _row_norms(_abs_row_norms(rows, params.q1).reshape(k, shape.b), q2)
        return selected, measured, self._bounds(tails, sums), _row_norms(tails, q2), cells, values

    def _score_columns(self, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]] | None:
        """(measured, bounds, scores) for q1 = 1: the pipeline's values at
        extreme points of the (inf, 1) ball, one for each of the given
        columns, as run gives them for any signs on the column, and for
        each width its column score, the largest q2-norm of a row of its
        operator's pair counts.  None when some group of an operator that
        keeps a column meets a column twice: then x - Dx depends on the
        signs.  The partition's certified (r, l) are not used.

        An extreme point x on column j holds one entry +-1 in each group
        through j.  When j's group keeps a column it selects j, and the
        residual is -+1 on the group's cells off column j, whatever the
        signs: its column sums are lambda_jj', the number of groups that
        meet j and j'.  When it keeps none the residual is x itself.

        No grid is written.  A given column's measured error is the q2-norm
        of its row of pair counts placed at the columns of its group in a
        row of b: the operator's own row norm (SpreadOperator._column_norms,
        kept with the counts) where one group spans the grid, else rows of
        b within _SLAB_CELLS.  Its bound has a closed form: its block norms
        are 1.0 at its column and 0 elsewhere, so the bound's q2-norm over
        the groups has one term, its group's one-column coefficient when
        the group keeps a column (its tail is 0 and its kept sum 1.0), else
        tail_factor (its tail is 1.0 and its kept sum 0)."""
        s, b, q2 = self.shape.s, self.shape.b, self.params.q2
        step = max(1, _SLAB_CELLS // b)
        measured, bounds, scores = np.empty(columns.size), np.empty(columns.size), []
        for g in self.groups:
            mine = np.flatnonzero((columns >= g.lo) & (columns < g.hi))
            if not g.kept:
                scores.append(float(s))
                measured[mine], bounds[mine] = s, self.tail_factor
                continue
            norms = g.op._column_norms(q2)
            if norms is None:
                return None
            scores.append(float(norms.max()))
            bounds[mine] = g.coeff
            local = (columns[mine] - g.lo) % g.width  # each one's place in its group
            if g.width == b:
                measured[mine] = norms[local]
                continue
            counts = g.op._column_counts
            start = columns[mine] - local  # the first column of each one's group
            for lo in range(0, mine.size, step):
                some = slice(lo, lo + step)
                rows = np.zeros((local[some].size, b))
                rows[np.arange(rows.shape[0])[:, None], start[some, None] + np.arange(g.width)] = counts[local[some]]
                measured[mine[some]] = _row_norms(rows, q2)
        return measured, bounds, scores

    def scores(self, seed: int, count: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(measured, bounds) arrays of the pipeline's exact values at a set
        of points of sampled_sup's streams that holds both suprema.

        For the (inf, 1) ball the extreme points come first
        (_extreme_scores): their values are yielded and set the floors,
        values of the measured error and of the bound that a yielded point
        reaches.  The ball stream is screened next (_screen): from the
        points' weights alone where the column scores bound their error
        (p1 = inf, p2 = 1, q1 = 1 and every column's groups distinct, see
        _weight_estimates), then the points kept from their raw draw; from
        their raw draw alone otherwise.  Last, each ball point whose upper
        estimate reaches a floor, or whose estimate the screen could not
        trust, is drawn again alone from its saved state and run through
        the pipeline, up to a chunk of them together.  A ball point left
        out has both values below a value that is yielded.  count below 1
        is a ValueError, raised before any point is drawn."""
        if count < 1:
            raise ValueError("count must be >= 1")
        shape, params = self.shape, self.params
        floors, column_scores = (-math.inf, -math.inf), None
        if params.p1.is_inf and params.p2 == Exponent.ONE:
            measured, bounds, column_scores = self._extreme_scores(seed + 1, count)
            floors = (measured.max(), bounds.max())
            yield measured, bounds
        rng = np.random.default_rng(seed)
        (floor_e, floor_b), candidates = self._screen(rng, count, floors, column_scores)
        redraw = [(first, state) for first, state, up_e, up_b in candidates if up_e >= floor_e or up_b >= floor_b]
        per = _chunk_points(shape)
        for at in range(0, len(redraw), per):
            batch = redraw[at : at + per]
            chunk = np.empty((len(batch), shape.n))
            for i, (first, state) in enumerate(batch):
                rng.bit_generator.state = state
                _draw_ball_chunk(rng, shape, params.p1, params.p2, chunk[i : i + 1], first)
            yield self.run(chunk)[1:3]

    def _screen(self, rng: np.random.Generator, count: int, floors: tuple, column_scores: list[float] | None):
        """Screen the count points of the ball stream rng draws, a batch at
        a time: from their weights alone with column_scores
        (_weight_estimates), then the points that screen keeps from their
        raw draw (_rescreened); or from their raw draw (_raw_estimates)
        when column_scores is None.  floors are values of the measured
        error and of the bound that some yielded point reaches.  Returns
        the floors, raised by the screened points, and the candidates
        (index, generator state before its draw, upper estimates of its
        measured error and bound) whose exact values may reach them.  rng
        is drawn on a worker thread while the raw screen reads its chunks,
        and is out of the stream when this returns (_raw_estimates).

        An unflagged point's exact values lie within delta = margin *
        (d0 + B) of its raw estimates, B its estimated bound; the weight
        screen's bound B is exact, and its error is below its estimate +
        delta.  So an estimate - delta is a floor they reach, and a point
        whose estimates + delta are below both floors cannot hold a
        supremum: it is dropped, in its batch or a later one, as the floors
        only rise.  A flagged point's upper estimates are inf."""
        margin = self.margin()
        if column_scores is None:
            return self._kept(self._raw_estimates(rng, count, margin), floors, margin, True)
        weighed = self._weight_estimates(rng, count, margin, column_scores)
        floors, candidates = self._kept(weighed, floors, margin, False)
        return self._kept(self._rescreened(rng, candidates, margin), floors, margin, True)

    def _kept(self, batches: Iterator, floors: tuple, margin: float, raw: bool):
        """_screen's floors and candidates from the estimates of each batch,
        (indices, states, measured, bounds, flagged): raw estimates, or the
        weight screen's, whose error is an upper bound only.  batches is
        closed on every exit."""
        params = self.params
        d0 = d0_mixed(self.shape, params.p1, params.p2, params.q1, params.q2)
        floor_e, floor_b = floors
        candidates = []
        with closing(batches):
            for indices, states, measured, bounds, flagged in batches:
                delta = margin * (d0 + bounds)
                if not flagged.all():
                    if raw:
                        floor_e = max(floor_e, (measured - delta)[~flagged].max())
                    floor_b = max(floor_b, (bounds - delta)[~flagged].max())
                up_e, up_b = measured + delta, bounds + delta
                up_e[flagged] = math.inf
                candidates = [c for c in candidates if c[2] >= floor_e or c[3] >= floor_b]
                near = np.flatnonzero((up_e >= floor_e) | (up_b >= floor_b))
                candidates += [(indices[i], states[i], up_e[i], up_b[i]) for i in near]
        return (floor_e, floor_b), candidates

    def margin(self) -> float:
        """The screen's relative margin, max(2^-30, 8 (C u)^(1/q1)) with
        u = 2^-53 and C = 8s + 6b + 4S + 64, S the largest group size:
        twice the error bound of _estimate, and 2^-30 for q1 = 1 while C
        stays below 2^20."""
        s, b = self.shape.s, self.shape.b
        size = 8 * s + 6 * b + 4 * max(int(g.op._group_size.max()) for g in self.groups) + 64
        return max(2.0**-30, 8 * float_pow(size * 2.0**-53, self.params.q1.recip))

    def _block_norms(self, weights: np.ndarray, t: np.ndarray):
        """(zero, norms) for the raw weights of some points and their
        interior scales t (_interior_scales): their block norms y = w * t
        are made in weights itself, w the normalised weights
        (norms._ball_weights), and returned are the mask of the points
        whose weights were all zero and the p2-norms the weights were
        divided by."""
        zero, norms = _ball_weights(weights, self.params.p2)
        weights *= t[:, None]
        return zero, norms

    def _raw_estimates(self, rng: np.random.Generator, count: int, margin: float):
        """_estimates of the ball stream rng draws.  The stream's worker
        (norms._Drawn, started at the first chunk) draws the next chunk
        while _estimate reads this one, so the screen's passes overlap the
        generator calls.  The stream is closed, and its worker joined, when
        this ends or is closed."""
        drawn = _Drawn(self.shape, count, _raw_draw(rng, self.shape, self.params.p1, self.params.p2))
        with closing(drawn) as chunks:
            yield from self._estimates(((first, chunk, *raw) for first, chunk, raw in chunks), margin)

    def _rescreened(self, rng: np.random.Generator, candidates: list, margin: float):
        """_estimates of the weight screen's candidates, each drawn again
        from its saved state, blocks and all, as a chunk of one point: two-
        sided and much tighter than the weight bound where the column
        scores are loose, as on small grids."""
        shape, params = self.shape, self.params
        chunk, weights = np.empty((1, shape.n)), np.empty((1, shape.b))

        def redrawn():
            for index, state, *_ in candidates:
                rng.bit_generator.state = state
                scales = _draw_ball_raw(rng, shape, params.p1, params.p2, chunk, weights, index)
                yield index, chunk, weights, scales, [state]

        return self._estimates(redrawn(), margin)

    def _weight_estimates(self, rng: np.random.Generator, count: int, margin: float, column_scores: list[float]):
        """(indices, states, upper, bounds, flagged) for each batch of up to
        _WEIGHT_CELLS // b points of the (inf, 1) ball stream rng draws, for
        q1 = 1, from the points' weights and scales alone: their blocks are
        skipped, not drawn (norms._draw_ball_raw with no chunk).  bounds
        are the certified bounds, upper is U * (1 + margin) with U the
        bound below on the measured error, and flagged marks the points
        whose weights were all zero (_block_norms) or some of whose groups
        has a near-tie (_ColumnGroups.cut).

        Block j of a point is its raw block over the block's max |.|, in
        [-1, 1] and +-1 at the max, times w_j and then t, so y = w * t is
        the drawn block norms bit for bit: the selection, tails and bound
        are the pipeline's own, and |x_ij| <= y_j.  In a column group,
        x - Dx_S = (x - x_S) + sum_S (x_j - D x_j), x_j the point on
        column j alone.  The first term's column 1-norms are at most s y_j,
        so its (1, q2)-norm is at most tail_factor * tail.  x_j - D x_j is
        entrywise at most y_j times the residual of an extreme point on
        column j, whose column sums are j's pair counts lambda_jj' (one
        count per operator, _score_columns), so its (1, q2)-norm is at
        most y_j c, c the width's column score.  So the point's error is
        at most U, the q2-norm over its groups of
        tail_factor * tail + c * sum_S y_j (_bounds with column_scores).

        Floats, to first order in u = 2^-53: U adds, multiplies and takes
        norms of nonnegative terms, the score's norm among them, in fewer
        than (3b + 16)u of relative error, so the real U is below
        U * (1 + (3b + 16)u).  The pipeline's float error is within
        (s + b + 8)u of its real error plus S u ||D|x_S|||, S the largest
        group size, the group sums' rounding, and ||D|x_S||| <=
        ||x|| + ||x_S - D x_S|| <= d0 + U.  So it is below
        U * (1 + (s + 4b + S + 24)u) + S u d0, which upper + delta bounds:
        margin is at least 8 (8s + 6b + 4S + 64)u."""
        shape, params = self.shape, self.params
        per = max(1, _WEIGHT_CELLS // shape.b)
        for first in range(0, count, per):
            weights, states = np.empty((min(per, count - first), shape.b)), []
            scales = _draw_ball_raw(rng, shape, params.p1, params.p2, None, weights, first, states)
            indices = range(first, first + weights.shape[0])
            flagged = self._block_norms(weights, _interior_scales(indices, scales))[0]
            for g in self.groups:
                flagged |= g.cut(weights, margin)[0]
            tails, sums = self._select(weights)[2:]
            upper = self._bounds(tails, sums, column_scores) * (1 + margin)
            yield indices, states, upper, self._bounds(tails, sums), flagged

    def _estimates(self, draws: Iterator, margin: float):
        """(indices, states, measured, bounds, flagged) for each batch of
        the raw draws, each (first, chunk, weights, scales, states) of the
        points first, first + 1, ... as norms._draw_ball_raw gives them:
        each point's index in its stream, the generator state before its
        draw and _batch_estimates' values.  Each chunk is read as it comes
        and never written (_estimate); what was read of a run of points is
        folded into their errors (_fold), and what depends only on the
        block norms runs once a batch (_batch_estimates).

        A batch holds whole chunks, up to max(points, _WEIGHT_CELLS // b)
        points, and a run up to max(points, _WEIGHT_CELLS // c), c the
        window cells _estimate reads of a point: each array they keep or
        work in holds about _WEIGHT_CELLS floats, so what a stream holds
        does not grow with its count."""
        s, b = self.shape.s, self.shape.b
        cells = [g.count * g.kept * g.slots.size * s for g in self.screened]
        size = max(self.points, _WEIGHT_CELLS // b)
        run = max(self.points, _WEIGHT_CELLS // max(1, sum(cells)))
        magnitudes, errors, low = np.empty((size, b)), np.empty(size), np.empty(size, dtype=bool)
        inner, power = np.empty((run, b)), np.empty((run, b))
        kept = [np.empty((run, g.count * g.kept), dtype=np.intp) for g in self.screened]
        values = [np.empty((run, c)) for c in cells]
        indices, scales, states, read = [], [], [], 0

        def fold():  # the run read last
            rows, at = slice(len(indices) - read, len(indices)), slice(0, read)
            read_at = [a[at] for a in kept], [v[at] for v in values]
            low[rows], errors[rows] = self._fold(magnitudes[rows], inner[at], power[at], *read_at)

        def batch():
            n = len(indices)
            return indices, states, *self._batch_estimates(magnitudes[:n], errors[:n], low[:n], indices, scales, margin)

        for first, chunk, weights, drawn_scales, drawn_states in draws:
            k = chunk.shape[0]
            if read + k > run or len(indices) + k > size:
                fold()
                read = 0
            if len(indices) + k > size:
                yield batch()
                indices, scales, states = [], [], []
            rows, at = slice(len(indices), len(indices) + k), slice(read, read + k)
            read_at = [a[at] for a in kept], [v[at] for v in values]
            self._estimate(chunk, weights, magnitudes[rows], inner[at], power[at], *read_at)
            indices += range(first, first + k)
            scales += drawn_scales
            states += drawn_states
            read += k
        if indices:
            fold()
            yield batch()

    def _estimate(
        self, chunk: np.ndarray, weights: np.ndarray, magnitudes: np.ndarray, inner: np.ndarray, power: np.ndarray,
        kept: list, values: list,
    ) -> None:
        """Read the raw draw of the k points in the rows of chunk and
        weights, writing nothing to either, into the rows of the others,
        each (k, b) or a list with an array for each width whose groups
        keep columns: magnitudes, their |w|; inner, each block's p1-norm
        nu_j (its square for p1 = 2); power, each block's q1-th power sum
        sum_i |g_ij|^q1, g the raw blocks; kept, the columns each group
        keeps, those of its largest |w_j|, (k, count * kept); and values,
        the raw values in the window of every group that meets them
        (_ColumnGroups.windows), (k, R * count * kept * s).

        The estimate (_fold, _batch_estimates).  A point is taken as
        x' = g * f_j, column by column, f_j = |w_j| / nu_j: the drawn point
        is c x', c = t / ||w||_p2 and t its interior scale, up to roundings,
        and y = c |w| its block norms.  The columns kept are y's own where
        no near-tie flags the point, since y rounds monotonically in |w|.
        Column j's residual q1-th power sum is its total
        T_j = f_j^q1 sum_i |g_ij|^q1 plus D_j, the sum over its cells in
        groups that meet the kept columns S of |r|^q1 - |x'|^q1,
        r = x' - Dx'_S: a group's sum of x' over its kept cells, its m >= 1
        reads (one for each kept cell) each weighted 1/m, so it counts
        once.  The error is c ||N||_q2, N_j the q1-th root of T_j + D_j,
        clamped at 0.

        Its float error, to first order in u = 2^-53, with S the largest
        group size.  A norm or power sum of m terms, by _row_norms or an
        einsum, is within (m + 4)u of its value.
        - Entries: the drawn ones take four roundings after nu, and so do
          c x' (f_j, g f_j, c and its product), with nu within (2s + 8)u of
          the draw's for p1 = 2 (equal otherwise).  So the two are within
          eps = (2s + 16)u of each other, and the drawn block norm is
          within (2s + 12)u of y_j.
        - Selection: where every group's least kept y_j exceeds 1 + margin
          times its greatest y_j not kept, the drawn norms select the same
          columns.  Otherwise the point is flagged (_ColumnGroups.cut).
        - Bound B: with the same columns it is a monotone, homogeneous
          function of the block norms, with roundings of its own within
          (3b + 12)u, so the two are within (2s + 6b + 40)u * B.
        - Error e = ||x - Dx||: the residuals of x and c x' differ by at
          most eps * (|x| + D|x_S|) entrywise, ||x|| <= d0 in the ball and
          ||D|x_S||| <= d0 + B by the one-column bound; the pipeline's own
          roundings are within (s + b + 8)u e + (S - 1)u ||D|x_S|||.  Here
          T_j + D_j is within K u W_j of its value for the f_j computed,
          K = 3s + 4S + 20 and W_j the power sum of |x'_j| + (D|x'_S|)_j,
          which bounds the total, the cells read and their residual: T_j
          (s + 4)u (the powers, their sum, f_j^q1 and the product), each
          value read and its power 4u, each residual, its group sum of at
          most S terms and its power (2S + 6)u, their difference 2u, the
          weight 1/m and the m reads (2S + 2)u, the bincount's sum of at
          most s of them 2(s - 1)u, and the last sum 3u.  The
          cancellation in T_j + D_j has no relative bound, so its root,
          clamped at 0, moves by at most (K u W_j)^(1/q1), t -> t^(1/q1)
          being (1/q1)-Hölder, and over the columns by
          (K u)^(1/q1) (||x'|| + ||D|x'_S|||) (Minkowski): times c,
          (K u)^(1/q1) (2 d0 + B).  The root, the outer norm and c add
          (b + 10)u e.
        With e <= 2 d0 + B, both are within 4 (C u)^(1/q1) (d0 + B),
        C = 8s + 6b + 4S + 64 (linear in u for q1 = 1), which margin bounds
        twice over.  A zero-norm guard of norms._draw_ball_chunk (all
        weights 0, or a zero block) also flags the point, and so does a
        block norm at most _NORM_FLOOR."""
        params, (s, b) = self.params, (self.shape.s, self.shape.b)
        k = chunk.shape[0]
        np.abs(weights, out=magnitudes)
        blocks = chunk.reshape(k * b, s)
        powers = np.abs(blocks)
        if params.p1.float_value == 2.0:  # standard normals: the sum cannot overflow
            np.einsum("ij,ij->i", powers, powers, out=inner.reshape(-1))
        else:
            inner[:] = _row_norms(blocks, params.p1).reshape(k, b)
        if params.q1.float_value != 1.0:  # |g| is its own first power
            powers **= params.q1.float_value
        np.einsum("ij->i", powers, out=power.reshape(-1))
        entries = chunk.reshape(-1)
        for g, columns, read in zip(self.screened, kept, values):
            cut = g.width - g.kept  # ties at the cut flag the point
            largest = magnitudes[:, g.lo : g.hi].reshape(-1, g.width).argpartition(cut, axis=1)[:, cut:]
            columns[:] = largest.reshape(k, -1)
            cells = g.op._group_cells.take(g.windows(columns)[1], mode="clip")
            cells += g.first_cells[: k * g.count].reshape(k, 1, g.count, 1)
            entries.take(cells, out=read.reshape(cells.shape), mode="clip")

    def _fold(
        self, magnitudes: np.ndarray, inner: np.ndarray, power: np.ndarray, kept: list, values: list
    ) -> tuple[np.ndarray, np.ndarray]:
        """(low, errors) of a run of points from what _estimate read of
        them: the mask of the points with a block norm at most _NORM_FLOOR,
        which nu is raised to, and ||N||_q2, N_j the q1-th root of column
        j's residual power sum T_j + D_j, clamped at 0 (_estimate).  The
        arrays are overwritten.  A window's places past its group's own
        cells read nothing: they go to a last column, "nowhere", where f is
        0 and no column is kept."""
        params, b = self.params, self.shape.b
        points, q1 = inner.shape[0], params.q1.float_value
        if params.p1.float_value == 2.0:
            np.sqrt(inner, out=inner)
        low = inner.min(axis=1) <= _NORM_FLOOR
        np.maximum(inner, _NORM_FLOOR, out=inner)
        nowhere = points * b
        scale = np.zeros(nowhere + 1)  # f_j by column of the run, then nowhere
        np.divide(magnitudes, inner, out=scale[:nowhere].reshape(points, b))
        power *= scale[:nowhere].reshape(points, b) ** q1  # T_j
        starts = b * np.arange(points)[:, None]  # each point's first column
        chosen = np.zeros(nowhere + 1)  # 1.0 at the columns kept
        for g, columns in zip(self.screened, kept):
            chosen[starts + g.kept_starts + columns] = 1.0
        for g, columns, read in zip(self.screened, kept, values):
            groups, cols = g.windows(columns)  # the places, then the columns there
            cols = g.op.partition.groups.cols.take(cols, mode="clip")
            cols += (starts + g.starts).reshape(points, 1, g.count, 1)
            np.putmask(cols, g.slots >= g.op._group_size[groups], nowhere)
            x = read.reshape(cols.shape)
            x *= scale.take(cols)  # x' in the values' place
            mine = chosen.take(cols)  # 1.0 at the group's kept cells
            reads = mine.sum(axis=1, keepdims=True)  # m, one read for each kept cell
            residual = np.subtract(x, np.einsum("prgc,prgc->pgc", mine, x)[:, None], out=mine)
            np.abs(residual, out=residual)
            np.abs(x, out=x)
            if q1 != 1.0:  # |.| is its own first power
                residual **= q1
                x **= q1
            residual -= x
            if (reads > 1.0).any():  # so each group counts once
                residual /= reads
            power += np.bincount(cols.reshape(-1), residual.reshape(-1), nowhere + 1)[:nowhere].reshape(points, b)
        np.maximum(power, 0.0, out=power)
        power **= 1 / q1  # N_j
        return low, _row_norms(power, params.q2)

    def _batch_estimates(
        self, magnitudes: np.ndarray, errors: np.ndarray, low: np.ndarray, indices, scales: list[float], margin: float
    ):
        """(measured, bounds, flagged) of the points of one batch from their
        |w|, errors and low-norm mask (_fold), their indices in their stream
        and the interior scales drawn at the odd ones, in order: the error
        times c (_estimate), and from the block norms y (_block_norms) the
        near-ties and the bound, each group's norms split at its
        kept/not-kept boundary (_ColumnGroups.cut).  magnitudes is
        overwritten."""
        params, points = self.params, magnitudes.shape[0]
        t = _interior_scales(indices, scales)
        zero, norms = self._block_norms(magnitudes, t)
        flagged, tails, sums = zero | low, [], []
        for g in self.groups:
            ties, kept, rest = g.cut(magnitudes, margin)
            flagged |= ties
            tails.append((_row_norms(rest, params.q2) if rest.size else np.zeros(len(rest))).reshape(points, g.count))
            sums.append(kept.sum(axis=1).reshape(points, g.count))
        bounds = self._bounds(np.concatenate(tails, axis=1), np.concatenate(sums, axis=1))
        return errors * (t / norms), bounds, flagged

    def _extreme_scores(self, seed: int, count: int) -> tuple[np.ndarray, np.ndarray, list[float] | None]:
        """(measured, bounds, scores) of the pipeline at the count extreme
        points of the (inf, 1) ball from seed: with q1 = 1 one value per
        distinct drawn column and the column scores, both read from one
        pair count per operator (_score_columns); with another q1, or when
        some group of an operator that keeps a column meets a column
        twice, the values of the points run through the pipeline in
        chunks, and no scores."""
        shape = self.shape
        if self.params.q1 == Exponent.ONE:
            drawn = np.zeros(shape.b, dtype=bool)
            for j, _ in _extreme_columns(np.random.default_rng(seed), shape, count):
                drawn[j] = True
            scored = self._score_columns(np.flatnonzero(drawn))
            if scored is not None:
                return scored
        runs = [self.run(chunk)[1:3] for chunk in _draw_chunks(shape, count, _extreme_draw(shape, seed))]
        measured, bounds = (np.concatenate(values) for values in zip(*runs))
        return measured, bounds, None


def _pipeline(x: BlockMatrix, params: PipelineParams, width: int, ops: dict) -> ApproxResult:
    """The pipeline on the one point x, over contiguous column groups of
    width columns tiling the columns of x, the last one narrower when
    width does not divide b; ops maps each group width to its operator,
    over an s x width partition.

    Each group spreads the best (k-1)-term support of its slice of the
    block norms, with k = params.k for a group as wide as min(s, b) and
    _group_budget(width, alpha) for a narrower last one.  The certified
    bound and the tail error are the q2-norms of the per-group values, so
    one group reports its own exactly.  The groups of one width are
    handled together, as rows of arrays.  This is the one-point case of
    the chunked run sampled_sup makes (_Plan.run), so both give the same
    bits.  Each run builds its own one-point plan and runs it on its own
    copy of x, and the approximant is a new array of the result's own.
    """
    shape = x.shape
    plan = _Plan(shape, params, width, ops, 1)
    selected, measured, bound, tail, cells, values = plan.run(x.entries.reshape(1, -1).copy())
    approximant = np.zeros(shape.n)
    approximant[cells] = values
    return ApproxResult(
        selected_columns=tuple(selected[0].tolist()),
        approximant=BlockMatrix._adopt(shape, approximant),
        measured_error=float(measured[0]),
        certified_bound=float(bound[0]),
        dim=plan.dim,
        tail_error=float(tail[0]),
    )


def approximate(x: BlockMatrix, params: PipelineParams, op: SpreadOperator) -> ApproxResult:
    """Spread the heaviest k-1 blocks of x through op's partition.

    x must lie in the (p1, p2) unit ball.  This is the column-group
    pipeline with one group of all b columns and budget params.k: the
    approximant is the spread of x restricted to the best (k-1)-term
    support of its block norms, an element of the group-constant
    subspace, and only the groups that meet those columns are touched.
    The run owns its arrays: the approximant is the result's own.
    sampled_sup runs whole chunks of points through the same pipeline.
    """
    return _pipeline(x, params, x.shape.b, {x.shape.b: op})


def grouped_subspace_approximate(
    x: BlockMatrix,
    params: PipelineParams,
    ops: dict[int, SpreadOperator] | None = None,
) -> ApproxResult:
    """Pipeline for wide grids (s < b): the column-group pipeline over
    ceil(b/s) contiguous groups of at most s columns, each with its own
    operator from ops (pipeline_operators(s, b, params.d, "good"), built
    here when not given).  Every full group has budget params.k; a narrower
    last group takes _group_budget(width, alpha).  The certified bound
    aggregates the per-group bounds with the outer norm, which dominates
    the mixed norm of the residual.  A width missing from ops is a
    ValueError naming it, raised before x is read.
    """
    s, b = x.shape.s, x.shape.b
    if s >= b:
        raise ValueError(f"s={s} >= b={b}: use approximate directly")
    if ops is None:
        ops = pipeline_operators(s, b, params.d, "good")
    return _pipeline(x, params, s, ops)


def pipeline_operators(s: int, b: int, d: int, kind: str) -> dict[int, SpreadOperator]:
    """The operators sweep rows and witnesses run sampled_sup with on an
    s x b grid, keyed by column-group width.  kind "good" spreads every
    distinct width of the contiguous column groups of at most s columns
    (s and the remainder on a wide grid, b alone when s >= b) through
    that width's good partition.  kind "transposition" gives the
    transposition partition of a square grid; a grid that is not square
    is a ValueError, and so is any other kind.  Each partition refuses a
    grid over partitions.MAX_GRID_CELLS cells; so does a wide grid
    itself, first, since its points are larger than its partitions.

    The good operators come from a cache of the last 16 (s, width, d)
    (_good_operator), shared by every caller: a warm grid pays for no
    restrict, no cell index and no pair count.  Each one holds about 32
    bytes a cell (its partition's rows and columns, its cell index and
    its cells by group; 2 MiB at 251 x 251, 128 MiB at 2048 x 2048), its
    pair counts once counted (a byte a pair of columns while l < 256) and
    their row norms for one q2, all read-only."""
    if kind == "good":
        if s < b:
            _check_grid(s, b)
        return {width: _good_operator(s, width, d) for width in sorted({min(s, b - lo) for lo in range(0, b, s)})}
    if kind == "transposition":
        if s != b:
            raise ValueError("transposition partition needs s == b")
        return {s: SpreadOperator(transposition_partition(s))}
    raise ValueError(f"unknown partition kind {kind!r}")


# bounded like partitions._good_partition_full, so a sweep over many sizes
# does not hold every operator it used
@lru_cache(maxsize=16)
def _good_operator(s: int, width: int, d: int) -> SpreadOperator:
    return SpreadOperator(good_partition(s, width, d, field_order=PIPELINE_FIELD_ORDER))


def _interior_scales(indices, scales: list[float]) -> np.ndarray:
    """Each point's interior scale t, by its index in its ball stream: 1 at
    an even index, the next of scales, the draw's own in order, at an odd
    one (norms._draw_ball_raw)."""
    odd = iter(scales)
    return np.array([next(odd) if i % 2 else 1.0 for i in indices])


def _raw_draw(rng: np.random.Generator, shape: BlockShape, p1: Exponent, p2: Exponent):
    """The raw draw of rng's ball stream (norms._draw_ball_raw) as the draw
    of a norms._Drawn stream: each chunk's points, and its weights, scales
    and the generator state before each point."""

    def draw(chunk, first):
        weights, states = np.empty((chunk.shape[0], shape.b)), []
        scales = _draw_ball_raw(rng, shape, p1, p2, chunk, weights, first, states)
        return weights, scales, states

    return draw


@dataclass(frozen=True)
class SampledSup:
    """What a sweep row or witness keeps of a stream of points: the suprema of
    the measured error and of the certified bound, the dimension of the
    pipeline's subspace and the number of points, and how many of those
    points ran through the pipeline itself (exact_points): the ball points
    the screen kept and, unless they are scored by column, the extreme
    points.  With q1 = 1 the (inf, 1) ball's points are screened from
    their weights and the column scores, and on the sweep and witness
    grids none is kept."""

    sup_error: float
    sup_bound: float
    dim: int
    count: int
    exact_points: int


def sampled_sup(
    shape: BlockShape, params: PipelineParams, ops: dict[int, SpreadOperator], seed: int, count: int
) -> SampledSup:
    """The suprema of the pipeline's measured error and certified bound
    over count points of the (p1, p2) ball from seed (sample_ball's) and,
    for the (inf, 1) ball, count extreme points from seed + 1
    (extreme_points_inf1's), the pipeline taking column groups of
    min(s, b) columns: approximate's for s >= b (ops = {b: op}),
    grouped_subspace_approximate's for s < b (ops as pipeline_operators
    gives them).  The floats are those of a loop of approximate or
    grouped_subspace_approximate over the points.

    For the (inf, 1) ball the extreme points are scored first.  With
    q1 = 1 an extreme point's error and bound depend on its column alone,
    so their stream is read as columns (norms._extreme_columns) and each
    distinct column is scored from its row of pair counts, with no grid
    written.  The pairs of each width's operator are counted once, by the
    count verify_partition takes l from (designs._pair_multiplicities),
    and kept with the operator; the same count gives the column scores
    (_Plan._score_columns).
    With another q1, or when some group meets a column twice, the extreme
    points run through the pipeline in chunks.  Their values are the floors the ball
    points are screened against (_Plan._screen).

    With q1 = 1, and every column's groups distinct, an (inf, 1) ball
    point is screened from its weights and interior scale alone: its
    blocks are skipped in the generator, not drawn, its certified bound
    is exact from its block norms, and its error is bounded by the
    column scores of the partitions (_Plan._weight_estimates).  A point
    that bound keeps is drawn again, blocks and all, and screened from
    its raw draw, as below.  Every other ball stream is drawn in chunks
    of max(1, K // 2) points, K = _chunk_points(shape), the two halves of
    the stream's one array of K rows, at most 2^16 cells (one 256 x 256
    grid) unless one grid alone is larger (then a second row), so memory
    does not grow with count.  The stream's worker thread draws the next
    chunk into one half while each chunk is screened from its raw draw in
    the other (norms._Drawn).  The screen reads a chunk and never writes
    it: each block's p1-norm and q1-th power sum, and the raw values of
    the cells of the groups that meet each point's kept columns
    (_Plan._estimate).  From those, and the points' weights, it estimates
    their errors and bounds within a stated margin of the exact values,
    folding the cells read once for a run of points and doing the work on
    the block norms once for a batch (_Plan._estimates).
    Only the points that can hold a supremum, or whose estimate the
    screen cannot trust, are drawn again from their saved generator
    state and run through the exact pipeline (_Plan.run), on this thread
    once the worker is joined.  So an (inf, 1) ball point pays for its
    weights, and every other ball point for its generator calls, with the
    screen's two passes over its chunk beside them; only the points kept
    pay for the exact pipeline.  count below 1 is a ValueError, raised
    before any point is drawn."""
    plan = _Plan(shape, params, min(shape.s, shape.b), ops, _chunk_points(shape))
    sup_error = sup_bound = -math.inf
    for measured, bounds in plan.scores(seed, count):
        sup_error = max(sup_error, *measured.tolist())
        sup_bound = max(sup_bound, *bounds.tolist())
    extreme = params.p1.is_inf and params.p2 == Exponent.ONE
    return SampledSup(
        sup_error=sup_error, sup_bound=sup_bound, dim=plan.dim, count=count * (1 + extreme),
        exact_points=plan.exact_points,
    )


def transposition_partition(s: int) -> Partition:
    """Square-grid partition pairing (i, j) with (j, i), diagonal cells as
    singletons: s*(s+1)/2 groups of size at most 2, and any two columns
    share exactly one group (their transposition pair)."""
    if s < 1:
        raise ValueError("s must be positive")
    _check_grid(s, s)
    sizes = np.repeat([2, 1], [s * (s - 1) // 2, s])
    rows, cols = np.empty(s * s, dtype=np.int64), np.empty(s * s, dtype=np.int64)
    at = 0
    for i in range(s):  # the pairs i < j, by i then j: cell (i, j), then (j, i)
        later = np.arange(i + 1, s)
        end = at + 2 * later.size
        rows[at:end:2] = cols[at + 1 : end : 2] = i
        rows[at + 1 : end : 2] = cols[at:end:2] = later
        at = end
    rows[at:] = cols[at:] = np.arange(s)  # the diagonal
    return Partition(BlockShape(s, s), CellGroups._of(sizes, rows, cols), r=2, l=1)
