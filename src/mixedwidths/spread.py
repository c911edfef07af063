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

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .norms import (
    BlockMatrix,
    BlockShape,
    Exponent,
    _abs_row_norms,
    _ball_points,
    _extreme_points_inf1,
    block_norm_vector,
    ceil_power,
    float_pow,
    lq_norm,
    mixed_norm,
    pos_part,
    recip_gap,
)
from .partitions import CellGroups, Partition, good_partition

# Field order of every partition the pipeline builds: the least supported
# order r with r^d >= b, so the design grid r^d overshoots b the least.
PIPELINE_FIELD_ORDER = "smallest"

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
    "column_group_operators",
    "grouped_subspace_approximate",
    "pipeline_points",
    "SampledSup",
    "sampled_sup",
    "transposition_partition",
]


class SpreadOperator:
    """Linear map sending each unit cell to the indicator of its group.

    Application is a single scatter-gather over a precomputed cell-to-group
    index, so repeated use on one partition is cheap.  The cells are also
    kept group by group, so the pipeline can spread a few columns without
    touching the rest of the grid.
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
        index = np.empty(n, dtype=np.int64)
        index[flat] = np.repeat(np.arange(partition.m, dtype=np.int64), sizes)
        self._group_index = index
        # cells of group g: _group_cells[_group_start[g] : _group_start[g] + _group_size[g]]
        self._group_cells = flat
        self._group_size = sizes
        self._group_start = np.cumsum(sizes) - sizes

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

    def _spread_columns(self, entries: np.ndarray, columns) -> tuple[np.ndarray, np.ndarray]:
        """Cells where the spread of entries kept on columns can be nonzero,
        and its values there: every cell of every group that meets the
        columns.  entries are flat, of the partition's shape; a view of a
        wider matrix's entries is read in place.  Each group sum adds its
        cells of the columns in flat order, as apply does (its other terms
        are zeros), so the values are bit-identical to apply's."""
        s = self.partition.shape.s
        kept = (np.sort(np.asarray(columns, dtype=np.int64))[:, None] * s + np.arange(s)).ravel()
        group = self._group_index[kept]
        # the distinct groups in increasing order, as np.unique gives them
        ordered = np.sort(group)
        first = np.empty(ordered.size, dtype=bool)
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        touched = ordered[first]
        sums = np.bincount(np.searchsorted(touched, group), weights=entries[kept])
        sizes = self._group_size[touched]
        # where each touched group's cells sit in _group_cells: the group's
        # start plus 0, 1, ..., size - 1
        first = np.cumsum(sizes) - sizes
        at = np.repeat(self._group_start[touched] - first, sizes) + np.arange(sizes.sum())
        return self._group_cells[at], np.repeat(sums, sizes)


def spread_error_coefficient(partition: Partition, p, q1, q2) -> float:
    """Factor c with ||x - Dx||_{q1,q2} <= c * ||x||_p for one-column x.

    c = l^(1/q1-1/p)_+ * b^(1/q2-1/p)_+ * (r-1)^(1/p), using the
    partition's certified (r, l).  Conventions: (r-1)^(1/p) is 1 when
    p = inf and 0 when r = 1 with p finite.
    """
    p, q1, q2 = Exponent.of(p), Exponent.of(q1), Exponent.of(q2)
    return (
        float_pow(partition.l, recip_gap(q1, p))
        * float_pow(partition.shape.b, recip_gap(q2, p))
        * float_pow(partition.r - 1, p.recip)
    )


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
    cells, values = op._spread_columns(x.entries, nonzero_cols)
    residual = x.entries.copy()
    residual[cells] -= values
    lhs = mixed_norm(BlockMatrix._adopt(x.shape, residual), (q1, q2))
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


def _pipeline(x: BlockMatrix, params: PipelineParams, groups, work: dict | None) -> ApproxResult:
    """The pipeline over contiguous column groups (lo, hi, op) tiling the
    columns of x, each op over an s x (hi - lo) partition.

    Each group spreads the best (k-1)-term support of its slice of the
    block norms, with k = params.k for a group as wide as min(s, b) and
    _group_budget(width, alpha) for a narrower last one.  The certified
    bound and the tail error are the q2-norms of the per-group values, so
    one group reports its own exactly.
    """
    s, b = x.shape.s, x.shape.b
    for lo, hi, op in groups:
        if op.partition.shape != BlockShape(s, hi - lo):
            raise ValueError("partition shape does not match the input")
    y = block_norm_vector(x, params.p1)
    if lq_norm(y, params.p2) > 1 + 1e-9:
        raise ValueError("input lies outside the unit ball")

    tail_factor = float_pow(s, recip_gap(params.q1, params.p1))
    residual, approx_entries = _grid_arrays(x, work)
    selected, bounds, tails = [], [], []
    for lo, hi, op in groups:
        width = hi - lo
        k = params.k if width >= min(s, b) else _group_budget(width, params.alpha)
        y_group = y[lo:hi]
        kterm = best_k_term(y_group, min(max(k - 1, 0), width), params.q2)
        cells, values = op._spread_columns(x.entries[lo * s : hi * s], kterm.support)
        cells += lo * s
        approx_entries[cells] = values
        residual[cells] -= values
        coeff = spread_error_coefficient(op.partition, params.p1, params.q1, params.q2)
        spread_sum = float(sum(y_group[j] for j in kterm.support))
        bounds.append(kterm.error * tail_factor + coeff * spread_sum)
        tails.append(kterm.error)
        selected.extend(lo + j for j in kterm.support)

    # mixed_norm of the residual, with |residual| taken in place
    block_norms = _abs_row_norms(np.abs(residual, out=residual).reshape(b, s), params.q1)
    return ApproxResult(
        selected_columns=tuple(selected),
        approximant=BlockMatrix._adopt(x.shape, approx_entries),
        measured_error=lq_norm(block_norms, params.q2),
        certified_bound=lq_norm(bounds, params.q2),
        dim=sum(op.dim for _, _, op in groups),
        tail_error=lq_norm(tails, params.q2),
    )


def _grid_arrays(x: BlockMatrix, work: dict | None) -> tuple[np.ndarray, np.ndarray]:
    """The pipeline's residual and approximant arrays, set to x's entries
    and to zeros: new arrays without work, else the pair that work keeps
    for x's size, made on first use and overwritten on every later one."""
    n = x.shape.n
    if work is None:
        return x.entries.copy(), np.zeros(n)
    if n not in work:
        work[n] = np.empty((2, n))
    residual, approx_entries = work[n]
    np.copyto(residual, x.entries)
    approx_entries.fill(0.0)
    return residual, approx_entries


def approximate(
    x: BlockMatrix, params: PipelineParams, op: SpreadOperator, work: dict | None = None
) -> ApproxResult:
    """Spread the heaviest k-1 blocks of x through op's partition.

    x must lie in the (p1, p2) unit ball.  This is the column-group
    pipeline with one group of all b columns and budget params.k: the
    approximant is the spread of x restricted to the best (k-1)-term
    support of its block norms, an element of the group-constant
    subspace, and only the groups that meet those columns are touched.

    work, a dict that sampled_sup passes to every run of a stream, keeps
    the grid-sized arrays of one run for the next, so a stream of points
    allocates them once.  The approximant is then a view of those arrays
    and holds only until the next run with the same work.
    """
    return _pipeline(x, params, [(0, x.shape.b, op)], work)


def column_group_operators(s: int, b: int, d: int) -> dict[int, SpreadOperator]:
    """Spreading operator of every distinct column-group width of a wide
    s x b grid, keyed by width, each over that width's good partition.

    The grouped pipeline splits the b columns into contiguous groups of
    at most s, so at most two widths occur: s and the remainder.  Build
    this once and pass it to grouped_subspace_approximate for every point
    of the grid.
    """
    return {
        width: SpreadOperator(good_partition(s, width, d, field_order=PIPELINE_FIELD_ORDER))
        for width in sorted({min(s, b - lo) for lo in range(0, b, s)})
    }


def grouped_subspace_approximate(
    x: BlockMatrix,
    params: PipelineParams,
    ops: dict[int, SpreadOperator] | None = None,
    work: dict | None = None,
) -> ApproxResult:
    """Pipeline for wide grids (s < b): the column-group pipeline over
    ceil(b/s) contiguous groups of at most s columns, each with its own
    operator from ops (column_group_operators(s, b, params.d), built here
    when not given).  Every full group has budget params.k; a narrower
    last group takes _group_budget(width, alpha).  The certified bound
    aggregates the per-group bounds with the outer norm, which dominates
    the mixed norm of the residual.  work is approximate's.
    """
    s, b = x.shape.s, x.shape.b
    if s >= b:
        raise ValueError(f"s={s} >= b={b}: use approximate directly")
    if ops is None:
        ops = column_group_operators(s, b, params.d)
    groups = [(lo, min(lo + s, b), ops[min(s, b - lo)]) for lo in range(0, b, s)]
    return _pipeline(x, params, groups, work)


def pipeline_points(shape: BlockShape, p1, p2, seed: int, count: int) -> Iterator[BlockMatrix]:
    """The points sweep rows and witnesses sample, drawn one at a time: count
    points of the (p1, p2) ball from seed (sample_ball's), then for the
    (inf, 1) ball count extreme points from seed + 1 (extreme_points_inf1's).
    """
    p1, p2 = Exponent.of(p1), Exponent.of(p2)
    points = _ball_points(shape, p1, p2, seed, count)
    if p1.is_inf and p2 == Exponent.ONE:
        points = chain(points, _extreme_points_inf1(shape, seed + 1, count))
    return points


@dataclass(frozen=True)
class SampledSup:
    """What a sweep row or witness keeps of a stream of points: the suprema of
    the measured error and of the certified bound, the dimension of the
    first point's subspace and the number of points."""

    sup_error: float
    sup_bound: float
    dim: int
    count: int


def sampled_sup(
    points: Iterable[BlockMatrix], run: Callable[..., ApproxResult]
) -> SampledSup:
    """Run the pipeline on each point and keep only the running suprema,
    so memory does not grow with the number of points.  run is called as
    run(x, work=work) with one work dict for the whole stream, as
    approximate and grouped_subspace_approximate take it, so the points
    reuse one set of grid-sized arrays."""
    work: dict = {}
    count = 0
    for x in points:
        result = run(x, work=work)
        if count == 0:
            sup_error, sup_bound, dim = result.measured_error, result.certified_bound, result.dim
        else:
            sup_error = max(sup_error, result.measured_error)
            sup_bound = max(sup_bound, result.certified_bound)
        count += 1
        # drop this point and its approximant before the next one is drawn
        del x, result
    if count == 0:
        raise ValueError("no points to evaluate")
    return SampledSup(sup_error=sup_error, sup_bound=sup_bound, dim=dim, count=count)


def transposition_partition(s: int) -> Partition:
    """Square-grid partition pairing (i, j) with (j, i), diagonal cells as
    singletons: s*(s+1)/2 groups of size at most 2, and any two columns
    share exactly one group (their transposition pair)."""
    if s < 1:
        raise ValueError("s must be positive")
    i, j = np.triu_indices(s, 1)  # the pairs i < j, by i then j
    diagonal = np.arange(s)
    sizes = np.repeat([2, 1], [i.size, s])
    rows = np.concatenate([np.column_stack([i, j]).ravel(), diagonal])
    cols = np.concatenate([np.column_stack([j, i]).ravel(), diagonal])
    return Partition(BlockShape(s, s), CellGroups._of(sizes, rows, cols), r=2, l=1)
