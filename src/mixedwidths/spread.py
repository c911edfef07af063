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

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .norms import (
    BlockMatrix,
    BlockShape,
    Exponent,
    block_norm_vector,
    ceil_power,
    float_pow,
    lq_norm,
    mixed_norm,
    pos_part,
    recip_gap,
)
from .partitions import Partition, _flatten_groups, good_partition

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
    "transposition_partition",
]


class SpreadOperator:
    """Linear map sending each unit cell to the indicator of its group.

    Application is a single scatter-gather over a precomputed cell-to-group
    index, so repeated use on one partition is cheap.
    """

    def __init__(self, partition: Partition):
        self.partition = partition
        s, b, n = partition.shape.s, partition.shape.b, partition.shape.n
        sizes, i, j = _flatten_groups(partition)
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


def check_one_column_bound(
    partition: Partition, p, q1, q2, x: BlockMatrix, op: SpreadOperator | None = None
) -> OneColumnCheck:
    """Evaluate both sides of the one-column error bound on a concrete x."""
    per_block = np.abs(x.entries.reshape(x.shape.b, x.shape.s)).sum(axis=1)
    nonzero_cols = np.flatnonzero(per_block)
    if nonzero_cols.size > 1:
        raise ValueError(f"support spans columns {nonzero_cols.tolist()}; need one")
    op = op if op is not None else SpreadOperator(partition)
    residual = x - op.apply(x)
    lhs = mixed_norm(residual, (q1, q2))
    rhs = spread_error_coefficient(partition, p, q1, q2) * lq_norm(x.entries, p)
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


def choose_pipeline_params(p1, p2, q1, q2, s: int, b: int) -> PipelineParams:
    """Pipeline parameters for an exceptional tuple.

    d is the least integer >= 2 with (1/d)*(1/q1) <= alpha/2, the weakest
    choice that lets the block-size contribution r^(1/q1) be absorbed at
    the alpha/2 decay rate.  k = max(1, ceil(b^(alpha/4))), with the
    ceiling decided in exact integer arithmetic.
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
    k = max(1, ceil_power(b, alpha / 4))
    return PipelineParams(p1=p1, p2=p2, q1=q1, q2=q2, d=d, k=k, alpha=alpha)


@dataclass(frozen=True, eq=False)
class ApproxResult:
    """Outcome of one pipeline run.

    certified_bound is the triangle-inequality bound evaluated with the
    partition's actual (r, l): tail_error * s^(1/q1-1/p1)_+ plus the
    one-column coefficient times the kept block norms.  measured_error
    never exceeds it (up to float roundoff).
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


def approximate(
    x: BlockMatrix,
    params: PipelineParams,
    partition: Partition,
    op: SpreadOperator | None = None,
) -> ApproxResult:
    """Spread the heaviest k-1 blocks of x through the partition.

    x must lie in the (p1, p2) unit ball.  The selected columns are the
    best (k-1)-term support of the block norm vector; the approximant is
    the spread of x restricted to them, an element of the group-constant
    subspace.
    """
    if partition.shape != x.shape:
        raise ValueError("partition shape does not match the input")
    if mixed_norm(x, (params.p1, params.p2)) > 1 + 1e-9:
        raise ValueError("input lies outside the unit ball")
    op = op if op is not None else SpreadOperator(partition)

    y = block_norm_vector(x, params.p1)
    budget = min(max(params.k - 1, 0), x.shape.b)
    kterm = best_k_term(y, budget, params.q2)
    selected = kterm.support

    x_sel = x.columns_kept(selected)
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


def column_group_operators(s: int, b: int, d: int) -> dict[int, tuple[Partition, SpreadOperator]]:
    """Partition and spreading operator of every distinct column-group
    width of a wide s x b grid, keyed by width.

    The grouped pipeline splits the b columns into contiguous groups of
    at most s, so at most two widths occur: s and the remainder.  Build
    this once and pass it to grouped_subspace_approximate for every point
    of the grid.
    """
    ops = {}
    for width in sorted({min(s, b - lo) for lo in range(0, b, s)}):
        part = good_partition(s, width, d, field_order=PIPELINE_FIELD_ORDER)
        ops[width] = (part, SpreadOperator(part))
    return ops


def grouped_subspace_approximate(
    x: BlockMatrix,
    params: PipelineParams,
    ops: dict[int, tuple[Partition, SpreadOperator]] | None = None,
) -> ApproxResult:
    """Pipeline for wide grids (s < b): columns are split into ceil(b/s)
    contiguous groups of at most s columns, each approximated with its own
    partition and budget, and the per-group approximants concatenated.

    ops is column_group_operators(s, b, params.d); it is built here when
    not given.  The certified bound aggregates the per-group bounds with
    the outer norm, which dominates the mixed norm of the concatenated
    residual.
    """
    s, b = x.shape.s, x.shape.b
    if s >= b:
        raise ValueError(f"s={s} >= b={b}: use approximate directly")
    if mixed_norm(x, (params.p1, params.p2)) > 1 + 1e-9:
        raise ValueError("input lies outside the unit ball")
    if ops is None:
        ops = column_group_operators(s, b, params.d)

    approx_entries = np.zeros(x.shape.n)
    selected: list[int] = []
    dim = 0
    bounds = []
    tails = []
    n_groups = -(-b // s)
    for g in range(n_groups):
        lo, hi = g * s, min((g + 1) * s, b)
        width = hi - lo
        sub = BlockMatrix(BlockShape(s, width), x.entries[lo * s : hi * s])
        part, op = ops[width]
        sub_k = max(1, ceil_power(width, params.alpha / 4))
        result = approximate(sub, replace(params, k=sub_k), part, op=op)
        approx_entries[lo * s : hi * s] = result.approximant.entries
        selected.extend(lo + j for j in result.selected_columns)
        dim += result.dim
        bounds.append(result.certified_bound)
        tails.append(result.tail_error)

    approximant = BlockMatrix(x.shape, approx_entries)
    measured = mixed_norm(x - approximant, (params.q1, params.q2))
    certified = lq_norm(np.asarray(bounds), params.q2)
    tail = lq_norm(np.asarray(tails), params.q2)
    return ApproxResult(
        selected_columns=tuple(selected),
        approximant=approximant,
        measured_error=measured,
        certified_bound=certified,
        dim=dim,
        tail_error=tail,
    )


def transposition_partition(s: int) -> Partition:
    """Square-grid partition pairing (i, j) with (j, i), diagonal cells as
    singletons: s*(s+1)/2 groups of size at most 2, and any two columns
    share exactly one group (their transposition pair)."""
    if s < 1:
        raise ValueError("s must be positive")
    groups: list[tuple[tuple[int, int], ...]] = []
    for i in range(s):
        for j in range(i + 1, s):
            groups.append(((i, j), (j, i)))
    for i in range(s):
        groups.append(((i, i),))
    return Partition(BlockShape(s, s), tuple(groups), r=2, l=1)
