"""Mixed-norm arithmetic on block matrices, with exact exponent algebra.

A vector in R^N (N = s*b) is treated as an s x b matrix whose columns are
the blocks of the mixed norm: an inner norm over each column, an outer
norm over the b column norms.  Norm exponents are carried as exact
rational reciprocals, so quantities like (1/q - 1/p)_+ are computed
without floating-point cancellation; floats only enter in final powers.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "Exponent",
    "BlockShape",
    "BlockMatrix",
    "pos_part",
    "recip_gap",
    "float_pow",
    "ceil_power",
    "lq_norm",
    "mixed_norm",
    "block_norm_vector",
    "d0_mixed",
    "normalized",
    "sample_ball",
    "extreme_points_inf1",
]


@dataclass(frozen=True)
class Exponent:
    """A norm exponent p in [1, inf], stored as the exact reciprocal 1/p.

    recip = 0 encodes p = inf and recip = 1 encodes p = 1.  Instances
    compare and hash by the exact recip, so inf is the largest exponent.
    is_inf, float_value (float(p), math.inf for p = inf) and the hash are
    set once here, so the norm kernels do not divide Fractions on every
    call.
    """

    recip: Fraction
    is_inf: bool = field(init=False, repr=False, compare=False)
    float_value: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.recip, Fraction):
            object.__setattr__(self, "recip", Fraction(self.recip))
        # integer comparisons and one int division: a Fraction's
        # denominator is positive, and den / num is float(1 / recip)
        num, den = self.recip.numerator, self.recip.denominator
        if type(num) is not int or type(den) is not int:
            # a Fraction of numpy integers, which cannot be hashed
            num, den = int(num), int(den)
            object.__setattr__(self, "recip", Fraction(num, den))
        if not (0 <= num <= den):
            raise ValueError(f"reciprocal exponent {self.recip} outside [0, 1]")
        object.__setattr__(self, "is_inf", num == 0)
        object.__setattr__(self, "float_value", math.inf if num == 0 else den / num)
        object.__setattr__(self, "_hash", hash((self.recip,)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, value) -> "Exponent":
        """Build from p itself: int, Fraction, float('inf'), or a string
        such as "2", "3/2", "inf".

        Interned: inputs equal in type and value return one instance, as
        do all inputs of one exponent ("3/2" and Fraction(3, 2) alike)."""
        if isinstance(value, Exponent):
            return value
        try:
            return _interned(value)
        except TypeError:  # unhashable: parse it, remember nothing
            return _canonical(cls._parse(value))

    @classmethod
    def _parse(cls, value) -> "Exponent":
        if isinstance(value, str):
            text = value.strip().lower()
            if text in ("inf", "infinity", "oo"):
                return cls(Fraction(0))
            try:
                value = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"cannot parse exponent {text!r}") from exc
        if isinstance(value, float):
            if math.isinf(value):
                return cls(Fraction(0))
            value = Fraction(value)
        value = Fraction(value)
        if value < 1:
            raise ValueError(f"exponent {value} must be >= 1")
        return cls(1 / value)

    @property
    def value(self):
        """The exponent p as a Fraction, or math.inf."""
        return math.inf if self.is_inf else 1 / self.recip

    def __str__(self) -> str:
        return "inf" if self.is_inf else str(self.value)

    # ordering is by the exponent value, i.e. the reverse of the reciprocal
    def __lt__(self, other: "Exponent") -> bool:
        return self.recip > other.recip

    def __le__(self, other: "Exponent") -> bool:
        return self.recip >= other.recip

    def __gt__(self, other: "Exponent") -> bool:
        return self.recip < other.recip

    def __ge__(self, other: "Exponent") -> bool:
        return self.recip <= other.recip


# The one instance of each exponent Exponent.of returns, keyed by recip.
_CANONICAL: dict[Fraction, Exponent] = {}


def _canonical(exponent: Exponent) -> Exponent:
    return _CANONICAL.setdefault(exponent.recip, exponent)


# Exponent.of's memo, keyed by the type and value of its argument and
# bounded, so arbitrary float inputs cannot grow it without limit.
@lru_cache(maxsize=4096, typed=True)
def _interned(value) -> Exponent:
    return _canonical(Exponent._parse(value))


Exponent.ONE = _canonical(Exponent(Fraction(1)))
Exponent.TWO = _canonical(Exponent(Fraction(1, 2)))
Exponent.INF = _canonical(Exponent(Fraction(0)))


def pos_part(x: Fraction) -> Fraction:
    return x if x > 0 else Fraction(0)


def recip_gap(q: Exponent, p: Exponent) -> Fraction:
    """(1/q - 1/p)_+ as an exact rational."""
    return pos_part(q.recip - p.recip)


def float_pow(base, exponent: Fraction) -> float:
    """base**exponent with the conventions 0**0 = 1 and 0**positive = 0."""
    if exponent == 0:
        return 1.0
    base = float(base)
    if base == 0.0:
        return 0.0
    return base ** float(exponent)


def ceil_power(n: int, exponent: Fraction) -> int:
    """Least integer k with k >= n**exponent, decided in integer arithmetic.

    Plain float powers round values like 256**(1/8) to just above 2.0,
    which would push a ceiling to 3; here k is verified exactly via
    k**den >= n**num.
    """
    if n < 1:
        raise ValueError("base must be a positive integer")
    if exponent <= 0:
        return 1
    num, den = exponent.numerator, exponent.denominator
    target = n**num
    k = max(1, int(round(float(n) ** float(exponent))))
    while k**den < target:
        k += 1
    while k > 1 and (k - 1) ** den >= target:
        k -= 1
    return k


def _json_ints(values: list, what: str) -> list[int]:
    """The sizes, indices or counts a JSON file or a constructor gives, as
    ints: values itself when each one is an int, else each integer (numpy's
    too) and integral float as its int.  A bool, a number with a fractional
    part, inf, nan or anything else is a ValueError, "<what> <value> is not
    an integer", so a malformed input fails as it is loaded, not later as a
    silently truncated index."""
    if set(map(type, values)) <= {int}:
        return values
    for v in values:
        integral = isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())
        if not integral or isinstance(v, bool):
            raise ValueError(f"{what} {v!r} is not an integer")
    return [int(v) for v in values]


def _check_non_negative(**fields) -> None:
    """A certified bound or count below 0, such as a partition's r, is a
    ValueError naming its field, raised when the object is built."""
    for name, value in fields.items():
        if value < 0:
            raise ValueError(f"{name}={value} must be non-negative")


@dataclass(frozen=True)
class BlockShape:
    """Grid of b blocks (columns), each of size s (rows); n = s*b."""

    s: int
    b: int

    def __post_init__(self):
        if self.s < 1 or self.b < 1:
            raise ValueError(f"block shape {self.s}x{self.b} must be positive")

    @property
    def n(self) -> int:
        return self.s * self.b


@dataclass(frozen=True, eq=False)
class BlockMatrix:
    """Dense s x b matrix stored flat with each column block contiguous.

    entries[j*s + i] is coordinate i of block j, so entry (i, j) of the
    matrix view.
    """

    shape: BlockShape
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", np.array(self.entries, dtype=float))
        self._seal()

    @classmethod
    def _adopt(cls, shape: BlockShape, entries: np.ndarray) -> "BlockMatrix":
        """A BlockMatrix over the float array entries itself, not a copy:
        for an array the caller has just built and hands over.  The shape
        and finiteness checks still run, and entries become read-only."""
        x = cls.__new__(cls)
        object.__setattr__(x, "shape", shape)
        object.__setattr__(x, "entries", entries)
        x._seal()
        return x

    def _seal(self) -> None:
        arr = self.entries
        if arr.ndim != 1 or arr.size != self.shape.n:
            raise ValueError(
                f"expected {self.shape.n} entries, got array of shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("entries must be finite")
        arr.setflags(write=False)

    @classmethod
    def zeros(cls, shape: BlockShape) -> "BlockMatrix":
        return cls(shape, np.zeros(shape.n))

    @classmethod
    def from_matrix(cls, arr) -> "BlockMatrix":
        """Build from an s x b array with columns as blocks."""
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array")
        s, b = arr.shape
        return cls(BlockShape(s, b), arr.T.reshape(-1))

    @classmethod
    def one_column(cls, shape: BlockShape, j: int, values) -> "BlockMatrix":
        """Matrix supported in column j with the given block values."""
        values = np.asarray(values, dtype=float)
        if values.shape != (shape.s,):
            raise ValueError(f"column values must have length {shape.s}")
        if not 0 <= j < shape.b:
            raise ValueError(f"column {j} outside [0, {shape.b})")
        flat = np.zeros(shape.n)
        flat[j * shape.s : (j + 1) * shape.s] = values
        return cls._adopt(shape, flat)

    def block(self, j: int) -> np.ndarray:
        return self.entries[j * self.shape.s : (j + 1) * self.shape.s]

    def as_matrix(self) -> np.ndarray:
        return self.entries.reshape(self.shape.b, self.shape.s).T

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return BlockMatrix(self.shape, self.entries - other.entries)

    def to_json_dict(self) -> dict:
        return {
            "s": self.shape.s,
            "b": self.shape.b,
            "entries": [float(v) for v in self.entries],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BlockMatrix":
        s, b = _json_ints([data["s"], data["b"]], "block size")
        return cls(BlockShape(s, b), np.asarray(data["entries"], dtype=float))


def lq_norm(v, q: Exponent) -> float:
    """(sum |v_k|^q)^(1/q); max |v_k| for q = inf; 0 for the zero vector."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("vector must be finite")
    if v.size == 0:
        return 0.0
    return _vector_norm(v.reshape(-1), Exponent.of(q))


def block_norm_vector(x: BlockMatrix, q1: Exponent) -> np.ndarray:
    """Vector of per-block inner norms, length b."""
    return _row_norms(x.entries.reshape(x.shape.b, x.shape.s), Exponent.of(q1))


_LEAST_POSITIVE = float(np.finfo(float).smallest_subnormal)

# Largest |x| temporary _row_norms makes: a quarter of a chunk of points.
_SLAB_CELLS = 2**14


def _row_norms(rows: np.ndarray, p: Exponent) -> np.ndarray:
    """The l_p norm of every row of a 2-d array: the one kernel behind
    lq_norm, block_norm_vector, sample_ball and the pipeline, so all agree
    bit for bit.  |rows| is taken _SLAB_CELLS cells at a time, so a chunk
    of points needs no |x| array of its own size."""
    if rows.shape[0] == 1:
        return np.array([_vector_norm(rows[0], p)])
    if p.is_inf:
        # max |x| without an |x| array; + 0.0 turns a -0.0 maximum into 0.0
        return np.maximum(rows.max(axis=1), -rows.min(axis=1)) + 0.0
    step = max(1, _SLAB_CELLS // rows.shape[1])
    if rows.shape[0] <= step:
        return _abs_row_norms(np.abs(rows), p)
    slabs = (rows[lo : lo + step] for lo in range(0, rows.shape[0], step))
    return np.concatenate([_abs_row_norms(np.abs(slab), p) for slab in slabs])


def _abs_row_norms(a: np.ndarray, p: Exponent) -> np.ndarray:
    """_row_norms for rows whose absolute values a already holds; a is
    overwritten, so no grid-sized temporary is made.  The max of |x| is
    max(max x, -min x) + 0.0 bit for bit, so p = inf reads a.max."""
    if p.is_inf:
        return a.max(axis=1)
    pf = p.float_value
    if pf == 1.0:
        return a.sum(axis=1)
    # Scale by the row max so large exponents cannot overflow.  An all-zero
    # row's max becomes the least positive float, which leaves the row 0.
    m = np.maximum(a.max(axis=1, keepdims=True), _LEAST_POSITIVE)
    a /= m
    a **= pf
    # The root stays a Python float power per row: numpy's vectorised **
    # differs from it in the last ulp on some rows.
    root = 1.0 / pf
    return m[:, 0] * np.array([t**root for t in a.sum(axis=1).tolist()])


def _vector_norm(v: np.ndarray, p: Exponent) -> float:
    """_row_norms of the one row v (1-d, finite, nonempty) as a float, in
    fewer numpy calls; bit-identical to it.  One entry's norm is its
    absolute value for every p: the scaled entry is 1 (or 0), and so are
    its power and root."""
    if v.size == 1:
        return abs(float(v[0]))
    if p.is_inf:
        return float(max(v.max(), -v.min())) + 0.0
    a = np.abs(v)
    pf = p.float_value
    if pf == 1.0:
        return float(a.sum())
    m = float(a.max()) or _LEAST_POSITIVE
    a /= m
    a **= pf
    return m * float(a.sum()) ** (1.0 / pf)


def mixed_norm(x: BlockMatrix, params) -> float:
    """Outer norm of the vector of inner block norms; params is the pair
    (q1, q2) of inner and outer exponents."""
    q1, q2 = (Exponent.of(e) for e in params)
    return lq_norm(block_norm_vector(x, q1), q2)


def d0_mixed(shape: BlockShape, p1, p2, q1, q2) -> float:
    """Largest target norm over the unit ball: s^(1/q1-1/p1)_+ * b^(1/q2-1/p2)_+.

    Exponents are exact rationals; each factor is a single float power.
    """
    p1, p2, q1, q2 = (Exponent.of(e) for e in (p1, p2, q1, q2))
    return float_pow(shape.s, recip_gap(q1, p1)) * float_pow(shape.b, recip_gap(q2, p2))


def normalized(x: BlockMatrix, p1, p2) -> BlockMatrix:
    """Scale x to unit mixed norm; the zero matrix is rejected."""
    norm = mixed_norm(x, (p1, p2))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero matrix")
    return BlockMatrix(x.shape, x.entries / norm)


def _symmetric_power_sample(rng: np.random.Generator, p: Exponent, size, out=None) -> np.ndarray:
    """I.i.d. draws whose density is proportional to exp(-|t/c|^p) for
    some scale c > 0, one pass per coordinate:

    - p = inf: uniform on [-1, 1] (the limit of exp(-|t|^p));
    - p = 2: standard normal, exp(-t^2/2), which is c = sqrt(2);
    - other p: V * G^(1/p), with V uniform on [-1, 1] and G a
      Gamma(1 + 1/p) variate, so |V| * G^(1/p) has density
      exp(-x^p) / Gamma(1 + 1/p) on x >= 0 (c = 1).

    The density is right up to scale only; the ball draws divide by the
    l_p norm, which removes the scale.  A vector of such draws divided by
    its l_p norm is uniform on the l_p sphere.  The draws go into out, a
    C-contiguous float array of the given size, when it is given: the
    same numbers as into a new array.
    """
    out = np.empty(size) if out is None else out
    if p.is_inf:
        return _signed_uniform(rng, out)
    if p == Exponent.TWO:
        return rng.standard_normal(out=out)
    # A Gamma shape >= 1 takes numpy's Marsaglia-Tsang path, which accepts
    # nearly every try; Gamma(1/p) with 1/p < 1 took a slower rejection
    # loop.  The power and the product are taken in place.
    _signed_uniform(rng, out)
    mag = rng.standard_gamma(1.0 + 1.0 / p.float_value, out.shape)
    mag **= 1.0 / p.float_value
    out *= mag
    return out


def _signed_uniform(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """rng.uniform(-1.0, 1.0, out.shape) bit for bit, drawn faster into out:
    uniform computes -1 + 2u from the same doubles u, and u * 2 - 1 rounds
    the same."""
    rng.random(out=out)
    out *= 2.0
    out -= 1.0
    return out


# Cells of a stream's one array: the largest chunk of points drawn, or run
# through the pipeline, together, one 256 x 256 grid.  A larger grid is a
# chunk of one point.  A screened stream draws its chunks into the array's
# two halves in turn, on a worker thread of its own (_Drawn), with a second
# row where one grid fills the array.
_CHUNK_CELLS = 2**16


def _chunk_points(shape: BlockShape) -> int:
    """Points in each chunk of a stream over shape: as many as fit in
    _CHUNK_CELLS cells, and at least one."""
    return max(1, _CHUNK_CELLS // shape.n)


def sample_ball(shape: BlockShape, p1, p2, seed: int, count: int) -> list[BlockMatrix]:
    """Deterministic points of the unit ball of the (p1, p2) mixed norm.

    Each block is a vector of i.i.d. draws from exp(-|t|^p1), up to
    scale, divided by its p1-norm (uniform, normal or uniform times a
    Gamma(1 + 1/p1) power, see _symmetric_power_sample); the block
    weights are absolute p2 draws divided by their p2-norm.  Every second
    sample (even indices) sits on the unit sphere; the rest are scaled
    into the interior.  Membership, not exact uniformity, is the contract.
    """
    chunks = _draw_chunks(shape, count, _ball_draw(shape, p1, p2, seed))
    return [BlockMatrix(shape, row) for chunk in chunks for row in chunk]


def _ball_draw(shape: BlockShape, p1, p2, seed: int):
    """sample_ball's stream as a draw of _draw_chunks; the exponents and
    the seed are checked here, before the first point is drawn."""
    p1, p2 = Exponent.of(p1), Exponent.of(p2)
    return partial(_draw_ball_chunk, np.random.default_rng(seed), shape, p1, p2)


def _draw_chunks(shape: BlockShape, count: int, draw) -> Iterator[np.ndarray]:
    """count points of one stream in chunks: (k, n) arrays of k successive
    points, k = _chunk_points(shape) but in the last chunk, each filled by
    draw(chunk, index of its first point).  Every chunk is the first k
    rows of the stream's one array (_stream_chunks).  count below 1 is a
    ValueError, raised here, before any point is drawn."""
    chunks = _stream_chunks(shape, count)

    def drawn():
        for first, chunk in chunks:
            draw(chunk, first)
            yield chunk

    return drawn()


def _stream_chunks(shape: BlockShape, count: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first, chunk) for the count points of one stream: chunk the first
    k rows, k = _chunk_points(shape) but in the last chunk, of the
    stream's one array of _chunk_points(shape) rows, for the points first,
    first + 1, ...  So a chunk holds only until the next one is filled,
    and the array is freed once the stream and its last chunk are
    dropped.  A screened stream takes an array of the same rows (a second
    one where a chunk is one point and count > 1) in two halves, one drawn
    ahead on its worker while the other is read (_Drawn).  count below 1
    is a ValueError, raised here."""
    if count < 1:
        raise ValueError("count must be >= 1")
    per = _chunk_points(shape)
    rows = np.empty((per, shape.n))
    return ((first, rows[: min(per, count - first)]) for first in range(0, count, per))


class _Drawn:
    """One stream of count points over shape, drawn ahead of its reader on
    a worker thread and read as an iterator of (first, chunk,
    draw(chunk, first)), in chunks of per = max(1, K // 2) points,
    K = _chunk_points(shape).

    At its first chunk the stream takes an array of K rows (a second row
    where K is 1 and count > 1), starts its worker, a single-worker
    executor, and asks it for chunks 0 and 1, in the array's two halves.
    Each time it hands out chunk c > 0 it asks for chunk c + 1, into the
    half of chunk c - 1, which the reader has let go: the worker is never
    more than two chunks ahead, and a chunk holds until the next one is
    asked for.  draw is called in the stream's order, on the worker alone:
    the caller must not use what draw reads, such as its generator, until
    the stream has ended or is closed.  An exception from draw is raised
    to the reader at its chunk, and the stream is closed.  close, also
    called at the stream's end, cancels the chunks not yet begun, waits for
    the one being drawn, joins the worker and lets go of the array and
    draw; a stream closed before its first chunk starts no thread.  count
    below 1 is a ValueError, raised here."""

    def __init__(self, shape: BlockShape, count: int, draw):
        if count < 1:
            raise ValueError("count must be >= 1")
        self._shape, self._count, self._draw = shape, count, draw
        self._per = max(1, _chunk_points(shape) // 2)
        self._chunks = -(-count // self._per)
        self._array = self._executor = None  # made at the first chunk
        self._ahead: deque = deque()  # the futures of the chunks asked for, not handed out
        self._read, self._closed = 0, False

    def _start(self) -> None:
        from concurrent.futures import ThreadPoolExecutor  # not at package import

        self._array = np.empty((max(_chunk_points(self._shape), min(self._count, 2)), self._shape.n))
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ball-draw")
        self._ask(0)

    def _ask(self, c: int) -> None:
        if c < self._chunks:
            self._ahead.append(self._executor.submit(self._fill, c))

    def _fill(self, c: int) -> tuple[int, np.ndarray, object]:
        """Draw chunk c into its half, on the worker."""
        first, lo = c * self._per, self._per * (c % 2)
        chunk = self._array[lo : lo + min(self._per, self._count - first)]
        return first, chunk, self._draw(chunk, first)

    def __iter__(self) -> "_Drawn":
        return self

    def __next__(self) -> tuple[int, np.ndarray, object]:
        c = self._read
        if self._closed or c == self._chunks:
            self.close()
            raise StopIteration
        try:
            if c == 0:
                self._start()
            self._ask(c + 1)  # into the other half, let go with chunk c - 1
            drawn = self._ahead.popleft().result()
        except BaseException:
            self.close()
            raise
        self._read = c + 1
        return drawn

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for future in [future for future in self._ahead if not future.cancel()]:
            future.exception()  # waits for the chunk being drawn
        if self._executor is not None:
            self._executor.shutdown()
        self._ahead.clear()
        self._array = self._executor = self._draw = None


def _draw_ball_chunk(
    rng: np.random.Generator, shape: BlockShape, p1: Exponent, p2: Exponent, chunk: np.ndarray, first: int
) -> None:
    """Draw the points first, first + 1, ... of a ball stream into the rows
    of chunk: the raw draw (_draw_ball_raw), then every point normalised
    at once, each block by its p1-norm and each point's weights by their
    p2-norm, as one point would be on its own."""
    k, (b, s) = chunk.shape[0], (shape.b, shape.s)
    weights = np.empty((k, b))
    scales = _draw_ball_raw(rng, shape, p1, p2, chunk, weights, first)
    blocks = chunk.reshape(k * b, s)
    inner = _row_norms(blocks, p1)
    for i in np.flatnonzero(~(inner > 0).reshape(k, b).all(axis=1)):  # probability zero
        rows = blocks[i * b : (i + 1) * b]
        rows += 1e-9
        inner[i * b : (i + 1) * b] = _row_norms(rows, p1)
    blocks /= inner[:, None]
    _ball_weights(weights, p2)
    blocks *= weights.reshape(-1, 1)
    if scales:
        chunk[(first + 1) % 2 :: 2] *= np.array(scales)[:, None]


def _draw_ball_raw(
    rng: np.random.Generator, shape: BlockShape, p1: Exponent, p2: Exponent, chunk: np.ndarray | None,
    weights: np.ndarray, first: int, states: list | None = None,
) -> list[float]:
    """The raw draw of the points first, first + 1, ... of a ball stream,
    the one definition of the stream: each point in turn draws its blocks
    into its row of chunk, its block weights into its row of weights and,
    at odd indices, the uniform that scales it into the interior, whose
    scale factors are returned in order.  With a list states, the
    generator's state before each point's draw is appended to it: setting
    rng.bit_generator.state to it and calling _draw_ball_chunk on a
    (1, n) chunk with first the point's index draws that point alone, bit
    for bit.

    With chunk None the blocks are skipped, not drawn, for p1 = inf only:
    they are s*b doubles of rng.random, each one 64-bit output of the
    PCG64 bit generator, so advancing it by s*b leaves it where the draw
    would and the weights and scales are the same bits."""
    k, (b, s) = weights.shape[0], (shape.b, shape.s)
    if chunk is None and not p1.is_inf:
        raise ValueError("only the blocks of a p1 = inf stream can be skipped")
    blocks = None if chunk is None else chunk.reshape(k * b, s)
    scales = []
    for i in range(k):
        if states is not None:
            states.append(rng.bit_generator.state)
        if blocks is None:
            rng.bit_generator.advance(b * s)
        else:
            _symmetric_power_sample(rng, p1, (b, s), out=blocks[i * b : (i + 1) * b])
        _symmetric_power_sample(rng, p2, b, out=weights[i])
        if (first + i) % 2 == 1:
            scales.append(float(rng.uniform()) ** (1.0 / shape.n))
    return scales


def _ball_weights(weights: np.ndarray, p2: Exponent) -> tuple[np.ndarray, np.ndarray]:
    """Normalise raw block weights in place, each row to |w| / ||w||_p2,
    and return the mask of the rows that were all zero, and the norms
    divided by: the zero rows are set to all ones first (the zero-norm
    guard), so every norm is positive."""
    np.abs(weights, out=weights)
    wnorm = _row_norms(weights, p2)
    zero = wnorm == 0.0
    if zero.any():  # probability zero
        weights[zero] = 1.0
        wnorm[zero] = _row_norms(weights[zero], p2)
    weights /= wnorm[:, None]
    return zero, wnorm


def extreme_points_inf1(shape: BlockShape, seed: int, count: int) -> list[BlockMatrix]:
    """Extreme points of the (inf, 1) unit ball: one column of +-1 entries."""
    chunks = _draw_chunks(shape, count, _extreme_draw(shape, seed))
    return [BlockMatrix(shape, row) for chunk in chunks for row in chunk]


def _extreme_draw(shape: BlockShape, seed: int):
    """extreme_points_inf1's stream as a draw of _draw_chunks; the seed is
    checked here, before the first point is drawn."""
    rng = np.random.default_rng(seed)
    return lambda chunk, first: _draw_extreme_chunk(rng, shape, chunk)


def _extreme_columns(
    rng: np.random.Generator, shape: BlockShape, count: int
) -> Iterator[tuple[int, np.ndarray]]:
    """The next count extreme points of rng's stream, each as its column j
    and its s sign bits (0 for -1, 1 for +1), the column drawn first: the
    one definition of the draw, which the pipeline also reads without
    writing a grid."""
    for _ in range(count):
        j = int(rng.integers(0, shape.b))
        yield j, rng.integers(0, 2, size=shape.s)


def _draw_extreme_chunk(rng: np.random.Generator, shape: BlockShape, chunk: np.ndarray) -> None:
    """Each row of chunk: zero but one column of random signs."""
    s = shape.s
    chunk.fill(0.0)
    for row, (j, bits) in zip(chunk, _extreme_columns(rng, shape, len(chunk))):
        row[j * s : (j + 1) * s] = bits * 2 - 1
