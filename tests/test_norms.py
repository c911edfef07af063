import copy
import hashlib
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixedwidths import (
    BlockMatrix,
    BlockShape,
    Exponent,
    block_norm_vector,
    ceil_power,
    d0_mixed,
    extreme_points_inf1,
    float_pow,
    lq_norm,
    mixed_norm,
    normalized,
    recip_gap,
    sample_ball,
)
from mixedwidths.norms import _row_norms, _symmetric_power_sample


def _oracle_symmetric_power_sample(rng, p, size):
    """A reference draw from exp(-|t|^p): a fair sign times a Gamma(1/p)
    variate to the power 1/p (uniform on [0, 1) for p = inf)."""
    negative = rng.integers(0, 2, size=size) == 0
    if p.is_inf:
        mag = rng.random(size)
    else:
        mag = rng.standard_gamma(1.0 / p.float_value, size) ** (1.0 / p.float_value)
    return np.where(negative, -mag, mag)


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between
    the empirical distribution functions of a and b."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    gap = np.searchsorted(a, grid, side="right") / a.size - np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(gap).max())


def _per_row_sample_ball(shape, p1, p2, seed, count):
    """Reference sampler that normalises each block with its own lq_norm call."""
    p1, p2 = Exponent.of(p1), Exponent.of(p2)
    rng = np.random.default_rng(seed)
    out = []
    for idx in range(count):
        blocks = _symmetric_power_sample(rng, p1, (shape.b, shape.s))
        blocks = blocks / np.array([lq_norm(row, p1) for row in blocks])[:, None]
        weights = np.abs(_symmetric_power_sample(rng, p2, shape.b))
        weights = weights / lq_norm(weights, p2)
        flat = (blocks * weights[:, None]).reshape(-1)
        if idx % 2 == 1:
            flat = flat * float(rng.uniform()) ** (1.0 / shape.n)
        out.append(flat)
    return out


class TestExponent:
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 100])
    def test_integer_round_trip(self, p):
        assert Exponent.of(p).value == Fraction(p)

    def test_inf_round_trip(self):
        e = Exponent.of(math.inf)
        assert e.is_inf and e.recip == 0 and e.value == math.inf

    @pytest.mark.parametrize("text,recip", [("inf", 0), ("2", Fraction(1, 2)), ("3/2", Fraction(2, 3))])
    def test_parse(self, text, recip):
        assert Exponent.of(text).recip == Fraction(recip)

    @pytest.mark.parametrize("bad", ["0", "1/2", "bogus", "-3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Exponent.of(bad)

    def test_ordering_matches_values(self):
        chain = [Exponent.of(v) for v in (1, "4/3", 2, 3, "inf")]
        for a, b in zip(chain, chain[1:]):
            assert a < b and b > a and a <= b and not b <= a
        assert Exponent.of(2) == Exponent.TWO

    def test_of_interns_equal_exponents(self):
        assert Exponent.of("3/2") is Exponent.of(Fraction(3, 2)) is Exponent.of(1.5)
        assert Exponent.of(" 3/2 ") is Exponent.of("3/2")
        assert Exponent.of(2) is Exponent.of("2") is Exponent.of(2.0) is Exponent.TWO
        assert Exponent.of(1) is Exponent.of(True) is Exponent.ONE
        assert Exponent.of("inf") is Exponent.of(math.inf) is Exponent.of("oo") is Exponent.INF
        assert Exponent.of(np.int64(3)) is Exponent.of(3)
        # built directly, an exponent is its own instance, yet equal with one hash
        twin = Exponent(Fraction(2, 3))
        assert twin is not Exponent.of("3/2")
        assert twin == Exponent.of("3/2") and hash(twin) == hash(Exponent.of("3/2"))

    @pytest.mark.parametrize("bad", ["0", "1/2", "bogus", "-3", "1/0", 0.5, 0, Fraction(-7, 2), math.nan])
    def test_bad_inputs_raise_every_time(self, bad):
        # failures are not remembered: the second call raises as the first
        for _ in range(2):
            with pytest.raises(ValueError):
                Exponent.of(bad)

    def test_unhashable_input_raises_type_error(self):
        for _ in range(2):
            with pytest.raises(TypeError):
                Exponent.of([2])

    def test_recip_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            Exponent(Fraction(3, 2))

    @given(st.one_of(st.just("inf"), st.fractions(min_value=1, max_value=10**6, max_denominator=10**6)))
    def test_str_round_trip_and_cached_floats(self, value):
        e = Exponent.of(value)
        back = Exponent.of(str(e))
        assert back == e and hash(back) == hash(e) and str(back) == str(e)
        assert e.is_inf == (e.recip == 0)
        assert e.float_value == (math.inf if e.is_inf else float(e.value))
        for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin == e and (twin.is_inf, twin.float_value) == (e.is_inf, e.float_value)

    def test_equality_stays_exact(self):
        # p and p' round to one float, yet the exponents differ
        a, b = Exponent.of(Fraction(10**17)), Exponent.of(Fraction(10**17 + 1))
        assert a.float_value == b.float_value
        assert a != b and a < b and len({a, b}) == 2
        assert repr(Exponent.TWO) == "Exponent(recip=Fraction(1, 2))"


class TestLqNorm:
    def test_single_nonzero_entry_any_q(self):
        for q in (1, 2, "7/2", "inf"):
            assert lq_norm([3, 0, 0, 0], Exponent.of(q)) == 3.0

    def test_four_ones_q2(self):
        assert lq_norm([1, 1, 1, 1], Exponent.of(2)) == pytest.approx(2.0, abs=1e-12)

    def test_pythagorean(self):
        assert lq_norm([3, 4], Exponent.of(2)) == pytest.approx(5.0, abs=1e-12)

    def test_zero_vector(self):
        assert lq_norm(np.zeros(5), Exponent.ONE) == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            lq_norm([1.0, math.nan], Exponent.ONE)
        with pytest.raises(ValueError):
            lq_norm([1.0, math.inf], Exponent.TWO)

    def test_nesting_non_increasing_in_q(self):
        rng = np.random.default_rng(11)
        qs = [Exponent.of(v) for v in (1, "3/2", 2, 4, "inf")]
        for _ in range(1000):
            v = rng.standard_normal(rng.integers(1, 12))
            norms = [lq_norm(v, q) for q in qs]
            for a, b in zip(norms, norms[1:]):
                assert b <= a * (1 + 1e-12)


class TestMixedNorm:
    def test_all_ones_flat(self):
        x = BlockMatrix(BlockShape(3, 5), np.ones(15))
        assert mixed_norm(x, (2, 2)) == pytest.approx(math.sqrt(15), abs=1e-12)

    def test_one_column_and_transpose(self):
        sh = BlockShape(4, 4)
        x = BlockMatrix.one_column(sh, 2, [1, -1, -1, 1])
        assert mixed_norm(x, (1, 2)) == pytest.approx(4.0, abs=1e-12)
        xt = BlockMatrix.from_matrix(x.as_matrix().T)
        assert mixed_norm(xt, (1, 2)) == pytest.approx(2.0, abs=1e-12)

    def test_flat_consistency(self):
        rng = np.random.default_rng(5)
        for q in (1, 2, "inf"):
            for _ in range(50):
                x = BlockMatrix(BlockShape(3, 4), rng.standard_normal(12))
                assert mixed_norm(x, (q, q)) == pytest.approx(
                    lq_norm(x.entries, Exponent.of(q)), abs=1e-12, rel=1e-12
                )

    def test_homogeneity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = BlockMatrix(BlockShape(4, 3), rng.standard_normal(12))
            c = float(rng.standard_normal())
            got = mixed_norm(BlockMatrix(x.shape, c * x.entries), (2, 1))
            want = abs(c) * mixed_norm(x, (2, 1))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        pairs = [(q1, q2) for q1 in (1, 2, "inf") for q2 in (1, 2, "inf")]
        for trial in range(1000):
            q1, q2 = pairs[trial % len(pairs)]
            x = BlockMatrix(BlockShape(3, 3), rng.standard_normal(9))
            y = BlockMatrix(BlockShape(3, 3), rng.standard_normal(9))
            assert mixed_norm(BlockMatrix(x.shape, x.entries + y.entries), (q1, q2)) <= (
                mixed_norm(x, (q1, q2)) + mixed_norm(y, (q1, q2)) + 1e-9
            )


class TestBlockNormVector:
    def test_zero(self):
        x = BlockMatrix.zeros(BlockShape(3, 4))
        assert np.all(block_norm_vector(x, Exponent.ONE) == 0)

    def test_by_columns(self):
        x = BlockMatrix.from_matrix([[1, 0], [1, 3]])
        assert np.allclose(block_norm_vector(x, Exponent.ONE), [2, 3])
        assert np.allclose(block_norm_vector(x, Exponent.INF), [1, 3])

    @pytest.mark.parametrize("p", [1, "3/2", 2, 3, 4, "inf"])
    @pytest.mark.parametrize("source", ["ball", "zero_columns"])
    def test_bit_identical_to_per_block_lq_norm(self, p, source):
        if source == "ball":
            points = [
                x for seed in range(5) for x in sample_ball(BlockShape(7, 150), p, 2, seed=seed, count=2)
            ]
        else:
            rng = np.random.default_rng(11)
            mat = rng.standard_normal((9, 40)) * 10.0 ** rng.integers(-3, 4, size=40)
            mat[:, rng.choice(40, size=15, replace=False)] = 0.0
            points = [BlockMatrix.from_matrix(mat), BlockMatrix.zeros(BlockShape(9, 40))]
        for x in points:
            per_block = np.array([lq_norm(x.block(j), p) for j in range(x.shape.b)])
            assert np.array_equal(block_norm_vector(x, p), per_block)
            for q2 in (1, "3/2", 2, "inf"):
                assert mixed_norm(x, (p, q2)) == lq_norm(per_block, q2)


class TestD0:
    def test_square_inf1_to_12(self):
        assert d0_mixed(BlockShape(4, 4), "inf", 1, 1, 2) == pytest.approx(4.0, abs=1e-12)

    def test_matching_exponents_exactly_one(self):
        for p in (1, "3/2", 2, "inf"):
            assert d0_mixed(BlockShape(9, 5), p, p, p, p) == 1.0

    def test_one_inf_to_21(self):
        assert d0_mixed(BlockShape(9, 5), 1, "inf", 2, 1) == pytest.approx(5.0, abs=1e-12)


class TestHelpers:
    def test_recip_gap(self):
        assert recip_gap(Exponent.ONE, Exponent.INF) == 1
        assert recip_gap(Exponent.INF, Exponent.ONE) == 0
        assert recip_gap(Exponent.ONE, Exponent.TWO) == Fraction(1, 2)

    def test_float_pow_conventions(self):
        assert float_pow(0, Fraction(0)) == 1.0
        assert float_pow(0, Fraction(1, 2)) == 0.0
        assert float_pow(4, Fraction(1, 2)) == 2.0

    def test_ceil_power_exact_boundary(self):
        # 256^(1/8) is exactly 2; float powers land just above it
        assert ceil_power(256, Fraction(1, 8)) == 2
        assert ceil_power(255, Fraction(1, 8)) == 2
        assert ceil_power(257, Fraction(1, 8)) == 3
        assert ceil_power(1, Fraction(3, 4)) == 1


class TestBlockMatrix:
    def test_layout_block_contiguous(self):
        x = BlockMatrix.from_matrix([[1, 2], [3, 4]])
        assert list(x.block(0)) == [1, 3]
        assert list(x.block(1)) == [2, 4]
        assert np.array_equal(x.as_matrix(), [[1, 2], [3, 4]])

    def test_json_round_trip(self):
        x = BlockMatrix.from_matrix([[1.5, 0], [0, -2]])
        y = BlockMatrix.from_json_dict(x.to_json_dict())
        assert y.shape == x.shape and np.array_equal(y.entries, x.entries)

    def test_length_and_finiteness_validated(self):
        with pytest.raises(ValueError):
            BlockMatrix(BlockShape(2, 2), np.ones(3))
        with pytest.raises(ValueError):
            BlockMatrix(BlockShape(2, 2), np.array([1.0, 2.0, 3.0, math.inf]))


class TestSampleBall:
    def test_membership(self):
        for p1, p2 in [("inf", 1), (2, 2), ("3/2", 4), (1, "inf")]:
            for x in sample_ball(BlockShape(3, 5), p1, p2, seed=1, count=6):
                assert mixed_norm(x, (p1, p2)) <= 1 + 1e-12

    def test_deterministic(self):
        a = sample_ball(BlockShape(4, 4), 2, 1, seed=9, count=5)
        b = sample_ball(BlockShape(4, 4), 2, 1, seed=9, count=5)
        for xa, xb in zip(a, b):
            assert np.array_equal(xa.entries, xb.entries)

    def test_boundary_points_present(self):
        points = sample_ball(BlockShape(3, 3), 2, 2, seed=2, count=4)
        assert mixed_norm(points[0], (2, 2)) == pytest.approx(1.0, abs=1e-12)
        assert mixed_norm(points[2], (2, 2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p1", [1, "3/2", 2, 3, "inf"])
    @pytest.mark.parametrize("p2", [1, 2])
    @pytest.mark.parametrize("shape", [BlockShape(5, 7), BlockShape(150, 6)])
    def test_bit_identical_to_per_row_normalisation(self, p1, p2, shape):
        points = sample_ball(shape, p1, p2, seed=17, count=6)
        reference = _per_row_sample_ball(shape, p1, p2, seed=17, count=6)
        for x, ref in zip(points, reference, strict=True):
            assert np.array_equal(x.entries, ref)

    def test_normalized_sample(self):
        x = sample_ball(BlockShape(3, 3), 1, 2, seed=3, count=1)[0]
        assert mixed_norm(normalized(x, 1, 2), (1, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError):
            normalized(BlockMatrix.zeros(BlockShape(2, 2)), 1, 1)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_ball(BlockShape(2, 2), 1, 1, seed=0, count=0)


class TestSamplerDistribution:
    """The one-pass draws against the reference gamma-plus-sign draws: same
    law after normalising each block, and the right moments before."""

    ROWS, S = 20_000, 8
    # KS critical value for two samples of ROWS each at level 1e-4,
    # sqrt(-log(1e-4 / 2) / 2) * sqrt(2 / ROWS)
    KS_LIMIT = math.sqrt(-math.log(1e-4 / 2) / 2) * math.sqrt(2 / ROWS)

    def _normalised_blocks(self, draw, p, seed):
        p = Exponent.of(p)
        rows = draw(np.random.default_rng(seed), p, (self.ROWS, self.S))
        return rows / _row_norms(rows, p)[:, None]

    @pytest.mark.parametrize("p", [1, "3/2", 2, 3, "inf"])
    def test_normalised_blocks_match_the_oracle(self, p):
        new = self._normalised_blocks(_symmetric_power_sample, p, seed=21)
        old = self._normalised_blocks(_oracle_symmetric_power_sample, p, seed=22)
        # one coordinate per block, and the block's largest |entry|:
        # both are independent across blocks
        assert _ks_statistic(new[:, 0], old[:, 0]) < self.KS_LIMIT
        assert _ks_statistic(np.abs(new).max(axis=1), np.abs(old).max(axis=1)) < self.KS_LIMIT

    def test_statistic_separates_other_exponents(self):
        new = self._normalised_blocks(_symmetric_power_sample, "3/2", seed=21)
        old = self._normalised_blocks(_oracle_symmetric_power_sample, 3, seed=22)
        assert _ks_statistic(np.abs(new).max(axis=1), np.abs(old).max(axis=1)) > 4 * self.KS_LIMIT

    @pytest.mark.parametrize("p", [1, "3/2", 3, 5])
    def test_moments_of_uniform_times_gamma_power(self, p):
        # density exp(-|t|^p) / (2 Gamma(1 + 1/p)): E|t|^p = 1/p and
        # E|t|^(2p) = (1/p)(1/p + 1)
        e = Exponent.of(p)
        t = np.abs(_symmetric_power_sample(np.random.default_rng(23), e, 200_000)) ** e.float_value
        inv = 1 / e.float_value
        for values, want in ((t, inv), (t * t, inv * (inv + 1))):
            stderr = values.std() / math.sqrt(values.size)
            assert abs(values.mean() - want) < 6 * stderr


def _stream_digest(make) -> str:
    """sha256 of the little-endian float64 entries of make(shape)'s points,
    over a small grid and one wider than a SIMD register."""
    h = hashlib.sha256()
    for shape in (BlockShape(5, 7), BlockShape(33, 40)):
        for x in make(shape):
            h.update(np.ascontiguousarray(x.entries, dtype="<f8").tobytes())
    return h.hexdigest()


class TestSamplerStreamPin:
    """The sampled points, bit for bit: the sweep and witness outputs depend
    on them.  EXTREME was recorded before the samplers drew and scaled in
    place; BALL when the ball draws became one pass per coordinate."""

    BALL = {
        ("1", "1"): "5ed7ddd5df6b32f1469ed65a0164fa2700331ff0fb8e842649352c575dac046c",
        ("1", "2"): "c7f0e3c3bf576b5f5ec82ec4aeca4cc05b60b1e65cf268f9ae688e0314703536",
        ("1", "inf"): "7fa404142a996c72397c7947f594f95f3df59132ba86c3ecf0307498866e1fed",
        ("3/2", "1"): "f75eff1097599815d5de03003adedc9b8eb7ee8e7c6b88e45f4d4c7a6fa46f1e",
        ("3/2", "2"): "3552ec8bd4cab9ffb3c531b87a6336dd5f3f9eedfb04f38b4e595ecfcfa09c38",
        ("3/2", "inf"): "46e198b17f3dfd0f75b6e8e900bbac5e960722e0417c94a1c892da4f680b3e2a",
        ("2", "1"): "da295970cca928b27d96702da598330d0ca6271ceddd4297a5a8158426bab512",
        ("2", "2"): "d3c8349fa0a209b642cd3505b81fd0fa738af446cbdb97ac2ded23cfe4070b02",
        ("2", "inf"): "1f0cabc8e7ceebd16ecd0f6d716c428a3f35364791ef43b5b2ae5ecd3b022d4e",
        ("3", "1"): "dc4d1ce804ad7019816540b65fd6d3668cb6bd979e12ae88cf25419a59f9e844",
        ("3", "2"): "4a8db31169f8d2818c85c3e1eaf6d5b86af07b7b1911b81d93540e6569dbb2e6",
        ("3", "inf"): "97b4cd1008d95db43a7ecf6e00494a23877e7ef3e54dea14d2cdd09560f7bb83",
        ("inf", "1"): "1f279e08102025d48f818422538cfcecd45c7f39da3560bcefaee334785be196",
        ("inf", "2"): "f837488f21ba2a777c26c939fd0d56f2460267dd36d5a0a0bb7d4986c6aa9c8c",
        ("inf", "inf"): "3e55f30d0cc44c04d09fa16f6b588a69ad6be50a7eeca0ca003f9af334078b1c",
    }
    EXTREME = "d5648a9b6131afa058628ad87893702dce4d0e4a3eec8e43b61b439047186251"

    @pytest.mark.parametrize("p1, p2", sorted(BALL))
    def test_sample_ball(self, p1, p2):
        assert _stream_digest(lambda shape: sample_ball(shape, p1, p2, 11, 4)) == self.BALL[p1, p2]

    def test_extreme_points_inf1(self):
        assert _stream_digest(lambda shape: extreme_points_inf1(shape, 12, 4)) == self.EXTREME


class TestExtremePoints:
    def test_unit_inf1_norm_and_12_norm(self):
        sh = BlockShape(6, 4)
        for x in extreme_points_inf1(sh, seed=4, count=8):
            assert mixed_norm(x, ("inf", 1)) == pytest.approx(1.0, abs=1e-12)
            assert mixed_norm(x, (1, 2)) == pytest.approx(6.0, abs=1e-12)
            mat = x.as_matrix()
            nonzero_cols = np.flatnonzero(np.abs(mat).sum(axis=0))
            assert nonzero_cols.size == 1
            assert set(np.abs(mat[:, nonzero_cols[0]])) == {1.0}

    def test_count(self):
        assert len(extreme_points_inf1(BlockShape(2, 2), 0, 7)) == 7
