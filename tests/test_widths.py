import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mixedwidths import (
    BlockShape,
    b1_l2_width,
    choose_pipeline_params,
    classify,
    d0_mixed,
    extreme_points_inf1,
    good_partition,
    grouped_subspace_approximate,
    nonrigidity_witness,
    pietsch_stesin,
    pipeline_operators,
    rigidity_certificate,
    sample_ball,
)
from mixedwidths import cli, spread, widths
from mixedwidths.cli import sweep_row

GRID_VALUES = (1, "4/3", "3/2", 2, "5/2", 3, 4, 8, "inf")

ANCHORS = [
    (("inf", "inf", 2, 2), "Rigid", "a"),
    ((1, 1, 2, 2), "Rigid", "b"),
    ((1, "inf", 2, 1), "Rigid", "c"),
    (("inf", 1, 2, 2), "Rigid", "d1"),
    ((1, 1, 1, 2), "Rigid", "d2"),
    (("inf", 1, 1, 2), "NonRigid", "exceptional"),
    ((1, 1, 3, 1), "NonRigid", "inner-fail"),
    ((1, 1, 1, 3), "NonRigid", "outer-fail"),
    ((2, 2, 2, 2), "Rigid", "a"),
    ((2, 1, 2, 2), "Rigid", "d1"),
    ((3, 2, 1, 2), "Rigid", "a"),
    ((1, "inf", 2, 2), "Rigid", "c"),
]


class TestClassify:
    @pytest.mark.parametrize("tup,verdict,label", ANCHORS)
    def test_anchor_tuples(self, tup, verdict, label):
        report = classify(*tup)
        assert (report.verdict, report.case_label) == (verdict, label)

    def test_exact_exponents_reported(self):
        report = classify("inf", 1, 1, 2)
        assert report.d0_exponents == (Fraction(1), Fraction(0))

    def test_every_grid_tuple_gets_one_label(self):
        rigid_labels = {"a", "b", "c", "d1", "d2"}
        nonrigid_labels = {"inner-fail", "outer-fail", "exceptional"}
        for p1 in GRID_VALUES:
            for q1 in GRID_VALUES:
                report = classify(p1, "inf", q1, 2)
                labels = rigid_labels if report.rigid else nonrigid_labels
                assert report.case_label in labels

    def test_exceptional_tuples_feed_the_pipeline(self):
        for p1 in GRID_VALUES:
            for p2 in GRID_VALUES:
                for q1 in GRID_VALUES:
                    for q2 in GRID_VALUES:
                        report = classify(p1, p2, q1, q2)
                        if report.case_label == "exceptional":
                            params = choose_pipeline_params(p1, p2, q1, q2, 8, 8)
                            assert params.alpha > 0
                        else:
                            with pytest.raises(ValueError, match="is not exceptional"):
                                choose_pipeline_params(p1, p2, q1, q2, 8, 8)

    def test_json_field_order(self):
        keys = list(classify(2, 2, 1, 1).to_json_dict().keys())
        assert keys == ["p1", "p2", "q1", "q2", "verdict", "case_label", "d0_exponents"]


class TestWidthFormulas:
    def test_zero_dimension_matches_d0(self):
        for (p, q) in [("inf", 1), ("inf", 2), (2, 1), (3, 2)]:
            for N in (4, 16):
                flat = d0_mixed(BlockShape(N, 1), p, p, q, q)
                assert pietsch_stesin(N, 0, p, q) == pytest.approx(flat, abs=1e-12)

    def test_hand_values(self):
        assert pietsch_stesin(16, 8, "inf", 1) == pytest.approx(8.0, abs=1e-12)
        assert pietsch_stesin(4, 2, "inf", 1) == pytest.approx(2.0, abs=1e-12)
        assert pietsch_stesin(4, 4, "inf", 1) == 0.0

    def test_equal_exponents_keep_formula_value(self):
        assert pietsch_stesin(8, 3, 2, 2) == 1.0

    def test_order_of_exponents_enforced(self):
        with pytest.raises(ValueError):
            pietsch_stesin(4, 0, 1, 2)

    def test_dimension_range_enforced(self):
        with pytest.raises(ValueError):
            pietsch_stesin(4, 5, "inf", 1)

    def test_b1_l2(self):
        assert b1_l2_width(4, 0) == 1.0
        assert b1_l2_width(4, 4) == 0.0
        assert b1_l2_width(4, 2) == pytest.approx(math.sqrt(0.5), abs=1e-12)


class TestCertificates:
    def test_case_a_numeric_factor(self):
        report = classify("inf", "inf", 1, 2)
        cert = rigidity_certificate(report, 4, 4, 8, Fraction(1, 2))
        assert cert.numeric_factor == pytest.approx(4.0, abs=1e-12)
        assert cert.symbolic_constant is None

    def test_case_b_factor(self):
        report = classify(1, 1, 2, 2)
        cert = rigidity_certificate(report, 4, 4, 8, Fraction(1, 4))
        assert cert.numeric_factor == pytest.approx(0.5, abs=1e-12)

    def test_case_c_and_d1_stay_symbolic(self):
        cert_c = rigidity_certificate(classify(1, "inf", 2, 1), 8, 8, 16, Fraction(1, 2))
        assert cert_c.symbolic_constant == "c(eps)"
        assert cert_c.numeric_factor > 0
        cert_d1 = rigidity_certificate(classify("inf", 1, 2, 2), 8, 8, 16, Fraction(1, 2))
        assert cert_d1.symbolic_constant == "c(q2,eps)"
        assert cert_d1.numeric_factor > 0

    def test_exceptional_tuple_rejected(self):
        report = classify("inf", 1, 1, 2)
        with pytest.raises(ValueError):
            rigidity_certificate(report, 4, 4, 4, Fraction(1, 2))

    def test_dimension_cap_enforced(self):
        report = classify("inf", "inf", 1, 1)
        with pytest.raises(ValueError):
            rigidity_certificate(report, 4, 4, 15, Fraction(1, 2))


class TestWitness:
    def test_square_transposition_witness(self):
        record = nonrigidity_witness("inf", 1, 1, 2, 16, 16, strategy="transposition")
        assert record.kind == "computed"
        assert record.n == 136
        assert record.error_ratio <= 0.25

    def test_ratio_decays_between_small_and_large(self):
        small = nonrigidity_witness("inf", 1, 1, 2, 16, 16, samples=4)
        large = nonrigidity_witness("inf", 1, 1, 2, 256, 256, samples=4)
        assert large.error_ratio < small.error_ratio

    def test_wide_grid_uses_grouped_pipeline(self):
        record = nonrigidity_witness("inf", 1, 1, 2, 8, 32, samples=4)
        assert record.kind == "computed" and record.n > 0

    def test_wide_witness_builds_each_width_once(self, monkeypatch):
        calls = {"good_partition": 0, "SpreadOperator": 0}
        real_partition, real_init = spread.good_partition, spread.SpreadOperator.__init__

        def counted_partition(*args, **kwargs):
            calls["good_partition"] += 1
            return real_partition(*args, **kwargs)

        def counted_init(self, *args, **kwargs):
            calls["SpreadOperator"] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(spread, "good_partition", counted_partition)
        monkeypatch.setattr(spread.SpreadOperator, "__init__", counted_init)
        spread._good_operator.cache_clear()
        record = nonrigidity_witness("inf", 1, 1, 2, 32, 100, samples=4)
        # column groups of widths 32, 32, 32 and 4: two distinct widths
        assert calls == {"good_partition": 2, "SpreadOperator": 2}
        assert record.kind == "computed" and record.n > 0
        # a second witness on the grid takes both operators from the cache
        assert nonrigidity_witness("inf", 1, 1, 2, 32, 100, samples=4) == record
        assert calls == {"good_partition": 2, "SpreadOperator": 2}

    def test_shared_operators_match_fresh_build(self):
        s, b = 32, 100
        shape = BlockShape(s, b)
        params = choose_pipeline_params("inf", 1, 1, 2, s, b)
        ops = pipeline_operators(s, b, params.d, "good")
        assert sorted(ops) == [4, 32]
        points = sample_ball(shape, "inf", 1, 0, 4) + extreme_points_inf1(shape, 1, 4)
        sup_error = 0.0
        for x in points:
            shared = grouped_subspace_approximate(x, params, ops)
            fresh = grouped_subspace_approximate(x, params)
            assert shared.measured_error == fresh.measured_error
            assert shared.certified_bound == fresh.certified_bound
            assert shared.dim == fresh.dim
            assert np.array_equal(shared.approximant.entries, fresh.approximant.entries)
            sup_error = max(sup_error, fresh.measured_error)
        record = nonrigidity_witness("inf", 1, 1, 2, s, b, samples=4)
        assert record.sup_error == sup_error and record.n == fresh.dim

    def test_wide_witness_golden(self):
        # recorded before the witness streamed its points
        record = nonrigidity_witness("inf", 1, 1, 2, 29, 641, samples=6)
        golden = Path(__file__).parent / "golden" / "witness_inf_1_1_2_s29_b641.json"
        assert json.dumps(record.to_json_dict()) + "\n" == golden.read_text()

    def test_square_witness_uses_smallest_order(self):
        record = nonrigidity_witness("inf", 1, 1, 2, 64, 64, samples=2)
        assert record.n == good_partition(64, 64, 4, field_order="smallest").m == 1688

    def test_negative_seed_refused_before_the_partitions(self):
        # (6/5, 1, 1, 2) needs d = 12, a design grid good_partition refuses
        with pytest.raises(ValueError, match="line memberships"):
            nonrigidity_witness("6/5", 1, 1, 2, 16, 16)
        with pytest.raises(ValueError, match="^seed=-1 must be non-negative$"):
            nonrigidity_witness("6/5", 1, 1, 2, 16, 16, seed=-1)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_below_one_refused_before_the_partitions(self, samples, monkeypatch):
        # both drivers name the argument, before the design-grid refusal of
        # (6/5, 1, 1, 2) and before they build any operator
        def no_operators(*args):
            raise AssertionError("operators built")

        for module in (cli, widths):
            monkeypatch.setattr(module, "pipeline_operators", no_operators)
        message = f"^samples={samples} must be at least 1$"
        for p1, s in (("6/5", 16), ("inf", 16), ("2", 40)):
            with pytest.raises(ValueError, match=message):
                sweep_row(p1, 1, 1, 2, s, s, samples=samples)
            with pytest.raises(ValueError, match=message):
                nonrigidity_witness(p1, 1, 1, 2, s, s, samples=samples)

    @pytest.mark.parametrize("kind", ["transposition", "diagonal"])
    def test_refused_like_a_sweep_row(self, kind):
        # a 12 x 16 grid is not square, and "diagonal" is no kind at all
        with pytest.raises(ValueError) as row:
            sweep_row("inf", 1, 1, 2, 12, 16, samples=2, partition_kind=kind)
        with pytest.raises(ValueError) as witness:
            nonrigidity_witness("inf", 1, 1, 2, 12, 16, samples=2, strategy=kind)
        assert str(witness.value) == str(row.value)

    def test_analytic_stub_for_coordinate_failures(self):
        record = nonrigidity_witness(1, 1, 3, 1, 8, 8)
        assert record.kind == "analytic"
        assert record.n is None and record.error_ratio is None

    def test_rigid_tuple_rejected(self):
        with pytest.raises(ValueError):
            nonrigidity_witness(2, 2, 2, 2, 8, 8)
