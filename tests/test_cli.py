import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mixedwidths import good_partition
from mixedwidths.cli import SWEEP_COLUMNS, main, sweep_row


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class TestClassifyCommand:
    def test_exceptional_tuple(self):
        rc, out, _ = run_cli(["classify", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2"])
        assert rc == 0
        data = json.loads(out)
        assert data["verdict"] == "NonRigid" and data["case_label"] == "exceptional"

    def test_rigid_cube(self):
        rc, out, _ = run_cli(["classify", "--p1", "inf", "--p2", "inf", "--q1", "2", "--q2", "2"])
        assert rc == 0
        data = json.loads(out)
        assert data["verdict"] == "Rigid" and data["case_label"] == "a"

    def test_stable_field_order(self):
        _, out, _ = run_cli(["classify", "--p1", "2", "--p2", "2", "--q1", "1", "--q2", "1"])
        assert list(json.loads(out).keys()) == [
            "p1", "p2", "q1", "q2", "verdict", "case_label", "d0_exponents",
        ]

    def test_bad_exponent_exits_2(self):
        rc, _, err = run_cli(["classify", "--p1", "bogus", "--p2", "1", "--q1", "1", "--q2", "2"])
        assert rc == 2
        assert "--p1" in err


class TestDesignCommand:
    def test_verified_f2_plane(self):
        rc, out, _ = run_cli(["design", "--r", "2", "--d", "2", "--verify"])
        assert rc == 0
        design_line, verify_line = out.strip().splitlines()
        design = json.loads(design_line)
        report = json.loads(verify_line)
        assert design["b"] == 4 and len(design["sets"]) == 6
        assert report["ok"] and report["m"] == 6

    def test_f4_plane_parameters(self):
        rc, out, _ = run_cli(["design", "--r", "4", "--d", "2", "--verify"])
        assert rc == 0
        design = json.loads(out.strip().splitlines()[0])
        assert design["b"] == 16 and len(design["sets"]) == 20

    def test_non_prime_power_exits_2(self):
        rc, _, err = run_cli(["design", "--r", "6", "--d", "2"])
        assert rc == 2 and "6" in err

    def test_oversized_ground_set_exits_2(self):
        rc, _, _ = run_cli(["design", "--r", "8", "--d", "5"])
        assert rc == 2


GOLDEN = Path(__file__).parent / "golden"


def test_design_golden_stdout():
    # bytes recorded before the design layers moved from loops to arrays
    rc, out, err = run_cli(["design", "--r", "4", "--d", "3", "--verify"])
    assert (rc, err) == (0, "")
    assert out == (GOLDEN / "design_r4_d3_verify.txt").read_text()


def test_partition_golden_fields():
    # recorded before the partition layers moved from loops to arrays and
    # before the partition line gained "dropped_empty"
    rc, out, err = run_cli(["partition", "--s", "20", "--b", "13", "--d", "2", "--verify"])
    assert (rc, err) == (0, "")
    partition_line, verify_line = out.splitlines()
    expected_partition, expected_verify = (GOLDEN / "partition_s20_b13_d2_verify.txt").read_text().splitlines()
    data, expected = json.loads(partition_line), json.loads(expected_partition)
    for key in ("groups", "r", "l", "m"):
        assert data[key] == expected[key], key
    assert verify_line == expected_verify


class TestPartitionCommand:
    def test_good_partition_with_verification(self):
        rc, out, _ = run_cli(["partition", "--s", "16", "--b", "16", "--d", "2", "--verify"])
        assert rc == 0
        partition_line, verify_line = out.strip().splitlines()
        data = json.loads(partition_line)
        assert data["r"] == 4 and data["l"] == 4
        assert json.loads(verify_line)["ok"]

    def test_wide_grid_exits_3(self):
        rc, _, err = run_cli(["partition", "--s", "4", "--b", "8"])
        assert rc == 3 and "group the columns" in err

    def test_transpose_needs_square(self):
        rc, _, _ = run_cli(["partition", "--s", "4", "--b", "5", "--transpose"])
        assert rc == 3


class TestBoundCommand:
    def test_single_point_row(self):
        rc, out, _ = run_cli(
            ["bound", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2",
             "--s", "8", "--b", "8", "--samples", "4"]
        )
        assert rc == 0
        row = json.loads(out)
        assert list(row.keys()) == list(SWEEP_COLUMNS)
        assert row["ratio"] == pytest.approx(row["sup_sampled_error"] / row["d0"], rel=1e-12)

    def test_rigid_tuple_exits_3(self):
        rc, out, _ = run_cli(
            ["bound", "--p1", "2", "--p2", "2", "--q1", "2", "--q2", "2", "--s", "4", "--b", "4"]
        )
        assert rc == 3
        assert json.loads(out.splitlines()[0])["verdict"] == "Rigid"


class TestSweepCommand:
    TRANSPOSE_ARGS = [
        "sweep", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2",
        "--sizes", "16x16", "64x64", "256x256",
        "--partition", "transposition", "--samples", "4",
    ]

    def test_transposition_sweep_values(self):
        rc, out, _ = run_cli(self.TRANSPOSE_ARGS)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        for line, s in zip(lines[1:], (16, 64, 256)):
            row = dict(zip(SWEEP_COLUMNS, line.split(",")))
            assert int(row["s"]) == s and int(row["dim"]) == s * (s + 1) // 2
            # extreme points dominate: the spread loses exactly the
            # off-diagonal transpose row, one unit entry per column
            assert float(row["ratio"]) == pytest.approx(math.sqrt(s - 1) / s, abs=1e-12)
            assert float(row["ratio"]) == pytest.approx(
                float(row["sup_sampled_error"]) / float(row["d0"]), rel=1e-12
            )

    def test_byte_identical_reruns(self):
        _, first, _ = run_cli(self.TRANSPOSE_ARGS)
        _, second, _ = run_cli(self.TRANSPOSE_ARGS)
        assert first == second

    def test_output_file(self, tmp_path):
        target = tmp_path / "rows.csv"
        rc, out, _ = run_cli(
            ["sweep", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2",
             "--sizes", "8x8", "--samples", "2", "--out", str(target)]
        )
        assert rc == 0 and out == ""
        lines = target.read_text().strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS) and len(lines) == 2

    def test_json_format(self):
        rc, out, _ = run_cli(
            ["sweep", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2",
             "--sizes", "8x8", "--format", "json", "--samples", "2"]
        )
        assert rc == 0
        rows = json.loads(out)
        assert len(rows) == 1 and rows[0]["s"] == 8

    def test_rigid_tuple_exits_3(self):
        rc, out, _ = run_cli(
            ["sweep", "--p1", "2", "--p2", "2", "--q1", "2", "--q2", "2", "--sizes", "4x4"]
        )
        assert rc == 3
        assert json.loads(out.splitlines()[0])["verdict"] == "Rigid"

    def test_bad_size_exits_2(self):
        rc, _, _ = run_cli(
            ["sweep", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2", "--sizes", "16"]
        )
        assert rc == 2


HEADER = "s,b,d,k,r,l,dim,d0,sup_sampled_error,ratio,certified_bound\n"

# stdout of seeded sweeps, pinned byte for byte: the square (2,1) row, the
# wide grouped rows and a non-integer p1 drawn through the gamma sampler
GOLDEN_SWEEPS = [
    (
        "--p1 2 --p2 1 --q1 1 --q2 2 --sizes 64x64 --samples 8 --seed 0",
        HEADER
        + "64,64,4,2,3,2,1688,8.0,1.1929720470755512,0.1491215058844439,1.547871474081036\n",
    ),
    (
        "--p1 inf --p2 1 --q1 1 --q2 2 --sizes 16x64 32x100 --samples 8 --seed 0",
        HEADER
        + "16,64,4,2,2,2,512,16.0,5.656854249492381,0.3535533905932738,8.0\n"
        + "32,100,4,2,3,3,2168,32.0,5.5677643628300215,0.17399263633843817,5.656854249492381\n",
    ),
    (
        "--p1 3/2 --p2 1 --q1 1 --q2 2 --sizes 20x20 8x40 --samples 6 --seed 3",
        HEADER
        + "20,20,6,2,2,1,254,2.7144176165949063,0.6287508746124133,0.2316338026869823,0.9359399227559682\n"
        + "8,40,6,2,2,1,180,2.0,0.36178066786102936,0.18089033393051468,0.47214695812085333\n",
    ),
]


@pytest.mark.parametrize("args, expected", GOLDEN_SWEEPS)
def test_sweep_golden_stdout(args, expected):
    rc, out, err = run_cli(["sweep", *args.split()])
    assert (rc, err) == (0, "")
    assert out == expected


class TestExampleTranspose:
    def test_default_sizes(self):
        rc, out, _ = run_cli(["example-transpose", "--samples", "2"])
        assert rc == 0
        rows = json.loads(out)
        assert [row["s"] for row in rows] == [4, 8, 16]
        for row in rows:
            assert row["dim"] == row["s"] * (row["s"] + 1) // 2


class TestSweepRowFunction:
    def test_wide_sizes_use_grouped_pipeline(self):
        row = sweep_row("inf", 1, 1, 2, 8, 32, samples=4, seed=0)
        assert row["s"] == 8 and row["b"] == 32 and row["dim"] > 0

    def test_overrides_apply(self):
        row = sweep_row("inf", 1, 1, 2, 16, 16, samples=2, seed=0, d_override=2, k_override=3)
        assert row["d"] == 2 and row["k"] == 3

    def test_square_row_reports_smallest_order_partition(self):
        row = sweep_row("inf", 1, 1, 2, 64, 64, samples=2, seed=0)
        part = good_partition(64, 64, 4, field_order="smallest")
        assert (row["r"], row["l"], row["dim"]) == (part.r, part.l, part.m) == (3, 2, 1688)
        assert row["sup_sampled_error"] <= row["certified_bound"] + 1e-9

    def test_wide_row_reports_partition_used(self):
        # the column groups are 32 wide: the least supported order with
        # r^4 >= 32 is 3, where the least power of two is 4
        row = sweep_row("inf", 1, 1, 2, 32, 64, samples=2, seed=0)
        part = good_partition(32, 32, 4, field_order="smallest")
        assert (row["r"], row["l"]) == (part.r, part.l) == (3, 1)
        assert row["dim"] == 2 * part.m
        assert good_partition(32, 32, 4).r == 4
        assert row["sup_sampled_error"] <= row["certified_bound"] + 1e-9
