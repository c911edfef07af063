import gc
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mixedwidths import good_partition
from mixedwidths import cli, spread
from mixedwidths.cli import SWEEP_COLUMNS, _derived_seed, main, sweep_row


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

    def test_too_many_line_memberships_exits_2(self):
        # 2^12 fits the 4096-point cap, but AG(12, 2) has 8.4 million lines
        start = time.perf_counter()
        rc, out, err = run_cli(["design", "--r", "2", "--d", "12"])
        assert (rc, out) == (2, "") and err.startswith("error: ") and "line memberships" in err
        assert time.perf_counter() - start < 1.0

    def test_huge_order_exits_2_without_a_primality_test(self):
        # 2^61 - 1 is prime: trial division to its square root takes minutes
        start = time.perf_counter()
        rc, out, err = run_cli(["design", "--r", "2305843009213693951", "--d", "2"])
        assert (rc, out) == (2, "") and err.startswith("error: ") and "exceeds 4096 points" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("r, d", [(2, 1), (2, 0), (3, -2)])
    def test_dimension_below_2_exits_2(self, r, d):
        rc, out, err = run_cli(["design", "--r", str(r), "--d", str(d)])
        assert (rc, out) == (2, "") and err.startswith("error: ")

    @pytest.mark.parametrize("r, d", [(2, 20_000), (3, 100_000_000)])
    def test_huge_dimension_exits_2_without_the_power(self, r, d):
        # r^d would take seconds to compute and has too many digits to print
        start = time.perf_counter()
        rc, out, err = run_cli(["design", "--r", str(r), "--d", str(d)])
        assert (rc, out) == (2, "") and err.startswith("error: ") and "4096" in err
        assert time.perf_counter() - start < 1.0


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

    def test_verify_of_oversized_grid_exits_3(self, tmp_path):
        # a grid over MAX_GRID_CELLS is refused before it is built or verified
        target = tmp_path / "partition.json"
        rc, out, err = run_cli(
            ["partition", "--s", "4097", "--b", "4097", "--transpose", "--verify", "--out", str(target)]
        )
        assert (rc, out) == (3, "") and err.startswith("error: ") and "over 16777216" in err
        assert not target.exists()

    def test_verify_of_a_grid_over_a_million_cells(self, tmp_path):
        # 2048^2 cells: the exhaustive check runs at every grid the toolkit builds
        target = tmp_path / "partition.json"
        rc, out, _ = run_cli(["partition", "--s", "2048", "--b", "2048", "--d", "2", "--verify", "--out", str(target)])
        report = json.loads(out)
        assert rc == 0 and report["ok"] and report["cover_ok"]
        # the 54 MB partition line decodes to millions of lists: with the
        # cyclic collector paused it takes about a third of the time, and
        # they are freed by their reference counts once l is read
        enabled = gc.isenabled()
        gc.disable()
        try:
            with open(target, encoding="utf-8") as fh:
                l = json.loads(fh.readline())["l"]
        finally:
            if enabled:
                gc.enable()
        assert report["l_observed"] == l == 32

    @pytest.mark.parametrize("command", [
        ["partition", "--s", "8", "--b", "8"],
        ["bound", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2", "--s", "8", "--b", "8"],
        ["sweep", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2", "--sizes", "8x8"],
    ])
    @pytest.mark.parametrize("d", ["13", "40", "100000000"])
    def test_design_grid_over_the_cap_exits_3(self, command, d):
        # 2^d design points: refused before anything is built
        start = time.perf_counter()
        rc, out, err = run_cli([*command, "--d", d])
        assert (rc, out) == (3, "") and err.startswith("error") and "4096" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("command", [
        ["partition", "--s", "8", "--b", "8"],
        ["bound", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2", "--s", "8", "--b", "8"],
        ["sweep", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2", "--sizes", "8x8"],
    ])
    def test_too_many_line_memberships_exits_3(self, command):
        # 2^12 points fit the cap, the 16.8 million memberships do not
        start = time.perf_counter()
        rc, out, err = run_cli([*command, "--d", "12"])
        assert (rc, out) == (3, "") and err.startswith("error") and "line memberships" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("command", [
        ["partition", "--s", "1000000000000", "--b", "16", "--d", "2"],  # 1.46 TiB of rows
        ["bound", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2", "--s", "100000000", "--b", "16"],
        ["partition", "--s", "100000", "--b", "100000", "--transpose"],
        ["partition", "--s", "100000000000", "--b", "1"],
        # a wide grid: its partitions are small, its sampled points are not
        ["bound", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2", "--s", "2", "--b", "20000000"],
    ])
    def test_grid_over_the_cell_cap_exits_3(self, command):
        # refused before any cell array is allocated
        start = time.perf_counter()
        rc, out, err = run_cli(command)
        assert (rc, out) == (3, "") and err.startswith("error: ") and "over 16777216" in err
        assert time.perf_counter() - start < 1.0

    def test_columns_over_the_cap_exit_3_before_any_search(self):
        start = time.perf_counter()
        rc, out, err = run_cli([
            "bound", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2",
            "--s", str(10**20), "--b", str(10**20), "--d", "2",
        ])
        assert (rc, out) == (3, "") and err.startswith("error: ") and "4096" in err
        assert time.perf_counter() - start < 1.0

    def test_tuple_with_d_12_exits_3(self):
        # the pipeline's d for (6/5, 1, 1, 2) is 12, and 2^12 is refused at every width
        start = time.perf_counter()
        rc, out, err = run_cli(
            ["bound", "--p1", "6/5", "--p2", "1", "--q1", "1", "--q2", "2", "--s", "8", "--b", "8"]
        )
        assert (rc, out) == (3, "") and "2^12 has 16773120 line memberships" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("p1, width, d, r", [
        ("3/2", 730, 6, 4),  # the paper's own tuple past 3^6 columns: a 4^6 design
        ("11/9", 8, 11, 2),  # a 2^11 design at every width
    ])
    def test_largest_admitted_designs_still_run(self, p1, width, d, r):
        rc, out, err = run_cli([
            "bound", "--p1", p1, "--p2", "1", "--q1", "1", "--q2", "2",
            "--s", str(width), "--b", str(width), "--samples", "1",
        ])
        assert (rc, err) == (0, "")
        row = json.loads(out)
        assert (row["d"], row["r"], row["b"]) == (d, r, width)

    def test_transposition_golden_stdout(self):
        # pins the within-group cell order: (i, j) before (j, i) for i < j
        rc, out, err = run_cli(["partition", "--s", "4", "--b", "4", "--transpose", "--verify"])
        assert (rc, err) == (0, "")
        assert out == (GOLDEN / "partition_s4_b4_transpose_verify.txt").read_text()


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

    @pytest.mark.parametrize("transpose", [[], ["--transpose"]])
    @pytest.mark.parametrize("flag, value", [("--k", "0"), ("--d", "-3")])
    def test_override_out_of_range_exits_3(self, transpose, flag, value):
        rc, out, err = run_cli(
            ["bound", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2",
             "--s", "8", "--b", "8", "--samples", "2", flag, value, *transpose]
        )
        assert (rc, out) == (3, "")
        assert err.startswith("error: ") and f"{flag[2:]}={value} " in err

    @pytest.mark.parametrize("s, b", [(0, 4), (4, 0), (-2, 4)])
    def test_non_positive_grid_exits_3(self, s, b):
        rc, out, err = run_cli(
            ["bound", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2", "--s", str(s), "--b", str(b)]
        )
        assert (rc, out) == (3, "")
        assert err == f"error: block shape {s}x{b} must be positive\n"


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

    @pytest.mark.parametrize("bad", ["0x8", "8x0", "0x0"])
    def test_a_non_positive_grid_fails_before_any_row_runs(self, bad, monkeypatch):
        rows = []
        monkeypatch.setattr(cli, "sweep_row", lambda *args, **kwargs: rows.append(args))
        rc, out, err = run_cli(
            ["sweep", "--p1", "2", "--p2", "1", "--q1", "1", "--q2", "2", "--sizes", "8x8", bad, "--samples", "2"]
        )
        assert (rc, out, rows) == (3, "", [])
        assert err == f"error at size {bad}: block shape {bad} must be positive\n"

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

    @pytest.mark.parametrize("partition", ["good", "transposition"])
    @pytest.mark.parametrize(
        "flag, value", [("--k", "0"), ("--k", "-1"), ("--d", "1"), ("--d", "-3"), ("--seed", "-1")]
    )
    def test_override_out_of_range_exits_3(self, partition, flag, value):
        rc, out, err = run_cli(
            ["sweep", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2", "--sizes", "8x8",
             "--samples", "2", "--partition", partition, flag, value]
        )
        assert (rc, out) == (3, "")
        assert err.startswith("error at size 8x8: ") and f"{flag[2:]}={value} " in err

    @pytest.mark.parametrize("partition", ["good", "transposition"])
    def test_budget_of_one_runs(self, partition):
        rc, out, _ = run_cli(
            ["sweep", "--p1", "inf", "--p2", "1", "--q1", "1", "--q2", "2", "--sizes", "8x8",
             "--samples", "2", "--partition", partition, "--k", "1", "--format", "json"]
        )
        assert rc == 0 and json.loads(out)[0]["k"] == 1


HEADER = "s,b,d,k,r,l,dim,d0,sup_sampled_error,ratio,certified_bound\n"

# stdout of seeded sweeps, pinned byte for byte: the square (2,1) row, the
# wide grouped rows and a non-integer p1 drawn through the uniform-times-gamma
# sampler
GOLDEN_SWEEPS = [
    (
        "--p1 2 --p2 1 --q1 1 --q2 2 --sizes 64x64 --samples 8 --seed 0",
        HEADER
        + "64,64,4,2,3,2,1688,8.0,1.12994500890619,0.14124312611327375,1.4665501930351064\n",
    ),
    (
        "--p1 inf --p2 1 --q1 1 --q2 2 --sizes 16x64 32x100 --samples 8 --seed 0",
        HEADER
        + "16,64,4,2,2,2,512,16.0,5.656854249492381,0.3535533905932738,8.0\n"
        + "32,100,4,2,3,3,2168,32.0,5.5677643628300215,0.17399263633843817,6.0\n",
    ),
    (
        "--p1 3/2 --p2 1 --q1 1 --q2 2 --sizes 20x20 8x40 --samples 6 --seed 3",
        HEADER
        + "20,20,6,2,2,1,254,2.7144176165949063,0.663111776818343,0.244292467291817,0.9065348583939873\n"
        + "8,40,6,2,2,1,180,2.0,0.33801224052458934,0.16900612026229467,0.4770503023676154\n",
    ),
]


@pytest.mark.parametrize("args, expected", GOLDEN_SWEEPS)
def test_sweep_golden_stdout(args, expected):
    rc, out, err = run_cli(["sweep", *args.split()])
    assert (rc, err) == (0, "")
    assert out == expected


# stdout recorded before sweep rows and witnesses streamed their points: wide
# bound rows (the grouped pipeline) and a JSON sweep whose square rows keep
# three columns, so each touched group sums values from several columns
GOLDEN_PIPELINE_FILES = [
    ("bound --p1 inf --p2 1 --q1 1 --q2 2 --s 24 --b 200", "bound_inf_1_1_2_s24_b200.txt"),
    ("bound --p1 3/2 --p2 1 --q1 1 --q2 2 --s 24 --b 200 --seed 7", "bound_3-2_1_1_2_s24_b200_seed7.txt"),
    (
        "sweep --p1 2 --p2 1 --q1 1 --q2 2 --sizes 48x48 64x64 12x40 --k 4 --samples 8 --seed 5 --format json",
        "sweep_2_1_1_2_k4.json",
    ),
]


@pytest.mark.parametrize("args, golden", GOLDEN_PIPELINE_FILES)
def test_pipeline_golden_stdout(args, golden):
    rc, out, err = run_cli(args.split())
    assert (rc, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


# stdout of the README's CLI examples, recorded before sweep rows and
# witnesses took their operators from spread.pipeline_operators
README_COMMANDS = [
    ("classify --p1 inf --p2 1 --q1 1 --q2 2", "readme_classify_inf_1_1_2.txt"),
    ("design --r 2 --d 2 --verify", "readme_design_r2_d2_verify.txt"),
    ("partition --s 16 --b 16 --d 2 --verify", "readme_partition_s16_b16_d2_verify.txt"),
    ("bound --p1 inf --p2 1 --q1 1 --q2 2 --s 16 --b 16", "readme_bound_inf_1_1_2_s16_b16.txt"),
    (
        "sweep --p1 inf --p2 1 --q1 1 --q2 2 --sizes 16x16 64x64 256x256 --partition transposition --seed 0",
        "readme_sweep_transposition_seed0.csv",
    ),
    ("example-transpose --sizes 4 8 16", "readme_example_transpose_4_8_16.json"),
]


@pytest.mark.parametrize("args, golden", README_COMMANDS)
def test_readme_commands_golden_stdout(args, golden):
    rc, out, err = run_cli(args.split())
    assert (rc, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


class TestSweepDrawThread:
    """A (2, 1) sweep row draws its ball stream on a worker of its own
    (norms._Drawn), joined when the row ends or fails."""

    ARGS = ["sweep", "--p1", "2", "--p2", "1", "--q1", "1", "--q2", "2"]

    def test_a_grid_over_the_cell_cap_fails_at_its_row(self):
        before = threading.active_count()
        rc, out, err = run_cli(self.ARGS + ["--sizes", "16x16", "5000x5000", "--samples", "4"])
        with pytest.raises(ValueError) as row:
            sweep_row("2", 1, 1, 2, 5000, 5000, samples=4)
        assert (rc, out) == (3, "")
        assert err == f"error at size 5000x5000: {row.value}\n"
        assert threading.active_count() == before

    @pytest.mark.parametrize("sizes", [["4097x4097", "5000x5000"], ["5000x5000", "4097x4097"]])
    def test_the_first_failing_size_is_reported(self, sizes):
        rc, out, err = run_cli(self.ARGS + ["--sizes", "16x16", *sizes, "24x24", "--samples", "4"])
        assert (rc, out) == (3, "")
        assert err.startswith(f"error at size {sizes[0]}:") and err.count("error") == 1

    def test_a_screen_that_raises_joins_the_thread(self, monkeypatch):
        # the screen of the second row raises: its worker is joined, and
        # the third row never runs
        estimate, calls = spread._Plan._estimate, []

        def raising(self, *args):
            calls.append(self.shape.s)
            if self.shape.s == 24:
                raise RuntimeError("screen")
            return estimate(self, *args)

        monkeypatch.setattr(spread._Plan, "_estimate", raising)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="screen"):
            run_cli(self.ARGS + ["--sizes", "16x16", "24x24", "32x32", "--samples", "8"])
        assert calls == [16, 24]
        assert threading.active_count() == before

    def test_a_sweep_in_dev_mode_warns_of_nothing(self):
        # both chunk layouts, a half of many points (16x16) and one-point
        # halves in two rows (300x300), in a process whose warnings are
        # errors: a worker or an array left behind would show on stderr
        src = str(Path(spread.__file__).parents[1])
        argv = ["-X", "dev", "-W", "error", "-m", "mixedwidths.cli", *self.ARGS]
        done = subprocess.run(
            [sys.executable, *argv, "--sizes", "16x16", "300x300", "--samples", "4"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert len(done.stdout.splitlines()) == 3

    @pytest.mark.parametrize("p1", ["inf", "2"])
    def test_warm_and_cold_sweeps_print_the_same(self, p1):
        # the pipeline workload's sizes: a cold run, a warm one in the same
        # process, and a fresh process give the same bytes
        argv = [
            "sweep", "--p1", p1, "--p2", "1", "--q1", "1", "--q2", "2",
            "--sizes", "68x68", "126x126", "251x251", "--samples", "96", "--seed", "3",
        ]
        spread._good_operator.cache_clear()
        cold, warm = run_cli(argv), run_cli(argv)
        assert cold == warm and cold[0] == 0 and cold[2] == ""
        src = str(Path(spread.__file__).parents[1])
        fresh = subprocess.run(
            [sys.executable, "-m", "mixedwidths.cli", *argv], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=300,
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == cold


class TestExampleTranspose:
    def test_default_sizes(self):
        rc, out, _ = run_cli(["example-transpose", "--samples", "2"])
        assert rc == 0
        rows = json.loads(out)
        assert [row["s"] for row in rows] == [4, 8, 16]
        for row in rows:
            assert row["dim"] == row["s"] * (row["s"] + 1) // 2

    def test_bad_size_exits_3(self):
        rc, out, err = run_cli(["example-transpose", "--sizes", "0"])
        assert (rc, out) == (3, "")
        assert err.startswith("error at size 0x0:")

    def test_a_bad_size_fails_before_any_row_runs(self, monkeypatch):
        rows = []
        monkeypatch.setattr(cli, "sweep_row", lambda *args, **kwargs: rows.append(args))
        rc, out, err = run_cli(["example-transpose", "--sizes", "4", "0", "8"])
        assert (rc, out, rows) == (3, "", [])
        assert err == "error at size 0x0: block shape 0x0 must be positive\n"

    def test_non_integer_size_exits_2(self):
        rc, _, _ = run_cli(["example-transpose", "--sizes", "4x4"])
        assert rc == 2


class TestSweepRowFunction:
    def test_memory_does_not_grow_with_samples(self):
        # The row keeps only running suprema, so 64 samples need no more
        # memory than 2: the peak is set by the partition and the operator.
        # Holding every point or approximant would add 2 * 64 of them.
        s = b = 128
        point_bytes = s * b * 8
        sweep_row("2", 1, 1, 2, s, b, samples=1)  # warm the partition cache

        def peak(samples):
            tracemalloc.start()
            try:
                sweep_row("2", 1, 1, 2, s, b, samples=samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(2), peak(64)
        assert many <= few + point_bytes, (few / point_bytes, many / point_bytes)
        assert many < 16 * point_bytes, many / point_bytes

    def test_wide_sizes_use_grouped_pipeline(self):
        row = sweep_row("inf", 1, 1, 2, 8, 32, samples=4, seed=0)
        assert row["s"] == 8 and row["b"] == 32 and row["dim"] > 0

    def test_overrides_apply(self):
        row = sweep_row("inf", 1, 1, 2, 16, 16, samples=2, seed=0, d_override=2, k_override=3)
        assert row["d"] == 2 and row["k"] == 3

    def test_k_override_reaches_wide_grids(self):
        # --k is the budget of every full column group, and a wide row's
        # k is the budget its full groups ran with
        rows = [sweep_row("2", 1, 1, 2, 12, 40, samples=8, seed=5, k_override=k) for k in (1, 4)]
        assert [row["k"] for row in rows] == [1, 4]
        assert rows[0]["sup_sampled_error"] != rows[1]["sup_sampled_error"]
        assert sweep_row("inf", 1, 1, 2, 29, 641, samples=1, seed=0)["k"] == 2

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

    # README: with seed 0 and 8 samples the (inf, 1) -> (1, 2) ratio is not
    # monotone in b; the extreme points attain every one of these
    @pytest.mark.parametrize(
        "b, ratio", [(72, 0.2274), (81, 0.2722), (128, 0.1609), (200, 0.1909), (256, 0.2165)]
    )
    def test_readme_ratios(self, b, ratio):
        assert round(sweep_row("inf", 1, 1, 2, b, b, samples=8, seed=0)["ratio"], 4) == ratio


class TestDerivedSeed:
    def test_formerly_colliding_rows_differ(self):
        # a linear mix of (seed, s, b) gave 2019 for both
        assert _derived_seed(0, 1, 1010) != _derived_seed(0, 2, 1)

    def test_no_collisions_on_a_grid(self):
        triples = [(seed, s, b) for seed in range(3) for s in range(1, 9) for b in range(1, 1101)]
        seeds = {_derived_seed(*t) for t in triples}
        assert len(seeds) == len(triples)
        # seed + 1 seeds the extreme points, so it must be a valid seed too
        assert max(seeds) + 1 < 2**63 and min(seeds) >= 0
