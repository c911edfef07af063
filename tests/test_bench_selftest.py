"""The benchmark's self-test runs clean, so a refactor that renames or
drops a function the benchmark looks up fails here, and both workloads'
outputs keep their recorded digests, so a verifier or pipeline change
that shifts any report or row fails here too."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# outputs_sha256 of `build --seed 1`: every round's reports and partition
# summaries, recorded before the pair count was made dense
BUILD_SEED_1_DIGEST = "26e27ff9d5188d859724217284be27598b13acec5121a11040f14d725a4cb6d6"


# outputs_sha256 of `pipeline --seed 1`: both sweeps' stdout and both
# witnesses' records, recorded before the extreme points were scored by
# their columns
PIPELINE_SEED_1_DIGEST = "b1dbfee2e0619d534a3cbf89e42c1bb4f3d5801c6deead4da54b7cf49cec9876"


def _assert_outputs_digest(workload: str, digest: str) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert f"outputs_sha256={digest}" in proc.stderr, proc.stderr


def test_build_outputs_digest():
    _assert_outputs_digest("build", BUILD_SEED_1_DIGEST)


def test_pipeline_outputs_digest():
    _assert_outputs_digest("pipeline", PIPELINE_SEED_1_DIGEST)
