"""Benchmark of the mixedwidths toolkit.

Run from the root of a source checkout (the package is imported from
``src``, not from an installed copy):

    python3 perfbench/run.py --workload build --seed 1 --seconds 50 --trace 0

Workloads are ``build`` and ``pipeline`` (see perfbench/README.md).
One process runs one workload on one thread.  After set-up the benchmark
repeats timed rounds over the seeded inputs until ``--seconds`` have passed
(always at least one round), checks every output between timed calls, and
prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``run_norm`` and ``peak_rss_mb``.  ``run_norm`` is the median round time
in units of a fixed reference kernel that is timed after every unit, so a
change in the host's speed during a run cancels out; the median wall time
of a round, ``run_s``, is on the stderr summary.  With ``--trace 1`` half of
the time runs untraced rounds and half traced rounds, and the metrics are
the per-layer figures from the spans plus ``trace.overhead_ratio``; the
spans are written to ``perfbench/out/``.  A summary with the error rate and
the sha256 of the outputs goes to stderr.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

SETUP_REPEATS = 3
REFERENCE_SLICE_S = 0.15
HERE = os.path.dirname(os.path.abspath(__file__))


def import_package() -> None:
    """Import mixedwidths from ./src of the checkout, and nothing else."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    try:
        import mixedwidths
    except ImportError as exc:
        raise SystemExit(f"cannot import mixedwidths from {src}: {exc}")
    if not os.path.abspath(mixedwidths.__file__).startswith(src + os.sep):
        raise SystemExit(f"mixedwidths came from {mixedwidths.__file__}, not {src}")


class Tally:
    """Items attempted and failed.  Every round must reproduce the first
    round's output summaries exactly; their sha256 is for information."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}
        self.problems: list[str] = []

    def add(self, label: str, per_item: list[list[str]], summary: str | None = None) -> None:
        if summary is not None and self.first.setdefault(label, summary) != summary:
            per_item = [problems + ["output differs from the first round"] for problems in per_item]
        self.attempted += len(per_item)
        for problems in per_item:
            if problems:
                self.failed += 1
                self.problems.append(f"{label}: {'; '.join(problems)}")

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.first.values()).encode()).hexdigest()


def reference_kernel() -> int:
    """Fixed work that uses nothing of the package: a Python integer loop
    and a numpy reduction, about 6 ms on the machine in the README."""
    total = 0
    for i in range(60_000):
        total += i * i
    a = np.arange(20_000.0)
    return total + int((a * a).sum())


def reference_rep_s(unit_s: float) -> float:
    """Seconds per reference_kernel run right now: one run per
    REFERENCE_SLICE_S of the unit just timed, at least one."""
    reps = max(1, math.ceil(unit_s / REFERENCE_SLICE_S))
    t0 = time.perf_counter()
    for _ in range(reps):
        reference_kernel()
    return (time.perf_counter() - t0) / reps


def run_rounds(workload, seconds: float, tally: Tally, tracer=None) -> tuple[list[float], list[float]]:
    """Timed rounds until `seconds` have passed.  Returns each round's wall
    time, the sum over its units of the time spent inside the unit's call,
    and each round's normalized time, the sum over its units of the unit's
    time divided by the reference kernel's time measured right after it."""
    units = workload.units()
    times, normalized = [], []
    deadline = time.perf_counter() + seconds
    while True:
        workload.before_round()
        gc.collect()
        if tracer is not None:
            tracer.begin_round()
        elapsed = norm = 0.0
        for unit in units:
            if tracer is not None:
                tracer.next_item()
            t0 = time.perf_counter()
            try:
                output = unit.run()
                raised = False
            except Exception:  # a failing item is counted, not fatal
                raised = True
            unit_s = time.perf_counter() - t0
            elapsed += unit_s
            norm += unit_s / reference_rep_s(unit_s)
            if raised:
                traceback.print_exc(file=sys.stderr)
                tally.add(unit.label, [["raised"]] * unit.n_items)
                continue
            per_item, summary = unit.check(output)
            tally.add(unit.label, per_item, summary)
            del output
        if tracer is not None:
            tracer.end_round()
        times.append(elapsed)
        normalized.append(norm)
        if time.perf_counter() >= deadline:
            return times, normalized


def benchmark(workload, seconds: float, trace: bool, import_s: float = 0.0, spans_path=None):
    """Set the workload up, run its timed rounds and checks, and return
    (result object for stdout, summary line for stderr)."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    tally = Tally()
    if trace:
        from tracer import PER_LAYER, Tracer

        untraced, untraced_norm = run_rounds(workload, seconds / 2, tally)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_norm = run_rounds(workload, seconds / 2, tally, tracer)
        finally:
            tracer.uninstall()
        values = tracer.layer_metrics()
        values["trace.overhead_ratio"] = statistics.median(traced_norm) / statistics.median(untraced_norm)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
        if spans_path:
            tracer.dump(spans_path)
        rounds = untraced + traced
    else:
        rounds, normalized = run_rounds(workload, seconds, tally)
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_norm": (statistics.median(normalized), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    tally.add("spot check", workload.spot_checks())

    summary = "\n".join(
        [f"FAILED {line}" for line in tally.problems[:20]]
        + [
            f"{workload.name} seed={workload.seed} run_s={statistics.median(rounds):.4f} "
            f"rounds_s={[round(t, 3) for t in rounds]} "
            f"error_rate={tally.failed / max(tally.attempted, 1):.4g} ratio "
            f"outputs_sha256={tally.digest()}"
        ]
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - PROCESS_T0

    spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.npz")
    result, summary = benchmark(
        WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace), import_s, spans
    )
    print(summary, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
