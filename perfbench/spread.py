"""Run the benchmark over several seeds and report, per workload and
end-to-end metric, the median and the quartile spread (q3 - q1) / median,
with quartiles as ``statistics.quantiles(values, n=4)`` gives them.  Also
prints each workload's error rate (failed / attempted items).

Run from the root of the checkout, one benchmark process at a time:

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --json perfbench/out/spread.json

Every workload of BENCHMARK.json runs for its run_seconds.  With the
default single seed this is the one command that runs every workload and
prints setup_s, run_norm, peak_rss_mb and error_rate for each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["summary"] = proc.stderr.strip().splitlines()[-1]
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--json", default=None, help="also write the summary here")
    args = parser.parse_args(argv)

    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, spec["run_seconds"]) for seed in args.seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {
            "seeds": args.seeds,
            "error_rate": failed / attempted,
            "summaries": [r["summary"] for r in results],
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            stats = summarize(values)
            entry["metrics"][metric["name"]] = {"unit": metric["unit"], "bound": metric["bound"], **stats}
            print(
                f"{workload:6s} {metric['name']:12s} median {stats['median']:10.4f} {metric['unit']:4s}"
                f" q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} spread {stats['spread']:.3f}"
                f" (bound {metric['bound']})"
            )
        print(f"{workload:6s} error_rate   {entry['error_rate']:.4g} ratio ({failed}/{attempted} items)")
        report[workload] = entry
    if args.json:
        os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
