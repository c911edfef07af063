"""Command-line front end: classification queries, design and partition
generation with verification, single-point pipeline runs, and seeded
sweeps over size grids emitting CSV or JSON.

Exit codes: 0 ok, 2 usage error, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from .designs import affine_line_design, verify_design
from .norms import BlockShape, Exponent, d0_mixed
from .partitions import good_partition, verify_partition
from .spread import (
    approximate,  # noqa: F401 - perfbench's tracer patches this lookup and its self-test asserts it
    choose_pipeline_params,
    pipeline_operators,
    sampled_sup,
    transposition_partition,
)
from .widths import classify

SWEEP_COLUMNS = (
    "s", "b", "d", "k", "r", "l", "dim",
    "d0", "sup_sampled_error", "ratio", "certified_bound",
)


def _exponent_arg(text: str) -> Exponent:
    try:
        return Exponent.of(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _size_arg(text: str) -> tuple[int, int]:
    try:
        s_text, b_text = text.lower().split("x")
        return int(s_text), int(b_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"size {text!r} must look like 16x16") from exc


def _square_size_arg(text: str) -> tuple[int, int]:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"size {text!r} must be an integer") from exc
    return n, n


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _derived_seed(seed: int, s: int, b: int) -> int:
    """The sampling seed of one sweep row: distinct (seed, s, b) triples get
    independent streams, and the result stays below 2^63 so that seed + 1
    (the extreme points' stream) is a valid seed too."""
    return int(np.random.SeedSequence([seed, s, b]).generate_state(1, np.uint64)[0]) >> 1


def sweep_row(
    p1, p2, q1, q2, s: int, b: int,
    *, samples: int = 16, seed: int = 0, partition_kind: str = "good",
    d_override: int | None = None, k_override: int | None = None,
) -> dict:
    """One table row: build the partition for (s, b), run the pipeline on
    seeded samples (ball points, plus extreme points for the (inf, 1)
    ball), and record the sampled supremum of the error and of the
    certified bound.  The grid is checked first."""
    shape = BlockShape(s, b)
    if d_override is not None and d_override < 2:
        raise ValueError(f"d={d_override} must be at least 2")
    if k_override is not None and k_override < 1:
        raise ValueError(f"k={k_override} must be at least 1")
    if seed < 0:
        raise ValueError(f"seed={seed} must be non-negative")
    if samples < 1:
        raise ValueError(f"samples={samples} must be at least 1")
    params = choose_pipeline_params(p1, p2, q1, q2, s, b)
    if d_override is not None:
        params = replace(params, d=d_override)
    if k_override is not None:
        params = replace(params, k=k_override)

    ops = pipeline_operators(s, b, params.d, partition_kind)
    sup = sampled_sup(shape, params, ops, _derived_seed(seed, s, b), samples)
    sup_error = sup.sup_error
    d0 = d0_mixed(shape, params.p1, params.p2, params.q1, params.q2)
    return {
        "s": s,
        "b": b,
        "d": params.d,
        "k": params.k,
        "r": max(op.partition.r for op in ops.values()),
        "l": max(op.partition.l for op in ops.values()),
        "dim": sup.dim,
        "d0": d0,
        "sup_sampled_error": sup_error,
        "ratio": sup_error / d0,
        "certified_bound": sup.sup_bound,
    }


def _rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def _cmd_classify(args) -> int:
    report = classify(args.p1, args.p2, args.q1, args.q2)
    _emit(json.dumps(report.to_json_dict()) + "\n", args.out)
    return 0


def _cmd_design(args) -> int:
    try:
        design = affine_line_design(args.r, args.d)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(json.dumps(design.to_json_dict()) + "\n", args.out)
    if args.verify:
        report = verify_design(design)
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "m": design.m,
                    "l_observed": report.l_observed,
                    "violations": list(report.violations),
                }
            )
        )
        if not report.ok:
            return 3
    return 0


def _cmd_partition(args) -> int:
    try:
        if args.transpose:
            if args.s != args.b:
                print("error: transposition partition needs s == b", file=sys.stderr)
                return 3
            partition = transposition_partition(args.s)
        else:
            partition = good_partition(args.s, args.b, args.d)
        report = verify_partition(partition) if args.verify else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(json.dumps(partition.to_json_dict()) + "\n", args.out)
    if report is not None:
        print(json.dumps(asdict(report)))
        if not report.ok:
            return 3
    return 0


def _reject_non_exceptional(args) -> int | None:
    report = classify(args.p1, args.p2, args.q1, args.q2)
    if report.case_label != "exceptional":
        print(json.dumps(report.to_json_dict()))
        print("error: pipeline needs an exceptional tuple", file=sys.stderr)
        return 3
    return None


def _cmd_bound(args) -> int:
    failed = _reject_non_exceptional(args)
    if failed is not None:
        return failed
    try:
        row = sweep_row(
            args.p1, args.p2, args.q1, args.q2, args.s, args.b,
            samples=args.samples, seed=args.seed,
            partition_kind="transposition" if args.transpose else "good",
            d_override=args.d, k_override=args.k,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(json.dumps(row) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    failed = _reject_non_exceptional(args)
    if failed is not None:
        return failed
    rows = []
    try:
        for s, b in args.sizes:  # every grid is checked before the first row runs
            BlockShape(s, b)
        for s, b in args.sizes:
            rows.append(
                sweep_row(
                    args.p1, args.p2, args.q1, args.q2, s, b,
                    samples=args.samples, seed=args.seed,
                    partition_kind=args.partition, d_override=args.d, k_override=args.k,
                )
            )
    except ValueError as exc:
        print(f"error at size {s}x{b}: {exc}", file=sys.stderr)
        return 3
    if args.format == "csv":
        _emit(_rows_to_csv(rows), args.out)
    else:
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedwidths",
        description="Mixed-norm ball geometry: classification, designs, "
        "partitions, and approximation sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tuple_flags(p):
        p.add_argument("--p1", type=_exponent_arg, required=True)
        p.add_argument("--p2", type=_exponent_arg, required=True)
        p.add_argument("--q1", type=_exponent_arg, required=True)
        p.add_argument("--q2", type=_exponent_arg, required=True)

    def add_common_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=16)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("classify", help="classify an exponent tuple")
    add_tuple_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("design", help="affine-line design on r^d points")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("partition", help="grid partition with certified bounds")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--transpose", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("bound", help="single-size pipeline run")
    add_tuple_flags(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--transpose", action="store_true")
    add_common_flags(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("sweep", help="pipeline sweep over a size grid")
    add_tuple_flags(p)
    p.add_argument("--sizes", type=_size_arg, nargs="+", required=True, metavar="SxB")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--partition", choices=("good", "transposition"), default="good")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common_flags(p)
    p.set_defaults(func=_cmd_sweep)

    # a preset of sweep: the (inf,1) -> (1,2) tuple on square grids, as JSON
    p = sub.add_parser("example-transpose", help="square (inf,1) -> (1,2) example")
    p.add_argument(
        "--sizes", type=_square_size_arg, nargs="+", default=[(4, 4), (8, 8), (16, 16)], metavar="N"
    )
    add_common_flags(p)
    p.set_defaults(
        func=_cmd_sweep,
        p1=Exponent.INF, p2=Exponent.ONE, q1=Exponent.ONE, q2=Exponent.TWO,
        partition="transposition", format="json", d=None, k=None,
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
