"""Acceptance suite.

Every exit criterion is evaluated at its stated tolerance and prints one
pass/fail line; run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines for passing criteria too.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from mixedwidths import (
    BlockMatrix,
    BlockShape,
    Exponent,
    SpreadOperator,
    affine_line_design,
    approximate,
    b1_l2_width,
    best_k_term,
    ceil_power,
    check_one_column_bound,
    choose_pipeline_params,
    classify,
    d0_mixed,
    extreme_points_inf1,
    good_partition,
    grouped_subspace_approximate,
    lq_norm,
    pietsch_stesin,
    sample_ball,
    singleton_partition,
    transposition_partition,
    verify_design,
    verify_partition,
)
from mixedwidths.cli import sweep_row


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"[ACCEPTANCE] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)
    return ok


def test_criterion_1_design_validity():
    started = time.perf_counter()
    failures = []
    for (r, d) in [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (8, 2)]:
        design = affine_line_design(r, d)
        b = r**d
        report = verify_design(design)
        if not (report.ok and report.l_observed == 1):
            failures.append(f"({r},{d}): pair scan {report.violations}")
        if design.m != r ** (d - 1) * (b - 1) // (r - 1):
            failures.append(f"({r},{d}): m={design.m}")
        if set(design.point_replication()) != {(b - 1) // (r - 1)}:
            failures.append(f"({r},{d}): replication")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 2.0
    assert _verdict(1, "design validity", ok, f"{elapsed:.2f}s"), (failures, elapsed)


def test_criterion_2_partition_properties():
    started = time.perf_counter()
    failures = []
    for d in (2, 3):
        for s in range(1, 65):
            for b in range(1, s + 1):
                part = good_partition(s, b, d)
                report = verify_partition(part)
                if not report.ok:
                    failures.append(f"({s},{b},{d}): {report.violations}")
                    continue
                if b == 1:
                    if part.r != 1 or part.l != 0:
                        failures.append(f"({s},1,{d}): trivial parameters")
                    continue
                u = 1
                while 2 ** (u * d) < b:
                    u += 1
                r, b_full = 2**u, 2 ** (u * d)
                expected_l = -(-(s * (r - 1)) // (b_full - 1))
                if part.r != r or part.l != expected_l:
                    failures.append(f"({s},{b},{d}): r={part.r} l={part.l}")
                if not (b <= r**d <= (2**d) * b):
                    failures.append(f"({s},{b},{d}): block size outside bounds")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    assert _verdict(2, "partition properties", ok, f"{elapsed:.1f}s"), (failures[:5], elapsed)


def test_criterion_3_one_column_certification():
    partitions = [
        good_partition(16, 16, 2),
        good_partition(16, 16, 3),
        good_partition(64, 64, 2),
        good_partition(33, 7, 2),
        good_partition(64, 17, 3),
        transposition_partition(16),
        singleton_partition(12, 8),
    ]
    configs = [
        (p, q1, q2)
        for p in (1, 2, "inf")
        for (q1, q2) in ((1, 2), (1, 1), (2, 2), (2, "inf"))
    ]
    violations = 0
    structural = 0
    checked = 0
    for part_index, part in enumerate(partitions):
        op = SpreadOperator(part)
        s, b = part.shape.s, part.shape.b
        sizes = np.array([len(g) for g in part.groups])
        cell_group = op._group_index
        for conf_index, (p, q1, q2) in enumerate(configs):
            rng = np.random.default_rng(1000 + 97 * part_index + conf_index)
            cols = rng.integers(0, b, size=1000)
            values = rng.standard_normal((1000, s))
            for j, column in zip(cols, values):
                x = BlockMatrix.one_column(part.shape, int(j), column)
                check = check_one_column_bound(op, p, q1, q2, x)
                checked += 1
                if not check.ok:
                    violations += 1
                residual = x - op.apply(x)
                nnz = (residual.as_matrix() != 0).sum(axis=0)
                group_sizes = sizes[cell_group[int(j) * s : (int(j) + 1) * s]]
                if nnz[int(j)] != 0 or (nnz > part.l).any():
                    structural += 1
                if int((residual.entries != 0).sum()) != int((group_sizes - 1).sum()):
                    structural += 1
                if (group_sizes - 1 > part.r - 1).any():
                    structural += 1
    ok = violations == 0 and structural == 0
    assert _verdict(
        3, "one-column error certification", ok,
        f"{checked} checks, {violations} bound / {structural} structural violations",
    )


def test_criterion_4_square_example_exact():
    failures = []
    details = []
    for s in (4, 8, 16):
        params = choose_pipeline_params("inf", 1, 1, 2, s, s)
        part = transposition_partition(s)
        op = SpreadOperator(part)
        d0 = d0_mixed(BlockShape(s, s), "inf", 1, 1, 2)
        for x in extreme_points_inf1(BlockShape(s, s), seed=40 + s, count=5):
            res = approximate(x, params, op)
            if abs(res.certified_bound - math.sqrt(s)) > 1e-12:
                failures.append(f"s={s}: certified {res.certified_bound}")
            if abs(res.measured_error - math.sqrt(s - 1)) > 1e-12:
                failures.append(f"s={s}: measured {res.measured_error}")
            if res.measured_error > res.certified_bound:
                failures.append(f"s={s}: measured above certified")
            if res.dim != s * (s + 1) // 2:
                failures.append(f"s={s}: dim {res.dim}")
            if abs(res.certified_bound / d0 - s**-0.5) > 1e-12:
                failures.append(f"s={s}: ratio {res.certified_bound / d0}")
        details.append(f"s={s}: certified={math.sqrt(s):.4f} measured={math.sqrt(s-1):.4f}")
    ok = not failures
    assert _verdict(4, "square transposition example", ok, "; ".join(details)), failures


def test_criterion_5_exceptional_decay():
    started = time.perf_counter()
    params = choose_pipeline_params("inf", 1, 1, 2, 256, 256)
    assert params.alpha == Fraction(1, 2)

    rows = [sweep_row("inf", 1, 1, 2, s, s, samples=8, seed=0) for s in (16, 64, 256)]
    elapsed = time.perf_counter() - started

    dim_ok = all(
        row["dim"] <= 8 * row["s"] * row["b"] * float(row["b"]) ** (-1.0 / row["d"])
        for row in rows
    )
    ratios = [row["ratio"] for row in rows]
    decay_ok = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = dim_ok and decay_ok and elapsed < 120.0
    _verdict(
        5, "exceptional-case decay", ok,
        f"ratios={['%.4f' % r for r in ratios]} dims={[row['dim'] for row in rows]} {elapsed:.1f}s",
    )
    assert elapsed < 120.0
    assert dim_ok, [(row["s"], row["dim"]) for row in rows]
    assert decay_ok, (
        f"sampled error / d0 not strictly decreasing over sizes 16, 64, 256: {ratios}"
    )


def _direct_qnorm(values, q) -> float:
    # independent of lq_norm: literal formula evaluation
    values = [abs(float(v)) for v in values]
    if not values:
        return 0.0
    if q == "inf":
        return max(values)
    qf = float(Fraction(q))
    return sum(v**qf for v in values) ** (1.0 / qf)


def test_criterion_6_k_term_inequality():
    rng = np.random.default_rng(600)
    exponent_values = [1, Fraction(4, 3), Fraction(3, 2), 2, 3, "inf"]
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 17))
        y = rng.standard_normal(n)
        i, j = sorted(rng.choice(len(exponent_values), size=2, replace=False))
        p, q = Exponent.of(exponent_values[i]), Exponent.of(exponent_values[j])
        k = int(rng.integers(1, n + 1))
        bound = float(k) ** (-float(p.recip - q.recip)) * lq_norm(y, p)
        if best_k_term(y, k - 1, q).error > bound + 1e-9:
            violations += 1

    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        y = rng.standard_normal(n)
        for q in (1, 2, "inf"):
            for k in range(n + 1):
                brute = min(
                    _direct_qnorm([y[i] for i in range(n) if i not in set(supp)], q)
                    for supp in itertools.combinations(range(n), k)
                )
                if abs(best_k_term(y, k, Exponent.of(q)).error - brute) > 1e-12:
                    mismatches += 1
    ok = violations == 0 and mismatches == 0
    assert _verdict(
        6, "k-term decay inequality", ok,
        f"10000 draws, {violations} violations; brute force mismatches {mismatches}",
    )


GRID_VALUES = (1, "4/3", "3/2", 2, "5/2", 3, 4, 8, "inf")


def _leq(a, b) -> bool:
    # a <= b on [1, inf] with "inf" as the top element
    if b == "inf":
        return True
    if a == "inf":
        return False
    return Fraction(a) <= Fraction(b)


def _lt(a, b) -> bool:
    return _leq(a, b) and not _leq(b, a)


def _independent_rigid(p1, p2, q1, q2) -> bool:
    inner = _leq(q1, p1) or _leq(q1, 2)
    outer = _leq(q2, p2) or _leq(q2, 2)
    exceptional = (
        _lt(q1, p1) and _lt(q1, q2) and _lt(p2, q2) and _leq(q2, 2)
    )
    return inner and outer and not exceptional


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


def test_criterion_7_classifier_truth_table():
    rigid_labels = {"a", "b", "c", "d1", "d2"}
    nonrigid_labels = {"inner-fail", "outer-fail", "exceptional"}
    mismatches = 0
    total = 0
    for p1, p2, q1, q2 in itertools.product(GRID_VALUES, repeat=4):
        total += 1
        report = classify(p1, p2, q1, q2)
        expected = _independent_rigid(p1, p2, q1, q2)
        if report.rigid != expected:
            mismatches += 1
            continue
        labels = rigid_labels if report.rigid else nonrigid_labels
        if report.case_label not in labels:
            mismatches += 1

    anchor_failures = [
        (tup, report.verdict, report.case_label, verdict, label)
        for (tup, verdict, label) in ANCHORS
        if ((report := classify(*tup)).verdict, report.case_label) != (verdict, label)
    ]
    ok = mismatches == 0 and not anchor_failures
    assert _verdict(
        7, "classifier truth table", ok,
        f"{total} tuples, {mismatches} mismatches; {len(ANCHORS)} anchors",
    ), anchor_failures


def test_criterion_8_width_oracles():
    failures = []
    cases = {
        ("inf", 1): lambda N, n: float(N - n),
        ("inf", 2): lambda N, n: math.sqrt(N - n),
        (2, 1): lambda N, n: math.sqrt(N - n),
    }
    for N in (4, 16):
        for n in (0, N // 2, N):
            for (p, q), expected in cases.items():
                got = pietsch_stesin(N, n, p, q)
                if abs(got - expected(N, n)) > 1e-12:
                    failures.append(f"flat width N={N} n={n} ({p},{q}): {got}")
            want = math.sqrt(1 - n / N)
            if abs(b1_l2_width(N, n) - want) > 1e-12:
                failures.append(f"crosspoly width N={N} n={n}")
    for s in (4, 16):
        if abs(d0_mixed(BlockShape(s, s), "inf", 1, 1, 2) - s) > 1e-12:
            failures.append(f"d0 square s={s}")
    ok = not failures
    assert _verdict(8, "width oracles", ok), failures


def test_criterion_9_grouped_pipeline():
    failures = []
    for (s, b) in [(8, 32), (8, 64)]:
        params = choose_pipeline_params("inf", 1, 1, 2, s, b)
        shape = BlockShape(s, b)
        points = sample_ball(shape, "inf", 1, seed=900 + b, count=8)
        points += extreme_points_inf1(shape, seed=901 + b, count=8)
        for x in points:
            res = grouped_subspace_approximate(x, params)
            if res.measured_error > res.certified_bound + 1e-9:
                failures.append(f"({s},{b}): residual above aggregated bound")

        # input supported in the first column group reproduces the
        # single-group pipeline exactly
        rng = np.random.default_rng(902 + b)
        column = rng.uniform(-1, 1, s) / s
        x = BlockMatrix.one_column(shape, 2, column)
        grouped = grouped_subspace_approximate(x, params)
        sub = BlockMatrix(BlockShape(s, s), x.entries[: s * s])
        from dataclasses import replace

        single = approximate(
            sub,
            replace(params, k=max(1, ceil_power(s, params.alpha / 4))),
            SpreadOperator(good_partition(s, s, params.d)),
        )
        if grouped.measured_error != single.measured_error:
            failures.append(f"({s},{b}): grouped != single on supported group")
        if not np.array_equal(grouped.approximant.entries[: s * s], single.approximant.entries):
            failures.append(f"({s},{b}): approximant mismatch on supported group")
        if np.any(grouped.approximant.entries[s * s :] != 0):
            failures.append(f"({s},{b}): leakage outside supported group")
    ok = not failures
    assert _verdict(9, "grouped wide-grid pipeline", ok), failures
