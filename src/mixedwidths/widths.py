"""Exact width formulas for flat balls and the classifier of the
rigid / non-rigid parameter region for mixed-norm balls.

A tuple (p1, p2, q1, q2) is rigid exactly when the inner pair satisfies
q1 <= max(p1, 2), the outer pair satisfies q2 <= max(p2, 2), and the
tuple avoids the exceptional region q1 < min(p1, q2), p2 < q2 <= 2.
Rigid tuples carry a proof-case label; non-rigid ones name the failing
condition.  All comparisons run on exact rational reciprocals.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .norms import BlockShape, Exponent, d0_mixed, float_pow, recip_gap
from .partitions import good_partition  # noqa: F401 - perfbench's self-test asserts this lookup
from .spread import (
    _exceptional_failure,
    approximate,  # noqa: F401 - perfbench's tracer patches this lookup and its self-test asserts it
    choose_pipeline_params,
    pipeline_operators,
    sampled_sup,
)

__all__ = [
    "RegimeReport",
    "classify",
    "pietsch_stesin",
    "b1_l2_width",
    "CertificateRecord",
    "rigidity_certificate",
    "WitnessRecord",
    "nonrigidity_witness",
]


@dataclass(frozen=True)
class RegimeReport:
    """Verdict for one exponent tuple.

    case_label is one of a/b/c/d1/d2 for rigid tuples (the applicable
    lower-bound argument) and inner-fail/outer-fail/exceptional for
    non-rigid ones (the first broken condition).  d0_exponents are the
    exact exponents of s and b in the zero-dimensional width.
    """

    p1: Exponent
    p2: Exponent
    q1: Exponent
    q2: Exponent
    verdict: str
    case_label: str
    d0_exponents: tuple[Fraction, Fraction]

    @property
    def rigid(self) -> bool:
        return self.verdict == "Rigid"

    def to_json_dict(self) -> dict:
        e1, e2 = self.d0_exponents
        return {
            "p1": str(self.p1),
            "p2": str(self.p2),
            "q1": str(self.q1),
            "q2": str(self.q2),
            "verdict": self.verdict,
            "case_label": self.case_label,
            "d0_exponents": [f"{e1.numerator}/{e1.denominator}", f"{e2.numerator}/{e2.denominator}"],
        }


def _inner_ok(p1: Exponent, q1: Exponent) -> bool:
    """q1 <= max(p1, 2)."""
    return q1 <= p1 or q1 <= Exponent.TWO


def _outer_ok(p2: Exponent, q2: Exponent) -> bool:
    """q2 <= max(p2, 2)."""
    return q2 <= p2 or q2 <= Exponent.TWO


def _rigid_case(p1: Exponent, p2: Exponent, q1: Exponent, q2: Exponent) -> str:
    two = Exponent.TWO
    if p1 >= q1 and p2 >= q2:
        return "a"
    if p1 < q1 <= two and p2 < q2 <= two:
        return "b"
    if p1 < q1 <= two and p2 >= q2:
        return "c"
    if p1 >= q1 and p2 < q2 <= two:
        if q1 >= q2:
            return "d1"
        if p1 == q1 <= two:
            return "d2"
    raise AssertionError("rigid tuple fell through the case analysis")


def classify(p1, p2, q1, q2) -> RegimeReport:
    """Classify an exponent tuple as rigid (with proof case) or non-rigid
    (with the first failing condition, checked in the order inner, outer,
    exceptional)."""
    p1, p2, q1, q2 = (Exponent.of(e) for e in (p1, p2, q1, q2))
    exponents = (recip_gap(q1, p1), recip_gap(q2, p2))

    if not _inner_ok(p1, q1):
        verdict, label = "NonRigid", "inner-fail"
    elif not _outer_ok(p2, q2):
        verdict, label = "NonRigid", "outer-fail"
    elif _exceptional_failure(p1, p2, q1, q2) is None:
        verdict, label = "NonRigid", "exceptional"
    else:
        verdict, label = "Rigid", _rigid_case(p1, p2, q1, q2)

    return RegimeReport(
        p1=p1, p2=p2, q1=q1, q2=q2,
        verdict=verdict, case_label=label, d0_exponents=exponents,
    )


def pietsch_stesin(N: int, n: int, p, q) -> float:
    """Width of the flat p-ball in the q-norm for p >= q: (N-n)^(1/q-1/p)."""
    p, q = Exponent.of(p), Exponent.of(q)
    if not 0 <= n <= N:
        raise ValueError(f"dimension {n} outside [0, {N}]")
    if p < q:
        raise ValueError(f"formula needs p >= q, got p={p}, q={q}")
    return float_pow(N - n, q.recip - p.recip)


def b1_l2_width(N: int, n: int) -> float:
    """Width of the flat 1-ball in the 2-norm: (1 - n/N)^(1/2)."""
    if not 0 <= n <= N:
        raise ValueError(f"dimension {n} outside [0, {N}]")
    return math.sqrt(float(1 - Fraction(n, N)))


@dataclass(frozen=True)
class CertificateRecord:
    """Lower-bound chain for a rigid tuple with every power of s, b and
    eps evaluated; constants that the argument leaves unresolved stay
    symbolic and are never given invented numeric values."""

    case_label: str
    numeric_factor: float
    symbolic_constant: str | None
    d0: float
    chain: tuple[str, ...]


def rigidity_certificate(report: RegimeReport, s: int, b: int, n: int, eps) -> CertificateRecord:
    """Evaluate the lower-bound chain of the report's proof case at the
    given sizes.  Requires n <= s*b*(1 - eps)."""
    if not report.rigid:
        raise ValueError("certificates exist only for rigid tuples")
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps={eps} must lie in (0, 1)")
    N = s * b
    if n > N * (1 - eps):
        raise ValueError(f"n={n} exceeds N(1-eps)={float(N * (1 - eps))}")

    p1, p2, q1, q2 = report.p1, report.p2, report.q1, report.q2
    shape = BlockShape(s, b)
    d0 = d0_mixed(shape, p1, p2, q1, q2)
    case = report.case_label

    if case == "a":
        factor = float(eps) * d0
        chain = (
            f"ball contains s^(-1/p1) * b^(-1/p2) times the sup-norm cube",
            f"cube width in the mixed norm >= eps * s^(1/q1) * b^(1/q2)"
            f" [flat width formula applied blockwise]",
            f"numeric factor eps * d0 = {factor!r}",
        )
        return CertificateRecord(case, factor, None, d0, chain)

    if case in ("b", "d2"):
        factor = float_pow(float(eps), Fraction(1, 2))
        chain = (
            "ball contains the flat 1-ball; mixed norm dominates the flat 2-norm",
            "width >= (1 - n/N)^(1/2) >= eps^(1/2)",
            f"numeric factor eps^(1/2) = {factor!r} (d0 = {d0!r})",
        )
        return CertificateRecord(case, factor, None, d0, chain)

    if case == "c":
        factor = float_pow(b, recip_gap(q2, p2))
        chain = (
            "replace the inner pair by (1, 2); width can only decrease, d0 unchanged",
            "ball contains b^(-1/p2) times the (1, inf) ball",
            "outer 1-norm <= b^(1-1/q2) * outer q2-norm",
            f"width >= c(eps) * b^(1/q2 - 1/p2) = c(eps) * {factor!r}",
        )
        return CertificateRecord(case, factor, "c(eps)", d0, chain)

    if case == "d1":
        factor = float_pow(s, recip_gap(q1, p1))
        chain = (
            "mixed norm >= s^(1/q1 - 1/q2) * flat q2-norm",
            "flat-norm width of the mixed ball >= c(q2, eps) * its d0",
            f"width >= c(q2, eps) * s^(1/q1 - 1/p1) = c(q2, eps) * {factor!r}",
        )
        return CertificateRecord(case, factor, "c(q2,eps)", d0, chain)

    raise AssertionError(f"unknown case label {case}")


@dataclass(frozen=True)
class WitnessRecord:
    """Evidence against rigidity.

    kind = "computed": a concrete subspace was built and sampled; n is
    its dimension and error_ratio the sampled supremum of the pipeline
    error divided by d0.  kind = "analytic": the failing coordinate ball
    is non-rigid by the known flat-ball estimate; no construction is run
    and the constants stay symbolic.
    """

    kind: str
    n: int | None
    error_ratio: float | None
    sup_error: float | None
    d0: float
    detail: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def nonrigidity_witness(
    p1, p2, q1, q2, s: int, b: int,
    *, samples: int = 12, seed: int = 0, strategy: str = "auto",
) -> WitnessRecord:
    """Witness for a non-rigid tuple at the given sizes.

    Exceptional tuples get a computed witness: the pipeline runs on
    sampled ball points (plus extreme points for the (inf, 1) ball) and
    the sampled supremum of the error is reported against d0.  strategy
    is the kind of pipeline_operators, "auto" naming "good".  Tuples
    failing the inner or outer condition get an analytic stub record,
    since the flat-ball estimate behind them is not constructive here.
    """
    if seed < 0:
        raise ValueError(f"seed={seed} must be non-negative")
    if samples < 1:
        raise ValueError(f"samples={samples} must be at least 1")
    report = classify(p1, p2, q1, q2)
    if report.rigid:
        raise ValueError("tuple is rigid; no non-rigidity witness exists")
    p1, p2, q1, q2 = report.p1, report.p2, report.q1, report.q2
    shape = BlockShape(s, b)
    d0 = d0_mixed(shape, p1, p2, q1, q2)

    if report.case_label in ("inner-fail", "outer-fail"):
        which = "inner" if report.case_label == "inner-fail" else "outer"
        return WitnessRecord(
            kind="analytic",
            n=None,
            error_ratio=None,
            sup_error=None,
            d0=d0,
            detail=(
                f"the {which} coordinate ball admits low-dimensional "
                "approximation with rate N^(-delta(p,q)) at dimension "
                "N^(1-delta(p,q)); constants C(p,q), delta(p,q) symbolic, "
                "not computed"
            ),
        )

    params = choose_pipeline_params(p1, p2, q1, q2, s, b)
    ops = pipeline_operators(s, b, params.d, "good" if strategy == "auto" else strategy)
    sup = sampled_sup(shape, params, ops, seed, samples)
    return WitnessRecord(
        kind="computed",
        n=sup.dim,
        error_ratio=sup.sup_error / d0,
        sup_error=sup.sup_error,
        d0=d0,
        detail=f"pipeline with d={params.d}, k={params.k} over {sup.count} sampled points",
    )
