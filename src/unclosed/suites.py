"""Named verification suites shared by the CLI and the acceptance tests.

Each suite checks one acceptance criterion (plus one extra arc-bound
measurement) and returns a `SuiteResult` whose `details` rows are plain
JSON-ready dictionaries.  The CLI `verify`/`report` subcommands and
tests/test_acceptance.py both dispatch through `run_suite`, so a criterion
passes on the command line exactly when it passes under pytest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import mpmath as mp

from .field import FieldElem, PHI_INV, SQRT5
from .series import VPoly, gaussian_integrate
from .expansion import assembled_series, compute_expansion
from .sequences import polylog_delta
from . import divergence, qseries

__all__ = ["SuiteResult", "SUITES", "run_suite", "run_all"]

DIVERGENCE_ORDER = 12  # expansion order used by the growth/parity criteria


@dataclass
class SuiteResult:
    name: str
    criterion: str
    ok: bool
    details: List[dict] = field(default_factory=list)
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status}  {self.name}: {self.criterion}"


def suite_b1() -> SuiteResult:
    expected = SQRT5 * Fraction(1, 40)
    result = compute_expansion(1, precision=30)
    ok = result.b[1] == expected
    return SuiteResult(
        name="b1",
        criterion="first-order coefficient equals sqrt5/40 exactly",
        ok=ok,
        details=[
            {"computed": result.b[1].render(), "expected": expected.render(), "float": result.b_float[1]}
        ],
    )


def suite_e_table() -> SuiteResult:
    expected = {0: SQRT5, 1: FieldElem(4), 2: SQRT5 * 8}
    rows = []
    ok = True
    for n, want in expected.items():
        got = polylog_delta(n)
        match = got == want
        ok = ok and match
        rows.append({"n": n, "computed": got.render(), "expected": want.render(), "match": match})
    return SuiteResult(
        name="e-table",
        criterion="delta values at n = 0, 1, 2 are sqrt5, 4, 8*sqrt5 exactly",
        ok=ok,
        details=rows,
    )


def suite_moments() -> SuiteResult:
    # v**2 = -sqrt5 * w**2 for the graded variable w = i*v/5**(1/4)
    four = gaussian_integrate(VPoly.monomial(4, (-SQRT5) ** 2))
    six = gaussian_integrate(VPoly.monomial(6, (-SQRT5) ** 3))
    ok = four == FieldElem(3) and six == FieldElem(15)
    return SuiteResult(
        name="moments",
        criterion="Gaussian moments of v**4 and v**6 are 3 and 15 exactly",
        ok=ok,
        details=[{"v4": four.render(), "v6": six.render()}],
    )


def suite_scaling() -> SuiteResult:
    grid = ("0.2", "0.1", "0.05")
    ctx = qseries.PrecisionContext(digits=80)
    result = compute_expansion(2, precision=40)
    rows = []
    with mp.workdps(ctx.digits + qseries.GUARD_DIGITS):
        b1 = result.b[1].embed(60)
        b2 = result.b[2].embed(60)
        r2 = []
        r3 = []
        for s in grid:
            smp = mp.mpf(s)
            R = qseries.normalized_remainder(s, ctx)
            res2 = abs(R - 1 - b1 * smp) / smp ** 2
            res3 = abs(R - 1 - b1 * smp - b2 * smp ** 2) / smp ** 3
            r2.append(res2)
            r3.append(res3)
            rows.append({"s": s, "resid2_over_s2": mp.nstr(res2, 10), "resid3_over_s3": mp.nstr(res3, 10)})
        spread2 = float(max(r2) / min(r2))
        spread3 = float(max(r3) / min(r3))
    # "within a factor 4 of one constant" allows max/min up to 16
    ok = spread2 <= 16 and spread3 <= 16
    rows.append({"spread2": spread2, "spread3": spread3, "allowed": 16.0})
    return SuiteResult(
        name="scaling",
        criterion="residuals scale like s**2 (and s**3 with the next coefficient)",
        ok=ok,
        details=rows,
    )


def suite_constant_term() -> SuiteResult:
    report = qseries.constant_term_check(20)
    return SuiteResult(
        name="constant-term",
        criterion="constant-term identity matches the direct series through q**20",
        ok=report.ok,
        details=[
            {
                "order": report.order,
                "half_powers_cancelled": report.half_powers_cancelled,
                "first_mismatch": report.first_mismatch,
            }
        ],
    )


def suite_logpoch() -> SuiteResult:
    report = qseries.log_poch_check(
        PHI_INV, 0.0, 2, ("0.1", "0.05"), qseries.PrecisionContext(digits=50)
    )
    ratio = report.halving_ratios[0]
    ok = 4.0 <= ratio <= 16.0
    return SuiteResult(
        name="logpoch",
        criterion="truncation error ratio across halved s lies in [4, 16] (target 8)",
        ok=ok,
        details=[
            {
                "w": report.w_label,
                "order": report.order,
                "errors": [mp.nstr(r.abs_err, 8) for r in report.rows],
                "ratio": ratio,
            }
        ],
    )


def suite_ebar() -> SuiteResult:
    digits = 60
    err12 = abs(float(divergence.normalized_polylog_delta(12, digits) - 1))
    errors = [
        abs(float(divergence.normalized_polylog_delta(n, digits) - 1)) for n in range(5, 31)
    ]
    rate, _ = divergence.fit_geometric_rate(range(5, 31), errors)
    ok = err12 < 1e-3 and rate < 1.0
    return SuiteResult(
        name="ebar",
        criterion="scaled delta values approach 1: |err(12)| < 1e-3, fitted rate < 1",
        ok=ok,
        details=[{"err_at_12": err12, "fitted_rate": rate}],
    )


def suite_divergence() -> SuiteResult:
    result = compute_expansion(DIVERGENCE_ORDER, precision=30)
    section = divergence.b_growth(result)
    nonzero_c = all(not x.is_zero() for x in result.c[1:])
    ok = section.tail_increasing and nonzero_c
    return SuiteResult(
        name="divergence",
        criterion="|b_j|**(1/j) strictly increases on the last 4 indices; c_2..c_12 nonzero",
        ok=ok,
        details=[
            {
                "roots": list(section.roots),
                "tail_increasing": section.tail_increasing,
                "all_c_nonzero": nonzero_c,
                "ratio_cross_index": section.ratio_cross_index,
            }
        ],
    )


def suite_partial_exp() -> SuiteResult:
    e10 = divergence.partial_exp_max_error(10)
    e40 = divergence.partial_exp_max_error(40)
    ok = e40 < e10 and e40 < 1e-5
    return SuiteResult(
        name="partial-exp",
        criterion="partial exponential max error on [-2,2] shrinks k=10 -> 40 and < 1e-5",
        ok=ok,
        details=[{"err_k10": e10, "err_k40": e40}],
    )


def _ungraded_mean(p: VPoly, digits: int) -> mp.mpc:
    """Gaussian mean of p(w) after undoing w = i*v/5**(1/4), in complex floats.

    Independent of the exact moment table: the w**j coefficient is scaled by
    (i * 5**(-1/4))**j and weighted by (j-1)!!, which is E[v**j] for even j.
    Odd j only feed the imaginary part, where their nonzero weight exposes
    an odd w-power that the grading should have kept off an even t-power.
    """
    with mp.workdps(digits):
        unit = mp.mpc(0, 1) / mp.root(5, 4)
        total = mp.mpc(0)
        weight = [mp.mpf(1), mp.mpf(1)]  # (j-1)!! for j = 0, 1
        for j, c in enumerate(p.coeffs):
            if j >= 2:
                weight.append(weight[j - 2] * (j - 1))
            if c:
                total += c.embed(digits) * unit ** j * weight[j]
        return total


def suite_parity() -> SuiteResult:
    # the t**24 sum cancels terms up to 1e18 down to b_12 ~ 0.87, so 80
    # working digits keep the 1e-50 tolerance about 13 digits clear
    digits = 80
    tol = mp.mpf("1e-50")
    result = compute_expansion(DIVERGENCE_ORDER, precision=30)
    series = assembled_series(DIVERGENCE_ORDER)
    odd_ok = all(
        gaussian_integrate(series.coeff(m)).is_zero()
        for m in range(1, 2 * DIVERGENCE_ORDER + 1, 2)
    )
    means = [_ungraded_mean(series.coeff(2 * j), digits) for j in range(DIVERGENCE_ORDER + 1)]
    exact = [bj.embed(digits) for bj in result.b]
    with mp.workdps(digits):
        real_ok = all(abs(x.imag) < tol for x in means)
        subfield_ok = all(abs(x.real - y) < tol * (1 + abs(y)) for x, y in zip(means, exact))
    ok = odd_ok and real_ok and subfield_ok
    return SuiteResult(
        name="parity",
        criterion="odd powers integrate to exactly 0; every b_j is real and in Q(sqrt5)",
        ok=ok,
        details=[
            {"odd_vanish": odd_ok, "all_real": real_ok, "all_in_sqrt5_field": subfield_ok}
        ],
    )


def suite_minor_arc() -> SuiteResult:
    report = qseries.minor_arc_check()
    ok = report.fitted_constant <= 10.0
    return SuiteResult(
        name="minor-arc",
        criterion="arc quotient bounded by C * exp(main - sqrt5/(2 s**(1/3))) with C <= 10",
        ok=ok,
        details=[
            {"fitted_constant": report.fitted_constant,
             "arc_condition_used": report.arc_condition_used,
             "arc_condition_alt": report.arc_condition_alt},
            *[
                {"s": r.s, "v": r.v, "margin": r.margin}
                for r in report.rows
            ],
        ],
    )


SUITES: Dict[str, Tuple[str, Callable[[], SuiteResult]]] = {
    "b1": ("AC-1", suite_b1),
    "e-table": ("AC-2", suite_e_table),
    "moments": ("AC-3", suite_moments),
    "scaling": ("AC-4", suite_scaling),
    "constant-term": ("AC-5", suite_constant_term),
    "logpoch": ("AC-6", suite_logpoch),
    "ebar": ("AC-7", suite_ebar),
    "divergence": ("AC-8", suite_divergence),
    "partial-exp": ("AC-9", suite_partial_exp),
    "parity": ("AC-10", suite_parity),
    "minor-arc": ("extra", suite_minor_arc),
}


def run_suite(name: str) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite: {name}; known: {', '.join(sorted(SUITES))}")
    _, fn = SUITES[name]
    start = time.perf_counter()
    result = fn()
    result.elapsed = time.perf_counter() - start
    return result


def run_all() -> List[Tuple[str, SuiteResult]]:
    """Run every registered suite in canonical (sorted) order."""
    out = []
    for name in sorted(SUITES):
        tag, _ = SUITES[name]
        out.append((tag, run_suite(name)))
    return out
