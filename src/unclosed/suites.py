"""Named verification suites shared by the CLI and the acceptance tests.

`SUITES` declares each suite once, as name -> (tag, criterion, check): the
tag is the acceptance criterion it checks (or "extra" for the arc-bound
measurement), and check() returns (ok, details), whose rows are plain
JSON-ready dictionaries.  `run_suite` times the check and is the one place
that builds a `SuiteResult`, which carries the suite's tag.  The CLI
`verify`/`report` subcommands and tests/test_acceptance.py both dispatch
through it, so a criterion passes on the command line exactly when it
passes under pytest.  Every comparison of F(e^-s) with the expansion comes
from `qseries.eval_report`, at its digits.  The exact criteria (AC-1, AC-2,
AC-3 and AC-10) compare exact values by equality, with no tolerance.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Tuple

import mpmath as mp

from .field import FieldElem
from .series import VPoly, gaussian_integrate
from .expansion import assembled_series, compute_expansion
from .sequences import polylog_delta
from . import divergence, qseries

__all__ = ["SuiteResult", "SUITES", "run_suite", "run_all"]

DIVERGENCE_ORDER = 12  # expansion order used by the growth/parity criteria

Check = Tuple[bool, List[dict]]


class SuiteResult(NamedTuple):
    name: str
    tag: str
    criterion: str
    ok: bool
    details: List[dict]
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status}  {self.name}: {self.criterion}"


def suite_b1() -> Check:
    expected = FieldElem(0, Fraction(1, 40))
    b1 = compute_expansion(1).b[1]
    details = [{"computed": b1.render(), "expected": expected.render(),
                "float": mp.nstr(b1.embed(30), 30)}]
    return b1 == expected, details


def suite_e_table() -> Check:
    expected = {0: FieldElem(0, 1), 1: FieldElem(4), 2: FieldElem(0, 8)}
    rows = []
    for n, want in expected.items():
        got = polylog_delta(n)
        rows.append({"n": n, "computed": got.render(), "expected": want.render(), "match": got == want})
    return all(row["match"] for row in rows), rows


def suite_moments() -> Check:
    # v**2 = -w'**2 for the rescaled variable w' = i*v
    four = gaussian_integrate(VPoly.monomial(4))
    six = gaussian_integrate(VPoly.monomial(6, -1))
    return four == 3 and six == 15, [{"v4": str(four), "v6": str(six)}]


def suite_scaling() -> Check:
    rows, r2, r3 = [], [], []
    # the residuals print to 10 digits and their spreads as floats; at
    # mpmath's default 15 digits the spreads would round twice
    with mp.workdps(60):
        for s in ("0.2", "0.1", "0.05"):
            smp = mp.mpf(s)
            r2.append(qseries.eval_report(s, 1).abs_err / smp ** 2)
            r3.append(qseries.eval_report(s, 2).abs_err / smp ** 3)
            rows.append({"s": s, "resid2_over_s2": mp.nstr(r2[-1], 10), "resid3_over_s3": mp.nstr(r3[-1], 10)})
        spread2 = float(max(r2) / min(r2))
        spread3 = float(max(r3) / min(r3))
    rows.append({"spread2": spread2, "spread3": spread3, "allowed": 16.0})
    # "within a factor 4 of one constant" allows max/min up to 16
    return spread2 <= 16 and spread3 <= 16, rows


def suite_constant_term() -> Check:
    order = 20
    report = qseries.constant_term_check(order)
    details = [{"order": order, "half_powers_cancelled": report.half_powers_cancelled,
                "first_mismatch": report.first_mismatch}]
    return report.ok, details


def suite_logpoch() -> Check:
    w, order = "1/phi", 2
    rows = qseries.log_poch_check(w, 0.0, order, ("0.1", "0.05"))
    ratio = float(rows[0].abs_err / rows[1].abs_err)
    details = [{"w": w, "order": order,
                "errors": [mp.nstr(r.abs_err, 8) for r in rows], "ratio": ratio}]
    return 4.0 <= ratio <= 16.0, details


def suite_ebar() -> Check:
    errors = [abs(float(divergence.normalized_polylog_delta(n) - 1)) for n in range(5, 31)]
    err12 = errors[12 - 5]
    rate, _ = divergence.fit_geometric_rate(range(5, 31), errors)
    return err12 < 1e-3 and rate < 1.0, [{"err_at_12": err12, "fitted_rate": rate}]


def suite_divergence() -> Check:
    result = compute_expansion(DIVERGENCE_ORDER)
    section = divergence.b_growth(result)
    nonzero_c = all(not x.is_zero() for x in result.c[1:])
    details = [{"roots": list(result.growth), "tail_increasing": section.tail_increasing,
                "all_c_nonzero": nonzero_c, "ratio_cross_index": section.ratio_cross_index}]
    return section.tail_increasing and nonzero_c, details


def suite_partial_exp() -> Check:
    e10 = divergence.partial_exp_max_error(10)
    e40 = divergence.partial_exp_max_error(40)
    return e40 < e10 and e40 < 1e-5, [{"err_k10": e10, "err_k40": e40}]


def _ungraded_mean(p: VPoly) -> Tuple[Fraction, Fraction]:
    """Real and imaginary parts of the mean of p(w') over standard Gaussian v, exactly.

    Undoes the w'-rescaling of `unclosed.series` independently of its moment
    table: the w'**k coefficient is scaled by i**k (w' = i*v) and weighted by
    (k-1)!!, which is E[v**k] for even k.  Even k feed the real part and odd
    k the imaginary part, where their nonzero weight exposes an odd w'-power
    that the grading should have kept off an even t'-power.
    """
    parts = [0, 0]  # numerators of the real and imaginary parts, over p.d
    weight = [1, 1]  # (k-1)!! for k = 0, 1
    for k, c in enumerate(p.P):
        if k >= 2:
            weight.append(weight[k - 2] * (k - 1))
        parts[k % 2] += c * weight[k] * (-1) ** (k // 2)
    return Fraction(parts[0], p.d), Fraction(parts[1], p.d)


def suite_parity() -> Check:
    result = compute_expansion(DIVERGENCE_ORDER)
    series = assembled_series(DIVERGENCE_ORDER)
    # odd t'-powers carry only odd w'-powers, whose Gaussian means vanish; their
    # means alone pass by construction, as expansion._build rejects the rest
    odd_ok = not any(any(p.P[::2]) for p in series[1::2])
    means = [_ungraded_mean(p) for p in series[::2]]
    real_ok = all(im == 0 for _, im in means)
    # t'**(2j) = sqrt5**j * s**j, lifted apart from series.to_field: sqrt5**j is
    # 5**(j//2), times sqrt5 at odd j
    lifted = [FieldElem(0, x * 5 ** (j // 2)) if j % 2 else FieldElem(x * 5 ** (j // 2))
              for j, (x, _) in enumerate(means)]
    subfield_ok = lifted == list(result.b)
    details = [{"odd_vanish": odd_ok, "all_real": real_ok, "all_in_sqrt5_field": subfield_ok}]
    return odd_ok and real_ok and subfield_ok, details


def suite_minor_arc() -> Check:
    rows = qseries.minor_arc_check()
    fitted = float(mp.exp(max(r.margin for r in rows)))
    details = [{"fitted_constant": fitted,
                "arc_condition_used": "|v| > s**(-2/3)",
                "arc_condition_alt": "|v| > s**(2/3)"}]
    details += [r._asdict() for r in rows]
    return fitted <= 10.0, details


SUITES: Dict[str, Tuple[str, str, Callable[[], Check]]] = {
    "b1": ("AC-1", "first-order coefficient equals sqrt5/40 exactly", suite_b1),
    "constant-term": ("AC-5", "constant-term identity matches the direct series through q**20",
                      suite_constant_term),
    "divergence": ("AC-8", "|b_j|**(1/j) strictly increases on the last 4 indices; c_2..c_12 nonzero",
                   suite_divergence),
    "e-table": ("AC-2", "delta values at n = 0, 1, 2 are sqrt5, 4, 8*sqrt5 exactly", suite_e_table),
    "ebar": ("AC-7", "scaled delta values approach 1: |err(12)| < 1e-3, fitted rate < 1",
             suite_ebar),
    "logpoch": ("AC-6", "truncation error ratio across halved s lies in [4, 16] (target 8)",
                suite_logpoch),
    "minor-arc": ("extra", "arc quotient bounded by C * exp(main - sqrt5/(2 s**(1/3))) with C <= 10",
                  suite_minor_arc),
    "moments": ("AC-3", "Gaussian moments of v**4 and v**6 are 3 and 15 exactly", suite_moments),
    "parity": ("AC-10", "odd powers integrate to exactly 0; every b_j is real and in Q(sqrt5)",
               suite_parity),
    "partial-exp": ("AC-9", "partial exponential max error on [-2,2] shrinks k=10 -> 40 and < 1e-5",
                    suite_partial_exp),
    "scaling": ("AC-4", "residuals scale like s**2 (and s**3 with the next coefficient)",
                suite_scaling),
}


def run_suite(name: str) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite: {name}; known: {', '.join(sorted(SUITES))}")
    tag, criterion, check = SUITES[name]
    start = time.perf_counter()
    ok, details = check()
    return SuiteResult(name, tag, criterion, ok, details, time.perf_counter() - start)


def run_all() -> List[SuiteResult]:
    """Run every registered suite in canonical (sorted) order."""
    return [run_suite(name) for name in sorted(SUITES)]
