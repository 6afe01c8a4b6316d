"""Acceptance criteria, one test per criterion.

Each test dispatches through the same suite registry the CLI `report`
subcommand uses and prints a single PASS/FAIL line, so `pytest -s` (or the
captured output on failure) shows the per-criterion verdict.  Tolerances
are pinned inside unclosed.suites.
"""

import mpmath as mp
import pytest

from unclosed import expansion, series, suites
from unclosed.field import FieldElem
from unclosed.series import VPoly
from unclosed.suites import run_suite


def check(tag, name, max_seconds=None):
    result = run_suite(name)
    assert result.tag == tag, f"suite {name} carries tag {result.tag}, not {tag}"
    print(f"[{tag}] {result.line()}  ({result.elapsed:.2f}s)")
    assert result.ok, f"{tag} failed: {result.details}"
    if max_seconds is not None:
        assert result.elapsed < max_seconds, f"{tag} exceeded its runtime budget"


def test_ac01_exact_first_coefficient():
    # exact equality with sqrt5/40, runtime < 1 s (coefficients are cached
    # process-wide, so charge the cold run to this first test generously)
    check("AC-1", "b1", max_seconds=1.0)


def test_ac02_delta_table():
    check("AC-2", "e-table", max_seconds=1.0)


def test_ac01_fails_on_wrong_b1(monkeypatch):
    # the expected sqrt5/40 is a literal; a b_1 of 41*sqrt5/40 must fail
    good = suites.compute_expansion

    def off_by_one(order):
        result = good(order)
        b1 = FieldElem(result.b[1].p, result.b[1].q + 1)
        return result._replace(b=(result.b[0], b1, *result.b[2:]))

    monkeypatch.setattr(suites, "compute_expansion", off_by_one)
    result = run_suite("b1")
    assert not result.ok
    assert result.details[0]["computed"] == "0 + 41/40*sqrt5"


@pytest.mark.parametrize("n", [0, 1, 2])
def test_ac02_fails_on_wrong_delta(monkeypatch, n):
    # the expected sqrt5, 4 and 8*sqrt5 are literals; each delta value with its
    # nonzero coordinate off by one must fail
    good = suites.polylog_delta

    def off_by_one(k):
        d = good(k)
        if k != n:
            return d
        return FieldElem(d.p + 1, d.q) if k % 2 else FieldElem(d.p, d.q + 1)

    monkeypatch.setattr(suites, "polylog_delta", off_by_one)
    result = run_suite("e-table")
    assert not result.ok
    assert [row["match"] for row in result.details] == [k != n for k in range(3)]


def test_ac03_gaussian_moments():
    check("AC-3", "moments")


def test_ac04_numeric_exact_agreement():
    check("AC-4", "scaling", max_seconds=120.0)


def test_ac05_constant_term_identity():
    check("AC-5", "constant-term", max_seconds=60.0)


def test_ac06_log_pochhammer_truncation():
    check("AC-6", "logpoch")


def test_ac07_scaled_delta_convergence():
    check("AC-7", "ebar")


def test_ac08_divergence_witness():
    check("AC-8", "divergence")


def test_ac09_partial_exponential_limit():
    check("AC-9", "partial-exp")


def test_ac10_parity_reality():
    check("AC-10", "parity")


def complex_ungraded_mean(p, j):
    """The former complex-float route to suites._ungraded_mean, times sqrt5**j:
    each w'**k coefficient scaled by i**k and weighted by (k-1)!!, summed in
    80-digit complex floats."""
    with mp.workdps(80):
        total = mp.mpc(0)
        weight = [mp.mpf(1), mp.mpf(1)]  # (k-1)!! for k = 0, 1
        for k, c in enumerate(p.coeffs):
            if k >= 2:
                weight.append(weight[k - 2] * (k - 1))
            if c:
                total += mp.mpf(c.numerator) / c.denominator * mp.mpc(0, 1) ** k * weight[k]
        return total * mp.sqrt(5) ** j


def test_ac10_exact_means_agree_with_the_complex_float_route():
    # the t'**24 sum cancels terms up to 8e13 down to b_12 / 5**6 ~ 5.6e-5, so
    # 80 digits leave about 13 digits of room below 1e-50 here (3.9e-64
    # measured); at order 24 they reach only 3.3e-44
    series = suites.assembled_series(suites.DIVERGENCE_ORDER)
    for j, p in enumerate(series[::2]):
        re, im = suites._ungraded_mean(p)
        oracle = complex_ungraded_mean(p, j)
        with mp.workdps(80):
            exact = mp.mpc(mp.mpf(re.numerator) / re.denominator,
                           mp.mpf(im.numerator) / im.denominator) * mp.sqrt(5) ** j
            assert abs(oracle - exact) <= mp.mpf("1e-50") * abs(exact), j


def test_ac10_fails_on_wrong_moment_sign(monkeypatch):
    # E[w'**(2m)] = (2m-1)!! instead of (-1)**m (2m-1)!!, as if w' = v rather
    # than i*v, changes the exact b_j but not the ungraded numeric route, so
    # AC-10 must fail; the table is first grown past every w'-degree used
    series.gaussian_integrate(VPoly.monomial(6 * suites.DIVERGENCE_ORDER))
    flipped = [(-1) ** m * e for m, e in enumerate(series._moments)]
    monkeypatch.setattr(series, "_moments", flipped)
    monkeypatch.setattr(expansion, "_prefix", None)
    result = run_suite("parity")
    assert not result.ok
    assert result.details == [
        {"odd_vanish": True, "all_real": True, "all_in_sqrt5_field": False}
    ]


@pytest.mark.parametrize("shift", [1, -1])
def test_ac10_fails_on_wrong_rescale(monkeypatch, shift):
    # one power of sqrt5 too many (or too few) on the way back to Q(sqrt5)
    monkeypatch.setattr(expansion, "to_field", lambda x, j: series.to_field(x, j + shift))
    monkeypatch.setattr(expansion, "_prefix", None)
    result = run_suite("parity")
    assert not result.ok
    assert result.details == [
        {"odd_vanish": True, "all_real": True, "all_in_sqrt5_field": False}
    ]


@pytest.mark.parametrize("power, degree, key", [(1, 0, "odd_vanish"), (2, 1, "all_real")])
def test_ac10_fails_on_broken_grading(monkeypatch, power, degree, key):
    # a w'**degree term on t'**power breaks "w'-degree = t'-power mod 2"
    good = suites.assembled_series(suites.DIVERGENCE_ORDER)
    p = good[power]
    coeffs = [p.coeff(j) for j in range(max(len(p.P), degree + 1))]
    coeffs[degree] += 1
    bad = good[:power] + (VPoly(coeffs),) + good[power + 1:]
    monkeypatch.setattr(suites, "assembled_series", lambda order: bad)
    result = run_suite("parity")
    assert not result.ok
    assert [k for k, ok in result.details[0].items() if not ok] == [key]


def test_ac10_fails_on_an_odd_power_that_integrates_to_zero(monkeypatch):
    # 1 + w'**2 added on t'**3 has Gaussian mean 1 - 1 = 0, so expansion._build
    # accepts it and every b_j stays the same; only its even w'-powers show it
    good = expansion.exp_series

    def planted(a):
        total = good(a)
        coeffs = [total[3].coeff(j) for j in range(max(len(total[3].P), 3))]
        coeffs[0] += 1
        coeffs[2] += 1
        return total[:3] + (VPoly(coeffs),) + total[4:]

    monkeypatch.setattr(expansion, "exp_series", planted)
    monkeypatch.setattr(expansion, "_prefix", None)
    assert series.gaussian_integrate(VPoly([1, 0, 1])) == 0
    result = run_suite("parity")
    assert not result.ok
    assert result.details == [
        {"odd_vanish": False, "all_real": True, "all_in_sqrt5_field": True}
    ]


def test_extra_minor_arc_bound():
    # not an acceptance criterion; recorded alongside for completeness
    check("extra", "minor-arc")
