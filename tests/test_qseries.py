import warnings

import mpmath as mp
import pytest

from unclosed.field import MINUS_PHI, PHI_INV, SQRT5
from unclosed.qseries import (
    ConstantTermReport,
    PrecisionContext,
    PrecisionError,
    constant_term_check,
    eval_report,
    extract_coefficient,
    f_direct,
    log_poch_check,
    log_pochhammer_inf,
    minor_arc_check,
    normalized_remainder,
    required_digits,
)

# frozen oracle values -------------------------------------------------
# euler product at q = 1/2, from the pentagonal-number series (35 digits)
EULER_HALF = "0.28878809508660242127889972192923078"
# F(e^{-1/2}) from two independent 70-digit summation orders (they agree
# to 2.9e-70); first 50 digits frozen here
F_HALF = "10.124378525604791591395535673118825895087795975738"


def pentagonal_euler(q_str, dps=45):
    with mp.workdps(dps):
        q = mp.mpf(q_str)
        total = mp.mpf(1)
        k = 1
        while k * (3 * k - 1) // 2 < dps * 4:
            total += (-1) ** k * (q ** (k * (3 * k - 1) // 2) + q ** (k * (3 * k + 1) // 2))
            k += 1
        return total


def test_precision_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(digits=29)


def test_required_digits_policy():
    assert required_digits("0.1") == 49  # ceil(pi^2/0.5/ln10) = 9, plus 40
    assert required_digits("0.1", 10) == 59
    with pytest.raises(ValueError):
        required_digits("-1")


def test_pochhammer_finite():
    # mpmath's q-Pochhammer symbol (a; q)_n, which the package relies on
    with mp.workdps(40):
        assert mp.qp(mp.mpf("0.3"), mp.mpf("0.5"), 0) == 1
        val = mp.qp(mp.mpf("0.5"), mp.mpf("0.5"), 2)  # (1 - 1/2)(1 - 1/4)
    with mp.workdps(50):
        assert abs(val - mp.mpf("0.375")) < mp.mpf("1e-38")


def test_pochhammer_infinite_vs_frozen_and_oracle():
    with mp.workdps(40):
        val = mp.qp(mp.mpf("0.5"), mp.mpf("0.5"))
    with mp.workdps(50):
        assert abs(val - mp.mpf(EULER_HALF)) < mp.mpf("1e-34")
        assert abs(val - pentagonal_euler("0.5")) < mp.mpf("1e-38")


def test_f_direct_large_s_near_one():
    val, terms = f_direct("20", PrecisionContext(digits=50))
    with mp.workdps(60):
        assert abs(val - 1) < mp.mpf("1e-4")
    assert terms >= 6  # the m = 0 term plus the five-term stopping streak


def test_f_direct_monotone():
    ctx = PrecisionContext(digits=60)
    assert f_direct("0.4", ctx)[0] > f_direct("0.5", ctx)[0]
    # a smaller s has a longer rise before the terms decay
    assert f_direct("0.4", ctx)[1] > f_direct("0.5", ctx)[1]


def test_f_direct_frozen_value():
    val, _ = f_direct("0.5", PrecisionContext(digits=60))
    with mp.workdps(70):
        assert abs(val - mp.mpf(F_HALF)) < mp.mpf("1e-48")


def test_f_direct_precision_policy_enforced():
    with pytest.raises(PrecisionError):
        f_direct("0.02", PrecisionContext(digits=40))  # needs ~83 digits
    with pytest.raises(ValueError):
        f_direct("-0.1", PrecisionContext(digits=50))


def test_remainder_tends_to_one():
    vals = {}
    for s in ("0.2", "0.1", "0.05"):
        ctx = PrecisionContext(digits=max(60, required_digits(s, 10)))
        vals[s] = normalized_remainder(s, ctx)
    with mp.workdps(60):
        assert abs(vals["0.05"] - 1) < mp.mpf("0.01")
        errs = [abs(vals[s] - 1) for s in ("0.2", "0.1", "0.05")]
        assert errs[0] > errs[1] > errs[2]
        # leading-order dominance at s = 0.1
        b1 = SQRT5.embed(40) / 40
        assert abs((vals["0.1"] - 1) / (b1 * mp.mpf("0.1")) - 1) < 0.3


def test_remainder_precision_invariance():
    a = normalized_remainder("0.1", PrecisionContext(digits=100))
    b = normalized_remainder("0.1", PrecisionContext(digits=140))
    with mp.workdps(150):
        assert abs(a - b) < mp.mpf("1e-60")


def test_extract_coefficient_b1():
    est = extract_coefficient(1, ["0.1", "0.05", "0.025"])
    with mp.workdps(40):
        assert abs(est.value - mp.mpf("0.0559016994374947")) < mp.mpf("0.0056")
    assert est.consistent
    assert est.order == 1
    assert len(est.estimates) == 3


def test_extract_coefficient_residual_scaling():
    # with exact b1 subtracted the residual scales like s^2: the raw j=2
    # estimates at s and s/2 agree within a factor well inside [2, 8]
    est = extract_coefficient(2, ["0.1", "0.05"])
    vals = [v for _, v in est.estimates]
    ratio = float(vals[0] / vals[1])
    assert 0.5 < ratio < 2.0  # both approximate the same finite b2
    r2 = []
    for s in ("0.1", "0.05"):
        ctx = PrecisionContext(digits=80)
        R = normalized_remainder(s, ctx)
        with mp.workdps(90):
            smp = mp.mpf(s)
            b1 = SQRT5.embed(60) / 40
            r2.append(abs(R - 1 - b1 * smp))
    ratio2 = float(r2[0] / r2[1])
    assert 2.0 < ratio2 < 8.0  # ~4 for an s^2 residual under halving


def test_residual_order_property_through_j3():
    # with exact b_1..b_J subtracted, residual(s)/s^(J+1) stays within a
    # factor 4 across a halving of s, for J <= 3
    from unclosed.expansion import compute_expansion

    exact = compute_expansion(3, precision=40)
    ctx = PrecisionContext(digits=100)
    with mp.workdps(110):
        bnum = [x.embed(80) for x in exact.b]
        for J in (1, 2, 3):
            ratios = []
            for s in ("0.2", "0.1", "0.05"):
                smp = mp.mpf(s)
                R = normalized_remainder(s, ctx)
                resid = R - sum(bnum[i] * smp ** i for i in range(J + 1))
                ratios.append(abs(resid) / smp ** (J + 1))
            for a, b in zip(ratios, ratios[1:]):
                q = a / b
                assert mp.mpf(1) / 4 < q < 4, (J, float(q))


def test_extract_coefficient_validation_and_warning():
    with pytest.raises(ValueError):
        extract_coefficient(0, ["0.1", "0.05"])
    with pytest.raises(ValueError):
        extract_coefficient(1, ["0.1"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = extract_coefficient(1, ["4.0", "2.0"], PrecisionContext(digits=60))
    assert not est.consistent
    assert est.disagreement > 0.10
    assert any("disagree" in str(w.message) for w in caught)


def test_dilog_closed_forms():
    # log_poch_check takes Li_2 from mpmath at the two golden-ratio arguments,
    # where the closed forms give both values and their difference pi^2/5
    with mp.workdps(45):
        phi = (1 + mp.sqrt(5)) / 2
        lp = mp.polylog(2, PHI_INV.embed(40))
        lm = mp.polylog(2, MINUS_PHI.embed(40))
        assert abs(lp - (mp.pi ** 2 / 10 - mp.log(phi) ** 2)) < mp.mpf("1e-38")
        assert abs(lm - (-mp.pi ** 2 / 10 - mp.log(phi) ** 2)) < mp.mpf("1e-38")
        assert abs((lp - lm) - mp.pi ** 2 / 5) < mp.mpf("1e-38")
        # Li_1(x) = -log(1 - x) = -log1p(-x); at 1/phi it is 2 log(phi)
        assert abs(-mp.log1p(-PHI_INV.embed(40)) - 2 * mp.log(phi)) < mp.mpf("1e-38")


def test_log_pochhammer_consistent_with_product():
    with mp.workdps(50):
        lg = log_pochhammer_inf(mp.mpf("0.5"), mp.mpf("0.5"), 40)
        prod = mp.qp(mp.mpf("0.5"), mp.mpf("0.5"))
        assert abs(mp.exp(lg) - prod) < mp.mpf("1e-35")


def test_log_poch_check_error_scaling():
    rep = log_poch_check(PHI_INV, 0.0, 2, ["0.1", "0.05"], PrecisionContext(digits=50))
    assert rep.w_label == "1/phi"
    ratio = rep.halving_ratios[0]
    assert 4.0 <= ratio <= 16.0
    # truncated and direct agree to >= 4 significant digits at s = 0.1
    row = rep.rows[0]
    with mp.workdps(60):
        rel = row.abs_err / abs(row.direct)
        assert rel < mp.mpf("1e-4")


def test_log_poch_check_improves_with_order():
    ctx = PrecisionContext(digits=50)
    e2 = log_poch_check(PHI_INV, 0.0, 2, ["0.1"], ctx).rows[0].abs_err
    e4 = log_poch_check(PHI_INV, 0.0, 4, ["0.1"], ctx).rows[0].abs_err
    assert e4 < e2


def test_log_poch_check_other_argument_and_nonzero_v():
    rep = log_poch_check(MINUS_PHI, 0.25, 2, ["0.1", "0.05"], PrecisionContext(digits=50))
    assert rep.w_label == "-phi"
    assert 3.0 <= rep.halving_ratios[0] <= 20.0
    with pytest.raises(ValueError):
        log_poch_check(SQRT5, 0.0, 2, ["0.1"])
    with pytest.raises(ValueError):
        log_poch_check(PHI_INV, 0.0, 2, ["0.1"], sign=2)
    with pytest.raises(ValueError):
        log_poch_check(PHI_INV, 0.0, 2, ["0.5"])


def test_minor_arc_bound():
    rep = minor_arc_check()
    assert rep.fitted_constant <= 10.0
    assert rep.arc_condition_used == "|v| > s**(-2/3)"
    assert rep.arc_condition_alt == "|v| > s**(2/3)"
    # the endpoint v = pi/s sits far below the bound for each s
    for s in ("0.05", "0.02"):
        rows = [r for r in rep.rows if r.s == s]
        assert rows[-1].margin < -20
        # and the bound holds on the whole sample set with the fitted C
        assert all(r.margin <= mp.log(rep.fitted_constant) + 1e-9 for r in rows)


def test_constant_term_identity():
    r0 = constant_term_check(0)
    assert isinstance(r0, ConstantTermReport)
    assert r0.ok and r0.direct == (1,)
    r6 = constant_term_check(6)
    assert r6.ok and r6.first_mismatch is None
    assert len(r6.direct) == 7
    r20 = constant_term_check(20)
    assert r20.ok and r20.half_powers_cancelled
    with pytest.raises(ValueError):
        constant_term_check(31)


def test_constant_term_series_matches_numeric_f():
    # independent consistency: the exact q-expansion evaluated at q = 0.1
    # must match the direct numeric summation at s = -log(0.1)
    coeffs = constant_term_check(20).direct
    with mp.workdps(60):
        s = -mp.log(mp.mpf("0.1"))
        val, _ = f_direct(s, PrecisionContext(digits=50))
        q = mp.mpf("0.1")
        partial = sum(c * q ** t for t, c in enumerate(coeffs))
        assert abs(val - partial) < mp.mpf("1e-15")


def test_log_quotient_decomposition():
    # the identity the whole pipeline rests on: the log of the Pochhammer
    # quotient equals pi^2/(5s) + sqrt5*s*(-v^2 - 1/12)/2 plus the exponent
    # series, with error O(s^(N+1)); the measured decay ratios match 2^(N+1)
    from unclosed.divergence import exponent_sum

    dps = 60
    with mp.workdps(dps + 10):
        phi = (1 + mp.sqrt(5)) / 2
        v = mp.mpf("0.3")
        for N, target in ((2, 8.0), (4, 32.0)):
            errs = []
            for s_str in ("0.1", "0.05", "0.025"):
                s = mp.mpf(s_str)
                q = mp.exp(-s)
                num = log_pochhammer_inf(-phi * mp.exp(-s * (mp.mpf(1) / 2 + 1j * v)), q, dps)
                den = log_pochhammer_inf((1 / phi) * mp.exp(-s * (mp.mpf(1) / 2 - 1j * v)), q, dps)
                main = mp.pi ** 2 / (5 * s) + mp.sqrt(5) * s * (-v * v - mp.mpf(1) / 12) / 2
                errs.append(abs((num - den) - main - exponent_sum(N, s, v, dps)))
            for a, b in zip(errs, errs[1:]):
                assert target / 2 < float(a / b) < target * 2


def test_eval_report_fields_and_scaling():
    r1 = eval_report("0.1", order=2)
    assert r1.terms_used >= 1
    assert r1.rel_err >= 0
    assert r1.truncation_order == 2
    r2 = eval_report("0.05", order=2)
    with mp.workdps(60):
        ratio = r1.rel_err / r2.rel_err
        # O(s^3) residual: halving s cuts the relative error ~8x
        assert 4 < ratio < 16
