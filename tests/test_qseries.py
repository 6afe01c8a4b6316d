import os
import threading
import warnings

import mpmath as mp
import pytest

from unclosed import direct, suites
from unclosed.qseries import (
    GUARD_DIGITS,
    ConstantTermReport,
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


def test_digits_below_the_old_floor_raise():
    # 29 digits is below the policy at every s (required_digits >= 41)
    with pytest.raises(PrecisionError):
        f_direct("20", 29)


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
    val, terms = f_direct("20", 50)
    with mp.workdps(60):
        assert abs(val - 1) < mp.mpf("1e-4")
    assert terms >= 6  # the m = 0 term plus the five-term stopping streak


def test_f_direct_monotone():
    digits = 60
    assert f_direct("0.4", digits)[0] > f_direct("0.5", digits)[0]
    # a smaller s has a longer rise before the terms decay
    assert f_direct("0.4", digits)[1] > f_direct("0.5", digits)[1]


def test_f_direct_frozen_value():
    val, _ = f_direct("0.5", 60)
    with mp.workdps(70):
        assert abs(val - mp.mpf(F_HALF)) < mp.mpf("1e-48")


def test_f_direct_precision_policy_enforced():
    with pytest.raises(PrecisionError):
        f_direct("0.02", 40)  # needs ~83 digits
    with pytest.raises(ValueError):
        f_direct("-0.1", 50)


def f_direct_by_terms(s, digits):
    # reference: the per-term loop, one division per term and a running total
    with mp.workdps(digits + GUARD_DIGITS):
        q = mp.exp(-mp.mpf(s))
        total = mp.mpf(1)
        qpow_m = mp.mpf(1)
        qtri = mp.mpf(1)
        poch = mp.mpf(1)
        rel = mp.mpf(10) ** (-digits)
        terms = 1
        prev = mp.mpf(1)
        small_streak = 0
        while small_streak < 5:
            qpow_m *= q
            qtri *= qpow_m
            poch *= 1 - qpow_m
            term = qtri / (poch * poch)
            total += term
            terms += 1
            if term < prev and term < total * rel:
                small_streak += 1
            else:
                small_streak = 0
            prev = term
        return total, terms


@pytest.mark.parametrize(
    "s", ["0.0005", "0.001", "0.0023", "0.01", "0.05", "0.3", "0.96", "0.97", "1", "5", "20"]
)
def test_f_direct_matches_the_per_term_loop(s):
    # 0.0005 is the eval floor, where the c_k recurrence rounds the most.
    # 0.96 and 0.97 lie on either side of 2 asinh(1/2), where c_1 = 1: the
    # terms fall from the first term on above it, so the loop switches from
    # the rise to the tail one term earlier there
    digits = required_digits(s, 10)
    value, terms = f_direct(s, digits)
    ref, ref_terms = f_direct_by_terms(s, digits)
    assert terms == ref_terms
    with mp.workdps(digits + GUARD_DIGITS):
        assert abs(value - ref) <= mp.mpf(10) ** (-digits) * ref


def test_f_direct_stops_where_the_per_term_loop_stops():
    # 30 log-spaced s in [0.02, 20] and the two s either side of c_1 = 1,
    # each at 40 digit counts from the policy's up: the bit-length shortcut
    # in the stopping test must decide as the product does, also in the few
    # cases where the bit lengths alone cannot
    grid = [mp.nstr(mp.mpf("0.02") * mp.mpf(1000) ** (mp.mpf(k) / 29), 12) for k in range(30)]
    for s in grid + ["0.96", "0.97"]:
        low = max(30, required_digits(s))
        for digits in range(low, low + 40):
            terms = f_direct(s, digits)[1]
            assert terms == f_direct_by_terms(s, digits)[1], (s, digits)


def test_f_direct_stops_where_the_per_term_loop_stops_at_small_s():
    # 4 log-spaced s in [0.0012, 0.002], inside the small-s range that
    # perfbench's numeric-small-s workload evaluates, each at 5 digit counts
    # from the policy's up
    for k in range(4):
        s = mp.nstr(mp.mpf("0.0012") * (mp.mpf(5) / 3) ** (mp.mpf(k) / 3), 12)
        low = required_digits(s)
        for digits in range(low, low + 5):
            terms = f_direct(s, digits)[1]
            assert terms == f_direct_by_terms(s, digits)[1], (s, digits)


def count_forks(monkeypatch):
    # the list gets one entry per os.fork call in this process
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_f_direct_stops_where_the_per_term_loop_stops_either_side_of_the_fork(monkeypatch):
    # 0.00237 needs 402 digits and 0.0024 398: with the 20 guard digits they
    # sit just above and just below the working precision from which the
    # tail runs in a child, whose trailing terms this process then resolves
    # with the exact stopping test; each at 3 digit counts from the policy's
    forks = count_forks(monkeypatch)
    for s, forked in (("0.00237", True), ("0.0024", False)):
        low = required_digits(s)
        for digits in range(low, low + 3):
            with mp.workdps(digits + GUARD_DIGITS):
                assert (mp.mp.prec >= direct._FORK_PREC) is forked, (s, digits)
            before = len(forks)
            terms = f_direct(s, digits)[1]
            assert len(forks) - before == forked
            assert terms == f_direct_by_terms(s, digits)[1], (s, digits)


@pytest.mark.parametrize("s", ["0.0005", "0.001"])
def test_f_direct_tail_in_a_child_matches_the_tail_inline(s, monkeypatch):
    digits = required_digits(s, 10)
    forks = count_forks(monkeypatch)
    in_child = f_direct(s, digits)
    assert forks == [1]
    assert_no_child_left()
    monkeypatch.setattr(direct, "_FORK_PREC", 10 ** 9)
    inline = f_direct(s, digits)
    assert forks == [1]
    assert in_child[1] == inline[1]
    assert in_child[0]._mpf_ == inline[0]._mpf_


def test_f_direct_reaps_its_child_when_the_rise_raises(monkeypatch):
    # an interrupt, which an `except Exception` would not see
    def rise(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(direct, "_rise", rise)
    with pytest.raises(KeyboardInterrupt):
        f_direct("0.001", required_digits("0.001", 10))
    assert_no_child_left()


def test_a_failed_tail_in_the_child_raises_here(monkeypatch):
    def tail(*args):
        raise ArithmeticError("planted")

    monkeypatch.setattr(direct, "_tail", tail)
    with pytest.raises(RuntimeError, match="ArithmeticError: planted"):
        f_direct("0.001", required_digits("0.001", 10))
    assert_no_child_left()
    # a child that ends without writing a result is an error too, not a value
    monkeypatch.setattr(direct, "_tail", lambda *args: os._exit(3))
    with pytest.raises(RuntimeError, match="wait status"):
        f_direct("0.001", required_digits("0.001", 10))
    assert_no_child_left()


def test_f_direct_does_not_fork_beside_other_threads(monkeypatch):
    forks = count_forks(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        _, terms = f_direct("0.001", required_digits("0.001", 10))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert terms == 2552


def test_small_calls_never_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    assert suites.run_suite("scaling").ok
    assert eval_report("0.05").terms_used > 0


@pytest.mark.parametrize("s", ["0.002", "0.01", "0.1", "0.5", "5", "20"])
def test_f_direct_tail_after_the_stop_is_below_the_tolerance(s):
    # past the peak the term ratio r_m = q^m / (1 - q^m)^2 falls, so the sum
    # after the last term M is below term_M r / (1 - r) with r = r_(M+1)
    digits = required_digits(s, 10)
    value, terms = f_direct(s, digits)
    M = terms - 1
    with mp.workdps(digits + GUARD_DIGITS):
        q = mp.exp(-mp.mpf(s))
        term_M = q ** (M * (M + 1) // 2) / mp.qp(q, q, M) ** 2
        r = q ** (M + 1) / (1 - q ** (M + 1)) ** 2
        assert r < 1
        assert term_M * r / (1 - r) < mp.mpf(10) ** (-digits) * value


def test_f_direct_agrees_with_a_run_at_more_digits():
    # the policy's digits at s = 0.001 against the per-term loop at 40 more,
    # which shares no code with f_direct
    rep = eval_report("0.001")
    assert rep.digits == 908
    assert rep.terms_used == 2552
    wide, _ = f_direct_by_terms("0.001", 948)
    with mp.workdps(960):
        assert abs(rep.F_value - wide) <= mp.mpf(10) ** -908 * wide


@pytest.mark.parametrize("s", ["0.0005", "0.001"])
def test_f_direct_rounding_uses_few_guard_digits(s):
    # against the same terms summed at 100 more digits from q**k and
    # (1 - q**k)**2, not from the c_k recurrence: measured losses are 1.7
    # and 2.5 of the GUARD_DIGITS
    digits = required_digits(s, 10)
    value, terms = f_direct(s, digits)
    with mp.workdps(digits + GUARD_DIGITS + 100):
        q = mp.exp(-mp.mpf(s))
        qk = term = total = mp.mpf(1)
        for _ in range(1, terms):
            qk *= q
            term *= qk / (1 - qk) ** 2
            total += term
        lost = GUARD_DIGITS + digits + mp.log10(abs(value - total) / total)
    assert lost <= 5


def test_remainder_tends_to_one():
    vals = {}
    for s in ("0.2", "0.1", "0.05"):
        vals[s] = normalized_remainder(s, max(60, required_digits(s, 10)))
    with mp.workdps(60):
        assert abs(vals["0.05"] - 1) < mp.mpf("0.01")
        errs = [abs(vals[s] - 1) for s in ("0.2", "0.1", "0.05")]
        assert errs[0] > errs[1] > errs[2]
        # leading-order dominance at s = 0.1
        b1 = mp.sqrt(5) / 40
        assert abs((vals["0.1"] - 1) / (b1 * mp.mpf("0.1")) - 1) < 0.3


def test_remainder_precision_invariance():
    a = normalized_remainder("0.1", 100)
    b = normalized_remainder("0.1", 140)
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
        R = normalized_remainder(s, 80)
        with mp.workdps(90):
            smp = mp.mpf(s)
            b1 = mp.sqrt(5) / 40
            r2.append(abs(R - 1 - b1 * smp))
    ratio2 = float(r2[0] / r2[1])
    assert 2.0 < ratio2 < 8.0  # ~4 for an s^2 residual under halving


def test_residual_order_property_through_j3():
    # with exact b_1..b_J subtracted, residual(s)/s^(J+1) stays within a
    # factor 4 across a halving of s, for J <= 3
    from unclosed.expansion import compute_expansion

    exact = compute_expansion(3)
    with mp.workdps(110):
        bnum = [x.embed(80) for x in exact.b]
        for J in (1, 2, 3):
            ratios = []
            for s in ("0.2", "0.1", "0.05"):
                smp = mp.mpf(s)
                R = normalized_remainder(s, 100)
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
    with pytest.raises(ValueError, match="distinct"):
        extract_coefficient(2, ["0.1", "0.10"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = extract_coefficient(1, ["4.0", "2.0"])
    assert not est.consistent
    assert est.disagreement > 0.10
    assert any("disagree" in str(w.message) for w in caught)


def test_dilog_closed_forms():
    # log_poch_check takes Li_2 from mpmath at the two golden-ratio arguments,
    # where the closed forms give both values and their difference pi^2/5
    with mp.workdps(45):
        phi = (1 + mp.sqrt(5)) / 2
        lp = mp.polylog(2, mp.phi - 1)
        lm = mp.polylog(2, -mp.phi)
        assert abs(lp - (mp.pi ** 2 / 10 - mp.log(phi) ** 2)) < mp.mpf("1e-38")
        assert abs(lm - (-mp.pi ** 2 / 10 - mp.log(phi) ** 2)) < mp.mpf("1e-38")
        assert abs((lp - lm) - mp.pi ** 2 / 5) < mp.mpf("1e-38")
        # Li_1(x) = -log(1 - x) = -log1p(-x); at 1/phi it is 2 log(phi)
        assert abs(-mp.log1p(-(mp.phi - 1)) - 2 * mp.log(phi)) < mp.mpf("1e-38")


def test_log_pochhammer_consistent_with_product():
    with mp.workdps(50):
        lg = log_pochhammer_inf(mp.mpf("0.5"), mp.mpf("0.5"), 40)
        prod = mp.qp(mp.mpf("0.5"), mp.mpf("0.5"))
        assert abs(mp.exp(lg) - prod) < mp.mpf("1e-35")


def log_pochhammer_by_factors(prefactor, q, digits=40):
    # reference: one principal log per factor until |prefactor q^n| < 10^-(digits+5)
    with mp.workdps(digits + 10):
        qv = mp.mpf(q)
        c = mp.mpmathify(prefactor)
        tiny = mp.mpf(10) ** (-(digits + 5))
        acc = mp.mpc(0)
        while abs(c) >= tiny:
            acc += mp.log(1 - c)
            c *= qv
        return acc


def minor_arc_prefactors(s, v):
    # numerator -phi e^{-s(1/2 + iv)} and denominator e^{-s(1/2 - iv)}/phi of minor_arc_check
    phi = (1 + mp.sqrt(5)) / 2
    return (
        -phi * mp.exp(-s * (mp.mpf(1) / 2 + 1j * v)),
        (1 / phi) * mp.exp(-s * (mp.mpf(1) / 2 - 1j * v)),
    )


def assert_matches_factor_by_factor(prefactor, q, digits=40):
    value = log_pochhammer_inf(prefactor, q, digits)
    ref = log_pochhammer_by_factors(prefactor, q, digits)
    with mp.workdps(digits + 10):
        assert abs(value - ref) <= mp.mpf(10) ** (2 - digits) * abs(ref)


@pytest.mark.parametrize("s_str", ["0.05", "0.02"])
def test_log_pochhammer_matches_factor_by_factor_on_minor_arc(s_str):
    # |c| = phi and 1/phi, at both ends of the sampled arc s^(-2/3) .. pi/s
    with mp.workdps(50):
        s = mp.mpf(s_str)
        q = mp.exp(-s)
        for v in (s ** mp.mpf("-2/3"), mp.pi / s):
            for c in minor_arc_prefactors(s, v):
                assert_matches_factor_by_factor(c, q)


def test_log_pochhammer_matches_factor_by_factor_near_the_switch():
    with mp.workdps(50):
        # |c| = 1/2: no factor is logged directly, Euler's series does all of it
        assert_matches_factor_by_factor(mp.mpf("0.5"), mp.mpf("0.5"))
        # |c| just above 1/2: one direct log, then the series from |x| = |c| q < 1/2
        c = mp.mpc("0.3", "0.4000001")
        assert abs(c) > 0.5
        assert_matches_factor_by_factor(c, mp.exp(-mp.mpf("0.1")))


def test_log_pochhammer_keeps_the_principal_log_branch():
    # at s = 0.02, v = 40 the sum of principal logs lies six full turns below
    # arg (c; q)_inf, so no route through log(mp.qp(c, q)) could reproduce it
    with mp.workdps(50):
        s = mp.mpf("0.02")
        q = mp.exp(-s)
        c = minor_arc_prefactors(s, mp.mpf(40))[0]
        value = log_pochhammer_inf(c, q, 40)
        turns = (mp.im(value) - mp.arg(mp.qp(c, q))) / (2 * mp.pi)
        assert abs(turns + 6) < mp.mpf("1e-35")
        assert_matches_factor_by_factor(c, q)


def test_log_pochhammer_rejects_a_vanishing_factor():
    # c q**2 = 1 exactly: the log of the product has no finite value
    with pytest.raises(ValueError, match="zero"):
        log_pochhammer_inf(4, mp.mpf("0.5"), 40)


def test_log_pochhammer_real_prefactor_above_one():
    # c = 1.9 at s = 0.01: the 65 factors 1 - c q**n with n <= 64 are negative
    # reals, and each principal log has imaginary part +pi (the int kernel's
    # c has c_i = 0, so the sign of a zero imaginary part decides the branch)
    with mp.workdps(50):
        c, q = mp.mpf("1.9"), mp.exp(-mp.mpf("0.01"))
        value = log_pochhammer_inf(c, q, 40)
        assert abs(mp.im(value) - 65 * mp.pi) < mp.mpf("1e-38")
        assert_matches_factor_by_factor(c, q)


def test_log_pochhammer_branch_of_a_nearly_vanishing_factor():
    # c q**2 = 1 + 2.5e-31 at q = 1/2: the factors for n = 0, 1, 2 are
    # negative reals, the last one far below a float's resolution, so
    # its argument +pi must come from the ints, not from float copies of c
    with mp.workdps(60):
        value = log_pochhammer_inf(4 + mp.mpf("1e-30"), mp.mpf("0.5"), 40)
        assert abs(mp.im(value) - 3 * mp.pi) < mp.mpf("1e-38")


@pytest.mark.parametrize("sign", [1, -1])
def test_log_pochhammer_keeps_the_sign_of_a_tiny_imaginary_part(sign):
    # Im c = +-1e-70 is far below the kernel's 2**-W at 40 digits, yet it
    # puts each of the 10 negative factors 1 - c q**n (phi q**n > 1) at
    # -+pi rather than +pi
    with mp.workdps(50):
        c, q = mp.mpc(mp.phi, sign * mp.mpf("1e-70")), mp.exp(-mp.mpf("0.05"))
        value = log_pochhammer_inf(c, q, 40)
        assert abs(mp.im(value) + sign * 10 * mp.pi) < mp.mpf("1e-38")
        assert_matches_factor_by_factor(c, q)


@pytest.mark.parametrize("s_str", ["0.1", "0.05"])
def test_log_pochhammer_matches_factor_by_factor_at_log_poch_check_digits(s_str):
    # log_poch_check's two arguments at its own 50 digits:
    # w = 1/phi with v = 0, and w = -phi with v = 0.25
    with mp.workdps(60):
        s = mp.mpf(s_str)
        q = mp.exp(-s)
        for w, v in ((mp.phi - 1, 0), (-mp.phi, mp.mpf("0.25"))):
            c = w * mp.exp(-s * (mp.mpf(1) / 2 + mp.mpc(0, 1) * v))
            assert_matches_factor_by_factor(c, q, 50)


def test_log_pochhammer_long_factor_phase():
    # |c| = phi e^(-s/2) at s = 0.001: about 1,170 factors go into one int
    # product, and the n-th carries n floored updates of c q**n.  The oracle
    # logs them one by one; the rest is the Euler tail from x = c q**M, which
    # the tests above check against the oracle (the full oracle here would
    # log some 100,000 factors).  The bound is the last of the 50 working
    # digits: the 24 guard bits keep the rounding at 1.4e-52, 8 keep it at
    # 1.7e-51, and none lets it grow to 6.5e-49.
    with mp.workdps(50):
        s = mp.mpf("0.001")
        q = mp.exp(-s)
        c = minor_arc_prefactors(s, s ** mp.mpf("-2/3"))[0]
        head, x, M = mp.mpc(0), c, 0
        while abs(x) > 0.5:
            head += mp.log(1 - x)
            x *= q
            M += 1
        assert 1100 < M < 1200
        ref = head + log_pochhammer_inf(x, q, 40)
        value = log_pochhammer_inf(c, q, 40)
        assert abs(value - ref) <= mp.mpf(10) ** -50 * abs(ref)


def test_log_pochhammer_real_part_matches_qp_modulus():
    # log|(c; q)_inf| from mpmath's product code, at four minor-arc arguments
    with mp.workdps(50):
        s = mp.mpf("0.05")
        q = mp.exp(-s)
        for v in (s ** mp.mpf("-2/3"), mp.pi / s):
            for c in minor_arc_prefactors(s, v):
                value = log_pochhammer_inf(c, q, 40)
                ref = mp.log(abs(mp.qp(c, q)))
                assert abs(mp.re(value) - ref) <= mp.mpf("1e-38") * abs(ref)


def test_log_poch_check_error_scaling():
    rep = log_poch_check("1/phi", 0.0, 2, ["0.1", "0.05"])
    assert rep.w_label == "1/phi"
    ratio = rep.halving_ratios[0]
    assert 4.0 <= ratio <= 16.0
    # truncated and direct agree to >= 4 significant digits at s = 0.1
    row = rep.rows[0]
    with mp.workdps(60):
        rel = row.abs_err / abs(row.direct)
        assert rel < mp.mpf("1e-4")


def test_log_poch_check_improves_with_order():
    e2 = log_poch_check("1/phi", 0.0, 2, ["0.1"]).rows[0].abs_err
    e4 = log_poch_check("1/phi", 0.0, 4, ["0.1"]).rows[0].abs_err
    assert e4 < e2


def test_log_poch_check_other_argument_and_nonzero_v():
    rep = log_poch_check("-phi", 0.25, 2, ["0.1", "0.05"])
    assert rep.w_label == "-phi"
    assert 3.0 <= rep.halving_ratios[0] <= 20.0
    for label in ("phi", "sqrt5", "1/PHI"):
        with pytest.raises(ValueError):
            log_poch_check(label, 0.0, 2, ["0.1"])
    with pytest.raises(ValueError):
        log_poch_check("1/phi", 0.0, 2, ["0.5"])


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


# q-expansion of F through q**30, written from the earlier dense-product route
F_SERIES_30 = (
    1, 1, 2, 4, 6, 10, 15, 23, 33, 49, 69, 98, 136, 188, 256, 348, 466, 622,
    824, 1084, 1418, 1846, 2389, 3077, 3947, 5038, 6407, 8115, 10241, 12876, 16141,
)


def test_constant_term_tables_pinned():
    r30 = constant_term_check(30)
    assert r30.direct == F_SERIES_30
    assert r30.constant_term == F_SERIES_30
    for M in range(31):
        r = constant_term_check(M)
        assert r.ok and r.half_powers_cancelled and r.first_mismatch is None, M
        assert r.direct == F_SERIES_30[: M + 1], M


def test_constant_term_series_matches_numeric_f():
    # independent consistency: the exact q-expansion evaluated at q = 0.1
    # must match the direct numeric summation at s = -log(0.1)
    coeffs = constant_term_check(20).direct
    with mp.workdps(60):
        s = -mp.log(mp.mpf("0.1"))
        val, _ = f_direct(s, 50)
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
                errs.append(abs((num - den) - main - exponent_sum(N, s, v)))
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
