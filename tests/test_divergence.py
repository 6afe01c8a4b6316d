import json
import math
from fractions import Fraction

import mpmath as mp
import pytest

from unclosed import cli
from unclosed.divergence import (
    b_growth,
    bernoulli_weight,
    cosh_limit_check,
    exponent_sum,
    fit_geometric_rate,
    normalized_polylog_delta,
    partial_exp_max_error,
)
from unclosed.expansion import compute_expansion
from unclosed.field import FieldElem
from unclosed.sequences import bernoulli_half, polylog_delta


def test_scaled_delta_values():
    # direct evaluations (values are not tabulated anywhere upstream)
    assert abs(normalized_polylog_delta(1) - mp.mpf("0.926259")) < 1e-5
    assert abs(normalized_polylog_delta(2) - mp.mpf("0.996676")) < 1e-5
    assert abs(normalized_polylog_delta(12) - 1) < mp.mpf("1e-3")
    assert abs(normalized_polylog_delta(20) - 1) < mp.mpf("1e-4")


def test_scaled_delta_errors_decay_geometrically():
    errors = [abs(float(normalized_polylog_delta(n) - 1)) for n in range(5, 31)]
    # the deviations oscillate in sign, so pointwise decay can dip; the
    # 4-step envelope is cleanly decreasing
    for i in range(len(errors) - 4):
        assert max(errors[i + 4 :]) < errors[i]
    rate, front = fit_geometric_rate(range(5, 31), errors)
    assert 0 < rate < 1
    assert 0.1 < rate < 0.2  # observed ~0.152
    # fitted model brackets the data within the oscillation slack
    for n, err in zip(range(5, 31), errors):
        model = front * rate ** n
        assert model / 100 < err < model * 100


def test_fit_two_points_is_the_exact_log_ratio():
    # through two points the least-squares line is exact, so the rate is
    # exp of one correctly rounded float difference of the logs
    e5, e6 = (float(abs(normalized_polylog_delta(n) - 1)) for n in (5, 6))
    rate, _ = fit_geometric_rate([5, 6], [e5, e6])
    assert rate == math.exp(math.log(e6) - math.log(e5))


def test_fit_recovers_synthetic_geometric_data():
    rate, front = fit_geometric_rate(range(4), [3 * 0.5**n for n in range(4)])
    assert abs(rate - 0.5) < 1e-15
    assert abs(front - 3) < 1e-15


def delta_residue_sum(n, digits=30, max_m=200):
    """Independent evaluation of polylog_delta(n) from the pole expansion.

    Uses Li_{-d}(e^{-mu}) = d! * sum_{m in Z} (2 pi i m + mu)^{-(d+1)} at
    mu = log(phi) and mu = pi*i - log(phi); the two sums combine to the
    delta value.  The poles with |m| <= max_m are summed one by one; with
    p = d + 1 and a = mu/(2 pi i), the two tails |m| > max_m are
    (2 pi i)^{-p} (zeta(p, max_m+1+a) + (-1)^p zeta(p, max_m+1-a)) in
    closed form by the Hurwitz zeta function.
    """
    if n < 1:
        raise ValueError("pole expansion check needs n >= 1")
    with mp.workdps(digits + 15):
        logphi = mp.log((1 + mp.sqrt(5)) / 2)
        mu1 = mp.mpc(logphi, 0)
        mu2 = mp.mpc(-logphi, mp.pi)
        p = n + 1
        two_pi_i = mp.mpc(0, 2 * mp.pi)

        def pole_sum(mu):
            total = mu ** (-p)
            for m in range(1, max_m + 1):
                total += (two_pi_i * m + mu) ** (-p)
                total += (-two_pi_i * m + mu) ** (-p)
            a = mu / two_pi_i
            tails = mp.zeta(p, max_m + 1 + a) + (-1) ** p * mp.zeta(p, max_m + 1 - a)
            return total + two_pi_i ** (-p) * tails

        li_phi_inv = mp.factorial(n) * pole_sum(mu1)
        li_minus_phi = mp.factorial(n) * pole_sum(mu2)
        value = li_phi_inv - (-1) ** n * li_minus_phi
        return mp.re(value)


def test_pole_sum_cross_check():
    approx = delta_residue_sum(5, digits=30, max_m=200)
    exact = polylog_delta(5).embed(40)
    with mp.workdps(40):
        assert abs(approx - exact) < mp.mpf("1e-20")
    with pytest.raises(ValueError):
        delta_residue_sum(0)


def test_bernoulli_weight_normalization():
    # at even k the weight reproduces B_k(1/2) through the cosine normalization
    with mp.workdps(45):
        for k in (2, 4, 6, 12):
            bh = bernoulli_half(k)
            lhs = mp.mpf(bh.numerator) / bh.denominator
            rhs = 2 * (2 * mp.pi) ** (-k) * mp.factorial(k) * mp.cos(mp.pi * k / 2) * bernoulli_weight(k)
            assert abs(lhs - rhs) < mp.mpf("1e-35")
        assert abs(bernoulli_weight(0) - mp.mpf("0.5")) < mp.mpf("1e-30")
        assert abs(bernoulli_weight(1) - mp.log(2)) < mp.mpf("1e-30")
        for k in range(2, 30):
            assert abs(bernoulli_weight(k) - 1) <= mp.mpf(2) ** (1 - k)


def partial_exp(k: int, z, dps: int = 40) -> mp.mpf:
    """sum_{j=0}^{k+1} weight(k+1-j) * z**j / j! at dps digits; -> exp(z) as k grows.

    The per-point mpf loop, an oracle independent of partial_exp_max_error's
    int kernel; it shares only the 40-digit weights.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    with mp.workdps(dps):
        zv = mp.mpmathify(z)
        total = zv * 0
        term = mp.mpf(1)  # z**j / j!
        for j in range(k + 2):
            total += bernoulli_weight(k + 1 - j) * term
            term = term * zv / (j + 1)
        return total


def oracle_max_error(k: int, dps: int) -> float:
    """max |partial_exp(k, z) - exp(z)| over z = -2 + 4 idx / 40, all at dps digits."""
    with mp.workdps(dps):
        grid = [mp.mpf(-2) + mp.mpf(4) * idx / 40 for idx in range(41)]
        return float(max(abs(partial_exp(k, z, dps) - mp.exp(z)) for z in grid))


@pytest.mark.parametrize("k", [0, 1, 2, 10, 20, 40, 60])
def test_partial_exp_max_error_matches_mpf_oracle(k):
    value = partial_exp_max_error(k)
    assert value == oracle_max_error(k, 40)
    assert value == oracle_max_error(k, 80)


def test_partial_exp_weights_are_computed_once():
    # k = 10 needs eta(0..11) and k = 40 needs eta(0..41): 42 values, 12 reused
    bernoulli_weight.cache_clear()
    partial_exp_max_error(10)
    partial_exp_max_error(40)
    info = bernoulli_weight.cache_info()
    assert (info.misses, info.hits) == (42, 12)


def test_partial_exp_at_zero_is_weight():
    with mp.workdps(40):
        for k in (3, 10, 25):
            assert abs(partial_exp(k, 0) - bernoulli_weight(k + 1)) < mp.mpf("1e-25")


def test_partial_exp_limit():
    with mp.workdps(40):
        assert abs(partial_exp(40, 1) - mp.e) < mp.mpf("1e-6")
        assert abs(partial_exp(40, -2) - mp.exp(-2)) < mp.mpf("1e-5")


def test_partial_exp_max_error_decreases():
    e10 = partial_exp_max_error(10)
    e20 = partial_exp_max_error(20)
    e40 = partial_exp_max_error(40)
    assert e10 > e20 > e40
    assert e40 < 1e-5
    with pytest.raises(ValueError):
        partial_exp_max_error(-1)


def test_symmetrized_partial_exp_cosh_sinh():
    # (partial_exp(k, z) - (-1)**k partial_exp(k, -z)) / 2 at z = 2 pi v
    def symmetrized(k, v):
        z = 2 * mp.pi * v
        return (partial_exp(k, z) - (-1) ** k * partial_exp(k, -z)) / 2

    with mp.workdps(40):
        v = mp.mpf("0.25")
        odd = symmetrized(41, v)  # even part -> cosh
        even = symmetrized(40, v)  # odd part -> sinh
        assert abs(odd - mp.cosh(2 * mp.pi * v)) < mp.mpf("1e-6")
        assert abs(even - mp.sinh(2 * mp.pi * v)) < mp.mpf("1e-6")


def test_exponent_sum_matches_series_assembly():
    # same object two ways: direct numeric summation at 1/2 + i v vs. the
    # exact series in t' = 5**(1/4) t and w' = i v', where v' = 5**(1/4) t v;
    # monomial t'**m w'**j comes from summand (m + j) / 2, and the damping
    # (m + j = 2) is not a summand of exponent_sum
    from unclosed.series import exponent_series

    N = 7
    with mp.workdps(50):
        s = mp.mpf("0.02")
        t = mp.root(5, 4) * mp.sqrt(s)
        v = mp.mpf("0.4")
        direct = exponent_sum(N, s, v)
        ser = exponent_series(2 * N)
        w = mp.mpc(0, 1) * t * v
        assembled = mp.fsum(
            mp.mpf(c.numerator) / c.denominator * w ** j * t ** m
            for m, p in enumerate(ser)
            for j, c in enumerate(p.coeffs)
            if 4 <= m + j <= 2 * N
        )
        assert abs(direct - assembled) < mp.mpf("1e-30") * (1 + abs(direct))


def test_cosh_limit_trend():
    rows = cosh_limit_check()  # l = 2..5, v = 0, 0.5 and 1
    by_v = {}
    for r in rows:
        by_v.setdefault(r.v, []).append(r)
    for v, seq in by_v.items():
        errs = [r.abs_err for r in seq]
        assert all(a > b for a, b in zip(errs, errs[1:])), f"no decay at v={v}"
    # at l = 4 and v = 0 the normalized value is within 25% of the target
    r40 = next(r for r in rows if r.level == 4 and r.v == 0.0)
    assert abs(r40.ratio_re - r40.target) < 0.25 * abs(r40.target)
    assert abs(r40.target - (-1 / mp.pi)) < 1e-12
    # v = 1 target value
    r41 = next(r for r in rows if r.level == 4 and r.v == 1.0)
    with mp.workdps(30):
        assert abs(r41.target - float(-mp.cosh(2 * mp.pi) / mp.pi)) < 1e-9


def test_cosh_limit_validation():
    with pytest.raises(ValueError):
        exponent_sum(1, "0.1", 0.0)


def test_b_growth():
    r = compute_expansion(12)
    section = b_growth(r)
    assert abs(r.growth[0] - 0.05590169943749474) < 1e-12
    assert section.tail_increasing
    assert section.ratio_cross_index is not None
    assert section.ratio_cross_index <= 12
    with pytest.raises(ValueError):
        b_growth(compute_expansion(4))


def float_growth(result):
    """The former float route to b_growth's pair: the 30-digit growth roots
    and 40-digit magnitudes, with the first j whose ratios all exceed 1."""
    J = len(result.b) - 1
    tail = result.growth[-4:]
    increasing = all(a < b for a, b in zip(tail, tail[1:]))
    with mp.workdps(40):
        mags = [abs(x.embed(40)) for x in result.b]
        ratios = [mags[j + 1] / mags[j] for j in range(1, J)]
    cross = next((i + 1 for i in range(len(ratios)) if all(r > 1 for r in ratios[i:])), None)
    return increasing, cross


def test_b_growth_agrees_with_the_float_route():
    for J in range(6, 41):
        r = compute_expansion(J)
        section = b_growth(r)
        assert (section.tail_increasing, section.ratio_cross_index) == float_growth(r), J


@pytest.mark.parametrize("J", [12, 24])
def test_b_growth_fails_on_a_shrunken_last_coefficient(J):
    # b_J / 100 breaks both the last root step and the last ratio
    r = compute_expansion(J)
    last = r.b[-1]
    shrunk = r._replace(b=r.b[:-1] + (FieldElem(Fraction(last.p, 100), Fraction(last.q, 100)),))
    section = b_growth(shrunk)
    assert (section.tail_increasing, section.ratio_cross_index) == (False, None)


def test_b_growth_rejects_a_coefficient_off_its_line():
    # sqrt5 - 2 has both coordinates nonzero, so p**2 + 5 q**2 = 9 is not its square
    r = compute_expansion(8)
    off = r._replace(b=r.b[:-1] + (FieldElem(-2, 1),))
    with pytest.raises(ValueError, match="sqrt5"):
        b_growth(off)


def test_growth_report_shape(capsys):
    # the full diagnostic is assembled by `diverge`; an ebar_max below 6 is
    # rejected with exit code 2
    assert cli.main(["diverge", "--max-order", "8", "--ebar-max", "20"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n_range"] == [0, 20]
    assert len(rep["ebar"]) == 21
    assert rep["fitted_rate"] < 1
    assert len(rep["b_roots"]) == 8
    assert rep["cosh_rows"]
    assert cli.main(["diverge", "--max-order", "12", "--ebar-max", "4"]) == 2
