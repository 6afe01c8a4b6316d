import mpmath as mp
import pytest

from unclosed.divergence import (
    b_growth,
    bernoulli_weight,
    cosh_limit_check,
    delta_residue_sum,
    exponent_sum,
    fit_geometric_rate,
    growth_report,
    normalized_polylog_delta,
    partial_exp,
    partial_exp_max_error,
)
from unclosed.expansion import compute_expansion
from unclosed.sequences import bernoulli_half, polylog_delta


def test_scaled_delta_values():
    # direct evaluations (values are not tabulated anywhere upstream)
    assert abs(normalized_polylog_delta(1) - mp.mpf("0.926259")) < 1e-5
    assert abs(normalized_polylog_delta(2) - mp.mpf("0.996676")) < 1e-5
    assert abs(normalized_polylog_delta(12) - 1) < mp.mpf("1e-3")
    assert abs(normalized_polylog_delta(20) - 1) < mp.mpf("1e-4")


def test_scaled_delta_errors_decay_geometrically():
    digits = 60
    errors = [abs(float(normalized_polylog_delta(n, digits) - 1)) for n in range(5, 31)]
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


def test_pole_sum_cross_check():
    approx = delta_residue_sum(5, digits=30, max_m=20000)
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
            rhs = 2 * (2 * mp.pi) ** (-k) * mp.factorial(k) * mp.cos(mp.pi * k / 2) * bernoulli_weight(k, 40)
            assert abs(lhs - rhs) < mp.mpf("1e-35")
        assert abs(bernoulli_weight(0, 40) - mp.mpf("0.5")) < mp.mpf("1e-30")
        assert abs(bernoulli_weight(1, 40) - mp.log(2)) < mp.mpf("1e-30")
        for k in range(2, 30):
            assert abs(bernoulli_weight(k, 40) - 1) <= mp.mpf(2) ** (1 - k)


def test_partial_exp_at_zero_is_weight():
    with mp.workdps(40):
        for k in (3, 10, 25):
            assert abs(partial_exp(k, 0, 30) - bernoulli_weight(k + 1, 30)) < mp.mpf("1e-25")


def test_partial_exp_limit():
    with mp.workdps(40):
        assert abs(partial_exp(40, 1, 30) - mp.e) < mp.mpf("1e-6")
        assert abs(partial_exp(40, -2, 30) - mp.exp(-2)) < mp.mpf("1e-5")


def test_partial_exp_max_error_decreases():
    e10 = partial_exp_max_error(10)
    e20 = partial_exp_max_error(20)
    e40 = partial_exp_max_error(40)
    assert e10 > e20 > e40
    assert e40 < 1e-5


def test_symmetrized_partial_exp_cosh_sinh():
    # (partial_exp(k, z) - (-1)**k partial_exp(k, -z)) / 2 at z = 2 pi v
    def symmetrized(k, v):
        z = 2 * mp.pi * v
        return (partial_exp(k, z, 30) - (-1) ** k * partial_exp(k, -z, 30)) / 2

    with mp.workdps(40):
        v = mp.mpf("0.25")
        odd = symmetrized(41, v)  # even part -> cosh
        even = symmetrized(40, v)  # odd part -> sinh
        assert abs(odd - mp.cosh(2 * mp.pi * v)) < mp.mpf("1e-6")
        assert abs(even - mp.sinh(2 * mp.pi * v)) < mp.mpf("1e-6")


def test_exponent_sum_matches_series_assembly():
    # same object two ways: direct numeric summation at 1/2 + i v vs. the
    # exact series in w = i v' / 5**(1/4), where v' = 5**(1/4) t v
    from unclosed.series import exponent_series

    N = 7
    with mp.workdps(50):
        s = mp.mpf("0.02")
        t = mp.sqrt(s)
        v = mp.mpf("0.4")
        direct = exponent_sum(N, s, v, 45)
        ser = exponent_series(N, 2 * N)
        w = mp.mpc(0, 1) * t * v
        assembled = mp.fsum(
            mp.polyval([c.embed(45) for c in reversed(ser.coeff(m).coeffs)], w) * t ** m
            for m in ser.powers()
        )
        assert abs(direct - assembled) < mp.mpf("1e-30") * (1 + abs(direct))


def test_cosh_limit_trend():
    rows = cosh_limit_check(l_values=(2, 3, 4, 5), v_samples=(0.0, 0.5, 1.0), alpha="0.25")
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
        cosh_limit_check(l_values=(0,))
    with pytest.raises(ValueError):
        cosh_limit_check(alpha="1.5")
    with pytest.raises(ValueError):
        exponent_sum(1, "0.1", 0.0)


def test_b_growth():
    r = compute_expansion(12, precision=30)
    section = b_growth(r)
    assert abs(section.roots[0] - 0.05590169943749474) < 1e-12
    assert section.tail_increasing
    assert section.ratio_cross_index is not None
    assert section.ratio_cross_index <= 12
    with pytest.raises(ValueError):
        b_growth(compute_expansion(4, precision=30))


def test_growth_report_shape():
    rep = growth_report(max_order=8, ebar_max=20)
    assert rep.n_range == (0, 20)
    assert len(rep.ebar) == 21
    assert rep.fitted_rate < 1
    assert len(rep.b_roots) == 8
    assert rep.cosh_rows
    with pytest.raises(ValueError):
        growth_report(ebar_max=4)
