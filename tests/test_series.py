import random
from fractions import Fraction
from math import comb, factorial, prod

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from unclosed.sequences import polylog_delta
from unclosed.series import (
    VPoly,
    _weighted_sum,
    exp_series,
    exponent_series,
    gaussian_integrate,
    log_coefficients,
)


ZERO = VPoly([])


def random_vpoly(rng, max_deg=3):
    size = rng.randint(0, max_deg + 1)
    return VPoly([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size)])


def random_series(rng, trunc=6, from_power=0):
    # a tuple of trunc + 1 VPoly, entry m the t'**m coefficient
    return tuple(
        random_vpoly(rng) if m >= from_power and rng.random() < 0.6 else ZERO
        for m in range(trunc + 1)
    )


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
coeff_lists = st.lists(rationals, max_size=5)


@st.composite
def positive_valuation_series(draw, trunc=6):
    terms = draw(st.dictionaries(st.integers(1, trunc), coeff_lists.map(VPoly), max_size=4))
    return tuple(terms.get(m, ZERO) for m in range(trunc + 1))


def coeff_list(p, n):
    return [p.coeff(j) for j in range(n)]


def pad(values, n):
    return (list(values) + [Fraction(0)] * n)[:n]


def naive_product(x, y):
    # schoolbook convolution in Fraction arithmetic, sharing no VPoly code
    out = [Fraction(0)] * max(len(x) + len(y) - 1, 0)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = out[i + j] + a * b
    return out


def degree(p):
    return len(p.P) - 1


def add(p, q):
    # coefficientwise sum in Fraction arithmetic
    return VPoly([p.coeff(j) + q.coeff(j) for j in range(max(len(p.P), len(q.P)))])


def series_sum(x, y):
    return tuple(add(p, q) for p, q in zip(x, y))


def series_product(x, y):
    # truncated Cauchy product through naive_product, sharing no code with the kernel
    out = [ZERO] * len(x)
    for m1, p1 in enumerate(x):
        for m2, p2 in enumerate(y[: len(x) - m1]):
            out[m1 + m2] = add(out[m1 + m2], VPoly(naive_product(p1.coeffs, p2.coeffs)))
    return tuple(out)


def one_series(trunc):
    return (VPoly.one(),) + (ZERO,) * trunc


def power_sum_exp(a):
    # truncated sum_n a**n / n! through series_product, sharing no code with
    # the exp recurrence; a**n vanishes past the truncation once n > trunc
    total = power = one_series(len(a) - 1)
    for n in range(1, len(a)):
        power = series_product(power, a)
        if all(p.is_zero() for p in power):
            break
        scaled = tuple(VPoly([c * Fraction(1, factorial(n)) for c in p.coeffs]) for p in power)
        total = series_sum(total, scaled)
    return total


def kernel_coeffs(terms, n):
    P, D = _weighted_sum(terms)
    return pad([Fraction(p, D) for p in P], n)


# ----------------------------------------------------------------------
# VPoly
# ----------------------------------------------------------------------


def test_vpoly_trims_trailing_zeros():
    p = VPoly([1, 0, 0])
    assert degree(p) == 0
    assert VPoly([0]).is_zero()


def test_vpoly_arithmetic():
    # sums run through the product kernel: w*1 + w*1 = 2w, w*1 - w*1 = 0
    v, minus_v, one = VPoly.monomial(1), VPoly.monomial(1, -1), VPoly.one()
    assert VPoly._from_ints(*_weighted_sum([(1, v, one), (1, v, one)])) == VPoly.monomial(1, 2)
    assert VPoly._from_ints(*_weighted_sum([(1, v, one), (1, minus_v, one)])).is_zero()


@given(coeff_lists, coeff_lists, st.integers(-6, 6))
def test_vpoly_integer_kernel_matches_field_arithmetic(x, y, k):
    px, py = VPoly(x), VPoly(y)
    n = len(x) + len(y)
    xs, ys = pad(x, n), pad(y, n)
    assert coeff_list(px, n) == xs
    # the product kernel, one weighted term and a two-term sum k*x*y - x*x
    xy, xx = pad(naive_product(x, y), n), pad(naive_product(x, x), n)
    assert kernel_coeffs([(k, px, py)], n) == [c * k for c in xy]
    assert kernel_coeffs([(k, px, py), (-1, px, px)], n) == [
        a * k - b for a, b in zip(xy, xx)
    ]
    # canonical form: equal polynomials store equal numerators and denominator
    P, D = _weighted_sum([(6, px, VPoly([Fraction(1, 3)]))])
    back = VPoly._from_ints(P, 2 * D)
    assert (back.P, back.d) == (px.P, px.d)
    assert degree(px) == max((j for j, c in enumerate(x) if c), default=-1)


# ----------------------------------------------------------------------
# exp
# ----------------------------------------------------------------------


def test_exp_examples():
    assert exp_series((ZERO,) * 5) == one_series(4)
    assert exp_series((ZERO,)) == (VPoly.one(),)
    tv = (ZERO, VPoly.monomial(1), ZERO)
    assert exp_series(tv) == (VPoly.one(), VPoly.monomial(1), VPoly.monomial(2, Fraction(1, 2)))


def test_exp_requires_positive_valuation():
    with pytest.raises(ValueError):
        exp_series(one_series(3))


def scalar_series(trunc, coeffs):
    # sum_j coeffs[j-1] s'**j as a series in t' = sqrt(s')
    ser = [ZERO] * (trunc + 1)
    for j, c in enumerate(coeffs, 1):
        ser[2 * j] = VPoly([c])
    return tuple(ser)


def log_round_trip(c):
    # exp through the power sum, then back through log_coefficients
    e = power_sum_exp(scalar_series(2 * len(c), c))
    b = [p.coeff(0) for p in e[::2]]
    assert all(degree(p) <= 0 for p in e)
    return log_coefficients(b)


def test_log_examples():
    assert log_coefficients([1]) == []
    with pytest.raises(ValueError):
        log_coefficients([0, 1])
    # log(1 + b1 s) = b1 s - b1**2/2 s**2 + b1**3/3 s**3
    b1 = Fraction(1, 40)
    assert log_coefficients([1, b1, 0, 0]) == [b1, -b1 * b1 / 2, b1 * b1 * b1 / 3]
    # exp(b1 t^2) = 1 + b1 t^2 + b1**2/2 t^4 + b1**3/6 t^6, against the power sum
    e = exp_series(scalar_series(6, [b1]))
    assert e == power_sum_exp(scalar_series(6, [b1]))
    assert e == tuple(VPoly([x]) for x in (1, 0, b1, 0, b1 * b1 / 2, 0, b1 * b1 * b1 / 6))


def test_exp_log_round_trip_random():
    rng = random.Random(4)
    for _ in range(8):
        x = random_series(rng, trunc=8, from_power=1)
        assert exp_series(x) == power_sum_exp(x)
        c = [random_vpoly(rng, max_deg=0).coeff(0) for _ in range(4)]
        assert log_round_trip(c) == c


@given(positive_valuation_series(), st.lists(rationals, min_size=1, max_size=4))
def test_log_exp_round_trip_property(a, c):
    assert exp_series(a) == power_sum_exp(a)
    assert log_round_trip(c) == c


def test_exp_is_multiplicative():
    rng = random.Random(9)
    for _ in range(5):
        a = random_series(rng, trunc=6, from_power=1)
        b = random_series(rng, trunc=6, from_power=1)
        assert exp_series(series_sum(a, b)) == series_product(exp_series(a), exp_series(b))


# ----------------------------------------------------------------------
# Gaussian moments
# ----------------------------------------------------------------------


def double_factorial(n):
    # n!! by its defining product, with (-1)!! = 1
    return prod(range(n, 0, -2))


def test_gaussian_moment_values():
    # w' = i v: E[w'**4] = 3, E[w'**6] = -15
    assert gaussian_integrate(VPoly.monomial(4)) == 3
    assert gaussian_integrate(VPoly.monomial(6)) == -15
    assert gaussian_integrate(VPoly.monomial(3)) == 0
    assert gaussian_integrate(VPoly.one()) == 1
    # v**2 = -w'**2 recovers the standard moments 3 and 15
    assert gaussian_integrate(VPoly.monomial(4, (-1) ** 2)) == 3
    assert gaussian_integrate(VPoly.monomial(6, (-1) ** 3)) == 15


@given(coeff_lists)
def test_gaussian_integrate_matches_field_sum(x):
    want = sum(
        c * (-1) ** (j // 2) * double_factorial(j - 1) for j, c in enumerate(x) if j % 2 == 0
    )
    assert gaussian_integrate(VPoly(x)) == want


def test_gaussian_moments_table():
    # E[w'**(2m)] = (-1)**m (2m-1)!!, checked against mpmath's double factorial
    for m in range(0, 13):
        got = gaussian_integrate(VPoly.monomial(2 * m))
        with mp.workdps(40):
            assert got == (-1) ** m * int(mp.fac2(2 * m - 1))
        if m:
            prev = gaussian_integrate(VPoly.monomial(2 * m - 2))
            assert got == -(2 * m - 1) * prev


# ----------------------------------------------------------------------
# the exponent series
# ----------------------------------------------------------------------


def test_exponent_series_leading_terms():
    ser = exponent_series(2)
    assert len(ser) == 3 and ser[0].is_zero()
    # t'^1 coefficient: (2/15) w'^3, from delta(1)/5 = 4/5 over 3!
    t1 = ser[1]
    assert degree(t1) == 3
    assert t1.coeff(3) == Fraction(2, 15)
    assert t1.coeff(0) == t1.coeff(1) == t1.coeff(2) == 0
    # t'^2 coefficient: (1/15) w'^4, from delta(2)/5**(3/2) = 8/5 over 4!,
    # and the damping -1/24
    t2 = ser[2]
    assert degree(t2) == 4
    assert t2.coeff(4) == Fraction(1, 15)
    assert t2.coeff(0) == Fraction(-1, 24)
    assert all(t2.coeff(j) == 0 for j in range(1, 4))


def test_exponent_series_trunc_zero_is_empty():
    assert exponent_series(0) == (ZERO,)
    with pytest.raises(ValueError):
        exponent_series(-1)


def test_exponent_series_exp_second_order():
    # t'^2 coefficient of the exponential: -1/24 + (1/15) w'^4 + (2/15)**2/2 w'^6
    ser = exp_series(exponent_series(4))
    t2 = ser[2]
    assert t2.coeff(4) == Fraction(1, 15)
    assert t2.coeff(6) == Fraction(2, 225)
    assert t2.coeff(0) == Fraction(-1, 24)
    assert t2.coeff(2) == 0


def test_exponent_series_matches_direct_numeric_sum():
    # assembled series at (t' = 5**(1/4) sqrt(s), w' = i v) == direct sum of
    # the defining terms with the substituted argument, evaluated
    # independently with mpmath, so the entry rescale is checked too;
    # monomial t'**m w'**j comes from summand (m + j) / 2, so summands <= N
    # are those with m + j <= 2N, and the damping (m, j) = (2, 0) is among them
    N, s, v = 6, mp.mpf("1e-4"), mp.mpf("0.3")
    ser = exponent_series(2 * N)
    t = mp.sqrt(s)
    with mp.workdps(50):
        tr = mp.root(5, 4) * t
        w = mp.mpc(0, 1) * v
        assembled = mp.fsum(
            mp.mpf(c.numerator) / c.denominator * w ** j * tr ** m
            for m, p in enumerate(ser)
            for j, c in enumerate(p.coeffs)
            if m + j <= 2 * N
        )
        direct = -mp.sqrt(5) / 24 * s
        arg = mp.mpc(0.5, 0) + mp.mpc(0, 1) * v / (mp.root(5, 4) * t)
        for k in range(2, N + 1):
            delta = polylog_delta(k - 1).embed(45)
            # Bernoulli polynomial via its defining binomial sum
            from unclosed.sequences import bernoulli_number

            bval = mp.mpc(0)
            for j in range(k + 2):
                bn = bernoulli_number(k + 1 - j)
                if bn:
                    bval += comb(k + 1, j) * mp.mpf(bn.numerator) / bn.denominator * arg ** j
            direct += delta * s ** k * bval / factorial(k + 1)
        assert abs(assembled - direct) < mp.mpf("1e-20") * (1 + abs(direct))


def test_exponent_series_parity_and_degree_bound():
    trunc = 10
    ser = exponent_series(trunc)
    for m, p in enumerate(ser):
        assert degree(p) <= 3 * m
        for j, c in enumerate(p.coeffs):
            if (j - m) % 2:  # v-degree and t-power always share parity
                assert c == 0


def test_damping_term():
    assert exponent_series(4)[2].coeff(0) == Fraction(-1, 24)
    assert len(exponent_series(1)) == 2  # no t'**2 entry to carry the damping


@pytest.mark.parametrize("T", [1, 2, 8, 24, 48])
def test_exponent_series_is_dense(T):
    # the tuple stores every power: the exponent is zero only at t'**0, and its
    # exponential, which starts at 1, has no zero entry at all
    ser = exponent_series(T)
    assert len(ser) == T + 1
    assert [m for m, p in enumerate(ser) if p.is_zero()] == [0]
    total = exp_series(ser)
    assert len(total) == T + 1
    assert not any(p.is_zero() for p in total)
