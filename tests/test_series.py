import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from unclosed.field import FieldElem, ONE, SQRT5, ZERO
from unclosed.sequences import polylog_delta
from unclosed.series import (
    PuiseuxSeries,
    VPoly,
    _even_moment,
    damping_term,
    exponent_series,
    gaussian_integrate,
)


def random_vpoly(rng, max_deg=3):
    return VPoly(
        [FieldElem(*(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)))
         for _ in range(rng.randint(0, max_deg + 1))]
    )


def random_series(rng, trunc=6, from_power=0):
    terms = {}
    for m in range(from_power, trunc + 1):
        if rng.random() < 0.6:
            terms[m] = random_vpoly(rng)
    return PuiseuxSeries(trunc, terms)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
field_elems = st.builds(FieldElem, rationals, rationals)
coeff_lists = st.lists(field_elems, max_size=5)


@st.composite
def positive_valuation_series(draw, trunc=6):
    terms = draw(st.dictionaries(st.integers(1, trunc), coeff_lists.map(VPoly), max_size=4))
    return PuiseuxSeries(trunc, terms)


def coeff_list(p, n):
    return [p.coeff(j) for j in range(n)]


def pad(values, n):
    return (list(values) + [ZERO] * n)[:n]


def naive_product(x, y):
    # schoolbook convolution in FieldElem arithmetic, sharing no VPoly code
    out = [ZERO] * max(len(x) + len(y) - 1, 0)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = out[i + j] + a * b
    return out


# ----------------------------------------------------------------------
# VPoly
# ----------------------------------------------------------------------


def test_vpoly_trims_trailing_zeros():
    p = VPoly([ONE, ZERO, ZERO])
    assert p.degree == 0
    assert VPoly([ZERO]).is_zero()


def test_vpoly_arithmetic():
    v = VPoly.monomial(1)
    assert (v + v) == VPoly.monomial(1, 2)
    assert (v * v) == VPoly.monomial(2)
    assert v.scale(Fraction(1, 2)) == VPoly.monomial(1, Fraction(1, 2))
    assert (v - v).is_zero()


@given(coeff_lists, coeff_lists, field_elems)
def test_vpoly_integer_kernel_matches_field_arithmetic(x, y, s):
    px, py = VPoly(x), VPoly(y)
    n = len(x) + len(y)
    xs, ys = pad(x, n), pad(y, n)
    assert coeff_list(px, n) == xs
    assert coeff_list(px + py, n) == [a + b for a, b in zip(xs, ys)]
    assert coeff_list(px - py, n) == [a - b for a, b in zip(xs, ys)]
    assert coeff_list(px * py, n) == pad(naive_product(x, y), n)
    assert coeff_list(px.scale(s), n) == [a * s for a in xs]
    # canonical form: equal polynomials store equal numerators and denominator
    assert (px + py) - py == px
    assert hash((px + py) - py) == hash(px)
    assert px.degree == max((j for j, c in enumerate(x) if not c.is_zero()), default=-1)


# ----------------------------------------------------------------------
# PuiseuxSeries arithmetic
# ----------------------------------------------------------------------


def test_series_add_identity_and_merge():
    rng = random.Random(1)
    x = random_series(rng)
    assert x + PuiseuxSeries.zero(x.trunc_order) == x
    a = PuiseuxSeries(4, {1: VPoly.monomial(1)})
    b = PuiseuxSeries(4, {2: VPoly.monomial(2)})
    merged = a + b
    assert merged.coeff(1) == VPoly.monomial(1)
    assert merged.coeff(2) == VPoly.monomial(2)
    double = a + a
    assert double.coeff(1) == VPoly.monomial(1, 2)


def test_series_add_order_mismatch():
    with pytest.raises(ValueError):
        PuiseuxSeries.zero(3) + PuiseuxSeries.zero(4)
    with pytest.raises(ValueError):
        PuiseuxSeries.zero(3) * PuiseuxSeries.zero(4)


def test_series_mul_examples():
    tv = PuiseuxSeries(4, {1: VPoly.monomial(1)})
    one = PuiseuxSeries.one(4)
    prod = (one + tv) * (one - tv)
    assert prod.coeff(0) == VPoly.one()
    assert prod.coeff(1).is_zero()
    assert prod.coeff(2) == VPoly.monomial(2, -1)
    rng = random.Random(2)
    x = random_series(rng)
    assert x * PuiseuxSeries.one(x.trunc_order) == x


def test_series_mul_truncates():
    a = PuiseuxSeries(2, {1: VPoly.monomial(1)})
    b = PuiseuxSeries(2, {2: VPoly.monomial(1)})
    assert (a * b) == PuiseuxSeries.zero(2)


def test_series_rejects_bad_powers():
    with pytest.raises(ValueError):
        PuiseuxSeries(2, {3: VPoly.one()})
    with pytest.raises(ValueError):
        PuiseuxSeries(2, {-1: VPoly.one()})


def test_series_mul_commutative_associative():
    rng = random.Random(3)
    for _ in range(10):
        a, b, c = (random_series(rng, trunc=5) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# ----------------------------------------------------------------------
# exp / log
# ----------------------------------------------------------------------


def test_exp_examples():
    assert PuiseuxSeries.zero(4).exp() == PuiseuxSeries.one(4)
    tv = PuiseuxSeries(2, {1: VPoly.monomial(1)})
    e = tv.exp()
    assert e.coeff(0) == VPoly.one()
    assert e.coeff(1) == VPoly.monomial(1)
    assert e.coeff(2) == VPoly.monomial(2, Fraction(1, 2))


def test_exp_requires_positive_valuation():
    with pytest.raises(ValueError):
        PuiseuxSeries.one(3).exp()


def test_log_examples():
    assert PuiseuxSeries.one(5).log() == PuiseuxSeries.zero(5)
    with pytest.raises(ValueError):
        PuiseuxSeries.zero(3).log()
    # log(1 + b1 t^2) starts with b1 t^2
    b1 = SQRT5 * Fraction(1, 40)
    x = PuiseuxSeries(6, {0: VPoly.one(), 2: VPoly([b1])})
    lg = x.log()
    assert lg.coeff(2) == VPoly([b1])


def test_exp_log_round_trip_random():
    rng = random.Random(4)
    for _ in range(8):
        x = random_series(rng, trunc=8, from_power=1)
        assert x.exp().log() == x
        y = PuiseuxSeries.one(8) + random_series(rng, trunc=8, from_power=1)
        assert y.log().exp() == y


@given(positive_valuation_series())
def test_log_exp_round_trip_property(a):
    assert a.exp().log() == a
    one_plus_a = PuiseuxSeries.one(a.trunc_order) + a
    assert one_plus_a.log().exp() == one_plus_a


def test_exp_is_multiplicative():
    rng = random.Random(9)
    for _ in range(5):
        a = random_series(rng, trunc=6, from_power=1)
        b = random_series(rng, trunc=6, from_power=1)
        assert (a + b).exp() == a.exp() * b.exp()


# ----------------------------------------------------------------------
# Gaussian moments
# ----------------------------------------------------------------------


def test_gaussian_moment_values():
    # w = i v / 5**(1/4): E[w**4] = 3/5, E[w**6] = -15/(5 sqrt5)
    assert gaussian_integrate(VPoly.monomial(4)) == FieldElem(Fraction(3, 5))
    assert gaussian_integrate(VPoly.monomial(6)) == SQRT5 * Fraction(-3, 5)
    assert gaussian_integrate(VPoly.monomial(3)).is_zero()
    assert gaussian_integrate(VPoly.one()) == ONE
    # v**2 = -sqrt5 w**2 recovers the standard moments 3 and 15
    assert gaussian_integrate(VPoly.monomial(4, SQRT5 ** 2)) == FieldElem(3)
    assert gaussian_integrate(VPoly.monomial(6, -(SQRT5 ** 3))) == FieldElem(15)


@given(coeff_lists)
def test_gaussian_integrate_matches_field_sum(x):
    want = ZERO
    for j, c in enumerate(x):
        if j % 2 == 0:
            want = want + c * _even_moment(j)
    assert gaussian_integrate(VPoly(x)) == want


def test_gaussian_moments_table():
    # E[w**(2m)] = (-1/sqrt5)**m (2m-1)!!, checked against mpmath's
    # double factorial and a numeric E[(i v / 5**(1/4))**(2m)]
    for m in range(0, 13):
        got = gaussian_integrate(VPoly.monomial(2 * m))
        with mp.workdps(40):
            want = (-1 / mp.sqrt(5)) ** m * mp.fac2(2 * m - 1)
            assert abs(got.embed(40) - want) < mp.mpf("1e-35") * (1 + abs(want))
        if m:
            prev = gaussian_integrate(VPoly.monomial(2 * m - 2))
            assert got == prev * SQRT5 * Fraction(-(2 * m - 1), 5)


# ----------------------------------------------------------------------
# the exponent series
# ----------------------------------------------------------------------


def test_exponent_series_leading_terms():
    ser = exponent_series(3, 2)
    # t^1 coefficient: (2/3) w^3
    t1 = ser.coeff(1)
    assert t1.degree == 3
    assert t1.coeff(3) == FieldElem(Fraction(2, 3))
    assert t1.coeff(0).is_zero() and t1.coeff(1).is_zero() and t1.coeff(2).is_zero()
    # t^2 coefficient: (sqrt5/3) w^4
    t2 = ser.coeff(2)
    assert t2.degree == 4
    assert t2.coeff(4) == SQRT5 * Fraction(1, 3)
    assert all(t2.coeff(j).is_zero() for j in range(4))


def test_exponent_series_trunc_zero_is_empty():
    assert exponent_series(2, 0) == PuiseuxSeries.zero(0)
    with pytest.raises(ValueError):
        exponent_series(1, 4)


def test_exponent_series_exp_second_order():
    # t^2 coefficient of the exponential: (sqrt5/3) w^4 + (2/9) w^6
    ser = exponent_series(5, 4).exp()
    t2 = ser.coeff(2)
    assert t2.coeff(4) == SQRT5 * Fraction(1, 3)
    assert t2.coeff(6) == FieldElem(Fraction(2, 9))
    assert t2.coeff(0).is_zero() and t2.coeff(2).is_zero()


def test_exponent_series_matches_direct_numeric_sum():
    # assembled series at (t, w = i v / 5**(1/4)) == direct sum of the defining
    # terms with the substituted argument, evaluated independently with mpmath
    N, s, v = 6, mp.mpf("1e-4"), mp.mpf("0.3")
    ser = exponent_series(N, 2 * N)
    t = mp.sqrt(s)
    with mp.workdps(50):
        w = mp.mpc(0, 1) * v / mp.root(5, 4)
    with mp.workdps(50):
        assembled = mp.fsum(
            mp.polyval([c.embed(40) for c in reversed(ser.coeff(m).coeffs)], w) * t ** m
            for m in ser.powers()
        )
        direct = mp.mpc(0)
        arg = mp.mpc(0.5, 0) + mp.mpc(0, 1) * v / (mp.root(5, 4) * t)
        for k in range(2, N + 1):
            delta = polylog_delta(k - 1).embed(45)
            # Bernoulli polynomial via its defining binomial sum
            from unclosed.sequences import bernoulli_number
            from math import comb, factorial

            bval = mp.mpc(0)
            for j in range(k + 2):
                bn = bernoulli_number(k + 1 - j)
                if bn:
                    bval += comb(k + 1, j) * mp.mpf(bn.numerator) / bn.denominator * arg ** j
            direct += delta * s ** k * bval / factorial(k + 1)
        assert abs(assembled - direct) < mp.mpf("1e-20") * (1 + abs(direct))


def test_exponent_series_parity_and_degree_bound():
    trunc = 10
    ser = exponent_series(trunc + 1, trunc)
    for m in ser.powers():
        p = ser.terms[m]
        assert p.degree <= 3 * m
        for j, c in enumerate(p.coeffs):
            if (j - m) % 2:  # v-degree and t-power always share parity
                assert c.is_zero()


def test_damping_term():
    d = damping_term(4)
    assert d.coeff(2) == VPoly([SQRT5 * Fraction(-1, 24)])
    assert damping_term(1) == PuiseuxSeries.zero(1)
