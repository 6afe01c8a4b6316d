import math
from fractions import Fraction
from itertools import permutations

import mpmath as mp
import pytest

from unclosed.field import FieldElem, MINUS_PHI, ONE, PHI, PHI_INV, SQRT5
from unclosed.sequences import (
    DEFAULT_MAX_ORDER,
    bernoulli_half,
    bernoulli_number,
    bernoulli_numbers,
    eulerian_row,
    eulerian_triangle,
    polylog_delta,
    polylog_delta_table,
    polylog_neg,
)


def descents_count(n, k):
    # brute-force: permutations of [1..n] with exactly k descents
    total = 0
    for p in permutations(range(n)):
        d = sum(1 for i in range(n - 1) if p[i] > p[i + 1])
        if d == k:
            total += 1
    return total


def test_eulerian_small_rows():
    assert eulerian_row(0) == (1,)
    assert eulerian_row(1) == (1,)
    assert eulerian_row(2) == (1, 1)
    assert eulerian_row(3) == (1, 4, 1)


def test_eulerian_against_descent_oracle():
    for n in range(1, 7):
        row = eulerian_row(n)
        assert row == tuple(descents_count(n, k) for k in range(n))


def test_eulerian_row_sums_are_factorials():
    for n in range(1, 12):
        assert sum(eulerian_row(n)) == math.factorial(n)


def test_eulerian_triangle_bounds():
    tri = eulerian_triangle(5)
    assert len(tri) == 6
    assert tri[3] == (1, 4, 1)
    with pytest.raises(ValueError):
        eulerian_triangle(DEFAULT_MAX_ORDER + 1)
    with pytest.raises(ValueError):
        eulerian_row(-1)


def test_bernoulli_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_recurrence_invariant():
    table = bernoulli_numbers(20)
    assert len(table) == 21
    for n in range(1, 20):
        acc = sum(math.comb(n + 1, j) * table[j] for j in range(n + 1))
        assert acc == 0
    for m in range(1, 10):
        assert table[2 * m + 1] == 0


def test_bernoulli_half_values():
    assert bernoulli_half(0) == 1
    assert bernoulli_half(1) == 0
    assert bernoulli_half(2) == Fraction(-1, 12)
    assert bernoulli_half(4) == Fraction(7, 240)
    assert bernoulli_half(3) == 0


def test_shifted_poly_small_cases():
    # B_n(1/2 + i v), which the numeric checks take from mpmath
    with mp.workdps(40):
        for v in (mp.mpf(0), mp.mpf("0.3"), mp.mpf(-2)):
            x = mp.mpc(mp.mpf(1) / 2, v)
            assert mp.bernpoly(0, x) == 1
            assert abs(mp.bernpoly(1, x) - mp.mpc(0, v)) < mp.mpf("1e-35")
            assert abs(mp.bernpoly(2, x) - (-v * v - mp.mpf(1) / 12)) < mp.mpf("1e-35")


def test_shifted_poly_binomial_oracle():
    # the exact route expands B_n(1/2 + x) = sum_j C(n,j) B_{n-j}(1/2) x**j;
    # mpmath's B_n(1/2 + i v) must agree with that sum at x = i v
    with mp.workdps(50):
        for n in range(12):
            for v in (mp.mpf("0.3"), mp.mpf("1.7")):
                acc = mp.mpc(0)
                for j in range(n + 1):
                    c = math.comb(n, j) * bernoulli_half(n - j)
                    acc += mp.mpf(c.numerator) / c.denominator * mp.mpc(0, v) ** j
                got = mp.bernpoly(n, mp.mpc(mp.mpf(1) / 2, v))
                assert abs(got - acc) < mp.mpf("1e-40") * (1 + abs(acc))


def test_polylog_neg_basic_values():
    assert polylog_neg(0, PHI_INV) == PHI
    assert polylog_neg(0, MINUS_PHI) == -PHI_INV
    with pytest.raises(ZeroDivisionError):
        polylog_neg(1, ONE)
    with pytest.raises(ValueError):
        polylog_neg(-1, PHI_INV)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_polylog_neg_derivative_identity_symbolic():
    # w d/dw [P_n/(1-w)^(n+1)] = [w P_n' (1-w) + (n+1) w P_n]/(1-w)^(n+2)
    # so the numerators must satisfy P_{n+1} = w P_n'(1-w) + (n+1) w P_n.
    def numerator(n):
        if n == 0:
            return [0, 1]  # P_0(w) = w
        out = [0] * (n + 2)
        for k, a in enumerate(eulerian_row(n)):
            out[k + 1] = a
        return out

    for n in range(0, 7):
        p = numerator(n)
        dp = [i * c for i, c in enumerate(p)][1:]  # P'
        lhs = poly_mul([0, 1], poly_mul(dp, [1, -1]))  # w P' (1-w)
        rhs = [(n + 1) * c for c in poly_mul([0, 1], p)]
        total = [0] * max(len(lhs), len(rhs))
        for i, c in enumerate(lhs):
            total[i] += c
        for i, c in enumerate(rhs):
            total[i] += c
        target = numerator(n + 1) + [0] * (len(total) - len(numerator(n + 1)))
        assert total == target


def test_polylog_neg_derivative_identity_numeric():
    # embed check at the actual arguments: Li_{-(n+1)}(w) == w * d/dw Li_{-n}(w)
    h = mp.mpf("1e-25")
    with mp.workdps(60):
        for w in (PHI_INV, MINUS_PHI):
            wn = w.embed(55)
            for n in range(0, 5):
                def li(x, order=n):
                    num = sum(a * x ** (k + 1) for k, a in enumerate(eulerian_row(order)))
                    return num / (1 - x) ** (order + 1) if order else x / (1 - x)

                deriv = (li(wn + h) - li(wn - h)) / (2 * h)
                lhs = polylog_neg(n + 1, w).embed(55)
                assert abs(lhs - wn * deriv) < mp.mpf("1e-20") * (1 + abs(lhs))


def test_delta_table_values():
    assert polylog_delta(0) == SQRT5
    assert polylog_delta(1) == FieldElem(4)
    assert polylog_delta(2) == SQRT5 * 8
    table = polylog_delta_table(20)
    assert len(table) == 21
    # sqrt5 -> -sqrt5 swaps 1/phi and -phi, so delta(n) lies in sqrt5**(n+1) * Q
    for n, v in enumerate(table):
        assert (v.p if n % 2 == 0 else v.q) == 0
    assert table[3] == FieldElem(112)


def test_delta_matches_two_polylog_definition():
    # polylog_delta uses one polylog at phi**-2; compare with the defining pair
    for n in range(DEFAULT_MAX_ORDER + 1):
        want = polylog_neg(n, PHI_INV) - polylog_neg(n, MINUS_PHI) * (-1) ** n
        assert polylog_delta(n) == want, n


def test_delta_table_caps():
    with pytest.raises(ValueError):
        polylog_delta(DEFAULT_MAX_ORDER + 1)
    with pytest.raises(ValueError):
        polylog_delta(-1)


def test_index_minus_one_vanishes_numerically():
    # the order -1 combination involves Li_1 and is transcendental; at 30+
    # digits the two logs cancel to well below 1e-25
    with mp.workdps(50):
        val = -mp.log1p(-PHI_INV.embed(40)) - mp.log1p(-MINUS_PHI.embed(40))
        assert abs(val) < mp.mpf("1e-25")
