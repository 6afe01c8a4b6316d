import math
from fractions import Fraction
from itertools import permutations

import mpmath as mp
import pytest

from sympy import QQ, sqrt
from unclosed.field import FieldElem
from unclosed.qseries import log_poch_check
from unclosed.sequences import (
    bernoulli_half,
    bernoulli_number,
    eulerian_row,
    fibonacci,
    polylog_delta,
)

# the oracle computes in sympy's Q(sqrt5) and shares no code with FieldElem
K = QQ.algebraic_field(sqrt(5))
PHI = K.from_sympy((1 + sqrt(5)) / 2)
PHI_INV = PHI - K.one
MINUS_PHI = -PHI


def coords(x):
    """(p, q) with x = p + q*sqrt5, for a sympy element x of K."""
    rep = [Fraction(int(c.numerator), int(c.denominator)) for c in x.to_list()]
    q, p = [Fraction(0)] * (2 - len(rep)) + rep
    return p, q


def embed(x):
    """Real value of x at the working precision, with sqrt5 > 0."""
    p, q = coords(x)
    return mp.mpf(p.numerator) / p.denominator + mp.mpf(q.numerator) / q.denominator * mp.sqrt(5)


def polylog_neg(n, w):
    """Li_{-n}(w) as an exact element of K, n >= 0.

    The closed rational form with Eulerian numerator: Li_0(w) = w/(1-w)
    and Li_{-n}(w) = sum_k A(n,k) w**(k+1) / (1-w)**(n+1).  It is the
    oracle for polylog_delta and for the mpmath polylogs of order 0 and below
    that log_poch_check takes.
    """
    if n < 0:
        raise ValueError("only non-positive polylog orders are exact here")
    if w == K.one:
        raise ZeroDivisionError("pole at w = 1")
    one_minus_w_inv = K.one / (K.one - w)
    if n == 0:
        return w * one_minus_w_inv
    num = K.zero
    wp = w
    for a in eulerian_row(n):
        num = num + wp * a
        wp = wp * w
    return num * one_minus_w_inv ** (n + 1)


def descents_count(n, k):
    # brute-force: permutations of [1..n] with exactly k descents
    total = 0
    for p in permutations(range(n)):
        d = sum(1 for i in range(n - 1) if p[i] > p[i + 1])
        if d == k:
            total += 1
    return total


def test_fibonacci_at_negative_and_positive_indices():
    values = {n: fibonacci(n) for n in range(-70, 71)}
    assert all(type(v) is int for v in values.values())
    assert [values[n] for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    for n in range(-68, 71):
        assert values[n] == values[n - 1] + values[n - 2], n
    for n in range(71):
        assert values[-n] == (-1) ** (n + 1) * values[n], n
    # phi**n = F(n-1) + F(n) phi for every integer n, with phi**-1 = phi - 1
    for n in range(-20, 21):
        power = PHI**n if n >= 0 else PHI_INV ** -n
        assert power == K.convert(values[n - 1]) + PHI * values[n], n


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
    # the row of n has n entries, except the conventional (1,) at n = 0
    assert [len(eulerian_row(n)) for n in range(6)] == [1, 1, 2, 3, 4, 5]
    assert eulerian_row(3) == (1, 4, 1)
    with pytest.raises(ValueError):
        eulerian_row(-1)


def test_bernoulli_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_recurrence_invariant():
    # the table comes from mpmath; the defining recurrence is the oracle
    table = [bernoulli_number(n) for n in range(65)]
    assert all(type(b) is Fraction for b in table)
    for n in range(1, 65):
        acc = sum(math.comb(n + 1, j) * table[j] for j in range(n + 1))
        assert acc == 0, n
    for m in range(1, 32):
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
        polylog_neg(1, K.one)
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
            wn = embed(w)
            for n in range(0, 5):
                def li(x, order=n):
                    num = sum(a * x ** (k + 1) for k, a in enumerate(eulerian_row(order)))
                    return num / (1 - x) ** (order + 1) if order else x / (1 - x)

                deriv = (li(wn + h) - li(wn - h)) / (2 * h)
                lhs = embed(polylog_neg(n + 1, w))
                assert abs(lhs - wn * deriv) < mp.mpf("1e-20") * (1 + abs(lhs))


def test_delta_table_values():
    assert polylog_delta(0) == FieldElem(0, 1)
    assert polylog_delta(1) == FieldElem(4)
    assert polylog_delta(2) == FieldElem(0, 8)
    table = [polylog_delta(n) for n in range(21)]
    # sqrt5 -> -sqrt5 swaps 1/phi and -phi, so delta(n) lies in sqrt5**(n+1) * Q
    for n, v in enumerate(table):
        assert (v.p if n % 2 == 0 else v.q) == 0
    assert table[3] == FieldElem(112)


def test_delta_matches_two_polylog_definition():
    # polylog_delta uses one polylog at phi**-2; compare with the defining pair
    # through n = 80, which the order-40 expansion reads
    for n in range(81):
        want = polylog_neg(n, PHI_INV) - polylog_neg(n, MINUS_PHI) * (-1) ** n
        got = polylog_delta(n)
        assert (got.p, got.q) == coords(want), n


def test_delta_coordinates_are_integers():
    # the Fibonacci route sums integers only, so no denominator can appear
    for n in range(65):
        v = polylog_delta(n)
        assert v.p.denominator == 1 and v.q.denominator == 1, n


def test_delta_table_caps():
    # `tables` stops at n = 64 (tests/test_cli.py); single values grow past it
    with pytest.raises(ValueError):
        polylog_delta(-1)
    v = polylog_delta(65)
    assert v.p.denominator == 1 and v.q.denominator == 1


@pytest.mark.parametrize(
    "w, v, N", [(("1/phi", PHI_INV), 0.0, 4), (("-phi", MINUS_PHI), 0.25, 2)]
)
def test_log_poch_truncation_matches_exact_polylog_oracle(w, v, N):
    # log_poch_check takes Li_2 from its closed forms and the lower orders
    # from mpmath; here k >= 1 uses the exact rational values and k <= 0
    # mpmath's Li_2 and Li_1 = -log1p(-w)
    label, w = w
    s_grid = ("0.2", "0.1", "0.05")
    rows = log_poch_check(label, v, N, s_grid)
    with mp.workdps(60):
        wn = embed(w)
        x = mp.mpc(mp.mpf(1) / 2, v)
        for row, s in zip(rows, s_grid):
            smp = mp.mpf(s)
            want = -mp.polylog(2, wn) / smp - mp.log1p(-wn) * mp.mpc(0, v)
            for k in range(1, N + 1):
                coeff = embed(polylog_neg(k - 1, w))
                want += coeff * (-smp) ** k * mp.bernpoly(k + 1, x) / math.factorial(k + 1)
            assert abs(row.truncated - want) < mp.mpf("1e-45"), (s, row.truncated, want)


def test_index_minus_one_vanishes_numerically():
    # the order -1 combination involves Li_1 and is transcendental; at 30+
    # digits the two logs cancel to well below 1e-25
    with mp.workdps(50):
        val = -mp.log1p(-embed(PHI_INV)) - mp.log1p(-embed(MINUS_PHI))
        assert abs(val) < mp.mpf("1e-25")
