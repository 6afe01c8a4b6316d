import json
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unclosed import expansion, series
from unclosed.expansion import assembled_series, compute_expansion, render_expansion
from unclosed.field import FieldElem
from unclosed.series import VPoly, exp_series, exponent_series


def test_b0_and_b1_exact():
    r = compute_expansion(1)
    assert r.b[0] == FieldElem(1)
    assert r.b[1] == FieldElem(0, Fraction(1, 40))
    assert json.loads(render_expansion(r, "json", 30))["b"][1]["value"].startswith("0.055901699437494742")


def test_low_order_values_against_sympy_oracle():
    # fully independent symbolic route: sympy polylogs, Bernoulli polynomials,
    # a truncated power sum for the exponential, and Gaussian moments
    sp = pytest.importorskip("sympy")

    t, v = sp.symbols("t v")
    phi = sp.Rational(1, 2) + sp.sqrt(5) / 2

    def delta(n):
        val = sp.expand_func(sp.polylog(-n, 1 / phi)) - (-1) ** n * sp.expand_func(
            sp.polylog(-n, -phi)
        )
        return sp.radsimp(val)

    J = 3
    expr = -sp.sqrt(5) / 24 * t ** 2
    for k in range(2, 2 * J + 2):
        arg = sp.Rational(1, 2) + sp.I * v / (5 ** sp.Rational(1, 4) * t)
        expr += delta(k - 1) * t ** (2 * k) * sp.bernoulli(k + 1, arg) / sp.factorial(k + 1)
    # exp(E) = sum_n E**n / n!, cut above t**(2J) after each product; every
    # power of t in E is at least 1, so n <= 2J suffices
    E = sp.expand(expr)
    ser = power = sp.Integer(1)
    for n in range(1, 2 * J + 1):
        power = sp.expand(power * E)
        power = sp.Add(*(power.coeff(t, i) * t ** i for i in range(n, 2 * J + 1)))
        ser += power / sp.factorial(n)
    ser = sp.expand(ser)
    oracle = {}
    for j in range(J + 1):
        poly = sp.Poly(sp.expand(ser.coeff(t, 2 * j)), v)
        total = sp.Integer(0)
        for (deg,), c in poly.terms():
            if deg % 2 == 0:
                total += c * (sp.factorial2(deg - 1) if deg > 0 else 1)
        oracle[j] = sp.radsimp(sp.expand(total))

    r = compute_expansion(J)
    for j in range(J + 1):
        p, q = r.b[j].p, r.b[j].q
        ours = sp.Rational(p.numerator, p.denominator) + sp.Rational(
            q.numerator, q.denominator
        ) * sp.sqrt(5)
        assert sp.simplify(oracle[j] - ours) == 0, j


def test_high_order_regression_anchors():
    # frozen from this engine (independently confirmed through order 3 by the
    # symbolic oracle and numerically through order 2); guards refactors
    r = compute_expansion(12)
    assert r.b[6] == FieldElem(Fraction(9602784703, 983040000000))
    assert r.b[12] == FieldElem(
        Fraction(2333331578194316198254705027, 2678771102515200000000000000)
    )
    assert r.c[11] == FieldElem(
        Fraction(99475608411659503, 116943750000000000)
    )


def test_b2_against_numeric_extraction():
    # b_2 from a Vandermonde fit of five direct sums, with no exact input:
    # within the fit's spread, and within 1e-5 of b_2 (2.1e-6 measured)
    from unclosed.qseries import coefficient_ladder

    estimate, spread = coefficient_ladder(["0.05", "0.04", "0.03", "0.02", "0.01"])[2]
    exact = compute_expansion(2).b[2].embed(30)
    with mp.workdps(40):
        assert abs(estimate - exact) <= spread
        assert abs(estimate - exact) < mp.mpf("1e-5")


def rescaled(x, j):
    # x / sqrt5**j as a rational, the coefficient of s'**j = (sqrt5 * s)**j
    keep, off = (x.q, x.p) if j % 2 else (x.p, x.q)
    assert off == 0, j
    return keep / 5 ** (j // 2)


def test_c1_equals_b1_and_round_trip():
    for J in (6, 12, 24):
        r = compute_expansion(J)
        assert r.c[0] == r.b[1]
        # exp(sum c'_j s'**j) re-expanded must equal 1 + sum b'_j s'**j exactly
        trunc = 2 * J
        cser = [VPoly([])] * (trunc + 1)
        for j, cj in enumerate(r.c, 1):
            cser[2 * j] = VPoly([rescaled(cj, j)])
        back = exp_series(cser)
        assert len(back) == trunc + 1
        for j, p in enumerate(back[::2]):
            assert len(p.P) <= 1  # constant in w'
            assert p.coeff(0) == rescaled(r.b[j], j)
        assert all(p.is_zero() for p in back[1::2])


def test_off_grade_delta_fails_the_entry_check(monkeypatch):
    # polylog_delta(2) = 8*sqrt5 feeds summand k = 3, which must be sqrt5**3
    # times a rational; a rational part breaks the grading the kernel needs
    good = series.polylog_delta

    def off_grade(n):
        d = good(n)
        return FieldElem(d.p + 1, d.q) if n == 2 else d

    monkeypatch.setattr(series, "polylog_delta", off_grade)
    monkeypatch.setattr(expansion, "_prefix", None)
    with pytest.raises(ArithmeticError, match=r"polylog_delta\(2\)"):
        compute_expansion(2)


def test_determinism():
    a = compute_expansion(5)
    b = compute_expansion(5)
    assert a.b == b.b and a.c == b.c and a.growth == b.growth
    assert render_expansion(a, "json", 30) == render_expansion(b, "json", 30)


def test_result_takes_no_assignment():
    # a result is a value: a field cannot be rebound after the build
    r = compute_expansion(2)
    with pytest.raises(AttributeError):
        r.b = ()
    assert len(r.b) == 3


def test_growth_statistics():
    r = compute_expansion(8)
    assert len(r.growth) == 8
    assert abs(r.growth[0] - 0.05590169943749474) < 1e-15


def test_validation_errors():
    with pytest.raises(ValueError):
        compute_expansion(0)
    with pytest.raises(ValueError):
        render_expansion(compute_expansion(3), "json", 0)
    with pytest.raises(ValueError):
        assembled_series(0)
    with pytest.raises(ValueError):
        render_expansion(compute_expansion(1), "xml", 30)


def test_render_order_one_row_counts():
    r = compute_expansion(1)
    doc = json.loads(render_expansion(r, "json", precision=20))
    assert doc["schema_version"] == 1
    assert doc["precision"] == 20
    assert len(doc["b"]) == 2  # exactly b_0 and b_1
    assert len(doc["c"]) == 1
    assert doc["b"][1]["q"] == "1/40"


def test_render_csv_json_parity():
    r = compute_expansion(3)
    doc = json.loads(render_expansion(r, "json", precision=25))
    csv_lines = render_expansion(r, "csv", precision=25).strip().splitlines()
    assert csv_lines[0] == "series,j,p,q,value"
    body = [ln.split(",") for ln in csv_lines[1:]]
    b_rows = [row for row in body if row[0] == "b"]
    assert len(b_rows) == len(doc["b"])
    for row, jrow in zip(b_rows, doc["b"]):
        assert int(row[1]) == jrow["j"]
        assert row[2] == jrow["p"]
        assert row[3] == jrow["q"]
        assert row[4] == jrow["value"]
    growth_rows = [row for row in body if row[0] == "growth"]
    assert [float(r_[4]) for r_ in growth_rows] == [float(g["root"]) for g in doc["growth"]]


def test_assembled_series_odd_powers_integrate_to_zero():
    from unclosed.series import gaussian_integrate

    ser = assembled_series(4)
    assert len(ser) == 9
    for p in ser[1::2]:
        assert gaussian_integrate(p) == 0


def test_truncation_discipline_captures_all_summands():
    # exponent_series(T) stops at summand T+1; any higher summand only
    # produces powers past t^T, so three more must leave powers <= T alone
    T = 6
    assert exponent_series(T + 3)[: T + 1] == exponent_series(T)


def _cold(order):
    # empty the cache first, so the build cannot be served from an earlier one
    expansion._prefix = None
    return compute_expansion(order), assembled_series(order)


@settings(max_examples=20)
@given(st.integers(1, 15).flatmap(lambda j1: st.tuples(st.just(j1), st.integers(j1 + 1, 16))))
def test_smaller_order_is_prefix_of_larger(orders):
    j1, j2 = orders
    small, small_series = _cold(j1)
    _cold(j2)
    sliced = compute_expansion(j1)
    assert sliced.b == small.b and sliced.c == small.c and sliced.growth == small.growth
    assert assembled_series(j1) == small_series


def test_smaller_order_after_larger_reuses_cache(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return exponent_series(*args)

    monkeypatch.setattr(expansion, "_prefix", None)
    monkeypatch.setattr(expansion, "exponent_series", counting)
    compute_expansion(24)
    assert len(calls) == 1
    warm = render_expansion(compute_expansion(12), "json", 30)
    assert len(calls) == 1
    expansion._prefix = None
    assert render_expansion(compute_expansion(12), "json", 30) == warm
    assert len(calls) == 2


def test_order_40_matches_reference_prefix(monkeypatch):
    ref = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "coeffs-24.json"
    doc = json.loads(ref.read_text(encoding="utf-8"))
    monkeypatch.setattr(expansion, "_prefix", None)
    r = compute_expansion(40)
    assert len(r.b) == 41 and len(r.c) == 40
    for got, want in ((r.b, doc["b"]), (r.c, doc["c"])):
        assert len(want) < len(got)
        for x, row in zip(got, want):
            assert x == FieldElem(Fraction(row["p"]), Fraction(row["q"])), row["j"]
