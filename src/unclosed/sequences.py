"""Exact integer and rational sequences feeding the expansion.

Covers Eulerian numbers, Bernoulli numbers (first convention, B_1 = -1/2)
and their values at 1/2, negative-order polylogarithms as exact rational
functions, and the combination

    polylog_delta(n) = Li_{-n}(1/phi) - (-1)**n * Li_{-n}(-phi)

whose values all lie in Q(sqrt5).  Tables grow on demand and are cached;
after construction they are only read, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Tuple

from .field import FieldElem, MINUS_PHI, ONE, PHI_INV, ZERO

__all__ = [
    "DEFAULT_MAX_ORDER",
    "EulerianTriangle",
    "BernoulliTable",
    "eulerian_row",
    "eulerian_triangle",
    "bernoulli_number",
    "bernoulli_numbers",
    "bernoulli_half",
    "polylog_neg",
    "polylog_delta",
    "polylog_delta_table",
]

# Orders beyond this are refused by the table constructors; the expansion
# pipeline never needs more and exact coefficients grow factorially.
DEFAULT_MAX_ORDER = 64


@dataclass(frozen=True)
class EulerianTriangle:
    """Rows A(n, k) for 0 <= n <= max_order (row n=0 is [1] by convention)."""

    rows: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class BernoulliTable:
    """Bernoulli numbers B_0..B_N with the B_1 = -1/2 convention."""

    values: Tuple[Fraction, ...]


_eulerian_rows: list = [(1,)]
_bernoulli: list = [Fraction(1)]
_delta_values: list = []


def eulerian_row(n: int) -> Tuple[int, ...]:
    """Row A(n, .) of the Eulerian triangle, by the standard recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_eulerian_rows) <= n:
        m = len(_eulerian_rows)
        prev = _eulerian_rows[-1]
        row = []
        for k in range(m):
            left = (k + 1) * prev[k] if k < len(prev) else 0
            right = (m - k) * prev[k - 1] if 1 <= k <= len(prev) else 0
            row.append(left + right)
        _eulerian_rows.append(tuple(row))
    return _eulerian_rows[n]


def eulerian_triangle(max_order: int = 16) -> EulerianTriangle:
    if not 0 <= max_order <= DEFAULT_MAX_ORDER:
        raise ValueError(f"max_order must be in [0, {DEFAULT_MAX_ORDER}]")
    eulerian_row(max_order)
    return EulerianTriangle(rows=tuple(_eulerian_rows[: max_order + 1]))


def bernoulli_number(n: int) -> Fraction:
    """Exact B_n via the recurrence sum_{j<=n} C(n+1, j) B_j = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_bernoulli) <= n:
        m = len(_bernoulli)
        acc = Fraction(0)
        for j, bj in enumerate(_bernoulli):
            acc += comb(m + 1, j) * bj
        _bernoulli.append(-acc / (m + 1))
    return _bernoulli[n]


def bernoulli_numbers(max_order: int) -> BernoulliTable:
    if not 0 <= max_order <= 4 * DEFAULT_MAX_ORDER:
        raise ValueError("max_order out of range")
    bernoulli_number(max_order)
    return BernoulliTable(values=tuple(_bernoulli[: max_order + 1]))


def bernoulli_half(n: int) -> Fraction:
    """B_n evaluated at 1/2, via B_n(1/2) = (2**(1-n) - 1) * B_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (Fraction(2) ** (1 - n) - 1) * bernoulli_number(n)


def polylog_neg(n: int, w: FieldElem) -> FieldElem:
    """Li_{-n}(w) as an exact field element, n >= 0.

    Uses the closed rational form with Eulerian numerator:
    Li_0(w) = w/(1-w) and Li_{-n}(w) = sum_k A(n,k) w**(k+1) / (1-w)**(n+1).
    """
    if n < 0:
        raise ValueError("only non-positive polylog orders are exact here")
    if w == ONE:
        raise ZeroDivisionError("pole at w = 1")
    one_minus_w_inv = (ONE - w).inverse()
    if n == 0:
        return w * one_minus_w_inv
    num = ZERO
    wp = w
    for a in eulerian_row(n):
        num = num + wp * a
        wp = wp * w
    return num * one_minus_w_inv ** (n + 1)


def polylog_delta(n: int) -> FieldElem:
    """Li_{-n}(1/phi) - (-1)**n Li_{-n}(-phi); exact, cached, in Q(sqrt5)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DEFAULT_MAX_ORDER:
        raise ValueError(f"order {n} exceeds the configured cap {DEFAULT_MAX_ORDER}")
    while len(_delta_values) <= n:
        m = len(_delta_values)
        value = polylog_neg(m, PHI_INV) - polylog_neg(m, MINUS_PHI) * ((-1) ** m)
        _delta_values.append(value)
    return _delta_values[n]


def polylog_delta_table(max_order: int = DEFAULT_MAX_ORDER) -> Tuple[FieldElem, ...]:
    """polylog_delta(0..max_order)."""
    if not 0 <= max_order <= DEFAULT_MAX_ORDER:
        raise ValueError(f"max_order must be in [0, {DEFAULT_MAX_ORDER}]")
    polylog_delta(max_order)
    return tuple(_delta_values[: max_order + 1])
