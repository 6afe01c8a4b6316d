"""Exact integer and rational sequences feeding the expansion.

Covers Fibonacci numbers at any integer index, Eulerian numbers, Bernoulli
numbers (first convention, B_1 = -1/2) and their values at 1/2, and the
combination

    polylog_delta(n) = Li_{-n}(1/phi) - (-1)**n * Li_{-n}(-phi)

whose values all lie in Q(sqrt5).  Inversion, Li_{-n}(z) + (-1)**n Li_{-n}(1/z)
= 0 for n >= 1 (the sum is -1 at n = 0), turns Li_{-n}(-phi) into
Li_{-n}(-1/phi); duplication, Li_{-n}(z) + Li_{-n}(-z) = 2**(n+1) Li_{-n}(z**2),
then leaves one polylog at w = phi**-2:

    polylog_delta(n) = 2**(n+1) * Li_{-n}(phi**-2) + [n = 0].

Since 1 - w = 1/phi, the Eulerian form Li_{-n}(w) = sum_k A(n,k) w**(k+1)
/ (1-w)**(n+1) becomes sum_k A(n,k) phi**(n-2k-1).  Every integer power
of phi is phi**e = F(e-1) + F(e) phi, with F(-e) = (-1)**(e+1) F(e), and
phi = (1 + sqrt5)/2, so

    polylog_delta(n) = 2**n (2a + b) + 2**n b sqrt5 + [n = 0],
    a = sum_k A(n,k) F(n-2k-2),  b = sum_k A(n,k) F(n-2k-1),

a sum of integers with no rational arithmetic at all.  The tests check it
against the defining pair of polylogs, each evaluated exactly from its
rational Eulerian form in sympy's Q(sqrt5).

Bernoulli numbers come from mpmath's exact `bernfrac`.  Values that depend
only on their index are memoized by `functools.cache`, whose `cache_info()`
counts hits and misses; the Fibonacci numbers and Eulerian rows are growing
lists, as each entry is built from the one before.  The package runs in one
thread, so none of these stores is locked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Tuple

import mpmath as mp

from .field import FieldElem

__all__ = [
    "fibonacci",
    "eulerian_row",
    "bernoulli_number",
    "bernoulli_half",
    "polylog_delta",
]

_fibonacci: list = [0, 1]
_eulerian_rows: list = [(1,)]


def fibonacci(n: int) -> int:
    """F(n) for every integer n: F(0) = 0, F(1) = 1, F(-n) = (-1)**(n+1) F(n)."""
    k = abs(n)
    while len(_fibonacci) <= k:
        _fibonacci.append(_fibonacci[-1] + _fibonacci[-2])
    return -_fibonacci[k] if n < 0 and k % 2 == 0 else _fibonacci[k]


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


@cache
def bernoulli_number(n: int) -> Fraction:
    """Exact B_n, from mpmath's exact numerator and denominator."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(*mp.bernfrac(n))


@cache
def bernoulli_half(n: int) -> Fraction:
    """B_n evaluated at 1/2, via B_n(1/2) = (2**(1-n) - 1) * B_n."""
    return bernoulli_number(n) * (Fraction(2) ** (1 - n) - 1)  # raises ValueError for n < 0


@cache
def polylog_delta(n: int) -> FieldElem:
    """Li_{-n}(1/phi) - (-1)**n Li_{-n}(-phi); exact, cached, in Q(sqrt5).

    Computed from integer Fibonacci sums over the Eulerian row; see the
    module docstring.
    """
    row = eulerian_row(n)  # raises ValueError for n < 0
    a = sum(c * fibonacci(n - 2 * k - 2) for k, c in enumerate(row))
    b = sum(c * fibonacci(n - 2 * k - 1) for k, c in enumerate(row))
    return FieldElem(2**n * (2 * a + b) + (n == 0), 2**n * b)
