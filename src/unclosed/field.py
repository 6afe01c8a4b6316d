"""Exact arithmetic in the real quadratic field Q(sqrt5).

An element p + q*sqrt5 is stored as its two reduced rational coordinates.
The field hosts the exact values of the package that are not rational:
the golden ratio phi = (1 + sqrt5)/2 (phi**2 = phi + 1), the polylog delta
values, and the expansion coefficients b_j and c_j.

FieldElem is not used by the series arithmetic: `unclosed.series` works
over Q in rescaled variables, reads the two coordinates of each delta
value once, and builds a FieldElem only for each final b_j and c_j.

Elements are immutable and all operations are pure, so values can be
shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import mpmath as mp

__all__ = ["FieldElem", "ZERO", "ONE", "SQRT5", "PHI", "PHI_INV", "MINUS_PHI"]

Scalar = Union[int, Fraction]


class FieldElem:
    """One element p + q*sqrt5 of Q(sqrt5), with rational p and q."""

    __slots__ = ("p", "q")

    def __init__(self, p: Scalar = 0, q: Scalar = 0):
        object.__setattr__(self, "p", Fraction(p))
        object.__setattr__(self, "q", Fraction(q))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FieldElem is immutable")

    # ------------------------------------------------------------------
    # ring structure
    # ------------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return FieldElem(self.p + other.p, self.q + other.q)

    def __sub__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return FieldElem(self.p - other.p, self.q - other.q)

    def __neg__(self):
        return FieldElem(-self.p, -self.q)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElem(self.p * other, self.q * other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        a, b, c, d = self.p, self.q, other.p, other.q
        return FieldElem(a * c + 5 * b * d, a * d + b * c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FieldElem":
        # n >= 0 only: no output divides in the field, and n >>= 1 never ends at n < 0
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        base = self
        result = ONE
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __bool__(self):
        return bool(self.p or self.q)

    def is_zero(self) -> bool:
        return not (self.p or self.q)

    # ------------------------------------------------------------------
    # numeric value and rendering
    # ------------------------------------------------------------------

    def embed(self, digits: int = 30) -> mp.mpf:
        """Real value with sqrt5 > 0, good to `digits` digits."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        with mp.workdps(digits + 10):
            value = mp.mpf(self.p.numerator) / self.p.denominator
            if self.q:
                value += mp.mpf(self.q.numerator) / self.q.denominator * mp.sqrt(5)
            return value

    def render(self) -> str:
        """Human-readable form: "p" for a rational, "p + q*sqrt5" otherwise."""
        if not self.q:
            return str(self.p)
        sign = "+" if self.q >= 0 else "-"
        return f"{self.p} {sign} {abs(self.q)}*sqrt5"

    def __repr__(self):
        return f"FieldElem({self.render()})"


ZERO = FieldElem()
ONE = FieldElem(1)
SQRT5 = FieldElem(0, 1)

PHI = FieldElem(Fraction(1, 2), Fraction(1, 2))
PHI_INV = PHI - ONE
MINUS_PHI = -PHI
