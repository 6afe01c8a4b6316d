"""Exact values in the real quadratic field Q(sqrt5).

The field hosts the exact values of the package that are not rational:
the polylog delta values and the expansion coefficients b_j and c_j.
FieldElem is a stored value, not a ring: `unclosed.series` computes over
Q in rescaled variables, reads the two coordinates of each delta value
once, and builds a FieldElem only for each final b_j and c_j.  Outputs
compare, embed and render these values; none adds or multiplies them.

An element p + q*sqrt5 is a `typing.NamedTuple` (p, q): immutable, hashable
and shareable across threads.  Coordinates are stored as given, so each is
an int or a Fraction, as every producer passes (`sequences.polylog_delta`,
`series.to_field`, the suites' literals); a float is not converted.  It
unpacks as, and equals, the tuple (p, q): `+`, `*`, `<` and `json.dumps` act
on the pair, not the number, so compare with `==` and order by `embed()`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

import mpmath as mp

__all__ = ["FieldElem"]

Scalar = Union[int, Fraction]


class FieldElem(NamedTuple):
    """One element p + q*sqrt5 of Q(sqrt5), with rational p and q."""

    p: Scalar
    q: Scalar = 0

    def is_zero(self) -> bool:
        return not (self.p or self.q)

    def embed(self, digits: int) -> mp.mpf:
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
