"""Truncated formal series in t = sqrt(s) with polynomial-in-w coefficients.

The saddle-point exponent of the normalized remainder is a series in t and
the standard Gaussian variable v, whose t**m v**j coefficient is an element
of Q(sqrt5) times (i * 5**(-1/4))**j.  The graded variable

    w = i * v / 5**(1/4)

absorbs that factor, so every coefficient in w lies in Q(sqrt5).  Products,
exp and log keep the grading, and Gaussian integration becomes
E[w**(2m)] = (-1/sqrt5)**m * (2m-1)!! with odd powers giving 0.

`VPoly` is a dense polynomial in w over Q(sqrt5).  `PuiseuxSeries` maps
integer powers of t to VPoly values up to a fixed truncation order;
arithmetic never reads past the truncation.  `exponent_series` assembles
the exponent: each degree-(k+1) shifted Bernoulli polynomial enters at base
power t**(2k), and its w**j monomial is pushed down to t**(2k-j).

Everything here is exact; zero coefficients are detected by exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Dict, Mapping, Sequence, Union

import mpmath as mp

from .field import FieldElem, ONE, SQRT5, ZERO
from .sequences import bernoulli_half, polylog_delta

__all__ = ["VPoly", "PuiseuxSeries", "gaussian_integrate", "exponent_series"]

ScalarLike = Union[int, Fraction, FieldElem]


def _as_field(value: ScalarLike) -> FieldElem:
    if isinstance(value, FieldElem):
        return value
    return FieldElem(value)


class VPoly:
    """Dense polynomial in w with FieldElem coefficients, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[FieldElem]):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("VPoly is immutable")

    @classmethod
    def zero(cls) -> "VPoly":
        return cls(())

    @classmethod
    def one(cls) -> "VPoly":
        return cls((ONE,))

    @classmethod
    def monomial(cls, degree: int, coeff: ScalarLike = 1) -> "VPoly":
        return cls([ZERO] * degree + [_as_field(coeff)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> FieldElem:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else ZERO

    def __add__(self, other: "VPoly") -> "VPoly":
        if not isinstance(other, VPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return VPoly([self.coeff(j) + other.coeff(j) for j in range(n)])

    def __sub__(self, other: "VPoly") -> "VPoly":
        return self + (-other)

    def __neg__(self) -> "VPoly":
        return VPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            return self.scale(other)
        if not isinstance(other, VPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return VPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return VPoly(out)

    __rmul__ = __mul__

    def scale(self, s: ScalarLike) -> "VPoly":
        s = _as_field(s)
        return VPoly([c * s for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, VPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def eval_embed(self, w, digits: int = 30) -> mp.mpc:
        """Numeric value at w (real or complex), Horner form."""
        with mp.workdps(digits + 10):
            acc = mp.mpc(0)
            for c in reversed(self.coeffs):
                acc = acc * w + c.embed(digits)
            return acc

    def __repr__(self):
        if self.is_zero():
            return "VPoly(0)"
        parts = [f"({c.render()})*w^{j}" for j, c in enumerate(self.coeffs) if not c.is_zero()]
        return "VPoly(" + " + ".join(parts) + ")"


class PuiseuxSeries:
    """Map from powers of t = sqrt(s) to VPoly coefficients, truncated."""

    __slots__ = ("trunc_order", "terms")

    def __init__(self, trunc_order: int, terms: Mapping[int, VPoly]):
        if trunc_order < 0:
            raise ValueError("trunc_order must be >= 0")
        clean: Dict[int, VPoly] = {}
        for m, p in terms.items():
            if m < 0:
                raise ValueError("negative powers of t are not representable")
            if m > trunc_order:
                raise ValueError(f"power t^{m} exceeds truncation order {trunc_order}")
            if not p.is_zero():
                clean[m] = p
        object.__setattr__(self, "trunc_order", trunc_order)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PuiseuxSeries is immutable")

    @classmethod
    def zero(cls, trunc_order: int) -> "PuiseuxSeries":
        return cls(trunc_order, {})

    @classmethod
    def one(cls, trunc_order: int) -> "PuiseuxSeries":
        return cls(trunc_order, {0: VPoly.one()})

    def coeff(self, m: int) -> VPoly:
        return self.terms.get(m, VPoly.zero())

    def powers(self):
        return sorted(self.terms)

    def _require_same_order(self, other: "PuiseuxSeries"):
        if self.trunc_order != other.trunc_order:
            raise ValueError(
                f"truncation orders differ: {self.trunc_order} vs {other.trunc_order}"
            )

    def __add__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        self._require_same_order(other)
        out = dict(self.terms)
        for m, p in other.terms.items():
            out[m] = out.get(m, VPoly.zero()) + p
        return PuiseuxSeries(self.trunc_order, out)

    def __sub__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PuiseuxSeries(self.trunc_order, {m: -p for m, p in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            return self.scale(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        self._require_same_order(other)
        out: Dict[int, VPoly] = {}
        for m1, p1 in self.terms.items():
            for m2, p2 in other.terms.items():
                m = m1 + m2
                if m > self.trunc_order:
                    continue
                prod = p1 * p2
                out[m] = out.get(m, VPoly.zero()) + prod
        return PuiseuxSeries(self.trunc_order, out)

    __rmul__ = __mul__

    def scale(self, s: ScalarLike) -> "PuiseuxSeries":
        return PuiseuxSeries(self.trunc_order, {m: p.scale(s) for m, p in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self.trunc_order == other.trunc_order and self.terms == other.terms

    def exp(self) -> "PuiseuxSeries":
        """Formal exponential; requires strictly positive valuation.

        Computed through the coefficient recurrence m*E_m = sum_r r*a_r*E_{m-r},
        which agrees with summing a**m/m! at any truncation and stays exact.
        """
        if not self.coeff(0).is_zero():
            raise ValueError("exp needs a series with no t^0 term")
        out: Dict[int, VPoly] = {0: VPoly.one()}
        for m in range(1, self.trunc_order + 1):
            acc = VPoly.zero()
            for r in range(1, m + 1):
                a_r = self.terms.get(r)
                if a_r is None:
                    continue
                e = out.get(m - r)
                if e is None:
                    continue
                acc = acc + (a_r * e).scale(Fraction(r))
            if not acc.is_zero():
                out[m] = acc.scale(Fraction(1, m))
        return PuiseuxSeries(self.trunc_order, out)

    def log(self) -> "PuiseuxSeries":
        """Formal logarithm; requires constant term exactly 1."""
        if self.coeff(0) != VPoly.one():
            raise ValueError("log needs a series with constant term 1")
        out: Dict[int, VPoly] = {}
        for m in range(1, self.trunc_order + 1):
            acc = self.coeff(m).scale(Fraction(m))
            for r in range(1, m):
                l_r = out.get(r)
                if l_r is None:
                    continue
                a = self.terms.get(m - r)
                if a is None:
                    continue
                acc = acc - (l_r * a).scale(Fraction(r))
            if not acc.is_zero():
                out[m] = acc.scale(Fraction(1, m))
        return PuiseuxSeries(self.trunc_order, out)

    def eval_embed(self, t, w, digits: int = 30) -> mp.mpc:
        """Numeric value at concrete t and w."""
        with mp.workdps(digits + 10):
            t = mp.mpmathify(t)
            acc = mp.mpc(0)
            for m in self.powers():
                acc += self.terms[m].eval_embed(w, digits) * t ** m
            return acc

    def __repr__(self):
        body = ", ".join(f"t^{m}: {self.terms[m]!r}" for m in self.powers())
        return f"PuiseuxSeries(order<={self.trunc_order}, {body})"


# ----------------------------------------------------------------------
# Gaussian moments
# ----------------------------------------------------------------------


_moment_cache: list = [ONE]
_W2 = FieldElem(0, Fraction(-1, 5))  # w**2 = -v**2/sqrt5


def _even_moment(j: int) -> FieldElem:
    # E[w**j] = (-1/sqrt5)**(j/2) * (j-1)!! for even j, via the cached recurrence
    m = j // 2
    while len(_moment_cache) <= m:
        k = len(_moment_cache)
        _moment_cache.append(_moment_cache[-1] * _W2 * (2 * k - 1))
    return _moment_cache[m]


def gaussian_integrate(p: VPoly) -> FieldElem:
    """Mean of p(w) over standard Gaussian v: w**(2m) -> (-1/sqrt5)**m (2m-1)!!, odd -> 0."""
    total = ZERO
    for j, c in enumerate(p.coeffs):
        if j % 2 or c.is_zero():
            continue
        total = total + c * _even_moment(j)
    return total


# ----------------------------------------------------------------------
# the saddle-point exponent series
# ----------------------------------------------------------------------


def exponent_series(max_index: int, trunc_order: int) -> PuiseuxSeries:
    """Exponent series in t = sqrt(s) after the Gaussian substitution.

    Summand k (2 <= k <= max_index) contributes, for each monomial w**j of
    the degree-(k+1) Bernoulli polynomial shifted to 1/2,

        polylog_delta(k-1)/(k+1)! * C(k+1, j) * B_{k+1-j}(1/2) * w**j * t**(2k-j),

    which lies in Q(sqrt5) because w = i * v / 5**(1/4) carries the scale.

    The lowest power produced by summand k is t**(k-1), so the result has
    strictly positive valuation and can be fed to `PuiseuxSeries.exp`.
    """
    if max_index < 2:
        raise ValueError("max_index must be >= 2")
    rows: Dict[int, Dict[int, FieldElem]] = {}
    for k in range(2, max_index + 1):
        ck = polylog_delta(k - 1) * Fraction(1, factorial(k + 1))
        for j in range(k + 2):
            m = 2 * k - j
            if m > trunc_order:
                continue
            bh = comb(k + 1, j) * bernoulli_half(k + 1 - j)
            if not bh:
                continue
            row = rows.setdefault(m, {})
            row[j] = row.get(j, ZERO) + ck * bh

    terms: Dict[int, VPoly] = {}
    for m, row in rows.items():
        size = max(row) + 1
        coeffs = [ZERO] * size
        for j, c in row.items():
            coeffs[j] = c
        terms[m] = VPoly(coeffs)
    return PuiseuxSeries(trunc_order, terms)


def damping_term(trunc_order: int) -> PuiseuxSeries:
    """The extra -sqrt(5)/24 * t**2 carried inside the same exponential."""
    if trunc_order < 2:
        return PuiseuxSeries.zero(trunc_order)
    return PuiseuxSeries(trunc_order, {2: VPoly([SQRT5 * Fraction(-1, 24)])})
