"""Truncated formal series in t' with rational polynomial-in-w' coefficients.

The saddle-point exponent of the normalized remainder is a series in
t = sqrt(s) and w = i*v / 5**(1/4), v the standard Gaussian variable, with
coefficients in Q(sqrt5).  Its t**m w**j monomial comes from summand
k = (m + j)/2 of the exponent, which carries polylog_delta(k-1), and in the
rescaled variables

    t' = 5**(1/4) * t,    w' = 5**(1/4) * w = i * v

it reads 5**(-k/2) * t'**m * w'**j.  Every polylog_delta(k-1) is sqrt5**k
times a rational, so every coefficient in t', w' is rational.  exp keeps
that, and Gaussian integration becomes the integer moments
E[w'**(2m)] = (-1)**m * (2m-1)!! with odd powers giving 0.

Only this module knows the two rescalings.  `exponent_series` is the entry:
it divides each delta value by sqrt5**k and raises ArithmeticError if the
part that should vanish does not.  `to_field` is the exit: the mean b'_j of
t'**(2j) and the log coefficient c'_j of s'**j = t'**(2j) become the field
values b_j = b'_j * sqrt5**j and c_j = c'_j * sqrt5**j of s**j.

`VPoly` is a dense polynomial in w' over Q, stored as integer numerators P
over one positive denominator d: the w'**j coefficient is P[j] / d.  The
denominator is reduced by one gcd pass per polynomial, never per
coefficient operation, so products are plain int multiply-adds.
`PuiseuxSeries` maps integer powers of t' to VPoly values up to a fixed
truncation order; its exp never reads past the truncation.
`exponent_series` assembles the exponent, damping included: each
degree-(k+1) shifted Bernoulli polynomial enters at base power t'**(2k),
and its w'**j monomial is pushed down to t'**(2k-j).  `log_coefficients` is
the formal log of a scalar series in s' = t'**2.  exp and log put each step
of their coefficient recurrence over one common denominator and reduce once
per step.

Everything here is exact; zero coefficients are detected by exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .field import FieldElem
from .sequences import bernoulli_half, polylog_delta

__all__ = [
    "VPoly", "PuiseuxSeries", "gaussian_integrate", "exponent_series", "log_coefficients",
    "to_field",
]

Scalar = Union[int, Fraction]


def _canonical(poly: "VPoly", P: List[int], d: int) -> None:
    # trim trailing zero coefficients and divide out gcd(d, P) in one pass
    n = len(P)
    while n and not P[n - 1]:
        n -= 1
    P = P[:n]
    g = gcd(d, *P) if n else d  # the zero polynomial gets d = 1
    if g > 1:
        P = [x // g for x in P]
        d //= g
    object.__setattr__(poly, "P", tuple(P))
    object.__setattr__(poly, "d", d)


def _weighted_sum(terms) -> Tuple[List[int], int]:
    """Numerators P and denominator D of sum(k * x * y for k, x, y in terms)."""
    D = lcm(*(x.d * y.d for _, x, y in terms))
    P = [0] * (max(len(x.P) + len(y.P) for _, x, y in terms) - 1)
    for k, x, y in terms:
        if len(x.P) > len(y.P):
            x, y = y, x
        f = k * (D // (x.d * y.d))
        ys = [(j, b) for j, b in enumerate(y.P) if b]
        for i, a in enumerate(x.P):
            if a:
                a *= f
                for j, b in ys:
                    P[i + j] += a * b
    return P, D


class VPoly:
    """Polynomial in w' over Q: the w'**j coefficient is P[j] / d.

    Canonical form: no trailing zero coefficient, d > 0 and gcd(d, P) = 1
    (d = 1 for the zero polynomial), so equal polynomials store equal data.
    """

    __slots__ = ("P", "d")

    def __init__(self, coeffs: Sequence[Scalar]):
        coeffs = [Fraction(c) for c in coeffs]
        d = lcm(*(c.denominator for c in coeffs))
        _canonical(self, [c.numerator * (d // c.denominator) for c in coeffs], d)

    @classmethod
    def _from_ints(cls, P: List[int], d: int) -> "VPoly":
        poly = object.__new__(cls)
        _canonical(poly, P, d)
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("VPoly is immutable")

    @classmethod
    def zero(cls) -> "VPoly":
        return cls(())

    @classmethod
    def one(cls) -> "VPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> "VPoly":
        return cls([0] * degree + [coeff])

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(self.coeff(j) for j in range(len(self.P)))

    def is_zero(self) -> bool:
        return not self.P

    def coeff(self, j: int) -> Fraction:
        if not 0 <= j < len(self.P):
            return Fraction(0)
        return Fraction(self.P[j], self.d)

    def __eq__(self, other):
        if not isinstance(other, VPoly):
            return NotImplemented
        return self.d == other.d and self.P == other.P

    def __repr__(self):
        if self.is_zero():
            return "VPoly(0)"
        parts = [f"({c})*w'^{j}" for j, c in enumerate(self.coeffs) if c]
        return "VPoly(" + " + ".join(parts) + ")"


class PuiseuxSeries:
    """Map from powers of t' = 5**(1/4) * sqrt(s) to VPoly coefficients, truncated."""

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

    def coeff(self, m: int) -> VPoly:
        return self.terms.get(m, VPoly.zero())

    def powers(self):
        return sorted(self.terms)

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self.trunc_order == other.trunc_order and self.terms == other.terms

    def exp(self) -> "PuiseuxSeries":
        """Formal exponential; requires strictly positive valuation.

        Computed through the coefficient recurrence m*E_m = sum_r r*a_r*E_{m-r},
        which agrees with summing a**m/m! at any truncation and stays exact.
        Each step is summed over one common denominator and reduced once.
        """
        if not self.coeff(0).is_zero():
            raise ValueError("exp needs a series with no t^0 term")
        out: Dict[int, VPoly] = {0: VPoly.one()}
        for m in range(1, self.trunc_order + 1):
            terms = [(r, a, out[m - r]) for r, a in self.terms.items() if m - r in out]
            if terms:
                P, D = _weighted_sum(terms)
                em = VPoly._from_ints(P, m * D)
                if not em.is_zero():
                    out[m] = em
        return PuiseuxSeries(self.trunc_order, out)


# ----------------------------------------------------------------------
# Gaussian moments
# ----------------------------------------------------------------------


_moments: List[int] = [1]  # _moments[m] = E[w'**(2m)] = (-1)**m (2m-1)!!


def gaussian_integrate(p: VPoly) -> Fraction:
    """Mean of p(w') over standard Gaussian v: w'**(2m) -> (-1)**m (2m-1)!!, odd -> 0."""
    while 2 * len(_moments) < len(p.P):
        _moments.append(_moments[-1] * (1 - 2 * len(_moments)))
    return Fraction(sum(a * e for a, e in zip(p.P[::2], _moments)), p.d)


# ----------------------------------------------------------------------
# the saddle-point exponent series, and the way back to Q(sqrt5)
# ----------------------------------------------------------------------


def _rescaled_delta(k: int) -> Fraction:
    """polylog_delta(k-1) / sqrt5**k, which must be rational."""
    delta = polylog_delta(k - 1)
    keep, off = (delta.p, delta.q) if k % 2 == 0 else (delta.q, delta.p)
    if off:
        raise ArithmeticError(f"polylog_delta({k - 1}) is not a rational multiple of sqrt5**{k}")
    return keep / 5 ** (k // 2)


def exponent_series(trunc_order: int) -> PuiseuxSeries:
    """Exponent series in t' after the Gaussian substitution, truncated at t'**trunc_order.

    Summand k contributes, for each monomial w'**j of the degree-(k+1)
    Bernoulli polynomial shifted to 1/2,

        polylog_delta(k-1)/sqrt5**k/(k+1)! * C(k+1, j) * B_{k+1-j}(1/2) * w'**j * t'**(2k-j),

    a rational coefficient.  Its lowest power is t'**(k-1), so summands
    2..trunc_order+1 give every power through the truncation.  The damping
    -sqrt(5)/24 * s = -1/24 * t'**2, carried inside the same exponential,
    fills the t'**2, w'**0 slot.  The result has strictly positive valuation
    and can be fed to `PuiseuxSeries.exp`.
    """
    rows: Dict[int, Dict[int, Fraction]] = {}
    if trunc_order >= 2:
        rows[2] = {0: Fraction(-1, 24)}
    for k in range(2, trunc_order + 2):
        ck = _rescaled_delta(k) / factorial(k + 1)
        for j in range(k + 2):
            m = 2 * k - j
            if m > trunc_order:
                continue
            bh = comb(k + 1, j) * bernoulli_half(k + 1 - j)
            if bh:
                row = rows.setdefault(m, {})
                row[j] = row.get(j, 0) + ck * bh
    terms = {m: VPoly([row.get(j, 0) for j in range(max(row) + 1)]) for m, row in rows.items()}
    return PuiseuxSeries(trunc_order, terms)


def to_field(x: Fraction, j: int) -> FieldElem:
    """x * sqrt5**j: the coefficient of s**j that x is of s'**j = (sqrt5 * s)**j."""
    scaled = x * 5 ** (j // 2)
    return FieldElem(0, scaled) if j % 2 else FieldElem(scaled)


# ----------------------------------------------------------------------
# the exponential form
# ----------------------------------------------------------------------


def log_coefficients(b: Sequence[Scalar]) -> List[Fraction]:
    """c_1..c_J with sum_j c_j s**j = log(sum_j b_j s**j), for b = [1, b_1, .., b_J].

    j*c_j = j*b_j - sum_{r<j} r*c_r*b_{j-r}, one common denominator per step.
    """
    B = [VPoly([x]) for x in b]
    if B[0] != VPoly.one():
        raise ValueError("log needs a series with constant term 1")
    C: List[VPoly] = []  # C[r - 1] is c_r
    for j in range(1, len(B)):
        terms = [(j, B[j], B[0])] + [(-r, C[r - 1], B[j - r]) for r in range(1, j)]
        P, D = _weighted_sum(terms)
        C.append(VPoly._from_ints(P, j * D))
    return [p.coeff(0) for p in C]
