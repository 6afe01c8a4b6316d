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
A series in t' truncated at t'**T is a tuple of T + 1 VPoly values, entry m
the t'**m coefficient.  Dense storage wastes nothing here: the exponent is
zero only at t'**0, and its exponential nowhere.
`exponent_series` assembles the exponent, damping included: each
degree-(k+1) shifted Bernoulli polynomial enters at base power t'**(2k),
and its w'**j monomial is pushed down to t'**(2k-j).  `exp_series` is its
formal exponential, which never reads past the truncation, and
`log_coefficients` the formal log of a scalar series in s' = t'**2.  Both
put each step of their coefficient recurrence over one common denominator
and reduce once per step; `exponent_series` likewise collects each power of
t' as integer fractions and sums them once, over their lcm.

Everything here is exact; zero coefficients are detected by exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import List, Sequence, Tuple

from .field import FieldElem, Scalar
from .sequences import bernoulli_half, polylog_delta

__all__ = [
    "VPoly", "exp_series", "gaussian_integrate", "exponent_series", "log_coefficients",
    "to_field",
]


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


def exp_series(a: Sequence[VPoly]) -> Tuple[VPoly, ...]:
    """Formal exponential of a truncated t'-series with no t'**0 term.

    a[m] is the t'**m coefficient, and the result has the same length.
    Computed through the coefficient recurrence m*E_m = sum_r r*a_r*E_{m-r},
    which agrees with summing a**m/m! at any truncation and stays exact.
    Each step is summed over one common denominator and reduced once.
    """
    if not a[0].is_zero():
        raise ValueError("exp needs a series with no t^0 term")
    out = [VPoly.one()]
    for m in range(1, len(a)):
        P, D = _weighted_sum([(r, a[r], out[m - r]) for r in range(1, m + 1)])
        out.append(VPoly._from_ints(P, m * D))
    return tuple(out)


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
    return Fraction(keep, 5 ** (k // 2))


def exponent_series(trunc_order: int) -> Tuple[VPoly, ...]:
    """Exponent series in t' after the Gaussian substitution, truncated at t'**trunc_order.

    Entry m of the returned tuple is the t'**m coefficient.  Summand k
    contributes, for each monomial w'**j of the degree-(k+1) Bernoulli
    polynomial shifted to 1/2,

        polylog_delta(k-1)/sqrt5**k/(k+1)! * C(k+1, j) * B_{k+1-j}(1/2) * w'**j * t'**(2k-j),

    a rational coefficient.  Its lowest power is t'**(k-1), so summands
    2..trunc_order+1 give every power through the truncation.  The damping
    -sqrt(5)/24 * s = -1/24 * t'**2, carried inside the same exponential,
    fills the t'**2, w'**0 slot.  Entry 0 is zero, so the result can be fed
    to `exp_series`.
    """
    if trunc_order < 0:
        raise ValueError("trunc_order must be >= 0")
    # (j, numerator, denominator) of each w'**j term, per power of t'
    rows: List[List[Tuple[int, int, int]]] = [[] for _ in range(trunc_order + 1)]
    if trunc_order >= 2:
        rows[2].append((0, -1, 24))
    for k in range(2, trunc_order + 2):
        ck = _rescaled_delta(k) / factorial(k + 1)
        for j in range(max(0, 2 * k - trunc_order), k + 2):
            bh = bernoulli_half(k + 1 - j)
            if bh:
                rows[2 * k - j].append((j, ck.numerator * comb(k + 1, j) * bh.numerator,
                                        ck.denominator * bh.denominator))
    return tuple(_combine(row) for row in rows)


def _combine(terms: List[Tuple[int, int, int]]) -> VPoly:
    """The VPoly summing numerator/denominator * w'**j over `terms`, over one lcm."""
    d = lcm(*(q for _, _, q in terms))
    P = [0] * (max((j for j, _, _ in terms), default=-1) + 1)
    for j, p, q in terms:
        P[j] += p * (d // q)
    return VPoly._from_ints(P, d)


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
