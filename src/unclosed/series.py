"""Truncated formal series in t = sqrt(s) with polynomial-in-w coefficients.

The saddle-point exponent of the normalized remainder is a series in t and
the standard Gaussian variable v, whose t**m v**j coefficient is an element
of Q(sqrt5) times (i * 5**(-1/4))**j.  The graded variable

    w = i * v / 5**(1/4)

absorbs that factor, so every coefficient in w lies in Q(sqrt5).  Products,
exp and log keep the grading, and Gaussian integration becomes
E[w**(2m)] = (-1/sqrt5)**m * (2m-1)!! with odd powers giving 0.

`VPoly` is a dense polynomial in w over Q(sqrt5), stored as two lists of
integer numerators P, Q and one shared positive denominator d: the w**j
coefficient is (P[j] + Q[j]*sqrt5) / d.  The denominator is reduced by one
gcd pass per polynomial, never per coefficient operation, so products and
sums are plain int multiply-adds.  `PuiseuxSeries` maps integer powers of t
to VPoly values up to a fixed truncation order; arithmetic never reads past
the truncation.  exp and log put each step of their coefficient recurrence
over one common denominator and reduce once per step.  `exponent_series`
assembles the exponent: each degree-(k+1) shifted Bernoulli polynomial
enters at base power t**(2k), and its w**j monomial is pushed down to
t**(2k-j).

Everything here is exact; zero coefficients are detected by exact equality.
`FieldElem` stays the exchange type: `VPoly.coeff`, `VPoly.coeffs` and
`gaussian_integrate` return field elements.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, gcd, lcm
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .field import FieldElem, ONE, SQRT5, ZERO
from .sequences import bernoulli_half, polylog_delta

__all__ = ["VPoly", "PuiseuxSeries", "gaussian_integrate", "exponent_series"]

ScalarLike = Union[int, Fraction, FieldElem]


def _as_field(value: ScalarLike) -> FieldElem:
    if isinstance(value, FieldElem):
        return value
    return FieldElem(value)


def _scalar_ints(value: ScalarLike) -> Tuple[int, int, int]:
    """(a, b, e) with integers a, b and e > 0 such that value = (a + b*sqrt5) / e."""
    value = _as_field(value)
    p, q = value.p, value.q
    e = lcm(p.denominator, q.denominator)
    return p.numerator * (e // p.denominator), q.numerator * (e // q.denominator), e


def _canonical(poly: "VPoly", P: List[int], Q: List[int], d: int) -> None:
    # trim trailing zero coefficients and divide out gcd(d, P, Q) in one pass
    n = len(P)
    while n and not (P[n - 1] or Q[n - 1]):
        n -= 1
    if not n:
        P, Q, d = (), (), 1
    else:
        P, Q = P[:n], Q[:n]
        g = gcd(d, *P, *Q)
        if g > 1:
            P = [x // g for x in P]
            Q = [x // g for x in Q]
            d //= g
    object.__setattr__(poly, "P", tuple(P))
    object.__setattr__(poly, "Q", tuple(Q))
    object.__setattr__(poly, "d", d)


def _weighted_sum(terms) -> Tuple[List[int], List[int], int]:
    """Numerators P, Q and denominator D of sum(k * x * y for k, x, y in terms)."""
    D = lcm(*(x.d * y.d for _, x, y in terms))
    size = max(len(x.P) + len(y.P) for _, x, y in terms) - 1
    P, Q = [0] * size, [0] * size
    for k, x, y in terms:
        if len(x.P) > len(y.P):
            x, y = y, x
        f = k * (D // (x.d * y.d))
        ys = [(j, p, q) for j, (p, q) in enumerate(zip(y.P, y.Q)) if p or q]
        for i, (a, b) in enumerate(zip(x.P, x.Q)):
            if not (a or b):
                continue
            a, b = f * a, f * b
            b5 = 5 * b
            for j, p, q in ys:
                P[i + j] += a * p + b5 * q
                Q[i + j] += a * q + b * p
    return P, Q, D


class VPoly:
    """Polynomial in w over Q(sqrt5): the w**j coefficient is (P[j] + Q[j]*sqrt5) / d.

    Canonical form: no trailing zero coefficient, d > 0 and gcd(d, P, Q) = 1
    (d = 1 for the zero polynomial), so equal polynomials store equal data.
    """

    __slots__ = ("P", "Q", "d")

    def __init__(self, coeffs: Sequence[FieldElem]):
        parts = [_scalar_ints(c) for c in coeffs]
        d = lcm(*(e for _, _, e in parts))
        P = [a * (d // e) for a, _, e in parts]
        Q = [b * (d // e) for _, b, e in parts]
        _canonical(self, P, Q, d)

    @classmethod
    def _from_ints(cls, P: List[int], Q: List[int], d: int) -> "VPoly":
        poly = object.__new__(cls)
        _canonical(poly, P, Q, d)
        return poly

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
        return len(self.P) - 1

    @property
    def coeffs(self) -> Tuple[FieldElem, ...]:
        return tuple(self.coeff(j) for j in range(len(self.P)))

    def is_zero(self) -> bool:
        return not self.P

    def coeff(self, j: int) -> FieldElem:
        if not 0 <= j < len(self.P):
            return ZERO
        return FieldElem(Fraction(self.P[j], self.d), Fraction(self.Q[j], self.d))

    def __add__(self, other: "VPoly") -> "VPoly":
        if not isinstance(other, VPoly):
            return NotImplemented
        g = gcd(self.d, other.d)
        f, h = other.d // g, self.d // g
        P = [a * f + b * h for a, b in zip_longest(self.P, other.P, fillvalue=0)]
        Q = [a * f + b * h for a, b in zip_longest(self.Q, other.Q, fillvalue=0)]
        return VPoly._from_ints(P, Q, self.d * f)

    def __sub__(self, other: "VPoly") -> "VPoly":
        return self + (-other)

    def __neg__(self) -> "VPoly":
        return VPoly._from_ints([-a for a in self.P], [-b for b in self.Q], self.d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            return self.scale(other)
        if not isinstance(other, VPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return VPoly.zero()
        return VPoly._from_ints(*_weighted_sum([(1, self, other)]))

    __rmul__ = __mul__

    def scale(self, s: ScalarLike) -> "VPoly":
        a, b, e = _scalar_ints(s)
        P = [p * a + 5 * q * b for p, q in zip(self.P, self.Q)]
        Q = [p * b + q * a for p, q in zip(self.P, self.Q)]
        return VPoly._from_ints(P, Q, self.d * e)

    def __eq__(self, other):
        if not isinstance(other, VPoly):
            return NotImplemented
        return self.d == other.d and self.P == other.P and self.Q == other.Q

    def __hash__(self):
        return hash((self.P, self.Q, self.d))

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
        Each step is summed over one common denominator and reduced once.
        """
        if not self.coeff(0).is_zero():
            raise ValueError("exp needs a series with no t^0 term")
        out: Dict[int, VPoly] = {0: VPoly.one()}
        for m in range(1, self.trunc_order + 1):
            terms = [(r, a, out[m - r]) for r, a in self.terms.items() if m - r in out]
            if terms:
                P, Q, D = _weighted_sum(terms)
                em = VPoly._from_ints(P, Q, m * D)
                if not em.is_zero():
                    out[m] = em
        return PuiseuxSeries(self.trunc_order, out)

    def log(self) -> "PuiseuxSeries":
        """Formal logarithm; requires constant term exactly 1.

        m*L_m = m*a_m - sum_{r<m} r*L_r*a_{m-r}, one common denominator per step.
        """
        if self.coeff(0) != VPoly.one():
            raise ValueError("log needs a series with constant term 1")
        out: Dict[int, VPoly] = {}
        for m in range(1, self.trunc_order + 1):
            terms = [(-r, lr, self.terms[m - r]) for r, lr in out.items() if m - r in self.terms]
            if m in self.terms:
                terms.append((m, self.terms[m], VPoly.one()))
            if terms:
                P, Q, D = _weighted_sum(terms)
                lm = VPoly._from_ints(P, Q, m * D)
                if not lm.is_zero():
                    out[m] = lm
        return PuiseuxSeries(self.trunc_order, out)

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
    """Mean of p(w) over standard Gaussian v: w**(2m) -> (-1/sqrt5)**m (2m-1)!!, odd -> 0.

    The even numerators are weighted by the moment table over one common
    denominator, so only the final value is a field element.
    """
    even = [j for j in range(0, len(p.P), 2) if p.P[j] or p.Q[j]]
    moments = [(j, _scalar_ints(_even_moment(j))) for j in even]
    E = lcm(*(e for _, (_, _, e) in moments))
    x = y = 0
    for j, (a, b, e) in moments:
        f = E // e
        a, b = a * f, b * f
        x += p.P[j] * a + 5 * p.Q[j] * b
        y += p.P[j] * b + p.Q[j] * a
    den = p.d * E
    return FieldElem(Fraction(x, den), Fraction(y, den))


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
