"""Growth diagnostics quantifying why the expansion diverges.

Three mechanisms are measured:

* the factorial growth of polylog_delta(n): the scaled values
  polylog_delta(n) * log(phi)**(n+1) / n! tend to 1 geometrically;
* the partial exponential sums with zeta-normalized Bernoulli weights,
  which converge to exp(z) uniformly on compact sets, so the exponent
  series behaves like a factorially-weighted cosh at its truncation edge;
  their largest error on a grid of [-2, 2] is summed exactly on Python
  ints from the 40-digit weights and rounded once;
* the roots |b_j|**(1/j) of the expansion coefficients, which keep
  increasing instead of stabilizing; `b_growth` decides this, and the
  ratio test, by exact comparisons of the rational squares b_j**2.

Everything here is a witness at finite order, not a proof.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import exp, factorial, log
from typing import NamedTuple, Optional, Sequence, Tuple

import mpmath as mp

from .expansion import ExpansionResult
from .sequences import polylog_delta

__all__ = [
    "normalized_polylog_delta",
    "fit_geometric_rate",
    "bernoulli_weight",
    "partial_exp_max_error",
    "exponent_sum",
    "CoshRow",
    "cosh_limit_check",
    "GrowthSection",
    "b_growth",
]


def normalized_polylog_delta(n: int) -> mp.mpf:
    """polylog_delta(n) * log(phi)**(n+1) / n! at 60 digits; approaches 1 as n grows."""
    exact = polylog_delta(n)
    with mp.workdps(70):
        logphi = mp.log(mp.phi)
        return exact.embed(70) * logphi ** (n + 1) / mp.factorial(n)


def fit_geometric_rate(ns: Sequence[int], errors: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit errors ~ C * K**n in log scale; returns (K_hat, C_hat)."""
    # exact sums over Fractions of the float logs: slope and intercept round once
    xs, ys = list(ns), [Fraction(log(e)) for e in errors]
    x_bar, y_bar = Fraction(sum(xs), len(xs)), sum(ys) / len(ys)
    sxy = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    slope = sxy / sum((x - x_bar) ** 2 for x in xs)
    return exp(float(slope)), exp(float(y_bar - slope * x_bar))


# ----------------------------------------------------------------------
# partial exponentials with normalized Bernoulli weights
# ----------------------------------------------------------------------

_PARTIAL_EXP_BITS = 24  # guard bits below the 40-digit working precision


@cache
def bernoulli_weight(m: int) -> mp.mpf:
    """Zeta-normalized Bernoulli weight: the Dirichlet eta value eta(m), at 40 digits.

    At even m >= 2 this equals B_m(1/2) * (2 pi)**m / (2 * m! * cos(pi m / 2));
    at odd m both that numerator and denominator vanish, and eta(m) =
    (1 - 2**(1-m)) * zeta(m) extends it.  eta(1) = log 2 and eta(0) = 1/2.
    All values tend to 1 like 2**-m.  mpmath's `altzeta` computes eta.
    Cached: the precision is fixed here, so the value depends on m alone.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    with mp.workdps(40):
        return mp.altzeta(m)


def partial_exp_max_error(k: int) -> float:
    """max over z in [-2, 2] of |sum_{j=0}^{k+1} eta(k+1-j) z**j / j! - exp(z)|.

    The partial exponential with weights eta = `bernoulli_weight` tends to
    exp(z) as k grows.  The maximum is taken on the 41 grid points z_i =
    (i - 20) / 10, and the sum multiplies by these exact rationals.  It
    runs on Python ints at scale 10**n n! 2**W, with n = k + 1 and W = prec
    + _PARTIAL_EXP_BITS for the 40-digit working precision of prec bits.
    Its coefficients a_j = floor(eta(n - j) 2**W) (n! / j!) 10**(n - j) are
    built once per call, and Horner's rule t = t (i - 20) + a_j gives the
    scaled partial exponential at z_i.  exp(z_i) is mp.exp of z_i rounded
    to 40 digits, floored to 2**-W.  The result is the largest |t - 10**n
    n! 2**W exp(z_i)|, divided once by 10**n n! 2**W and correctly rounded.

    Nothing is rounded before that division.  The Horner sum multiplies and
    adds ints only, and every floor is exact: the eta values lie in [1/2, 1]
    and exp(z_i) in [e**-2, e**2], so the lowest of their prec mantissa
    bits is worth at least 2**-(prec + 2), and the 24 guard bits reach
    below it.  Against the same eta and exp values floored to 2**-(W +
    200), every grid difference is the same rational for each k from 0 to
    60.  So the result is the exact maximum for the 40-digit eta and exp
    values, rounded once to a float, and it equals the former per-point
    mpf loop's float for each of those k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = k + 1
    with mp.workdps(40):
        W = mp.mp.prec + _PARTIAL_EXP_BITS
        scale = factorial(n) * 10**n
        coeffs = [  # a_n first, for Horner's rule
            int(mp.ldexp(bernoulli_weight(n - j), W)) * (scale // (factorial(j) * 10**j))
            for j in range(n, -1, -1)
        ]
        worst = 0
        for i in range(41):
            t = 0
            for a in coeffs:
                t = t * (i - 20) + a
            e = int(mp.ldexp(mp.exp(mp.mpf(i - 20) / 10), W))
            worst = max(worst, abs(t - e * scale))
    return worst / (scale << W)


# ----------------------------------------------------------------------
# the factorially-normalized exponent limit
# ----------------------------------------------------------------------


def exponent_sum(N: int, s, v) -> mp.mpc:
    """sum_{k=2}^{N} polylog_delta(k-1) s**k B_{k+1}(1/2 + i v) / (k+1)! at 60 digits."""
    if N < 2:
        raise ValueError("N must be >= 2")
    with mp.workdps(70):
        smp = mp.mpf(s)
        x = mp.mpc(mp.mpf(1) / 2, v)
        total = mp.mpc(0)
        for k in range(2, N + 1):
            delta = polylog_delta(k - 1).embed(70)
            total += delta * smp ** k * mp.bernpoly(k + 1, x) / factorial(k + 1)
        return total


class CoshRow(NamedTuple):
    level: int  # l; the sum is truncated at index 4l+1
    v: float
    ratio_re: float
    ratio_im: float
    target: float
    abs_err: float


def cosh_limit_check() -> Tuple[CoshRow, ...]:
    """Normalized truncation-edge behaviour of the exponent series, at 60 digits.

    With s = 2 pi log(phi) alpha and alpha = 1/4, the sum truncated at index
    4l+1 and divided by (4l)! * alpha**(4l+1) approaches -cosh(2 pi v)/pi as
    l grows: the last summand dominates once 4l is an appreciable multiple
    of 1/alpha, and its even part is a symmetrized partial exponential.
    Rows report the complex normalized value against that target, for
    l = 2..5 and v = 0, 0.5 and 1.
    """
    rows = []
    with mp.workdps(70):
        a = mp.mpf("0.25")
        logphi = mp.log(mp.phi)
        s = 2 * mp.pi * logphi * a
        for lv in (2, 3, 4, 5):
            N = 4 * lv + 1
            norm = mp.factorial(4 * lv) * a ** (4 * lv + 1)
            for v in (0.0, 0.5, 1.0):
                val = exponent_sum(N, s, v) / norm
                target = -mp.cosh(2 * mp.pi * v) / mp.pi
                rows.append(
                    CoshRow(
                        level=lv,
                        v=v,
                        ratio_re=float(mp.re(val)),
                        ratio_im=float(mp.im(val)),
                        target=float(target),
                        abs_err=float(abs(val - target)),
                    )
                )
    return tuple(rows)


# ----------------------------------------------------------------------
# coefficient growth
# ----------------------------------------------------------------------


class GrowthSection(NamedTuple):
    """Root statistics of the expansion coefficients."""

    tail_increasing: bool  # |b_j|**(1/j) strictly increasing on the last four indices
    ratio_cross_index: Optional[int]  # first j with |b_{j+1}/b_j| > 1 onward


def b_growth(result: ExpansionResult) -> GrowthSection:
    """Growth witnesses from an exact expansion of order J >= 6, decided on rationals.

    `series.to_field` puts each b_j on the line sqrt5**j Q, so one of its
    coordinates p, q is zero and b_j**2 = p**2 + 5 q**2 is rational; a b_j
    off both axes raises ValueError.  Then |b_j|**(1/j) <
    |b_{j+1}|**(1/(j+1)) exactly when b_j**(2(j+1)) < b_{j+1}**(2j), and
    |b_{j+1}/b_j| > 1 exactly when b_{j+1}**2 > b_j**2.
    """
    J = len(result.b) - 1
    if J < 6:
        raise ValueError("growth statistics need an expansion of order >= 6")
    if any(x.p and x.q for x in result.b):
        raise ValueError("every b_j must lie on Q or on sqrt5 Q")
    sq = [x.p ** 2 + 5 * x.q ** 2 for x in result.b]
    increasing = all(sq[j] ** (j + 1) < sq[j + 1] ** j for j in range(J - 3, J))
    cross = None  # the longest tail j..J-1 of ratios above 1
    for j in range(J - 1, 0, -1):
        if sq[j + 1] <= sq[j]:
            break
        cross = j
    return GrowthSection(tail_increasing=increasing, ratio_cross_index=cross)
