"""Growth diagnostics quantifying why the expansion diverges.

Three mechanisms are measured:

* the factorial growth of polylog_delta(n): the scaled values
  polylog_delta(n) * log(phi)**(n+1) / n! tend to 1 geometrically;
* the partial exponential sums with zeta-normalized Bernoulli weights,
  which converge to exp(z) uniformly on compact sets, so the exponent
  series behaves like a factorially-weighted cosh at its truncation edge;
* the roots |b_j|**(1/j) of the expansion coefficients, which keep
  increasing instead of stabilizing.

Everything here is a numerical witness, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Dict, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np

from .expansion import ExpansionResult, compute_expansion
from .sequences import polylog_delta

__all__ = [
    "normalized_polylog_delta",
    "delta_residue_sum",
    "fit_geometric_rate",
    "bernoulli_weight",
    "partial_exp",
    "partial_exp_max_error",
    "exponent_sum",
    "CoshRow",
    "cosh_limit_check",
    "GrowthSection",
    "b_growth",
    "GrowthReport",
    "growth_report",
]


def normalized_polylog_delta(n: int, digits: int = 50) -> mp.mpf:
    """polylog_delta(n) * log(phi)**(n+1) / n!; approaches 1 as n grows."""
    exact = polylog_delta(n)
    with mp.workdps(digits + 10):
        logphi = mp.log((1 + mp.sqrt(5)) / 2)
        return exact.embed(digits + 10) * logphi ** (n + 1) / mp.factorial(n)


def delta_residue_sum(n: int, digits: int = 30, max_m: int = 20000) -> mp.mpf:
    """Independent evaluation of polylog_delta(n) from the pole expansion.

    Uses Li_{-d}(e^{-mu}) = d! * sum_{m in Z} (2 pi i m + mu)^{-(d+1)} at
    mu = log(phi) and mu = pi*i - log(phi); the two sums combine to the
    delta value.  Symmetric truncation at |m| <= max_m.
    """
    if n < 1:
        raise ValueError("pole expansion check needs n >= 1")
    with mp.workdps(digits + 15):
        logphi = mp.log((1 + mp.sqrt(5)) / 2)
        mu1 = mp.mpc(logphi, 0)
        mu2 = mp.mpc(-logphi, mp.pi)
        p = n + 1

        def pole_sum(mu):
            total = mu ** (-p)
            for m in range(1, max_m + 1):
                total += (mp.mpc(0, 2 * mp.pi * m) + mu) ** (-p)
                total += (mp.mpc(0, -2 * mp.pi * m) + mu) ** (-p)
            return total

        li_phi_inv = mp.factorial(n) * pole_sum(mu1)
        li_minus_phi = mp.factorial(n) * pole_sum(mu2)
        value = li_phi_inv - (-1) ** n * li_minus_phi
        return mp.re(value)


def fit_geometric_rate(
    ns: Sequence[int], errors: Sequence[float]
) -> Tuple[float, float]:
    """Least-squares fit errors ~ C * K**n in log scale; returns (K_hat, C_hat)."""
    xs = np.asarray(ns, dtype=float)
    ys = np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(np.exp(slope)), float(np.exp(intercept))


# ----------------------------------------------------------------------
# partial exponentials with normalized Bernoulli weights
# ----------------------------------------------------------------------

_weight_cache: Dict[int, list] = {}


def bernoulli_weight(m: int, digits: int = 30) -> mp.mpf:
    """Zeta-normalized Bernoulli weight: (1 - 2**(1-m)) * zeta(m) for m >= 2.

    At even m this equals B_m(1/2) * (2 pi)**m / (2 * m! * cos(pi m / 2));
    at odd m both that numerator and denominator vanish, and this analytic
    extension (the Dirichlet eta value) is used instead.  m = 1 gives
    log 2 and m = 0 gives 1/2.  All values tend to 1 like 2**-m.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    with mp.workdps(digits + 10):
        if m == 0:
            return mp.mpf(1) / 2
        if m == 1:
            return mp.log(2)
        return (1 - mp.mpf(2) ** (1 - m)) * mp.zeta(m)


def _weights_through(k: int, digits: int) -> list:
    key = digits
    cache = _weight_cache.setdefault(key, [])
    while len(cache) <= k:
        cache.append(bernoulli_weight(len(cache), digits))
    return cache


def partial_exp(k: int, z, digits: int = 30, weights=None) -> mp.mpf:
    """sum_{j=0}^{k+1} weight(k+1-j) * z**j / j! -> exp(z) as k grows."""
    if k < 0:
        raise ValueError("k must be >= 0")
    with mp.workdps(digits + 10):
        zv = mp.mpmathify(z)
        w = weights if weights is not None else _weights_through(k + 1, digits)
        total = zv * 0
        term = mp.mpf(1)  # z**j / j!
        for j in range(k + 2):
            total += w[k + 1 - j] * term
            term = term * zv / (j + 1)
        return total


def partial_exp_max_error(k: int, digits: int = 30, grid: int = 41) -> float:
    """max over z in [-2, 2] of |partial_exp(k, z) - exp(z)| on a uniform grid."""
    with mp.workdps(digits + 10):
        weights = _weights_through(k + 1, digits)
        worst = mp.mpf(0)
        for idx in range(grid):
            z = mp.mpf(-2) + mp.mpf(4) * idx / (grid - 1)
            err = abs(partial_exp(k, z, digits, weights) - mp.exp(z))
            worst = max(worst, err)
        return float(worst)


# ----------------------------------------------------------------------
# the factorially-normalized exponent limit
# ----------------------------------------------------------------------


def exponent_sum(N: int, s, v, digits: int = 50) -> mp.mpc:
    """sum_{k=2}^{N} polylog_delta(k-1) s**k B_{k+1}(1/2 + i v) / (k+1)! numerically."""
    if N < 2:
        raise ValueError("N must be >= 2")
    with mp.workdps(digits + 10):
        smp = mp.mpf(s)
        x = mp.mpc(mp.mpf(1) / 2, v)
        total = mp.mpc(0)
        for k in range(2, N + 1):
            delta = polylog_delta(k - 1).embed(digits + 10)
            total += delta * smp ** k * mp.bernpoly(k + 1, x) / factorial(k + 1)
        return total


@dataclass(frozen=True)
class CoshRow:
    level: int  # l; the sum is truncated at index 4l+1
    v: float
    ratio_re: float
    ratio_im: float
    target: float
    abs_err: float


def cosh_limit_check(
    l_values: Sequence[int] = (2, 3, 4, 5),
    v_samples: Sequence[float] = (0.0, 0.5, 1.0),
    alpha: str = "0.25",
    digits: int = 60,
) -> Tuple[CoshRow, ...]:
    """Normalized truncation-edge behaviour of the exponent series.

    With s = 2 pi log(phi) alpha, the sum truncated at index 4l+1 and divided
    by (4l)! * alpha**(4l+1) approaches -cosh(2 pi v)/pi as l grows: the last
    summand dominates once 4l is an appreciable multiple of 1/alpha, and its
    even part is a symmetrized partial exponential.  Rows report the complex
    normalized value against that target.
    """
    rows = []
    with mp.workdps(digits + 10):
        a = mp.mpf(alpha)
        if not 0 < a < 1:
            raise ValueError("alpha must be in (0, 1)")
        logphi = mp.log((1 + mp.sqrt(5)) / 2)
        s = 2 * mp.pi * logphi * a
        for lv in l_values:
            if lv < 1:
                raise ValueError("l values must be >= 1")
            N = 4 * lv + 1
            norm = mp.factorial(4 * lv) * a ** (4 * lv + 1)
            for v in v_samples:
                val = exponent_sum(N, s, v, digits) / norm
                target = -mp.cosh(2 * mp.pi * v) / mp.pi
                rows.append(
                    CoshRow(
                        level=lv,
                        v=float(v),
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


@dataclass(frozen=True)
class GrowthSection:
    """Root statistics of the expansion coefficients."""

    roots: Tuple[float, ...]  # |b_j|**(1/j), j = 1..J
    tail_increasing: bool  # strictly increasing on the last four indices
    ratio_cross_index: Optional[int]  # first j with |b_{j+1}/b_j| > 1 onward


def b_growth(result: ExpansionResult) -> GrowthSection:
    """Growth witnesses from an exact expansion (needs max_order >= 6)."""
    if result.max_order < 6:
        raise ValueError("growth statistics need max_order >= 6")
    roots = result.growth
    tail = roots[-4:]
    increasing = all(a < b for a, b in zip(tail, tail[1:]))
    with mp.workdps(40):
        mags = [abs(x.embed(40)) for x in result.b]
        ratios = [mags[j + 1] / mags[j] for j in range(1, result.max_order)]
    cross = None
    for idx in range(len(ratios)):
        if all(r > 1 for r in ratios[idx:]):
            cross = idx + 1  # ratios[idx] compares b_{idx+2} with b_{idx+1}
            break
    return GrowthSection(roots=roots, tail_increasing=increasing, ratio_cross_index=cross)


@dataclass(frozen=True)
class GrowthReport:
    """Full divergence diagnostic: scaled deltas, fitted rate, roots, cosh rows."""

    n_range: Tuple[int, int]
    ebar: Tuple[float, ...]
    ebar_err: Tuple[float, ...]
    fitted_rate: float
    b_roots: Tuple[float, ...]
    tail_increasing: bool
    ratio_cross_index: Optional[int]
    cosh_rows: Tuple[CoshRow, ...]


def growth_report(max_order: int = 12, ebar_max: int = 30, digits: int = 60) -> GrowthReport:
    if ebar_max < 6:
        raise ValueError("ebar_max must be >= 6")
    raw = [normalized_polylog_delta(n, digits) for n in range(ebar_max + 1)]
    values = [float(v) for v in raw]
    # subtract before converting: the deviations sink far below float eps
    errors = [float(abs(v - 1)) for v in raw]
    fit_lo, fit_hi = 5, min(30, ebar_max)
    rate, _ = fit_geometric_rate(range(fit_lo, fit_hi + 1), errors[fit_lo : fit_hi + 1])
    section = b_growth(compute_expansion(max_order, precision=30))
    cosh_rows = cosh_limit_check(digits=digits)
    return GrowthReport(
        n_range=(0, ebar_max),
        ebar=tuple(values),
        ebar_err=tuple(errors),
        fitted_rate=rate,
        b_roots=section.roots,
        tail_increasing=section.tail_increasing,
        ratio_cross_index=section.ratio_cross_index,
        cosh_rows=cosh_rows,
    )
