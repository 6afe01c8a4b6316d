"""Arbitrary-precision evaluation of the target q-series and its checks.

The central object is F(q) = sum_m q^(m(m+1)/2) / (q;q)_m**2 evaluated at
q = exp(-s) for small s > 0, where F grows like exp(pi**2/(5 s)).  Its
direct sum f_direct and the precision policy required_digits live in
`direct` and are re-exported here; this module builds on them the
normalized remainder, the comparison with the truncated expansion and the
numeric extraction of its coefficients.  The module also hosts the exact
constant-term identity check, truncated log-Pochhammer error scaling, and
the minor-arc bound measurement; those back the exact expansion against
independent numerics.  The last two sum log (c; q)_inf through
log_pochhammer_inf, which also runs on Python ints: a fixed-point complex
product of the factors with |c q**n| > 1/2 and one mp.log of it, whose
branch comes back from float arguments, then Euler's series for the rest.
Its rounding uses part of its own 24 guard bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import atan2, factorial, isqrt, tau
from typing import List, Optional, Sequence, Tuple, Union

import mpmath as mp

from .direct import GUARD_DIGITS, PrecisionError, f_direct, required_digits
from .expansion import compute_expansion

__all__ = [
    "PrecisionError",
    "EvalReport",
    "CoefficientEstimate",
    "ConstantTermReport",
    "LogPochReport",
    "MinorArcReport",
    "required_digits",
    "f_direct",
    "normalized_remainder",
    "eval_report",
    "extract_coefficient",
    "log_pochhammer_inf",
    "log_poch_check",
    "minor_arc_check",
    "constant_term_check",
]


# log_pochhammer_inf's bits beyond the working precision in its ints
_LOGPOCH_BITS = 24


def _normalize(value: mp.mpf, smp: mp.mpf) -> mp.mpf:
    # value * sqrt(2 pi sqrt5 / s) * exp(-pi**2/(5 s)), at the caller's precision
    return value * mp.sqrt(2 * mp.pi * mp.sqrt(5) / smp) * mp.exp(-mp.pi ** 2 / (5 * smp))


def normalized_remainder(s, digits: int) -> mp.mpf:
    """F(exp(-s)) * sqrt(2 pi sqrt5 / s) * exp(-pi**2/(5 s)); tends to 1 as s -> 0."""
    value, _ = f_direct(s, digits)
    with mp.workdps(digits + GUARD_DIGITS):
        return _normalize(value, mp.mpf(s))


@dataclass(frozen=True)
class EvalReport:
    """Comparison of the direct evaluation against the truncated expansion."""

    s: str
    digits: int
    truncation_order: int
    terms_used: int
    F_value: mp.mpf
    remainder: mp.mpf
    asymptotic: mp.mpf
    abs_err: mp.mpf
    rel_err: mp.mpf


def eval_report(s, order: int = 2) -> EvalReport:
    if order < 1:
        raise ValueError("order must be >= 1")
    digits = required_digits(s, 10)
    F, terms = f_direct(s, digits)
    with mp.workdps(digits + GUARD_DIGITS):
        smp = mp.mpf(s)
        remainder = _normalize(F, smp)
        result = compute_expansion(order)
        asym = mp.mpf(1)
        for j in range(1, order + 1):
            asym += result.b[j].embed(digits) * smp ** j
        abs_err = abs(remainder - asym)
        rel_err = abs_err / abs(remainder)
    return EvalReport(
        s=str(s),
        digits=digits,
        truncation_order=order,
        terms_used=terms,
        F_value=F,
        remainder=remainder,
        asymptotic=asym,
        abs_err=abs_err,
        rel_err=rel_err,
    )


@dataclass(frozen=True)
class CoefficientEstimate:
    """Numeric estimate of one expansion coefficient from a grid of s values."""

    order: int
    value: mp.mpf
    estimates: Tuple[Tuple[str, mp.mpf], ...]
    disagreement: float
    consistent: bool


def extract_coefficient(j: int, s_grid: Sequence[Union[str, float]]) -> CoefficientEstimate:
    """Estimate the order-j coefficient from the remainder on a descending grid.

    Subtracts the exact lower-order coefficients, divides by s**j, and
    linearly extrapolates the two smallest grid points to s = 0.  Every
    point is evaluated at the policy's digits for the smallest s, plus 10.
    Warns when raw per-point estimates disagree by more than 10%.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if len(s_grid) < 2:
        raise ValueError("need at least two grid points")
    svals = sorted((mp.mpf(x) for x in s_grid), reverse=True)
    if any(a == b for a, b in zip(svals, svals[1:])):
        raise ValueError("grid points must be distinct")
    digits = required_digits(svals[-1], 10)
    lower: List[mp.mpf] = [mp.mpf(1)]
    if j >= 2:
        result = compute_expansion(j - 1)
        lower += [x.embed(digits) for x in result.b[1:]]
    ests = []
    with mp.workdps(digits + GUARD_DIGITS):
        for smp in svals:
            R = normalized_remainder(smp, digits)
            resid = R
            for i, bi in enumerate(lower):
                resid -= bi * smp ** i
            ests.append((mp.nstr(smp, 8), resid / smp ** j))
        sa, ea = mp.mpf(svals[-2]), ests[-2][1]
        sb, eb = mp.mpf(svals[-1]), ests[-1][1]
        value = (sa * eb - sb * ea) / (sa - sb)
        vals = [e for _, e in ests]
        disagreement = float((max(vals) - min(vals)) / abs(value)) if value else float("inf")
    consistent = disagreement <= 0.10
    if not consistent:
        warnings.warn(
            f"coefficient {j}: grid estimates disagree by {disagreement:.1%}",
            stacklevel=2,
        )
    return CoefficientEstimate(
        order=j,
        value=value,
        estimates=tuple(ests),
        disagreement=disagreement,
        consistent=consistent,
    )


def log_pochhammer_inf(prefactor, q, digits: int) -> mp.mpc:
    """Sum of principal logs of (1 - prefactor * q**n), n >= 0.

    The factors with |prefactor * q**n| > 1/2 form the factor phase.  The
    rest, from x = prefactor * q**N with |x| <= 1/2 on, are summed by
    Euler's series  -sum_{k>=1} x**k / (k (1 - q**k)),  which equals their
    principal logs term by term because Log(1 - y) = -sum_k y**k / k for
    |y| < 1.

    Both phases run on Python ints at scale 2**W, W = prec + _LOGPOCH_BITS
    for the working precision of prec bits (digits + 10 digits): c = c_r +
    i c_i and q are floored to multiples of 2**-W, and c q**n is updated by
    one floored product per component.  The factor phase runs while
    |c q**n|**2 > 1/4, compared exactly on the ints.  It multiplies the
    factors 1 - c q**n into one complex mantissa pair, cut to W bits, with
    a shared exponent, and takes a single mp.log of the product at the end.
    That log is principal, while the factor-by-factor sum can lie whole
    turns away from it (six turns at s = 0.02, v = 40 on the minor arc).
    The branch comes back from the float sum A of atan2 over the int
    factors, which is within about 1e-13 of the factor-by-factor imaginary
    part: the result adds 2 pi i k with k = round((A - Im log) / 2 pi).  A
    factor on the negative real axis gets -pi when Im c > 0, even when
    Im c q**n lies below 2**-W and its int is 0, and +pi when c is real, as
    mp.log gives for each factor.  A factor that is 0 at scale 2**W raises
    ValueError.

    In the tail, x**k is a complex int product and q**k an int product;
    term k is (x**k << W) // (k (1 - q**k)), floored per component.
    Successive terms shrink by a ratio of at most |x| <= 1/2 (1 - q**k
    increases with k), so everything after a term is below twice that term;
    the sum stops once twice the next term is below tiny = 10**-(digits +
    5), tested as 4 |term|**2 < tiny**2 on the ints with no rounding.  A
    floored negative component stops at -1 unit, so the rule ends the loop
    only because 2**-W lies about 12 digits below tiny.

    Each floored product loses at most one unit of 2**-W, and c q**n
    carries n of them after n factors.  Against the same ints with 200 more
    guard bits, before the final rounding to the working precision, the
    rounding stays 6.6 or more digits below the last working digit on the
    minor arc and in log_poch_check (10 to 60 factors), and 5.4 digits below
    it at s = 0.001 with |c| = phi (about 1,170 factors): of the 7.2 digits
    of _LOGPOCH_BITS = 24, the long factor phase uses 1.8.
    """
    with mp.workdps(digits + 10):
        qv = mp.mpf(q)
        if not 0 < qv < 1:
            raise ValueError("q must lie in (0, 1)")
        c = mp.mpmathify(prefactor)
        W = mp.mp.prec + _LOGPOCH_BITS
        one = 1 << W
        quarter = 1 << (2 * W - 2)
        cr, ci = int(mp.ldexp(mp.re(c), W)), int(mp.ldexp(mp.im(c), W))
        qi = int(mp.ldexp(qv, W))
        # prod (1 - c q**n) = (pr + i pi_) * 2**pe, and the float sum of
        # the factors' principal arguments.  An int c_i of 0 stands for
        # 0 <= Im c q**n < 2**-W (a negative c_i never floors up to 0), so
        # zero_fi carries the sign of -Im c for it
        pr, pi_, pe = one, 0, -W
        zero_fi = -0.0 if mp.im(c) > 0 else 0.0
        angle = 0.0
        while cr * cr + ci * ci > quarter:
            fr, fi = one - cr, -ci
            if not (fr or fi):
                raise ValueError("a factor 1 - prefactor * q**n is zero at the working precision")
            angle += atan2(fi or zero_fi, fr)
            pr, pi_ = pr * fr - pi_ * fi, pr * fi + pi_ * fr
            cut = max(pr.bit_length(), pi_.bit_length()) - W
            pr >>= cut
            pi_ >>= cut
            pe += cut - W
            cr, ci = cr * qi >> W, ci * qi >> W
        acc = mp.log(mp.mpc(mp.mpf((pr, pe)), mp.mpf((pi_, pe))))
        turns = round((angle - float(acc.imag)) / tau)
        acc += mp.mpc(0, 2 * mp.pi * turns)
        # 4 |term|**2 < tiny**2 as 4 * 10**(2 (digits + 5)) |term * 2**W|**2 < 2**(2 W)
        tiny_scale = 4 * 10 ** (2 * (digits + 5))
        limit = 1 << (2 * W)
        xr, xi, qk = cr, ci, qi  # x**k and q**k at k = 1
        sr = si = 0
        k = 1
        while True:
            den = k * (one - qk)
            tr, ti = (xr << W) // den, (xi << W) // den
            if (tr * tr + ti * ti) * tiny_scale < limit:
                break
            sr += tr
            si += ti
            k += 1
            xr, xi = (xr * cr - xi * ci) >> W, (xr * ci + xi * cr) >> W
            qk = qk * qi >> W
        return acc - mp.mpc(mp.mpf((sr, -W)), mp.mpf((si, -W)))


@dataclass(frozen=True)
class LogPochRow:
    s: str
    direct: mp.mpc
    truncated: mp.mpc
    abs_err: mp.mpf


@dataclass(frozen=True)
class LogPochReport:
    """Truncation-error scaling of the log-Pochhammer expansion."""

    w_label: str
    v: float
    order: int
    rows: Tuple[LogPochRow, ...]
    halving_ratios: Tuple[float, ...]


def log_poch_check(
    label: str, v: float, N: int, s_grid: Sequence[Union[str, float]]
) -> LogPochReport:
    """Compare log((w e^{-s(1/2 + i*v)}; e^{-s})_inf) with its truncation.

    `label` names w: "1/phi" or "-phi", the two golden-ratio arguments.
    The truncation keeps orders k = -1..N of
    sum_k Li_{1-k}(w) (-s)**k B_{k+1}(1/2 + i*v) / (k+1)!, with every
    polylog from mpmath: k = -1 gives -Li_2(w)/s and k = 0 gives
    Li_1(w) * i*v.  Both sides are taken at 50 digits.  Expected error
    decay is s**(N+1) at fixed v.
    """
    if label not in ("1/phi", "-phi"):
        raise ValueError('label must be "1/phi" or "-phi"')
    if N < 1:
        raise ValueError("N must be >= 1")
    if any(not 0 < float(mp.mpf(s)) <= 0.2 for s in s_grid):
        raise ValueError("s grid must lie in (0, 0.2] for the truncation to be meaningful")
    dps = 50
    with mp.workdps(dps + 10):
        wn = mp.phi - 1 if label == "1/phi" else -mp.phi
        # B_{k+1}(1/2 + i*v) does not depend on s
        x = mp.mpc(mp.mpf(1) / 2, v)
        terms = [
            (k, mp.polylog(1 - k, wn) * mp.bernpoly(k + 1, x) / factorial(k + 1))
            for k in range(-1, N + 1)
        ]
        rows = []
        for s in s_grid:
            smp = mp.mpf(s)
            qv = mp.exp(-smp)
            pref = wn * mp.exp(-smp * (mp.mpf(1) / 2 + mp.mpc(0, 1) * v))
            direct = log_pochhammer_inf(pref, qv, dps)
            trunc = sum((c * (-smp) ** k for k, c in terms), mp.mpc(0))
            rows.append(
                LogPochRow(
                    s=str(s), direct=direct, truncated=trunc, abs_err=abs(direct - trunc)
                )
            )
        ratios = []
        for a, b in zip(rows, rows[1:]):
            if b.abs_err > 0:
                ratios.append(float(a.abs_err / b.abs_err))
    return LogPochReport(
        w_label=label, v=v, order=N, rows=tuple(rows), halving_ratios=tuple(ratios)
    )


@dataclass(frozen=True)
class MinorArcRow:
    s: str
    v: float
    log_ratio: float
    log_bound: float
    margin: float


@dataclass(frozen=True)
class MinorArcReport:
    """Measured Pochhammer-quotient size on the large-|v| arc vs. the bound."""

    rows: Tuple[MinorArcRow, ...]
    fitted_constant: float
    arc_condition_used: str
    arc_condition_alt: str


def minor_arc_check() -> MinorArcReport:
    """Check |quotient| <= C * exp(pi**2/(5s) - sqrt5/(2 s**(1/3))) on the arc.

    Samples |v| at 1, 2 and 5 times the arc boundary s**(-2/3) (the split
    actually used; the alternative reading with s**(+2/3) is recorded
    alongside) and at the endpoint pi/s, for s = 0.05 and 0.02 at 40 digits,
    and reports the fitted constant C.
    """
    dps = 40
    rows = []
    with mp.workdps(dps + 10):
        for s in ("0.05", "0.02"):
            smp = mp.mpf(s)
            qv = mp.exp(-smp)
            v_low = smp ** mp.mpf("-2/3")
            v_end = mp.pi / smp
            samples = sorted({min(f * v_low, v_end) for f in (1.0, 2.0, 5.0)}) + [v_end]
            for vv in samples:
                num = log_pochhammer_inf(
                    -mp.phi * mp.exp(-smp * (mp.mpf(1) / 2 + mp.mpc(0, 1) * vv)), qv, dps
                )
                den = log_pochhammer_inf(
                    (1 / mp.phi) * mp.exp(-smp * (mp.mpf(1) / 2 - mp.mpc(0, 1) * vv)), qv, dps
                )
                log_ratio = mp.re(num - den)
                log_bound = mp.pi ** 2 / (5 * smp) - mp.sqrt(5) / (2 * smp ** mp.mpf("1/3"))
                rows.append(
                    MinorArcRow(
                        s=str(s),
                        v=float(vv),
                        log_ratio=float(log_ratio),
                        log_bound=float(log_bound),
                        margin=float(log_ratio - log_bound),
                    )
                )
    fitted = float(mp.exp(max(r.margin for r in rows)))
    return MinorArcReport(
        rows=tuple(rows),
        fitted_constant=fitted,
        arc_condition_used="|v| > s**(-2/3)",
        arc_condition_alt="|v| > s**(2/3)",
    )


# ----------------------------------------------------------------------
# exact constant-term identity check
# ----------------------------------------------------------------------


def _add_shifted(dst: List[int], src: List[int], shift: int) -> None:
    # dst[e] += src[e - shift] in ascending e; with src is dst this is a
    # running sum with stride shift, i.e. division by 1 - q**shift
    for e in range(shift, len(dst)):
        dst[e] += src[e - shift]


def _f_series_coeffs(M: int) -> List[int]:
    # direct q-expansion of sum_m q^(m(m+1)/2) / (q;q)_m**2; inv is 1/(q;q)_m**2
    res, inv = [0] * (M + 1), [1] + [0] * M
    m = 0
    while m * (m + 1) // 2 <= M:
        _add_shifted(res, inv, m * (m + 1) // 2)
        m += 1
        _add_shifted(inv, inv, m)
        _add_shifted(inv, inv, m)
    return res


def _constant_term_coeffs(M: int) -> Tuple[List[int], bool]:
    # [z^0] of prod (1 + z^-1 q^(n+1/2)) * prod 1/(1 - z q^(n+1/2)), with
    # q exponents tracked in half-integer units (doubled to stay integral);
    # rows[i] holds the coefficients of z**(i - zmax)
    zmax = (isqrt(8 * M + 1) - 1) // 2
    rows = [[0] * (2 * M + 1) for _ in range(2 * zmax + 1)]
    rows[zmax][0] = 1
    steps = range(1, 2 * M + 1, 2)
    for step in steps:
        # multiply by (1 + z^-1 q^(step/2)): row z adds into row z - 1; in
        # ascending z each row is read before it is written
        for i in range(1, len(rows)):
            _add_shifted(rows[i - 1], rows[i], step)
    for step in steps:
        # divide by (1 - z q^(step/2)): row z - 1, already divided, adds into row z
        for i in range(1, len(rows)):
            _add_shifted(rows[i], rows[i - 1], step)
    row = rows[zmax]
    half_ok = all(c == 0 for e, c in enumerate(row) if e % 2 == 1)
    return [row[2 * t] for t in range(M + 1)], half_ok


@dataclass(frozen=True)
class ConstantTermReport:
    """Outcome of the exact constant-term identity comparison."""

    order: int
    ok: bool
    half_powers_cancelled: bool
    first_mismatch: Optional[int]
    direct: Tuple[int, ...]
    constant_term: Tuple[int, ...]


def constant_term_check(M: int) -> ConstantTermReport:
    """Compare the direct series of F with [z^0] of the product closed forms.

    Both sides are expanded exactly with integer coefficients through q**M;
    the z^0 extraction must also cancel every half-integer power of q.
    """
    if not 0 <= M <= 30:
        raise ValueError("M must be in [0, 30] (desk scale)")
    direct = _f_series_coeffs(M)
    ct, half_ok = _constant_term_coeffs(M)
    first = next((t for t in range(M + 1) if direct[t] != ct[t]), None)
    return ConstantTermReport(
        order=M,
        ok=first is None and half_ok,
        half_powers_cancelled=half_ok,
        first_mismatch=first,
        direct=tuple(direct),
        constant_term=tuple(ct),
    )
