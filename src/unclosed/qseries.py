"""Arbitrary-precision evaluation of the target q-series and its checks.

The central object is F(q) = sum_m q^(m(m+1)/2) / (q;q)_m**2 evaluated at
q = exp(-s) for small s > 0, where F grows like exp(pi**2/(5 s)).  Its
direct sum f_direct has no cancellation (all terms positive for real s),
and an mpf carries its own exponent, so F's size costs no relative
precision.  The digits a caller needs are set by what it cancels after the
sum: subtracting the truncated expansion through order n from the
normalized remainder, which is 1 + O(s), loses about (n + 1) log10(1/s)
digits.  The precision policy required_digits is that loss plus 40:

    digits >= 40 + max(0, ceil((n + 1) log10(1/s)))

with n = 0 for the sum alone.  The comparison with the truncated expansion
through order n, and the coefficient ladder's Vandermonde solve through
order n = K at its smallest s, cancel that much, so they work at
10 + required_digits(s, n) digits.  Rounding in f_direct, of a
decimal s and in its integer loop, uses part of its GUARD_DIGITS, not of
the policy's digits.

The module also hosts the exact constant-term identity check, truncated
log-Pochhammer error scaling, and the minor-arc bound measurement; those
back the exact expansion against independent numerics.  The last two sum
log (c; q)_inf through log_pochhammer_inf, which also runs on Python ints:
a fixed-point complex product of the factors with |c q**n| > 1/2 and one
mp.log of it, then Euler's series for the rest.  The result is exact up to
a multiple of 2 pi i, which neither check reads: the minor-arc check takes
real parts, and the truncation check compares modulo 2 pi i.  Its rounding
uses part of its own 24 guard bits.
"""

from __future__ import annotations

from math import factorial, isqrt
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import mpmath as mp

from .expansion import compute_expansion

__all__ = [
    "PrecisionError",
    "GUARD_DIGITS",
    "EvalReport",
    "ConstantTermReport",
    "required_digits",
    "f_direct",
    "normalized_remainder",
    "eval_report",
    "coefficient_ladder",
    "log_pochhammer_inf",
    "log_poch_check",
    "minor_arc_check",
    "constant_term_check",
]


class PrecisionError(ValueError):
    """Raised when a digit count is below the s-dependent precision policy."""


# rounding slack on top of a digit count: f_direct and the normalization in
# normalized_remainder, eval_report and coefficient_ladder below all work at
# digits + GUARD_DIGITS, with digits = 10 + required_digits(s, order) in the
# last two (and so in the scaling suite; the ladder's s and order are its
# smallest s and K).  f_direct's own rounding loses none of them at s from
# 1e-5 to 5; rounding a decimal s to the working precision moves F by up to
# log10(2/s) of them (4.0 measured at s = 1e-5)
GUARD_DIGITS = 20

# f_direct's bits beyond the working precision in c_1, c_m, d_m and P
_EXTRA_BITS = 16


def required_digits(s: Union[str, float], order: int = 0) -> int:
    """Minimum working digits at s for a caller that cancels through s**order."""
    with mp.workdps(30):
        smp = mp.mpf(s)
        if smp <= 0:
            raise ValueError("s must be positive")
        loss = int(mp.ceil((order + 1) * mp.log10(1 / smp)))
    return 40 + max(0, loss)


def f_direct(s, digits: int) -> Tuple[mp.mpf, int]:
    """Direct summation of F(exp(-s)) and the number of terms summed.

    Term m is T_m = q**(m(m+1)/2) / (q;q)_m**2 = 1 / prod_{k<=m} c_k,
    since q**(m(m+1)/2) = prod_{k<=m} q**k, with

        c_k = (1 - q**k)**2 / q**k = q**-k - 2 + q**k = 4 sinh(ks/2)**2.

    With y = q + 1/q = 2 + c_1 and c_0 = 0, the identity
    2cosh((k+1)s) = y 2cosh(ks) - 2cosh((k-1)s) gives the recurrence
    c_(k+1) = y c_k - c_(k-1) + 2 c_1.  The loop runs it on the
    differences d_k = c_k - c_(k-1), and c_k is even in k:

        d_(k+1) = d_k + c_1 (c_k + 2),  c_(k+1) = c_k + d_(k+1),  d_0 = -c_1.

    That is one multiply per term, with no 2cosh - 2 cancellation, and it
    never forms y, whose rounding would drop the low digits of c_1 ~ s**2;
    c_1 = 4 sinh(s/2)**2 comes from s itself.

    The loop runs on Python ints.  c_1, c_m and d_m are fixed-point numbers
    at scale 2**W, with W = prec - mag(c_1) + _EXTRA_BITS for the working
    precision of prec bits, and c_1 comes from sinh at prec + _EXTRA_BITS
    bits.  The partial sum is one fraction num / P with P = prod_{k<=m} c_k:
    term m sets P *= c_m, a mantissa cut to prec + _EXTRA_BITS bits with
    its own exponent, and num = num c_m + 1 at scale 2**W, so a term costs
    three multiplies and only the final num / P divides.  num / P is the
    sum of terms 0..m and 1 / P is term m, so num 2**-W is total_m / term_m.

    Against F(exp(-s)) summed over the same terms at 100 more digits from
    q**k and (1 - q**k)**2, at s exact in binary, the result loses none of
    the GUARD_DIGITS = 20 digits at eval's digits for s from 1e-5 to 5:
    the _EXTRA_BITS keep the rounding of c_1, of the recurrence and of P's
    cuts, each of which builds up over the 1/s terms to the peak, below
    2**-prec.  A decimal s is rounded to prec bits first, which moves F by
    up to (pi**2/5)/s units of 2**-prec: against F at s itself, that is
    3.4 and 4.0 digits at s = 1e-5 (the eval floor), at eval's order-2 and
    order-10 digits, and 2.6 and 2.0 at s = 0.0005.  The callers normalize
    F at the same rounded s.

    All terms are positive.  Summation stops after five successive terms
    that each fall below the one before and below 10**-digits times the
    running total: term_m < term_(m-1) is c_m > 1, and
    term_m < total * 10**-digits is num > 10**digits, two exact integer
    comparisons.  The term ratio r_m = 1 / c_m falls as m grows, so the
    terms rise to one peak (c_m = 1, m = 2 ln(phi) / s) and then fall ever
    faster.  The streak therefore ends past the peak, and everything after
    the last term M is below term_M r / (1 - r) with r = 1 / c_(M+1) < 1:
    at s = 0.001, r is 0.09, so the tail is below 0.11 term_M, and term_M
    is itself below 10**-digits times the sum.
    """
    with mp.workdps(digits + GUARD_DIGITS):
        smp = mp.mpf(s)
        need = required_digits(s)  # raises ValueError for s <= 0
        if digits < need:
            raise PrecisionError(f"s={s} needs at least {need} digits, got {digits}")
        prec = mp.mp.prec
        with mp.workprec(prec + _EXTRA_BITS):
            c1 = 4 * mp.sinh(smp / 2) ** 2
            W = max(prec - mp.mag(c1) + _EXTRA_BITS, 0)
            c1 = int(mp.ldexp(c1, W))
        one, two = 1 << W, 2 << W
        stop = 10 ** digits << W
        c, d = 0, -c1  # c_m and d_m at m = 0
        bits = prec + _EXTRA_BITS  # P's mantissa
        P, P_exp = 1 << bits, -bits  # prod_{k<=m} c_k = P * 2**P_exp
        num = one  # the sum of terms 0..m times P
        m = streak = 0
        while streak < 5:
            m += 1
            if m > 2_000_000:  # pragma: no cover - defensive cap
                raise ArithmeticError("series did not reach the stopping rule")
            d += c1 * (c + two) >> W
            c += d
            P *= c
            cut = P.bit_length() - bits
            P >>= cut
            P_exp += cut - W
            num = (num * c >> W) + one
            streak = streak + 1 if c > one and num > stop else 0
        # F = num 2**-W / (P 2**P_exp): one division to about prec bits
        k = prec + P.bit_length() - num.bit_length()
        F = (num << k if k >= 0 else num >> -k) // P
        return mp.mpf((F, -(k + W + P_exp))), m + 1


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


class EvalReport(NamedTuple):
    """Comparison of the direct evaluation against the truncated expansion."""

    s: str
    digits: int
    terms_used: int
    F_value: mp.mpf
    remainder: mp.mpf
    asymptotic: mp.mpf
    abs_err: mp.mpf
    rel_err: mp.mpf


def eval_report(s, order: int) -> EvalReport:
    if order < 1:
        raise ValueError("order must be >= 1")
    digits = 10 + required_digits(s, order)
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
        terms_used=terms,
        F_value=F,
        remainder=remainder,
        asymptotic=asym,
        abs_err=abs_err,
        rel_err=rel_err,
    )


def coefficient_ladder(s_grid: Sequence[Union[str, float]]) -> Tuple[Tuple[mp.mpf, mp.mpf], ...]:
    """(estimate, spread) of b_0..b_(K-1) from direct sums at K + 1 = len(s_grid) points.

    The normalized remainder is summed at every point, and one Vandermonde
    solve fits sum_{j<=K} b_j s**j through all of them.  No exact
    coefficient is an input, so b_0 = 1 tests the prefactor too.  The
    spread of b_j is its distance to the same coefficient of the
    degree-(K-1) fit through the K smallest points.  The solve cancels
    through order K at the smallest s, so everything runs at
    10 + required_digits(min s, K) digits, like eval_report.  Each point is
    parsed once at that working precision, and both the matrix and f_direct
    use that one value.
    """
    K = len(s_grid) - 1
    if K < 1:
        raise ValueError("need at least two grid points")
    # required_digits falls as s grows, so the largest is at the smallest s
    digits = 10 + max(required_digits(x, K) for x in s_grid)
    with mp.workdps(digits + GUARD_DIGITS):
        svals = sorted(mp.mpf(x) for x in s_grid)
        if any(a == b for a, b in zip(svals, svals[1:])):
            raise ValueError("grid points must be distinct")
        R = [normalized_remainder(x, digits) for x in svals]

        def fit(n):  # b_0..b_(n-1) through the n smallest points
            A = mp.matrix([[x ** i for i in range(n)] for x in svals[:n]])
            return mp.lu_solve(A, mp.matrix(R[:n]))

        full, lower = fit(K + 1), fit(K)
        return tuple((full[j], abs(full[j] - lower[j])) for j in range(K))


def log_pochhammer_inf(prefactor, q, digits: int) -> mp.mpc:
    """log (prefactor; q)_inf = sum_{n>=0} log(1 - prefactor * q**n), up to 2 pi i k.

    The result is exact up to an integer multiple of 2 pi i, so its real
    part, log |(prefactor; q)_inf|, is exact whatever the branch.

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
    That log is principal, so the result can lie whole turns away from the
    sum of the factors' principal logs (six turns at s = 0.02, v = 40 on the
    minor arc).  A factor that is 0 at scale 2**W raises ValueError.

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
        # prod (1 - c q**n) = (pr + i pi_) * 2**pe
        pr, pi_, pe = one, 0, -W
        while cr * cr + ci * ci > quarter:
            fr, fi = one - cr, -ci
            if not (fr or fi):
                raise ValueError("a factor 1 - prefactor * q**n is zero at the working precision")
            pr, pi_ = pr * fr - pi_ * fi, pr * fi + pi_ * fr
            cut = max(pr.bit_length(), pi_.bit_length()) - W
            pr >>= cut
            pi_ >>= cut
            pe += cut - W
            cr, ci = cr * qi >> W, ci * qi >> W
        acc = mp.log(mp.mpc(mp.mpf((pr, pe)), mp.mpf((pi_, pe))))
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


class LogPochRow(NamedTuple):
    s: str
    direct: mp.mpc
    truncated: mp.mpc
    abs_err: mp.mpf


def log_poch_check(
    label: str, v: float, N: int, s_grid: Sequence[Union[str, float]]
) -> Tuple[LogPochRow, ...]:
    """Compare log((w e^{-s(1/2 + i*v)}; e^{-s})_inf) with its truncation, per s.

    `label` names w: "1/phi" or "-phi", the two golden-ratio arguments.
    The truncation keeps orders k = -1..N of
    sum_k Li_{1-k}(w) (-s)**k B_{k+1}(1/2 + i*v) / (k+1)!: k = -1 gives
    -Li_2(w)/s and k = 0 gives Li_1(w) * i*v.  Li_2 comes from its closed
    forms, pi**2/10 - log(phi)**2 at 1/phi and -pi**2/10 - log(phi)**2 at
    -phi; the polylogs of order 1 and below come from mpmath.  Both sides
    are taken at 50 digits.  log_pochhammer_inf fixes the direct side only
    up to 2 pi i k, so abs_err is |direct - truncated| after the multiple of
    2 pi i nearest to that difference is taken off it.  Expected error decay
    is s**(N+1) at fixed v.
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
        li2 = (mp.pi ** 2 / 10 if label == "1/phi" else -mp.pi ** 2 / 10) - mp.log(mp.phi) ** 2
        # B_{k+1}(1/2 + i*v) does not depend on s
        x = mp.mpc(mp.mpf(1) / 2, v)
        terms = [
            (k, (li2 if k == -1 else mp.polylog(1 - k, wn)) * mp.bernpoly(k + 1, x)
             / factorial(k + 1))
            for k in range(-1, N + 1)
        ]
        rows = []
        for s in s_grid:
            smp = mp.mpf(s)
            qv = mp.exp(-smp)
            pref = wn * mp.exp(-smp * (mp.mpf(1) / 2 + mp.mpc(0, 1) * v))
            direct = log_pochhammer_inf(pref, qv, dps)
            trunc = sum((c * (-smp) ** k for k, c in terms), mp.mpc(0))
            err = direct - trunc
            err -= mp.mpc(0, 2 * mp.pi) * mp.nint(mp.im(err) / (2 * mp.pi))
            rows.append(LogPochRow(s=str(s), direct=direct, truncated=trunc, abs_err=abs(err)))
    return tuple(rows)


class MinorArcRow(NamedTuple):
    s: str
    v: float
    margin: float


def minor_arc_check() -> Tuple[MinorArcRow, ...]:
    """log |quotient| - (pi**2/(5s) - sqrt5/(2 s**(1/3))) on the arc, per sample.

    Samples |v| at 1, 2 and 5 times the arc boundary s**(-2/3) (the split
    actually used, rather than the alternative reading s**(+2/3)) and at the
    endpoint pi/s, for s = 0.05 and 0.02 at 40 digits.  Each row's margin is
    log C for the C that makes |quotient| <= C * exp(pi**2/(5s) -
    sqrt5/(2 s**(1/3))) hold with equality there; the minor-arc suite fits
    C as exp of the largest margin.
    """
    dps = 40
    rows = []
    with mp.workdps(dps + 10):
        for s in ("0.05", "0.02"):
            smp = mp.mpf(s)
            qv = mp.exp(-smp)
            v_low = smp ** mp.mpf("-2/3")
            v_end = mp.pi / smp
            # log of the bound over C
            bound = mp.pi ** 2 / (5 * smp) - mp.sqrt(5) / (2 * smp ** mp.mpf("1/3"))
            samples = sorted({min(f * v_low, v_end) for f in (1.0, 2.0, 5.0)}) + [v_end]
            for vv in samples:
                num = log_pochhammer_inf(
                    -mp.phi * mp.exp(-smp * (mp.mpf(1) / 2 + mp.mpc(0, 1) * vv)), qv, dps
                )
                den = log_pochhammer_inf(
                    (1 / mp.phi) * mp.exp(-smp * (mp.mpf(1) / 2 - mp.mpc(0, 1) * vv)), qv, dps
                )
                margin = float(mp.re(num - den) - bound)
                rows.append(MinorArcRow(s=str(s), v=float(vv), margin=margin))
    return tuple(rows)


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


class ConstantTermReport(NamedTuple):
    """Outcome of the exact constant-term identity comparison."""

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
        ok=first is None and half_ok,
        half_powers_cancelled=half_ok,
        first_mismatch=first,
        direct=tuple(direct),
        constant_term=tuple(ct),
    )
