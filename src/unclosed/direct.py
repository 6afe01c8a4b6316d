"""Direct summation of F(exp(-s)) and the precision policy it runs at.

F(q) = sum_m q^(m(m+1)/2) / (q;q)_m**2 at q = exp(-s) grows like
exp(pi**2/(5 s)) as s -> 0, but an mpf carries its own exponent, so that
size costs no relative precision, and the sum has no cancellation (all
terms positive for real s).  The digits a caller needs are set by what it
cancels after the sum: subtracting the truncated expansion through order
n from the normalized remainder, which is 1 + O(s), loses about
(n + 1) log10(1/s) digits.  The policy is that loss plus 40:

    digits >= 40 + max(0, ceil((n + 1) log10(1/s)))

with n = 0 for the sum alone.  Rounding in f_direct, of a decimal s and in
its integer loop, uses part of its GUARD_DIGITS, not of the policy's digits.
"""

from __future__ import annotations

from typing import Tuple, Union

import mpmath as mp

__all__ = ["PrecisionError", "GUARD_DIGITS", "required_digits", "f_direct"]


class PrecisionError(ValueError):
    """Raised when a digit count is below the s-dependent precision policy."""


# rounding slack on top of f_direct's digit count, which is 10 +
# required_digits(s, order) in eval_report and extract_coefficient (and so
# in the scaling suite).  f_direct's own rounding loses none of them at s from
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
        if smp <= 0:
            raise ValueError("s must be positive")
        need = required_digits(s)
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
