"""Direct summation of F(exp(-s)) and the precision policy it runs at.

F(q) = sum_m q^(m(m+1)/2) / (q;q)_m**2 at q = exp(-s) grows like
exp(pi**2/(5 s)) as s -> 0, so the policy ties the working digit count
to s:

    digits >= ceil(pi**2 / (5 s) / ln 10) + 40  (+ requested output digits)

Summation has no cancellation (all terms positive for real s), so no
further headroom is needed.  The rounding of f_direct's integer loops, the
c_k recurrence before the peak term and the floored divisions after it,
uses part of its GUARD_DIGITS, not of the policy's digits.  From a working
precision of 1,400 bits on, f_direct sums the terms after the peak in one
forked child process while it sums those before it; nothing else in the
package starts a process.
"""

from __future__ import annotations

import os
import threading
from contextlib import suppress
from math import asinh
from typing import List, Optional, Set, Tuple, Union

import mpmath as mp

__all__ = ["PrecisionError", "GUARD_DIGITS", "required_digits", "f_direct"]


class PrecisionError(ValueError):
    """Raised when a digit count is below the s-dependent precision policy."""


# tail and rounding slack on top of f_direct's digit count, which is
# required_digits(s, 10) in eval_report and extract_coefficient and 80 in
# the scaling suite
GUARD_DIGITS = 20

# f_direct's bits beyond the working precision in its fixed-point c_1, and
# beyond each tail term's bit length in c
_RISE_BITS = 16
_TAIL_BITS = 64

# f_direct's working precision in bits from which its tail runs in a forked
# child beside the rise.  On a 2-vCPU VM a fork round trip costs 2-3 ms, and
# forking broke even at about 1,400 bits: 12.1 against 12.0 ms at 1,375 bits
# (s = 0.0025 at eval's digits), 16.6 against 18.3 ms at 1,661 (s = 0.002)
_FORK_PREC = 1400


def required_digits(s: Union[str, float], out_digits: int = 0) -> int:
    """Minimum working digits for evaluating near exp(pi**2/(5 s)) scale."""
    with mp.workdps(30):
        smp = mp.mpf(s)
        if smp <= 0:
            raise ValueError("s must be positive")
        base = int(mp.ceil(mp.pi ** 2 / (5 * smp) / mp.log(10)))
    return base + 40 + out_digits


def f_direct(s, digits: int) -> Tuple[mp.mpf, int]:
    """Direct summation of F(exp(-s)) and the number of terms summed.

    Term m is T_m = q**(m(m+1)/2) / (q;q)_m**2 = 1 / prod_{k<=m} c_k,
    since q**(m(m+1)/2) = prod_{k<=m} q**k, with

        c_k = (1 - q**k)**2 / q**k = q**-k - 2 + q**k = 4 sinh(ks/2)**2.

    With y = q + 1/q = 2 + c_1 and c_0 = 0, the identity
    2cosh((k+1)s) = y 2cosh(ks) - 2cosh((k-1)s) gives the recurrence
    c_(k+1) = y c_k - c_(k-1) + 2 c_1.  The loops run it on the
    differences d_k = c_k - c_(k-1), and c_k is even in k:

        d_(k+1) = d_k + c_1 (c_k + 2),  c_(k+1) = c_k + d_(k+1),  d_0 = -c_1.

    That is one multiply per term, with no 2cosh - 2 cancellation, and it
    never forms y, whose rounding would drop the low digits of c_1 ~ s**2;
    c_1 = 4 sinh(s/2)**2 comes from s itself.

    The sum runs on Python ints in two halves, split at the peak index p,
    the first m with c_m > 1: the term ratio r_m = 1/c_m falls as m grows,
    so the terms rise while c_m <= 1 and fall from m = p on.  p is near
    2 ln(phi) / s, and 1 once c_1 > 1 (s > 2 asinh(1/2)).  c_1, c_p and
    d_p = 4 sinh((2p - 1)s/2) sinh(s/2) are fixed-point numbers at scale
    2**W, with W = prec - mag(c_1) + _RISE_BITS for the working precision
    of prec bits; p is fixed from the direct c_p and c_(p-1) = c_p - d_p.

    The rise (_rise) keeps terms 0..p-1 as one fraction num / P with
    P = prod_{k<p} c_k: term m sets P *= c_m, a mantissa cut to prec bits
    with its own exponent, and num = num c_m + 1, which lies in [1, p] and
    stays at scale 2**W.  A term costs three multiplies at the working
    precision.  The tail (_tail) sums rho_m = prod_{k=p..m} 1/c_k, the
    terms relative to term p - 1, as integers in the unit 2**-prec from
    c_p and d_p on: each is rho_m = rho_(m-1) / c_m, floored, and
    R += rho_m.  A term needs c to only its own bit length in that unit,
    so after each term W, c, d and c_1 drop all but _TAIL_BITS guard bits
    beyond rho.bit_length() from c: as the terms shrink, a term costs one
    multiply and one division at the bits it still adds to R.  The sum is
    F = (num + R) / P, one division.  Against F(exp(-s)) summed over the
    same terms at 100 more digits from q**k and (1 - q**k)**2, the result
    loses 1.7 of the GUARD_DIGITS = 20 digits at s = 0.0005 (the eval
    floor) and 2.5 at s = 0.001.

    The halves share nothing but the ints above, so from a working
    precision of _FORK_PREC bits on (s below about 0.00245 at eval's digits)
    the tail runs in one forked child process, moved off this process's
    CPU, while this one runs the rise; below it, without os.fork or beside
    other threads, the tail runs inline, with the same result to the bit.  At
    eval's digits on a 2-vCPU VM, one call then takes 0.31 s at
    s = 0.0005 and 0.06 s at s = 0.001, against 0.52 and 0.10 s for the
    one-process loop before this split (medians of 8 fresh processes); the
    two processes together spend about the CPU time that one did.

    All terms are positive.  Summation stops after five successive terms
    that each fall below the one before and below 10**-digits times the
    running total: term_m < term_(m-1) is c_m > 1, so no streak starts in
    the rise, and term_m < total * 10**-digits is
    rho * 10**digits < num + R, an exact integer comparison.  num is
    unknown to the tail, but it lies in [1, p + 1]: the tail stops only
    once five terms pass the test with 1 in place of num, which is at or
    after the exact stop, and it returns the partial sum before the first
    term that passes with p + 1 in its place, which is at or before it,
    and the terms from that one on; the exact test then runs on those few.
    The terms rise to one peak and then fall ever faster, so the streak
    ends past the peak, and everything after the last term M is below
    term_M r / (1 - r) with r = 1 / c_(M+1) < 1: at s = 0.001, r is 0.09,
    so the tail is below 0.11 term_M, and term_M is itself below
    10**-digits times the sum.
    """
    with mp.workdps(digits + GUARD_DIGITS):
        smp = mp.mpf(s)
        if smp <= 0:
            raise ValueError("s must be positive")
        need = required_digits(s)
        if digits < need:
            raise PrecisionError(f"s={s} needs at least {need} digits, got {digits}")
        prec = mp.mp.prec
        half = mp.sinh(smp / 2)
        c1 = 4 * half ** 2
        W = max(prec - mp.mag(c1) + _RISE_BITS, 0)
        one = 1 << W
        p = int(2 * asinh(0.5) / float(smp)) + 1  # at most one off; fixed below
        while True:
            cp = int(mp.ldexp(4 * mp.sinh(p * smp / 2) ** 2, W))
            dp = int(mp.ldexp(4 * mp.sinh((2 * p - 1) * smp / 2) * half, W))
            if cp <= one:
                p += 1
            elif cp - dp > one:  # c_(p-1) > 1; c_0 = 0 stops this at p = 1
                p -= 1
            else:
                break
        if p > 2_000_000:  # pragma: no cover - defensive cap
            raise ArithmeticError("series did not reach the stopping rule")
        c1 = int(mp.ldexp(c1, W))
        rise = (c1, W, prec, p)
        tail = (cp, dp, c1, W, prec, p, digits)
        # fork only a single-threaded process: a child forked beside other
        # threads inherits whatever locks they held
        if prec >= _FORK_PREC and hasattr(os, "fork") and threading.active_count() == 1:
            (num, P, P_exp), (R, m, rhos) = _rise_beside_tail(rise, tail)
        else:
            num, P, P_exp = _rise(*rise)
            R, m, rhos = _tail(*tail)
        # the exact stopping test on the terms the tail left undecided, with
        # num at scale 2**W and rho and R in the unit 2**-prec
        scale = 10 ** digits
        base = num << prec
        streak = 0
        for rho in rhos:
            R += rho
            if (rho * scale) << W < base + (R << W):
                streak += 1
                if streak == 5:
                    break
            else:
                streak = 0
            m += 1
        else:  # pragma: no cover - the tail stops at or after the exact rule
            raise ArithmeticError("the tail stopped before the stopping rule")
        # F = (num 2**-W + R 2**-prec) / (P 2**P_exp): one division to about prec bits
        N = base + (R << W)
        k = prec + P.bit_length() - N.bit_length()
        F = (N << k if k >= 0 else N >> -k) // P
        return mp.mpf((F, -(k + W + prec + P_exp))), m + 1


def _rise(c1: int, W: int, prec: int, p: int) -> Tuple[int, int, int]:
    """f_direct's terms 0..p-1 as num / (P 2**P_exp), num at scale 2**W."""
    one, two = 1 << W, 2 << W
    c, d = 0, -c1  # c_m and d_m at m = 0
    P, P_exp = 1 << prec, -prec  # prod_{k<=m} c_k = P * 2**P_exp
    num = one  # the sum of terms 0..m times P
    for _ in range(p - 1):
        d += c1 * (c + two) >> W
        c += d
        P *= c
        cut = P.bit_length() - prec
        P >>= cut
        P_exp += cut - W
        num = (num * c >> W) + one
    return num, P, P_exp


def _less(t: int, scale: int, scale_bits: int, total: int) -> bool:
    # t * scale < total.  With a, b and n the bit lengths of t, scale and
    # total, t * scale lies in [2**(a + b - 2), 2**(a + b)) and total in
    # [2**(n - 1), 2**n), so gap = n - a - b decides unless it is -1 or 0;
    # only then is the product needed
    gap = total.bit_length() - t.bit_length() - scale_bits
    return gap >= 1 or (gap >= -1 and t * scale < total)


def _tail(
    c: int, d: int, c1: int, W: int, prec: int, p: int, digits: int
) -> Tuple[int, int, List[int]]:
    """f_direct's terms from p on, relative to term p - 1, in the unit 2**-prec.

    Returns (R, start, rhos): rhos are the terms start, start + 1, ... up
    to the fifth in a row that passes the stopping test with 1 in place of
    num, start is the first term that passes it with p + 1 in place of
    num, and R sums the terms p..start-1.
    """
    scale = 10 ** digits
    scale_bits = scale.bit_length()
    unit, bound = 1 << prec, (p + 1) << prec
    two = 2 << W
    rho, R = unit, 0
    start, R0, rhos, streak = None, 0, [], 0
    m = p
    while True:
        rho = (rho << W) // c
        R += rho
        if start is None and _less(rho, scale, scale_bits, bound + R):
            start, R0 = m, R - rho
        if start is not None:
            rhos.append(rho)
            if _less(rho, scale, scale_bits, unit + R):
                streak += 1
                if streak == 5:
                    return R0, start, rhos
            else:
                streak = 0
        drop = min(c.bit_length() - rho.bit_length() - _TAIL_BITS, W)
        if drop > 0:
            c >>= drop
            d >>= drop
            c1 >>= drop
            W -= drop
            two = 2 << W
        m += 1
        if m > 2_000_000:  # pragma: no cover - defensive cap
            raise ArithmeticError("series did not reach the stopping rule")
        d += c1 * (c + two) >> W
        c += d


def _other_cpus() -> Optional[Set[int]]:
    # the CPUs this process may run on other than the one it last ran on, or
    # None where /proc/self/stat does not say (outside Linux)
    try:
        with open("/proc/self/stat", "rb") as fh:
            cpu = int(fh.read().rpartition(b")")[2].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    except (OSError, ValueError, IndexError, AttributeError):
        return None


def _rise_beside_tail(rise: tuple, tail: tuple) -> Tuple[tuple, Tuple[int, int, List[int]]]:
    """_rise(*rise) in this process while one forked child runs _tail(*tail).

    The child writes the tail's ints in hex, or its error, to a pipe and
    always ends with os._exit; this process always reaps it, and kills it
    first if the rise raises.  A failed tail raises RuntimeError here.
    """
    cpus = _other_cpus()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            if cpus:  # off this process's CPU, where the scheduler tends to leave it
                with suppress(OSError):
                    os.sched_setaffinity(0, cpus)
            try:
                R, start, rhos = _tail(*tail)
                text = " ".join(format(x, "x") for x in (R, start, *rhos))
            except Exception as exc:
                text = f"! {type(exc).__name__}: {exc}"
            with open(write, "w") as out:
                out.write(text)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    reaped = False
    try:
        head = _rise(*rise)
        chunks = []
        while chunk := os.read(read, 1 << 16):
            chunks.append(chunk)
        status = os.waitpid(pid, 0)[1]
        reaped = True
    finally:
        os.close(read)
        if not reaped:
            import signal  # only on this path: the package import does not load it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    text = b"".join(chunks).decode()
    if text.startswith("!"):
        raise RuntimeError(f"f_direct's tail failed in its child process: {text[2:]}")
    if status or not text:
        raise RuntimeError(f"f_direct's tail process ended with wait status {status}")
    R, start, *rhos = (int(x, 16) for x in text.split())
    return head, (R, start, rhos)
