"""Arbitrary-precision evaluation of the target q-series and its checks.

The central object is F(q) = sum_m q^(m(m+1)/2) / (q;q)_m**2 evaluated at
q = exp(-s) for small s > 0, where F grows like exp(pi**2/(5 s)).  The
precision policy therefore ties the working digit count to s:

    digits >= ceil(pi**2 / (5 s) / ln 10) + 40  (+ requested output digits)

Summation has no cancellation (all terms positive for real s), so no
further headroom is needed.  The module also hosts the exact constant-term
identity check, truncated log-Pochhammer error scaling, and the minor-arc
bound measurement; those back the exact expansion against independent
numerics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial, isqrt
from typing import List, Optional, Sequence, Tuple, Union

import mpmath as mp

from .expansion import compute_expansion
from .field import FieldElem, MINUS_PHI, PHI_INV
from .sequences import polylog_neg

__all__ = [
    "PrecisionContext",
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


class PrecisionError(ValueError):
    """Raised when a context violates the s-dependent precision policy."""


GUARD_DIGITS = 20  # added to PrecisionContext.digits: tail and rounding slack


@dataclass(frozen=True)
class PrecisionContext:
    """Working decimal precision, at least 30 digits."""

    digits: int = 50

    def __post_init__(self):
        if self.digits < 30:
            raise ValueError("digits must be >= 30")


def required_digits(s: Union[str, float], out_digits: int = 0) -> int:
    """Minimum working digits for evaluating near exp(pi**2/(5 s)) scale."""
    with mp.workdps(30):
        smp = mp.mpf(s)
        if smp <= 0:
            raise ValueError("s must be positive")
        base = int(mp.ceil(mp.pi ** 2 / (5 * smp) / mp.log(10)))
    return base + 40 + out_digits


def _context_for(s: Union[str, float], out_digits: int = 10) -> PrecisionContext:
    return PrecisionContext(digits=max(30, required_digits(s, out_digits)))


def f_direct(s, ctx: PrecisionContext) -> Tuple[mp.mpf, int]:
    """Direct summation of F(exp(-s)) and the number of terms summed.

    All terms are positive.  Summation stops after five successive terms
    that each fall below the one before and below 10**-digits times the
    running total.
    """
    with mp.workdps(ctx.digits + GUARD_DIGITS):
        smp = mp.mpf(s)
        if smp <= 0:
            raise ValueError("s must be positive")
        need = required_digits(s)
        if ctx.digits < need:
            raise PrecisionError(
                f"s={s} needs at least {need} digits, context has {ctx.digits}"
            )
        q = mp.exp(-smp)
        total = mp.mpf(1)  # m = 0 term
        qpow_m = mp.mpf(1)  # q**m
        qtri = mp.mpf(1)  # q**(m(m+1)/2)
        poch = mp.mpf(1)  # (q; q)_m
        rel = mp.mpf(10) ** (-ctx.digits)
        terms = 1
        prev = mp.mpf(1)
        small_streak = 0
        m = 0
        while True:
            m += 1
            qpow_m *= q
            qtri *= qpow_m
            poch *= 1 - qpow_m
            term = qtri / (poch * poch)
            total += term
            terms += 1
            # terms rise then fall; require sustained decay below threshold
            if term < prev and term < total * rel:
                small_streak += 1
                if small_streak >= 5:
                    break
            else:
                small_streak = 0
            prev = term
            if m > 2_000_000:  # pragma: no cover - defensive cap
                raise ArithmeticError("series did not reach the stopping rule")
        return total, terms


def normalized_remainder(s, ctx: PrecisionContext) -> mp.mpf:
    """F(exp(-s)) * sqrt(2 pi sqrt5 / s) * exp(-pi**2/(5 s)); tends to 1 as s -> 0."""
    value, _ = f_direct(s, ctx)
    with mp.workdps(ctx.digits + GUARD_DIGITS):
        smp = mp.mpf(s)
        return value * mp.sqrt(2 * mp.pi * mp.sqrt(5) / smp) * mp.exp(-mp.pi ** 2 / (5 * smp))


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


def eval_report(s, order: int = 2, ctx: Optional[PrecisionContext] = None) -> EvalReport:
    if order < 1:
        raise ValueError("order must be >= 1")
    if ctx is None:
        ctx = _context_for(s)
    F, terms = f_direct(s, ctx)
    with mp.workdps(ctx.digits + GUARD_DIGITS):
        smp = mp.mpf(s)
        remainder = F * mp.sqrt(2 * mp.pi * mp.sqrt(5) / smp) * mp.exp(-mp.pi ** 2 / (5 * smp))
        result = compute_expansion(order, precision=min(ctx.digits, 60))
        asym = mp.mpf(1)
        for j in range(1, order + 1):
            asym += result.b[j].embed(ctx.digits) * smp ** j
        abs_err = abs(remainder - asym)
        rel_err = abs_err / abs(remainder)
    return EvalReport(
        s=str(s),
        digits=ctx.digits,
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


def extract_coefficient(
    j: int, s_grid: Sequence[Union[str, float]], ctx: Optional[PrecisionContext] = None
) -> CoefficientEstimate:
    """Estimate the order-j coefficient from the remainder on a descending grid.

    Subtracts the exact lower-order coefficients, divides by s**j, and
    linearly extrapolates the two smallest grid points to s = 0.  Warns when
    raw per-point estimates disagree by more than 10%.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if len(s_grid) < 2:
        raise ValueError("need at least two grid points")
    if ctx is None:
        ctx = _context_for(min(s_grid, key=lambda x: float(mp.mpf(x))), out_digits=10)
    lower: List[mp.mpf] = [mp.mpf(1)]
    if j >= 2:
        result = compute_expansion(j - 1, precision=min(ctx.digits, 60))
        lower += [x.embed(ctx.digits) for x in result.b[1:]]
    svals = sorted((mp.mpf(x) for x in s_grid), reverse=True)
    ests = []
    with mp.workdps(ctx.digits + GUARD_DIGITS):
        for smp in svals:
            R = normalized_remainder(smp, ctx)
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


def log_pochhammer_inf(prefactor, q, digits: int = 40) -> mp.mpc:
    """Sum of principal logs of (1 - prefactor * q**n), n >= 0."""
    with mp.workdps(digits + 10):
        qv = mp.mpf(q)
        if not 0 < qv < 1:
            raise ValueError("q must lie in (0, 1)")
        c = mp.mpmathify(prefactor)
        tiny = mp.mpf(10) ** (-(digits + 5))
        acc = mp.mpc(0)
        while abs(c) >= tiny:
            acc += mp.log(1 - c)
            c *= qv
        return acc


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
    w: FieldElem,
    v: float,
    N: int,
    s_grid: Sequence[Union[str, float]],
    ctx: PrecisionContext = PrecisionContext(digits=50),
    sign: int = 1,
) -> LogPochReport:
    """Compare log((w e^{-s(1/2 + sign*i*v)}; e^{-s})_inf) with its truncation.

    The truncation keeps orders k = -1..N: the k = -1 and k = 0 terms need
    numeric Li_2(w) and Li_1(w) = -log(1 - w); every k >= 1 uses the exact
    rational polylog values.  Expected error decay is s**(N+1) at fixed v.
    """
    if w == PHI_INV:
        label = "1/phi"
    elif w == MINUS_PHI:
        label = "-phi"
    else:
        raise ValueError("w must be one of the two golden-ratio arguments")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if N < 1:
        raise ValueError("N must be >= 1")
    if any(not 0 < float(mp.mpf(s)) <= 0.2 for s in s_grid):
        raise ValueError("s grid must lie in (0, 0.2] for the truncation to be meaningful")
    dps = ctx.digits
    with mp.workdps(dps + 10):
        wn = w.embed(dps)
        li2_w = mp.polylog(2, wn)
        li1_w = -mp.log1p(-wn)
        # B_{k+1}(1/2 + i*sign*v) does not depend on s
        x = mp.mpc(mp.mpf(1) / 2, sign * v)
        exact_terms = [
            (k, polylog_neg(k - 1, w).embed(dps), mp.bernpoly(k + 1, x))
            for k in range(1, N + 1)
        ]
        rows = []
        for s in s_grid:
            smp = mp.mpf(s)
            qv = mp.exp(-smp)
            pref = wn * mp.exp(-smp * (mp.mpf(1) / 2 + sign * mp.mpc(0, 1) * v))
            direct = log_pochhammer_inf(pref, qv, dps)
            trunc = -li2_w / smp + li1_w * sign * mp.mpc(0, 1) * v
            for k, xv, bval in exact_terms:
                trunc += xv * (-smp) ** k * bval / factorial(k + 1)
            rows.append(
                LogPochRow(
                    s=str(s), direct=direct, truncated=trunc, abs_err=abs(direct - trunc)
                )
            )
        ratios = []
        for a, b in zip(rows, rows[1:]):
            if mp.mpf(b.s) > 0 and b.abs_err > 0:
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


def minor_arc_check(
    s_values: Sequence[Union[str, float]] = ("0.05", "0.02"),
    v_factors: Sequence[float] = (1.0, 2.0, 5.0),
    include_endpoint: bool = True,
    ctx: PrecisionContext = PrecisionContext(digits=40),
) -> MinorArcReport:
    """Check |quotient| <= C * exp(pi**2/(5s) - sqrt5/(2 s**(1/3))) on the arc.

    Samples |v| from the arc boundary s**(-2/3) (the split actually used;
    the alternative reading with s**(+2/3) is recorded alongside) up to the
    endpoint pi/s, and reports the fitted constant C.
    """
    dps = ctx.digits
    rows = []
    with mp.workdps(dps + 10):
        phi = PHI_INV.inverse().embed(dps)
        for s in s_values:
            smp = mp.mpf(s)
            qv = mp.exp(-smp)
            v_low = smp ** mp.mpf("-2/3")
            v_end = mp.pi / smp
            samples = sorted({min(f * v_low, v_end) for f in v_factors})
            if include_endpoint:
                samples.append(v_end)
            for vv in samples:
                num = log_pochhammer_inf(-phi * mp.exp(-smp * (mp.mpf(1) / 2 + mp.mpc(0, 1) * vv)), qv, dps)
                den = log_pochhammer_inf(
                    (1 / phi) * mp.exp(-smp * (mp.mpf(1) / 2 - mp.mpc(0, 1) * vv)), qv, dps
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


def _poly_mul_trunc(a: List[int], b: List[int], n: int) -> List[int]:
    out = [0] * (min(len(a) + len(b) - 1, n + 1))
    for i, ai in enumerate(a):
        if not ai or i > n:
            continue
        for j, bj in enumerate(b):
            if i + j > n:
                break
            out[i + j] += ai * bj
    return out


def _poly_inv_trunc(a: List[int], n: int) -> List[int]:
    # inverse of a power series with a[0] == 1; stays integral
    if not a or a[0] != 1:
        raise ValueError("series inverse needs constant term 1")
    inv = [0] * (n + 1)
    inv[0] = 1
    for t in range(1, n + 1):
        acc = 0
        for r in range(1, min(t, len(a) - 1) + 1):
            acc += a[r] * inv[t - r]
        inv[t] = -acc
    return inv


def _f_series_coeffs(M: int) -> List[int]:
    # direct q-expansion of sum_m q^(m(m+1)/2) / (q;q)_m**2
    res = [0] * (M + 1)
    m = 0
    while m * (m + 1) // 2 <= M:
        tri = m * (m + 1) // 2
        budget = M - tri
        poch = [1]
        for n in range(1, m + 1):
            if n > budget:
                break
            nxt = poch + [0] * min(n, budget + 1 - len(poch))
            nxt = nxt[: budget + 1]
            for i, c in enumerate(poch):
                if i + n <= budget:
                    nxt[i + n] -= c
            poch = nxt
        inv = _poly_inv_trunc(poch, budget)
        sq = _poly_mul_trunc(inv, inv, budget)
        for t, c in enumerate(sq):
            res[tri + t] += c
        m += 1
    return res


def _constant_term_coeffs(M: int) -> Tuple[List[int], bool]:
    # [z^0] of prod (1 + z^-1 q^(n+1/2)) * prod 1/(1 - z q^(n+1/2)), with
    # q exponents tracked in half-integer units (doubled to stay integral)
    zmax = (isqrt(8 * M + 1) - 1) // 2
    e_cap = 2 * M
    state = {0: [1] + [0] * e_cap}
    for n in range(M + 1):
        step = 2 * n + 1
        if step > e_cap:
            break
        # multiply by (1 + z^-1 q^(step/2))
        nxt = {zp: row[:] for zp, row in state.items()}
        for zp, row in state.items():
            if zp - 1 < -zmax:
                continue
            dst = nxt.setdefault(zp - 1, [0] * (e_cap + 1))
            for e, c in enumerate(row):
                if c and e + step <= e_cap:
                    dst[e + step] += c
        state = nxt
    for n in range(M + 1):
        step = 2 * n + 1
        if step > e_cap:
            break
        # multiply by sum_r z^r q^(r*step/2)
        nxt = {zp: row[:] for zp, row in state.items()}
        for zp, row in state.items():
            r = 1
            while zp + r <= zmax and r * step <= e_cap:
                dst = nxt.setdefault(zp + r, [0] * (e_cap + 1))
                for e, c in enumerate(row):
                    if c and e + r * step <= e_cap:
                        dst[e + r * step] += c
                r += 1
        state = nxt
    row = state.get(0, [0] * (e_cap + 1))
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
