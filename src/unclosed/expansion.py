"""Exact expansion coefficients of the normalized remainder.

`compute_expansion(J)` produces the multiplicative coefficients b_0..b_J
(b_0 = 1) and the exponential coefficients c_1..c_J of the same series
under a formal log, all as exact elements of Q(sqrt5), together with the
growth roots |b_j|**(1/j).  An exact result depends only on the order asked
for; `render_expansion` alone turns it into decimal strings, at the
precision it is given.  b_1..b_J are the Gaussian means of the even powers
of exp(exponent series), the exponent, damping included, truncated at
t'**(2J); c_1..c_J are the formal log of the scalar series they form.  Both
are computed over Q in the rescaled variables of `unclosed.series` and
mapped to Q(sqrt5) by `series.to_field`.

Only the largest order built so far is cached, and a smaller order is its
prefix: summand k of the exponent first enters at t'**(k-1), so truncation
touches only powers above t'**(2J), c_j reads only b_0..b_j, and the root
of index j reads only b_j.  Repeated runs are bit-identical.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional, Tuple

import mpmath as mp

from .field import FieldElem
from .series import (
    VPoly, exp_series, exponent_series, gaussian_integrate, log_coefficients, to_field,
)

__all__ = ["ExpansionResult", "compute_expansion", "render_expansion", "assembled_series"]

SCHEMA_VERSION = 1


class ExpansionResult(NamedTuple):
    """Exact b_j / c_j lists with their growth roots; the order J is len(c)."""

    b: Tuple[FieldElem, ...]  # b_0 .. b_J
    c: Tuple[FieldElem, ...]  # c_1 .. c_J
    growth: Tuple[float, ...]  # |b_j|**(1/j) for j = 1 .. J


# the largest order built so far, with its assembled series
_prefix: Optional[Tuple[Tuple[VPoly, ...], ExpansionResult]] = None


def _build(max_order: int):
    """The cache entry, rebuilt from scratch when `max_order` exceeds its order."""
    global _prefix
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if _prefix is None or len(_prefix[1].c) < max_order:
        total = exp_series(exponent_series(2 * max_order))
        for m in range(1, len(total), 2):
            if gaussian_integrate(total[m]):
                raise ArithmeticError(f"odd power t^{m} integrated to a nonzero value")
        # means of t'**(2j) and their formal log, both over Q, then back to s**j
        b = [gaussian_integrate(p) for p in total[::2]]
        c = [to_field(x, j) for j, x in enumerate(log_coefficients(b), 1)]
        b = [to_field(x, j) for j, x in enumerate(b)]
        # fixed working digits: the roots never depend on an output setting
        with mp.workdps(40):
            growth = tuple(
                float(abs(b[j].embed(30)) ** (mp.mpf(1) / j)) for j in range(1, max_order + 1)
            )
        _prefix = (total, ExpansionResult(tuple(b), tuple(c), growth))
    return _prefix


def assembled_series(max_order: int) -> Tuple[VPoly, ...]:
    """exp(exponent series), damping included, truncated at t'**(2*max_order).

    Entry m of the tuple is the t'**m coefficient, t' = 5**(1/4) * sqrt(s),
    a rational polynomial in w' = i*v, as `unclosed.series` defines them.
    """
    return _build(max_order)[0][: 2 * max_order + 1]


def compute_expansion(max_order: int) -> ExpansionResult:
    """Exact expansion through order `max_order`."""
    full = _build(max_order)[1]
    return ExpansionResult(
        b=full.b[: max_order + 1],
        c=full.c[:max_order],
        growth=full.growth[:max_order],
    )


def _json_row(j: int, x: FieldElem, value: str) -> dict:
    return {"j": j, "p": str(x.p), "q": str(x.q), "exact": x.render(), "value": value}


def render_expansion(result: ExpansionResult, fmt: str, precision: int) -> str:
    """Deterministic serialization with values at `precision` digits; "json"
    and "csv" carry the same content."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    # (j, exact, decimal); embed sets its own working digits and nstr reads none
    b = [(j, x, mp.nstr(x.embed(precision), precision)) for j, x in enumerate(result.b)]
    c = [(j, x, mp.nstr(x.embed(precision), precision)) for j, x in enumerate(result.c, 1)]
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "max_order": len(result.c),
            "precision": precision,
            "b": [_json_row(*row) for row in b],
            "c": [_json_row(*row) for row in c],
            "growth": [{"j": j, "root": repr(r)} for j, r in enumerate(result.growth, 1)],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        lines = ["series,j,p,q,value"]
        lines += [f"b,{j},{x.p},{x.q},{v}" for j, x, v in b]
        lines += [f"c,{j},{x.p},{x.q},{v}" for j, x, v in c]
        lines += [f"growth,{j},,,{r!r}" for j, r in enumerate(result.growth, 1)]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {fmt}")
