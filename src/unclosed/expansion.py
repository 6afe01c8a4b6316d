"""Exact expansion coefficients of the normalized remainder.

`compute_expansion(J)` produces the multiplicative coefficients b_0..b_J
(b_0 = 1) and the exponential coefficients c_1..c_J of the same series
under a formal log, all as exact elements of Q(sqrt5), together with
decimal renderings and growth statistics.  Computing b_1..b_J requires
the exponent series truncated at t**(2J) with summands up to index 2J+1.

Only the largest order built so far is cached, and a smaller order is its
prefix: summand k of the exponent first enters at t**(k-1), so truncation
touches only powers above t**(2J), and c_j reads only b_0..b_j.  Repeated
runs are bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

import mpmath as mp

from .field import FieldElem, ONE
from .series import PuiseuxSeries, VPoly, damping_term, exponent_series, gaussian_integrate

__all__ = ["ExpansionResult", "compute_expansion", "render_expansion", "assembled_series"]

SCHEMA_VERSION = 1

# the largest order built so far: (assembled series, b_0..b_J, c_1..c_J)
_prefix: Optional[Tuple[PuiseuxSeries, Tuple[FieldElem, ...], Tuple[FieldElem, ...]]] = None


@dataclass(frozen=True)
class ExpansionResult:
    """Exact b_j / c_j lists with float renderings and growth statistics."""

    max_order: int
    precision: int
    b: Tuple[FieldElem, ...]  # b_0 .. b_J
    c: Tuple[FieldElem, ...]  # c_1 .. c_J
    b_float: Tuple[str, ...]
    c_float: Tuple[str, ...]
    growth: Tuple[float, ...]  # |b_j|**(1/j) for j = 1 .. J


def _build(max_order: int):
    """The cache entry, rebuilt from scratch when `max_order` exceeds its order."""
    global _prefix
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if _prefix is None or len(_prefix[2]) < max_order:
        trunc = 2 * max_order
        total = (exponent_series(2 * max_order + 1, trunc) + damping_term(trunc)).exp()
        b = []
        for m in range(trunc + 1):
            val = gaussian_integrate(total.coeff(m))
            if m % 2:
                if not val.is_zero():
                    raise ArithmeticError(f"odd power t^{m} integrated to a nonzero value")
                continue
            b.append(val)
        if b[0] != ONE:
            raise ArithmeticError("constant coefficient is not 1")
        # exponential form: formal log of 1 + sum_j b_j s^j with s = t**2
        bseries = PuiseuxSeries(trunc, {2 * j: VPoly([bj]) for j, bj in enumerate(b)})
        logser = bseries.log()
        c = []
        for j in range(1, max_order + 1):
            p = logser.coeff(2 * j)
            if p.degree > 0:
                raise ArithmeticError("log series coefficient is not constant in w")
            c.append(p.coeff(0))
        _prefix = (total, tuple(b), tuple(c))
    return _prefix


def assembled_series(max_order: int) -> PuiseuxSeries:
    """exp(exponent series + damping) truncated at t**(2*max_order)."""
    total = _build(max_order)[0]
    trunc = 2 * max_order
    return PuiseuxSeries(trunc, {m: p for m, p in total.terms.items() if m <= trunc})


def compute_expansion(max_order: int, precision: int = 30) -> ExpansionResult:
    """Exact expansion through order `max_order`, with floats at `precision` digits."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    _, b, c = _build(max_order)
    b, c = b[: max_order + 1], c[:max_order]
    with mp.workdps(precision + 10):
        b_num = [x.embed(precision) for x in b]
        c_num = [x.embed(precision) for x in c]
        b_float = tuple(mp.nstr(x, precision) for x in b_num)
        c_float = tuple(mp.nstr(x, precision) for x in c_num)
        growth = tuple(
            float(abs(b_num[j]) ** (mp.mpf(1) / j)) for j in range(1, max_order + 1)
        )
    return ExpansionResult(
        max_order=max_order,
        precision=precision,
        b=b,
        c=c,
        b_float=b_float,
        c_float=c_float,
        growth=growth,
    )


def render_expansion(result: ExpansionResult, fmt: str = "json") -> str:
    """Deterministic serialization; "json" and "csv" carry the same content."""
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "max_order": result.max_order,
            "precision": result.precision,
            "b": [
                {
                    "j": j,
                    "p": str(x.p),
                    "q": str(x.q),
                    "exact": x.render(),
                    "value": result.b_float[j],
                }
                for j, x in enumerate(result.b)
            ],
            "c": [
                {
                    "j": j + 1,
                    "p": str(x.p),
                    "q": str(x.q),
                    "exact": x.render(),
                    "value": result.c_float[j],
                }
                for j, x in enumerate(result.c)
            ],
            "growth": [
                {"j": j + 1, "root": repr(r)} for j, r in enumerate(result.growth)
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        lines = ["series,j,p,q,value"]
        for j, x in enumerate(result.b):
            lines.append(f"b,{j},{x.p},{x.q},{result.b_float[j]}")
        for j, x in enumerate(result.c):
            lines.append(f"c,{j + 1},{x.p},{x.q},{result.c_float[j]}")
        for j, r in enumerate(result.growth):
            lines.append(f"growth,{j + 1},,,{r!r}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {fmt}")
