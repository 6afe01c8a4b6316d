"""Batch command-line interface.

Subcommands: coeffs, eval, verify, diverge, report, tables.  All output is
deterministic for a fixed configuration: JSON documents carry a
schema_version field and CSV uses '.' decimals, UTF-8 and LF endings.
Exit codes: 0 success, 2 configuration error, 3 suite failure.
Each subparser names its handler as its `handler` default, which `main`
calls.  Handlers read the parsed argparse namespace directly; every default
and choice lives in `build_parser`, and each subcommand takes only the flags
its handler reads: --precision for coeffs, eval and tables; --format for
coeffs, eval, diverge and tables; --out for all.

`build_parser` carries `functools.cache`, so `main` builds one parser per
process, on its first call and never at import.  The `verify --suite` choices
are the `suites.SUITES` dict itself, read live at each parse and listed in its
order, so a suite added to or removed from it in place is accepted or rejected
on the next call; a new dict bound to `suites.SUITES` is not seen.  Handlers
are bound when the parser is built; to change what a subcommand does, patch
`suites.SUITES` or the layer functions the handlers call, never `cli._cmd_*`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

import mpmath as mp

from . import divergence, qseries, suites
from .expansion import SCHEMA_VERSION, compute_expansion, render_expansion
from .sequences import bernoulli_number, eulerian_row, polylog_delta

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SUITE = 3

S_MIN = "1e-5"  # smallest eval --s; f_direct takes ~0.13 s there, ~2x per halving of s


class ConfigError(ValueError):
    pass


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out}: {exc.strerror}") from exc


def _cmd_coeffs(args: argparse.Namespace) -> int:
    if not 1 <= args.max_order <= 24:
        raise ConfigError("--max-order must lie in [1, 24]")
    result = compute_expansion(args.max_order)
    _emit(render_expansion(result, args.fmt, args.precision), args.out)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    if not args.s_values:
        raise ConfigError("eval needs at least one --s value")
    if not 1 <= args.order <= 24:
        raise ConfigError("--order must lie in [1, 24]")
    parsed = []
    for s in args.s_values:
        try:
            sv = mp.mpf(s)
        except ValueError as exc:
            raise ConfigError(f"bad s value: {s!r}") from exc
        if not mp.mpf(S_MIN) <= sv <= 5:  # both parsed at one precision
            raise ConfigError(f"s = {s} outside the supported range [{S_MIN}, 5]")
        parsed.append((float(sv), s))
    parsed.sort()
    reports = [qseries.eval_report(s, args.order) for _, s in parsed]
    digits = min(args.precision, 20)
    rows = [
        {
            "s": r.s,
            "digits": r.digits,
            "order": args.order,
            "terms_used": r.terms_used,
            "F": mp.nstr(r.F_value, digits),
            "remainder": mp.nstr(r.remainder, digits),
            "asymptotic": mp.nstr(r.asymptotic, digits),
            "abs_err": mp.nstr(r.abs_err, 8),
            "rel_err": mp.nstr(r.rel_err, 8),
        }
        for r in reports
    ]
    if args.fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "kind": "eval", "rows": rows}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = ["s,remainder,asymptotic,rel_err"]
        for r in rows:
            lines.append(f"{r['s']},{r['remainder']},{r['asymptotic']},{r['rel_err']}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _suite_doc(result: suites.SuiteResult) -> dict:
    # no timing fields: output must be byte-identical across runs
    return {
        "suite": result.name,
        "criterion_tag": result.tag,
        "criterion": result.criterion,
        "ok": result.ok,
        "details": result.details,
    }


def _timed_line(result: suites.SuiteResult) -> str:
    # the wall time goes to stderr only, so stdout stays byte-identical
    return f"{result.line()}  ({result.elapsed:.3f} s)"


def _cmd_verify(args: argparse.Namespace) -> int:
    result = suites.run_suite(args.suite)
    doc = {"schema_version": SCHEMA_VERSION, "kind": "verify", **_suite_doc(result)}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    sys.stderr.write(_timed_line(result) + "\n")
    return EXIT_OK if result.ok else EXIT_SUITE


def _cmd_report(args: argparse.Namespace) -> int:
    results = suites.run_all()
    docs = [_suite_doc(r) for r in results]
    all_ok = all(r.ok for r in results)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "report",
        "all_ok": all_ok,
        "suites": docs,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    for r in results:
        sys.stderr.write(f"[{r.tag}] {_timed_line(r)}\n")
    return EXIT_OK if all_ok else EXIT_SUITE


def _cmd_diverge(args: argparse.Namespace) -> int:
    if not 6 <= args.max_order <= 24:
        raise ConfigError("--max-order must lie in [6, 24]")
    if not 6 <= args.ebar_max <= 64:
        raise ConfigError("--ebar-max must lie in [6, 64]")
    raw = [divergence.normalized_polylog_delta(n) for n in range(args.ebar_max + 1)]
    result = compute_expansion(args.max_order)
    if args.fmt == "json":
        # subtract before converting: the deviations sink far below float eps
        errors = [float(abs(v - 1)) for v in raw]
        fit_hi = min(30, args.ebar_max)
        rate, _ = divergence.fit_geometric_rate(range(5, fit_hi + 1), errors[5 : fit_hi + 1])
        section = divergence.b_growth(result)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "diverge",
            "n_range": [0, args.ebar_max],
            "ebar": [repr(float(v)) for v in raw],
            "ebar_err": [repr(x) for x in errors],
            "fitted_rate": rate,
            "b_roots": [repr(x) for x in result.growth],
            "tail_increasing": section.tail_increasing,
            "ratio_cross_index": section.ratio_cross_index,
            "cosh_rows": [r._asdict() for r in divergence.cosh_limit_check()],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = ["kind,index,value"]
        for n, v in enumerate(raw):
            lines.append(f"ebar,{n},{float(v)!r}")
        for j, x in enumerate(result.growth):
            lines.append(f"b_root,{j + 1},{x!r}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_tables(args: argparse.Namespace) -> int:
    if not 0 <= args.max_n <= 64:
        raise ConfigError("--max-n must lie in [0, 64]")
    doc = {"schema_version": SCHEMA_VERSION, "kind": "tables", "max_n": args.max_n}
    want = ("delta", "bernoulli", "eulerian") if args.kind == "all" else (args.kind,)
    ns = range(args.max_n + 1)
    if "delta" in want:
        doc["delta"] = [
            {"n": n, "exact": v.render(), "value": mp.nstr(v.embed(args.precision), args.precision)}
            for n, v in enumerate(map(polylog_delta, ns))
        ]
    if "bernoulli" in want:
        doc["bernoulli"] = [{"n": n, "value": str(bernoulli_number(n))} for n in ns]
    if "eulerian" in want:
        rows = [eulerian_row(n) for n in range(min(args.max_n, 24) + 1)]
        doc["eulerian"] = [{"n": n, "row": [str(x) for x in row]} for n, row in enumerate(rows)]
    if args.fmt == "json":
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = ["table,n,values"]
        for key in ("delta", "bernoulli", "eulerian"):
            for row in doc.get(key, ()):
                value = " ".join(row["row"]) if key == "eulerian" else row["value"]
                lines.append(f"{key},{row['n']},{value}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unclosed",
        description="Exact and high-precision tools for a divergent q-series expansion",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def flags(p, precision=False, fmt=False):
        if precision:
            p.add_argument("--precision", type=int, default=30, help="output decimal digits")
        if fmt:
            p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("coeffs", help="exact expansion coefficients")
    p.set_defaults(handler=_cmd_coeffs)
    p.add_argument("--max-order", type=int, default=12)
    flags(p, precision=True, fmt=True)

    p = sub.add_parser("eval", help="high-precision evaluation vs. the expansion")
    p.set_defaults(handler=_cmd_eval)
    p.add_argument("--s", action="append", dest="s_values", metavar="S",
                   help=f"evaluation point, repeatable; {S_MIN} <= s <= 5; time grows like 1/s")
    p.add_argument("--order", type=int, default=2, help="expansion order for comparison")
    flags(p, precision=True, fmt=True)

    p = sub.add_parser("verify", help="run one named verification suite")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--suite", required=True, choices=suites.SUITES)
    flags(p)

    p = sub.add_parser("diverge", help="divergence diagnostics")
    p.set_defaults(handler=_cmd_diverge)
    p.add_argument("--max-order", type=int, default=12)
    p.add_argument("--ebar-max", type=int, default=30)
    flags(p, fmt=True)

    p = sub.add_parser("report", help="run all suites and summarize")
    p.set_defaults(handler=_cmd_report)
    flags(p)

    p = sub.add_parser("tables", help="dump the exact sequence tables")
    p.set_defaults(handler=_cmd_tables)
    p.add_argument("--kind", choices=("all", "delta", "bernoulli", "eulerian"), default="all")
    p.add_argument("--max-n", type=int, default=16,
                   help="last n of the tables, 0..64; the Eulerian rows stop at n = 24")
    flags(p, precision=True, fmt=True)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "precision" in args and not 1 <= args.precision <= 1000:
            raise ConfigError("--precision must lie in [1, 1000]")
        return args.handler(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
