"""Batch command-line interface.

Subcommands: coeffs, eval, verify, diverge, report, tables.  All output is
deterministic for a fixed configuration: JSON documents carry a
schema_version field and CSV uses '.' decimals, UTF-8 and LF endings.
Exit codes: 0 success, 2 configuration error, 3 suite failure.
Handlers read the parsed argparse namespace directly; every default and
choice lives in `build_parser`, and each subcommand takes only the flags
its handler reads: --precision for coeffs, eval and tables; --format for
coeffs, eval, diverge and tables; --out for all.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import mpmath as mp

from . import divergence, qseries, suites
from .expansion import compute_expansion, render_expansion
from .sequences import bernoulli_number, eulerian_row, polylog_delta

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SUITE = 3

S_MIN = "0.0005"  # smallest eval --s; f_direct's time grows ~5-6x per halving of s


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
    # a repeated --s string is summed once and printed once per occurrence
    by_s = {s: qseries.eval_report(s, order=args.order) for s in dict.fromkeys(s for _, s in parsed)}
    reports = [by_s[s] for _, s in parsed]
    digits = min(args.precision, 20)
    rows = [
        {
            "s": r.s,
            "digits": r.digits,
            "order": r.truncation_order,
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


def _suite_doc(result: suites.SuiteResult, tag: str) -> dict:
    # no timing fields: output must be byte-identical across runs
    return {
        "suite": result.name,
        "criterion_tag": tag,
        "criterion": result.criterion,
        "ok": result.ok,
        "details": result.details,
    }


def _timed_line(result: suites.SuiteResult) -> str:
    # the wall time goes to stderr only, so stdout stays byte-identical
    return f"{result.line()}  ({result.elapsed:.3f} s)"


def _cmd_verify(args: argparse.Namespace) -> int:
    tag = suites.SUITES[args.suite][0]
    result = suites.run_suite(args.suite)
    doc = {"schema_version": SCHEMA_VERSION, "kind": "verify", **_suite_doc(result, tag)}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    sys.stderr.write(_timed_line(result) + "\n")
    return EXIT_OK if result.ok else EXIT_SUITE


def _cmd_report(args: argparse.Namespace) -> int:
    results = suites.run_all()
    docs = [_suite_doc(r, tag) for tag, r in results]
    all_ok = all(r.ok for _, r in results)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "report",
        "all_ok": all_ok,
        "suites": docs,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    for tag, r in results:
        sys.stderr.write(f"[{tag}] {_timed_line(r)}\n")
    return EXIT_OK if all_ok else EXIT_SUITE


def _cmd_diverge(args: argparse.Namespace) -> int:
    if not 6 <= args.max_order <= 24:
        raise ConfigError("--max-order must lie in [6, 24]")
    if not 6 <= args.ebar_max <= 64:
        raise ConfigError("--ebar-max must lie in [6, 64]")
    report = divergence.growth_report(max_order=args.max_order, ebar_max=args.ebar_max)
    if args.fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "diverge",
            "n_range": list(report.n_range),
            "ebar": [repr(x) for x in report.ebar],
            "ebar_err": [repr(x) for x in report.ebar_err],
            "fitted_rate": report.fitted_rate,
            "b_roots": [repr(x) for x in report.b_roots],
            "tail_increasing": report.tail_increasing,
            "ratio_cross_index": report.ratio_cross_index,
            "cosh_rows": [
                {
                    "level": r.level,
                    "v": r.v,
                    "ratio_re": r.ratio_re,
                    "ratio_im": r.ratio_im,
                    "target": r.target,
                    "abs_err": r.abs_err,
                }
                for r in report.cosh_rows
            ],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = ["kind,index,value"]
        for n, x in enumerate(report.ebar):
            lines.append(f"ebar,{n},{x!r}")
        for j, x in enumerate(report.b_roots):
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
    p.add_argument("--max-order", type=int, default=12)
    flags(p, precision=True, fmt=True)

    p = sub.add_parser("eval", help="high-precision evaluation vs. the expansion")
    p.add_argument("--s", action="append", dest="s_values", metavar="S",
                   help=f"evaluation point, repeatable; {S_MIN} <= s <= 5")
    p.add_argument("--order", type=int, default=2, help="expansion order for comparison")
    flags(p, precision=True, fmt=True)

    p = sub.add_parser("verify", help="run one named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(suites.SUITES))
    flags(p)

    p = sub.add_parser("diverge", help="divergence diagnostics")
    p.add_argument("--max-order", type=int, default=12)
    p.add_argument("--ebar-max", type=int, default=30)
    flags(p, fmt=True)

    p = sub.add_parser("report", help="run all suites and summarize")
    flags(p)

    p = sub.add_parser("tables", help="dump the exact sequence tables")
    p.add_argument("--kind", choices=("all", "delta", "bernoulli", "eulerian"), default="all")
    p.add_argument("--max-n", type=int, default=16)
    flags(p, precision=True, fmt=True)

    return parser


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "diverge": _cmd_diverge,
    "report": _cmd_report,
    "tables": _cmd_tables,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "precision" in args and not 1 <= args.precision <= 1000:
            raise ConfigError("--precision must lie in [1, 1000]")
        return _HANDLERS[args.subcommand](args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
