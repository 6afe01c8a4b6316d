"""Spans and counters for a traced benchmark pass, recorded from outside the program.

`install` replaces each public function or method named in SPANS and COUNTS
by a wrapper.  A module-level function is replaced in every ``unclosed``
module namespace that binds it, because ``from .x import y`` copies the
binding and a wrapper installed in one namespace only would read zero in the
others.  A span is (name, start, end, parent span, request id); spans stay in
memory until the pass ends and `layer_metrics` turns them into per-layer
figures.  Wrappers pass arguments and results through unchanged, so a traced
pass must print exactly what an untraced one prints.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name): one span per call
SPANS = [
    ("unclosed.sequences", "polylog_delta", "sequences.polylog_delta"),
    ("unclosed.sequences", "bernoulli_number", "sequences.bernoulli_number"),
    ("unclosed.sequences", "bernoulli_numbers", "sequences.bernoulli_numbers"),
    ("unclosed.sequences", "bernoulli_half", "sequences.bernoulli_half"),
    ("unclosed.sequences", "bernoulli_poly_shifted", "sequences.bernoulli_poly_shifted"),
    ("unclosed.series", "exponent_series", "series.exponent_series"),
    ("unclosed.series", "PuiseuxSeries.exp", "series.exp"),
    ("unclosed.series", "PuiseuxSeries.log", "series.log"),
    ("unclosed.series", "gaussian_integrate", "series.gaussian_integrate"),
    ("unclosed.expansion", "compute_expansion", "expansion.compute_expansion"),
    ("unclosed.expansion", "render_expansion", "expansion.render_expansion"),
    ("unclosed.qseries", "eval_report", "qseries.eval_report"),
    ("unclosed.qseries", "normalized_remainder", "qseries.normalized_remainder"),
    ("unclosed.qseries", "log_pochhammer_inf", "qseries.log_pochhammer_inf"),
    ("unclosed.qseries", "minor_arc_check", "qseries.minor_arc_check"),
    ("unclosed.qseries", "log_poch_check", "qseries.log_poch_check"),
    ("unclosed.qseries", "constant_term_check", "qseries.constant_term_check"),
    ("unclosed.divergence", "b_growth", "divergence.b_growth"),
    ("unclosed.divergence", "normalized_polylog_delta", "divergence.normalized_polylog_delta"),
    ("unclosed.divergence", "partial_exp", "divergence.partial_exp"),
    ("unclosed.divergence", "partial_exp_max_error", "divergence.partial_exp_max_error"),
    ("unclosed.suites", "run_suite", "suites.run_suite"),
]

# (module, attribute, counter): counted only; a span per field operation would
# cost more than the operation
COUNTS = [
    ("unclosed.field", "FieldElem.__mul__", "field.mul_calls"),
    ("unclosed.field", "FieldElem.__rmul__", "field.mul_calls"),
    ("unclosed.field", "FieldElem.__add__", "field.add_calls"),
    ("unclosed.field", "FieldElem.__sub__", "field.add_calls"),
    ("unclosed.field", "FieldElem.__neg__", "field.add_calls"),
    ("unclosed.field", "FieldElem.inverse", "field.inverse_calls"),
    ("unclosed.field", "FieldElem.embed", "field.embed_calls"),
    ("unclosed.series", "VPoly.__mul__", "series.vpoly_mul_calls"),
    ("unclosed.series", "VPoly.__rmul__", "series.vpoly_mul_calls"),
]

# per-layer time metric -> span names; a span inside another span of the same
# set is not counted twice
TIME_GROUPS = {
    "sequences.polylog_delta_s": {"sequences.polylog_delta"},
    "sequences.bernoulli_s": {
        "sequences.bernoulli_number",
        "sequences.bernoulli_numbers",
        "sequences.bernoulli_half",
        "sequences.bernoulli_poly_shifted",
    },
    "series.exponent_series_s": {"series.exponent_series"},
    "series.exp_s": {"series.exp"},
    "series.log_s": {"series.log"},
    "series.gaussian_integrate_s": {"series.gaussian_integrate"},
    "expansion.compute_s": {"expansion.compute_expansion"},
    "expansion.render_s": {"expansion.render_expansion"},
    "qseries.eval_report_s": {"qseries.eval_report"},
    "qseries.normalized_remainder_s": {"qseries.normalized_remainder"},
    "qseries.log_pochhammer_s": {"qseries.log_pochhammer_inf"},
    "qseries.minor_arc_s": {"qseries.minor_arc_check"},
    "qseries.log_poch_check_s": {"qseries.log_poch_check"},
    "qseries.constant_term_s": {"qseries.constant_term_check"},
    "divergence.b_growth_s": {"divergence.b_growth"},
    "divergence.normalized_polylog_delta_s": {"divergence.normalized_polylog_delta"},
    "divergence.partial_exp_s": {"divergence.partial_exp", "divergence.partial_exp_max_error"},
}

CALL_COUNTS = {
    "sequences.polylog_delta_calls": "sequences.polylog_delta",
    "series.gaussian_integrate_calls": "series.gaussian_integrate",
    "expansion.compute_calls": "expansion.compute_expansion",
    "qseries.log_pochhammer_calls": "qseries.log_pochhammer_inf",
}

SUITE_NAMES = (
    "b1", "constant-term", "divergence", "e-table", "ebar", "logpoch",
    "minor-arc", "moments", "parity", "partial-exp", "scaling",
)
SUBCOMMANDS = ("coeffs", "tables", "eval", "report")
LAYERS = ("cli", "suites", "expansion", "series", "sequences", "qseries", "divergence")

# metrics that must repeat exactly for one commit and seed
EXACT_COUNTERS = (
    sorted({c for _, _, c in COUNTS})
    + sorted(CALL_COUNTS)
    + [
        "expansion.cold_calls",
        "expansion.cache_hit_ratio",
        "qseries.terms_summed",
        "qseries.digits_used",
        "qseries.digits_required",
        "qseries.digits_headroom_ratio",
        "cli.stdout_bytes",
    ]
)


class Recorder:
    """In-memory spans and counters of one pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request id]
        self.stack = []
        self.counts = defaultdict(int)
        self.request = -1
        self.evals = []  # (s, EvalReport.digits, EvalReport.terms_used)
        self.suite_elapsed = {}
        self.stdout_bytes = 0
        self.missing = []

    def _open(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.request]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self.stack.pop()

    def request_span(self, request_id, name):
        """Open the root span of one request; returns a callable that closes it."""
        self.request = request_id
        rec = self._open(name)
        return lambda: self._close(rec)

    def spanned(self, fn, name, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def _modules():
    return [m for n, m in list(sys.modules.items()) if n == "unclosed" or n.startswith("unclosed.")]


def _replace(module_name, attr, make, missing):
    """Install make(original) in place of module_name.attr, or note it as missing."""
    owner_name, _, leaf = attr.rpartition(".")
    owner = sys.modules.get(module_name)
    if owner_name:
        owner = getattr(owner, owner_name, None)
    orig = vars(owner).get(leaf) if owner is not None else None
    if orig is None:
        missing.append(f"{module_name}.{attr}")
        return
    wrapper = make(orig)
    if owner_name:
        setattr(owner, leaf, wrapper)
        return
    for mod in _modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every target; names absent from the program go to recorder.missing."""

    def on_eval(report):
        recorder.evals.append((report.s, report.digits, report.terms_used))

    def on_suite(result):
        recorder.suite_elapsed[result.name] = result.elapsed

    hooks = {"qseries.eval_report": on_eval, "suites.run_suite": on_suite}
    for module_name, attr, name in SPANS:
        _replace(
            module_name, attr,
            lambda fn, name=name: recorder.spanned(fn, name, hooks.get(name)),
            recorder.missing,
        )
    for module_name, attr, key in COUNTS:
        _replace(module_name, attr, lambda fn, key=key: recorder.counted(fn, key), recorder.missing)


def layer_metrics(recorder: Recorder, required_digits) -> dict:
    """Per-layer figures of one pass; required_digits(s) is the program's policy."""
    spans = recorder.spans
    parents = [sp[3] for sp in spans]
    names = [sp[0] for sp in spans]
    dur = [sp[2] - sp[1] for sp in spans]

    def ancestors(i):
        p = parents[i]
        while p >= 0:
            yield p
            p = parents[p]

    def outermost(group, under=None):
        total = 0.0
        for i, name in enumerate(names):
            if name not in group:
                continue
            up = [names[a] for a in ancestors(i)]
            if any(n in group for n in up):
                continue
            if under is not None and under not in up:
                continue
            total += dur[i]
        return total

    out = {}
    for metric, group in TIME_GROUPS.items():
        out[metric] = outermost(group)
    for metric, name in CALL_COUNTS.items():
        out[metric] = sum(1 for n in names if n == name)
    for key in sorted({c for _, _, c in COUNTS}):
        out[key] = recorder.counts.get(key, 0)

    cold = set()
    for i, name in enumerate(names):
        if name == "series.exponent_series":
            cold.update(a for a in ancestors(i) if names[a] == "expansion.compute_expansion")
    calls = out["expansion.compute_calls"]
    out["expansion.cold_calls"] = len(cold)
    out["expansion.cache_hit_ratio"] = (calls - len(cold)) / calls if calls else 0.0

    out["qseries.eval_numeric_s"] = out["qseries.eval_report_s"] - outermost(
        {"expansion.compute_expansion"}, under="qseries.eval_report"
    )
    used = sum(d for _, d, _ in recorder.evals)
    required = sum(required_digits(s) for s, _, _ in recorder.evals)
    out["qseries.terms_summed"] = sum(t for _, _, t in recorder.evals)
    out["qseries.digits_used"] = used
    out["qseries.digits_required"] = required
    out["qseries.digits_headroom_ratio"] = used / required if required else 0.0

    for suite in SUITE_NAMES:
        out[f"suites.{suite}_s"] = recorder.suite_elapsed.get(suite, 0.0)
    for cmd in SUBCOMMANDS:
        out[f"cli.{cmd}_s"] = sum((d for n, d in zip(names, dur) if n == f"cli.{cmd}"), 0.0)
    out["cli.stdout_bytes"] = recorder.stdout_bytes

    child = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (d - c for n, d, c in zip(names, dur, child) if n.split(".", 1)[0] == layer), 0.0
        )
    return out
