"""Benchmark of the unclosed CLI: cold processes, three workloads, traced layers.

Run from the root of a source tree (the package is imported from ./src):

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 40 --trace 0

Each pass is one fresh Python process that imports unclosed.cli and runs the
workload's requests through cli.main one after another (closed loop, one
client), because CLI users pay the cold caches and sequence tables on every
invocation.  Passes repeat until --seconds are used (at least two), and each
metric is the median over passes.  --trace 0 prints the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates untraced and traced passes and prints the
per-layer metrics.  Every output is checked (see `check_request`); a failed
check counts in `failed` and never stops the run.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
--out FILE also writes the full result (environment stamp, passes, spans) for
perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
sys.path.insert(0, str(BENCH_DIR))
from tracing import EXACT_COUNTERS, SUITE_NAMES  # noqa: E402

WORKLOADS = ("exact-deep", "numeric-small-s", "report")
SETUP_PROBES = 5  # extra set-up-only processes per run, for a steadier setup_s
TIME_LIMIT = 170.0  # a run must end within 180 s

# fixed requests and the reference output each must reproduce byte for byte
REFERENCES = {
    ("coeffs", "--max-order", "12"): "coeffs-12.json",
    ("coeffs", "--max-order", "24"): "coeffs-24.json",
    ("coeffs", "--max-order", "24", "--format", "csv"): "coeffs-24.csv",
    ("tables", "--kind", "all", "--max-n", "64"): "tables-64.json",
    ("report",): "report.json",
}

S_ANCHOR, S_LOW, S_HIGH, S_DRAWS = 0.0005, 0.0005, 0.002, 7

# per-layer metrics a workload is known to drive; reading zero means a wrapper
# was not installed where the program looks the name up
EXPECT_NONZERO = {
    "exact-deep": [
        "field.mul_calls", "field.add_calls", "field.inverse_calls", "field.embed_calls",
        "sequences.polylog_delta_s", "sequences.polylog_delta_calls", "sequences.bernoulli_s",
        "series.exponent_series_s", "series.exp_s", "series.log_s",
        "series.gaussian_integrate_s", "series.gaussian_integrate_calls", "series.vpoly_mul_calls",
        "expansion.compute_s", "expansion.compute_calls", "expansion.cold_calls",
        "expansion.render_s", "cli.coeffs_s", "cli.tables_s", "cli.stdout_bytes",
    ],
    "numeric-small-s": [
        "qseries.eval_report_s", "qseries.eval_numeric_s", "qseries.terms_summed",
        "qseries.digits_used", "qseries.digits_required", "qseries.digits_headroom_ratio",
        "expansion.compute_calls", "expansion.cold_calls", "series.exp_s",
        "cli.eval_s", "cli.stdout_bytes",
    ],
    "report": [
        "qseries.log_pochhammer_s", "qseries.log_pochhammer_calls", "qseries.minor_arc_s",
        "qseries.log_poch_check_s", "qseries.constant_term_s", "qseries.normalized_remainder_s",
        "divergence.b_growth_s", "divergence.normalized_polylog_delta_s",
        "divergence.partial_exp_s", "expansion.compute_calls", "expansion.cold_calls",
        "expansion.cache_hit_ratio", "series.exp_s", "cli.report_s", "cli.stdout_bytes",
    ] + [f"suites.{n}_s" for n in SUITE_NAMES],
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def make_requests(workload: str, seed: int) -> list:
    """The argv lists of one pass; the seed only orders requests or draws s."""
    rng = random.Random(seed)
    if workload == "exact-deep":
        requests = [list(argv) for argv in REFERENCES if argv[0] != "report"]
        rng.shuffle(requests)
        return requests
    if workload == "numeric-small-s":
        # stratified log-uniform draws, one per stratum, with strata paired
        # antithetically: the seed changes every s but hardly the total work,
        # which grows like s**-2
        pair = [rng.random() for _ in range((S_DRAWS + 1) // 2)]
        span = math.log(S_HIGH / S_LOW)
        s_values = [S_ANCHOR]
        for k in range(S_DRAWS):
            u = pair[k // 2] if k % 2 == 0 else 1.0 - pair[k // 2]
            s_values.append(S_LOW * math.exp(span * (k + u) / S_DRAWS))
        return [["eval", "--s", f"{s:.6g}", "--order", "2"] for s in s_values]
    return [["report"]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def b3_value() -> float:
    """b_3 from the exact reference coefficients, as p + q*sqrt5."""
    doc = json.loads((REFERENCE_DIR / REFERENCES[("coeffs", "--max-order", "12")]).read_text())
    row = doc["b"][3]
    return float(Fraction(row["p"])) + float(Fraction(row["q"])) * math.sqrt(5)


def check_request(req: dict, refs: dict, b3: float, required: dict, seen: dict) -> list:
    """Problems with one request's result; an empty list means it passed.

    Fixed requests must match the stored reference output byte for byte.  An
    eval must use at least required_digits(s) digits, and its error against
    the order-2 expansion must be b_3 s**3 to within 1%: a check that shares
    no code with the summation.  Every request must print the same bytes in
    every pass of the run, traced or not.
    """
    argv = tuple(req["argv"])
    out = req["stdout"]
    problems = []
    if req["error"] is not None:
        problems.append("raised: " + req["error"].strip().splitlines()[-1])
    elif req["rc"] != 0:
        problems.append(f"exit code {req['rc']}")
    if argv in refs and out != refs[argv]:
        problems.append("output differs from the reference")
    if argv[0] == "eval" and not problems:
        s_text = argv[argv.index("--s") + 1]
        try:
            row = json.loads(out)["rows"][0]
            digits, abs_err = row["digits"], float(row["abs_err"])
        except (ValueError, KeyError, IndexError, TypeError):
            return problems + ["eval output is not the expected JSON"]
        if digits < required[s_text]:
            problems.append(f"{digits} digits < required {required[s_text]}")
        ratio = abs_err / (abs(b3) * float(s_text) ** 3)
        if not abs(ratio - 1) <= 0.01:
            problems.append(f"abs_err / (|b_3| s^3) = {ratio!r}, not within 1% of 1")
    if seen.setdefault(argv, sha256(out)) != sha256(out):
        problems.append("output differs from an earlier pass of this run")
    return problems


def spawn(root: Path, requests: list, traced: bool, timeout: float) -> dict:
    """Run one worker process to completion and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("UNCLOSED_THREADS", None)
    spec = {"src": str(root / "src"), "requests": requests, "trace": traced}
    spec["spawned"] = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 5.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    """HEAD of root/.git read from its files, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def stamp(root: Path, env: dict) -> dict:
    """Environment of a result; results with different stamps are not compared."""
    return {
        **env,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "source_sha256": source_digest(root / "src" / "unclosed"),
        "bench_sha256": source_digest(BENCH_DIR),
    }


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "unclosed" / "cli.py").is_file():
        raise BenchError(f"no src/unclosed/cli.py under {root}; run from a source tree")
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    refs = {argv: (REFERENCE_DIR / name).read_text(encoding="utf-8")
            for argv, name in REFERENCES.items()}
    b3 = b3_value()
    requests = make_requests(args.workload, args.seed)

    started = time.monotonic()

    def remaining():
        return TIME_LIMIT - (time.monotonic() - started)

    spawn(root, [], False, remaining())  # unmeasured: fills __pycache__ and the file cache
    setups = [spawn(root, [], False, remaining())["setup_s"] for _ in range(SETUP_PROBES)]

    passes = []
    t0 = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(spawn(root, requests, traced, remaining()))
        elapsed = time.monotonic() - t0
        per_pass = elapsed / len(passes)
        if len(passes) >= 2 and (elapsed + per_pass > args.seconds
                                 or remaining() < 2 * per_pass):
            break

    seen, failures, attempted = {}, [], 0
    for n, p in enumerate(passes):
        for req in p["requests"]:
            attempted += 1
            problems = check_request(req, refs, b3, p["required_digits"], seen)
            if problems:
                failures.append(f"pass {n} {' '.join(req['argv'])}: {'; '.join(problems)}")

    warnings = []
    plain = [p for p in passes if "layers" not in p]
    traced_passes = [p for p in passes if "layers" in p]
    computed = {}
    if args.trace:
        for name in traced_passes[0]["layers"]:
            values = [p["layers"][name] for p in traced_passes]
            computed[name] = statistics.median(values)
            if name in EXACT_COUNTERS and len(set(values)) > 1:
                warnings.append(f"nondeterministic counter {name}: {values}")
        computed["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced_passes)
                                            / statistics.median(p["wall_s"] for p in plain))
        for name in EXPECT_NONZERO[args.workload]:
            if not computed.get(name):
                warnings.append(f"{name} reads zero on {args.workload}")
        for p in traced_passes:
            warnings += [f"trace target missing: {t}" for t in p["missing_targets"]]
    else:
        computed["setup_s"] = statistics.median(setups + [p["setup_s"] for p in passes])
        for name in ("wall_s", "cpu_s", "max_req_s", "peak_rss_mb"):
            computed[name] = statistics.median(p[name] for p in passes)

    metrics = {}
    for m in wanted:
        if m["name"] not in computed:
            raise BenchError(f"BENCHMARK.json declares {m['name']}, which is not measured")
        metrics[m["name"]] = {"value": computed[m["name"]], "unit": m["unit"]}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(root, passes[0]["env"]),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "warnings": warnings,
        "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k not in ("requests", "env")}
                   | {"requests": [{k: r[k] for k in ("argv", "rc", "elapsed")}
                                   | {"stdout_sha256": sha256(r["stdout"])}
                                   for r in p["requests"]]}
                   for p in passes],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result here")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    n_plain = sum(1 for p in result["passes"] if "layers" not in p)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(result['passes'])} "
          f"({n_plain} untraced)  stamp {json.dumps(result['stamp'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  fail_ratio = {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']} of {result['attempted']} requests failed)")
    for line in result["failures"] + result["warnings"]:
        print(f"  ! {line}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
