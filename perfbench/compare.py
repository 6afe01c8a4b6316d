"""Summarise or compare result files written by perfbench/run.py --out.

    python3 perfbench/compare.py summary RESULTS...          # spreads, shares
    python3 perfbench/compare.py summary --json RESULTS...   # baseline document
    python3 perfbench/compare.py diff BASE NEW               # parent vs change

RESULTS, BASE and NEW are result files or directories of them.  Results
whose environment stamps differ (Python, mpmath and its backend, numpy,
nproc, benchmark code) are never compared: the command stops with exit code
2.  summary also checks that every exact counter repeats across traced runs
of one source tree and seed, and flags any that does not as nondeterminism.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import EXACT_COUNTERS  # noqa: E402

ENV_KEYS = ("python", "mpmath", "mpmath_backend", "numpy", "nproc", "bench_sha256")
DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in DECLARED["end_to_end"]}


class StampMismatch(Exception):
    pass


def load(paths) -> list:
    results = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        results += [json.loads(f.read_text()) for f in files]
    return results


def environment(results) -> dict:
    envs = {json.dumps({k: r["stamp"].get(k) for k in ENV_KEYS}, sort_keys=True) for r in results}
    if len(envs) != 1:
        raise StampMismatch("results come from different environments: " + " | ".join(sorted(envs)))
    return json.loads(envs.pop())


def quartiles(values) -> dict:
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarise(results) -> dict:
    env = environment(results)
    doc = {"environment": env, "commits": sorted({str(r["stamp"]["commit"]) for r in results}),
           "workloads": {}}
    flags = []
    by_workload = defaultdict(list)
    for r in results:
        by_workload[r["workload"]].append(r)
        if not r["correct"]:
            flags.append(f"{r['workload']} seed {r['seed']}: {r['failed']} failed requests")
    for workload, runs in sorted(by_workload.items()):
        plain = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        entry = {"end_to_end": {}, "per_layer": {}, "share_of_traced_wall": {}}
        for name in BOUNDS:
            values = [r["metrics"][name]["value"] for r in plain if name in r["metrics"]]
            if values:
                entry["end_to_end"][name] = quartiles(values)
        if traced:
            for name in traced[0]["metrics"]:
                entry["per_layer"][name] = statistics.median(r["metrics"][name]["value"] for r in traced)
                if traced[0]["metrics"][name]["unit"] == "s":
                    entry["share_of_traced_wall"][name] = statistics.median(
                        r["metrics"][name]["value"]
                        / statistics.median(p["wall_s"] for p in r["passes"] if "layers" in p)
                        for r in traced)
        groups = defaultdict(list)
        for r in traced:
            groups[(r["stamp"]["source_sha256"], r["seed"])].append(r)
        for (_, seed), group in groups.items():
            for name in EXACT_COUNTERS:
                values = {r["metrics"][name]["value"] for r in group if name in r["metrics"]}
                if len(values) > 1:
                    flags.append(f"nondeterministic {name} on {workload} seed {seed}: {sorted(values)}")
        doc["workloads"][workload] = entry
    doc["flags"] = flags
    return doc


def print_summary(doc) -> None:
    print("environment", json.dumps(doc["environment"], sort_keys=True))
    for workload, entry in doc["workloads"].items():
        print(f"{workload}")
        for name, q in entry["end_to_end"].items():
            bound = BOUNDS[name]["bound"]
            note = "" if q["spread"] <= bound / 3 else (
                "  above bound/3" if q["spread"] <= bound else "  ABOVE BOUND")
            print(f"  {name:12s} n={q['n']:2d} median {q['median']:.6g}  "
                  f"q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  spread {q['spread']:.2%} "
                  f"(bound {bound:.0%}){note}")
        for name, share in sorted(entry["share_of_traced_wall"].items(), key=lambda kv: -kv[1]):
            if share >= 0.01:
                print(f"  {name:40s} {entry['per_layer'][name]:.6g} s  {share:6.1%} of traced wall")
    for flag in doc["flags"]:
        print(f"! {flag}")


def diff(base, new) -> int:
    """Per workload and end-to-end metric: median change against the bound."""
    environment(base + new)
    worse = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        print(workload)
        for name, decl in BOUNDS.items():
            b = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new
                 if r["workload"] == workload and name in r["metrics"]]
            if not b or not n:
                continue
            qb, qn = quartiles(b), quartiles(n)
            change = (qn["median"] - qb["median"]) / qb["median"]
            if decl["better"] == "higher":
                change = -change
            if qb["spread"] > decl["bound"] and not (max(n) < min(b) or min(n) > max(b)):
                verdict = "unresolved: parent spread exceeds the bound"
            elif change > decl["bound"]:
                verdict = "WORSE beyond bound"
                worse += 1
            else:
                verdict = "within bound" if change > 0 else "not worse"
            print(f"  {name:12s} parent {qb['median']:.6g} [{qb['q1']:.6g}, {qb['q3']:.6g}]  "
                  f"change {qn['median']:.6g} [{qn['q1']:.6g}, {qn['q3']:.6g}]  "
                  f"{change:+.2%} worse (bound {decl['bound']:.0%}): {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("summary")
    p.add_argument("--json", action="store_true", help="print the summary as JSON")
    p.add_argument("results", nargs="+")
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    try:
        if args.cmd == "diff":
            return diff(load([args.base]), load([args.new]))
        doc = summarise(load(args.results))
    except StampMismatch as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 2
    if args.json:
        print(json.dumps(doc, indent=1))
    else:
        print_summary(doc)
    return 1 if doc["flags"] else 0


if __name__ == "__main__":
    sys.exit(main())
