"""One fresh benchmark process: import the CLI, run a pass of requests, report.

perfbench/run.py starts this file with a JSON spec as its only argument:

    {"src": <dir holding the unclosed package>, "spawned": <time.monotonic()
     just before the process was started>, "requests": [[argv...], ...],
     "trace": <bool>}

An empty request list measures set-up only.  The CLI's stdout and stderr are
captured per request; the process prints one JSON document on its own stdout
when the pass ends.  CLOCK_MONOTONIC, behind time.monotonic, is shared by all
processes on Linux, so set-up time counts interpreter start-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    import unclosed.cli as cli

    setup_s = time.monotonic() - spec["spawned"]
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"unclosed was imported from {cli.__file__}, not from {src}\n")
        return 2

    recorder = None
    if spec["trace"]:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    requests = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for rid, argv in enumerate(spec["requests"]):
        out, err = io.StringIO(), io.StringIO()
        close = recorder.request_span(rid, f"cli.{argv[0]}") if recorder else None
        start = time.perf_counter()
        rc, error = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except (Exception, SystemExit):  # a failed request is counted, never fatal
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if close:
            close()
        requests.append({"argv": argv, "rc": rc, "error": error, "elapsed": elapsed,
                         "stdout": out.getvalue()})
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import mpmath
    import numpy

    from unclosed.qseries import required_digits

    eval_s = [a[a.index("--s") + 1] for a in spec["requests"] if a[0] == "eval"]
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "max_req_s": max((r["elapsed"] for r in requests), default=0.0),
        "peak_rss_mb": peak_rss_mb,
        "requests": requests,
        "required_digits": {s: required_digits(s) for s in eval_s},
        "env": {
            "python": sys.version.split()[0],
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__,
        },
    }
    if recorder is not None:
        recorder.stdout_bytes = sum(len(r["stdout"].encode("utf-8")) for r in requests)
        result["layers"] = tracing.layer_metrics(recorder, required_digits)
        result["spans"] = recorder.spans
        result["missing_targets"] = recorder.missing
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
