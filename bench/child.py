"""One pass of a workload in a fresh interpreter, started by bench/run.py.

Reads the job (JSON) from stdin, runs each timed unit through
`ceresa.cli.main(argv)` in-process with stdout captured, then checks the
outputs and writes one JSON result to stdout.  Set-up time runs from the
parent's spawn to the end of the imports below (ceresa, sympy, mpmath): the
cost every CLI invocation pays before its first item.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import ceresa.cli
import mpmath  # noqa: F401  (imported by ceresa.heights; listed for the set-up cost)
import sympy  # noqa: F401  (imported lazily by ceresa.arith.factorize)

import workloads

T_READY = time.monotonic()


def call(argv: list[str]) -> tuple:
    if "--cache-dir" in argv or any(a.startswith("--cache-dir=") for a in argv):
        raise ValueError("the benchmark must not use a cache directory")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = ceresa.cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = None
    return argv, rc, buf.getvalue()


def main() -> int:
    job = json.load(sys.stdin)
    setup_s = T_READY - job["t_spawn"]
    if "CERESA_CACHE_DIR" in os.environ:
        raise SystemExit("CERESA_CACHE_DIR is set: disk replays would fake speed")
    if not os.path.abspath(ceresa.__file__).startswith(job["src"] + os.sep):
        raise SystemExit(f"imported ceresa from {ceresa.__file__}, not {job['src']}")
    workload = job["workload"]

    tracer = None
    if job["trace"]:
        from tracer import Tracer, aggregate, span_lines
        tracer = Tracer()
        tracer.install()

    timed = []
    t0_pass = time.perf_counter()
    for i, unit in enumerate(job["units"]):
        cert_path = os.path.join(job["workdir"], f"cert-{i}.txt")
        if tracer:
            tracer.item, tracer.active = i, True
        t0 = time.perf_counter()
        calls = workloads.run_unit(workload, unit, call, cert_path)
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        timed.append((unit, calls, seconds, cert_path))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    units = []
    for unit, calls, seconds, cert_path in timed:
        try:
            failed, messages, exhausted = workloads.check_unit(
                workload, unit, calls, call, cert_path, ceresa.ffcert.validate_certificate)
        except Exception as e:  # malformed output: the unit fails, the pass goes on
            failed, messages, exhausted = workloads.n_items(workload, unit), [repr(e)], 0
        if os.path.exists(cert_path):
            os.remove(cert_path)
        units.append({
            "seconds": seconds,
            "items": workloads.n_items(workload, unit),
            "failed": failed,
            "exhausted": exhausted,
            "messages": messages,
            "calls": [[workloads.argv_key(argv), rc, workloads.digest(out)] for argv, rc, out in calls],
        })

    result = {"setup_s": setup_s, "rss_mb": rss_mb, "units": units, "trace": None}
    if tracer:
        result["trace"] = aggregate(tracer.spans)
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            for line in span_lines(tracer.spans, t0_pass):
                fh.write(json.dumps(line) + "\n")
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
