"""Regenerate bench/pins.json: the digest of the canonical-JSON stdout of
every invocation the workloads can make, at every seed and size.

    python3 bench/make_pins.py

Run it only when a change is meant to alter the CLI's output, and say so in
that change: the benchmark fails every unit whose output differs from its
pin.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import ceresa  # noqa: E402
import ceresa.cli  # noqa: E402
from workloads import LPOLY_CURVES, SIZES, WORKLOADS, argv_key, digest, plan, run_unit  # noqa: E402


def main() -> int:
    digests = {}

    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = ceresa.cli.main(argv)
        out = buf.getvalue()
        digests[argv_key(argv)] = digest(out)
        return argv, rc, out

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    cert_path = os.path.join(ROOT, ".bench_out", "pin-cert.txt")
    for workload in WORKLOADS:
        for size in SIZES[workload]:
            # seed 0 in canonical order covers every t of the box; for lpoly
            # widen the plan to the whole curve pool
            passes = plan(workload, 0, size)
            if workload == "lpoly_sweep":
                primes = [u["p"] for u in passes[0]]
                passes = [[{"a": a, "b": b, "p": p} for p in primes] for a, b in LPOLY_CURVES]
            for units in passes:
                for unit in units:
                    run_unit(workload, unit, call, cert_path)
    if os.path.exists(cert_path):
        os.remove(cert_path)
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump({"ceresa_version": ceresa.__version__, "digests": dict(sorted(digests.items()))},
                  fh, indent=0)
        fh.write("\n")
    print(f"pinned {len(digests)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
