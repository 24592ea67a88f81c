"""ceresa benchmark harness.

    python3 bench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Drives the public CLI entry point `ceresa.cli.main(argv)` from the sources in
`src/` of this checkout.  A closed loop in one thread runs one pass at a time:
each pass is a fresh interpreter with cold in-process caches (the lru_caches
on `_lpoly_cached`, `_group_order_fp` and `is_prime` never carry over), no
cache directory, and its timed units run back to back with stdout captured.
A round is the seed's passes once over; rounds repeat while the time left
allows another, and a run has at least two.  Every round of a run does the
same work from cold, so each timed unit's time is its best over the rounds:
on a shared machine, interference from other tenants only ever adds time.

`--trace 0` reports the end-to-end metrics of bench/README.md; `--trace 1`
runs untraced and traced rounds in alternation and reports the per-layer
metrics.  Every output is checked (seed-independent invariants, plus the
digests pinned in bench/pins.json); the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  Exit code 0
when every check passes, 1 when an output check fails, 2 when the benchmark
cannot run at all (for instance, no `src/ceresa` in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
PINS = os.path.join(HERE, "pins.json")
CHILD_TIMEOUT_S = 170
MIN_ROUNDS = 2

sys.path.insert(0, HERE)
from tracer import NAMES  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
RATIOS = (
    ("ffcert.lift_sum_per_cert", "ratio"),
    ("ffcert.frobenius_det_per_cert", "ratio"),
    ("ffcert.count_curve_per_lpoly", "ratio"),
    ("ffcert.lpoly_key_repeat_share", "ratio"),
    ("ffcert.certify_infinite.exhausted", "count"),
    ("trace_overhead_frac", "ratio"),
)
PER_LAYER = tuple(
    (f"{name}.{field}", unit)
    for name in NAMES
    for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
) + RATIOS


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout;
    "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload: str, units: list[dict], trace: bool, workdir: str, spans_path: str) -> dict:
    """One pass in a fresh interpreter; returns the child's JSON result."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    job = {"workload": workload, "units": units, "trace": trace, "src": SRC,
           "workdir": workdir, "spans_path": spans_path}
    job["t_spawn"] = time.monotonic()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")], cwd=ROOT, env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise HarnessError(f"{workload} pass exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"{workload} pass exited {proc.returncode}")
    try:
        return json.loads(out)
    except ValueError:
        raise HarnessError(f"{workload} pass printed no result") from None


def _check_pins(passes: list[dict], pins: dict) -> int:
    """Fail each unit whose output differs from its pinned digest; returns
    the number of calls that have no pin."""
    unpinned = 0
    for res in passes:
        for unit in res["units"]:
            for key, _rc, digest in unit["calls"]:
                want = pins.get(key)
                if want is None:
                    unpinned += 1
                elif want != digest:
                    unit["failed"] = unit["items"]
                    unit["messages"].append(f"{key}: output digest {digest} != pinned {want}")
    return unpinned


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile that leaves at least 10 samples above it, and
    its label.  Below 22 samples that percentile would not lie above the
    median, so the median stands in."""
    s = sorted(samples)
    n = len(s)
    if n < 22:
        return statistics.median(s), f"p50 of {n} (fewer than 22)"
    return s[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def _round_stats(passes: list[dict]) -> dict:
    units = [u for res in passes for u in res["units"]]
    return {"items": sum(u["items"] for u in units),
            "item_seconds": sum(u["seconds"] for u in units),
            "failed": sum(u["failed"] for u in units),
            "exhausted": sum(u["exhausted"] for u in units)}


def best_times(rounds: list[list[dict]]) -> list[float]:
    """Each timed unit's best time over rounds that ran the same units."""
    per_round = [[u["seconds"] for res in r for u in res["units"]] for r in rounds]
    return [min(ts) for ts in zip(*per_round)]


def _layer_metrics(traced: list[list[dict]], plain: list[list[dict]]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced rounds: call counts (which must
    repeat exactly), median busy and self time, the ratios and the tracing
    overhead."""
    per_round = []
    for passes in traced:
        totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in NAMES}
        repeats = certs = exhausted = 0
        for res in passes:
            tr = res["trace"]
            for name, rec in tr["functions"].items():
                for field in rec:
                    totals[name][field] += rec[field]
            keys = [tuple(k) for k in tr["lpoly_keys"]]
            repeats += len(keys) - len(set(keys))
            exhausted += tr["exhausted"]
            certs += sum(1 for u in res["units"] for key, rc, _ in u["calls"]
                         if key.startswith("certify ") and rc == 0)
        per_round.append((totals, repeats, certs, exhausted))

    messages = []
    counts = [{name: t[name]["calls"] for name in NAMES} for t, *_ in per_round]
    if any(c != counts[0] for c in counts):
        messages.append("call counts differ between traced rounds of the same seed")
    _, repeats, certs, exhausted = per_round[0]
    calls = counts[0]

    def share(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = calls[name]
        for field in ("busy_s", "self_s"):
            metrics[f"{name}.{field}"] = statistics.median(t[name][field] for t, *_ in per_round)
    metrics["ffcert.lift_sum_per_cert"] = share(calls["ffcert.lift_sum"], certs)
    metrics["ffcert.frobenius_det_per_cert"] = share(calls["ffcert.frobenius_det"], certs)
    metrics["ffcert.count_curve_per_lpoly"] = share(calls["ffcert.count_curve"], calls["ffcert.lpoly"])
    metrics["ffcert.lpoly_key_repeat_share"] = share(repeats, calls["ffcert.lpoly"])
    metrics["ffcert.certify_infinite.exhausted"] = exhausted
    metrics["trace_overhead_frac"] = sum(best_times(traced)) / sum(best_times(plain)) - 1
    return metrics, messages


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            pins: dict | None = None) -> dict:
    """Run one workload for about `seconds` and summarise it."""
    if pins is None:
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)["digests"]
    rundir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    passes = plan(workload, seed, size)

    def one_round(k: int, traced: bool) -> list[dict]:
        return [run_pass(workload, units, traced, rundir, os.path.join(rundir, f"spans-r{k}-p{j}.jsonl"))
                for j, units in enumerate(passes)]

    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    deadline = time.monotonic() + seconds
    k = 0
    while True:
        t0 = time.monotonic()
        if trace:
            # alternate which side runs first, so drift hits both alike
            for side in ((False, True) if k % 2 == 0 else (True, False)):
                (traced if side else plain).append(one_round(k, side))
        else:
            plain.append(one_round(k, False))
        k += 1
        now = time.monotonic()
        if (trace or k >= MIN_ROUNDS) and now + (now - t0) > deadline:
            break

    rounds = plain + traced
    unpinned = sum(_check_pins(r, pins) for r in rounds)
    stats = [_round_stats(r) for r in rounds]
    all_passes = [res for r in plain for res in r]
    latencies = best_times(plain)
    tail_s, tail_label = tail(latencies)
    messages = [m for r in rounds for res in r for u in res["units"] for m in u["messages"]]

    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": environment(),
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "passes_per_round": len(passes),
        "units": len(latencies),
        "tail": tail_label,
        "attempted": sum(s["items"] for s in stats),
        "failed": sum(s["failed"] for s in stats),
        "exhausted": sum(s["exhausted"] for s in stats),
        "unpinned_calls": unpinned,
        "round_stats": stats,
    }
    if trace:
        metrics, harness_msgs = _layer_metrics(traced, plain)
        messages += harness_msgs
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(res["setup_s"] for res in all_passes),
            "items_per_s": stats[0]["items"] / sum(latencies),
            "item_p50_ms": 1000 * statistics.median(latencies),
            "item_tail_ms": 1000 * tail_s,
            "peak_rss_mb": statistics.median(res["rss_mb"] for res in all_passes),
        }
        units = dict(END_TO_END)
    summary["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    summary["messages"] = messages
    summary["correct"] = summary["failed"] == 0 and not messages
    with open(os.path.join(rundir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def _report(results: list[dict]):
    env = results[0]["environment"]
    print(f"ceresa benchmark: python {env['python']}, commit {env['commit']}, "
          f"nproc {env['nproc']} ({env['cpus_usable']} usable), closed loop, 1 client")
    names = list(results[0]["metrics"])
    if not results[0]["trace"]:
        header = ["workload"] + [f"{n}[{u}]" for n, u in END_TO_END] + ["failed_frac", "exhausted", "rounds", "tail"]
        print("  ".join(header))
        for r in results:
            row = [r["workload"]] + [f"{r['metrics'][n]['value']:.4g}" for n in names]
            row += [f"{r['failed']}/{r['attempted']}", str(r["exhausted"]), str(r["rounds"]), r["tail"]]
            print("  ".join(row))
    else:
        for r in results:
            print(f"{r['workload']}: {r['traced_rounds']} traced rounds, "
                  f"failed {r['failed']}/{r['attempted']}")
            for n in names:
                m = r["metrics"][n]
                print(f"  {n} = {m['value']:.6g} {m['unit']}")
    for r in results:
        if r["unpinned_calls"]:
            print(f"{r['workload']}: {r['unpinned_calls']} calls have no pinned digest")
        for m in r["messages"][:20]:
            print(f"{r['workload']}: CHECK FAILED: {m}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ceresa", "cli.py")):
        print(f"error: no ceresa sources under {SRC}", file=sys.stderr)
        return 2
    if "CERESA_CACHE_DIR" in os.environ:
        print("error: CERESA_CACHE_DIR is set; cache replays would fake speed", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _report(results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results for n, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
