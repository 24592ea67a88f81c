"""The four benchmark workloads.

For each workload this module says how a seed becomes the passes of one
round (the harness runs every pass in a fresh interpreter), how the child
interpreter runs one timed unit through `ceresa.cli.main`, and which output
checks hold for every seed.  Each workload carries most of the work of some
layer and skips at least one other layer:

- tline_certify: `decide-t` for every t of a box on the t-line, then
  `certify` for the infinite ones.  Finite-field search: lift sums, lpoly,
  the Frobenius determinant; lpoly calls repeat (a mod p, b mod p, p) keys
  across curves.  No heights, no torsion locus.
- lpoly_sweep: `lpoly` at every prime 5 <= p <= P for a few curves whose
  keys never repeat.  The count layer at larger p, without the search or
  the determinant.
- torsion_locus: `enumerate-torsion`; the picard locus pipeline and sympy
  factoring.  No ffcert, no heights.
- height_scan: `scan`; canonical heights over Q plus the verdicts.  No
  finite-field certification.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("tline_certify", "lpoly_sweep", "torsion_locus", "height_scan")

# "full" is what the benchmark runs; "smoke" is the smallest size, for the
# harness's own tests.  tline_certify: box bound B; lpoly_sweep: (curves
# per round, prime bound P); torsion_locus: N_max; height_scan: B.
SIZES = {
    "tline_certify": {"full": 16, "smoke": 3},
    "lpoly_sweep": {"full": (4, 37), "smoke": (1, 13)},
    "torsion_locus": {"full": 16, "smoke": 4},
    "height_scan": {"full": 20, "smoke": 3},
}

# (a, b) with good reduction at every prime 5 <= p <= 37 and pairwise
# distinct (a mod p, b mod p) at each of them, so no lpoly key repeats
LPOLY_CURVES = ((1, 1), (-28, 2), (-30, 24), (28, 18), (-5, -18), (25, -12), (-6, -32), (9, -24))
LPOLY_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

TLINE_PASSES = 2
TORSION_T = {Fraction(0), Fraction(3), Fraction(-3)}
LOCUS_LOW_ORDERS = {2: ["t"], 3: ["t^2 + 3"]}


def t_box(B: int) -> list[Fraction]:
    """t = m/n in lowest terms with max(|m|, n) <= B and t != ±1, ascending
    (the parameters `scan --B` reports)."""
    return sorted(
        Fraction(m, n)
        for n in range(1, B + 1)
        for m in range(-B, B + 1)
        if math.gcd(abs(m), n) == 1 and abs(Fraction(m, n)) != 1
    )


def plan(workload: str, seed: int, size: str = "full") -> list[list[dict]]:
    """The passes of one round.  Seed 0 keeps the canonical order; another
    seed shuffles the t-box into passes, or picks the lpoly curves."""
    n = SIZES[workload][size]
    rng = random.Random(seed)
    if workload == "tline_certify":
        ts = t_box(n)
        if seed:
            rng.shuffle(ts)
        k = math.ceil(len(ts) / TLINE_PASSES)
        return [[{"t": str(t)} for t in ts[i:i + k]] for i in range(0, len(ts), k)]
    if workload == "lpoly_sweep":
        n_curves, bound = n
        curves = LPOLY_CURVES[:n_curves] if seed == 0 else rng.sample(LPOLY_CURVES, n_curves)
        return [[{"a": a, "b": b, "p": p} for p in LPOLY_PRIMES if p <= bound]
                for a, b in curves]
    if workload == "torsion_locus":
        return [[{"N_max": n}]]
    if workload == "height_scan":
        return [[{"B": n}]]
    raise KeyError(workload)


def n_items(workload: str, unit: dict) -> int:
    """Items a timed unit completes: a t, a (curve, p) pair, an order N, a
    scanned t."""
    if workload == "torsion_locus":
        return unit["N_max"] - 1
    if workload == "height_scan":
        return len(t_box(unit["B"]))
    return 1


def argv_key(argv: list[str]) -> str:
    """The invocation with `--out <file>` dropped: the key of its pinned digest."""
    out = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--out":
            skip = True
        else:
            out.append(arg)
    return " ".join(out)


def digest(stdout: str) -> str:
    """The pinned form of an invocation's stdout: 16 hex digits of its sha256."""
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# child side: `call(argv)` runs `ceresa.cli.main(argv)` and returns
# (argv, exit code, stdout text)

def run_unit(workload: str, unit: dict, call, cert_path: str) -> list[tuple]:
    """The CLI invocations of one timed unit.  Rationals are passed as
    `--a=-2/3`: argparse would read `--a -2/3` as an option."""
    if workload == "tline_certify":
        t = Fraction(unit["t"])
        calls = [call(["decide-t", f"--t={t}"])]
        if calls[0][1] == 0 and json.loads(calls[0][2])["status"] == "infinite":
            calls.append(call(["certify", f"--a={2 * t}", "--b=1", "--out", cert_path]))
        return calls
    if workload == "lpoly_sweep":
        return [call(["lpoly", f"--a={unit['a']}", f"--b={unit['b']}", f"--p={unit['p']}"])]
    if workload == "torsion_locus":
        return [call(["enumerate-torsion", f"--N-max={unit['N_max']}"])]
    if workload == "height_scan":
        return [call(["scan", f"--B={unit['B']}"])]
    raise KeyError(workload)


def check_unit(workload: str, unit: dict, calls: list[tuple], call, cert_path: str,
               validate_certificate) -> tuple[int, list[str], int]:
    """Seed-independent output checks, run after the timed region.  Returns
    (failed items, messages, exhausted certificate searches)."""
    whole = n_items(workload, unit)
    bad_rc = [f"{argv_key(argv)}: exit {rc}" for argv, rc, _ in calls
              if not (rc == 0 or (rc == 3 and argv[0] == "certify"))]
    if bad_rc:
        return whole, bad_rc, 0
    outs = [json.loads(out) for _, _, out in calls]

    if workload == "tline_certify":
        if outs[0]["status"] not in ("torsion", "infinite"):
            return 1, [f"t={unit['t']}: status {outs[0]['status']!r}"], 0
        if len(calls) == 1 or calls[1][1] == 3:
            return 0, [], len(calls) - 1
        with open(cert_path, encoding="utf-8") as fh:
            ok, reason = validate_certificate(fh.read())
        return (0, [], 0) if ok else (1, [f"t={unit['t']}: certificate: {reason}"], 0)

    if workload == "lpoly_sweep":
        a, b, p = unit["a"], unit["b"], unit["p"]
        rec = outs[0]
        L_C, L_E, L_P = rec["L_C"], rec["L_E"], rec["L_P"]
        product = [sum(L_E[i] * L_P[k - i] for i in range(3) if 0 <= k - i <= 4) for k in range(7)]
        _, rc, out = call(["count", f"--a={a}", f"--b={b}", f"--p={p}", "--i=1"])
        msgs = []
        if sum(L_C) <= 0:
            msgs.append("L_C(1) <= 0")
        if any(L_C[6 - k] != p ** (3 - k) * L_C[k] for k in range(4)):
            msgs.append("functional equation fails")
        if product != L_C:
            msgs.append("L_C != L_E * L_P")
        if rc != 0 or json.loads(out)["curve_count"] != p + 1 + L_C[1]:
            msgs.append("p + 1 - a_1 != #C(F_p)")
        return (1 if msgs else 0), [f"lpoly ({a}, {b}) at {p}: {m}" for m in msgs], 0

    if workload == "torsion_locus":
        entries = {e["order"]: e["polynomials"] for e in outs[0]["entries"]}
        if sorted(entries) != list(range(2, unit["N_max"] + 1)):
            return whole, [f"orders {sorted(entries)}"], 0
        msgs = [f"order {n}: {entries[n]}" for n, want in LOCUS_LOW_ORDERS.items()
                if n in entries and entries[n] != want]
        return len(msgs), msgs, 0

    if workload == "height_scan":
        rows = outs[0]["rows"]
        if [Fraction(r["t"]) for r in rows] != t_box(unit["B"]):
            return whole, ["scan rows are not the t-box"], 0
        msgs = [f"t={r['t']}: {r['status']}, height {r['value']}" for r in rows
                if (r["status"] == "torsion") != (Fraction(r["t"]) in TORSION_T)
                or (r["value"] == 0.0) != (r["status"] == "torsion")]
        return len(msgs), msgs, 0
    raise KeyError(workload)
