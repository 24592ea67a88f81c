"""Command-line front end.

Subcommands: decide, decide-t, certify, enumerate-torsion, height, scan,
count, lpoly, frobdet, check-cert.  Curve parameters are parsed as exact
rationals only ("m" or "m/n"); heights are the sole floating outputs and
carry explicit error bounds.  Output is canonical JSON by default
(--table for humans, with the keys in the JSON's sorted order).  Every
result is computed on each call; nothing is stored between calls.

main(argv) returns the exit code and never raises: 0 success; 2 invalid
or degenerate input (Delta = 0, bad reduction, malformed point, a prime
above ffcert.PRIME_LIMIT, an order above picard.TORSION_ORDER_LIMIT, an
integer at or above arith.PRIMALITY_BOUND where a prime is expected, a
non-finite scan bound), raised as a ValueError (DegenerateCurve,
BadReduction and InvalidHint subclass it), or a file that cannot be read
or written (--out, a certificate, one longer than CERT_SIZE_LIMIT); 3
certificate search exhausted; 4 internal consistency failure (failed
certificate check, a violated invariant); 64 usage error.  A closed
stdout (a reader such as `head` that exits early) leaves the code
unchanged and prints no traceback."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .arith import InvariantViolation, parse_rational, rat_str
from .elliptic import CurvePoint, WeierstrassCurveQ, on_curve
from .heights import canonical_height, northcott_scan
from .picard import (
    PicardCurve,
    canonical_model,
    decide_ceresa,
    enumerate_torsion_locus,
    invariants,
)
from . import ffcert
from .ffcert import (
    NoCertificateFound,
    certificate_fields,
    certificate_text,
    certify_infinite,
    count_curve,
    frobenius_det,
    lpoly,
)

class UsageError(Exception):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


# A certificate whose fields parse is under 80 KB (a header line and eight
# fields, each number capped by Python's int-string limit); check-cert
# reads no more than this
CERT_SIZE_LIMIT = 1 << 20  # characters


# ---------------------------------------------------------------------------
# command implementations, each returning a JSON-ready dict

def _decide_payload(curve: PicardCurve, verdict) -> dict:
    """The fields of `decide` for curve and its verdict."""
    inv = invariants(curve)
    out = {"a": rat_str(curve.a), "b": rat_str(curve.b), "delta": rat_str(inv.delta),
           "j": rat_str(inv.j), "status": verdict.status, "evidence": verdict.evidence}
    if verdict.q_order is not None:
        out["q_order"] = verdict.q_order
    return out


def _cmd_decide(params: dict) -> dict:
    # isomorphic inputs give identical output: reduce to the canonical
    # model first; the verdict is invariant
    curve = PicardCurve(*canonical_model(params["a"], params["b"]))
    return _decide_payload(curve, decide_ceresa(curve))


def _cmd_decide_t(params: dict) -> dict:
    # the line (2t, 1) itself, not its canonical model: a = 2t in the output
    t = params["t"]
    curve = PicardCurve(2 * t, Fraction(1))
    return dict(_decide_payload(curve, decide_ceresa(curve)), t=rat_str(t))


def _cmd_certify(params: dict) -> dict:
    cert = certify_infinite(*canonical_model(params["a"], params["b"]), v=params.get("v"),
                            ell=params.get("ell"), q=params.get("q"), V_max=params["V_max"])
    out = certificate_fields(cert)
    out.update(
        lift_set_size=cert.lift.lift_set_size,
        unit_mod_ell=cert.det.unit_mod_ell,
        evidence=cert.evidence,
    )
    return out


def _cmd_enumerate(params: dict) -> dict:
    entries = enumerate_torsion_locus(params["N_max"])
    return {
        "N_max": params["N_max"],
        "entries": [
            {
                "order": e.order,
                "polynomials": [p.to_str("t") for p in e.t_minimal_polynomials],
            }
            for e in entries
        ],
    }


def _cmd_height(params: dict) -> dict:
    d, x, y = params["d"], params["x"], params["y"]
    E = WeierstrassCurveQ(d)
    P = CurvePoint(x, y)
    if not on_curve(E, P):
        raise ValueError("point is not on the curve")
    h = canonical_height(E, P)
    return {
        "d": rat_str(d),
        "x": rat_str(x),
        "y": rat_str(y),
        "value": h.value,
        "error_bound": h.error_bound,
    }


def _cmd_scan(params: dict) -> dict:
    bound = params.get("bound")  # a given bound goes into the JSON output
    if bound is not None and not math.isfinite(bound):
        raise ValueError("bound must be finite")
    rows = northcott_scan(params["B"], math.inf if bound is None else bound)
    out_rows = []
    for row in rows:
        r = {
            "t": rat_str(row.t),
            "status": row.verdict.status,
            "value": row.height.value,
            "error_bound": row.height.error_bound,
        }
        if row.verdict.q_order is not None:
            r["q_order"] = row.verdict.q_order
        out_rows.append(r)
    result = {"B": params["B"], "rows": out_rows}
    if bound is not None:
        result["bound"] = bound
    return result


def _cmd_count(params: dict) -> dict:
    rec = count_curve(params["a"], params["b"], params["p"], params["i"])
    return {"a": rec.a, "b": rec.b, "p": rec.p, "i": rec.i, "curve_count": rec.curve_count}


def _cmd_lpoly(params: dict) -> dict:
    rec = lpoly(params["a"], params["b"], params["p"])
    return {
        "p": rec.p,
        "L_C": list(rec.L_C.coefficients),
        "L_E": list(rec.L_E.coefficients),
        "L_P": list(rec.L_P.coefficients),
    }


def _cmd_frobdet(params: dict) -> dict:
    rec = frobenius_det(params["a"], params["b"], params["q"], params["ell"])
    return {
        "q": rec.q,
        "ell": rec.ell,
        "det_value": rat_str(rec.det_value),
        "det_untwisted": str(rec.det_untwisted),
        "unit_mod_ell": rec.unit_mod_ell,
    }


def _cmd_check_cert(params: dict) -> dict:
    """Re-validate a serialized certificate file; "ok" is false (exit 4)
    if any check fails."""
    path = params["path"]
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(CERT_SIZE_LIMIT + 1)
    except OSError as e:
        raise ValueError(f"cannot read certificate: {e}") from None
    except UnicodeDecodeError as e:
        raise ValueError(f"cannot read certificate: {e}: {path!r}") from None
    if len(text) > CERT_SIZE_LIMIT:
        raise ValueError(f"cannot read certificate: more than {CERT_SIZE_LIMIT} "
                         f"characters: {path!r}")
    ok, reason = ffcert.validate_certificate(text)
    return {"ok": ok, "reason": reason}


# ---------------------------------------------------------------------------
# output + dispatch

def _table(result: dict) -> str:
    """The --table text of a result: its keys in the JSON's sorted order."""
    if "rows" in result:
        cols = ["t", "status", "q_order", "value", "error_bound"]
        lines = ["\t".join(cols)]
        lines += ["\t".join(str(r.get(c, "-")) for c in cols) for r in result["rows"]]
    elif "entries" in result:
        lines = [f"N={e['order']}: {'; '.join(e['polynomials']) or '(none)'}"
                 for e in result["entries"]]
    else:
        lines = [f"{k}: {json.dumps(v) if isinstance(v, (dict, list)) else v}"
                 for k, v in sorted(result.items())]
    return "".join(line + "\n" for line in lines)


def _run(handler, params: dict, table: bool, out: str | None) -> int:
    """Compute, render and print one command's result; returns the exit code."""
    try:
        result = handler(params)
        text = _table(result) if table else canonical_json(result) + "\n"
        if out is not None:  # certify --out
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(certificate_text(result))
    except (ValueError, OSError) as e:
        error, code = str(e), 2
    except NoCertificateFound as e:
        error, code = str(e), 3
    except InvariantViolation as e:
        error, code = str(e), 4
    else:
        # a certificate that fails a check is reported on stdout, with exit 4
        return _emit(text, 4 if handler is _cmd_check_cert and not result["ok"] else 0)
    if table:
        print(f"error: {error}", file=sys.stderr)
        return code
    return _emit(canonical_json({"error": error}) + "\n", code)


def _emit(text: str, code: int) -> int:
    """Write text to stdout and return code.  If the reader closed the
    pipe early (`| head`), the command still ends quietly with code: stdout
    is pointed at os.devnull, so the flush at interpreter shutdown cannot
    fail again and print "Exception ignored"."""
    try:
        print(text, end="", flush=True)  # a no-op when there is no stdout at all
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built on first use and shared by every later main()
    call: parse_args returns a fresh Namespace each time, and every
    default is immutable."""
    parser = _Parser(prog="ceresa", description=(
        "Decide torsion of the Ceresa cycle for bielliptic Picard curves "
        "y^3 = x^4 + ax^2 + b, and produce machine-checkable certificates."
    ))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--table", action="store_true",
                        help="human-readable output instead of JSON")
        sp.set_defaults(run=handler)
        return sp

    sp = add("decide", "torsion/infinite verdict for the curve (a, b)", _cmd_decide)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)

    sp = add("decide-t", "verdict on the line (a, b) = (2t, 1)", _cmd_decide_t)
    sp.add_argument("--t", required=True)

    sp = add("certify", "search or validate an infinite-order certificate", _cmd_certify)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--v", type=int, default=None)
    sp.add_argument("--ell", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--V-max", dest="V_max", type=int, default=200)
    sp.add_argument("--out", default=None, help="write the certificate text here")

    sp = add("enumerate-torsion", "minimal polynomials of torsion parameters t", _cmd_enumerate)
    sp.add_argument("--N-max", dest="N_max", type=int, required=True)

    sp = add("height", "canonical height of (x, y) on y^2 = x^3 + d", _cmd_height)
    sp.add_argument("--d", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)

    sp = add("scan", "heights over the t-line for |num|, den <= B", _cmd_scan)
    sp.add_argument("--B", type=int, required=True)
    sp.add_argument("--bound", type=float, default=None,
                    help="only report rows with height <= bound")

    sp = add("count", "number of points of the curve over F_{p^i}", _cmd_count)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--i", type=int, default=1)

    sp = add("lpoly", "L-polynomial of the curve at p with its factorization", _cmd_lpoly)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = add("frobdet", "det(Fr_q - 1) on V, exactly", _cmd_frobdet)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)

    sp = add("check-cert", "re-validate a certificate file", _cmd_check_cert)
    sp.add_argument("path")

    return parser


def main(argv=None) -> int:
    """Run one command line; returns its exit code (0, 2, 3, 4 or 64)."""
    try:
        params = vars(_build_parser().parse_args(argv))
        handler, table, out = params.pop("run"), params.pop("table"), params.pop("out", None)
        for name in ("a", "b", "t", "d", "x", "y"):
            if name in params:
                params[name] = parse_rational(params[name])
    except (UsageError, ValueError) as e:  # ValueError: a malformed rational
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    return _run(handler, params, table, out)


if __name__ == "__main__":
    sys.exit(main())
