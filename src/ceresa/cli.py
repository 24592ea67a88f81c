"""Command-line front end.

Subcommands: decide, decide-t, certify, enumerate-torsion, height, scan,
count, lpoly, frobdet, check-cert.  Curve parameters are parsed as exact
rationals only ("m" or "m/n"); heights are the sole floating outputs and
carry explicit error bounds.  Output is canonical JSON by default
(--table for humans).  Results can be cached in a directory given by
CERESA_CACHE_DIR or --cache-dir; isomorphic inputs share cache entries
because keys use the canonical model.  certify and check-cert are never
cached: a stored certificate would have to be re-proved before it is
trusted, which costs as much as the search.

Exit codes: 0 success; 2 invalid or degenerate input (Delta = 0, bad
reduction, malformed point, a prime above ffcert.PRIME_LIMIT, an order
above picard.TORSION_ORDER_LIMIT, an integer at or above
arith.PRIMALITY_BOUND where a prime is expected, a non-finite scan bound)
or a file that cannot be read or written (--out, the cache directory, a
certificate); 3 certificate search exhausted; 4 internal
consistency failure (failed certificate check, a violated invariant); 64
usage error.  A closed stdout (a reader such as `head` that exits early)
leaves the code unchanged and prints no traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .arith import InvariantViolation, parse_rational, rat_str
from .elliptic import CurvePoint, WeierstrassCurveQ, on_curve
from .heights import canonical_height, northcott_scan
from .picard import (
    DegenerateCurve,
    PicardCurve,
    canonical_model,
    decide_ceresa,
    decide_ceresa_t,
    enumerate_torsion_locus,
    invariants,
)
from . import ffcert
from .ffcert import (
    BadReduction,
    InvalidHint,
    NoCertificateFound,
    certificate_fields,
    certificate_text,
    certify_infinite,
    count_curve,
    frobenius_det,
    lpoly,
    rat_mod_p,
)

class UsageError(Exception):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass
class CliConfig:
    command: str
    parameters: dict
    cache_path: str | None
    output: str  # "json" | "table"
    out_file: str | None = None


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
    # isomorphic inputs give identical output (and share cache entries):
    # reduce to the canonical model first; the verdict is invariant
    ca, cb = canonical_model(params["a"], params["b"])
    curve = PicardCurve(Fraction(ca), Fraction(cb))
    return _decide_payload(curve, decide_ceresa(curve))


def _cmd_decide_t(params: dict) -> dict:
    # the line (2t, 1) itself, not its canonical model: a = 2t in the output
    t = params["t"]
    verdict = decide_ceresa_t(t)
    return dict(_decide_payload(PicardCurve(2 * t, Fraction(1)), verdict), t=rat_str(t))


def _cmd_certify(params: dict) -> dict:
    ca, cb = canonical_model(params["a"], params["b"])
    cert = certify_infinite(
        Fraction(ca), Fraction(cb),
        v=params.get("v"), ell=params.get("ell"), q=params.get("q"),
        V_max=params["V_max"],
    )
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


def _count_coefficients(params: dict) -> tuple[int, int]:
    """(a mod p, b mod p) for `count`."""
    p = params["p"]
    return rat_mod_p(params["a"], p), rat_mod_p(params["b"], p)


def _cmd_count(params: dict) -> dict:
    p, i = params["p"], params["i"]
    a, b = _count_coefficients(params)
    rec = count_curve(a, b, p, i)
    return {"a": a, "b": b, "p": p, "i": i, "curve_count": rec.curve_count}


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
            text = fh.read()
    except OSError as e:
        raise ValueError(f"cannot read certificate: {e}") from None
    except UnicodeDecodeError as e:
        raise ValueError(f"cannot read certificate: {e}: {path!r}") from None
    ok, reason = ffcert.validate_certificate(text)
    return {"ok": ok, "reason": reason}


_COMMANDS = {
    "decide": _cmd_decide,
    "decide-t": _cmd_decide_t,
    "certify": _cmd_certify,
    "enumerate-torsion": _cmd_enumerate,
    "height": _cmd_height,
    "scan": _cmd_scan,
    "count": _cmd_count,
    "lpoly": _cmd_lpoly,
    "frobdet": _cmd_frobdet,
    "check-cert": _cmd_check_cert,
}


# ---------------------------------------------------------------------------
# cache

def _cache_key(config: CliConfig) -> str | None:
    params = dict(config.parameters)
    try:
        if config.command == "count":
            # the computation lives over F_p: key on the reduced coefficients
            params["a"], params["b"] = _count_coefficients(params)
        elif "a" in params and "b" in params:
            # isomorphic inputs share entries: replace (a, b) by the canonical model
            params["a"], params["b"] = canonical_model(params["a"], params["b"])
        for k, val in params.items():
            if isinstance(val, Fraction):
                params[k] = rat_str(val)
        return canonical_json(
            {"tool_version": __version__, "command": config.command, "params": params})
    except (DegenerateCurve, ValueError):
        return None  # no key (Delta = 0, a non-prime p, a non-finite bound): run uncached


def _cache_lookup(cache_dir: str, key: str) -> str | None:
    path = os.path.join(cache_dir, hashlib.sha256(key.encode()).hexdigest() + ".json")
    # anything but a readable entry of this version and key whose value is a
    # JSON object is corrupt, and is recomputed
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        if (entry["tool_version"] == __version__ and entry["key"] == key
                and isinstance(json.loads(entry["value"]), dict)):
            return entry["value"]
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return None


def _cache_store(cache_dir: str, key: str, value: str):
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, hashlib.sha256(key.encode()).hexdigest() + ".json")
    entry = {"tool_version": __version__, "key": key, "value": value}
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# output + dispatch

def _print_table(result: dict, stream):
    def fmt(v):
        return json.dumps(v) if isinstance(v, (dict, list)) else str(v)

    if "rows" in result:
        rows = result["rows"]
        cols = ["t", "status", "q_order", "value", "error_bound"]
        print("\t".join(cols), file=stream)
        for r in rows:
            print("\t".join(str(r.get(c, "-")) for c in cols), file=stream)
    elif "entries" in result:
        for e in result["entries"]:
            polys = "; ".join(e["polynomials"]) or "(none)"
            print(f"N={e['order']}: {polys}", file=stream)
    else:
        for k, v in result.items():
            print(f"{k}: {fmt(v)}", file=stream)


def _render(config: CliConfig, payload: str) -> str:
    """The stdout text of a result payload.  A --table payload of the wrong
    shape raises AttributeError, KeyError or TypeError."""
    if config.output == "json":
        return payload + "\n"
    table = io.StringIO()
    _print_table(json.loads(payload), table)
    return table.getvalue()


def run(config: CliConfig) -> int:
    """Dispatch a parsed command; prints the result and returns the exit code."""
    cache_dir = config.cache_path
    text = None
    try:
        # certify and check-cert are never cached: a stored certificate is
        # worth nothing until re-proved, and a key cannot see a file's contents
        cached = cache_dir is not None and config.command not in ("certify", "check-cert")
        key = _cache_key(config) if cached else None
        payload = None if key is None else _cache_lookup(cache_dir, key)
        if payload is not None:
            try:
                text = _render(config, payload)
            except (AttributeError, KeyError, TypeError):
                pass  # a corrupt entry: recomputed and overwritten below
        if text is None:
            result = _COMMANDS[config.command](config.parameters)
            payload = canonical_json(result)
            text = _render(config, payload)
            if key is not None:
                _cache_store(cache_dir, key, payload)
            if config.out_file is not None:  # certify --out
                with open(config.out_file, "w", encoding="utf-8") as fh:
                    fh.write(certificate_text(result))
    except (DegenerateCurve, BadReduction, InvalidHint, ValueError, OSError) as e:
        return _fail(config, str(e), 2)
    except NoCertificateFound as e:
        return _fail(config, str(e), 3)
    except InvariantViolation as e:
        return _fail(config, str(e), 4)
    # a certificate that fails a check is reported on stdout, with exit 4
    failed_check = config.command == "check-cert" and not json.loads(payload)["ok"]
    return _emit(text, 4 if failed_check else 0)


def _fail(config: CliConfig, message: str, code: int) -> int:
    if config.output == "json":
        return _emit(canonical_json({"error": message}) + "\n", code)
    print(f"error: {message}", file=sys.stderr)
    return code


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

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--table", action="store_true",
                        help="human-readable output instead of JSON")
        sp.add_argument("--cache-dir", default=None,
                        help="cache directory (CERESA_CACHE_DIR overrides)")
        return sp

    sp = add("decide", "torsion/infinite verdict for the curve (a, b)")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)

    sp = add("decide-t", "verdict on the line (a, b) = (2t, 1)")
    sp.add_argument("--t", required=True)

    sp = add("certify", "search or validate an infinite-order certificate")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--v", type=int, default=None)
    sp.add_argument("--ell", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--V-max", dest="V_max", type=int, default=200)
    sp.add_argument("--out", default=None, help="write the certificate text here")

    sp = add("enumerate-torsion", "minimal polynomials of torsion parameters t")
    sp.add_argument("--N-max", dest="N_max", type=int, required=True)

    sp = add("height", "canonical height of (x, y) on y^2 = x^3 + d")
    sp.add_argument("--d", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)

    sp = add("scan", "heights over the t-line for |num|, den <= B")
    sp.add_argument("--B", type=int, required=True)
    sp.add_argument("--bound", type=float, default=None,
                    help="only report rows with height <= bound")

    sp = add("count", "number of points of the curve over F_{p^i}")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--i", type=int, default=1)

    sp = add("lpoly", "L-polynomial of the curve at p with its factorization")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = add("frobdet", "det(Fr_q - 1) on V, exactly")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)

    sp = add("check-cert", "re-validate a certificate file")
    sp.add_argument("path")

    return parser


def _config_from_args(args) -> CliConfig:
    params: dict = {}
    rationals = {"a", "b", "t", "d", "x", "y"}
    for name, value in vars(args).items():
        if name in ("command", "table", "cache_dir", "out") or value is None:
            continue
        params[name] = parse_rational(value) if name in rationals else value
    cache_dir = os.environ.get("CERESA_CACHE_DIR") or args.cache_dir
    return CliConfig(
        command=args.command,
        parameters=params,
        cache_path=cache_dir,
        output="table" if args.table else "json",
        out_file=getattr(args, "out", None),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
    except (UsageError, ValueError) as e:  # ValueError: a malformed rational
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
