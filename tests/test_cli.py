"""End-to-end tests of the command-line interface: JSON contract, exit
codes, table output, and certificate files."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import nextprime

import ceresa
from ceresa import cli, heights, picard
from ceresa.arith import PRIMALITY_BOUND
from ceresa.cli import canonical_json, main
from ceresa.elliptic import INFINITY, CurvePoint, WeierstrassCurveQ, mul
from ceresa.ffcert import PRIME_LIMIT
from ceresa.heights import SCAN_B_LIMIT
from ceresa.picard import TORSION_ORDER_LIMIT


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert err == ""
    payload = out.strip()
    obj = json.loads(payload)
    # output is canonical: sorted keys, no whitespace
    assert payload == canonical_json(obj)
    return code, obj


# ---------------------------------------------------------------------------
# decide / decide-t

def test_decide_infinite(capsys):
    code, obj = _run_json(capsys, "decide", "--a", "1", "--b", "1")
    assert code == 0
    assert obj["status"] == "infinite"
    assert obj["a"] == "1" and obj["b"] == "1"
    assert obj["delta"] == "-48" and obj["j"] == "3/4"
    assert "q_order" not in obj
    assert "infinite order" in obj["evidence"]


def test_decide_torsion(capsys):
    code, obj = _run_json(capsys, "decide", "--a", "6", "--b", "-3")
    assert code == 0
    assert obj["status"] == "torsion" and obj["q_order"] == 3


def test_decide_isomorphic_inputs_identical_output(capsys):
    code1, out1, _ = _run(capsys, "decide", "--a", "1", "--b", "1")
    code2, out2, _ = _run(capsys, "decide", "--a", "64", "--b", "4096")
    code3, out3, _ = _run(capsys, "decide", "--a", "1/64", "--b", "1/4096")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3


def test_decide_degenerate_exits_2(capsys):
    code, obj = _run_json(capsys, "decide", "--a", "2", "--b", "1")
    assert code == 2
    assert "error" in obj


def test_decide_t(capsys):
    code, obj = _run_json(capsys, "decide-t", "--t", "3")
    assert code == 0
    assert obj["status"] == "torsion" and obj["q_order"] == 6
    code, obj = _run_json(capsys, "decide-t", "--t", "7/3")
    assert code == 0 and obj["status"] == "infinite"
    code, obj = _run_json(capsys, "decide-t", "--t", "1")
    assert code == 2 and "error" in obj
    # a negative fraction is joined to its option with "=": argparse reads a
    # separate "-1/2" as an option, not as the value of --t
    code, obj = _run_json(capsys, "decide-t", "--t=-1/2")
    assert code == 0 and obj["t"] == "-1/2"


@pytest.mark.parametrize("t,lines", [
    ("3", ["a: 6", "b: 1", "delta: 512",
           "evidence: marked point Q=(32, 192) on y^2 = x^3 + 4096 satisfies 6Q = O",
           "j: -8", "q_order: 6", "status: torsion", "t: 3"]),
    ("7/3", ["a: 14/3", "b: 1", "delta: 2560/9",
             "evidence: marked point Q=(160/9, 2240/27) on y^2 = x^3 + 102400/81 has "
             "6Q != O, and rational torsion of a j=0 curve is a subgroup of Z/6, so Q "
             "has infinite order",
             "j: -40/9", "status: infinite", "t: 7/3"]),
])
def test_decide_t_table(capsys, t, lines):
    """--table prints the canonical JSON's keys in their sorted order, and
    decide-t keeps the line's own model (a = 2t), not the canonical one."""
    code, out, err = _run(capsys, "decide-t", "--t", t, "--table")
    assert (code, err) == (0, "")
    assert out.splitlines() == lines


# ---------------------------------------------------------------------------
# certify / check-cert

def test_certify_and_check_roundtrip(capsys, tmp_path):
    cert_path = tmp_path / "cert.txt"
    code, obj = _run_json(capsys, "certify", "--a", "4", "--b", "1",
                          "--out", str(cert_path))
    assert code == 0
    assert (obj["v"], obj["ell"], obj["q"]) == (29, 5, 7)
    assert obj["sigma"] == "(4, 9)" and obj["sigma_order"] == 10
    assert obj["det_value"] == "44281396224/1977326743"
    assert obj["unit_mod_ell"] is True

    text = cert_path.read_text()
    assert text.splitlines()[0] == "ceresa-infinitude-certificate v1"
    assert len(text.splitlines()) == 9

    code, obj = _run_json(capsys, "check-cert", str(cert_path))
    assert code == 0
    assert obj == {"ok": True, "reason": "certificate verified"}


def test_check_cert_detects_tampering(capsys, tmp_path):
    cert_path = tmp_path / "cert.txt"
    assert _run(capsys, "certify", "--a", "4", "--b", "1",
                "--out", str(cert_path))[0] == 0
    tampered = cert_path.read_text().replace("sigma_order = 10",
                                             "sigma_order = 5")
    cert_path.write_text(tampered)
    code, obj = _run_json(capsys, "check-cert", str(cert_path))
    assert code == 4
    assert obj == {"ok": False, "reason": "sigma_order mismatch"}


def test_check_cert_unreadable_file(capsys, tmp_path):
    code, obj = _run_json(capsys, "check-cert", str(tmp_path / "missing.txt"))
    assert code == 2
    assert "cannot read certificate" in obj["error"]


def test_check_cert_non_utf8_file_names_the_path(capsys, tmp_path):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_bytes(b"\xffceresa-infinitude-certificate v1\n")
    code, obj = _run_json(capsys, "check-cert", str(cert_path))
    assert code == 2
    assert obj["error"].startswith("cannot read certificate: 'utf-8' codec can't decode")
    assert obj["error"].endswith(f": {str(cert_path)!r}")


def test_check_cert_table(capsys, tmp_path):
    """--table prints key: value lines, and an error goes to stderr, as for
    every other subcommand; the exit codes are those of JSON mode."""
    cert_path = tmp_path / "cert.txt"
    assert _run(capsys, "certify", "--a", "4", "--b", "1", "--out", str(cert_path))[0] == 0
    assert _run(capsys, "check-cert", str(cert_path), "--table") == (
        0, "ok: True\nreason: certificate verified\n", "")
    cert_path.write_text(cert_path.read_text().replace("sigma_order = 10", "sigma_order = 5"))
    assert _run(capsys, "check-cert", str(cert_path), "--table") == (
        4, "ok: False\nreason: sigma_order mismatch\n", "")
    code, out, err = _run(capsys, "check-cert", str(tmp_path / "missing.txt"), "--table")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read certificate: [Errno 2]")


def test_certify_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "cert.txt"
    code, obj = _run_json(capsys, "certify", "--a", "4", "--b", "1", "--out", str(target))
    assert code == 2
    assert str(target) in obj["error"]
    assert not target.exists()


def test_invalid_input_errors_are_value_errors():
    """Every exit-2 error of the library is a ValueError."""
    for cls in (ceresa.DegenerateCurve, ceresa.BadReduction, ceresa.InvalidHint):
        assert issubclass(cls, ValueError), cls


def test_certify_invalid_hint_exits_2(capsys):
    code, obj = _run_json(capsys, "certify", "--a", "4", "--b", "1", "--v", "4")
    assert code == 2 and obj["error"] == "v is not prime"


_ABOVE_LIMIT = int(nextprime(PRIME_LIMIT))


@pytest.mark.parametrize("argv,name", [
    (["count", "--a", "1", "--b", "1", "--p", str(_ABOVE_LIMIT)], "p"),
    (["count", "--a", "1", "--b", "1", "--p", str(_ABOVE_LIMIT), "--i", "3"], "p"),
    (["count", "--a", "1", "--b", "1", "--p", str(10**9 + 7)], "p"),
    (["lpoly", "--a", "1", "--b", "1", "--p", str(_ABOVE_LIMIT)], "p"),
    (["frobdet", "--a", "1", "--b", "1", "--q", str(_ABOVE_LIMIT), "--ell", "7"], "q"),
    (["certify", "--a", "4", "--b", "1", "--v", str(_ABOVE_LIMIT)], "v"),
    (["certify", "--a", "4", "--b", "1", "--q", str(_ABOVE_LIMIT)], "q"),
    (["certify", "--a", "4", "--b", "1", "--V-max", str(PRIME_LIMIT + 1)], "V_max"),
])
def test_primes_above_the_limit_exit_2(capsys, argv, name):
    start = time.monotonic()
    code, obj = _run_json(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert obj["error"].startswith(f"{name} = ")
    assert obj["error"].endswith(f"exceeds the prime limit {PRIME_LIMIT}")


@pytest.mark.parametrize("V_max", ["4", "0", "-5"])
def test_V_max_below_5_exits_2(capsys, V_max):
    # 2 and 3 divide 6 Delta, so a bound below 5 holds no good prime
    code, obj = _run_json(capsys, "certify", "--a", "4", "--b", "1", f"--V-max={V_max}")
    assert code == 2 and obj["error"] == "V_max must be >= 5"
    # also when every slot is pinned and nothing is searched
    code, obj = _run_json(capsys, "certify", "--a", "4", "--b", "1", "--v", "29", "--ell", "5",
                          "--q", "7", f"--V-max={V_max}")
    assert code == 2 and obj["error"] == "V_max must be >= 5"
    code, obj = _run_json(capsys, "certify", "--a", "4", "--b", "1", "--V-max", "5")
    assert code == 3 and obj["error"].startswith("no witness with v, q <= 5")


# the smallest strong pseudoprime to the bases 2 .. 37
_PSI_12 = 318665857834031151167461


@pytest.mark.parametrize("argv,error", [
    (["frobdet", "--a", "1", "--b", "1", "--q", "11", "--ell", str(_PSI_12)], "ell must be prime"),
    (["certify", "--a", "4", "--b", "1", "--ell", str(_PSI_12)], "ell is not prime"),
    (["frobdet", "--a", "1", "--b", "1", "--q", "11", "--ell", str(PRIMALITY_BOUND)],
     f"{PRIMALITY_BOUND} is too large to test for primality"),
    # the message names the flag at fault
    (["frobdet", "--a", "1", "--b", "1", "--q", "12", "--ell", "7"], "q must be prime"),
    (["height", "--d", "0", "--x", "0", "--y", "0"], "d must be nonzero"),
    # certify names the bound itself, as check-cert does, before any primality test
    (["certify", "--a", "4", "--b", "1", "--ell", str(PRIMALITY_BOUND)],
     "ell exceeds the primality bound"),
    # a p at the bound fails the primality test before the prime limit
    (["count", "--a", "1", "--b", "1", "--p", str(PRIMALITY_BOUND), "--i", "1"],
     f"{PRIMALITY_BOUND} is too large to test for primality"),
    (["lpoly", "--a", "1", "--b", "1", "--p", str(PRIMALITY_BOUND)],
     f"{PRIMALITY_BOUND} is too large to test for primality"),
])
def test_ell_beyond_bases_2_to_37_exits_2(capsys, argv, error):
    code, obj = _run_json(capsys, *argv)
    assert code == 2
    assert obj["error"].startswith(error)


@pytest.mark.parametrize("old,new,reason", [
    ("q = 7", f"q = {10**9 + 7}", "q exceeds the prime limit"),
    ("v = 29", f"v = {10**9 + 7}", "v exceeds the prime limit"),
    ("ell = 5", f"ell = {PRIMALITY_BOUND}", "ell exceeds the primality bound"),
])
def test_check_cert_rejects_large_primes_before_any_work(capsys, tmp_path, old, new, reason):
    cert_path = tmp_path / "cert.txt"
    assert _run(capsys, "certify", "--a", "4", "--b", "1",
                "--out", str(cert_path))[0] == 0
    cert_path.write_text(cert_path.read_text().replace(old, new))
    start = time.monotonic()
    code, obj = _run_json(capsys, "check-cert", str(cert_path))
    assert time.monotonic() - start < 1.0
    assert code == 4
    assert obj == {"ok": False, "reason": reason}


def test_certify_exhausted_search_exits_3(capsys):
    code, obj = _run_json(capsys, "certify", "--a", "0", "--b", "1",
                          "--V-max", "50")
    assert code == 3
    assert "does not prove torsion" in obj["error"]


# ---------------------------------------------------------------------------
# enumerate-torsion / height / scan

def test_enumerate_torsion(capsys):
    code, obj = _run_json(capsys, "enumerate-torsion", "--N-max", "4")
    assert code == 0
    by_order = {e["order"]: e["polynomials"] for e in obj["entries"]}
    assert by_order[2] == ["t"]
    assert by_order[3] == ["t^2 + 3"]
    assert by_order[4] == ["t^4 + 18*t^2 - 27"]


def test_enumerate_torsion_above_the_order_limit_exits_2(capsys, monkeypatch):
    def no_work(N_max):
        raise AssertionError("the limit is checked before any work")

    monkeypatch.setattr(picard, "_exact_order_division_polys", no_work)
    n = TORSION_ORDER_LIMIT + 1
    code, obj = _run_json(capsys, "enumerate-torsion", "--N-max", str(n))
    assert code == 2
    assert obj == {"error": f"N_max = {n} exceeds the torsion-order limit {TORSION_ORDER_LIMIT}"}


def test_enumerate_torsion_invariant_violation_exits_4(capsys, monkeypatch):
    # point arithmetic that takes every point for O, so every point has order 1
    monkeypatch.setattr(picard, "mul", lambda E, n, P: INFINITY)
    monkeypatch.setattr(picard, "order_fp", lambda E, P: 1)
    code, obj = _run_json(capsys, "enumerate-torsion", "--N-max", "4")
    assert code == 4
    assert obj["error"].startswith("torsion locus certification failed: root 0 of t mod 5")


def test_library_has_no_assert():
    """python -O strips assert statements, so every check in the library
    raises explicitly, and raises InvariantViolation (exit 4) rather than
    AssertionError (a traceback)."""
    for path in sorted(Path(ceresa.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or (isinstance(node, ast.Name) and node.id == "AssertionError")
        ]
        assert lines == [], f"{path.name}: assert or AssertionError on lines {lines}"


def test_height(capsys):
    code, obj = _run_json(capsys, "height", "--d", "36", "--x", "-3", "--y", "-3")
    assert code == 0
    assert abs(obj["value"] - 0.4998946622) < 1e-9
    assert obj["error_bound"] <= 1e-9
    # 30P, with a 196-digit root of den(x): den(x) is never factored
    hP = obj["value"]
    P30 = mul(WeierstrassCurveQ(Fraction(36)), 30, CurvePoint(Fraction(-3), Fraction(-3)))
    start = time.monotonic()
    code, obj = _run_json(capsys, "height", "--d", "36", f"--x={P30.x}", f"--y={P30.y}")
    assert time.monotonic() - start < 1.0
    assert code == 0 and abs(obj["value"] - 900 * hP) <= 900 * 1e-9
    # exact zero for torsion
    code, obj = _run_json(capsys, "height", "--d", "1", "--x", "2", "--y", "3")
    assert code == 0 and obj["value"] == 0.0 and obj["error_bound"] == 0.0
    # point not on curve
    code, obj = _run_json(capsys, "height", "--d", "1", "--x", "5", "--y", "5")
    assert code == 2 and "not on the curve" in obj["error"]
    # (-c, 0) is 2-torsion on y^2 = x^3 + c^3 even when c^3 is far beyond
    # float precision
    c = nextprime(10**20) * nextprime(10**21)
    code, obj = _run_json(capsys, "height", f"--d={c**3}", f"--x={-c}", "--y=0")
    assert code == 0 and obj["value"] == 0.0
    # ... and when c is the product of two 40-digit primes, which factoring
    # c^3 would not get through: torsion is decided by exact roots alone
    c = nextprime(10**39) * nextprime(2 * 10**39)
    start = time.monotonic()
    code, obj = _run_json(capsys, "height", f"--d={c**3}", f"--x={-c}", "--y=0")
    assert time.monotonic() - start < 1.0
    assert code == 0 and obj["value"] == 0.0 and obj["error_bound"] == 0.0


def test_scan(capsys):
    code, obj = _run_json(capsys, "scan", "--B", "4", "--bound", "0")
    assert code == 0
    assert [r["t"] for r in obj["rows"]] == ["-3", "0", "3"]
    assert all(r["status"] == "torsion" and r["value"] == 0.0
               for r in obj["rows"])
    assert {r["t"]: r["q_order"] for r in obj["rows"]} == {
        "-3": 6, "0": 2, "3": 6}


def test_scan_stdout_digest_pinned(capsys):
    """Every float bit of the heights reaches this output; the digest is
    that of the archimedean series in mpf operators (tests/height_oracle.py)."""
    code, out, err = _run(capsys, "scan", "--B", "12")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "748564d6d9fab03cd58fcf7fd1bc63fdea834dd9f929546b107df09e8d5d1703")


@pytest.mark.parametrize("bound", ["nan", "inf", "1e400", "-inf"])
def test_scan_non_finite_bound_exits_2(capsys, bound):
    code, obj = _run_json(capsys, "scan", "--B", "3", f"--bound={bound}")
    assert code == 2 and obj == {"error": "bound must be finite"}


def test_scan_above_the_box_limit_exits_2(capsys, monkeypatch):
    def no_work(c):
        raise AssertionError("the limit is checked before any work")

    monkeypatch.setattr(heights, "associated_curves", no_work)
    B = SCAN_B_LIMIT + 1
    code, obj = _run_json(capsys, "scan", "--B", str(B))
    assert code == 2 and obj == {"error": f"B = {B} exceeds the scan limit {SCAN_B_LIMIT}"}


def test_canonical_json_rejects_non_finite_floats():
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            canonical_json({"value": value})


# ---------------------------------------------------------------------------
# count / lpoly / frobdet

def test_count(capsys):
    code, obj = _run_json(capsys, "count", "--a", "1", "--b", "1",
                          "--p", "11", "--i", "2")
    assert code == 0
    assert obj["curve_count"] == 176
    code, obj = _run_json(capsys, "count", "--a", "1", "--b", "1", "--p", "3")
    assert code == 2
    code, obj = _run_json(capsys, "count", "--a", "1", "--b", "1", "--p", "9")
    assert code == 2 and obj["error"] == "p must be prime"
    code, obj = _run_json(capsys, "count", "--a", "1", "--b", "1", "--p", "0")
    assert code == 2 and obj["error"] == "p must be prime"
    # p first, then a and b mod p, then the degree
    for argv, error in [
        (["--p", "9"], "p must be prime"),
        (["--a=1/11", "--p", "11"], "denominator of 1/11 is not invertible mod 11"),
        (["--p", "1511"], "extension degree must be 1, 2, or 3"),
    ]:
        argv = ["count", "--a=1", "--b=1"] + argv + ["--i", "4"]
        assert _run_json(capsys, *argv) == (2, {"error": error}), argv


def test_lpoly(capsys):
    code, obj = _run_json(capsys, "lpoly", "--a", "1", "--b", "1", "--p", "11")
    assert code == 0
    assert obj["L_C"] == [1, 0, 27, 0, 297, 0, 1331]
    prod = [0] * 7
    for i, u in enumerate(obj["L_E"]):
        for j, v in enumerate(obj["L_P"]):
            prod[i + j] += u * v
    assert prod == obj["L_C"]


def test_frobdet(capsys):
    code, obj = _run_json(capsys, "frobdet", "--a", "1", "--b", "1",
                          "--q", "11", "--ell", "7")
    assert code == 0
    assert obj["det_untwisted"] == "29049104246323668435011663307177984"
    assert obj["det_value"] == "886754046541824/379749833583241"
    assert obj["unit_mod_ell"] is True


# ---------------------------------------------------------------------------
# output modes and usage errors

def test_table_output(capsys):
    code, out, err = _run(capsys, "decide", "--a", "1", "--b", "1", "--table")
    assert code == 0 and err == ""
    assert "status: infinite" in out
    assert "j: 3/4" in out
    code, out, err = _run(capsys, "scan", "--B", "2", "--table")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "t\tstatus\tq_order\tvalue\terror_bound",
        "-2\tinfinite\t-\t0.407347720283413\t1e-09",
        "-1/2\tinfinite\t-\t0.4998946621893968\t1e-09",
        "0\ttorsion\t2\t0.0\t0.0",
        "1/2\tinfinite\t-\t0.4998946621893968\t1e-09",
        "2\tinfinite\t-\t0.407347720283413\t1e-09",
    ]
    code, out, err = _run(capsys, "enumerate-torsion", "--N-max", "3", "--table")
    assert code == 0 and err == ""
    assert out.splitlines() == ["N=2: t", "N=3: t^2 + 3"]


def test_table_error_goes_to_stderr(capsys):
    code, out, err = _run(capsys, "decide", "--a", "2", "--b", "1", "--table")
    assert code == 2
    assert out == "" and "error:" in err


@pytest.mark.parametrize("argv,code", [
    (["scan", "--B", "4"], 0),
    (["scan", "--B", "4", "--table"], 0),
    (["decide", "--a", "2", "--b", "1"], 2),
    (["check-cert", "no-such-certificate.txt"], 2),
])
def test_closed_stdout_keeps_exit_code(tmp_path, argv, code):
    """A reader that goes away before the output (`| head -c 0`) gets no
    traceback on stderr, and the command's own exit code stands; so does a
    command started with no stdout at all (`>&-`)."""
    r, w = os.pipe()
    os.close(r)  # the read end is closed before the CLI writes
    src = str(Path(ceresa.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "ceresa.cli", *argv]
    try:
        proc = subprocess.run(cmd, stdout=w, stderr=subprocess.PIPE, cwd=tmp_path,
                              env=env, timeout=120)
    finally:
        os.close(w)
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr
    assert proc.returncode == code
    proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *cmd], stderr=subprocess.PIPE,
                          cwd=tmp_path, env=env, timeout=120)
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr
    assert proc.returncode == code


_SYMPY_FREE_SCRIPT = """
import sys
from ceresa.cli import main
cert = sys.argv[1]
for argv in (["certify", "--a", "4", "--b", "1", "--out", cert], ["check-cert", cert],
             ["lpoly", "--a", "1", "--b", "1", "--p", "151"],
             ["frobdet", "--a", "1", "--b", "1", "--q", "11", "--ell", "7"],
             ["decide", "--a", "1", "--b", "1"],
             ["decide", "--a", "0", "--b", "550000000000000000000381000000000000000000063"],
             ["height", "--d", "36", "--x", "-3", "--y", "-3"], ["scan", "--B", "12"],
             ["enumerate-torsion", "--N-max", "4"]):
    code = main(argv)
    print(argv[0], code, "sympy" in sys.modules, file=sys.stderr)
"""


def test_finite_field_commands_do_not_import_sympy(tmp_path):
    """The finite-field commands, decide (with b a 45-digit semiprime too),
    height and scan on small inputs finish without sympy in sys.modules:
    their integers factor by trial division alone.  The torsion locus, run
    last, still loads it."""
    src = str(Path(ceresa.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SYMPY_FREE_SCRIPT, str(tmp_path / "cert.txt")],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "certify 0 False", "check-cert 0 False", "lpoly 0 False", "frobdet 0 False",
        "decide 0 False", "decide 0 False", "height 0 False", "scan 0 False",
        "enumerate-torsion 0 True"]


def test_usage_errors_exit_64(capsys):
    assert _run(capsys, "decide", "--a", "1")[0] == 64  # missing --b
    assert _run(capsys, "decide", "--a", "1.5", "--b", "1")[0] == 64
    assert _run(capsys, "no-such-command")[0] == 64
    assert _run(capsys)[0] == 64
    _, _, err = _run(capsys, "decide", "--a", "0.1", "--b", "1")
    assert err.startswith("usage error:") and "0.1" in err


def test_version_exits_0(capsys):
    code, out, _ = _run(capsys, "--version")
    assert code == 0


def _files(root):
    return {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in root.rglob("*") if p.is_file()}


def _call_with_effects(capsys, root, argv):
    """Exit code, stdout, and the files the call created or changed."""
    before = _files(root)
    code = main(argv)
    out = capsys.readouterr().out
    after = _files(root)
    return code, out, sorted(str(p) for p, v in after.items() if before.get(p) != v)


_DECIDE = ["decide", "--a", "1", "--b", "1"]


@pytest.mark.parametrize("first,first_code,second", [
    (["certify", "--a", "4", "--b", "1", "--out", "{d}/f"], 0, ["certify", "--a", "4", "--b", "1"]),
    (_DECIDE + ["--table"], 0, _DECIDE),
    (["decide", "--a", "1"], 64, _DECIDE),
    (["--version"], 0, _DECIDE),
], ids=["out-file", "table", "usage-error", "version"])
def test_reused_parser_matches_a_fresh_one(capsys, tmp_path, first, first_code, second):
    """The parser is built once per process; a call after any other call
    prints and writes exactly what it does on a freshly built parser."""
    cli._build_parser.cache_clear()  # the first call below builds the parser
    assert main([arg.format(d=tmp_path) for arg in first]) == first_code
    capsys.readouterr()
    reused = _call_with_effects(capsys, tmp_path, second)
    cli._build_parser.cache_clear()
    fresh = _call_with_effects(capsys, tmp_path, second)
    assert reused == fresh
    assert reused[2] == []


def test_no_result_is_replayed_from_disk(capsys, tmp_path, monkeypatch):
    """Every verdict is computed: --cache-dir is a usage error, and an entry
    planted in the layout of the removed result cache (DIR/<sha256 of the
    key>.json, keyed on the canonical model), with a tampered verdict, is
    neither read nor rewritten when CERESA_CACHE_DIR names DIR."""
    decide = ["decide", "--a", "4", "--b", "1"]
    code, out, err = _run(capsys, *decide, "--cache-dir", str(tmp_path / "flag"))
    assert (code, out) == (64, "") and err.startswith("usage error:")
    code, uncached, _ = _run(capsys, *decide)
    assert code == 0 and json.loads(uncached)["status"] == "infinite"
    key = canonical_json({"tool_version": ceresa.__version__, "command": "decide",
                          "params": {"a": 4, "b": 1}})
    tampered = {**json.loads(uncached), "status": "torsion", "q_order": 3}
    cache = tmp_path / "cc"
    cache.mkdir()
    (cache / (hashlib.sha256(key.encode()).hexdigest() + ".json")).write_text(json.dumps(
        {"tool_version": ceresa.__version__, "key": key, "value": canonical_json(tampered)}))
    monkeypatch.setenv("CERESA_CACHE_DIR", str(cache))
    monkeypatch.chdir(tmp_path)
    assert _call_with_effects(capsys, tmp_path, decide) == (0, uncached, [])


def test_cache_dir_keeps_the_first_error_of_an_invalid_input(capsys):
    """Delta = 0 and a non-prime ell: frobdet reports ell first."""
    argv = ["frobdet", "--a", "0", "--b", "0", "--q", "11", "--ell", "4"]
    assert _run(capsys, *argv) == (2, canonical_json({"error": "ell must be prime"}) + "\n", "")
