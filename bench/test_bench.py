"""Self-test of the benchmark harness, at the smallest workload sizes.

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads
from tracer import NAMES
from workloads import WORKLOADS


def _pins() -> dict:
    with open(run.PINS, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def test_every_workload_passes_its_checks_at_smallest_size():
    for w in WORKLOADS:
        r = run.measure(w, seed=1, seconds=0, trace=False, size="smoke")
        assert r["correct"], (w, r["messages"])
        assert r["attempted"] > 0 and r["failed"] == 0
        assert r["unpinned_calls"] == 0
        assert list(r["metrics"]) == [name for name, _ in run.END_TO_END]
        assert all(m["value"] > 0 for m in r["metrics"].values()), w


def test_wrong_pinned_digest_is_reported_as_a_failure():
    pins = _pins()
    pins["decide-t --t=0"] = "0" * 16
    r = run.measure("tline_certify", seed=0, seconds=0, trace=False, size="smoke", pins=pins)
    assert not r["correct"]
    assert r["failed"] == r["rounds"]  # the t = 0 unit, once per round
    assert any("decide-t --t=0" in m for m in r["messages"])


def test_failed_check_makes_the_command_exit_nonzero(tmp_path, monkeypatch, capsys):
    pins = _pins()
    pins["enumerate-torsion --N-max=4"] = "0" * 16
    path = tmp_path / "pins.json"
    path.write_text(json.dumps({"digests": pins}))
    monkeypatch.setattr(run, "PINS", str(path))
    monkeypatch.setattr(run, "plan", lambda w, seed, size="full": workloads.plan(w, seed, "smoke"))
    assert run.main(["--workload", "torsion_locus", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False and last["failed"] == last["attempted"] > 0


def test_traced_run_reports_every_layer_metric_with_repeatable_counts():
    first = run.measure("tline_certify", seed=2, seconds=0, trace=True, size="smoke")
    again = run.measure("tline_certify", seed=2, seconds=0, trace=True, size="smoke")
    assert first["correct"], first["messages"]
    m = {name: v["value"] for name, v in first["metrics"].items()}
    assert list(m) == [name for name, _ in run.PER_LAYER]
    calls = {name: v for name, v in m.items() if name.endswith(".calls")}
    assert calls == {name: again["metrics"][name]["value"] for name in calls}
    # functions bound by name in other modules are traced there too:
    # frobenius_det reaches det_bareiss through ffcert's own binding
    assert m["ffcert.frobenius_det.calls"] > 0
    assert m["arith.det_bareiss.calls"] == 4 * m["ffcert.frobenius_det.calls"]
    assert m["cli.main.calls"] > 0 and m["heights.canonical_height.calls"] == 0
    assert m["ffcert.lift_sum_per_cert"] >= 1 and m["ffcert.frobenius_det_per_cert"] >= 1
    for name in NAMES:
        assert 0 <= m[f"{name}.self_s"] <= m[f"{name}.busy_s"] + 1e-9, name


def test_traced_lpoly_and_locus_layers():
    lp = {n: v["value"] for n, v in
          run.measure("lpoly_sweep", seed=0, seconds=0, trace=True, size="smoke")["metrics"].items()}
    assert lp["ffcert.lpoly.calls"] == 4  # primes 5, 7, 11, 13
    assert lp["ffcert.count_curve_per_lpoly"] == 3
    assert lp["ffcert.lpoly_key_repeat_share"] == 0
    tl = {n: v["value"] for n, v in
          run.measure("torsion_locus", seed=0, seconds=0, trace=True, size="smoke")["metrics"].items()}
    assert tl["sympy.factor_list.calls"] == 3  # orders 2, 3, 4
    assert tl["ffcert.lpoly.calls"] == 0 and tl["heights.canonical_height.calls"] == 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "height_scan", "--seconds", "1"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
