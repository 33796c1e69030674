"""Smoke tests for the benchmark itself: ``python -m pytest perfbench``.

Every workload runs at tiny sizes, traced and untraced, and must print the
metrics BENCHMARK.json names, with their units, as its last line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402


def _run(cwd, workload, trace, *extra):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), *extra]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_recorded_seeds_carry_the_seed_state_check(tmp_path):
    """A full-size bundle that starts off a multiple of 4 still checks each
    instance against reference.json, and a reference above the solver's
    optimum fails its instance."""
    reference = json.loads((HERE / "reference.json").read_text())["unitdiag_bm"]
    raised = dict(reference, **{"2": {"objective": 1.01 * reference["2"]["objective"]}})
    wl = workloads.make("unitdiag_bm")
    unit = wl.run_unit(1, wl.setup(), spans.NullTracer(), tmp_path, raised)
    checks = {r["seed"]: r["checks"]["ge_seed_state"] for r in unit["instance_records"]}
    assert checks == {1: True, 2: False, 3: True, 4: True}
    assert unit["failed"] == 1


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    with tracer.span("outer", "i"):
        with tracer.span("inner", "i"):
            pass
    (outer,) = tracer.self_times("outer")
    inner = tracer.durations()["inner"][0]
    assert outer == pytest.approx(tracer.durations()["outer"][0] - inner)
    assert tracer.to_list()[1]["parent"] == 0
