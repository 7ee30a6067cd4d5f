"""Smoke test of the benchmark itself: every workload at its smallest size.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
It checks that each run is correct and that every metric BENCHMARK.json
names, and every metric of the workload's full report, appears with a unit.
It asserts nothing about timings.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The full report of each workload, beyond the gated metrics.
REPORTED = {
    "desk_pipeline": {"train_s", "generate_samples_per_s", "load_mb_per_s", "nn_infer_ms_p50",
                      "bcd_gain_over_uniform", "nn_gain_over_uniform"},
    "toy_oracle": {"brute_solve_s_p50", "bcd_over_brute_median"},
}
COMMON = {"setup_s", "wall_s", "wall_ref", "peak_rss_mb", "failed_frac", "bcd_solve_ms_p50",
          "bcd_solve_ms_tail", "bcd_iter_ms_p50", "bcd_iter_ms_tail"}


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(REPORTED)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(REPORTED))
def test_smallest_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))

    report = json.loads((ROOT / ".perfbench_results" /
                         f"{workload}-seed0-trace{trace}.json").read_text())
    assert report["environment"]["seed"] == 0
    names = set(report["metrics"])
    if not trace:
        assert COMMON | REPORTED[workload] <= names
    for name in names:
        assert report["metrics"][name]["unit"]
