"""Checks of the benchmark itself.

    python3 -m pytest perfbench      # several minutes: every workload runs 3 times

Every metric of BENCHMARK.json must come out with its unit, no operation may
fail, and the counts a later change may cite must repeat exactly between two
traced runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_COUNTS = (
    "pde.steps",
    "pde.cell_updates",
    "blowup_ode.steps",
    "bounds.cells",
    "artifacts.bytes_written",
)


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_metrics_and_counts(workload):
    plain = bench(workload, 0)
    traced = [bench(workload, 1), bench(workload, 1)]
    declared_by_run = [(plain, SPEC["end_to_end"])] + [(t, SPEC["per_layer"]) for t in traced]
    for result, declared in declared_by_run:
        assert result["correct"] and result["failed"] == 0, result
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in declared}
    first, second = (t["metrics"] for t in traced)
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    if workload == "pde-sweep":
        assert first["pde.threads"]["value"] > 1
    if workload == "pde-refine":
        assert first["pde.threads"]["value"] == 1
        assert first["pde.wait_s"]["value"] < 0.05 * first["pde.busy_s"]["value"]


def test_checks_reject_wrong_answers(tmp_path):
    (tmp_path / "map.csv").write_text("axis1,axis2,label,best_exponent\n")
    (tmp_path / "map.svg").write_text("<svg/>\n")
    assert workloads._check_map("fig1")({}, tmp_path, {})

    run = {"blew_up": True, "termination": "threshold", "T_num": 37.0,
           "checks": {"support": True, "holder": True, "f_monotone": True}}
    assert workloads._check_pde_run(run, tmp_path, {}) == []
    assert workloads._check_pde_run({**run, "termination": "horizon"}, tmp_path, {})
    assert workloads._check_pde_run(
        {**run, "checks": {**run["checks"], "holder": False}}, tmp_path, {})
    ctx = {}
    workloads._check_pde_run(run, tmp_path, ctx)
    assert workloads._check_pde_run({**run, "T_num": 30.0}, tmp_path, ctx)

    sweep = {"T_values": [40.0, 30.0, 20.0, 10.0], "relative_deviation": 0.1, "slope": -1.1}
    assert workloads._check_pde_sweep(sweep, tmp_path, {}) == []
    assert workloads._check_pde_sweep({**sweep, "T_values": [40.0, 41.0, 20.0, 10.0]},
                                      tmp_path, {})
    assert workloads._check_pde_sweep({**sweep, "relative_deviation": 0.31}, tmp_path, {})

    ode = {**sweep, "r_squared": 0.995, "kato_envelope_ok": True}
    assert workloads._check_ode_heatlike(ode, tmp_path, {}) == []
    assert workloads._check_ode_heatlike({**ode, "relative_deviation": 0.21}, tmp_path, {})
    assert workloads._check_ode_heatlike({**ode, "r_squared": 0.98}, tmp_path, {})


def test_seed_zero_is_the_presets_and_other_seeds_move_only_eps():
    assert [argv for argv, _ in workloads.commands("pde-sweep", 0)] == [["pde", "sweep"]]
    assert workloads.commands("phase-maps", 7)[0][0] == ["map", "--preset", "fig1"]
    argv = workloads.commands("pde-sweep", 7)[0][0]
    assert argv[:2] == ["pde", "sweep"] and argv[2::2] == ["--eps_start", "--eps_stop"]
    assert abs(float(argv[3]) / 0.05 - 1.0) <= 0.021
    assert argv == workloads.commands("pde-sweep", 7)[0][0]
