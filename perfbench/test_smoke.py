"""Smoke tests of the pipeline benchmark: every workload at tiny size.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_gates_and_reports_every_metric(workload, trace):
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    # smoke mode sweeps only L = 2, 3
    missing = {n for n in declared if n not in reported}
    assert all(n.startswith(("sweep.L4.", "sweep.L5.")) for n in missing), missing
    assert set(reported) <= set(declared)
    assert all(reported[n] == declared[n] for n in reported)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


# a reference far above the measured RMSE, and one far below it
@pytest.mark.parametrize("reference", [1e-3, 1e-16])
def test_failed_gate_makes_the_run_incorrect_and_nonzero(monkeypatch, capsys, reference):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import bench
    import run

    wrong = replace(bench.SMOKE["z5-rollout"], ref_rmse=(reference,) * 5)
    monkeypatch.setitem(bench.SMOKE, "z5-rollout", wrong)
    code = run.main(["--workload", "z5-rollout", "--seconds", "0.5", "--smoke"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert json.loads(out[-1])["correct"] is False
    assert any(line.startswith("GATE FAILED: forecast rmse") for line in out)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "k4-paper", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path,
                         script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
