"""Smoke test of the benchmark: every workload at a tiny size.

Checks that each run is correct, prints every metric the manifest names
with its unit, gives identical exact counts on two traced runs, and that
the benchmark refuses to run without the program next to it.

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in MANIFEST["workloads"]]


def run(*args: str, cwd: Path = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170, env=env)


def numpy_installed() -> bool:
    try:
        return importlib.util.find_spec("numpy") is not None
    except ImportError:  # a meta-path finder may veto the lookup outright
        return False


def bench(workload: str, trace: int) -> dict:
    if workload == "baseline-numpy" and not numpy_installed():
        pytest.skip("baseline-numpy measures the numpy tier")
    completed = run("--workload", workload, "--seed", "1", "--seconds", "2",
                    "--trace", str(trace), "--size", "tiny")
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])["provenance"]
    return {"result": result, "provenance": provenance}


def expect_metrics(result: dict, kind: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in MANIFEST[kind]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == declared
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    run_ = bench(workload, 0)
    expect_metrics(run_["result"], "end_to_end")
    for name, value in run_["result"]["metrics"].items():
        assert value["value"] > 0, name
    provenance = run_["provenance"]
    for key in ("nproc", "python", "numpy", "commit", "seed", "poll_interval_s"):
        assert key in provenance


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_every_per_layer_metric_with_stable_counts(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    expect_metrics(first["result"], "per_layer")
    expect_metrics(second["result"], "per_layer")
    counts = first["provenance"]["exact_counts"]
    assert counts == second["provenance"]["exact_counts"]
    assert any(counts.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "2",
                    "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_refuses_the_numpy_workload_without_numpy(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(
        "import sys\n"
        "class _BlockNumpy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' or name.startswith('numpy.'):\n"
        "            raise ImportError('numpy blocked')\n"
        "sys.meta_path.insert(0, _BlockNumpy())\n")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    completed = run("--workload", "baseline-numpy", "--seed", "1", "--seconds", "2",
                    "--trace", "0", "--size", "tiny", env=env)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
    assert "numpy" in completed.stderr
