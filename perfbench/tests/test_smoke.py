"""Smoke test of the benchmark at reduced sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def _run(*args: str, script: str = RUN) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, script, *args], capture_output=True, text=True, timeout=600)


def test_smoke_every_workload_passes_its_checks():
    proc = _run("--all", "--smoke", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("certify-large", "search-grid", "crosscheck-small", "transform-deep"):
        assert f"{name}: ok" in proc.stdout


def test_result_line_carries_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", "crosscheck-small", "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in bench[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "search-grid", "--seed", "0", "--seconds", "1", "--trace", "0",
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
