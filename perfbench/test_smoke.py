"""Smoke run of the benchmark: metric names and units, and where the seed goes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced at seed 1 and once traced at seed 2 (one
repetition each), which takes about a minute and a half on two cores.
"""

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED_OF_MODE = {0: 1, 1: 2}


@lru_cache(maxsize=None)
def run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(SEED_OF_MODE[trace]), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def printed(lines: list[str], name: str) -> float:
    return next(float(line.split()[1]) for line in lines if line.startswith(name + " "))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    lines, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == named
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    shown = {key: any(line.startswith(key + " ") for line in lines) for key in ("torus_gap", "sphere_gap")}
    assert any(line.startswith("checks_failed ") for line in lines)
    assert shown == {"torus_gap": workload != "sphere-deep", "sphere_gap": workload != "torus-wide"}


def test_seed_reaches_the_torus_estimator():
    untraced, _ = run("torus-wide", 0)
    traced, _ = run("torus-wide", 1)
    assert printed(untraced, "torus_gap") != printed(traced, "torus_gap")


def test_seed_leaves_the_sphere_side_alone():
    untraced, _ = run("sphere-deep", 0)
    traced, _ = run("sphere-deep", 1)
    assert printed(untraced, "sphere_gap") == printed(traced, "sphere_gap")
