"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They run reduced-size (``--smoke``) workload processes, so the whole
file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402

SMOKE_LIMIT_S = 30.0


def run_workload(*args: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workload.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=layers.WORKLOADS)
def smoke(request):
    """(workload, untraced result, traced result, untraced seconds)."""
    start = time.monotonic()
    # Seed 0: its one-seed failures scenario takes CPUs offline mid-run.
    plain = run_workload("--workload", request.param, "--seed", "0", "--smoke")
    elapsed = time.monotonic() - start
    traced = run_workload("--workload", request.param, "--seed", "0", "--smoke", "--trace")
    return request.param, plain, traced, elapsed


def test_smoke_run_is_quick_and_correct(smoke):
    _, plain, traced, elapsed = smoke
    assert elapsed < SMOKE_LIMIT_S
    for result in (plain, traced):
        assert result["failures"] == []
        assert result["artifact_failures"] == []
        assert result["cells"] == len(result["cell_digests"]) > 0


def test_traced_run_reproduces_untraced_digests(smoke):
    _, plain, traced, _ = smoke
    assert traced["cell_digests"] == plain["cell_digests"]
    assert traced["artifact_digest"] == plain["artifact_digest"]


def test_layer_calls_follow_the_predictions(smoke):
    workload, _, traced, _ = smoke
    snapshot = traced["layers"]
    for target in layers.TARGETS:
        calls = snapshot[f"{target.metric}.calls"]
        if workload in target.moves_on:
            assert calls > 0, f"{target.metric} never called on {workload}"
        elif target.layer in layers.ZERO_OFF_WORKLOAD:
            assert calls == 0, f"{target.metric} called {calls} times on {workload}"


def test_default_seed_matches_reference_digests():
    result = run_workload("--workload", "opensys-traced", "--seed", "0")
    assert result["reference"] is True
    assert result["failures"] == []
    assert result["artifact_failures"] == []


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == layers.per_layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "penalty", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
