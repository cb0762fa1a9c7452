"""Tests of the benchmark itself, on shortened workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import caden.engine
import caden.losses
import measure
import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts the traced run must repeat exactly.
EXACT = [
    name
    for name, unit in tracer.PER_LAYER_UNITS.items()
    if unit in ("count", "calls/solve", "calls/row", "agents/round")
]


def _short(name: str, rounds: int = 6, target: float = math.inf):
    w = WORKLOADS[name]
    return dataclasses.replace(w, config={**w.config, "rounds": rounds}, target=target, instances=1)


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]}.items() <= {
        name: w.why for name, w in WORKLOADS.items()
    }.items()
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == measure.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name, tmp_path):
    calls = measure.run_untraced(_short(name), seed=0, seconds=0.0, out_dir=tmp_path)
    assert [c.failure for c in calls] == [None, None]  # the instance and its repeat
    values, samples = measure.end_to_end(calls)
    result = json.loads(measure.result_line(calls, values, measure.E2E_UNITS))
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == measure.E2E_UNITS
    assert set(samples) == set(measure.E2E_UNITS) | set(measure.PRINTED_ONLY_UNITS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    runs = []
    for _ in range(2):
        calls, t, overhead = measure.run_traced(_short(name), seed=1, out_dir=tmp_path)
        assert [c.failure for c in calls] == [None] * 2 * measure.MIN_TRACED_PAIRS
        runs.append(measure.per_layer(t, overhead))
    assert set(runs[0]) == set(tracer.PER_LAYER_UNITS)
    assert {k: runs[0][k] for k in EXACT} == {k: runs[1][k] for k in EXACT}
    assert runs[0]["losses.grad_calls"] > 0


def test_wrappers_are_restored(tmp_path):
    before = [owner.__dict__[attr] for _, owner, attr in tracer.TRACED]
    measure.run_traced(_short("mlp_ring", rounds=2), seed=0, out_dir=tmp_path)
    assert [owner.__dict__[attr] for _, owner, attr in tracer.TRACED] == before
    assert caden.engine.__dict__["run_round"].__module__ == "caden.engine"
    assert caden.losses.MlpLoss.__dict__["gradient"].__qualname__ == "MlpLoss.gradient"


def test_missed_target_fails_the_run(tmp_path):
    calls = measure.run_untraced(_short("gt_logistic", target=-1.0), seed=0, seconds=0.0,
                                 out_dir=tmp_path)
    assert all("missed" in c.failure for c in calls)
    result = json.loads(measure.result_line(calls, {}, measure.E2E_UNITS))
    assert not result["correct"] and result["failed"] == result["attempted"] == 2


def test_differing_repeat_fails():
    first = {}
    a = measure.Call(seed=3, wall_s=1.0, probe_s=0.01, trajectory=(("0", "1.0"),))
    b = measure.Call(seed=3, wall_s=1.0, probe_s=0.01, trajectory=(("0", "2.0"),))
    measure._check_repeat(a, first)
    measure._check_repeat(b, first)
    assert a.failure is None and "differs" in b.failure


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_percentile(10_000) == 95
    assert measure.tail_percentile(100) == 90
    assert measure.nearest_rank(list(range(1, 101)), 90) == 90


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp_ring", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
