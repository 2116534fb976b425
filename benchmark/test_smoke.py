"""Smoke test of the benchmark: every workload at a reduced size.

    python3 -m pytest -q benchmark/test_smoke.py
"""
import dataclasses
import json
import math
import time

import numpy as np
import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _small(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], clip_seconds=2.0, num_mics=3)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_appears_with_its_unit(name, trace):
    result = run.run_workload(name, _small(name), 0, 0.0, trace, time.perf_counter())
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= len(run.KINDS) * (1 + run.MIN_SAMPLES)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {key: m["unit"] for key, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_injected_nan_counts_as_failed(monkeypatch):
    original = run.enhance.enhance_stream

    def corrupted(*args, **kwargs):
        result = original(*args, **kwargs)
        result.enhanced.samples[0, 100] = np.nan
        return result

    monkeypatch.setattr(run.enhance, "enhance_stream", corrupted)
    result = run.run_workload("clip8s_t07", _small("clip8s_t07"), 0, 0.0, False, time.perf_counter())
    assert not result["correct"]
    # every enhance_l3: the set-up one and the measured ones
    assert result["failed"] == 1 + run.MIN_SAMPLES
