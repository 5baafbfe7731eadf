"""One seeded pass of each benchmark workload, every task within its gate,
and the benchmark's set-up and tracer run against the library.

``bench/workloads.py``, ``bench/run.py`` and ``bench/tracing.py`` are
loaded by path and only read, so a library change that would fail a
benchmark task, its warm-up or its tracer fails here first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from canonfactor import factorize

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_pass_meets_every_gate(name):
    draw, run = workloads.WORKLOADS[name]
    tasks = run(draw(np.random.default_rng(1)))
    assert tasks and all(t["ok"] for t in tasks), tasks


def test_benchmark_warm_up_runs():
    # warm_up passes keywords to the library that no other test passes
    _load("run").warm_up()


def test_benchmark_tracer_sees_a_factorize_pass():
    draw, run = workloads.WORKLOADS["factorize"]
    params = draw(np.random.default_rng(1))
    original = factorize.factor_via_transform
    recorder = _load("tracing").Recorder()
    recorder.start(0)
    try:
        tasks = run(params)
    finally:
        recorder.stop()
    assert all(t["ok"] for t in tasks), tasks
    assert factorize.factor_via_transform is original
    profile = recorder.pass_profile(0, 1.0)
    assert profile["incl_s"]["factorize.factor_via_transform"] > 0.0
    assert profile["counts"]["measures.density.calls"] > 0
