"""One seeded pass of each benchmark workload, every task within its gate.

``bench/workloads.py`` is loaded by path and only read, so a library
change that would fail a benchmark task fails here first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_pass_meets_every_gate(name):
    draw, run = workloads.WORKLOADS[name]
    tasks = run(draw(np.random.default_rng(1)))
    assert tasks and all(t["ok"] for t in tasks), tasks
