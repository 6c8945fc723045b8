"""The sweep benchmark still writes every key its committed baseline has.

The nightly drift gate reports a baseline key the fresh run lost as
drift.  This runs the generator at the smallest size and checks the same
key set in tier-1, so a dropped key fails here first.
"""

import fnmatch
import json
from pathlib import Path

import pytest

from repro.perf.bench_check import DEFAULT_IGNORES, flatten
from repro.perf.bench_sweep import run_bench_sweep

pytestmark = pytest.mark.ci

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "results"
    / "BENCH_sweep.json"
)


def test_fresh_payload_keeps_every_committed_leaf():
    committed = flatten(json.loads(BASELINE.read_text()))
    fresh = flatten(run_bench_sweep(samples=1, jobs=1, repeats=1))
    compared = [
        path
        for path in committed
        if not any(fnmatch.fnmatch(path, pat) for pat in DEFAULT_IGNORES)
    ]
    assert compared
    assert [path for path in compared if path not in fresh] == []
