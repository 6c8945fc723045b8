"""Self-tests of the end-to-end benchmark.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q

Each workload runs at a tiny size, every reported metric name is
checked against ``BENCHMARK.json``, and each correctness gate is shown
to trip when its reference or the program's output is corrupted.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import admit_open
import churn_journal
import harness
import layers
import run as run_module
import sweep_e3


def benchmark_json():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spec():
    with open(os.path.join(harness.HERE, "spec.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    """Fewer set-up rounds for runs of a few operations."""
    monkeypatch.setattr(harness, "SETUP_ROUNDS", 2)


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------


def test_end_to_end_metrics_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"])
                for m in benchmark_json()["end_to_end"]}
    assert declared == harness.END_TO_END


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"])
                for m in benchmark_json()["per_layer"]}
    assert declared == layers.PER_LAYER


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in benchmark_json()["workloads"]]
    assert tuple(names) == run_module.WORKLOADS


def test_layer_table_covers_every_per_layer_metric():
    table = spec()["layers"]
    named = [m for row in table for m in row["metrics"]]
    assert sorted(named) == sorted(layers.PER_LAYER)
    workloads = set(run_module.WORKLOADS)
    metrics = set(harness.END_TO_END) | set(harness.REPORTED_ONLY)
    for row in table:
        for metric, workload in row["should_move"]:
            assert metric in metrics and workload in workloads
        assert set(row["should_not_move"]) <= workloads


def test_open_rate_comes_from_spec():
    assert admit_open.OPEN_RATE == spec()["admit-open"]["open_rate_per_s"]


# ---------------------------------------------------------------------------
# Tiny runs
# ---------------------------------------------------------------------------


def _check_metrics(result, trace):
    expected = layers.PER_LAYER if trace else {
        **harness.END_TO_END, "latency_p50_ms": 0, "latency_p99_ms": 0}
    assert set(result.metrics) == set(expected)
    assert result.attempted >= 1 and result.failed == 0
    if not trace:
        assert all(result.metrics[name] > 0 for name in harness.END_TO_END)


@pytest.mark.parametrize("trace", [False, True])
def test_sweep_tiny(tiny, trace):
    setup = harness.SetupTimer(0.0)
    result = sweep_e3.run(3, 0.05, trace, setup, samples=1)
    _check_metrics(result, trace)
    if trace:
        assert result.metrics["core.partition.rmts.calls"] > 0
        assert result.metrics["core.partition.rmts-star.calls"] > 0
        assert result.metrics["service.request.busy_s"] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_churn_tiny(tiny, trace):
    setup = harness.SetupTimer(0.0)
    result = churn_journal.run(3, 0.05, trace, setup, horizon=5)
    _check_metrics(result, trace)
    if trace:
        assert result.metrics["cluster.events"] > 0
        assert result.metrics["store.puts"] == result.metrics["cluster.events"]
        assert result.metrics["store.put.busy_s"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_admit_open_tiny(tiny, monkeypatch, trace):
    monkeypatch.setattr(admit_open, "WARMUP", 20)
    setup = harness.SetupTimer(0.0)
    result = admit_open.run(3, 1.0, trace, setup, open_rate=40.0)
    _check_metrics(result, trace)
    if trace:
        assert result.metrics["core.partition.rmts.calls"] > 0
        assert result.metrics["service.request.busy_s"] > 0
        assert result.metrics["service.cache.hit_ratio"] == 0
        assert result.metrics["taskgen.generate.calls"] == 0


def test_report_last_line_has_exactly_the_contract_keys(capsys):
    result = harness.Result("sweep-e3", 1, False, attempted=5)
    result.metrics = {name: 1.5 for name in harness.END_TO_END}
    result.metrics.update(latency_p50_ms=2.0, latency_p99_ms=2.5)
    run_module.report(result, {"nproc": 2}, correct=True)
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads(lines[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert set(record["metrics"]) == set(harness.END_TO_END)
    assert record["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    printed = " ".join(lines)
    assert all(name in printed for name in harness.REPORTED_ONLY)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "sweep-e3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Gates trip on corrupted references and outputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_sweep():
    generator, algorithms = sweep_e3.build()
    return sweep_e3.sweep(generator, algorithms,
                          seed=sweep_e3.REFERENCE_SEED,
                          samples=sweep_e3.REFERENCE_SAMPLES)


def test_sweep_gate_passes_on_the_recorded_reference(reference_sweep):
    sweep_e3.check_reference(*reference_sweep, harness.load_reference())


@pytest.mark.parametrize("corrupt", ["curve", "rta_calls", "rta_iterations",
                                     "maxsplit_calls"])
def test_sweep_gate_trips_on_corrupted_reference(reference_sweep, corrupt):
    reference = copy.deepcopy(harness.load_reference())
    entry = reference["sweep-e3"]
    if corrupt == "curve":
        entry["curves"]["RM-TS"][-1] += 1.0
    else:
        entry["counters"][corrupt] += 1
    with pytest.raises(harness.GateFailure):
        sweep_e3.check_reference(*reference_sweep, reference)


def test_sweep_floor_gate_trips():
    curves = {"RM-TS": [1.0] * 19}
    sweep_e3.check_floor(curves)
    curves["RM-TS"][0] = 0.9
    with pytest.raises(harness.GateFailure):
        sweep_e3.check_floor(curves)


def test_churn_gate_trips_on_corrupted_reference(tmp_path):
    reference = copy.deepcopy(harness.load_reference())
    churn_journal.check_reference(reference, str(tmp_path))
    reference["churn-journal"]["compact"]["migrations"] += 1
    with pytest.raises(harness.GateFailure):
        churn_journal.check_reference(reference, str(tmp_path))


def test_churn_journal_gate_trips_on_missing_row(tmp_path):
    cfg = churn_journal.config("ff-rta", 1, 5)
    result, store, _, _ = churn_journal.one_run(cfg, str(tmp_path), "j.db")
    try:
        churn_journal.check_journal(cfg, result, store)
        store._conn.execute(
            "DELETE FROM entries WHERE namespace = ? AND key = '0'",
            (result.namespace,))
        store._conn.commit()
        with pytest.raises(harness.GateFailure):
            churn_journal.check_journal(cfg, result, store)
    finally:
        store.close()


def _admit_outcome(index, ts):
    from repro.service.handlers import compute_admit_body

    out = admit_open.Outcome(index, 0.0)
    out.status = 200
    out.cache = "miss"
    out.body = json.dumps(compute_admit_body(ts, admit_open.M, "rmts")).encode()
    return out


def test_admit_gate_trips_on_flipped_verdict():
    payloads = admit_open.Payloads(1)
    payloads.extend(4)
    outcomes = [_admit_outcome(i, ts) for i, ts in enumerate(payloads.tasksets)]
    assert admit_open.check_responses(outcomes, payloads) >= 1
    body = json.loads(outcomes[0].body)
    body["admitted"] = not body["admitted"]
    outcomes[0].body = json.dumps(body).encode()
    with pytest.raises(harness.GateFailure):
        admit_open.check_responses(outcomes, payloads)


def test_admit_gate_trips_on_unschedulable_partition():
    payloads = admit_open.Payloads(1)
    payloads.extend(1)
    out = _admit_outcome(0, payloads.tasksets[0])
    body = json.loads(out.body)
    assert body["admitted"]
    for proc in body["partition"]["processors"]:
        for sub in proc["subtasks"]:
            sub["cost"] *= 1.9
    out.body = json.dumps(body).encode()
    with pytest.raises(harness.GateFailure):
        admit_open.check_responses([out], payloads)


def test_admit_gate_trips_on_cache_hit():
    payloads = admit_open.Payloads(1)
    payloads.extend(1)
    out = _admit_outcome(0, payloads.tasksets[0])
    out.cache = "hit"
    with pytest.raises(harness.GateFailure):
        admit_open.check_responses([out], payloads)
