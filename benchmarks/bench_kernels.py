"""Micro-benchmarks of the hot kernels (per the HPC guides: measure the
bottlenecks, not the wrappers).

These are the inner loops every acceptance sweep executes thousands of
times: exact RTA, MaxSplit, full partitioning, the discrete-event
simulator and the task-set generators.

The ``*_sweep_inputs`` benchmarks replay every MaxSplit call and every
exact-RTA admission probe recorded from the seed-0 sweep-e3 reference
sweep (the e2e benchmark's set-up check: M=8, n=24, the 19-level grid,
3 samples per level, RM-TS, SPA2, P-RM-FFD and RM-TS*).  Their share of
a sweep-e3 run is stated in ``results/BENCH_kernels.md``.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.admission as admission
from repro.analysis.acceptance import acceptance_sweep
from repro.analysis.algorithms import rmts_test, standard_algorithms
from repro.core.maxsplit import max_split_binary, max_split_points
from repro.core.bounds import harmonic_chain_count
from repro.core.partition import PendingPiece, ProcessorState
from repro.core.rmts import partition_rmts
from repro.core.rmts_light import partition_rmts_light
from repro.core.rta import RTAContext, is_schedulable
from repro.core.task import Subtask, Task
from repro.sim.engine import simulate_partition
from repro.taskgen.generators import TaskSetGenerator
from repro.taskgen.randfixedsum import randfixedsum
from repro.taskgen.uunifast import uunifast


def capture_reference_sweep():
    """Run the seed-0 sweep-e3 reference sweep, recording the inputs of
    every MaxSplit call (existing subtasks, a copy of the pending piece)
    and of every exact-RTA admission probe (processor contents,
    candidate)."""
    maxsplit_calls = []
    admit_calls = []
    real_max_split = admission.max_split
    real_schedulable_with = ProcessorState.schedulable_with

    def recording_max_split(existing, piece, *, method="points", context=None):
        maxsplit_calls.append((list(existing), dataclasses.replace(piece)))
        return real_max_split(existing, piece, method=method, context=context)

    def recording_schedulable_with(self, candidate):
        admit_calls.append((list(self.subtasks), candidate))
        return real_schedulable_with(self, candidate)

    algorithms = standard_algorithms()
    algorithms["RM-TS*"] = rmts_test(None, dedicate_over_bound=False)
    admission.max_split = recording_max_split
    ProcessorState.schedulable_with = recording_schedulable_with
    try:
        acceptance_sweep(
            algorithms,
            TaskSetGenerator(n=24, period_model="loguniform"),
            processors=8,
            u_grid=[float(u) for u in np.arange(0.55, 1.001, 0.025)],
            samples=3,
            seed=0,
            jobs=1,
        )
    finally:
        admission.max_split = real_max_split
        ProcessorState.schedulable_with = real_schedulable_with
    return maxsplit_calls, admit_calls


@pytest.fixture(scope="module")
def sweep_inputs():
    return capture_reference_sweep()


def test_maxsplit_points_sweep_inputs(benchmark, sweep_inputs):
    """Every MaxSplit call of the reference sweep, on context-fed inputs
    as in Assign (the context is built outside the timed region)."""
    calls = [
        (existing, piece, RTAContext(existing))
        for existing, piece in sweep_inputs[0]
    ]

    def replay():
        for existing, piece, context in calls:
            max_split_points(existing, piece, context=context)

    benchmark(replay)


def test_admits_sweep_inputs(benchmark, sweep_inputs):
    """Every exact-RTA admission probe of the reference sweep, against a
    context of the processor's contents at probe time."""
    calls = [
        (
            RTAContext(existing),
            candidate.cost,
            candidate.period,
            candidate.deadline,
            candidate.priority,
        )
        for existing, candidate in sweep_inputs[1]
    ]

    def replay():
        for context, cost, period, deadline, priority in calls:
            context.admits(cost, period, deadline, priority)

    benchmark(replay)


@pytest.fixture(scope="module")
def workload():
    gen = TaskSetGenerator(n=24, period_model="loguniform")
    return gen.generate(u_norm=0.85, processors=8, seed=42)


@pytest.fixture(scope="module")
def loaded_subtasks(workload):
    return [Subtask.whole(t) for t in list(workload)[:10]]


def test_rta_is_schedulable(benchmark, loaded_subtasks):
    benchmark(is_schedulable, loaded_subtasks)


def test_maxsplit_points(benchmark, loaded_subtasks):
    piece = PendingPiece.of(Task(cost=300.0, period=900.0, tid=10_000))
    benchmark(max_split_points, loaded_subtasks, piece)


def test_maxsplit_binary(benchmark, loaded_subtasks):
    piece = PendingPiece.of(Task(cost=300.0, period=900.0, tid=10_000))
    benchmark(max_split_binary, loaded_subtasks, piece)


def test_admission_incremental_context(benchmark, loaded_subtasks):
    """Cached-context admission: prefix reuse + warm-started fixed points."""
    candidate = Subtask.whole(Task(cost=40.0, period=800.0, tid=10_000))
    proc = ProcessorState(index=0)
    for sub in loaded_subtasks:
        proc.add(sub)
    proc.rta_context()  # build once; probes must not rebuild it
    benchmark(proc.schedulable_with, candidate)


def test_maxsplit_points_prefix_context(benchmark, loaded_subtasks):
    """MaxSplit with the existing-set prefix analyzed once per search."""
    piece = PendingPiece.of(Task(cost=300.0, period=900.0, tid=10_000))
    context = RTAContext(sorted(loaded_subtasks, key=lambda s: s.priority))
    benchmark(max_split_points, loaded_subtasks, piece, context=context)


def test_partition_rmts(benchmark, workload):
    benchmark(partition_rmts, workload, 8)


def test_partition_rmts_light(benchmark):
    gen = TaskSetGenerator(n=24, period_model="loguniform").light()
    ts = gen.generate(u_norm=0.85, processors=8, seed=7)
    benchmark(partition_rmts_light, ts, 8)


def test_simulate_partition(benchmark):
    gen = TaskSetGenerator(n=12, period_model="discrete")
    ts = gen.generate(u_norm=0.8, processors=4, seed=3)
    part = partition_rmts(ts, 4)
    assert part.success
    benchmark(simulate_partition, part, horizon=2000.0)


def test_uunifast_kernel(benchmark):
    rng = np.random.default_rng(0)
    benchmark(uunifast, 100, 40.0, rng)


def test_randfixedsum_kernel(benchmark):
    rng = np.random.default_rng(0)
    benchmark(randfixedsum, 50, 20.0, rng, m=10)


def test_harmonic_chain_count_kernel(benchmark):
    rng = np.random.default_rng(0)
    periods = rng.uniform(10, 1000, size=40)
    benchmark(harmonic_chain_count, periods)
