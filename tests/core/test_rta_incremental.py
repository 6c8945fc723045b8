"""Property tests: the incremental RTA context vs the one-shot analysis.

The cached-context admission path (`RTAContext.admits`, `with_subtask`,
lazy deferred resolution) must be *decision- and value-identical* to the
straightforward rebuild-per-probe path (`is_schedulable`,
`response_times`).  These tests drive both on randomized processors —
random seeds come from hypothesis, the processor contents from a NumPy
generator derived from them, so failures replay exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import ProcessorState
from repro.core.rta import (
    RTAContext,
    _pairwise_sum,
    is_schedulable,
    response_times,
)
from repro.core.rmts import partition_rmts
from repro.core.rmts_light import partition_rmts_light
from repro.core.baselines import partition_no_split
from repro.core.task import Subtask, Task
from repro.perf import use_incremental_rta
from repro.taskgen.generators import TaskSetGenerator

seeds = st.integers(min_value=0, max_value=10_000)


def random_subtasks(seed: int, n=None, constrained=True):
    """Priority-sorted random subtasks, some with synthetic deadlines."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(1, 7))
    subs = []
    for tid in range(n):
        period = float(rng.uniform(4.0, 64.0))
        cost = float(rng.uniform(0.05, 0.45) * period)
        deadline = period
        if constrained and rng.random() < 0.4:
            deadline = float(min(period, max(cost, 0.6 * period)))
        # Even tids: leaves the odd slots free for a candidate, so priority
        # collisions (impossible on a real processor) cannot occur.
        task = Task(cost=cost, period=period, tid=2 * tid)
        subs.append(
            Subtask(cost=cost, period=period, deadline=deadline, parent=task)
        )
    return subs


def random_candidate(seed: int, n_existing: int) -> Subtask:
    rng = np.random.default_rng(seed + 777)
    period = float(rng.uniform(4.0, 64.0))
    cost = float(rng.uniform(0.05, 0.6) * period)
    # Any priority slot: above, between, or below the existing (even) tids.
    tid = 2 * int(rng.integers(0, n_existing + 1)) - 1
    task = Task(cost=cost, period=period, tid=tid)
    deadline = period if rng.random() < 0.6 else float(max(cost, 0.7 * period))
    return Subtask(cost=cost, period=period, deadline=deadline, parent=task)


def merged(subtasks, candidate):
    return sorted(subtasks + [candidate], key=lambda s: s.priority)


def same_floats(xs, ys):
    """Bit-for-bit equality of two float lists, NaN equal to NaN."""
    return len(xs) == len(ys) and all(
        (x != x and y != y) or x == y for x, y in zip(xs, ys)
    )


def settle(ctx):
    """Fill every response slot a later probe could still compute:
    deferred slots and slots left NaN by a hyperbolic accept alike."""
    if ctx.first_fail != -2:
        ctx._resolve()
    return ctx


def assert_same_context(grown, fresh):
    """*grown* (built incrementally) equals a fresh build exactly."""
    for column in ("costs", "periods", "deadlines", "ratios", "prio_list"):
        assert getattr(grown, column) == getattr(fresh, column), column
    assert grown.util_sum == fresh.util_sum
    assert grown.utilization == fresh.utilization
    assert grown.implicit == fresh.implicit
    assert grown.rm_ordered == fresh.rm_ordered
    # The running product may differ from a fresh one by ulps (the
    # pre-accept margin absorbs that); it must never be off by more.
    assert grown.hyper_prod == pytest.approx(fresh.hyper_prod, rel=1e-12)
    assert grown.schedulable == fresh.schedulable
    settle(grown)
    settle(fresh)
    assert grown.first_fail == fresh.first_fail
    assert same_floats(grown.responses, fresh.responses)


@pytest.mark.kernel
def test_pairwise_sum_equals_numpy_sum_bit_for_bit():
    """The context's list reduction replicates NumPy's pairwise summation
    (unrolled below 128, split above) on every length the tree changes
    shape at, with signed mixed-magnitude terms so order matters."""
    rng = np.random.default_rng(20120521)
    for n in range(0, 131):
        for _ in range(40):
            signs = rng.choice([-1.0, 1.0], size=n)
            xs = (signs * rng.random(n) * 10.0 ** rng.uniform(-4, 4, n)).tolist()
            assert _pairwise_sum(xs) == float(np.asarray(xs, dtype=float).sum()), n


class TestContextMatchesOneShot:
    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_schedulable_flag(self, seed):
        subs = random_subtasks(seed)
        assert RTAContext(subs).schedulable == is_schedulable(subs)

    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_responses_match_where_computed(self, seed):
        """Every cached response equals the one-shot value bit-for-bit.

        The context may leave responses NaN past the first failure (or
        where analysis was deferred and never needed); wherever it *does*
        hold a number, it must be the exact same float.
        """
        subs = random_subtasks(seed)
        ctx = RTAContext(subs)
        ctx.schedulable  # force deferred resolution
        reference = response_times(subs).responses
        for got, want in zip(ctx.responses, reference):
            if got == got:  # not NaN
                assert got == want

    @given(seed=seeds)
    @settings(max_examples=200, deadline=None)
    def test_admits_equals_rebuild(self, seed):
        subs = random_subtasks(seed)
        candidate = random_candidate(seed, len(subs))
        ctx = RTAContext(subs)
        expected = is_schedulable(merged(subs, candidate))
        assert ctx.admits_subtask(candidate) == expected

    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_with_subtask_equals_fresh_build(self, seed):
        subs = random_subtasks(seed)
        candidate = random_candidate(seed, len(subs))
        grown = RTAContext(subs).with_subtask(candidate)
        fresh = RTAContext(merged(subs, candidate))
        assert_same_context(grown, fresh)

    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_admits_then_with_subtask_stays_consistent(self, seed):
        """The probe memo fast path must not corrupt the grown context."""
        subs = random_subtasks(seed)
        candidate = random_candidate(seed, len(subs))
        ctx = RTAContext(subs)
        if not ctx.admits_subtask(candidate):
            return
        grown = ctx.with_subtask(candidate)
        assert grown.schedulable
        fresh = RTAContext(merged(subs, candidate))
        assert fresh.schedulable
        assert_same_context(grown, fresh)

    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_probe_memo_commit_equals_fresh_build(self, seed):
        """A MaxSplit-style probe closure memoizes its last admitted cost;
        committing that cost must equal a fresh build exactly."""
        subs = random_subtasks(seed)
        candidate = random_candidate(seed, len(subs))
        ctx = RTAContext(subs)
        admit = ctx.admission_probe(
            candidate.period, candidate.deadline, candidate.priority
        )
        cost = candidate.cost
        for _ in range(20):
            if admit(cost):
                break
            cost *= 0.5
        else:
            return
        piece = Subtask(
            cost=cost,
            period=candidate.period,
            deadline=candidate.deadline,
            parent=candidate.parent,
        )
        grown = ctx.with_subtask(piece)
        assert_same_context(grown, RTAContext(merged(subs, piece)))

    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_grown_across_remove_parent_equals_fresh_build(self, seed):
        """Contexts grown through ProcessorState.add, before and after a
        departure, match a fresh build of the processor's contents."""
        subs = random_subtasks(seed, n=12)  # 11 after the departure
        proc = ProcessorState(index=0)
        for sub in subs[:4]:
            proc.schedulable_with(sub)  # probe first: exercises the memo
            proc.add(sub)
        assert_same_context(proc.rta_context(), RTAContext(proc.subtasks))
        proc.remove_parent(subs[1].parent.tid)
        proc.rta_context()
        for sub in subs[4:]:
            proc.schedulable_with(sub)
            proc.add(sub)
        assert_same_context(proc.rta_context(), RTAContext(proc.subtasks))


class TestEndToEndPartitionEquality:
    """Partitioning with the incremental engine on/off is indistinguishable."""

    algorithms = [
        ("rmts", lambda ts, m: partition_rmts(ts, m)),
        ("rmts_star", lambda ts, m: partition_rmts(ts, m, dedicate_over_bound=False)),
        ("rmts_light", lambda ts, m: partition_rmts_light(ts, m)),
        ("p_rm_ffd", lambda ts, m: partition_no_split(ts, m)),
    ]

    @pytest.mark.parametrize("name,algo", algorithms, ids=[a[0] for a in algorithms])
    def test_partitions_identical(self, name, algo):
        gen = TaskSetGenerator(n=12, period_model="loguniform")
        for seed in range(8):
            for u_norm in (0.7, 0.85, 0.97):
                ts = gen.generate(u_norm=u_norm, processors=4, seed=seed)
                with use_incremental_rta(False):
                    legacy = algo(ts, 4)
                with use_incremental_rta(True):
                    incremental = algo(ts, 4)
                assert legacy.success == incremental.success
                assert legacy.unassigned_tids == incremental.unassigned_tids
                for p_legacy, p_inc in zip(
                    legacy.processors, incremental.processors
                ):
                    assert [
                        (s.cost, s.period, s.deadline, s.priority)
                        for s in p_legacy.subtasks
                    ] == [
                        (s.cost, s.period, s.deadline, s.priority)
                        for s in p_inc.subtasks
                    ]
