"""Unit and property tests for MaxSplit (Definitions 2 and 3)."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.maxsplit import (
    _MAX_POINTS,
    _candidate,
    _point_count,
    max_split,
    max_split_binary,
    max_split_points,
)
from repro.core.partition import PendingPiece, ProcessorState
from repro.core.rmts import partition_rmts
from repro.core.rmts_light import partition_rmts_light
from repro.core.rta import RTAContext, is_schedulable
from repro.core.task import Subtask, Task, TaskSet
from repro.perf.telemetry import COUNTERS
from repro.taskgen.generators import TaskSetGenerator


def loaded_processor(pairs, start_tid=0):
    proc = ProcessorState(index=0)
    for i, (c, t) in enumerate(pairs):
        proc.add(Subtask.whole(Task(cost=c, period=t, tid=start_tid + i)))
    return proc


def piece_for(cost, period, tid=100):
    return PendingPiece.of(Task(cost=cost, period=period, tid=tid))


class TestMaxSplitBasics:
    def test_empty_processor_accepts_everything(self):
        piece = piece_for(3.0, 10.0)
        assert max_split_points([], piece) == pytest.approx(3.0)
        assert max_split_binary([], piece) == pytest.approx(3.0)

    def test_zero_cost_piece(self):
        proc = loaded_processor([(1, 4)])
        piece = piece_for(1.0, 10.0)
        piece.cost = 0.0
        assert max_split_points(proc.subtasks, piece) == 0.0
        assert max_split_binary(proc.subtasks, piece) == 0.0

    def test_full_processor_gives_zero(self):
        # Processor at U=1 with (2,4),(2,8),(4,16): nothing more fits.
        proc = loaded_processor([(2, 4), (2, 8), (4, 16)], start_tid=1)
        piece = piece_for(5.0, 16.0, tid=0)  # highest priority newcomer
        assert max_split_points(proc.subtasks, piece) == pytest.approx(0.0)
        assert max_split_binary(proc.subtasks, piece) <= 1e-8

    def test_exact_fill_to_capacity(self):
        # (2,4) alone; a newcomer with T=4 can fill to C=2 exactly:
        # afterwards both (2,4)s use the full processor.
        proc = loaded_processor([(2, 4)], start_tid=1)
        piece = piece_for(4.0, 4.0, tid=0)
        c = max_split_points(proc.subtasks, piece)
        assert c == pytest.approx(2.0)

    def test_respects_own_synthetic_deadline(self):
        # No existing tasks, but the piece has a shortened deadline.
        piece = piece_for(8.0, 10.0)
        piece.split_off(3.0)  # deadline now 7, remaining 5
        c = max_split_points([], piece)
        assert c == pytest.approx(5.0)  # still fits: cost 5 <= deadline 7

    def test_deadline_binds_before_cost(self):
        piece = piece_for(9.0, 10.0)
        piece.split_off(4.0)  # deadline 6, remaining 5
        proc = loaded_processor([(3, 6)], start_tid=200)  # lower priority
        # newcomer (tid=100) outranks (3,6); its own deadline is 6.
        c = max_split_points(proc.subtasks, piece)
        # lower-priority task (3,6): needs c <= 3 by its deadline 6.
        assert c == pytest.approx(3.0)

    def test_dispatcher(self):
        proc = loaded_processor([(1, 4)])
        piece = piece_for(10.0, 20.0, tid=50)
        assert max_split(proc.subtasks, piece, method="points") == pytest.approx(
            max_split(proc.subtasks, piece, method="binary"), abs=1e-6
        )
        with pytest.raises(ValueError):
            max_split(proc.subtasks, piece, method="nope")


class TestMaxSplitDefinition:
    """MaxSplit must satisfy Definition 3: feasible, and maximal
    (assigning the result leaves a bottleneck on the processor)."""

    def _assert_definition(self, proc, piece):
        c = max_split_points(proc.subtasks, piece)
        base = piece.as_candidate()

        def with_cost(x):
            return proc.subtasks + [
                Subtask(cost=x, period=base.period, deadline=base.deadline,
                        parent=base.parent, index=base.index, kind=base.kind)
            ]

        if c > 0:
            assert is_schedulable(with_cost(c)), "MaxSplit result infeasible"
        bump = max(1e-6, 1e-6 * piece.cost)
        if c + bump <= piece.cost:
            assert not is_schedulable(with_cost(c + bump)), (
                "MaxSplit not maximal: a larger portion still fits"
            )

    def test_definition_on_crafted_processors(self):
        cases = [
            ([(1, 4), (2, 10)], (6.0, 12.0)),
            ([(2, 5)], (10.0, 11.0)),
            ([(1, 3), (1, 7), (2, 13)], (20.0, 40.0)),
        ]
        for pairs, (cost, period) in cases:
            proc = loaded_processor(pairs, start_tid=101)
            piece = piece_for(cost, period, tid=0)
            self._assert_definition(proc, piece)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_definition_on_random_processors(self, seed):
        rng = np.random.default_rng(seed)
        gen = TaskSetGenerator(n=int(rng.integers(2, 7)),
                               period_model="loguniform")
        ts = gen.generate(u_norm=0.5, processors=1, seed=rng)
        proc = ProcessorState(index=0)
        for t in ts:
            # shift tids so the incoming piece (tid=0) has top priority
            proc.add(Subtask.whole(Task(cost=t.cost, period=t.period,
                                        tid=t.tid + 1)))
        period = float(rng.uniform(20, 2000))
        piece = piece_for(float(rng.uniform(0.2, 0.95)) * period, period, tid=0)
        self._assert_definition(proc, piece)


class TestMaxSplitAgreement:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_binary_equals_points(self, seed):
        rng = np.random.default_rng(seed)
        gen = TaskSetGenerator(n=int(rng.integers(2, 8)),
                               period_model="loguniform")
        ts = gen.generate(u_norm=0.6, processors=1, seed=rng)
        proc = ProcessorState(index=0)
        for t in ts:
            proc.add(Subtask.whole(t))
        period = float(rng.uniform(20, 2000))
        # tid below / above the existing range exercises both priority
        # cases (tids must be unique — they are priorities).
        tid = -1 if rng.random() < 0.5 else 10_000
        piece = piece_for(float(rng.uniform(0.2, 0.9)) * period, period, tid=tid)
        c_pts = max_split_points(proc.subtasks, piece)
        c_bin = max_split_binary(proc.subtasks, piece)
        assert c_bin == pytest.approx(c_pts, abs=1e-6 * max(1.0, piece.cost))


class TestMaxSplitLowPriorityNewcomer:
    def test_newcomer_below_existing_priorities(self):
        """Phase-3 case: the incoming piece is NOT highest priority."""
        # Existing high-priority heavy task (pre-assigned style).
        proc = loaded_processor([(3, 10)], start_tid=0)
        piece = piece_for(30.0, 40.0, tid=5)  # lower priority than tid 0
        c = max_split_points(proc.subtasks, piece)
        # feasibility: with cost c, R = c + interference of (3,10) <= 40.
        assert c > 0
        base = piece.as_candidate()
        assert is_schedulable(
            proc.subtasks
            + [Subtask(cost=c, period=40.0, deadline=40.0, parent=base.parent,
                       index=1, kind=base.kind)]
        )

    def test_harmonic_fill_through_lower_priority_constraint(self):
        # Existing (2,4) and (2,8); a top-priority (C,8) newcomer can take
        # exactly C=2: the processor then runs at U=1 with harmonic
        # periods, and (2,8)'s response hits its deadline exactly.
        proc = ProcessorState(index=0)
        proc.add(Subtask.whole(Task(cost=2.0, period=4.0, tid=1)))
        proc.add(Subtask.whole(Task(cost=2.0, period=8.0, tid=2)))
        piece = piece_for(4.0, 8.0, tid=0)
        assert max_split_points(proc.subtasks, piece) == pytest.approx(2.0)

    def test_saturated_lower_priority_task_gives_zero(self):
        # (2,4) + (4,8) already uses U=1; any newcomer cost breaks (4,8).
        proc = ProcessorState(index=0)
        proc.add(Subtask.whole(Task(cost=2.0, period=4.0, tid=1)))
        proc.add(Subtask.whole(Task(cost=4.0, period=8.0, tid=2)))
        piece = piece_for(4.0, 8.0, tid=0)
        assert max_split_points(proc.subtasks, piece) == pytest.approx(0.0)


class TestSchedulingPointCap:
    """A valid input with a huge period ratio used to enumerate ~1e9
    scheduling points (MemoryError).  Past ``_MAX_POINTS`` points in any
    constraint, MaxSplit answers with the binary search instead."""

    HUGE_RATIO = [(0.0007, 0.001), (4e5, 1e6)]

    def test_admit_reproducer_returns_quickly(self):
        from repro.service.handlers import compute_admit_body

        ts = TaskSet([Task(cost=c, period=t) for c, t in self.HUGE_RATIO])
        start = time.perf_counter()
        body = compute_admit_body(ts, 1, "rmts")
        assert time.perf_counter() - start < 1.0
        assert body["admitted"] is False

    @pytest.mark.parametrize("algorithm", [partition_rmts, partition_rmts_light])
    def test_capped_split_is_sound(self, algorithm):
        ts = TaskSet(
            [Task(cost=c, period=t) for c, t in self.HUGE_RATIO + [(5e5, 1e6)]]
        )
        before = COUNTERS.snapshot()
        start = time.perf_counter()
        result = algorithm(ts, 2)
        assert time.perf_counter() - start < 1.0
        assert COUNTERS.delta_since(before)["maxsplit_calls"] == 1
        assert result.success
        assert result.split_tids() == [0]
        assert result.validate() == []

    def test_over_cap_falls_back_to_binary_on_both_paths(self):
        existing = [Subtask.whole(Task(cost=4e5, period=1e6, tid=1))]
        piece = piece_for(0.0007, 0.001, tid=0)
        assert _point_count([0.001], 1e6) > _MAX_POINTS
        expected = max_split_binary(existing, piece)
        assert 0.0 < expected < piece.cost
        before = COUNTERS.snapshot()
        assert max_split_points(existing, piece) == expected
        assert max_split_points(
            existing, piece, context=RTAContext(existing)
        ) == max_split_binary(existing, piece, context=RTAContext(existing))
        assert COUNTERS.delta_since(before)["maxsplit_calls"] == 3
        assert is_schedulable(existing + [_candidate(piece, expected)])

    def test_under_cap_keeps_the_point_evaluation(self):
        # At the cap the exact points variant still runs: its result is
        # the exact bottleneck value, where bisection stops a hair below.
        existing = [Subtask.whole(Task(cost=0.5, period=1.0, tid=0))]
        period = float(_MAX_POINTS - 2)
        piece = piece_for(period * 0.6, period, tid=1)
        assert _point_count([1.0, period], period) == _MAX_POINTS
        assert max_split_binary(existing, piece) < period * 0.5
        assert max_split_points(existing, piece) == period * 0.5
        assert max_split_points(
            existing, piece, context=RTAContext(existing)
        ) == period * 0.5
