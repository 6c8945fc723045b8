"""Unit tests for the partitioning framework (processor state, pending
pieces, partition results, validation)."""

import pytest

from repro.core.partition import (
    PartitionResult,
    PendingPiece,
    ProcessorRole,
    ProcessorState,
)
from repro.core.rmts import partition_rmts
from repro.core.rta import is_schedulable
from repro.core.task import Subtask, SubtaskKind, Task, TaskSet
from repro.taskgen.generators import TaskSetGenerator


class TestProcessorState:
    def test_utilization_sums_subtasks(self):
        proc = ProcessorState(index=0)
        t = Task(cost=2, period=8, tid=0)
        proc.add(Subtask.whole(t))
        assert proc.utilization == pytest.approx(0.25)

    def test_rejects_zero_cost(self):
        proc = ProcessorState(index=0)
        t = Task(cost=2, period=8, tid=0)
        with pytest.raises(ValueError):
            proc.add(Subtask(cost=0.0, period=8, deadline=8, parent=t))

    def test_schedulable_with(self):
        proc = ProcessorState(index=0)
        proc.add(Subtask.whole(Task(cost=2, period=4, tid=0)))
        ok = Subtask.whole(Task(cost=2, period=8, tid=1))
        too_big = Subtask.whole(Task(cost=5, period=8, tid=1))
        assert proc.schedulable_with(ok)
        assert not proc.schedulable_with(too_big)

    def test_body_subtasks_listing(self):
        proc = ProcessorState(index=0)
        t = Task(cost=4, period=8, tid=0)
        proc.add(Subtask(cost=1, period=8, deadline=8, parent=t,
                         index=1, kind=SubtaskKind.BODY))
        assert len(proc.body_subtasks()) == 1

    def test_highest_priority_subtask(self):
        proc = ProcessorState(index=0)
        assert proc.highest_priority_subtask() is None
        proc.add(Subtask.whole(Task(cost=1, period=8, tid=5)))
        proc.add(Subtask.whole(Task(cost=1, period=4, tid=2)))
        assert proc.highest_priority_subtask().priority == 2


class TestPendingPiece:
    def _piece(self):
        return PendingPiece.of(Task(cost=6.0, period=12.0, tid=0))

    def test_initial_state(self):
        p = self._piece()
        assert p.cost == 6.0
        assert p.index == 1
        assert p.deadline == 12.0
        assert p.utilization == pytest.approx(0.5)

    def test_candidate_whole_when_unsplit(self):
        assert self._piece().as_candidate().kind is SubtaskKind.WHOLE

    def test_finalize_consumes(self):
        p = self._piece()
        sub = p.finalize()
        assert sub.cost == 6.0
        assert p.cost == 0.0

    def test_split_off_body(self):
        p = self._piece()
        body = p.split_off(2.0)
        assert body.kind is SubtaskKind.BODY
        assert body.cost == 2.0
        assert body.index == 1
        assert p.cost == 4.0
        assert p.index == 2
        assert p.deadline == pytest.approx(10.0)  # Lemma 3: T - C_body

    def test_tail_candidate_after_split(self):
        p = self._piece()
        p.split_off(2.0)
        cand = p.as_candidate()
        assert cand.kind is SubtaskKind.TAIL
        assert cand.deadline == pytest.approx(10.0)

    def test_multi_split_accumulates_body_cost(self):
        p = self._piece()
        p.split_off(1.0)
        p.split_off(2.0)
        assert p.index == 3
        assert p.body_cost == pytest.approx(3.0)
        assert p.deadline == pytest.approx(9.0)

    def test_zero_split_returns_none(self):
        p = self._piece()
        assert p.split_off(0.0) is None
        assert p.cost == 6.0
        assert p.index == 1

    def test_split_entire_cost_rejected(self):
        p = self._piece()
        with pytest.raises(ValueError):
            p.split_off(6.0)

    def test_split_above_cost_rejected(self):
        p = self._piece()
        with pytest.raises(ValueError):
            p.split_off(7.0)


def _partition_of(taskset, assignments):
    """Helper: build a PartitionResult from {proc: [subtask...]}.

    Built with the debug sanitizer disarmed: these tests construct
    deliberately malformed partitions to exercise ``validate()`` itself.
    """
    from repro.perf.config import use_debug_invariants

    procs = []
    for q, subs in assignments.items():
        proc = ProcessorState(index=q)
        for s in subs:
            proc.add(s)
        procs.append(proc)
    with use_debug_invariants(False):
        return PartitionResult(
            algorithm="manual",
            taskset=taskset,
            processors=procs,
            success=True,
        )


class TestPartitionValidation:
    def test_valid_unsplit_partition(self):
        ts = TaskSet.from_pairs([(1, 4), (2, 8)])
        part = _partition_of(
            ts,
            {0: [Subtask.whole(ts[0])], 1: [Subtask.whole(ts[1])]},
        )
        assert part.validate() == []

    def test_missing_task_detected(self):
        ts = TaskSet.from_pairs([(1, 4), (2, 8)])
        part = _partition_of(ts, {0: [Subtask.whole(ts[0])]})
        errors = part.validate()
        assert any("unassigned" in e for e in errors)

    def test_valid_split_partition(self):
        ts = TaskSet.from_pairs([(2, 4), (6, 12)])
        t = ts[1]
        body = Subtask(cost=2, period=12, deadline=12, parent=t,
                       index=1, kind=SubtaskKind.BODY)
        tail = Subtask(cost=4, period=12, deadline=10, parent=t,
                       index=2, kind=SubtaskKind.TAIL)
        part = _partition_of(
            ts, {0: [Subtask.whole(ts[0]), tail], 1: [body]}
        )
        assert part.validate() == []
        assert part.split_tids() == [1]
        assert part.processors_hosting(1) == [1, 0]

    def test_cost_mismatch_detected(self):
        ts = TaskSet.from_pairs([(6, 12)])
        t = ts[0]
        body = Subtask(cost=2, period=12, deadline=12, parent=t,
                       index=1, kind=SubtaskKind.BODY)
        tail = Subtask(cost=3, period=12, deadline=10, parent=t,
                       index=2, kind=SubtaskKind.TAIL)
        part = _partition_of(ts, {0: [body], 1: [tail]})
        errors = part.validate()
        assert any("inconsistent" in e for e in errors)

    def test_same_processor_twice_detected(self):
        ts = TaskSet.from_pairs([(6, 12)])
        t = ts[0]
        body = Subtask(cost=2, period=12, deadline=12, parent=t,
                       index=1, kind=SubtaskKind.BODY)
        tail = Subtask(cost=4, period=12, deadline=10, parent=t,
                       index=2, kind=SubtaskKind.TAIL)
        part = _partition_of(ts, {0: [body, tail]})
        errors = part.validate()
        assert any("multiple pieces" in e for e in errors)

    def test_unschedulable_processor_detected(self):
        ts = TaskSet.from_pairs([(3, 4), (3, 8)])
        part = _partition_of(
            ts, {0: [Subtask.whole(ts[0]), Subtask.whole(ts[1])]}
        )
        errors = part.validate()
        assert any("RTA" in e for e in errors)

    def test_rta_rule_ignores_stale_admission_cache(self):
        """Rule 5 re-runs RTA from scratch: an in-place edit after the
        processor's analysis context was cached must still be caught."""
        ts = TaskSetGenerator(n=12).generate(u_norm=0.85, processors=4, seed=3)
        part = partition_rmts(ts, 4)
        assert part.success and part.validate() == []
        proc = max(part.processors, key=lambda p: p.utilization)
        proc.rta_context()
        last = proc.subtasks[-1]
        proc.subtasks[-1] = Subtask(
            cost=0.999 * last.period,
            period=last.period,
            deadline=last.deadline,
            parent=last.parent,
            index=last.index,
            kind=last.kind,
        )
        assert not is_schedulable(proc.subtasks)
        assert f"processor {proc.index}: fails exact RTA" in part.validate()

    def test_body_not_highest_priority_detected(self):
        ts = TaskSet.from_pairs([(1, 4), (6, 12)])
        t = ts[1]
        body = Subtask(cost=2, period=12, deadline=12, parent=t,
                       index=1, kind=SubtaskKind.BODY)
        tail = Subtask(cost=4, period=12, deadline=10, parent=t,
                       index=2, kind=SubtaskKind.TAIL)
        # body shares P0 with a higher-priority whole task -> violation
        part = _partition_of(ts, {0: [Subtask.whole(ts[0]), body], 1: [tail]})
        errors = part.validate()
        assert any("highest-priority" in e for e in errors)


class TestPartitionReports:
    def test_summary_mentions_algorithm(self, harmonic_set):
        part = _partition_of(
            harmonic_set,
            {0: [Subtask.whole(t) for t in list(harmonic_set)[:2]],
             1: [Subtask.whole(t) for t in list(harmonic_set)[2:]]},
        )
        assert "manual" in part.summary()
        report = part.processor_report()
        assert "P0" in report and "P1" in report

    def test_total_assigned_utilization(self, harmonic_set):
        part = _partition_of(
            harmonic_set, {0: [Subtask.whole(t) for t in harmonic_set]}
        )
        assert part.total_assigned_utilization == pytest.approx(1.125)

    def test_response_time_report_keys(self, harmonic_set):
        part = _partition_of(
            harmonic_set, {0: [Subtask.whole(t) for t in harmonic_set]}
        )
        report = part.response_time_report()
        assert set(report) == {0}
