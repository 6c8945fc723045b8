"""Unit tests for the task model (Task, Subtask, TaskSet, SplitTaskView)."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.task import (
    SplitTaskView,
    Subtask,
    SubtaskKind,
    Task,
    TaskSet,
)

from tests.conftest import taskset_strategy


class TestTask:
    def test_basic_properties(self):
        t = Task(cost=2.0, period=10.0)
        assert t.utilization == pytest.approx(0.2)
        assert t.deadline == 10.0

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(ValueError):
            Task(cost=0.0, period=1.0)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            Task(cost=1.0, period=0.0)

    def test_rejects_utilization_above_one(self):
        with pytest.raises(ValueError):
            Task(cost=2.0, period=1.0)

    def test_full_utilization_allowed(self):
        t = Task(cost=5.0, period=5.0)
        assert t.utilization == pytest.approx(1.0)

    def test_is_light(self):
        t = Task(cost=4.0, period=10.0)
        assert t.is_light(0.41)
        assert not t.is_light(0.39)

    def test_scaled(self):
        t = Task(cost=2.0, period=10.0, tid=3, name="x")
        s = t.scaled(cost_scale=2.0)
        assert s.cost == 4.0
        assert s.period == 10.0
        assert s.tid == 3
        assert s.name == "x"

    def test_dict_roundtrip(self):
        t = Task(cost=1.5, period=7.0, tid=2, name="demo")
        assert Task.from_dict(t.to_dict()) == t


class TestSubtask:
    def test_whole_covers_task(self):
        t = Task(cost=3.0, period=9.0, tid=1)
        s = Subtask.whole(t)
        assert s.cost == 3.0
        assert s.deadline == 9.0
        assert s.kind is SubtaskKind.WHOLE
        assert s.priority == 1

    def test_rejects_deadline_beyond_period(self):
        t = Task(cost=1.0, period=5.0)
        with pytest.raises(ValueError):
            Subtask(cost=1.0, period=5.0, deadline=6.0, parent=t)

    def test_rejects_bad_index(self):
        t = Task(cost=1.0, period=5.0)
        with pytest.raises(ValueError):
            Subtask(cost=1.0, period=5.0, deadline=5.0, parent=t, index=0)

    def test_zero_cost_subtask_allowed_as_value(self):
        # PendingPiece may probe zero-cost candidates; the value object
        # itself permits cost 0 (assignment to a processor does not).
        t = Task(cost=1.0, period=5.0)
        s = Subtask(cost=0.0, period=5.0, deadline=5.0, parent=t)
        assert s.utilization == 0.0

    def test_label_shows_kind(self):
        t = Task(cost=2.0, period=5.0, tid=3, name="tau3")
        body = Subtask(
            cost=1.0, period=5.0, deadline=5.0, parent=t, index=1,
            kind=SubtaskKind.BODY,
        )
        assert "body" in body.label()


class TestTaskSetOrdering:
    def test_sorted_by_period(self):
        ts = TaskSet([Task(cost=1, period=20), Task(cost=1, period=5)])
        assert [t.period for t in ts] == [5, 20]

    def test_tids_are_priorities(self):
        ts = TaskSet([Task(cost=1, period=20), Task(cost=1, period=5)])
        assert [t.tid for t in ts] == [0, 1]

    def test_ties_broken_by_input_order(self):
        ts = TaskSet(
            [Task(cost=1, period=5, name="a"), Task(cost=2, period=5, name="b")]
        )
        assert ts[0].name == "a"
        assert ts[1].name == "b"

    def test_names_preserved_or_generated(self):
        ts = TaskSet([Task(cost=1, period=5, name="keep"), Task(cost=1, period=6)])
        assert ts[0].name == "keep"
        assert ts[1].name == "tau1"


class TestTaskSetAggregates:
    def test_total_utilization(self, harmonic_set):
        assert harmonic_set.total_utilization == pytest.approx(1.125)

    def test_normalized_utilization(self, harmonic_set):
        assert harmonic_set.normalized_utilization(3) == pytest.approx(0.375)

    def test_max_utilization(self, harmonic_set):
        assert harmonic_set.max_utilization == pytest.approx(0.375)

    def test_array_views_aligned(self, general_set):
        u = general_set.utilizations()
        c = general_set.costs()
        p = general_set.periods()
        assert u == pytest.approx(c / p)

    def test_is_light(self, harmonic_set):
        assert harmonic_set.is_light(0.4)
        assert not harmonic_set.is_light(0.2)


class TestTaskSetStructure:
    def test_harmonic_detection(self, harmonic_set, general_set):
        assert harmonic_set.is_harmonic()
        assert not general_set.is_harmonic()

    def test_single_task_is_harmonic(self):
        assert TaskSet([Task(cost=1, period=3)]).is_harmonic()

    def test_hyperperiod_integers(self, harmonic_set):
        assert harmonic_set.hyperperiod() == 32.0

    def test_hyperperiod_none_for_irrational(self):
        ts = TaskSet([Task(cost=1, period=3.14159), Task(cost=1, period=7.0)])
        assert ts.hyperperiod() is None

    def test_hyperperiod_lcm(self):
        ts = TaskSet.from_pairs([(1, 4), (1, 6)])
        assert ts.hyperperiod() == 12.0


class TestTaskSetTransforms:
    def test_scaled_costs(self, harmonic_set):
        scaled = harmonic_set.scaled_costs(0.5)
        assert scaled.total_utilization == pytest.approx(0.5625)
        assert [t.period for t in scaled] == [t.period for t in harmonic_set]

    def test_scaled_costs_rejects_infeasible(self, harmonic_set):
        with pytest.raises(ValueError):
            harmonic_set.scaled_costs(5.0)

    def test_without(self, harmonic_set):
        smaller = harmonic_set.without([0])
        assert len(smaller) == 3
        # tids are re-assigned after removal
        assert [t.tid for t in smaller] == [0, 1, 2]

    def test_subset(self, harmonic_set):
        sub = harmonic_set.subset([1, 3])
        assert len(sub) == 2

    def test_dict_roundtrip(self, general_set):
        again = TaskSet.from_dicts(general_set.to_dicts())
        assert again == general_set

    def test_equality_and_hash(self, harmonic_set):
        other = TaskSet.from_pairs([(1, 4), (2, 8), (6, 16), (8, 32)])
        assert other == harmonic_set
        assert hash(other) == hash(harmonic_set)


class TestSplitTaskView:
    def _task(self):
        return Task(cost=6.0, period=12.0, tid=0)

    def test_single_whole_piece_consistent(self):
        t = self._task()
        view = SplitTaskView(task=t, pieces=[Subtask.whole(t)])
        assert view.is_consistent()

    def test_valid_split_consistent(self):
        t = self._task()
        body = Subtask(cost=2.0, period=12.0, deadline=12.0, parent=t,
                       index=1, kind=SubtaskKind.BODY)
        tail = Subtask(cost=4.0, period=12.0, deadline=10.0, parent=t,
                       index=2, kind=SubtaskKind.TAIL)
        view = SplitTaskView(task=t, pieces=[tail, body])
        assert view.is_consistent()
        assert view.body_cost == pytest.approx(2.0)
        assert view.sorted_pieces()[0] is body

    def test_cost_mismatch_inconsistent(self):
        t = self._task()
        body = Subtask(cost=2.0, period=12.0, deadline=12.0, parent=t,
                       index=1, kind=SubtaskKind.BODY)
        tail = Subtask(cost=3.0, period=12.0, deadline=10.0, parent=t,
                       index=2, kind=SubtaskKind.TAIL)
        assert not SplitTaskView(task=t, pieces=[body, tail]).is_consistent()

    def test_wrong_tail_deadline_inconsistent(self):
        t = self._task()
        body = Subtask(cost=2.0, period=12.0, deadline=12.0, parent=t,
                       index=1, kind=SubtaskKind.BODY)
        tail = Subtask(cost=4.0, period=12.0, deadline=12.0, parent=t,
                       index=2, kind=SubtaskKind.TAIL)
        assert not SplitTaskView(task=t, pieces=[body, tail]).is_consistent()

    def test_gap_in_indices_inconsistent(self):
        t = self._task()
        body = Subtask(cost=2.0, period=12.0, deadline=12.0, parent=t,
                       index=1, kind=SubtaskKind.BODY)
        tail = Subtask(cost=4.0, period=12.0, deadline=10.0, parent=t,
                       index=3, kind=SubtaskKind.TAIL)
        assert not SplitTaskView(task=t, pieces=[body, tail]).is_consistent()

    def test_empty_view_inconsistent(self):
        assert not SplitTaskView(task=self._task()).is_consistent()


class TestTaskSetProperties:
    @given(taskset_strategy(max_tasks=8))
    def test_priority_order_invariant(self, ts):
        periods = [t.period for t in ts]
        assert periods == sorted(periods)
        assert [t.tid for t in ts] == list(range(len(ts)))

    @given(taskset_strategy(max_tasks=8))
    def test_total_utilization_is_sum(self, ts):
        assert ts.total_utilization == pytest.approx(
            sum(t.utilization for t in ts)
        )

    @given(taskset_strategy(max_tasks=6), st.floats(min_value=0.1, max_value=1.0))
    def test_scaling_scales_utilization(self, ts, factor):
        scaled = ts.scaled_costs(factor)
        assert scaled.total_utilization == pytest.approx(
            ts.total_utilization * factor
        )


class TestValueObjectContract:
    """``Task`` and ``Subtask`` use hand-written constructors; they keep the
    dataclass contract: the same checks and messages, frozen fields,
    eq/hash/repr, ``dataclasses.replace`` and pickling."""

    NAN = float("nan")

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(cost=0.0, period=1.0), "cost must be positive, got 0.0"),
            (dict(cost=-1.0, period=1.0), "cost must be positive, got -1.0"),
            (dict(cost=1.0, period=0.0), "period must be positive, got 0.0"),
            (dict(cost=NAN, period=1.0), "cost must be positive, got nan"),
            (dict(cost=1.0, period=NAN), "period must be positive, got nan"),
            (
                dict(cost=2.0, period=1.0),
                "task utilization exceeds 1: C=2.0 > T=1.0",
            ),
        ],
    )
    def test_task_error_messages(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            Task(**kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(cost=-1.0), "cost must be non-negative, got -1.0"),
            (dict(period=0.0), "period must be positive, got 0.0"),
            (dict(period=NAN), "period must be positive, got nan"),
            (dict(deadline=0.0), "deadline must be positive, got 0.0"),
            (dict(deadline=NAN), "deadline must be positive, got nan"),
            (dict(deadline=6.0), "synthetic deadline cannot exceed the period"),
            (dict(index=0), "subtask index starts at 1"),
        ],
    )
    def test_subtask_error_messages(self, kwargs, message):
        fields = dict(
            cost=1.0, period=5.0, deadline=5.0, parent=Task(cost=1.0, period=5.0)
        )
        fields.update(kwargs)
        with pytest.raises(ValueError) as err:
            Subtask(**fields)
        assert str(err.value) == message

    def test_nan_subtask_cost_is_accepted_as_before(self):
        # check_nonnegative semantics: NaN is not < 0.
        t = Task(cost=1.0, period=5.0)
        s = Subtask(cost=self.NAN, period=5.0, deadline=5.0, parent=t)
        assert s.cost != s.cost

    def test_positional_and_default_arguments(self):
        t = Task(2.0, 10.0)
        assert (t.tid, t.name) == (0, "")
        s = Subtask(1.0, 10.0, 8.0, t)
        assert (s.index, s.kind) == (1, SubtaskKind.WHOLE)
        with pytest.raises(TypeError):
            Task(1.0)  # type: ignore[call-arg]

    def test_assignment_raises_frozen_instance_error(self):
        t = Task(cost=1.0, period=5.0, tid=2, name="x")
        s = Subtask(cost=1.0, period=5.0, deadline=4.0, parent=t, index=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.cost = 2.0  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.deadline = 3.0  # type: ignore[misc]

    def test_eq_hash_repr(self):
        t = Task(cost=1.0, period=5.0, tid=2, name="x")
        assert t == Task(1.0, 5.0, 2, "x")
        assert hash(t) == hash(Task(1.0, 5.0, 2, "x"))
        assert t != Task(1.0, 5.0, 3, "x")
        assert repr(t) == "Task(cost=1.0, period=5.0, tid=2, name='x')"
        s = Subtask(1.0, 5.0, 4.0, t, 2, SubtaskKind.TAIL)
        assert s == Subtask(1.0, 5.0, 4.0, t, 2, SubtaskKind.TAIL)
        assert len({s, Subtask(1.0, 5.0, 4.0, t, 2, SubtaskKind.TAIL)}) == 1
        assert repr(s) == (
            "Subtask(cost=1.0, period=5.0, deadline=4.0, parent="
            "Task(cost=1.0, period=5.0, tid=2, name='x'), index=2, "
            "kind=<SubtaskKind.TAIL: 'tail'>)"
        )

    def test_replace_round_trips_and_validates(self):
        t = Task(cost=1.0, period=5.0, tid=2, name="x")
        assert dataclasses.replace(t, tid=4) == Task(1.0, 5.0, 4, "x")
        s = Subtask(1.0, 5.0, 4.0, t, 2, SubtaskKind.TAIL)
        assert dataclasses.replace(s, cost=2.0) == Subtask(
            2.0, 5.0, 4.0, t, 2, SubtaskKind.TAIL
        )
        with pytest.raises(ValueError, match="cannot exceed the period"):
            dataclasses.replace(s, deadline=9.0)

    def test_pickle_round_trips(self):
        t = Task(cost=1.0, period=5.0, tid=2, name="x")
        s = Subtask(1.0, 5.0, 4.0, t, 2, SubtaskKind.BODY)
        for value in (t, s):
            back = pickle.loads(pickle.dumps(value))
            assert back == value
            assert hash(back) == hash(value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                back.cost = 3.0  # type: ignore[misc]
