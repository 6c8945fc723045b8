"""Property tests: the incremental RTA context vs the one-shot analysis.

The cached-context admission path (`RTAContext.admits`, `insert` and
its copying form `with_subtask`, lazy deferred resolution, the
context-fed MaxSplit variants) must be
*decision- and value-identical* to the from-scratch references
(`is_schedulable`, `response_times`, context-free `max_split_points` /
`max_split_binary`).  These tests drive both on randomized processors —
random seeds come from hypothesis, the processor contents from a NumPy
generator derived from them, so failures replay exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maxsplit import max_split_binary, max_split_points
from repro.core.partition import PendingPiece, ProcessorState
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
from repro.taskgen.generators import TaskSetGenerator

GOLDEN = Path(__file__).parent / "data" / "partition_golden.json"

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

    @pytest.mark.parametrize(
        "existing,candidate,expected",
        [
            # The candidate's fixed point lies within EPS above 2*T of the
            # hp task, below the fluid bound C/(1-U_hp).
            (
                [(10.206960085452963, 16.95528108340034, 15.50607571192284, 0)],
                (13.49664201, 40.55554677788712, 40.55554677788712, 1),
                True,
            ),
            # A suffix task's warm start lands just below a job boundary
            # of the T=41.7155 task and its first step just above it.
            (
                [
                    (2.507016590228472, 25.963788489316364, 20.731061182990924, 0),
                    (19.519792672653843, 41.71549648471451, 41.71549648471451, 2),
                    (2.721106030371913, 32.441169138900804, 32.441169138900804, 4),
                    (9.20265946996096, 42.60396766495565, 42.60396766495565, 6),
                ],
                (0.36239987752, 6.0008948183451665, 6.0008948183451665, -1),
                False,
            ),
        ],
        ids=["fluid-start", "suffix-start"],
    )
    def test_admits_at_job_boundaries(self, existing, candidate, expected):
        """Warm starts near a job boundary give the cold iteration's
        verdict."""

        def sub(cost, period, deadline, tid):
            task = Task(cost=cost, period=period, tid=tid)
            return Subtask(cost=cost, period=period, deadline=deadline, parent=task)

        subs = [sub(*row) for row in existing]
        cand = sub(*candidate)
        assert is_schedulable(subs + [cand]) is expected
        assert RTAContext(subs).admits_subtask(cand) is expected

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
        """MaxSplit-style probing (one candidate shape, shrinking cost)
        memoizes the last admitted cost; committing that cost must equal
        a fresh build exactly."""
        subs = random_subtasks(seed)
        candidate = random_candidate(seed, len(subs))
        ctx = RTAContext(subs)
        cost = candidate.cost
        for _ in range(20):
            if ctx.admits(
                cost, candidate.period, candidate.deadline, candidate.priority
            ):
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


CONTEXT_SCALARS = ("util_sum", "implicit", "rm_ordered", "hyper_prod", "first_fail")
CONTEXT_LISTS = ("costs", "periods", "deadlines", "ratios", "prio_list", "responses")


def context_state(ctx):
    """Every field of a context; lists and the memo by ``repr``, which
    snapshots them and compares NaN slots as equal."""
    state = {name: getattr(ctx, name) for name in CONTEXT_SCALARS}
    for name in CONTEXT_LISTS:
        state[name] = repr(getattr(ctx, name))
    state["memo"] = repr(ctx._memo)
    return state


class TestInPlaceContext:
    """``ProcessorState.add`` extends its context in place through
    ``RTAContext.insert``; ``with_subtask`` is the same insert on a copy.
    Both must stay equal field for field along any add/remove history."""

    @given(seed=seeds)
    @settings(max_examples=120, deadline=None)
    def test_add_remove_sequences_match_the_copying_chain(self, seed):
        rng = np.random.default_rng(seed + 99)
        pool = random_subtasks(seed, n=10)
        proc = ProcessorState(index=0)
        proc.rta_context()  # from here on, every add extends it in place
        chain = RTAContext([])
        for _ in range(int(rng.integers(4, 24))):
            hosted = {s.parent.tid for s in proc.subtasks}
            free = [s for s in pool if s.parent.tid not in hosted]
            if hosted and (not free or rng.random() < 0.25):
                tid = sorted(hosted)[int(rng.integers(0, len(hosted)))]
                proc.remove_parent(tid)
                proc.rta_context()
                chain = RTAContext(proc.subtasks)
            else:
                sub = free[int(rng.integers(0, len(free)))]
                if rng.random() < 0.7:
                    # Probe first: exercises the memo hit of the insert.
                    verdict = proc.schedulable_with(sub)
                    assert verdict == is_schedulable(proc.subtasks + [sub])
                    assert chain.admits_subtask(sub) == verdict
                before = context_state(chain)
                grown = chain.with_subtask(sub)
                assert context_state(chain) == before, "source mutated"
                for name in CONTEXT_LISTS:
                    assert getattr(grown, name) is not getattr(chain, name), name
                proc.add(sub)
                chain = grown
            live = proc._ctx
            assert live is not None
            assert context_state(live) == context_state(chain)
            assert live.prios.tolist() == live.prio_list
            if rng.random() < 0.3:
                # Settle both the same way and compare with a fresh build;
                # otherwise deferred slots carry over to later steps.
                assert_same_context(live, RTAContext(proc.subtasks))
                settle(chain)
        assert_same_context(proc.rta_context(), RTAContext(proc.subtasks))

    @given(seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_empty_build_grows_like_a_fresh_build(self, seed):
        """The empty processor's context (built by a shortcut) grows into
        the same state as fresh builds of its contents."""
        ctx = RTAContext([])
        assert ctx.schedulable and ctx.utilization == 0.0 and len(ctx) == 0
        subs = random_subtasks(seed)
        for k, sub in enumerate(subs, start=1):
            ctx.insert(sub)
            assert_same_context(ctx, RTAContext(subs[:k]))

    def test_insert_consumes_the_probe_memo(self):
        def sub(cost, period, deadline, tid):
            task = Task(cost=cost, period=period, tid=tid)
            return Subtask(cost=cost, period=period, deadline=deadline, parent=task)

        ctx = RTAContext([sub(1.0, 4.0, 4.0, 0), sub(1.0, 6.0, 5.0, 2)])
        # Constrained deadline: no hyperbolic accept, so the exact probe
        # memoizes its merged responses.
        candidate = sub(1.0, 10.0, 9.0, 4)
        assert ctx.admits_subtask(candidate)
        assert ctx._memo is not None
        copy = ctx.with_subtask(candidate)
        assert ctx._memo is not None  # the source keeps its memo
        assert copy._memo is None and copy.responses is not ctx._memo[4]
        ctx.insert(candidate)
        assert ctx._memo is None
        assert context_state(ctx) == context_state(copy)
        assert ctx.first_fail == -1
        assert ctx.responses == [1.0, 2.0, 3.0]


def random_processor(seed: int):
    """Existing contents for MaxSplit: 1-6 subtasks at total utilization
    below 0.9, a share of them constrained-deadline pieces (D < T)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    utils = rng.dirichlet(np.ones(n)) * rng.uniform(0.2, 0.9)
    subs = []
    for tid, u in enumerate(utils):
        period = float(rng.uniform(4.0, 64.0))
        cost = max(float(u) * period, 1e-3)
        deadline = period
        if rng.random() < 0.4:
            deadline = float(min(period, max(cost, rng.uniform(0.6, 1.0) * period)))
        task = Task(cost=cost, period=period, tid=2 * tid)
        subs.append(
            Subtask(cost=cost, period=period, deadline=deadline, parent=task)
        )
    return subs


def random_piece(seed: int, n_existing: int, below_top: bool) -> PendingPiece:
    """A pending piece at any priority slot (odd tid), or strictly below
    the top existing subtask when *below_top* (the RM-TS phase-3 shape);
    half of them are tails of an earlier split, so their synthetic
    deadline ``T - body_response`` is below the period."""
    rng = np.random.default_rng(seed + 4242)
    period = float(rng.uniform(4.0, 64.0))
    total = float(rng.uniform(0.1, 0.9) * period)
    low = 1 if below_top else 0
    task = Task(
        cost=total,
        period=period,
        tid=2 * int(rng.integers(low, n_existing + 1)) - 1,
    )
    if rng.random() < 0.5:
        return PendingPiece.of(task)
    body = float(rng.uniform(0.1, 0.5) * total)
    return PendingPiece(
        task=task,
        cost=total - body,
        index=2,
        body_cost=body,
        body_response=body * float(rng.uniform(1.0, 1.5)),
    )


def wide_processor(seed: int):
    """MaxSplit contents for the scalar screens: 1-12 subtasks in RM
    order with log-uniform periods spanning a ratio of up to 100, a share
    of them constrained-deadline pieces, and a pending piece placed above
    all of them (up to 12 lower-priority constraints) or at a random
    slot; half of the pieces are tails."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    ratio = float(rng.uniform(1.5, 100.0))
    utils = rng.dirichlet(np.ones(n)) * rng.uniform(0.2, 0.8)
    periods = np.sort(np.exp(rng.uniform(0.0, np.log(ratio), n))) * 4.0
    subs = []
    for tid, (u, period) in enumerate(zip(utils, periods)):
        period = float(period)
        cost = max(float(u) * period, 1e-3)
        deadline = period
        if rng.random() < 0.3:
            deadline = float(min(period, max(cost, rng.uniform(0.7, 1.0) * period)))
        task = Task(cost=cost, period=period, tid=2 * tid)
        subs.append(
            Subtask(cost=cost, period=period, deadline=deadline, parent=task)
        )
    period = float(np.exp(rng.uniform(0.0, np.log(ratio))) * 4.0)
    slot = 0 if rng.random() < 0.5 else int(rng.integers(0, n + 1))
    task = Task(
        cost=float(rng.uniform(0.05, 0.6)) * period,
        period=period,
        tid=2 * slot - 1,
    )
    if rng.random() < 0.5:
        return subs, PendingPiece.of(task)
    body = float(rng.uniform(0.05, 0.4)) * task.cost
    return subs, PendingPiece(
        task=task,
        cost=task.cost - body,
        index=2,
        body_cost=body,
        body_response=body,
    )


class TestMaxSplitContextMatchesReference:
    """Both MaxSplit variants return the same float with a context as the
    context-free reference that re-analyzes every probe from scratch."""

    @given(seed=seeds, below_top=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_points(self, seed, below_top):
        subs = random_processor(seed)
        piece = random_piece(seed, len(subs), below_top)
        expected = max_split_points(subs, piece)
        assert max_split_points(subs, piece, context=RTAContext(subs)) == expected

    @given(seed=seeds, below_top=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_binary(self, seed, below_top):
        subs = random_processor(seed)
        piece = random_piece(seed, len(subs), below_top)
        expected = max_split_binary(subs, piece)
        assert max_split_binary(subs, piece, context=RTAContext(subs)) == expected

    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_points_on_wide_processors(self, seed):
        """Many lower-priority pieces and period ratios up to 100: the
        scalar screens of the context path face long constraint lists."""
        subs, piece = wide_processor(seed)
        expected = max_split_points(subs, piece)
        assert max_split_points(subs, piece, context=RTAContext(subs)) == expected

    @given(seed=seeds, delta=st.sampled_from([1e-4, 1e-9, 1e-12, 0.0, -1e-12]))
    @settings(max_examples=200, deadline=None)
    def test_points_with_the_cost_at_the_binding_cap(self, seed, delta):
        """The piece's cost sits at, or a hair off, the cap of its binding
        constraint: there the screen's margin decides whether that
        constraint is evaluated, and a screen that skipped it wrongly
        would return the cost instead of the cap."""
        subs, piece = wide_processor(seed)
        cap = max_split_points(subs, replace(piece, cost=piece.task.period))
        if not 0.0 < cap < piece.task.period:
            return
        at_cap = replace(piece, cost=cap * (1.0 + delta))
        expected = max_split_points(subs, at_cap)
        assert max_split_points(subs, at_cap, context=RTAContext(subs)) == expected

    def test_own_deadline_binds_at_the_top(self):
        """A top-priority tail whose synthetic deadline is below its cost:
        the own constraint (no hp set, the lone point t = Delta) binds."""
        task = Task(cost=9.0, period=10.0, tid=0)
        piece = PendingPiece(
            task=task, cost=5.0, index=2, body_cost=4.0, body_response=6.0
        )
        low = Task(cost=0.1, period=100.0, tid=1)
        subs = [Subtask(cost=0.1, period=100.0, deadline=100.0, parent=low)]
        assert max_split_points(subs, piece) == piece.deadline == 4.0
        assert max_split_points(subs, piece, context=RTAContext(subs)) == 4.0


def partition_fingerprint(result):
    """``success``, ``unassigned_tids`` and a sha256 over the ``repr`` of
    every processor's ``(cost, period, deadline, priority)`` tuples."""
    rows = [
        [(s.cost, s.period, s.deadline, s.priority) for s in p.subtasks]
        for p in result.processors
    ]
    return {
        "success": result.success,
        "unassigned_tids": list(result.unassigned_tids),
        "sha256": hashlib.sha256(repr(rows).encode()).hexdigest(),
    }


class TestEndToEndPartitionEquality:
    """Partitions are pinned to a golden record.

    ``data/partition_golden.json`` was recorded at commit d3fcd90, the
    last revision with the rebuild-per-probe admission path, after
    asserting that both admission paths gave the same partition on every
    case.  Any change to the cached path that moves one float of one
    partition fails here.
    """

    algorithms = [
        ("rmts", lambda ts, m: partition_rmts(ts, m)),
        ("rmts_star", lambda ts, m: partition_rmts(ts, m, dedicate_over_bound=False)),
        ("rmts_light", lambda ts, m: partition_rmts_light(ts, m)),
        ("p_rm_ffd", lambda ts, m: partition_no_split(ts, m)),
    ]

    @pytest.mark.parametrize("name,algo", algorithms, ids=[a[0] for a in algorithms])
    def test_partitions_identical(self, name, algo):
        golden = json.loads(GOLDEN.read_text())
        gen = TaskSetGenerator(n=12, period_model="loguniform")
        for seed in range(8):
            for u_norm in (0.7, 0.85, 0.97):
                ts = gen.generate(u_norm=u_norm, processors=4, seed=seed)
                key = f"{name}/seed={seed}/u={u_norm}"
                assert partition_fingerprint(algo(ts, 4)) == golden[key], key
