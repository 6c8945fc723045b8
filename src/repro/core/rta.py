"""Exact response-time analysis (RTA) for fixed-priority uniprocessor
scheduling with constrained (synthetic) deadlines.

This is the admission test at the heart of both ``RM-TS/light`` and
``RM-TS`` (Section IV-A): a (sub)task ``tau_i^k`` fits on a processor iff
after adding it, *every* (sub)task ``tau_j^h`` on that processor has a
worst-case response time ``R_j^h <= Delta_j^h``.

Soundness of plain periodic interference terms.  Split subtasks are released
with a *constant* offset relative to the parent release: a body subtask has
the highest priority on its host processor (Lemma 2), so its response time
equals its execution time on every job, making the ready time of the next
piece a deterministic shift.  A constant shift keeps the arrival sequence
strictly periodic, so the classic critical-instant interference bound
``ceil(R / T_j) * C_j`` is exact here, and the synthetic deadline absorbs
the shift for the analyzed task itself.

Implementation notes: the fixed-point iteration is the hot path of every
acceptance-ratio sweep, so it runs on flat ``(C, T)`` columns of the
higher-priority set — no Python object traffic inside the loop.  Up to
:data:`_SCALAR_MAX` interfering tasks (virtually every processor in the
paper's experiments) the columns are plain float lists iterated in scalar
Python; longer sets take a vectorized NumPy loop.  The iteration starts
from the standard lower bound ``C_i + sum(C_hp)`` and aborts as soon as
the response exceeds the deadline.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import ceil, inf, isnan, nan
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._util.floats import EPS
from repro._util.invariants import check_response_monotonicity, invariants_enabled
from repro.core.task import Subtask
from repro.obs import metrics as _obs_metrics
from repro.perf.telemetry import COUNTERS

__all__ = [
    "response_time",
    "response_times",
    "is_schedulable",
    "RTAResult",
    "RTAContext",
    "rta_arrays",
    "first_failure",
    "utilization_headroom",
    "hyperbolic_bound_holds",
    "liu_layland_test_holds",
]

#: Hard cap on fixed-point iterations; with U <= 1 the iteration converges in
#: far fewer steps, this only guards against pathological float cycles.
_MAX_ITER = 10_000

#: Below this hp-set size the fixed point iterates in scalar Python —
#: NumPy's per-call dispatch costs ~10x the actual arithmetic there.  The
#: threshold is deliberately generous: a processor in the paper's
#: experiments hosts a handful of subtasks, so virtually every call takes
#: the scalar path, and the crossover versus the vectorized loop lies well
#: above 16 interfering tasks.
_SCALAR_MAX = 16


#: A ``(C, T)`` column of the higher-priority set: a float list on the
#: incremental path, a 1-D array on the from-scratch path.
_Column = Union[Sequence[float], np.ndarray]

#: Probe memo: ``(cost, period, deadline, priority, merged responses)``.
_Memo = Tuple[float, float, float, int, List[float]]


def response_time(
    cost: float,
    hp_costs: _Column,
    hp_periods: _Column,
    deadline: float,
    *,
    start: Optional[float] = None,
) -> Optional[float]:
    """Worst-case response time of one task under the given hp interference.

    Parameters
    ----------
    cost:
        Execution time of the analyzed (sub)task.
    hp_costs, hp_periods:
        Execution times and periods of strictly higher-priority (sub)tasks
        sharing the processor, as float lists or 1-D arrays (same values,
        same result).
    deadline:
        The analyzed task's (synthetic) deadline; the iteration aborts and
        returns ``None`` as soon as the response exceeds it (no useful exact
        value beyond that point for admission purposes).
    start:
        Optional warm start.  Sound whenever it is a lower bound on the
        least fixed point — e.g. the task's response time under a *subset*
        of the interference (the iteration map is monotone, so any fixed
        point of the smaller map is a pre-fixed point of the larger one and
        the iteration still converges to the same least fixed point,
        producing the identical float value).  A warm start usually sits a
        hair below its target, so the first step lands within ``EPS``
        above it; that value is returned only after one uncounted check
        that it maps to itself.  Without the check a job boundary lying
        between the start and the target would be skipped, and the result
        would differ from the cold iteration's.

    Returns
    -------
    The smallest fixed point ``R = C + sum(ceil(R/T_j) C_j)`` if it is at
    most ``deadline`` (up to tolerance), else ``None``.
    """
    COUNTERS.rta_calls += 1
    if cost <= 0:
        return 0.0
    n = len(hp_costs)
    if n == 0:
        return cost if cost <= deadline + EPS else None
    if n <= _SCALAR_MAX:
        # Scalar fixed point: NumPy's per-call dispatch overhead dwarfs the
        # actual arithmetic at the hp-set sizes that dominate partitioning
        # (a handful of subtasks per processor), so the same iteration runs
        # roughly an order of magnitude faster on plain Python floats.
        cs = hp_costs.tolist() if isinstance(hp_costs, np.ndarray) else hp_costs
        ps = (
            hp_periods.tolist()
            if isinstance(hp_periods, np.ndarray)
            else hp_periods
        )
        r = cost
        for c in cs:  # standard warm start: one job of each
            r += c
        warm = start is not None and start > r
        if warm:
            r = start
        bound = deadline * (1.0 + 1e-12) + EPS
        iterations = 0
        for _ in range(_MAX_ITER):
            if r > bound:
                COUNTERS.rta_iterations += iterations
                if _obs_metrics.ENABLED:
                    _obs_metrics.RTA_ITERATIONS.observe(iterations)
                return None
            iterations += 1
            r_new = cost
            for c, t in zip(cs, ps):
                r_new += ceil(r / t - EPS) * c
            if r_new <= r + EPS:
                if warm and r_new > r:
                    r_chk = cost
                    for c, t in zip(cs, ps):
                        r_chk += ceil(r_new / t - EPS) * c
                    if r_chk > r_new:
                        r = r_new
                        continue
                COUNTERS.rta_iterations += iterations
                if _obs_metrics.ENABLED:
                    _obs_metrics.RTA_ITERATIONS.observe(iterations)
                return r_new if r_new <= bound else None  # repro-lint: disable=R1 (bound pre-inflated by EPS above)
            r = r_new
        raise RuntimeError("RTA fixed point failed to converge")
    hp_costs = np.asarray(hp_costs, dtype=float)
    hp_periods = np.asarray(hp_periods, dtype=float)
    r = cost + float(hp_costs.sum())  # standard warm start: one job of each
    warm = start is not None and start > r
    if warm:
        r = start
    bound = deadline * (1.0 + 1e-12) + EPS
    iterations = 0
    for _ in range(_MAX_ITER):
        if r > bound:
            COUNTERS.rta_iterations += iterations
            if _obs_metrics.ENABLED:
                _obs_metrics.RTA_ITERATIONS.observe(iterations)
            return None
        # interference: ceil(r / T_j) * C_j, vectorized over the hp set.
        iterations += 1
        jobs = np.ceil(r / hp_periods - EPS)
        r_new = cost + float(np.dot(jobs, hp_costs))
        if r_new <= r + EPS:
            if warm and r_new > r:
                jobs = np.ceil(r_new / hp_periods - EPS)
                if cost + float(np.dot(jobs, hp_costs)) > r_new:
                    r = r_new
                    continue
            COUNTERS.rta_iterations += iterations
            if _obs_metrics.ENABLED:
                _obs_metrics.RTA_ITERATIONS.observe(iterations)
            return r_new if r_new <= bound else None  # repro-lint: disable=R1 (bound pre-inflated by EPS above)
        r = r_new
    raise RuntimeError("RTA fixed point failed to converge")


def rta_arrays(
    subtasks: Sequence[Subtask],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decompose *subtasks* into ``(costs, periods, deadlines, priorities)``
    arrays sorted by priority (highest first).

    The sort key is the parent task id, which equals the RMS priority by
    :class:`repro.core.task.TaskSet` construction.
    """
    order = sorted(range(len(subtasks)), key=lambda i: subtasks[i].priority)
    costs = np.array([subtasks[i].cost for i in order], dtype=float)
    periods = np.array([subtasks[i].period for i in order], dtype=float)
    deadlines = np.array([subtasks[i].deadline for i in order], dtype=float)
    prios = np.array([subtasks[i].priority for i in order], dtype=int)
    return costs, periods, deadlines, prios


@dataclass(frozen=True)
class RTAResult:
    """Outcome of analyzing one processor's subtask list.

    ``responses[i]`` is the response time of the i-th subtask in priority
    order, or ``nan`` when the subtask is unschedulable (response exceeds
    its synthetic deadline).  ``schedulable`` is True iff no entry is nan.
    """

    schedulable: bool
    responses: np.ndarray
    deadlines: np.ndarray

    @property
    def slacks(self) -> np.ndarray:
        """``Delta - R`` per subtask (nan where unschedulable)."""
        return self.deadlines - self.responses


def response_times(subtasks: Sequence[Subtask]) -> RTAResult:
    """Exact RTA of every subtask sharing one processor.

    Subtasks are analyzed in priority order; each one's interference set is
    all strictly-higher-priority subtasks on the processor.  Equal priorities
    cannot occur (one task contributes at most one subtask per processor and
    tids are unique).
    """
    costs, periods, deadlines, prios = rta_arrays(subtasks)
    n = costs.size
    responses = np.full(n, np.nan)
    ok = True
    for i in range(n):
        r = response_time(costs[i], costs[:i], periods[:i], deadlines[i])
        if r is None:
            ok = False
        else:
            responses[i] = r
    if invariants_enabled():
        check_response_monotonicity(responses, deadlines)
    return RTAResult(schedulable=ok, responses=responses, deadlines=deadlines)


def is_schedulable(subtasks: Sequence[Subtask]) -> bool:
    """Whether every subtask on the processor meets its synthetic deadline.

    Short-circuits on the first failure (cheaper than
    :func:`response_times` inside partitioning loops).  Also applies the
    necessary utilization condition ``sum U <= 1`` up front.
    """
    if not subtasks:
        return True
    costs, periods, deadlines, _ = rta_arrays(subtasks)
    if float((costs / periods).sum()) > 1.0 + EPS:
        return False
    for i in range(costs.size):
        if response_time(costs[i], costs[:i], periods[:i], deadlines[i]) is None:
            return False
    return True


def _pairwise_sum(xs: Sequence[float]) -> float:
    """``float(np.asarray(xs, dtype=float).sum())`` on a Python list,
    bit for bit.

    NumPy reduces a contiguous float64 array by pairwise summation: below
    8 elements a plain left-to-right loop, up to 128 an 8-way unrolled
    accumulation whose partial sums are combined as a balanced tree (the
    remainder added last), and above that a split into two halves at a
    multiple of 8.  Plain ``sum`` rounds differently once ``n >= 8`` (and
    compensates on Python 3.12+), so every reduction the context shares
    with the array-based from-scratch analysis goes through this replica
    (property-tested against NumPy in ``tests/core/test_rta_incremental.py``).
    """
    n = len(xs)
    if n < 8:
        res = 0.0
        for x in xs:
            res += x
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = xs[:8]
        stop = n - n % 8
        for i in range(8, stop, 8):
            r0 += xs[i]
            r1 += xs[i + 1]
            r2 += xs[i + 2]
            r3 += xs[i + 3]
            r4 += xs[i + 4]
            r5 += xs[i + 5]
            r6 += xs[i + 6]
            r7 += xs[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(stop, n):
            res += xs[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


class RTAContext:
    """Cached analysis context for one processor's *fixed* subtask list.

    Holds the priority-sorted ``(C, T, Delta)`` columns plus the
    last-computed response times, so admission probes stop rebuilding and
    re-sorting per candidate.  A probe against a candidate at sorted
    position ``pos`` reuses the cache twice (Section IV-A structure):

    * subtasks with **higher** priority than the candidate are untouched —
      their interference set is unchanged, so their cached responses remain
      exact and are not re-analyzed;
    * the candidate and every **lower**-priority subtask are re-iterated,
      each warm-started from its previous fixed point (a sound lower bound
      on the new one, see :func:`response_time`), which typically converges
      in one or two iterations.

    The columns are plain Python float lists (``responses`` uses NaN for
    "not computed"): a processor hosts a handful of subtasks, where NumPy's
    per-call dispatch costs more than the arithmetic.  All arithmetic uses
    the same prefixes, iteration order and reductions as
    :func:`is_schedulable` on the merged list — sums go through
    :func:`_pairwise_sum`, NumPy's own summation order — so decisions and
    response values are bit-identical to the rebuild-from-scratch path
    (property-tested in ``tests/core/test_rta_incremental.py``).

    A context is owned by one
    :class:`~repro.core.partition.ProcessorState`, which extends it in
    place through :meth:`insert` on every ``add`` and drops it on any
    other mutation of the subtask list; :meth:`with_subtask` is the
    copying form for callers that must keep the original.  Between
    mutations internal state only moves from "deferred" to "computed"
    (:meth:`_resolve`, the probe memo).
    """

    __slots__ = (
        "costs",
        "periods",
        "deadlines",
        "_prios",
        "ratios",
        "util_sum",
        "prio_list",
        "implicit",
        "rm_ordered",
        "hyper_prod",
        "responses",
        "first_fail",
        "_memo",
    )

    costs: List[float]
    periods: List[float]
    deadlines: List[float]
    _prios: Optional[np.ndarray]
    ratios: List[float]
    util_sum: float
    prio_list: List[int]
    implicit: bool
    rm_ordered: bool
    hyper_prod: float
    responses: List[float]
    first_fail: int
    _memo: Optional[_Memo]

    def __init__(self, subtasks: Sequence[Subtask]) -> None:
        if not subtasks:
            # The common build — a processor's first probe — set directly:
            # the state the general path below reaches for no subtasks.
            self.costs, self.periods, self.deadlines = [], [], []
            self.ratios, self.prio_list, self.responses = [], [], []
            self._prios = None
            self._memo = None
            self.util_sum = 0.0
            self.implicit = self.rm_ordered = True
            self.hyper_prod = 1.0
            self.first_fail = -1
            return
        # Stable sort on priority: the same order as :func:`rta_arrays`.
        ordered = sorted(subtasks, key=lambda s: s.priority)
        self.costs = costs = [float(s.cost) for s in ordered]
        self.periods = periods = [float(s.period) for s in ordered]
        self.deadlines = deadlines = [float(s.deadline) for s in ordered]
        self.prio_list = [s.priority for s in ordered]
        self._prios = None
        self._init_derived()
        n = len(costs)
        self.responses = [nan] * n
        # Index of the first subtask failing exact RTA, or a sentinel:
        # -1 schedulable, -2 the necessary utilization condition fails,
        # -3 analysis deferred (see :meth:`_resolve`).
        self.first_fail = -1
        if n and self.util_sum > 1.0 + EPS:
            self.first_fail = -2
            return
        for i in range(n):
            r = response_time(costs[i], costs[:i], periods[:i], deadlines[i])
            if r is None:
                self.first_fail = i
                break
            self.responses[i] = r

    def _init_derived(self) -> None:
        """Derived caches: per-subtask utilizations (the same IEEE
        quotients as ``costs / periods``, so their pairwise sum is
        float-identical to ``(costs / periods).sum()``) and the
        hyperbolic-bound state for the sufficient pre-accept."""
        periods = self.periods
        self.ratios = [c / t for c, t in zip(self.costs, periods)]
        self.util_sum = _pairwise_sum(self.ratios)
        self._memo = None
        # Bini-Buttazzo applies only when every (synthetic) deadline equals
        # its period, i.e. nothing on the processor has been split, AND the
        # priority order is rate monotonic.  Partitioning always satisfies
        # the latter (tids are assigned in RM order), but the context must
        # stay sound for arbitrary priority-consistent inputs.
        self.implicit = all(
            deadline == period  # repro-lint: disable=R1 (exact structural check: unsplit <=> D is literally T)
            for deadline, period in zip(self.deadlines, periods)
        )
        self.rm_ordered = all(a <= b for a, b in zip(periods, periods[1:]))
        prod = 1.0
        if self.implicit:
            # Sequential, like ``np.prod``'s multiply reduction.
            for u in self.ratios:
                prod *= 1.0 + u
        self.hyper_prod = prod if self.implicit else inf

    @property
    def prios(self) -> np.ndarray:
        """Priority array (lazy — the hot paths use :attr:`prio_list`)."""
        if self._prios is None:
            self._prios = np.array(self.prio_list, dtype=int)
        return self._prios

    def __len__(self) -> int:
        return len(self.costs)

    def _resolve(self) -> int:
        """Run the deferred exact RTA of any NaN response slots.

        Lazy extensions (:meth:`insert` on the general path) postpone
        the suffix re-analysis: a body subtask lands on a processor that is
        marked full right after, so the fixed points are usually never
        needed again.  When they are — a later probe, a schedulability
        query, partition validation — this fills the missing slots exactly
        like a fresh build would (same cold starts over the same
        prefixes, hence bit-identical values and failure index).
        """
        costs = self.costs
        periods = self.periods
        deadlines = self.deadlines
        responses = self.responses
        for i in range(len(costs)):
            if not isnan(responses[i]):  # already known
                continue
            r = response_time(costs[i], costs[:i], periods[:i], deadlines[i])
            if r is None:
                self.first_fail = i
                return i
            responses[i] = r
        self.first_fail = -1
        return -1

    @property
    def schedulable(self) -> bool:
        """Whether the current contents pass exact RTA (cached)."""
        if self.first_fail == -3:
            self._resolve()
        return self.first_fail == -1

    @property
    def utilization(self) -> float:
        """Assigned utilization, summed in priority order."""
        return self.util_sum

    def _suffix(
        self,
        merged: List[float],
        pos: int,
        cost: float,
        period: float,
        m_costs: List[float],
        m_periods: List[float],
    ) -> bool:
        """Re-analyze the lower-priority suffix after a candidate
        ``<cost, period>`` took sorted slot *pos*, appending each new fixed
        point to *merged*; False on the first miss.

        Each task is warm-started with one step of the *extended*
        iteration map applied to its cached fixed point — still a lower
        bound on the new least fixed point (the map is monotone and the old
        fixed point lies below it), shrunk so float rounding cannot
        overshoot.  The iteration then typically starts at its
        destination, and a start beyond the deadline rejects without a
        single interference sum.
        """
        costs = self.costs
        deadlines = self.deadlines
        responses = self.responses
        for i in range(pos, len(costs)):
            r_prev = responses[i]
            start = (
                (r_prev + ceil(r_prev / period - EPS) * cost) * (1.0 - 1e-12)
                if r_prev == r_prev
                else None
            )
            r = response_time(
                costs[i],
                m_costs[: i + 1],
                m_periods[: i + 1],
                deadlines[i],
                start=start,
            )
            if r is None:
                return False
            merged.append(r)
        return True

    def admits(
        self, cost: float, period: float, deadline: float, priority: int
    ) -> bool:
        """Incremental admission: would the processor stay schedulable if a
        subtask ``<cost, period, deadline>`` at *priority* joined?

        Decision-identical to ``is_schedulable(subtasks + [candidate])``,
        via (in order): the hyperbolic sufficient accept, the necessary
        utilization reject, and the prefix-reusing exact RTA.  Both
        admission (Assign) and the binary MaxSplit search probe through
        here; an admitted candidate is memoized for :meth:`insert`.
        """
        COUNTERS.admission_probes += 1
        if self.first_fail == -3:
            self._resolve()
        if self.first_fail != -1:
            return False
        u_c = cost / period
        # bisect_right matches the stable sort of rta_arrays with the
        # candidate appended last (ties cannot occur for valid partitions,
        # but the probe must mirror the from-scratch analysis regardless).
        pos = bisect_right(self.prio_list, priority)
        periods = self.periods
        if (
            self.implicit
            and self.rm_ordered
            and deadline == period  # repro-lint: disable=R1 (structural: hyper path needs D literally == T)
            and (pos == 0 or periods[pos - 1] <= period)
            and (pos == len(periods) or period <= periods[pos])
            and self.hyper_prod * (1.0 + u_c) <= 2.0 - 1e-9
        ):
            # Hyperbolic sufficient accept (Bini-Buttazzo), in scope when
            # nothing is split and the insert keeps RM order: implies the
            # exact-RTA accept, so the decision is unchanged; the margin
            # keeps float rounding from crossing the bound's edge.
            COUNTERS.hyper_accepts += 1
            return True
        # Necessary utilization condition.  The cheap cached-sum test is
        # conservative by a margin far above its worst-case summation-order
        # error (~n*eps); only candidates inside the margin band fall back
        # to the merged-order sum that :func:`is_schedulable` compares.
        approx = self.util_sum + u_c
        if approx > 1.0 + EPS - 1e-10:
            if approx > 1.0 + EPS + 1e-10:
                return False
            m_ratios = self.ratios.copy()
            m_ratios.insert(pos, u_c)
            if _pairwise_sum(m_ratios) > 1.0 + EPS:
                return False
        # The candidate's hp set is the unchanged prefix — no merged
        # columns needed unless the suffix must be re-checked.  A fluid
        # lower bound warm-starts the cold iteration.  The map counts jobs
        # as ceil(R/T - EPS) >= R/T - EPS, so its least fixed point is at
        # least (C - EPS*sum(C_hp)) / (1 - U_hp) — plain C/(1-U_hp) can
        # overshoot a fixed point sitting within EPS of a period multiple.
        # The tiny shrink keeps float rounding from overshooting too.
        hp_costs = self.costs[:pos]
        hp_util = _pairwise_sum(self.ratios[:pos])
        start = (
            (cost - EPS * sum(hp_costs)) / (1.0 - hp_util) * (1.0 - 1e-12)
            if hp_util < 1.0
            else None
        )
        r = response_time(cost, hp_costs, periods[:pos], deadline, start=start)
        if r is None:
            return False
        merged = self.responses[:pos]
        merged.append(r)
        period = float(period)
        if pos < len(periods):
            m_costs = self.costs.copy()
            m_costs.insert(pos, float(cost))
            m_periods = periods.copy()
            m_periods.insert(pos, period)
            if not self._suffix(merged, pos, cost, period, m_costs, m_periods):
                return False
        self._memo = (cost, period, float(deadline), priority, merged)
        return True

    def admits_subtask(self, candidate: Subtask) -> bool:
        """:meth:`admits` for a :class:`~repro.core.task.Subtask`."""
        return self.admits(
            candidate.cost,
            candidate.period,
            candidate.deadline,
            candidate.priority,
        )

    def insert(self, candidate: Subtask) -> None:
        """Insert *candidate* in place — the incremental counterpart of
        rebuilding from the extended subtask list.

        The unchanged higher-priority prefix keeps its cached responses
        verbatim; the candidate and the lower-priority suffix are settled
        by the probe memo or the hyperbolic accept when possible, and
        deferred to :meth:`_resolve` otherwise.  Either way the observable
        values are bit-identical to a fresh build (same columns, same
        iteration maps, same reductions), so
        :meth:`ProcessorState.add <repro.core.partition.ProcessorState.add>`
        maintains its cache in O(n) instead of O(n^2) per mutation.
        """
        pos = bisect_right(self.prio_list, candidate.priority)
        cost = float(candidate.cost)
        period = float(candidate.period)
        deadline = float(candidate.deadline)
        u_c = cost / period
        periods = self.periods
        n = len(periods) + 1  # size after the insert
        # Branch on the state *before* the insert.
        old_prod = self.hyper_prod
        old_fail = self.first_fail
        rm_ordered = (
            self.rm_ordered
            and (pos == 0 or periods[pos - 1] <= period)
            and (pos == n - 1 or period <= periods[pos])
        )
        self.costs.insert(pos, cost)
        periods.insert(pos, period)
        self.deadlines.insert(pos, deadline)
        self.ratios.insert(pos, u_c)
        self.prio_list.insert(pos, candidate.priority)
        self._prios = None
        self.util_sum = _pairwise_sum(self.ratios)
        self.implicit = implicit = self.implicit and deadline == period  # repro-lint: disable=R1 (structural: split pieces have D < T)
        self.rm_ordered = rm_ordered
        # Maintained as a running product: may drift from a fresh
        # sequential product by ulps, which the pre-accept margin absorbs.
        self.hyper_prod = old_prod * (1.0 + u_c) if implicit else inf
        memo = self._memo
        self._memo = None
        if (
            memo is not None
            and memo[0] == cost
            and memo[1] == period
            and memo[2] == deadline  # repro-lint: disable=R1 (memo key: identity of the exact floats probed)
            and memo[3] == candidate.priority
        ):
            # The candidate was just admitted through a probe of this very
            # context; its merged fixed points are already exact.
            self.responses = memo[4]
            self.first_fail = -1
            COUNTERS.ctx_memo_hits += 1
            return
        responses = self.responses
        if (
            implicit
            and rm_ordered
            and old_fail == -1
            and old_prod * (1.0 + u_c) <= 2.0 - 1e-9
        ):
            # Hyperbolic sufficient accept: schedulability is settled, so
            # fixed points need not be computed now.  NaN responses mean
            # "no cached value" — later probes cold-start those slots.
            responses[pos:] = [nan] * (n - pos)
            self.first_fail = -1
            return
        if self.util_sum > 1.0 + EPS:
            self.responses = [nan] * n
            self.first_fail = -2
            return
        if 0 <= old_fail < pos:
            # The old failure is in the unchanged prefix; it fails
            # identically in the extended set.
            responses[old_fail:] = [nan] * (n - old_fail)
            return
        # General path: defer the exact analysis.  This case is dominated
        # by body subtasks landing on a processor that is marked full
        # immediately afterwards (Algorithm 2), so the new fixed points are
        # usually never consulted; :meth:`_resolve` computes any slot that
        # is later needed, bit-identically to a fresh build.  The valid
        # prefix responses are kept (NaN slots stay "unknown").
        responses[pos:] = [nan] * (n - pos)
        self.first_fail = -3

    def with_subtask(self, candidate: Subtask) -> "RTAContext":
        """A new context with *candidate* inserted (:meth:`insert` on a
        copy); this context is left untouched and shares no list with
        the result."""
        new = RTAContext.__new__(RTAContext)
        new.costs = self.costs.copy()
        new.periods = self.periods.copy()
        new.deadlines = self.deadlines.copy()
        new._prios = None
        new.ratios = self.ratios.copy()
        new.util_sum = self.util_sum
        new.prio_list = self.prio_list.copy()
        new.implicit = self.implicit
        new.rm_ordered = self.rm_ordered
        new.hyper_prod = self.hyper_prod
        new.responses = self.responses.copy()
        new.first_fail = self.first_fail
        memo = self._memo
        new._memo = (
            None
            if memo is None
            else (memo[0], memo[1], memo[2], memo[3], memo[4].copy())
        )
        new.insert(candidate)
        return new


def first_failure(subtasks: Sequence[Subtask]) -> Optional[Subtask]:
    """Return the highest-priority subtask that misses its deadline, if any.

    Useful for diagnostics and for locating *bottlenecks* (Definition 2) in
    tests: increasing the top-priority cost slightly must make some subtask
    fail on a full processor.
    """
    if not subtasks:
        return None
    ordered = sorted(subtasks, key=lambda s: s.priority)
    costs, periods, deadlines, _ = rta_arrays(subtasks)
    for i in range(costs.size):
        if response_time(costs[i], costs[:i], periods[:i], deadlines[i]) is None:
            return ordered[i]
    return None


def utilization_headroom(subtasks: Sequence[Subtask]) -> float:
    """``1 - sum(U)`` for the processor (may be negative)."""
    return 1.0 - float(sum(s.utilization for s in subtasks))


def hyperbolic_bound_holds(subtasks: Sequence[Subtask]) -> bool:
    """Bini-Buttazzo hyperbolic sufficient test ``prod(U_i + 1) <= 2``.

    Provided as a cheap pre-filter for implicit-deadline subtask lists; the
    partitioning algorithms use exact RTA, but tests cross-check that the
    hyperbolic bound never accepts a set exact RTA rejects (it is strictly
    weaker) when all deadlines equal periods.
    """
    prod = 1.0
    for s in subtasks:
        prod *= s.utilization + 1.0
    return prod <= 2.0 + EPS


def liu_layland_test_holds(subtasks: Sequence[Subtask]) -> bool:
    """Classic L&L sufficient test ``sum U <= n(2^{1/n} - 1)``.

    Like :func:`hyperbolic_bound_holds`, only meaningful when every subtask
    has ``Delta = T``; used by tests and by threshold-based baselines.
    """
    n = len(subtasks)
    if n == 0:
        return True
    total = float(sum(s.utilization for s in subtasks))
    return total <= n * (2.0 ** (1.0 / n) - 1.0) + EPS
