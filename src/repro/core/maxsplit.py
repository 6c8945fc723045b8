"""MaxSplit: the maximal portion of a (sub)task a processor can accept.

``MaxSplit(tau_i^k, P_q)`` (Definition 3) splits the pending piece into a
first part assigned to ``P_q`` and a remainder, such that

1. after assigning the first part, every (sub)task on ``P_q`` still meets
   its (synthetic) deadline under RMS, and
2. the first part is maximal — afterwards ``P_q`` has a *bottleneck*
   (Definition 2): increasing the highest-priority cost by any epsilon
   would make some task miss its deadline.

Two interchangeable implementations are provided, exactly as the paper
describes (Section IV-A):

* :func:`max_split_binary` — binary search over ``[0, C_i^k]`` using the
  exact RTA admission test as the oracle (monotone in the split cost);
* :func:`max_split_points` — the efficient closed-form variant of [22]:
  for each affected task the maximal admissible cost is computed from the
  Lehoczky/Sha/Ding scheduling points, so only a small set of candidate
  time instants is inspected.

Both handle the general case where the incoming piece is *not* the
highest-priority task on the processor (needed by RM-TS phase 3, where a
pre-assigned heavy task already lives on the target processor).

Performance layer: both variants accept an optional pre-built
:class:`~repro.core.rta.RTAContext` for the existing set.  With a context
the fixed existing-set prefix is analyzed **once per search** instead of
once per probe — the binary search probes through
:meth:`~repro.core.rta.RTAContext.admits` (warm-started fixed points, no
re-sorting), and the scheduling-points variant reads the priority-sorted
columns directly as slices.  Without a context each probe analyzes the
merged list from scratch: the reference the equivalence tests compare
against.  Results are bit-identical either way.
"""

from __future__ import annotations

from bisect import bisect_right
from math import ceil, floor, inf
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro._util.floats import EPS
from repro.core.rta import RTAContext, is_schedulable
from repro.core.partition import PendingPiece
from repro.core.task import Subtask
from repro.perf.telemetry import COUNTERS

__all__ = ["max_split_binary", "max_split_points", "max_split"]

#: Relative precision and default bisection count of the binary-search
#: variant.
_BINARY_REL_TOL = 1e-10
_BINARY_ITERATIONS = 64

#: Most scheduling points one constraint of :func:`max_split_points` may
#: enumerate; beyond it the call falls back to the binary search.
_MAX_POINTS = 1 << 16


def _candidate(piece: PendingPiece, cost: float) -> Subtask:
    """The piece's front part with the given cost, for admission testing.

    The RTA outcome does not depend on the subtask *kind*, so reusing the
    tail-flavored candidate with an overridden cost is exact.
    """
    base = piece.as_candidate()
    return Subtask(
        cost=cost,
        period=base.period,
        deadline=base.deadline,
        parent=base.parent,
        index=base.index,
        kind=base.kind,
    )


def max_split_binary(
    existing: Sequence[Subtask],
    piece: PendingPiece,
    *,
    iterations: int = _BINARY_ITERATIONS,
    context: Optional[RTAContext] = None,
) -> float:
    """Maximal admissible front cost by binary search over ``[0, C]``.

    The admission predicate ``is_schedulable(existing + front(c))`` is
    monotone non-increasing in ``c`` (more execution demand can only
    increase response times), so bisection is exact up to float precision.
    Returns a *feasible* cost (the lower end of the final bracket), 0.0 if
    nothing fits.

    With *context* the existing-set prefix is analyzed once and every probe
    reuses it; without, each probe analyzes from scratch (the reference).
    """
    COUNTERS.maxsplit_calls += 1
    return _bisect(existing, piece, iterations, context)


def _bisect(
    existing: Sequence[Subtask],
    piece: PendingPiece,
    iterations: int,
    context: Optional[RTAContext],
) -> float:
    """:func:`max_split_binary` without the call counter."""
    if piece.cost <= 0:
        return 0.0
    if context is not None:
        if not context.schedulable:
            # Invariant violation upstream: the processor must be
            # schedulable before a split is attempted.
            return 0.0
        probe = context.admits
        cand = piece.as_candidate()

        def admit(cost: float) -> bool:
            return probe(cost, cand.period, cand.deadline, cand.priority)

    else:
        if not is_schedulable(list(existing)):
            return 0.0

        def admit(cost: float) -> bool:
            return is_schedulable(list(existing) + [_candidate(piece, cost)])

    hi = piece.cost
    if admit(hi):
        return hi
    lo = 0.0
    tol = max(_BINARY_REL_TOL * piece.cost, 1e-14)
    for _ in range(iterations):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if admit(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _point_count(periods: Iterable[float], deadline: float) -> int:
    """How many scheduling points :func:`_scheduling_points` enumerates
    before deduplication: the deadline plus every period multiple."""
    count = 1
    for t in periods:
        count += floor(deadline / t + EPS)
    return count


def _over_point_cap(
    hp_periods: Sequence[float],
    lp_periods: Sequence[float],
    lp_deadlines: Sequence[float],
    period_new: float,
    deadline: float,
) -> bool:
    """Whether any constraint of a scheduling-point search would enumerate
    more than :data:`_MAX_POINTS` points.

    The piece's own constraint ranges over the hp periods up to its
    *deadline*; the j-th lower-priority constraint over the hp periods,
    the lp periods before j and the newcomer's, up to its own deadline.
    One count over every period up to the largest deadline bounds them
    all, so the exact per-constraint counts are only taken past it.
    """
    top = max([deadline, *lp_deadlines])
    if _point_count([*hp_periods, *lp_periods, period_new], top) <= _MAX_POINTS:
        return False
    if _point_count(hp_periods, deadline) > _MAX_POINTS:
        return True
    return any(
        _point_count([*hp_periods, *lp_periods[:idx], period_new], dl_j)
        > _MAX_POINTS
        for idx, dl_j in enumerate(lp_deadlines)
    )


def _scheduling_points(periods: np.ndarray, deadline: float) -> np.ndarray:
    """Lehoczky/Sha/Ding test points: every period multiple up to the
    deadline, plus the deadline itself.

    The cumulative workload ``W(t) = C + sum(ceil(t/T_j) C_j)`` only jumps
    at these points, so checking ``W(t) <= t`` there is exact.
    """
    points: List[float] = [deadline]
    for t in periods:
        m = int(np.floor(deadline / t + EPS))
        points.extend(float(t) * k for k in range(1, m + 1))
    return np.unique(np.asarray(points, dtype=float))


def _scheduling_points_fast(periods: List[float], deadline: float) -> np.ndarray:
    """:func:`_scheduling_points` for the context path: identical values
    (same IEEE products, exact dedup, ascending order) built with python
    set/sort instead of ``np.unique``'s array machinery."""
    points = {deadline}
    for t in periods:
        points.update(map(t.__mul__, range(1, floor(deadline / t + EPS) + 1)))
    return np.array(sorted(points), dtype=float)


def _interference(t: np.ndarray, costs: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """``sum_j ceil(t / T_j) C_j`` for a vector of instants *t*."""
    if costs.size == 0:
        return np.zeros_like(t)
    jobs = np.ceil(t[:, None] / periods[None, :] - EPS)
    return jobs @ costs


def max_split_points(
    existing: Sequence[Subtask],
    piece: PendingPiece,
    *,
    context: Optional[RTAContext] = None,
) -> float:
    """Maximal admissible front cost via exact scheduling-point analysis.

    For the incoming piece itself (priority *p*):
    feasible iff some point ``t <= Delta`` satisfies
    ``c + I_hp(t) <= t``, giving ``c <= max_t (t - I_hp(t))``.

    For every task *j* with lower priority than the piece:
    feasible iff some point ``t <= Delta_j`` satisfies
    ``C_j + I_hp(j)(t) + ceil(t/T_p) c <= t``, giving
    ``c <= max_t (t - C_j - I_hp(j)(t)) / ceil(t/T_p)``.

    Higher-priority tasks are unaffected by the newcomer.  The result is
    the minimum over all constraints, clipped to ``[0, C]``.

    A constraint with more than :data:`_MAX_POINTS` scheduling points
    (a huge period ratio) would exhaust memory; such a call is answered
    by the binary search instead, feasible to within its relative
    tolerance and still counted as one MaxSplit call.

    With *context* the priority-sorted columns are read as slices of the
    cached existing-set prefix (no per-call sorting or concatenation).
    """
    COUNTERS.maxsplit_calls += 1
    if piece.cost <= 0:
        return 0.0
    prio = piece.task.tid
    period_new = piece.task.period
    dl = piece.deadline
    if context is not None:
        return _points_on_context(existing, piece, context, prio, period_new, dl)

    ordered = sorted(existing, key=lambda s: s.priority)
    hp = [s for s in ordered if s.priority < prio]
    lp = [s for s in ordered if s.priority > prio]
    if _over_point_cap(
        [s.period for s in hp],
        [s.period for s in lp],
        [s.deadline for s in lp],
        period_new,
        dl,
    ):
        return _bisect(existing, piece, _BINARY_ITERATIONS, None)
    hp_costs = np.array([s.cost for s in hp], dtype=float)
    hp_periods = np.array([s.period for s in hp], dtype=float)

    # Constraint from the incoming piece's own synthetic deadline.
    pts = _scheduling_points(hp_periods, dl)
    slack = pts - _interference(pts, hp_costs, hp_periods)
    best = float(slack.max()) if slack.size else dl

    # Constraints from each lower-priority task on the processor.
    for idx, sub in enumerate(lp):
        hp_of_sub_costs = np.concatenate(
            [hp_costs, np.array([s.cost for s in lp[:idx]], dtype=float)]
        )
        hp_of_sub_periods = np.concatenate(
            [hp_periods, np.array([s.period for s in lp[:idx]], dtype=float)]
        )
        pts = _scheduling_points(
            np.concatenate([hp_of_sub_periods, [period_new]]), sub.deadline
        )
        numer = pts - sub.cost - _interference(pts, hp_of_sub_costs, hp_of_sub_periods)
        denom = np.ceil(pts / period_new - EPS)
        with np.errstate(divide="ignore", invalid="ignore"):
            limits = numer / denom
        cap = float(limits.max()) if limits.size else 0.0
        best = min(best, cap)
        if best <= 0.0:
            return 0.0

    return float(min(max(best, 0.0), piece.cost))


def _points_on_context(
    existing: Sequence[Subtask],
    piece: PendingPiece,
    context: RTAContext,
    prio: int,
    period_new: float,
    dl: float,
) -> float:
    """The context path of :func:`max_split_points`.

    The hp set of the j-th lower-priority task is exactly the sorted
    prefix of the cached columns.  The result is ``min(best, C)`` in the
    end, so a constraint whose cap provably reaches ``C`` cannot bind:
    its slack at the single point ``t = Delta_j`` lower-bounds the cap
    (the deadline is always in the point set), and if even that clears
    ``C`` — with a margin far above any summation-order ulp between this
    scalar sum and the vectorized evaluation — the point enumeration for
    that constraint is skipped, leaving the final value unchanged.  These
    screens run on the context's float lists; NumPy arrays are built only
    for a constraint that needs the exact evaluation, which keeps the
    ``jobs @ costs`` shapes of the reference (BLAS rounds a row of a
    matrix-vector product differently depending on the matrix height, so
    a per-point scalar evaluation would not be bit-identical).
    """
    pos = bisect_right(context.prio_list, prio)
    costs = context.costs
    periods = context.periods
    deadlines = context.deadlines
    if _over_point_cap(
        periods[:pos], periods[pos:], deadlines[pos:], period_new, dl
    ):
        return _bisect(existing, piece, _BINARY_ITERATIONS, context)
    skip_at = piece.cost * (1.0 + 1e-9) + 1e-9
    best = inf
    all_costs: Optional[np.ndarray] = None
    all_periods: Optional[np.ndarray] = None

    with np.errstate(divide="ignore", invalid="ignore"):
        interf = 0.0
        for i in range(pos):
            interf += ceil(dl / periods[i] - EPS) * costs[i]
        if dl - interf < skip_at:
            if pos:
                all_costs = np.array(costs, dtype=float)
                all_periods = np.array(periods, dtype=float)
                pts = _scheduling_points_fast(periods[:pos], dl)
                slack = pts - _interference(pts, all_costs[:pos], all_periods[:pos])
                best = float(slack.max())
            else:
                # No hp set: the lone point t = Delta, free of interference.
                best = dl

        for j in range(pos, len(costs)):
            dl_j = deadlines[j]
            cost_j = costs[j]
            denom_dl = ceil(dl_j / period_new - EPS)
            if denom_dl > 0:
                interf = 0.0
                for i in range(j):
                    interf += ceil(dl_j / periods[i] - EPS) * costs[i]
                if (dl_j - cost_j - interf) / denom_dl >= skip_at:
                    continue
            if all_costs is None or all_periods is None:
                all_costs = np.array(costs, dtype=float)
                all_periods = np.array(periods, dtype=float)
            pts = _scheduling_points_fast(periods[:j] + [period_new], dl_j)
            numer = pts - cost_j
            if j:
                numer = numer - _interference(pts, all_costs[:j], all_periods[:j])
            limits = numer / np.ceil(pts / period_new - EPS)
            cap = float(limits.max()) if limits.size else 0.0
            best = min(best, cap)
            if best <= 0.0:
                return 0.0

    return float(min(max(best, 0.0), piece.cost))


def max_split(
    existing: Sequence[Subtask],
    piece: PendingPiece,
    *,
    method: str = "points",
    context: Optional[RTAContext] = None,
) -> float:
    """Dispatch to a MaxSplit implementation (``"points"`` or ``"binary"``).

    ``"points"`` is the default: exact and much faster on processors with
    many scheduling points (benchmarked in E10).  *context* (optional) is a
    pre-built analysis context of *existing* enabling the prefix-reusing
    fast path in either variant.
    """
    if method == "points":
        return max_split_points(existing, piece, context=context)
    if method == "binary":
        return max_split_binary(existing, piece, context=context)
    raise ValueError(f"unknown MaxSplit method: {method!r}")
