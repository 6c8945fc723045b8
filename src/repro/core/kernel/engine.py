"""Batched RTA engine: staging, lane bucketing, backend dispatch, and
serial-equivalent accounting.

:func:`evaluate_batch` takes many :class:`BatchRTARequest` processor
checks and answers each one exactly as the cold serial path
(:func:`repro.core.rta.is_schedulable`) would — same verdicts, same
first-failure indices, same ``rta_calls``/``rta_iterations`` billed to
:data:`~repro.perf.telemetry.COUNTERS` — while doing the arithmetic as
wide vector operations.  The pipeline:

1. **Stage** requests into a :class:`StagedBatch`: requests are grouped
   by task count ``n`` and stacked into ``(R, n)`` matrices; the
   necessary utilization condition (``sum U <= 1``) is evaluated
   vectorized per group, and rejected requests (serial: zero RTA calls)
   drop out before any lane is formed.  :func:`stage_subtask_lists`
   stages straight from subtask lists with a single stable
   ``np.lexsort`` over the flattened corpus — no per-request python
   array objects at all, which is what makes the adapter path fast at
   sweep scale.  Staging is a once-per-corpus cost, mirroring how the
   serial sweep stages columns once per :class:`~repro.core.rta.RTAContext`
   and then probes them many times.
2. **Expand** every surviving request into one *lane* per (sub)task:
   lane ``i`` iterates the fixed point against the priority prefix
   ``[:i]``.  Trivial lanes retire immediately with the serial path's
   shortcut answers (``cost <= 0``; the empty-prefix lane ``i == 0``).
3. **Bucket** the remaining lanes *across requests* by exact prefix
   width ``H``, so each bucket is a dense ``(lanes, H)`` problem with no
   padding — padded columns would change per-lane summation order and
   break bit-identity.  Buckets with ``H <= rta._SCALAR_MAX`` go to the
   selected backend; wider lanes replicate the serial path's
   ``np.dot`` vector iteration per lane (the reduction order of a dot
   product is not reproducible by lockstep column accumulation, and
   such lanes are rare — they only arise past 16 subtasks on one
   processor).
4. **Fold** per-lane outcomes back into per-request verdicts with
   serial short-circuit accounting, fully vectorized: lanes past the
   first failing lane were computed (that is the price of batching,
   counted honestly in ``krn_lane_iterations``) but are not billed to
   ``rta_calls``/``rta_iterations``.

Backends are selected by name — ``"python"`` (scalar reference),
``"numpy"`` (lockstep), ``"native"`` (compiled C; falls back to numpy
with ``krn_fallbacks`` billed when unavailable) — via the ``backend=``
argument, the :func:`using` context manager, or the
``perf.config.kernel_backend`` module switch.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro._util.floats import EPS
from repro.core.kernel import native, np_backend, py_backend
from repro.core.kernel.request import BatchOutcome, BatchRTARequest
from repro.core.rta import _MAX_ITER, _SCALAR_MAX
from repro.core.task import Subtask
from repro.perf import config as perf_config
from repro.perf.telemetry import COUNTERS

__all__ = [
    "StagedBatch",
    "available_backends",
    "evaluate_batch",
    "resolve_backend",
    "stage_requests",
    "stage_subtask_lists",
    "using",
]

_GET_PRIO = attrgetter("parent.tid")
_GET_COST = attrgetter("cost")
_GET_PERIOD = attrgetter("period")
_GET_DEADLINE = attrgetter("deadline")

#: ``run_bucket`` implementations by backend name.
_BUCKET_RUNNERS: Dict[str, Callable[..., Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {
    "python": py_backend.run_bucket,
    "numpy": np_backend.run_bucket,
    "native": native.run_bucket,
}


def available_backends() -> List[str]:
    """Backend names usable right now (probes the native toolchain)."""
    names = ["python", "numpy"]
    if native.native_available():
        names.append("native")
    return names


def resolve_backend(backend: Optional[str] = None) -> str:
    """Effective backend for a batch: explicit arg > perf.config switch.

    ``"native"`` degrades to ``"numpy"`` (billing ``krn_fallbacks``)
    when the compiled backend is unavailable, so callers can request it
    unconditionally and still run everywhere.
    """
    name = backend if backend is not None else perf_config.kernel_backend
    if name not in _BUCKET_RUNNERS:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{tuple(_BUCKET_RUNNERS)}"
        )
    if name == "native" and not native.native_available():
        COUNTERS.krn_fallbacks += 1
        return "numpy"
    return name


@contextmanager
def using(backend: str) -> Iterator[None]:
    """Select the kernel backend for a ``with`` region.

    Mirrors schedcat's ``sched.using_native`` dual-path idiom: the same
    call sites transparently run on the reference or the fast backend,
    and the equivalence suite diffs their outputs bit-for-bit.
    """
    with perf_config.use_kernel_backend(backend):
        yield


def _dot_lane(
    cost: float,
    deadline: float,
    hp_costs: np.ndarray,
    hp_periods: np.ndarray,
) -> Tuple[float, int, bool]:
    """One wide lane via the serial path's vectorized iteration.

    Operation-for-operation the ``hp > _SCALAR_MAX`` branch of
    :func:`repro.core.rta.response_time` (numpy-sum warm start,
    ``np.dot`` interference), because lockstep column accumulation
    cannot reproduce a dot product's reduction order.  Used identically
    by every backend, so wide lanes stay bit-identical to serial and
    across the matrix.
    """
    r = cost + float(hp_costs.sum())
    bound = deadline * (1.0 + 1e-12) + EPS
    iterations = 0
    for _ in range(_MAX_ITER):
        if r > bound:
            return r, iterations, False
        iterations += 1
        jobs = np.ceil(r / hp_periods - EPS)
        r_new = cost + float(np.dot(jobs, hp_costs))
        if r_new <= r + EPS:
            return r_new, iterations, r_new <= bound  # repro-lint: disable=R1 (bound pre-inflated by EPS above)
        r = r_new
    raise RuntimeError("RTA fixed point failed to converge")


class _Group:
    """All requests sharing one task count ``n``, stacked row-wise.

    ``costs``/``periods``/``deadlines`` keep only the rows that passed
    the utilization precheck; ``lane_*`` arrays are indexed by those
    filtered rows.  ``req_idx``/``precheck_ok`` retain the original
    request mapping for the fold.
    """

    __slots__ = (
        "n",
        "req_idx",
        "costs",
        "periods",
        "deadlines",
        "precheck_ok",
        "lane_resp",
        "lane_iters",
        "lane_ok",
    )

    def __init__(
        self,
        n: int,
        req_idx: np.ndarray,
        costs: np.ndarray,
        periods: np.ndarray,
        deadlines: np.ndarray,
    ) -> None:
        self.n = n
        self.req_idx = req_idx
        # Necessary utilization condition, vectorized.  Row-wise
        # ``sum(axis=1)`` of the elementwise ratios matches the serial
        # per-request ``(costs / periods).sum()`` bit-for-bit (same
        # pairwise reduction over the same row).
        util = (costs / periods).sum(axis=1)
        self.precheck_ok = util <= 1.0 + EPS  # repro-lint: disable=R1 (exact serial precheck: rta.is_schedulable uses this literal comparison)
        self.costs = costs[self.precheck_ok]
        self.periods = periods[self.precheck_ok]
        self.deadlines = deadlines[self.precheck_ok]
        rows = int(self.costs.shape[0])
        self.lane_resp = np.full((rows, n), np.nan)
        self.lane_iters = np.zeros((rows, n), dtype=np.int64)
        self.lane_ok = np.zeros((rows, n), dtype=bool)


class StagedBatch:
    """A batch staged into dense per-``n`` groups, ready to evaluate.

    Build one with :func:`stage_requests` or
    :func:`stage_subtask_lists`; evaluate (repeatedly, e.g. once per
    backend in the equivalence suites) with :func:`evaluate_batch`.
    Staging is deliberately separate from evaluation — the adapter
    contract is "stage once, evaluate many", the batched analogue of
    the serial path's cached :class:`~repro.core.rta.RTAContext` columns.
    """

    __slots__ = ("n_requests", "groups", "empty_idx")

    def __init__(
        self,
        n_requests: int,
        groups: List[_Group],
        empty_idx: np.ndarray,
    ) -> None:
        self.n_requests = n_requests
        self.groups = groups
        self.empty_idx = empty_idx


def stage_requests(requests: Sequence[BatchRTARequest]) -> StagedBatch:
    """Stage per-request array objects into dense groups."""
    by_n: Dict[int, List[int]] = {}
    for q, req in enumerate(requests):
        by_n.setdefault(req.n, []).append(q)
    groups: List[_Group] = []
    empty: List[int] = []
    for n, idx in sorted(by_n.items()):
        if n == 0:
            empty.extend(idx)
            continue
        groups.append(
            _Group(
                n,
                np.asarray(idx, dtype=np.int64),
                np.stack([requests[q].costs for q in idx]),
                np.stack([requests[q].periods for q in idx]),
                np.stack([requests[q].deadlines for q in idx]),
            )
        )
    return StagedBatch(len(requests), groups, np.asarray(empty, dtype=np.int64))


def stage_subtask_lists(lists: Sequence[Sequence[Subtask]]) -> StagedBatch:
    """Stage many processors' subtask lists columnar, in one pass.

    The whole corpus is flattened into four attribute columns and
    priority-sorted per request with one stable ``np.lexsort`` — the
    vectorized twin of calling :func:`repro.core.rta.rta_arrays` per
    list (same stable sort key, hence the same element order and the
    same float values), without materializing per-request arrays.
    """
    n_req = len(lists)
    lens = np.fromiter(map(len, lists), dtype=np.int64, count=n_req)
    flat: List[Subtask] = []
    for sts in lists:
        flat.extend(sts)
    total = len(flat)
    # C-level attribute extraction; ``parent.tid`` dodges the
    # ``Subtask.priority`` property (same value by definition).
    prio = np.fromiter(map(_GET_PRIO, flat), dtype=np.int64, count=total)
    cost = np.fromiter(map(_GET_COST, flat), dtype=np.float64, count=total)
    period = np.fromiter(map(_GET_PERIOD, flat), dtype=np.float64, count=total)
    deadline = np.fromiter(
        map(_GET_DEADLINE, flat), dtype=np.float64, count=total
    )
    reqid = np.repeat(np.arange(n_req, dtype=np.int64), lens)
    # Stable sort by (request, priority): within a request, equal
    # priorities keep their original order — exactly rta_arrays' sort.
    order = np.lexsort((prio, reqid))
    cost = cost[order]
    period = period[order]
    deadline = deadline[order]
    offsets = np.zeros(n_req, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    groups: List[_Group] = []
    for n in np.unique(lens).tolist():
        qs = np.flatnonzero(lens == n)
        if n == 0:
            continue
        gather = offsets[qs][:, None] + np.arange(n, dtype=np.int64)[None, :]
        groups.append(
            _Group(int(n), qs, cost[gather], period[gather], deadline[gather])
        )
    return StagedBatch(n_req, groups, np.flatnonzero(lens == 0))


def evaluate_batch(
    requests: Union[Sequence[BatchRTARequest], StagedBatch],
    *,
    backend: Optional[str] = None,
    collect_responses: bool = False,
) -> BatchOutcome:
    """Evaluate many cold processor checks at once.

    Returns a :class:`BatchOutcome` whose per-request verdicts,
    first-failure indices and serial-equivalent counter totals are
    bit-identical to running :func:`repro.core.rta.is_schedulable` on
    each request's subtask list in turn (property-tested in
    ``tests/core/test_kernel_batch.py``).  Pass ``collect_responses=True``
    to also get each request's response-time array (NaN at and past a
    failure, exactly like a short-circuiting serial check would leave
    them).
    """
    name = resolve_backend(backend)
    run_bucket = _BUCKET_RUNNERS[name]
    staged = (
        requests
        if isinstance(requests, StagedBatch)
        else stage_requests(requests)
    )

    n_req = staged.n_requests
    verdicts = np.zeros(n_req, dtype=bool)
    first_fail = np.full(n_req, -1, dtype=np.int64)
    rta_calls = np.zeros(n_req, dtype=np.int64)
    rta_iters = np.zeros(n_req, dtype=np.int64)
    responses: Optional[List[np.ndarray]] = None
    if collect_responses:
        responses = [np.empty(0) for _ in range(n_req)]
    # Empty processors: trivially schedulable, zero work (the serial
    # path returns before building arrays).
    verdicts[staged.empty_idx] = True

    # ---- expand lanes: shortcuts inline, buckets across groups --------
    # Bucket key is the exact prefix width H (1..=_SCALAR_MAX); each
    # entry collects (group, lane index, filtered-row indices).
    buckets: Dict[int, List[Tuple[_Group, int, np.ndarray]]] = {}
    lane_count = 0
    for g in staged.groups:
        # Evaluation must be re-runnable on a staged batch (the
        # equivalence suites evaluate one staging repeatedly across
        # backends), so clear any lane state from a previous run.
        g.lane_resp.fill(np.nan)
        g.lane_iters.fill(0)
        g.lane_ok.fill(False)
        rows_total = int(g.costs.shape[0])
        if rows_total == 0:
            continue
        lane_count += rows_total * g.n
        for i in range(g.n):
            c_i = g.costs[:, i]
            d_i = g.deadlines[:, i]
            # Serial shortcut 1: zero-cost content has response 0.0
            # before any iteration (also when a prefix exists).
            zero = c_i <= 0.0  # repro-lint: disable=R1 (exact serial shortcut: response_time tests cost <= 0 literally)
            live = ~zero
            if zero.any():
                g.lane_ok[zero, i] = True
                g.lane_resp[zero, i] = 0.0
            if i == 0:
                # Serial shortcut 2: empty prefix — response is the
                # cost itself iff it meets the deadline.
                fits = live & (c_i <= d_i + EPS)
                g.lane_ok[fits, i] = True
                g.lane_resp[fits, i] = c_i[fits]
                continue
            if i <= _SCALAR_MAX:
                if zero.any():
                    rows = np.flatnonzero(live)
                    if rows.size:
                        buckets.setdefault(i, []).append((g, i, rows))
                else:
                    buckets.setdefault(i, []).append(
                        (g, i, slice(None))  # type: ignore[arg-type]
                    )
            else:
                # Wide lanes: per-lane dot-product reference path.
                for row in np.flatnonzero(live).tolist():
                    resp, iters, ok = _dot_lane(
                        float(c_i[row]),
                        float(d_i[row]),
                        g.costs[row, :i],
                        g.periods[row, :i],
                    )
                    g.lane_iters[row, i] = iters
                    if ok:
                        g.lane_ok[row, i] = True
                        g.lane_resp[row, i] = resp

    # ---- run the dense buckets on the selected backend ----------------
    for width in sorted(buckets):
        segments = buckets[width]
        if len(segments) == 1:
            g, i, rows = segments[0]
            cat_costs = g.costs[rows, width]
            cat_deads = g.deadlines[rows, width]
            cat_hp_c = g.costs[rows, :width]
            cat_hp_t = g.periods[rows, :width]
        else:
            cat_costs = np.concatenate(
                [seg[0].costs[seg[2], width] for seg in segments]
            )
            cat_deads = np.concatenate(
                [seg[0].deadlines[seg[2], width] for seg in segments]
            )
            cat_hp_c = np.concatenate(
                [seg[0].costs[seg[2], :width] for seg in segments]
            )
            cat_hp_t = np.concatenate(
                [seg[0].periods[seg[2], :width] for seg in segments]
            )
        if name == "native":
            COUNTERS.krn_native_calls += 1
        resp, iters, ok = run_bucket(cat_costs, cat_deads, cat_hp_c, cat_hp_t)
        offset = 0
        for g, i, rows in segments:
            size = (
                int(g.costs.shape[0]) if isinstance(rows, slice) else rows.size
            )
            sl = slice(offset, offset + size)
            g.lane_resp[rows, i] = resp[sl]
            g.lane_iters[rows, i] = iters[sl]
            g.lane_ok[rows, i] = ok[sl]
            offset += size

    # ---- fold lanes into per-request outcomes (vectorized) ------------
    lane_iterations = 0
    for g in staged.groups:
        lane_iterations += int(g.lane_iters.sum())
        first_fail[g.req_idx[~g.precheck_ok]] = -2
        ok_req = g.req_idx[g.precheck_ok]
        if ok_req.size == 0:
            continue
        rows = int(g.costs.shape[0])
        bad = ~g.lane_ok
        any_bad = bad.any(axis=1)
        fb = np.where(any_bad, bad.argmax(axis=1), g.n - 1)
        # Serial short-circuit accounting: bill calls/iterations only up
        # to (and including) the first failing lane.
        iters_at_fb = g.lane_iters.cumsum(axis=1)[np.arange(rows), fb]
        verdicts[ok_req] = ~any_bad
        first_fail[ok_req] = np.where(any_bad, fb, -1)
        rta_calls[ok_req] = np.where(any_bad, fb + 1, g.n)
        rta_iters[ok_req] = iters_at_fb
        if responses is not None:
            for k, q in enumerate(ok_req.tolist()):
                row = g.lane_resp[k].copy()
                if any_bad[k]:
                    # Serial short-circuit leaves the failing lane and
                    # everything after it unanalyzed.
                    row[int(fb[k]) :] = np.nan
                responses[q] = row
            for q in g.req_idx[~g.precheck_ok].tolist():
                responses[q] = np.full(g.n, np.nan)

    # ---- bill the counters once per batch -----------------------------
    COUNTERS.krn_batches += 1
    COUNTERS.krn_requests += n_req
    COUNTERS.krn_lanes += lane_count
    COUNTERS.krn_lane_iterations += lane_iterations
    COUNTERS.rta_calls += int(rta_calls.sum())
    COUNTERS.rta_iterations += int(rta_iters.sum())

    return BatchOutcome(
        verdicts=verdicts,
        first_fail=first_fail,
        rta_calls=rta_calls,
        rta_iterations=rta_iters,
        backend=name,
        lane_count=lane_count,
        lane_iterations=lane_iterations,
        responses=responses,
    )
