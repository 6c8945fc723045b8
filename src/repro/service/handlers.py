"""Request handling for the admission-control service.

Pure compute layer: everything here is synchronous and transport-agnostic
so it can be unit-tested without sockets and reused by the CLI, the HTTP
server (which runs the slow parts in worker threads under a deadline) and
the batch pool workers.

The contract per endpoint:

* ``prepare_*`` validates the payload (raising
  :class:`~repro.service.validation.RequestValidationError`) and returns a
  typed request plus its cache key;
* ``compute_*`` does the actual analysis — the only slow part;
* ``degraded_admit`` is the cheap fallback used when ``compute_admit``
  exceeds the per-request deadline: the paper's utilization-bound test
  ``U_M <= min(Lambda(tau), 2Theta/(1+Theta))`` (Section V), which is
  sufficient-only, so a degraded accept is still sound while a degraded
  reject is conservative and marked ``"degraded": true``.

Response bodies are deterministic functions of the request (no
timestamps), which is what makes cached responses byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._util.floats import EPS
from repro._util.validation import as_int
from repro.analysis.algorithms import PARTITIONERS, domain_violation
from repro.core.bounds import (
    ALL_BOUNDS,
    best_bound_value,
    harmonic_chain_count,
    light_task_threshold,
    rmts_bound_cap,
)
from repro.core.rmts_light import is_light_task_set
from repro.core.serialization import partition_to_dict
from repro.core.task import TaskSet
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.perf import config as perf_config
from repro.perf.telemetry import COUNTERS
from repro.runner import chunked_map
from repro.service.cache import LRUCache, admit_cache_key
from repro.service.validation import (
    AdmitRequest,
    RequestValidationError,
    parse_admit_request,
    parse_taskset_payload,
)

__all__ = [
    "ServiceConfig",
    "AdmissionService",
    "compute_admit_body",
    "compute_bounds_body",
    "degraded_admit_body",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 8787
    #: max concurrent in-flight requests before the server sheds load (429).
    queue_limit: int = 64
    #: per-request analysis deadline in seconds; past it the admit verdict
    #: degrades to the utilization-bound test.
    analysis_timeout: float = 5.0
    cache_size: int = 1024
    #: worker processes for ``/v1/batch`` (1 = in-process).
    jobs: int = 1
    max_batch: int = 256
    max_body_bytes: int = 8 * 1024 * 1024
    #: fault injection: sleep this long inside every analysis.  Used by the
    #: timeout/degradation tests and ``loadgen --inject-delay``.
    inject_delay: float = 0.0
    #: path to a persistent :class:`repro.store.ResultStore`; when set the
    #: result cache becomes a two-tier LRU+sqlite cache that survives
    #: restarts (``--store`` on ``python -m repro serve``).
    store_path: Optional[str] = None
    #: stateful cluster mode (``--cluster``): ``/v1/admit`` places task
    #: sets onto persistent per-processor state via a
    #: :class:`repro.cluster.service.ClusterCoordinator`, ``/v1/depart``
    #: withdraws tenants, ``GET /v1/cluster`` snapshots the state.
    cluster: bool = False
    #: churn policy driving cluster-mode placement (``CHURN_POLICIES``).
    cluster_policy: str = "ff-rta"
    cluster_processors: int = 8
    #: migration budget per departure event in cluster mode.
    cluster_k: int = 2
    #: bounded wait queue for cluster-mode admissions that don't fit yet.
    cluster_queue_limit: int = 8
    #: wall-clock seconds before a queued cluster tenant expires.
    cluster_max_wait: float = 300.0
    #: revalidate every admitted ``/v1/batch`` partition through one
    #: batched-RTA kernel call (``repro.core.kernel``); each admitted
    #: body gains ``"kernel_validated"``.  Also armed by the
    #: ``perf.config.kernel_batching`` toggle.
    kernel_validate: bool = False


# ---------------------------------------------------------------------------
# Body builders (module-level so batch pool workers can run them)
# ---------------------------------------------------------------------------


def compute_admit_body(
    taskset: TaskSet, processors: int, algorithm: str,
    *, inject_delay: float = 0.0,
) -> Dict[str, object]:
    """Run the real partitioning analysis and build the response body.

    A task set outside the algorithm's proven input domain (SPA1 on a
    heavy set) is rejected without partitioning; ``reason`` says why.
    """
    violation = domain_violation(algorithm, taskset)
    if violation is not None:
        return {
            "admitted": False,
            "degraded": False,
            "decided_by": "input-domain",
            "reason": violation,
            "algorithm": algorithm,
            "processors": processors,
            "n": len(taskset),
            "utilization": taskset.total_utilization,
            "normalized_utilization": taskset.normalized_utilization(processors),
            "partition": None,
            "unassigned_tids": [t.tid for t in taskset],
        }
    if inject_delay > 0.0:
        time.sleep(inject_delay)
    with _obs_trace.span(
        "svc.compute_admit",
        algorithm=algorithm,
        n=len(taskset),
        processors=processors,
    ):
        if _obs_metrics.ENABLED:
            started = time.perf_counter()
            try:
                result = PARTITIONERS[algorithm](taskset, processors)
            finally:
                _obs_metrics.ADMIT_LATENCY.observe(
                    time.perf_counter() - started
                )
        else:
            result = PARTITIONERS[algorithm](taskset, processors)
    return {
        "admitted": bool(result.success),
        "degraded": False,
        "decided_by": result.algorithm,
        "algorithm": algorithm,
        "processors": processors,
        "n": len(taskset),
        "utilization": taskset.total_utilization,
        "normalized_utilization": taskset.normalized_utilization(processors),
        "partition": partition_to_dict(result) if result.success else None,
        "unassigned_tids": list(result.unassigned_tids),
    }


def degraded_admit_body(
    taskset: TaskSet, processors: int, algorithm: str
) -> Dict[str, object]:
    """Utilization-bound fallback verdict (cheap, always terminates).

    Admits iff ``U_M <= min(best D-PUB, 2Theta/(1+Theta))`` — the RM-TS
    guarantee of Section V.  Sufficient-only: a ``false`` here means
    "not provably schedulable in time", not "unschedulable".
    """
    lam = min(best_bound_value(taskset), rmts_bound_cap(len(taskset)))
    u_norm = taskset.normalized_utilization(processors)
    return {
        "admitted": bool(u_norm <= lam + EPS),
        "degraded": True,
        "decided_by": "utilization-bound",
        "bound": lam,
        "algorithm": algorithm,
        "processors": processors,
        "n": len(taskset),
        "utilization": taskset.total_utilization,
        "normalized_utilization": u_norm,
        "partition": None,
        "unassigned_tids": None,
    }


def compute_bounds_body(
    taskset: TaskSet, processors: Optional[int]
) -> Dict[str, object]:
    """Evaluate every D-PUB for the task set (the ``bounds`` CLI as JSON)."""
    n = len(taskset)
    with _obs_trace.span("svc.compute_bounds", n=n):
        return _bounds_body(taskset, processors, n)


def _bounds_body(
    taskset: TaskSet, processors: Optional[int], n: int
) -> Dict[str, object]:
    body: Dict[str, object] = {
        "n": n,
        "utilization": taskset.total_utilization,
        "max_task_utilization": taskset.max_utilization,
        "harmonic_chains": harmonic_chain_count([t.period for t in taskset]),
        "light_threshold": light_task_threshold(n),
        "is_light": bool(is_light_task_set(taskset)),
        "bounds": {
            b.name: {"value": b.value(taskset), "capped": b.capped_value(taskset)}
            for b in ALL_BOUNDS
        },
        "best_bound": best_bound_value(taskset),
        "rmts_cap": rmts_bound_cap(n),
    }
    if processors:
        lam = min(best_bound_value(taskset), rmts_bound_cap(n))
        u_norm = taskset.normalized_utilization(processors)
        body["processors"] = processors
        body["normalized_utilization"] = u_norm
        body["guaranteed_schedulable"] = bool(u_norm <= lam + EPS)
    return body


def _kernel_validate_bodies(bodies: List[Dict[str, object]]) -> None:
    """Revalidate admitted batch bodies through one kernel batch.

    Every admitted fixed-priority body's serialized partition is rebuilt
    and all of their processors pooled into a *single*
    :func:`repro.core.kernel.check_subtask_lists` call; each admitted
    body gains ``"kernel_validated"`` (True when every one of its
    processors passes the batched cold RTA — by Lemma 4 always, so a
    False is a cross-path divergence signal, not a verdict change).
    Bodies stay deterministic: the flag depends only on the request.
    """
    from repro.core.kernel import check_subtask_lists
    from repro.core.serialization import partition_from_dict

    spans: List[Tuple[Dict[str, object], int, int]] = []
    lists = []
    for body in bodies:
        part_dict = body.get("partition")
        if not (body.get("admitted") and isinstance(part_dict, dict)):
            continue
        result = partition_from_dict(part_dict)
        if result.scheduler != "fixed":
            continue
        start = len(lists)
        lists.extend(proc.subtasks for proc in result.processors)
        spans.append((body, start, len(lists)))
    if not lists:
        return
    outcome = check_subtask_lists(lists)
    for body, start, stop in spans:
        body["kernel_validated"] = bool(outcome.verdicts[start:stop].all())


def _batch_worker(payload, item) -> Dict[str, object]:
    """Pool worker: one admit analysis from plain picklable inputs.

    ``item`` is ``(tasks_rows, processors, algorithm)``; the task set is
    rebuilt inside the worker so nothing heavier than the raw rows crosses
    the process boundary (mirrors the sweep runner's design).
    """
    rows, processors, algorithm = item
    inject_delay = float(payload or 0.0)
    with _obs_trace.span("svc.batch_item", algorithm=algorithm):
        taskset = parse_taskset_payload(rows)
        return compute_admit_body(
            taskset, processors, algorithm, inject_delay=inject_delay
        )


# ---------------------------------------------------------------------------
# Service facade
# ---------------------------------------------------------------------------


@dataclass
class _BatchPlan:
    """A validated batch: per-item requests, keys, and cached bodies."""

    items: List[Optional[AdmitRequest]] = field(default_factory=list)
    item_errors: List[Optional[Dict[str, object]]] = field(default_factory=list)
    keys: List[Optional[str]] = field(default_factory=list)
    bodies: List[Optional[Dict[str, object]]] = field(default_factory=list)

    def pending_indices(self) -> List[int]:
        """Indices still needing computation (valid, not cached)."""
        return [
            i
            for i, (req, body) in enumerate(zip(self.items, self.bodies))
            if req is not None and body is None
        ]


class AdmissionService:
    """Validation + cache + analysis, independent of the HTTP transport.

    The HTTP server calls ``prepare_*`` / cache methods on the event loop
    (they are fast) and pushes ``compute_*`` into a worker thread under
    ``config.analysis_timeout``, falling back to
    :func:`degraded_admit_body` on deadline.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        if self.config.store_path:
            # Local import: repro.store builds on the service's cache-key
            # and LRU primitives, so the durable tier is pulled in only
            # when configured.
            from repro.store.backend import ResultStore
            from repro.store.tiered import TieredCache

            self.cache = TieredCache(
                self.config.cache_size, ResultStore(self.config.store_path)
            )
        else:
            self.cache = LRUCache(self.config.cache_size)

    def close(self) -> None:
        """Release the durable cache tier (no-op for the in-memory one)."""
        closer = getattr(self.cache, "close", None)
        if closer is not None:
            closer()

    # -- admit -------------------------------------------------------------

    def prepare_admit(self, payload: object) -> Tuple[AdmitRequest, str]:
        request = parse_admit_request(payload)
        key = admit_cache_key(
            request.taskset, request.processors, request.algorithm
        )
        return request, key

    def compute_admit(self, request: AdmitRequest) -> Dict[str, object]:
        return compute_admit_body(
            request.taskset,
            request.processors,
            request.algorithm,
            inject_delay=self.config.inject_delay,
        )

    def degraded_admit(self, request: AdmitRequest) -> Dict[str, object]:
        COUNTERS.svc_degraded += 1
        return degraded_admit_body(
            request.taskset, request.processors, request.algorithm
        )

    # -- bounds ------------------------------------------------------------

    def prepare_bounds(self, payload: object) -> Tuple[AdmitRequest, str]:
        if not isinstance(payload, dict):
            raise RequestValidationError(
                [{"field": "body", "message": "expected a JSON object"}]
            )
        taskset = parse_taskset_payload(payload.get("tasks"))
        processors = 0
        if payload.get("processors") is not None:
            try:
                processors = as_int("processors", payload["processors"], low=1)
            except ValueError as exc:
                raise RequestValidationError(
                    [{"field": "processors", "message": str(exc)}]
                ) from None
        request = AdmitRequest(
            taskset=taskset, processors=processors, algorithm="bounds"
        )
        key = admit_cache_key(taskset, processors, "bounds", kind="bounds")
        return request, key

    def compute_bounds(self, request: AdmitRequest) -> Dict[str, object]:
        return compute_bounds_body(
            request.taskset, request.processors or None
        )

    # -- batch -------------------------------------------------------------

    def prepare_batch(self, payload: object) -> _BatchPlan:
        """Validate the envelope and each item; resolve cache hits.

        Item-level validation failures do not fail the batch: the bad item
        gets an inline error body and every other item proceeds.
        """
        if not isinstance(payload, dict) or not isinstance(
            payload.get("items"), list
        ):
            raise RequestValidationError(
                [{"field": "items", "message": "expected a JSON object with an 'items' list"}]
            )
        items = payload["items"]
        if not items:
            raise RequestValidationError(
                [{"field": "items", "message": "batch must contain at least one item"}]
            )
        if len(items) > self.config.max_batch:
            raise RequestValidationError(
                [{
                    "field": "items",
                    "message": f"too many items: {len(items)} > limit "
                               f"{self.config.max_batch}",
                }]
            )
        defaults = {
            k: payload[k] for k in ("processors", "algorithm") if k in payload
        }
        plan = _BatchPlan()
        for i, item in enumerate(items):
            merged = dict(defaults)
            if isinstance(item, dict):
                merged.update(item)
            else:
                merged["tasks"] = item
            try:
                request = parse_admit_request(
                    merged, field_prefix=f"items[{i}]."
                )
            except RequestValidationError as exc:
                COUNTERS.svc_validation_errors += 1
                plan.items.append(None)
                plan.item_errors.append(exc.to_payload())
                plan.keys.append(None)
                plan.bodies.append(None)
                continue
            key = admit_cache_key(
                request.taskset, request.processors, request.algorithm
            )
            found, body = self.cache.get(key)
            plan.items.append(request)
            plan.item_errors.append(None)
            plan.keys.append(key)
            plan.bodies.append(body if found else None)
        return plan

    def compute_batch(self, plan: _BatchPlan) -> None:
        """Fill every pending slot of *plan*, using the runner pool.

        Items are dispatched as plain rows over
        :func:`repro.runner.chunked_map`, so ``jobs > 1`` fans the batch
        out over forked workers exactly like the experiment sweeps.
        """
        pending = plan.pending_indices()
        if not pending:
            return
        work = []
        for i in pending:
            req = plan.items[i]
            work.append((req.raw_tasks, req.processors, req.algorithm))
        results = chunked_map(
            _batch_worker,
            work,
            payload=self.config.inject_delay,
            jobs=self.config.jobs,
        )
        if self.config.kernel_validate or perf_config.kernel_batching:
            _kernel_validate_bodies(results)
        for i, body in zip(pending, results):
            plan.bodies[i] = body
            self.cache.put(plan.keys[i], body)

    def degraded_batch(self, plan: _BatchPlan) -> None:
        """Deadline fallback: bound-only verdicts for every pending item."""
        for i in plan.pending_indices():
            req = plan.items[i]
            plan.bodies[i] = self.degraded_admit(req)

    @staticmethod
    def batch_body(plan: _BatchPlan) -> Dict[str, object]:
        results: List[Dict[str, object]] = []
        for req, err, body in zip(plan.items, plan.item_errors, plan.bodies):
            if err is not None:
                results.append({"status": 400, **err})
            else:
                results.append({"status": 200, **body})
        return {
            "count": len(results),
            "admitted": sum(
                1 for r in results if r.get("admitted") is True
            ),
            "results": results,
        }
