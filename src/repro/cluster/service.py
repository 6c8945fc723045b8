"""Live cluster coordination behind the admission service.

``python -m repro serve --cluster`` turns the stateless admit endpoint
into a *stateful* cluster front door: ``POST /v1/admit`` places the
submitted task set onto the persistent per-processor state (assigning a
tenant id), ``POST /v1/depart`` withdraws a tenant and lets the churn
policy react (reclaim, re-admit from the bounded wait queue, migrate at
most ``k`` tasks), and ``GET /v1/cluster`` snapshots the live state.

The :class:`ClusterCoordinator` is synchronous and thread-safe (one
lock around the shared :class:`~repro.cluster.state.ClusterState`); the
``*_async`` helpers are the event-loop-facing wrappers that push the
locked mutation into an executor so the server never blocks the loop —
the same discipline lint rule R3 enforces for the analysis handlers.

Unlike the simulator, tenants here bring their *own* task sets, so the
coordinator validates them against the cluster-tid envelope (period and
set-size caps of :func:`~repro.cluster.state.cluster_tid`) and primes
the state's task-set cache before admission.  Wait-queue expiry runs on
wall-clock seconds (injectable for tests) because there is no simulated
time in a live service.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.algorithms import domain_violation
from repro.cluster.events import ChurnConfig
from repro.cluster.policies import RepartitionPolicy, make_policy
from repro.cluster.state import ClusterState
from repro.core.task import TaskSet
from repro.perf.telemetry import COUNTERS
from repro.service.validation import RequestValidationError

__all__ = [
    "ClusterCoordinator",
    "admit_async",
    "depart_async",
]

#: Local index cap of the cluster-tid encoding (two decimal digits).
_MAX_SET_SIZE = 99


class ClusterCoordinator:
    """Serialized admission/departure against one live cluster state.

    Every public method takes the instance lock, so the coordinator can
    be shared by the asyncio server's worker threads.  All state flows
    through the same policy layer as the churn simulator; only the
    task-set source (client payloads instead of generated tenants) and
    the wait-queue clock (wall seconds instead of simulated time)
    differ.
    """

    def __init__(
        self,
        config: ChurnConfig,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config
        self.policy = make_policy(config)
        self.state = ClusterState.fresh(config, live=self.policy.live)
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._next_tenant = 0
        #: Bounded wait queue: (tenant, wall-clock arrival stamp).
        self._queue: List[Tuple[int, float]] = []
        self._queue_timeouts = 0

    # -- internals (caller holds the lock) ----------------------------------

    def _validate_taskset(self, taskset: TaskSet) -> None:
        errors: List[Dict[str, str]] = []
        if len(taskset) > _MAX_SET_SIZE:
            errors.append({
                "field": "tasks",
                "message": f"cluster mode admits at most {_MAX_SET_SIZE} "
                           f"tasks per set, got {len(taskset)}",
            })
        else:
            for task in taskset:
                if task.period > self.config.tmax:
                    errors.append({
                        "field": f"tasks[{task.tid}].period",
                        "message": f"period {task.period:g} exceeds the "
                                   f"cluster cap {self.config.tmax:g}",
                    })
        if isinstance(self.policy, RepartitionPolicy):
            # The light threshold only shrinks as the union grows, so a
            # task heavy in its own set is heavy in every union with it.
            violation = domain_violation(self.policy.partitioner_name, taskset)
            if violation is not None:
                errors.append({"field": "tasks", "message": violation})
        if errors:
            raise RequestValidationError(errors)

    def _expire_queue(self, now: float) -> int:
        fresh = []
        expired = 0
        for tenant, arrived in self._queue:
            if now - arrived > self.config.max_wait:
                expired += 1
                self.state.forget_taskset(tenant)
            else:
                fresh.append((tenant, arrived))
        self._queue = fresh
        if expired:
            self._queue_timeouts += expired
            COUNTERS.cl_queue_timeouts += expired
        return expired

    def _drain_queue(self, now: float, budget: int) -> List[Dict[str, object]]:
        """FIFO skip-blocked re-admission, sharing one migration budget."""
        readmitted: List[Dict[str, object]] = []
        spent = 0
        remaining: List[Tuple[int, float]] = []
        for tenant, arrived in self._queue:
            outcome = self.policy.admit(
                self.state, tenant, rejoin=True,
                migration_budget=budget - spent,
            )
            if outcome is None:
                remaining.append((tenant, arrived))
                continue
            spent += outcome.migrations
            COUNTERS.cl_admits += 1
            COUNTERS.cl_readmits += 1
            if outcome.migrations:
                COUNTERS.cl_migrations += outcome.migrations
            readmitted.append({
                "tenant": tenant,
                "waited_seconds": round(now - arrived, 6),
                "migrations": outcome.migrations,
            })
        self._queue = remaining
        return readmitted

    def _utilization(self) -> float:
        return round(self.state.utilization(), 6)

    def _placement_of(self, tenant: int) -> Dict[str, List[int]]:
        return {
            str(local): list(hosts)
            for (t, local), hosts in sorted(self.state.hosts.items())
            if t == tenant
        }

    # -- public API ----------------------------------------------------------

    def admit(self, taskset: TaskSet) -> Dict[str, object]:
        """Place *taskset* as a new tenant; admitted, queued or rejected."""
        with self._lock:
            COUNTERS.cl_events += 1
            self._validate_taskset(taskset)
            now = self._clock()
            self._expire_queue(now)
            tenant = self._next_tenant
            self._next_tenant += 1
            self.state.prime_taskset(tenant, taskset)
            outcome = self.policy.admit(self.state, tenant, rejoin=False)
            if outcome is not None:
                COUNTERS.cl_admits += 1
                if outcome.migrations:
                    COUNTERS.cl_migrations += outcome.migrations
                return {
                    "status": "admitted",
                    "tenant": tenant,
                    "n": len(taskset),
                    "migrations": outcome.migrations,
                    "placement": self._placement_of(tenant),
                    "utilization": self._utilization(),
                }
            if len(self._queue) < self.config.queue_limit:
                self._queue.append((tenant, now))
                COUNTERS.cl_queued += 1
                return {
                    "status": "queued",
                    "tenant": tenant,
                    "n": len(taskset),
                    "position": len(self._queue),
                    "max_wait_seconds": self.config.max_wait,
                    "utilization": self._utilization(),
                }
            self.state.forget_taskset(tenant)
            COUNTERS.cl_rejects += 1
            return {
                "status": "rejected",
                "tenant": tenant,
                "n": len(taskset),
                "queue_limit": self.config.queue_limit,
                "utilization": self._utilization(),
            }

    def depart(self, tenant: int) -> Dict[str, object]:
        """Withdraw *tenant*; let the policy react and drain the queue."""
        with self._lock:
            COUNTERS.cl_events += 1
            now = self._clock()
            self._expire_queue(now)
            if tenant in self.state.residents:
                pieces = self.state.apply_withdraw(tenant)
                self.state.forget_taskset(tenant)
                COUNTERS.cl_departures += 1
                reaction = self.policy.on_departure(self.state)
                if reaction.migrations:
                    COUNTERS.cl_migrations += reaction.migrations
                readmitted = self._drain_queue(
                    now, self.config.k - reaction.migrations
                )
                return {
                    "status": "departed",
                    "tenant": tenant,
                    "pieces_removed": pieces,
                    "migrations": reaction.migrations,
                    "readmitted": readmitted,
                    "utilization": self._utilization(),
                }
            queued = [t for t, _ in self._queue]
            if tenant in queued:
                self._queue = [
                    entry for entry in self._queue if entry[0] != tenant
                ]
                self.state.forget_taskset(tenant)
                return {
                    "status": "dequeued",
                    "tenant": tenant,
                    "utilization": self._utilization(),
                }
            return {
                "status": "unknown",
                "tenant": tenant,
                "utilization": self._utilization(),
            }

    def snapshot(self) -> Dict[str, object]:
        """The ``GET /v1/cluster`` body: who is where, right now."""
        with self._lock:
            now = self._clock()
            self._expire_queue(now)
            return {
                "policy": self.config.policy,
                "processors": self.config.processors,
                "k": self.config.k,
                "residents": self.state.resident_order(),
                "queued": [t for t, _ in self._queue],
                "queue_limit": self.config.queue_limit,
                "queue_timeouts": self._queue_timeouts,
                "tenants_seen": self._next_tenant,
                "utilization": self._utilization(),
                "per_processor_utilization": [
                    round(p.utilization, 6) for p in self.state.processors
                ]
                if self.state.processors is not None
                else None,
            }


async def admit_async(
    coordinator: ClusterCoordinator,
    taskset: TaskSet,
    executor=None,
) -> Dict[str, object]:
    """Admit on an executor thread so the event loop never holds the
    coordinator lock (R3: no blocking work inside async handlers)."""
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(
        executor, lambda: coordinator.admit(taskset)
    )


async def depart_async(
    coordinator: ClusterCoordinator,
    tenant: int,
    executor=None,
) -> Dict[str, object]:
    """Departure counterpart of :func:`admit_async`."""
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(
        executor, lambda: coordinator.depart(tenant)
    )
