"""Churn admission policies: incremental fits, churn-aware variants and
repartition wrappers over the :data:`PARTITIONERS` registry.

Two families share one interface:

* **Incremental** policies keep persistent
  :class:`~repro.core.partition.ProcessorState` and admit whole tasks
  via the cached exact-RTA context
  (:meth:`~repro.core.partition.ProcessorState.schedulable_with`) —
  first-fit / best-fit / worst-fit, plus the churn-aware
  ``bf-rejoin`` (best-fit only for wait-queue re-admissions, which
  tend to be the hard-to-place sets) and ``compact`` (first-fit with a
  defragmenting pass on departure: drain the least-utilized processor
  into the others, at most ``k`` RTA-verified moves per event).
* **Repartition** policies (``repart:<name>``) re-run a whole-taskset
  partitioner from :data:`repro.analysis.algorithms.PARTITIONERS` on
  the union of residents each event, and accept the new placement only
  if at most ``k`` resident tasks change hosts.  On departure, when the
  re-partition fails or would migrate too much, the old placement
  simply drops the departed tenant's pieces — exactly the
  :meth:`~repro.core.partition.PartitionResult.remove_task` path.

Every policy decision is a pure function of the
:class:`~repro.cluster.state.ClusterState` contents, so identical
journals replay to identical decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.algorithms import PARTITIONERS, domain_violation
from repro.cluster.events import ChurnConfig
from repro.cluster.state import ClusterState, decode_tid
from repro.core.partition import PartitionResult, ProcessorState
from repro.core.task import Subtask, Task, TaskSet

__all__ = [
    "AdmitOutcome",
    "CHURN_POLICIES",
    "ChurnPolicy",
    "CompactPolicy",
    "FitPolicy",
    "RepartitionPolicy",
    "make_policy",
]


@dataclass
class AdmitOutcome:
    """What an admission attempt did to the state."""

    #: Journal ops already applied to the state.
    ops: List[List[object]]
    #: Resident tasks that changed hosts during the attempt.
    migrations: int = 0


class ChurnPolicy:
    """Base class; subclasses mutate the state and report ops."""

    #: Registry key (set by :func:`make_policy`).
    name: str = ""
    #: Whether the policy maintains live ProcessorStates.
    live: bool = True

    def __init__(self, config: ChurnConfig) -> None:
        self.config = config

    def admit(
        self,
        state: ClusterState,
        tenant: int,
        *,
        rejoin: bool,
        migration_budget: Optional[int] = None,
    ) -> Optional[AdmitOutcome]:
        """Try to admit *tenant*; mutate the state and return the ops on
        success, ``None`` (state unchanged) on rejection.

        *migration_budget* is the number of task relocations the current
        event may still spend (defaults to ``config.k``); the simulator
        threads it through queue drains so one event never migrates more
        than ``k`` tasks in total."""
        raise NotImplementedError

    def on_departure(self, state: ClusterState) -> AdmitOutcome:
        """React to freed capacity (called after the withdraw op);
        default: do nothing."""
        return AdmitOutcome(ops=[])


# ---------------------------------------------------------------------------
# Incremental fit policies
# ---------------------------------------------------------------------------


def _first_fit_key(proc: ProcessorState) -> Tuple[float, int]:
    return (0.0, proc.index)


def _best_fit_key(proc: ProcessorState) -> Tuple[float, int]:
    return (-proc.utilization, proc.index)


def _worst_fit_key(proc: ProcessorState) -> Tuple[float, int]:
    return (proc.utilization, proc.index)


_FIT_ORDERS: Dict[str, Callable[[ProcessorState], Tuple[float, int]]] = {
    "first": _first_fit_key,
    "best": _best_fit_key,
    "worst": _worst_fit_key,
}


class FitPolicy(ChurnPolicy):
    """Whole-task placement against live processors, exact-RTA verified.

    Tasks are placed in tenant-local RM order; each task goes to the
    first processor, in the fit order, whose incremental RTA admits it.
    Admission is all-or-nothing: a partial placement is rolled back
    (removal restores the utilization accumulator bit-exactly, see
    :meth:`~repro.core.partition.ProcessorState.remove_parent`).
    """

    def __init__(
        self,
        config: ChurnConfig,
        order: str = "first",
        rejoin_order: Optional[str] = None,
    ) -> None:
        super().__init__(config)
        self._order = _FIT_ORDERS[order]
        self._rejoin_order = _FIT_ORDERS[rejoin_order or order]

    def admit(
        self,
        state: ClusterState,
        tenant: int,
        *,
        rejoin: bool,
        migration_budget: Optional[int] = None,
    ) -> Optional[AdmitOutcome]:
        assert state.processors is not None
        key = self._rejoin_order if rejoin else self._order
        tasks = state.tasks_of(tenant)
        placed: List[Tuple[int, Task]] = []
        host_lists: List[List[int]] = []
        for task in tasks:
            candidate = Subtask.whole(task)
            target: Optional[ProcessorState] = None
            for proc in sorted(state.processors, key=key):
                if proc.schedulable_with(candidate):
                    target = proc
                    break
            if target is None:
                for index, done in placed:
                    state.processors[index].remove_parent(done.tid)
                return None
            target.add(candidate)
            placed.append((target.index, task))
            host_lists.append([target.index])
        # Trial adds already happened; record residency + the journal op.
        for local, (task, hosts) in enumerate(zip(tasks, host_lists)):
            state.hosts[(tenant, local)] = tuple(hosts)
        state.residents[tenant] = tasks
        return AdmitOutcome(ops=[["place", tenant, host_lists]])


class CompactPolicy(FitPolicy):
    """First-fit admission + defragmenting compaction on departure.

    After a departure, the least-utilized non-empty processor is drained
    best-fit into the others — at most ``k`` moves, each re-verified by
    the destination's incremental RTA before the task relocates.  Fully
    draining a processor recreates the contiguous free capacity that
    first-fit admission relies on.
    """

    def on_departure(self, state: ClusterState) -> AdmitOutcome:
        assert state.processors is not None
        ops: List[List[object]] = []
        budget = self.config.k
        if budget == 0:
            return AdmitOutcome(ops=ops)
        non_empty = [p for p in state.processors if p.subtasks]
        if len(non_empty) <= 1:
            return AdmitOutcome(ops=ops)
        source = min(non_empty, key=lambda p: (p.utilization, p.index))
        movable = sorted(source.subtasks, key=lambda s: s.priority)
        for sub in movable:
            if len(ops) >= budget:
                break
            destinations = sorted(
                (p for p in state.processors if p is not source),
                key=_best_fit_key,
            )
            for dst in destinations:
                if dst.schedulable_with(sub):
                    tenant, local = decode_tid(sub.parent.tid)
                    state.apply_migrate(tenant, local, source.index, dst.index)
                    ops.append(
                        ["migrate", tenant, local, source.index, dst.index]
                    )
                    break
        return AdmitOutcome(ops=ops, migrations=len(ops))


# ---------------------------------------------------------------------------
# Repartition policies (PARTITIONERS wrappers)
# ---------------------------------------------------------------------------


class RepartitionPolicy(ChurnPolicy):
    """Re-run a registry partitioner on the resident union every event."""

    live = False

    def __init__(self, config: ChurnConfig, partitioner_name: str) -> None:
        super().__init__(config)
        self.partitioner_name = partitioner_name
        self._partition = PARTITIONERS[partitioner_name]

    def _union(
        self, state: ClusterState, extra: Optional[int]
    ) -> Tuple[TaskSet, Dict[int, Tuple[int, int]]]:
        """Union task set over residents (+ the arriving tenant) and the
        union-tid -> (tenant, local) mapping.

        ``TaskSet`` sorts by ``(period, input position)`` and re-assigns
        tids; replicating that sort on the input list recovers the
        ownership of every union tid exactly.
        """
        raw: List[Task] = []
        owners: List[Tuple[int, int]] = []
        tenants = state.resident_order()
        if extra is not None:
            tenants.append(extra)
        for tenant in tenants:
            for local, task in enumerate(state.tasks_of(tenant)):
                raw.append(Task(cost=task.cost, period=task.period))
                owners.append((tenant, local))
        union = TaskSet(raw)
        order = sorted(range(len(raw)), key=lambda i: (raw[i].period, i))
        mapping = {
            new_tid: owners[i] for new_tid, i in enumerate(order)
        }
        return union, mapping

    def _try_install(
        self,
        state: ClusterState,
        extra: Optional[int],
        *,
        migration_budget: int,
    ) -> Optional[AdmitOutcome]:
        """Partition the union; install if feasible within the budget."""
        if not state.residents and extra is None:
            state.apply_install([], {})
            return AdmitOutcome(ops=[["install", [], {}]])
        union, mapping = self._union(state, extra)
        if domain_violation(self.partitioner_name, union) is not None:
            # Outside the partitioner's proven domain (SPA1 on a heavy
            # union): its partition is not trusted, so nothing installs.
            return None
        result = self._partition(union, self.config.processors)
        if not result.success:
            return None
        new_hosts: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        for tid in range(len(union)):
            new_hosts[mapping[tid]] = tuple(result.processors_hosting(tid))
        migrations = sum(
            1
            for key, hosts in new_hosts.items()
            if key in state.hosts and state.hosts[key] != hosts
        )
        if migrations > migration_budget:
            return None
        if not self._migrations_verified(result, state, new_hosts):
            return None
        order = state.resident_order()
        if extra is not None:
            order.append(extra)
        host_map = {
            f"{tenant}:{local}": list(hosts)
            for (tenant, local), hosts in new_hosts.items()
        }
        state.apply_install(order, host_map)
        return AdmitOutcome(
            ops=[["install", order, host_map]], migrations=migrations
        )

    def _migrations_verified(
        self,
        result: PartitionResult,
        state: ClusterState,
        new_hosts: Dict[Tuple[int, int], Tuple[int, ...]],
    ) -> bool:
        """Re-verify processors receiving migrated tasks with exact RTA.

        The partitioner admitted every placement already; this re-checks
        the destination processors of actual *migrations* independently
        (EDF-dispatched partitions are covered by the partitioner's own
        exact DBF test instead).
        """
        if result.scheduler != "fixed":
            return True
        touched = set()
        for key, hosts in new_hosts.items():
            if key in state.hosts and state.hosts[key] != hosts:
                touched.update(hosts)
        return all(
            result.processors[q].is_schedulable() for q in sorted(touched)
        )

    def admit(
        self,
        state: ClusterState,
        tenant: int,
        *,
        rejoin: bool,
        migration_budget: Optional[int] = None,
    ) -> Optional[AdmitOutcome]:
        budget = (
            self.config.k if migration_budget is None else migration_budget
        )
        return self._try_install(state, tenant, migration_budget=budget)

    def on_departure(self, state: ClusterState) -> AdmitOutcome:
        """Re-partition the survivors; fall back to the pruned placement
        (old hosts minus the departed tenant) when infeasible or too
        migratory — capacity is then reclaimed lazily by later events."""
        outcome = self._try_install(
            state, None, migration_budget=self.config.k
        )
        if outcome is not None:
            return outcome
        # Keep the placement the withdraw op already pruned; journal the
        # surviving map wholesale so replay stays a pure state copy.
        order = state.resident_order()
        host_map = state.hosts_as_json()
        return AdmitOutcome(ops=[["install", order, host_map]])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _policy_factories() -> Dict[str, Callable[[ChurnConfig], ChurnPolicy]]:
    factories: Dict[str, Callable[[ChurnConfig], ChurnPolicy]] = {
        "ff-rta": lambda cfg: FitPolicy(cfg, "first"),
        "bf-rta": lambda cfg: FitPolicy(cfg, "best"),
        "wf-rta": lambda cfg: FitPolicy(cfg, "worst"),
        "bf-rejoin": lambda cfg: FitPolicy(
            cfg, "first", rejoin_order="best"
        ),
        "compact": lambda cfg: CompactPolicy(cfg, "first"),
    }
    for name in PARTITIONERS:
        factories[f"repart:{name}"] = (
            lambda cfg, _name=name: RepartitionPolicy(cfg, _name)
        )
    return factories


#: Policy registry: incremental fits, churn-aware variants, and one
#: ``repart:<name>`` wrapper per ``PARTITIONERS`` entry.
CHURN_POLICIES: Dict[str, Callable[[ChurnConfig], ChurnPolicy]] = (
    _policy_factories()
)


def make_policy(config: ChurnConfig) -> ChurnPolicy:
    """Instantiate the policy named by ``config.policy``."""
    try:
        factory = CHURN_POLICIES[config.policy]
    except KeyError:
        raise ValueError(
            f"unknown churn policy {config.policy!r}; "
            f"known: {', '.join(sorted(CHURN_POLICIES))}"
        ) from None
    policy = factory(config)
    policy.name = config.policy
    return policy
