"""Strict partitioned RM scheduling (no task splitting).

The classic bin-packing approach the paper's related-work section bounds at
50 % worst-case utilization: every task is assigned entirely to one
processor by a fit heuristic, and the assignment is admitted by either
exact RTA or the L&L utilization test.

Included as the non-splitting baseline in the acceptance-ratio experiments
(E3): the gap between ``partition_no_split`` and the semi-partitioned
algorithms quantifies what task splitting buys.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.core.partition import PartitionResult, ProcessorState
from repro.core.rta import liu_layland_test_holds
from repro.core.task import Subtask, TaskSet

__all__ = ["FitHeuristic", "partition_no_split"]


class FitHeuristic(enum.Enum):
    """Bin-packing heuristic for choosing among feasible processors."""

    #: Lowest-index feasible processor.
    FIRST_FIT = "ff"
    #: Feasible processor with the minimal assigned utilization.
    WORST_FIT = "wf"
    #: Feasible processor with the maximal assigned utilization.
    BEST_FIT = "bf"


def _admits(proc: ProcessorState, candidate: Subtask, admission: str) -> bool:
    """Admission test for strict partitioning (no synthetic deadlines)."""
    if admission == "rta":
        return proc.schedulable_with(candidate)
    if admission == "ll":
        return liu_layland_test_holds(proc.subtasks + [candidate])
    raise ValueError(f"unknown admission test: {admission!r}")


def partition_no_split(
    taskset: TaskSet,
    processors: int,
    *,
    heuristic: FitHeuristic = FitHeuristic.FIRST_FIT,
    admission: str = "rta",
    decreasing_utilization: bool = True,
) -> PartitionResult:
    """Partition without splitting, using *heuristic* + *admission*.

    Parameters
    ----------
    heuristic:
        Processor choice among those that admit the task.
    admission:
        ``"rta"`` (exact) or ``"ll"`` (L&L utilization test per processor).
    decreasing_utilization:
        Sort tasks by decreasing utilization before assigning (the usual
        FFD/WFD/BFD convention); otherwise keep RM priority order.

    Unassignable tasks are collected and the partition reported as failed —
    there is no splitting fallback by design.
    """
    if processors < 1:
        raise ValueError("need at least one processor")
    procs = [ProcessorState(index=q) for q in range(processors)]

    tasks = list(taskset.tasks)
    if decreasing_utilization:
        tasks.sort(key=lambda t: (-t.utilization, t.tid))

    unassigned: List[int] = []
    for task in tasks:
        candidate = Subtask.whole(task)
        target: Optional[ProcessorState] = None
        if heuristic is FitHeuristic.FIRST_FIT:
            # Lazy scan: first-fit only needs the first feasible processor
            # (procs are in index order), so stop probing at the first admit.
            if admission == "rta":
                target = next(
                    (p for p in procs if p.schedulable_with(candidate)), None
                )
            else:
                target = next(
                    (p for p in procs if _admits(p, candidate, admission)),
                    None,
                )
        else:
            feasible = [p for p in procs if _admits(p, candidate, admission)]
            if feasible:
                if heuristic is FitHeuristic.WORST_FIT:
                    target = min(
                        feasible, key=lambda p: (p.utilization, p.index)
                    )
                else:  # BEST_FIT: most loaded feasible processor
                    target = max(
                        feasible, key=lambda p: (p.utilization, -p.index)
                    )
        if target is None:
            unassigned.append(task.tid)
        else:
            target.add(candidate)

    name = f"P-RM-{heuristic.value.upper()}D" if decreasing_utilization else (
        f"P-RM-{heuristic.value.upper()}"
    )
    return PartitionResult(
        algorithm=f"{name}[{admission}]",
        taskset=taskset,
        processors=procs,
        success=not unassigned,
        unassigned_tids=sorted(unassigned),
        info={"heuristic": heuristic.value, "admission": admission},
    )
