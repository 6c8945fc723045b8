"""The standard algorithm menu used across experiments.

Maps short names to :data:`~repro.analysis.acceptance.AcceptanceTest`
callables so every experiment (and user script) refers to algorithms
consistently.  Each callable returns "partitioning succeeded" — which by
Lemma 4 is "schedulable" for the semi-partitioned algorithms.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from repro.analysis.acceptance import AcceptanceTest
from repro.core.bounds import ParametricUtilizationBound, light_task_threshold
from repro.core.baselines.edf import partition_edf
from repro.core.baselines.edf_split import partition_edf_split
from repro.core.baselines.global_rm import rm_us_schedulable
from repro.core.baselines.partitioned import FitHeuristic, partition_no_split
from repro.core.baselines.spa import partition_spa1, partition_spa2
from repro.core.partition import PartitionResult
from repro.core.rmts import partition_rmts
from repro.core.rmts_light import partition_rmts_light
from repro.core.task import TaskSet

__all__ = [
    "LIGHT_ONLY",
    "PARTITIONERS",
    "domain_violation",
    "kernel_checked_algorithms",
    "kernel_checked_test",
    "standard_algorithms",
    "rmts_test",
    "rmts_light_test",
]

#: A partitioner takes ``(taskset, processors)`` and returns a
#: :class:`~repro.core.partition.PartitionResult`.
Partitioner = Callable[[TaskSet, int], PartitionResult]

#: Short-name registry of every partitioning algorithm, shared by the CLI
#: (``python -m repro partition --algorithm``) and the admission-control
#: service (``POST /v1/admit {"algorithm": ...}``) so both speak the same
#: vocabulary.
PARTITIONERS: Dict[str, Partitioner] = {
    "rmts": lambda ts, m: partition_rmts(ts, m),
    "rmts-star": lambda ts, m: partition_rmts(ts, m, dedicate_over_bound=False),
    "rmts-light": lambda ts, m: partition_rmts_light(ts, m),
    "spa1": partition_spa1,
    "spa2": partition_spa2,
    "p-rm": lambda ts, m: partition_no_split(ts, m),
    "p-edf": lambda ts, m: partition_edf(ts, m),
    "edf-ws": lambda ts, m: partition_edf_split(ts, m),
}

#: Registry entries proven only for light task sets (Definition 1: every
#: ``U_i <= Theta/(1+Theta)``).  SPA1's threshold admission is analyzed
#: in [16] for light tasks only; on a heavy set it can return a partition
#: that fails exact RTA, so the service, the CLI and cluster ``repart:*``
#: reject such input instead of running the partitioner.
LIGHT_ONLY = frozenset({"spa1"})


def domain_violation(algorithm: str, taskset: TaskSet) -> Optional[str]:
    """Why *taskset* lies outside *algorithm*'s proven input domain, or
    ``None`` when it is inside (entries outside :data:`LIGHT_ONLY`
    accept every task set)."""
    if algorithm not in LIGHT_ONLY or not len(taskset):
        return None
    threshold = light_task_threshold(len(taskset))
    heavy = [t for t in taskset if not t.is_light(threshold)]
    if not heavy:
        return None
    worst = max(heavy, key=lambda t: t.utilization)
    return (
        f"{algorithm} is defined for light task sets only: {len(heavy)} "
        f"task(s) exceed Theta/(1+Theta) = {threshold:.4f} "
        f"(task {worst.tid} has U = {worst.utilization:.4f})"
    )


def rmts_test(
    bound: Union[ParametricUtilizationBound, float, None] = None,
    **kwargs,
) -> AcceptanceTest:
    """RM-TS acceptance test parameterized by the D-PUB (and any
    :func:`repro.core.rmts.partition_rmts` keyword)."""

    def test(taskset, processors):
        return partition_rmts(taskset, processors, bound=bound, **kwargs).success

    return test


def rmts_light_test(**kwargs) -> AcceptanceTest:
    """RM-TS/light acceptance test."""

    def test(taskset, processors):
        return partition_rmts_light(taskset, processors, **kwargs).success

    return test


def kernel_checked_test(partitioner: Partitioner) -> AcceptanceTest:
    """Wrap a partitioner into a kernel-cross-checked acceptance test.

    When ``perf.config.kernel_batching`` is on, every *successful*
    fixed-priority partition is revalidated through one batched-RTA
    kernel call over all of its processors (``repro.core.kernel``).  By
    Lemma 4 success implies schedulability, so a disagreement can only
    mean a divergence between the incremental admission path and the
    cold batched check — the wrapper raises rather than silently
    flipping the verdict, making sweeps a continuous bit-identity
    tripwire.  With the toggle off (the default) this is exactly
    ``partitioner(...).success``.
    """

    def test(taskset: TaskSet, processors: int) -> bool:
        from repro.perf import config as perf_config

        result = partitioner(taskset, processors)
        if not result.success:
            return False
        if perf_config.kernel_batching and result.scheduler == "fixed":
            from repro.core.kernel import validate_processors

            verdicts = validate_processors(result.processors)
            if not all(verdicts):
                bad = [
                    result.processors[i].index
                    for i, ok in enumerate(verdicts)
                    if not ok
                ]
                raise RuntimeError(
                    f"kernel revalidation disagrees with "
                    f"{result.algorithm}: processors {bad} fail batched "
                    f"RTA on a successful partition"
                )
        return True

    return test


def kernel_checked_algorithms(
    names: Union[list, None] = None,
) -> Dict[str, AcceptanceTest]:
    """Kernel-cross-checked acceptance tests for PARTITIONERS entries.

    The menu sweeps and the frontier search use when batched
    revalidation is wanted; *names* defaults to every registered
    partitioner.
    """
    selected = list(PARTITIONERS) if names is None else list(names)
    unknown = [n for n in selected if n not in PARTITIONERS]
    if unknown:
        raise KeyError(f"unknown partitioners: {unknown}")
    return {n: kernel_checked_test(PARTITIONERS[n]) for n in selected}


def standard_algorithms(
    bound: Union[ParametricUtilizationBound, float, None] = None,
    *,
    include_light: bool = False,
    include_global: bool = False,
) -> Dict[str, AcceptanceTest]:
    """The comparison menu of the acceptance experiments.

    Always includes RM-TS (RTA admission), SPA2 (the [16] baseline) and
    strict partitioned RM with first-fit decreasing + exact RTA.
    """
    algorithms: Dict[str, AcceptanceTest] = {
        "RM-TS": rmts_test(bound),
        "SPA2": lambda ts, m: partition_spa2(ts, m).success,
        "P-RM-FFD": lambda ts, m: partition_no_split(
            ts, m, heuristic=FitHeuristic.FIRST_FIT
        ).success,
    }
    if include_light:
        algorithms["RM-TS/light"] = rmts_light_test()
        algorithms["SPA1"] = lambda ts, m: partition_spa1(ts, m).success
    if include_global:
        algorithms["RM-US(test)"] = rm_us_schedulable
    return algorithms
