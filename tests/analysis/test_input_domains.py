"""Declared input domains of registry partitioners.

SPA1 ([16]) is proven for light task sets only.  On the reproducer below
(an E3-shape cell: n=24 log-uniform, M=8, U_M level 1, sample 5) it
returns ``success=True`` with a processor that fails exact RTA.  The
partitioner itself stays as the paper experiments run it; every entry
point that hands its verdict to a user must refuse the heavy set instead.
"""

import json

import numpy as np
import pytest

from repro.analysis.algorithms import LIGHT_ONLY, PARTITIONERS, domain_violation
from repro.cli import main
from repro.cluster.events import ChurnConfig
from repro.cluster.service import ClusterCoordinator
from repro.core.baselines.spa import partition_spa1
from repro.core.bounds import light_task_threshold
from repro.core.rta import is_schedulable
from repro.core.task import Task, TaskSet
from repro.runner import cell_rng
from repro.service.handlers import compute_admit_body
from repro.service.validation import RequestValidationError
from repro.taskgen.generators import TaskSetGenerator

M = 8


@pytest.fixture(scope="module")
def heavy_set():
    grid = [float(u) for u in np.arange(0.55, 1.001, 0.025)]
    return TaskSetGenerator(n=24, period_model="loguniform").generate(
        u_norm=grid[1], processors=M, seed=cell_rng(0, 1, 5)
    )


def light_set(n=6, u=0.2, period=40.0):
    return TaskSet(Task(cost=u * period, period=period) for _ in range(n))


def test_reproducer_still_exposes_the_spa1_leak(heavy_set):
    """Without the domain guard SPA1 admits a partition exact RTA rejects."""
    result = partition_spa1(heavy_set, M)
    assert result.success
    assert not all(is_schedulable(p.subtasks) for p in result.processors)


def test_only_spa1_declares_a_light_only_domain(heavy_set):
    assert LIGHT_ONLY == {"spa1"}
    assert LIGHT_ONLY <= set(PARTITIONERS)
    for name in PARTITIONERS:
        if name not in LIGHT_ONLY:
            assert domain_violation(name, heavy_set) is None


def test_violation_names_the_threshold_and_the_heaviest_task(heavy_set):
    reason = domain_violation("spa1", heavy_set)
    threshold = light_task_threshold(len(heavy_set))
    worst = max(heavy_set, key=lambda t: t.utilization)
    assert reason is not None
    assert "light task sets only" in reason
    assert f"{threshold:.4f}" in reason
    assert f"task {worst.tid} " in reason


def test_light_and_empty_sets_are_inside_the_domain():
    assert domain_violation("spa1", light_set()) is None
    assert domain_violation("spa1", TaskSet([])) is None


def test_service_rejects_with_reason(heavy_set):
    body = compute_admit_body(heavy_set, M, "spa1")
    assert body["admitted"] is False
    assert body["decided_by"] == "input-domain"
    assert body["reason"] == domain_violation("spa1", heavy_set)
    assert body["partition"] is None


def test_service_still_partitions_light_sets():
    body = compute_admit_body(light_set(), 2, "spa1")
    assert body["admitted"] is True
    assert body["decided_by"].startswith("SPA1")


def test_cli_partition_exits_2_with_reason(heavy_set, tmp_path, capsys):
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps([[t.cost, t.period] for t in heavy_set]))
    assert main(["partition", str(path), "-m", str(M), "-a", "spa1"]) == 2
    err = capsys.readouterr().err
    assert "light task sets only" in err
    assert main(["partition", str(path), "-m", str(M), "-a", "rmts"]) in (0, 1)


@pytest.mark.churn
def test_cluster_repart_spa1_refuses_heavy_tenants(heavy_set):
    coordinator = ClusterCoordinator(
        ChurnConfig(processors=M, policy="repart:spa1")
    )
    with pytest.raises(RequestValidationError, match="light task sets only"):
        coordinator.admit(heavy_set)
    assert coordinator.admit(light_set(n=3))["status"] == "admitted"


@pytest.mark.churn
def test_repart_spa1_never_installs_a_heavy_union(heavy_set):
    """The policy itself refuses, whatever entry point drives it."""
    from repro.cluster.policies import make_policy
    from repro.cluster.state import ClusterState

    config = ChurnConfig(processors=M, policy="repart:spa1")
    policy = make_policy(config)
    state = ClusterState.fresh(config, live=policy.live)
    state.prime_taskset(0, heavy_set)
    assert policy.admit(state, 0, rejoin=False) is None
