"""Registry-wide soundness: every ``success`` passes exact analysis.

Every :data:`~repro.analysis.algorithms.PARTITIONERS` entry runs over
light, heavy, harmonic and K-chain task sets.  Whenever an entry reports
success, each processor must pass the from-scratch exact test — RTA
(:func:`~repro.core.rta.is_schedulable`) for fixed-priority entries, the
demand-bound test for EDF entries — and the partition must validate
cleanly.  Input outside an entry's declared domain
(:func:`~repro.analysis.algorithms.domain_violation`) is skipped, as every
entry point rejects it before partitioning.
"""

import pytest

from repro.analysis.algorithms import PARTITIONERS, domain_violation
from repro.core.baselines.edf import edf_schedulable
from repro.core.rta import is_schedulable
from repro.taskgen.generators import TaskSetGenerator

N = 8
M = 3
U_LEVELS = (0.6, 0.75, 0.9, 1.0)
SEEDS = range(6)

GENERATORS = {
    "light-loguniform": TaskSetGenerator(n=N, period_model="loguniform").light(),
    "heavy-loguniform": TaskSetGenerator(n=N, period_model="loguniform"),
    "harmonic": TaskSetGenerator(n=N, period_model="harmonic"),
    "kchain-2": TaskSetGenerator(n=N, period_model="kchain", k=2),
}


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
def test_every_success_passes_exact_analysis(name):
    partition = PARTITIONERS[name]
    successes = 0
    for gen_name, gen in GENERATORS.items():
        for u_norm in U_LEVELS:
            for seed in SEEDS:
                ts = gen.generate(u_norm=u_norm, processors=M, seed=seed)
                if domain_violation(name, ts) is not None:
                    continue
                result = partition(ts, M)
                if not result.success:
                    continue
                successes += 1
                case = f"{name} on {gen_name}, u={u_norm}, seed={seed}"
                exact = (
                    edf_schedulable if result.scheduler == "edf" else is_schedulable
                )
                for proc in result.processors:
                    assert exact(proc.subtasks), f"{case}: P{proc.index}"
                assert result.validate() == [], case
    # Guard against a vacuous pass: the grid must exercise every entry.
    assert successes > 0, f"{name}: no successful partition was checked"
