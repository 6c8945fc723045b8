"""Counter pin for the E3-shape acceptance sweep.

A seed-0, 3-sample sweep at the shape of the committed ``BENCH_sweep``
config (M=8, n=24, log-uniform periods, the 19-level U_M grid, RM-TS,
SPA2, P-RM-FFD and RM-TS*).  Changes to the admission hot path
(``RTAContext``, MaxSplit, Assign) must be pure re-implementations: the
curves and every work counter below are pinned to exact values, so a
speed-up that skips, repeats or reorders a single fixed-point
iteration fails here.  The same curves and the ``rta_*`` /
``maxsplit_calls`` counts are the end-to-end benchmark's reference gate.
"""

import numpy as np

from repro.analysis.acceptance import acceptance_sweep
from repro.analysis.algorithms import rmts_test, standard_algorithms
from repro.perf.telemetry import COUNTERS
from repro.taskgen.generators import TaskSetGenerator

THIRD = 1.0 / 3.0
TWO_THIRDS = 2.0 / 3.0

EXPECTED_CURVES = {
    "RM-TS": [1.0] * 14 + [TWO_THIRDS, 1.0, 0.0, THIRD, 0.0],
    "SPA2": [1.0] * 7 + [THIRD] + [0.0] * 11,
    "P-RM-FFD": [1.0] * 17 + [0.0, 0.0],
    "RM-TS*": [1.0] * 17 + [TWO_THIRDS, 0.0],
}

EXPECTED_COUNTERS = {
    "rta_calls": 5610,
    "rta_iterations": 9678,
    "maxsplit_calls": 321,
    "admission_probes": 8424,
    "hyper_accepts": 2394,
    "ctx_memo_hits": 1157,
    "ctx_builds": 969,
}


def test_e3_shape_sweep_curves_and_counters_are_pinned():
    algorithms = standard_algorithms()
    algorithms["RM-TS*"] = rmts_test(None, dedicate_over_bound=False)
    assert list(algorithms) == list(EXPECTED_CURVES)
    grid = [float(u) for u in np.arange(0.55, 1.001, 0.025)]
    assert len(grid) == 19
    before = COUNTERS.snapshot()
    result = acceptance_sweep(
        algorithms,
        TaskSetGenerator(n=24, period_model="loguniform"),
        processors=8,
        u_grid=grid,
        samples=3,
        seed=0,
        jobs=1,
    )
    delta = COUNTERS.delta_since(before)
    assert result.curves == EXPECTED_CURVES
    assert {name: delta[name] for name in EXPECTED_COUNTERS} == EXPECTED_COUNTERS
