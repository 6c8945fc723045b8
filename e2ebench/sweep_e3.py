"""Workload ``sweep-e3``: the paper's acceptance sweep, as a library call.

``acceptance_sweep`` at the committed ``BENCH_sweep.json`` shape: M=8,
n=24, log-uniform periods, the 19-level U_M grid 0.55..1.0, and RM-TS,
SPA2, P-RM-FFD and RM-TS*, at ``jobs=1`` so the numbers measure the
program and not the scheduler.  One operation is one sweep cell: one
task set through all four algorithms.

Each timed repeat sweeps the whole grid with ``SAMPLES`` task sets per
level, seeded from the workload seed and the repeat index.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import harness
import layers

M = 8
N = 3 * M
SAMPLES = 10
#: Shape of the reference sweep run (and checked) during set-up.
REFERENCE_SEED = 0
REFERENCE_SAMPLES = 3


def u_grid() -> List[float]:
    """The 19-level grid, built exactly as ``repro.perf.bench_sweep`` does."""
    import numpy as np

    return [float(u) for u in np.arange(0.55, 1.001, 0.025)]


class CellClock:
    """User-side stand-ins for the algorithm menu that stamp the end of
    every cell (the last algorithm's return), so cell latencies can be
    read without touching the program."""

    def __init__(self, algorithms: Dict[str, object]) -> None:
        self.stamps: List[float] = []
        names = list(algorithms)
        last = names[-1]
        self.algorithms = dict(algorithms)
        test = algorithms[last]

        def stamped(ts, m, _test=test):
            verdict = _test(ts, m)
            self.stamps.append(time.perf_counter())
            return verdict

        self.algorithms[last] = stamped


def build() -> Tuple[object, Dict[str, object]]:
    from repro.analysis.algorithms import rmts_test, standard_algorithms
    from repro.taskgen.generators import TaskSetGenerator

    generator = TaskSetGenerator(n=N, period_model="loguniform")
    algorithms = standard_algorithms()
    algorithms["RM-TS*"] = rmts_test(None, dedicate_over_bound=False)
    return generator, algorithms


def sweep(generator, algorithms, *, seed: int, samples: int):
    """One sweep plus its exact counter delta."""
    from repro.analysis.acceptance import acceptance_sweep
    from repro.perf.telemetry import COUNTERS

    before = COUNTERS.snapshot()
    result = acceptance_sweep(
        algorithms, generator, processors=M, u_grid=u_grid(),
        samples=samples, seed=seed, jobs=1,
    )
    return result.curves, COUNTERS.delta_since(before)


GATED_COUNTERS = ("rta_calls", "rta_iterations", "maxsplit_calls")


def check_reference(curves, counters, reference) -> None:
    """Curves and exact counter deltas equal the recorded reference."""
    expected = reference["sweep-e3"]
    harness.require(
        curves == expected["curves"],
        f"sweep-e3: reference curves differ: {curves} != {expected['curves']}",
    )
    for name in GATED_COUNTERS:
        harness.require(
            counters[name] == expected["counters"][name],
            f"sweep-e3: {name} delta {counters[name]} != reference "
            f"{expected['counters'][name]}",
        )


def check_floor(curves) -> None:
    """Theorem 8: RM-TS accepts every task set with U_M <= Theta(n)
    (the Liu & Layland bound is a D-PUB of every task set)."""
    from repro.core.bounds import ll_bound

    theta = ll_bound(N)
    for u, ratio in zip(u_grid(), curves["RM-TS"]):
        if u <= theta:
            harness.require(
                ratio == 1.0,
                f"sweep-e3: RM-TS accepted {ratio:.3f} at U_M={u} <= "
                f"Theta({N})={theta:.4f}",
            )


def setup_round(reference) -> Tuple[object, Dict[str, object]]:
    """Build the inputs and run the reference sweep (also the warm-up)."""
    from repro.core.kernel.engine import resolve_backend

    resolve_backend()
    generator, algorithms = build()
    curves, counters = sweep(
        generator, algorithms,
        seed=REFERENCE_SEED, samples=REFERENCE_SAMPLES,
    )
    check_reference(curves, counters, reference)
    return generator, algorithms


def timed(generator, algorithms, *, seed: int, seconds: float,
          samples: int, window=None) -> Dict[str, object]:
    """Repeat whole-grid sweeps until *seconds* have passed."""
    clock = CellClock(algorithms)
    cells = 0
    repeats = 0
    latencies: List[float] = []
    busy = cpu = 0.0
    deadline = time.perf_counter() + seconds
    while repeats == 0 or time.perf_counter() < deadline:
        clock.stamps.clear()
        t0, c0 = time.perf_counter(), time.process_time()
        curves, _ = sweep(
            generator, clock.algorithms,
            seed=seed * 1000 + repeats, samples=samples,
        )
        busy += time.perf_counter() - t0
        cpu += time.process_time() - c0
        latencies.extend(harness.gaps(t0, clock.stamps))
        cells += len(clock.stamps)
        repeats += 1
        check_floor(curves)
        if window is not None:
            window.collect_spans()
    return {
        "cells": cells,
        "repeats": repeats,
        "latencies": latencies,
        "throughput": cells / busy,
        "cpu_ms_per_op": cpu / cells * 1e3,
    }


def run(seed: int, seconds: float, trace: bool, setup: harness.SetupTimer,
        *, samples: int = SAMPLES) -> harness.Result:
    reference = harness.load_reference()
    for _ in range(harness.SETUP_ROUNDS):
        with setup.round():
            generator, algorithms = setup_round(reference)
    result = harness.Result("sweep-e3", seed, trace)
    result.gates += ["reference curves + rta/maxsplit counters",
                     "Theorem 8 floor: RM-TS accepts all at U_M <= Theta(n)"]

    if not trace:
        out = timed(generator, algorithms, seed=seed, seconds=seconds,
                    samples=samples)
        result.attempted = out["cells"]
        result.metrics.update({
            "setup_s": setup.value(),
            "throughput_per_s": out["throughput"],
            "cpu_ms_per_op": out["cpu_ms_per_op"],
            **harness.latency_summary(out["latencies"]),
            "ok_ratio": 1.0,
            "rss_peak_mb": harness.self_rss_peak_mb(),
        })
        result.notes.update(cells=out["cells"], repeats=out["repeats"],
                            latency_samples=len(out["latencies"]),
                            samples_per_level=samples)
        return result

    untraced, traced, metrics = layers.traced_halves(
        lambda secs, window: timed(generator, algorithms, seed=seed,
                                   seconds=secs, samples=samples,
                                   window=window),
        seconds)
    result.attempted = untraced["cells"] + traced["cells"]
    result.metrics.update(metrics)
    result.notes.update(traced_cells=traced["cells"])
    return result
