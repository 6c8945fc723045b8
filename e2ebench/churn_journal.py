"""Workload ``churn-journal``: journaled churn simulation, as a library call.

``simulate_churn`` on 8 processors at offered load 0.9, running the
policies ``ff-rta``, ``compact`` and ``repart:rmts`` back to back; each
run journals every event into a fresh ``ResultStore``.  One operation is
one churn event.  Each timed round runs the three policies on a
configuration seeded from the workload seed and the round index.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List

import harness
import layers

POLICIES = ("ff-rta", "compact", "repart:rmts")
PROCESSORS = 8
#: Offered load = rate * mean_lifetime (400) * u_set (0.5) / processors.
ARRIVAL_RATE = 0.036
HORIZON = 100
REFERENCE_SEED = 0
REFERENCE_HORIZON = 30


def config(policy: str, seed: int, horizon: int):
    from repro.cluster.events import ChurnConfig

    cfg = ChurnConfig(policy=policy, processors=PROCESSORS, seed=seed,
                      horizon=horizon, arrival_rate=ARRIVAL_RATE)
    if abs(cfg.offered_load() - 0.9) > 1e-9:
        raise ValueError(f"offered load {cfg.offered_load()} != 0.9")
    return cfg


def stamped_store(path: str):
    """A ``ResultStore`` that stamps each journal write, so per-event
    latencies can be read without touching the program."""
    from repro.store.backend import ResultStore

    class StampedStore(ResultStore):
        def __init__(self, path: str) -> None:
            super().__init__(path)
            self.stamps: List[float] = []

        def put(self, namespace, key, value):
            out = super().put(namespace, key, value)
            self.stamps.append(time.perf_counter())
            return out

    return StampedStore(path)


def check_journal(cfg, result, store) -> None:
    """One journal row per event; the last row's metrics equal the run's;
    replaying the ops rebuilds live processors that pass exact RTA."""
    from repro.cluster.policies import make_policy
    from repro.cluster.state import ClusterState

    journal = store.get_namespace(result.namespace)
    harness.require(
        len(journal) == result.events_total == result.events_processed,
        f"churn-journal {cfg.policy}: {len(journal)} journal rows for "
        f"{result.events_total} events",
    )
    last = journal[str(result.events_total - 1)]
    harness.require(
        last["metrics"] == result.metrics.as_state(),
        f"churn-journal {cfg.policy}: journaled metrics differ from result",
    )
    state = ClusterState.fresh(cfg, live=make_policy(cfg).live)
    for index in range(result.events_total):
        for op in journal[str(index)]["ops"]:
            state.apply_op(op)
    for proc in state.processors or ():
        harness.require(
            proc.is_schedulable(),
            f"churn-journal {cfg.policy}: processor {proc.index} fails "
            f"exact RTA after replay",
        )


def one_run(cfg, directory: str, name: str):
    """Simulate *cfg* into a fresh store; returns (result, store, t0, t1)."""
    from repro.cluster.simulator import simulate_churn

    t0 = time.perf_counter()
    store = stamped_store(os.path.join(directory, name))
    result = simulate_churn(cfg, store=store)
    return result, store, t0, time.perf_counter()


def discard(store, path: str) -> None:
    store.close()
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def check_reference(reference, directory: str) -> None:
    """Each policy's final metrics at the reference seed equal the record."""
    expected = reference["churn-journal"]
    for policy in POLICIES:
        cfg = config(policy, REFERENCE_SEED, REFERENCE_HORIZON)
        result, store, _, _ = one_run(cfg, directory, "reference.db")
        try:
            check_journal(cfg, result, store)
            harness.require(
                result.metrics.as_state() == expected[policy],
                f"churn-journal {policy}: final metrics differ from the "
                f"reference: {result.metrics.as_state()} != {expected[policy]}",
            )
        finally:
            discard(store, os.path.join(directory, "reference.db"))


def timed(directory: str, *, seed: int, seconds: float, horizon: int,
          window=None) -> Dict[str, object]:
    """Run rounds of the three policies until *seconds* have passed."""
    events = 0
    busy = cpu = 0.0
    latencies: List[float] = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for policy in POLICIES:
            cfg = config(policy, seed * 1000 + rounds, horizon)
            name = f"{policy.replace(':', '_')}-{rounds}.db"
            c0 = time.process_time()
            result, store, t0, t1 = one_run(cfg, directory, name)
            cpu += time.process_time() - c0
            busy += t1 - t0
            latencies.extend(harness.gaps(t0, store.stamps))
            events += result.events_total
            try:
                check_journal(cfg, result, store)
            finally:
                discard(store, os.path.join(directory, name))
            if window is not None:
                window.collect_spans()
        rounds += 1
    return {"events": events, "rounds": rounds, "latencies": latencies,
            "throughput": events / busy, "cpu_ms_per_op": cpu / events * 1e3}


def run(seed: int, seconds: float, trace: bool, setup: harness.SetupTimer,
        *, horizon: int = HORIZON) -> harness.Result:
    reference = harness.load_reference()
    directory = harness.work_dir("churn", f"{os.getpid()}")
    try:
        for _ in range(harness.SETUP_ROUNDS):
            with setup.round():
                check_reference(reference, directory)
        result = harness.Result("churn-journal", seed, trace)
        result.gates += [
            "reference final ChurnMetrics per policy",
            "one journal row per event; journaled metrics == result",
            "replayed live processors pass exact RTA",
        ]
        if not trace:
            out = timed(directory, seed=seed, seconds=seconds,
                        horizon=horizon)
            result.attempted = out["events"]
            result.metrics.update({
                "setup_s": setup.value(),
                "throughput_per_s": out["throughput"],
                "cpu_ms_per_op": out["cpu_ms_per_op"],
                **harness.latency_summary(out["latencies"]),
                "ok_ratio": 1.0,
                "rss_peak_mb": harness.self_rss_peak_mb(),
            })
            result.notes.update(events=out["events"], rounds=out["rounds"],
                                latency_samples=len(out["latencies"]),
                                horizon=horizon)
            return result

        untraced, traced, metrics = layers.traced_halves(
            lambda secs, window: timed(directory, seed=seed, seconds=secs,
                                       horizon=horizon, window=window),
            seconds)
        result.attempted = untraced["events"] + traced["events"]
        result.metrics.update(metrics)
        result.notes.update(traced_events=traced["events"])
        return result
    finally:
        shutil.rmtree(directory, ignore_errors=True)
