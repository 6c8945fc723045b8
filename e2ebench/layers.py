"""Per-layer measurement for traced runs.

Two sources feed the per-layer metrics:

* wrappers installed from this file around each layer's public
  functions, patched where the *caller* looks the function up (a module
  global, a class attribute, a registry entry), counting calls and busy
  time; and
* the program's own instrumentation: ``repro.perf.telemetry.COUNTERS``
  deltas, the ``repro.obs`` spans (``sweep.cell``, ``svc.request``,
  ``svc.compute_admit``) and histograms (store and cluster).

Nothing here runs in an untraced run: ``Probe.install`` is only called
when ``--trace 1`` is given, and ``Probe.uninstall`` restores every
patched attribute.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: Per-layer metrics, in report order: name -> (unit, better).  The same
#: set is reported on every workload, so a layer a workload does not use
#: reads 0 there ("should not move").
PARTITION_ALGORITHMS = ("rmts", "rmts-star", "spa2", "p-rm")

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "taskgen.generate.calls": ("count", "lower"),
    "taskgen.generate.busy_s": ("s", "lower"),
}
for _alg in PARTITION_ALGORITHMS:
    PER_LAYER[f"core.partition.{_alg}.calls"] = ("count", "lower")
    PER_LAYER[f"core.partition.{_alg}.busy_s"] = ("s", "lower")
    PER_LAYER[f"core.partition.{_alg}.success_ratio"] = ("ratio", "higher")
PER_LAYER.update({
    "core.admission.fits.calls": ("count", "lower"),
    "core.admission.fits.busy_s": ("s", "lower"),
    "core.admission.split_cost.calls": ("count", "lower"),
    "core.admission.split_cost.busy_s": ("s", "lower"),
    "core.maxsplit.calls": ("count", "lower"),
    "core.maxsplit.busy_s": ("s", "lower"),
    "core.rta.calls": ("count", "lower"),
    "core.rta.iterations": ("count", "lower"),
    "core.rta.iterations_per_call": ("count", "lower"),
    "core.rta.probes": ("count", "lower"),
    "core.rta.hyper_accept_ratio": ("ratio", "higher"),
    "core.rta.ctx_hit_rate": ("ratio", "higher"),
    "core.rta.ctx_builds": ("count", "lower"),
    "core.kernel.requests": ("count", "lower"),
    "core.kernel.lane_iterations": ("count", "lower"),
    "sweep.cell.busy_s": ("s", "lower"),
    "service.request.busy_s": ("s", "lower"),
    "service.request.self_s": ("s", "lower"),
    "service.compute_admit.busy_s": ("s", "lower"),
    "service.validation.busy_s": ("s", "lower"),
    "service.cache_key.busy_s": ("s", "lower"),
    "service.serialize.busy_s": ("s", "lower"),
    "service.wait_ms_p50": ("ms", "lower"),
    "service.wait_ms_p99": ("ms", "lower"),
    "service.cache.hit_ratio": ("ratio", "lower"),
    "service.shed": ("count", "lower"),
    "cluster.events": ("count", "lower"),
    "cluster.readmits": ("count", "higher"),
    "cluster.migrations": ("count", "lower"),
    "cluster.admit.busy_s": ("s", "lower"),
    "cluster.depart.busy_s": ("s", "lower"),
    "cluster.event.busy_s": ("s", "lower"),
    "store.puts": ("count", "lower"),
    "store.put.busy_s": ("s", "lower"),
    "store.get.busy_s": ("s", "lower"),
    "trace.untraced_throughput_per_s": ("1/s", "higher"),
    "trace.traced_throughput_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
})


class Probe:
    """Call counts, busy seconds and successes per wrapped layer key.

    Thread-safe (the server computes admissions in executor threads).
    Busy time is counted for the outermost call of a key only, so a
    re-entrant call is not billed twice.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.successes: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object, bool]] = []

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.busy.clear()
            self.successes.clear()

    def _record(self, key: str, seconds: float, outer: bool, ok: bool) -> None:
        with self._lock:
            self.calls[key] += 1
            if outer:
                self.busy[key] += seconds
            if ok:
                self.successes[key] += 1

    def wrap(
        self,
        fn: Callable,
        key: str,
        *,
        classify: Optional[Callable[[tuple, dict], str]] = None,
        success: Optional[Callable[[object], bool]] = None,
    ) -> Callable:
        """A timed stand-in for *fn* billing calls to *key* (or to the key
        *classify* derives from the call's arguments)."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            name = key if classify is None else classify(args, kwargs)
            depth = getattr(self._local, name, 0)
            setattr(self._local, name, depth + 1)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                setattr(self._local, name, depth)
            self._record(
                name, elapsed, depth == 0,
                success is not None and bool(success(result)),
            )
            return result

        return timed

    def patch(self, owner: object, attr: str, key: str, **kwargs) -> None:
        """Replace ``owner.attr`` (module global, class attribute, dict
        entry) by a timed wrapper; :meth:`uninstall` restores it."""
        is_item = isinstance(owner, dict)
        original = owner[attr] if is_item else getattr(owner, attr)
        wrapped = self.wrap(original, key, **kwargs)
        if is_item:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original, is_item))

    def install_core(self) -> None:
        """Wrap task generation, the partitioners the workloads call,
        admission, MaxSplit and the churn policies' entry points."""
        from repro.analysis import algorithms
        from repro.cluster import simulator
        from repro.core import admission
        from repro.taskgen.generators import TaskSetGenerator

        self.patch(TaskSetGenerator, "generate", "taskgen.generate")

        def rmts_variant(args, kwargs):
            star = kwargs.get("dedicate_over_bound") is False
            return "core.partition.rmts-star" if star else "core.partition.rmts"

        succeeded = lambda result: result.success  # noqa: E731
        # rmts_test() closures and the PARTITIONERS lambdas look these up
        # as module globals of repro.analysis.algorithms at call time.
        self.patch(algorithms, "partition_rmts", "core.partition.rmts",
                   classify=rmts_variant, success=succeeded)
        self.patch(algorithms, "partition_spa2", "core.partition.spa2",
                   success=succeeded)
        self.patch(algorithms, "partition_no_split", "core.partition.p-rm",
                   success=succeeded)
        # PARTITIONERS["spa2"] holds the function object itself.
        self.patch(algorithms.PARTITIONERS, "spa2", "core.partition.spa2",
                   success=succeeded)

        for policy_cls in (admission.ExactRTAAdmission,
                           admission.ThresholdAdmission):
            self.patch(policy_cls, "fits", "core.admission.fits")
            self.patch(policy_cls, "split_cost", "core.admission.split_cost")
        self.patch(admission, "max_split", "core.maxsplit")

        # simulate_churn builds its policy through this module global; the
        # instance's admit/on_departure are wrapped as instance attributes.
        make_policy = simulator.make_policy

        def traced_make_policy(config):
            policy = make_policy(config)
            policy.admit = self.wrap(policy.admit, "cluster.admit")
            policy.on_departure = self.wrap(
                policy.on_departure, "cluster.depart"
            )
            return policy

        simulator.make_policy = traced_make_policy
        self._undo.append((simulator, "make_policy", make_policy, False))

    def install_service(self) -> None:
        """Wrap the service's validation, cache key and serialization
        steps where ``repro.service`` looks them up."""
        import json
        import types

        from repro.service import handlers, server

        self.patch(handlers, "parse_admit_request", "service.validation")
        self.patch(handlers, "admit_cache_key", "service.cache_key")
        self.patch(handlers, "partition_to_dict", "service.serialize")
        # The server encodes bodies with json.dumps through its module
        # global ``json``; give it a stand-in whose dumps is timed.
        stand_in = types.SimpleNamespace(
            dumps=self.wrap(json.dumps, "service.serialize"),
            loads=json.loads,
            JSONDecodeError=json.JSONDecodeError,
        )
        self._undo.append((server, "json", server.json, False))
        server.json = stand_in

    def uninstall(self) -> None:
        for owner, attr, original, is_item in reversed(self._undo):
            if is_item:
                owner[attr] = original  # type: ignore[index]
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def totals(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "busy": dict(self.busy),
                "successes": dict(self.successes),
            }


class Window:
    """One traced measurement window: arms the program's tracing and
    metrics, and snapshots counters and histograms at the start."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe

    def start(self) -> None:
        from repro.obs import metrics, trace
        from repro.perf.telemetry import COUNTERS

        trace.set_tracing(True)
        metrics.set_metrics(True)
        trace.set_buffer_limit(1 << 17)
        trace.drain()
        self.probe.reset()
        self._counters = COUNTERS.snapshot()
        self._histograms = metrics.snapshot()
        self.spans: Dict[str, float] = defaultdict(float)

    def collect_spans(self) -> None:
        """Fold buffered spans into per-name busy totals (call often
        enough that the ring buffer never wraps)."""
        from repro.obs import trace

        for record in trace.drain():
            self.spans[record["name"]] += float(record["dur"])

    def stop(self) -> Dict[str, object]:
        from repro.obs import metrics, trace
        from repro.perf.telemetry import COUNTERS

        self.collect_spans()
        trace.set_tracing(False)
        metrics.set_metrics(False)
        histograms = {
            name: state["sum"]
            for name, state in metrics.delta_since(self._histograms).items()
        }
        return {
            "probe": self.probe.totals(),
            "counters": COUNTERS.delta_since(self._counters),
            "spans": dict(self.spans),
            "histograms": histograms,
        }


def layer_metrics(
    totals: Mapping[str, object],
    *,
    wait_ms: Optional[Tuple[float, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric from one window's totals (see
    :meth:`Window.stop`); *wait_ms* is the service wait (p50, p99)."""
    probe = totals["probe"]
    calls: Mapping[str, int] = probe["calls"]  # type: ignore[index]
    busy: Mapping[str, float] = probe["busy"]  # type: ignore[index]
    ok: Mapping[str, int] = probe["successes"]  # type: ignore[index]
    c: Mapping[str, int] = totals["counters"]  # type: ignore[assignment]
    spans: Mapping[str, float] = totals["spans"]  # type: ignore[assignment]
    hist: Mapping[str, float] = totals["histograms"]  # type: ignore[assignment]

    def div(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for key in ("taskgen.generate", "core.admission.fits",
                "core.admission.split_cost", "core.maxsplit"):
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.busy_s"] = busy.get(key, 0.0)
    for alg in PARTITION_ALGORITHMS:
        key = f"core.partition.{alg}"
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.busy_s"] = busy.get(key, 0.0)
        out[f"{key}.success_ratio"] = div(ok.get(key, 0), calls.get(key, 0))
    out.update({
        "core.rta.calls": c["rta_calls"],
        "core.rta.iterations": c["rta_iterations"],
        "core.rta.iterations_per_call": div(c["rta_iterations"], c["rta_calls"]),
        "core.rta.probes": c["admission_probes"],
        "core.rta.hyper_accept_ratio": div(c["hyper_accepts"], c["admission_probes"]),
        "core.rta.ctx_hit_rate": 1.0 - div(c["ctx_builds"], c["ctx_requests"])
        if c["ctx_requests"] else 0.0,
        "core.rta.ctx_builds": c["ctx_builds"],
        "core.kernel.requests": c["krn_requests"],
        "core.kernel.lane_iterations": c["krn_lane_iterations"],
        "sweep.cell.busy_s": spans.get("sweep.cell", 0.0),
    })
    request_s = spans.get("svc.request", 0.0)
    compute_s = spans.get("svc.compute_admit", 0.0)
    lookups = c["svc_cache_hits"] + c["svc_cache_misses"]
    out.update({
        "service.request.busy_s": request_s,
        "service.request.self_s": request_s - compute_s,
        "service.compute_admit.busy_s": compute_s,
        "service.validation.busy_s": busy.get("service.validation", 0.0),
        "service.cache_key.busy_s": busy.get("service.cache_key", 0.0),
        "service.serialize.busy_s": busy.get("service.serialize", 0.0),
        "service.wait_ms_p50": wait_ms[0] if wait_ms else 0.0,
        "service.wait_ms_p99": wait_ms[1] if wait_ms else 0.0,
        "service.cache.hit_ratio": div(c["svc_cache_hits"], lookups),
        "service.shed": c["svc_backpressure"] + c["svc_timeouts"]
        + c["svc_degraded"],
        "cluster.events": c["cl_events"],
        "cluster.readmits": c["cl_readmits"],
        "cluster.migrations": c["cl_migrations"],
        "cluster.admit.busy_s": busy.get("cluster.admit", 0.0),
        "cluster.depart.busy_s": busy.get("cluster.depart", 0.0),
        "cluster.event.busy_s": hist.get("cluster_event_seconds", 0.0),
        "store.puts": c["st_puts"],
        "store.put.busy_s": hist.get("store_put_seconds", 0.0),
        "store.get.busy_s": hist.get("store_get_seconds", 0.0),
    })
    return out


def traced_halves(timed: Callable[[float, Optional[Window]], Dict],
                  seconds: float) -> Tuple[Dict, Dict, Dict[str, float]]:
    """Run ``timed(seconds, window)`` untraced for half of *seconds*, then
    traced with the core wrappers for the other half.  Returns both
    outcomes and every per-layer metric, tracing overhead included."""
    untraced = timed(seconds / 2, None)
    probe = Probe()
    probe.install_core()
    window = Window(probe)
    try:
        window.start()
        traced = timed(seconds / 2, window)
        totals = window.stop()
    finally:
        probe.uninstall()
    metrics = layer_metrics(totals)
    metrics.update(overhead_metrics(untraced["throughput"],
                                    traced["throughput"]))
    return untraced, traced, metrics


def overhead_metrics(untraced: float, traced: float) -> Dict[str, float]:
    """Tracing overhead as untraced over traced ``throughput_per_s``."""
    return {
        "trace.untraced_throughput_per_s": untraced,
        "trace.traced_throughput_per_s": traced,
        "trace.overhead_ratio": untraced / traced if traced else 0.0,
    }
