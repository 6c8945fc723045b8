"""Shared plumbing for the end-to-end benchmark workloads.

Everything here is workload-agnostic: locating the program's source,
timing helpers, percentile and memory readings, host facts, and the
result record every workload hands back to ``run.py``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, server totals and the native-kernel cache.
#: It lives inside the checkout and is listed in the root .gitignore.
WORK = os.path.join(ROOT, ".bench_work")

#: End-to-end metrics in the result line, in report order:
#: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "cpu_ms_per_op": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "rss_peak_mb": ("MB", "lower"),
}
#: End-to-end metrics printed with the report but kept out of the result
#: line: on a shared 2-core host the open-loop latencies spread beyond any
#: regression bound of at most 25% from run to run (see README.md), and
#: fail_ratio is 0 when all is well (the result line carries it as
#: ``attempted`` and ``failed``).
REPORTED_ONLY = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "fail_ratio": ("ratio", "lower"),
}

#: How many times a run performs its set-up; ``setup_s`` is the median.
SETUP_ROUNDS = 3
#: p99 is reported only with at least ten samples beyond it.
P99_MIN_SAMPLES = 1000


class GateFailure(AssertionError):
    """A workload's output disagrees with its reference or invariant."""


class InvalidRun(RuntimeError):
    """The measurement itself is invalid (e.g. the open loop fell behind)."""


def program_present() -> bool:
    """Whether the program's source tree sits next to the benchmark."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def _load(name: str) -> Dict[str, object]:
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> Dict[str, object]:
    """The recorded correctness references (``reference.json``)."""
    return _load("reference.json")


def load_spec() -> Dict[str, object]:
    """The open-loop rate and the layer table (``spec.json``)."""
    return _load("spec.json")


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]); ``inf`` entries count
    as samples above every finite one."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, Optional[float]]:
    """p50 and p99 in milliseconds; p99 is None when the sample is too
    small for it."""
    p50 = percentile(latencies_s, 50.0)
    if math.isinf(p50):
        raise InvalidRun("more than half of the operations failed")
    p99 = None
    if len(latencies_s) >= P99_MIN_SAMPLES:
        p99 = percentile(latencies_s, 99.0) * 1e3
    return {"latency_p50_ms": p50 * 1e3, "latency_p99_ms": p99}


def gaps(start: float, stamps: Sequence[float]) -> List[float]:
    """Per-operation latencies from consecutive completion stamps."""
    return [b - a for a, b in zip([start, *stamps], stamps)]


def self_rss_peak_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_rss_peak_mb(pid: int) -> float:
    """Peak resident memory of another live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of another live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_facts() -> Dict[str, object]:
    """Host and build facts stamped on every result (outside timing:
    probing the native kernel may compile it once per checkout)."""
    import numpy

    from repro.core.kernel import native
    from repro.core.kernel.engine import resolve_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": resolve_backend(),
        "native_so_built": bool(native.native_available()),
    }


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Extra facts printed with the result (sample counts, rates, lags).
    notes: Dict[str, object] = field(default_factory=dict)
    gates: List[str] = field(default_factory=list)


class SetupTimer:
    """Collects set-up durations; ``setup_s`` is one-time cost plus the
    median of the repeated rounds."""

    def __init__(self, once_s: float) -> None:
        self.once_s = once_s
        self.rounds: List[float] = []

    @contextmanager
    def round(self) -> Iterator[None]:
        t0 = time.perf_counter()
        yield
        self.rounds.append(time.perf_counter() - t0)

    def value(self) -> float:
        return self.once_s + statistics.median(self.rounds)


def require(condition: bool, message: str) -> None:
    """Fail a correctness gate loudly."""
    if not condition:
        raise GateFailure(message)
