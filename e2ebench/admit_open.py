"""Workload ``admit-open``: online admission over HTTP on the miss path.

``POST /v1/admit`` (rmts, n=24, M=8) against a spawned ``python -m repro
serve``.  Every request carries a distinct task set, so the result cache
never hits; U_M cycles through the sweep's 19-level grid.  Two phases:

* open loop: requests are due at a fixed rate (``OPEN_RATE``, about half
  the closed-loop capacity measured on a 2-core host) and each is timed
  from its due time, so a stall also delays the requests queued behind
  it.  The generator's own lateness is recorded; a run whose generator
  fell behind is invalid, not a latency number.  This phase gives
  ``throughput_per_s`` (the rate served at the offered load), the
  latencies and ``cpu_ms_per_op`` (server CPU per request);
* closed loop: 2 connections, each sending its next request when the
  previous one returns; this phase gives the capacity, printed as a
  note: on a shared host it moved between 142 and 336 req/s across runs
  of the same code, too far for a regression bound.

Load comes from this one process over at most 2 connections.  In a
traced run the server is started through ``launcher.py`` instead, which
installs the layer wrappers in the server process.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import harness
import layers
import sweep_e3

M = 8
N = 24
ALGORITHM = "rmts"
CONNECTIONS = 2
#: Open-loop rate in requests per second, recorded in ``spec.json``: about
#: half the 2-connection closed-loop capacity of a busy 2-core host.
OPEN_RATE = float(harness.load_spec()["admit-open"]["open_rate_per_s"])
#: Share of ``--seconds`` spent in the open-loop phase.
OPEN_SHARE = 0.75
#: Warm-up requests per set-up round (distinct task sets, not timed).
WARMUP = 200
#: The open-loop scheduler spins through the last part of each wait.
SPIN_S = 0.002
#: An open-loop attempt is invalid when the generator's p99 wake-up lag
#: exceeds one inter-arrival gap or it sends at less than this share of
#: the offered rate; the phase is retried on fresh payloads up to
#: ``OPEN_ATTEMPTS`` times.
MIN_SEND_SHARE = 0.98
OPEN_ATTEMPTS = 3
#: Closed-loop capacity assumed when sizing the payload pool.
POOL_RATE = 600.0
STOP_TIMEOUT_S = 20.0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


class Payloads:
    """Distinct task sets and their request bodies, by request index;
    request *i* sits at grid level ``i % 19``.  ``extend`` generates
    the next indices, so every index ever sent is distinct."""

    def __init__(self, seed: int) -> None:
        from repro.taskgen.generators import TaskSetGenerator

        self.seed = seed
        self.generator = TaskSetGenerator(n=N, period_model="loguniform")
        self.grid = sweep_e3.u_grid()
        self.tasksets: List[object] = []
        self.bodies: List[bytes] = []

    def extend(self, count: int) -> range:
        from repro.runner import cell_rng

        start = len(self.bodies)
        for i in range(start, start + count):
            ts = self.generator.generate(
                u_norm=self.grid[i % len(self.grid)], processors=M,
                seed=cell_rng(self.seed, 7, i))
            self.tasksets.append(ts)
            self.bodies.append(json.dumps({
                "tasks": ts.to_dicts(), "processors": M,
                "algorithm": ALGORITHM}).encode())
        return range(start, start + count)


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


class Server:
    """A spawned admission server; ``stop`` always reaps the process."""

    def __init__(self, traced: bool, totals_path: Optional[str] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = harness.SRC
        if traced:
            cmd = [sys.executable, os.path.join(harness.HERE, "launcher.py"),
                   "--totals", totals_path]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        self.log_path = os.path.join(harness.work_dir("logs"),
                                     f"server-{os.getpid()}.log")
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=harness.ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.port = self._await_banner()

    def _await_banner(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if "listening on http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def rss_peak_mb(self) -> float:
        return harness.proc_rss_peak_mb(self.proc.pid)

    def cpu_s(self) -> float:
        return harness.proc_cpu_s(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.port = port

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass

    async def post(self, body: bytes, tag: int) -> Tuple[int, Dict[str, str], bytes]:
        self.writer.write(
            (f"POST /v1/admit HTTP/1.1\r\nHost: 127.0.0.1\r\n"
             f"Content-Type: application/json\r\nX-Bench-Id: {tag}\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            raw = await self.reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        data = await self.reader.readexactly(length) if length else b""
        return status, headers, data


class Outcome:
    """Per-request record: index, due, sent and done times, response."""

    __slots__ = ("index", "due", "sent", "done", "status", "cache", "body",
                 "_ok")

    def __init__(self, index: int, due: float) -> None:
        self.index = index
        self.due = due
        self.sent = self.done = float("nan")
        self.status = 0
        self.cache = ""
        self.body = b""
        self._ok = None

    def ok(self) -> bool:
        """Answered 200 with a full (not degraded) analysis; read only
        after the timed phases, since it parses the body."""
        if self._ok is None:
            self._ok = self.status == 200 and \
                json.loads(self.body).get("degraded") is False
        return self._ok


async def _send(conn: Connection, out: Outcome, body: bytes) -> None:
    out.sent = time.perf_counter()
    try:
        out.status, headers, out.body = await conn.post(body, out.index)
        out.cache = headers.get("x-repro-cache", "")
    except (OSError, asyncio.IncompleteReadError, ValueError):
        out.status = -1
    out.done = time.perf_counter()


async def _with_connections(port: int, job):
    conns = [Connection(port) for _ in range(CONNECTIONS)]
    for conn in conns:
        await conn.open()
    try:
        return await job(conns)
    finally:
        for conn in conns:
            await conn.close()


def closed_loop(port: int, payloads: Payloads, indices: range,
                seconds: Optional[float] = None) -> Tuple[List[Outcome], float]:
    """2 connections back to back over *indices*; stops when *seconds*
    pass or the indices run out.  Returns the outcomes and the elapsed
    seconds."""

    async def job(conns):
        outcomes: List[Outcome] = []
        t0 = time.perf_counter()
        deadline = t0 + seconds if seconds is not None else float("inf")
        cursor = iter(indices)

        async def worker(conn):
            for i in cursor:
                if time.perf_counter() >= deadline:
                    return
                out = Outcome(i, time.perf_counter())
                outcomes.append(out)
                await _send(conn, out, payloads.bodies[i])

        await asyncio.gather(*(worker(c) for c in conns))
        if seconds is not None and len(outcomes) >= len(indices):
            raise RuntimeError("payload pool exhausted before the deadline")
        return outcomes, time.perf_counter() - t0

    return asyncio.run(_with_connections(port, job))


def open_loop(port: int, payloads: Payloads, indices: range,
              rate: float) -> Tuple[List[Outcome], List[float], float]:
    """Request *k* of *indices* is due at ``t0 + k / rate``; a scheduler hands due
    requests to whichever connection is free.  Returns the outcomes, the
    scheduler's wake-up lags and the span from the first due time to the
    last hand-off to a connection."""

    async def job(conns):
        queue: asyncio.Queue = asyncio.Queue()
        outcomes: List[Outcome] = []
        lags: List[float] = []

        async def worker(conn):
            while True:
                item = await queue.get()
                if item is None:
                    return
                out, body = item
                await _send(conn, out, body)

        workers = [asyncio.ensure_future(worker(c)) for c in conns]
        t0 = time.perf_counter() + 0.05
        for k, i in enumerate(indices):
            due = t0 + k / rate
            # Timer wake-ups on a shared host run a millisecond or more
            # late, so the scheduler sleeps until shortly before the due
            # time and spins the rest, still serving I/O.
            delay = due - time.perf_counter() - SPIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            handed = time.perf_counter()
            lags.append(handed - due)
            out = Outcome(i, due)
            outcomes.append(out)
            queue.put_nowait((out, payloads.bodies[i]))
        for _ in conns:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        return outcomes, lags, handed - t0

    return asyncio.run(_with_connections(port, job))


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def check_responses(outcomes: Sequence[Outcome], payloads: Payloads) -> int:
    """Every verdict equals the in-process ``PARTITIONERS["rmts"]`` verdict
    and every admitted partition passes exact RTA on each processor.
    Returns the number of admitted requests."""
    from repro.analysis.algorithms import PARTITIONERS
    from repro.core.rta import is_schedulable
    from repro.core.serialization import partition_from_dict

    admitted = 0
    for out in outcomes:
        if not out.ok():
            continue
        body = json.loads(out.body)
        ts = payloads.tasksets[out.index]
        expected = PARTITIONERS[ALGORITHM](ts, M).success
        harness.require(
            body["admitted"] == expected,
            f"admit-open: request {out.index} verdict {body['admitted']} != "
            f"in-process {expected}",
        )
        harness.require(out.cache == "miss",
                        f"admit-open: request {out.index} hit the cache")
        if body["admitted"]:
            admitted += 1
            partition = partition_from_dict(body["partition"])
            for proc in partition.processors:
                harness.require(
                    is_schedulable(proc.subtasks),
                    f"admit-open: request {out.index} admitted a partition "
                    f"whose processor {proc.index} fails exact RTA",
                )
    return admitted


def open_loop_validity(lags: Sequence[float], sent: int, span: float,
                       rate: float) -> Dict[str, float]:
    """Generator lag and offered-vs-achieved send rate; raises when the
    generator fell behind."""
    achieved = (sent - 1) / span if span > 0 else float("inf")
    facts = {
        "open_offered_per_s": rate,
        "open_sent_per_s": achieved,
        "generator_lag_p99_ms": harness.percentile(lags, 99.0) * 1e3,
        "generator_lag_max_ms": max(lags) * 1e3,
    }
    if facts["generator_lag_p99_ms"] > 1e3 / rate or \
            achieved < MIN_SEND_SHARE * rate:
        raise harness.InvalidRun(f"open-loop generator fell behind: {facts}")
    return facts


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


def start_server(payloads: Payloads, traced: bool,
                 totals_path: Optional[str] = None) -> Server:
    """Spawn a server and warm it up with the first ``WARMUP`` payloads."""
    server = Server(traced, totals_path)
    try:
        closed_loop(server.port, payloads, range(WARMUP))
    except BaseException:
        server.stop()
        raise
    return server


def measured_open_loop(server: Server, payloads: Payloads, indices: range,
                       rate: float, notes: Dict[str, object]):
    """The open-loop phase, retried on fresh payloads while the generator
    falls behind.  Returns the valid attempt's outcomes, every outcome
    sent (all are checked for correctness) and the server CPU seconds
    the valid attempt took."""
    sent: List[Outcome] = []
    for attempt in range(1, OPEN_ATTEMPTS + 1):
        cpu0 = server.cpu_s()
        outcomes, lags, span = open_loop(server.port, payloads, indices, rate)
        cpu = server.cpu_s() - cpu0
        sent += outcomes
        try:
            notes.update(open_loop_validity(lags, len(outcomes), span, rate))
        except harness.InvalidRun as exc:
            print(f"  note open loop attempt {attempt} invalid: {exc}",
                  flush=True)
            if attempt == OPEN_ATTEMPTS:
                raise
            indices = payloads.extend(len(indices))
            continue
        notes["open_attempts"] = attempt
        return outcomes, sent, cpu
    raise AssertionError("unreachable")


def closed_throughput(outcomes: Sequence[Outcome], seconds: float) -> float:
    """Requests a closed loop completed per second."""
    return sum(1 for o in outcomes if o.ok()) / seconds


class Plan:
    """Payload ranges of one run, generated before the first timed
    request: warm-up, the open-loop phase and the closed-loop phase."""

    def __init__(self, seed: int, seconds: float, rate: float) -> None:
        self.seconds = seconds
        self.rate = rate
        self.closed_seconds = seconds * (1.0 - OPEN_SHARE)
        self.payloads = Payloads(seed)
        self.payloads.extend(WARMUP)
        self.open = self.payloads.extend(
            max(1, int(seconds * OPEN_SHARE * rate)))
        self.closed = self.payloads.extend(
            int(self.closed_seconds * POOL_RATE) + 100)


def phases(server: Server, plan: Plan,
           result: harness.Result) -> Dict[str, List[Outcome]]:
    """The open-loop phase, then the closed-loop phase."""
    open_out, sent, cpu = measured_open_loop(
        server, plan.payloads, plan.open, plan.rate, result.notes)
    closed_out, closed_s = closed_loop(
        server.port, plan.payloads, plan.closed, plan.closed_seconds)
    sent += closed_out
    result.attempted = len(sent)
    result.failed = sum(1 for o in sent if not o.ok())
    served = sum(1 for o in open_out if o.ok())
    result.metrics.update({
        "throughput_per_s": served / (max(o.done for o in open_out)
                                      - open_out[0].due),
        "cpu_ms_per_op": cpu / len(open_out) * 1e3,
        "ok_ratio": 1.0 - result.failed / result.attempted,
    })
    result.notes.update(open_requests=len(open_out),
                        closed_requests=len(closed_out),
                        closed_loop_capacity_per_s=closed_throughput(
                            closed_out, closed_s))
    return {"open": open_out, "closed": closed_out, "sent": sent}


def run(seed: int, seconds: float, trace: bool, setup: harness.SetupTimer,
        *, open_rate: float = OPEN_RATE) -> harness.Result:
    result = harness.Result("admit-open", seed, trace)
    result.gates += ["verdicts == in-process PARTITIONERS['rmts']",
                     "admitted partitions pass exact RTA per processor",
                     "zero cache hits"]
    t0 = time.perf_counter()
    plan = Plan(seed, seconds, open_rate)
    setup.once_s += time.perf_counter() - t0
    if trace:
        return traced_run(plan, setup, result)
    server = None
    try:
        for r in range(harness.SETUP_ROUNDS):
            with setup.round():
                server = start_server(plan.payloads, False)
            if r + 1 < harness.SETUP_ROUNDS:
                server.stop()
        out = phases(server, plan, result)
        rss = server.rss_peak_mb()
    finally:
        if server is not None:
            server.stop()
    latencies = [o.done - o.due if o.ok() else float("inf")
                 for o in out["open"]]
    result.metrics.update(harness.latency_summary(latencies))
    result.metrics["setup_s"] = setup.value()
    result.metrics["rss_peak_mb"] = rss
    result.notes["latency_samples"] = len(latencies)
    result.notes["admitted"] = check_responses(out["sent"], plan.payloads)
    return result


def traced_run(plan: Plan, setup: harness.SetupTimer,
               result: harness.Result) -> harness.Result:
    """An untraced closed loop on a plain server, then both phases on a
    server started through ``launcher.py`` with the wrappers armed.  Both
    closed loops send the same payloads."""
    with setup.round():
        server = start_server(plan.payloads, False)
    try:
        untraced_out, untraced_s = closed_loop(
            server.port, plan.payloads, plan.closed, plan.closed_seconds)
    finally:
        server.stop()

    totals_path = os.path.join(harness.work_dir("logs"),
                               f"totals-{os.getpid()}.json")
    server = start_server(plan.payloads, True, totals_path)
    try:
        server.signal(signal.SIGUSR1)  # reset: warm-up is not measured
        time.sleep(0.2)
        out = phases(server, plan, result)
    finally:
        server.stop()
    with open(totals_path, encoding="utf-8") as fh:
        totals = json.load(fh)
    os.remove(totals_path)
    check_responses(untraced_out + out["sent"], plan.payloads)

    server_s = {int(k): v for k, v in totals.pop("requests").items()}
    waits = [(o.done - o.due - server_s[o.index]) * 1e3
             for o in out["open"] if o.ok() and o.index in server_s]
    wait_ms = (harness.percentile(waits, 50.0), harness.percentile(waits, 99.0))
    traced_tput = result.notes["closed_loop_capacity_per_s"]
    result.metrics.clear()
    result.metrics.update(layers.layer_metrics(totals, wait_ms=wait_ms))
    result.metrics.update(layers.overhead_metrics(
        closed_throughput(untraced_out, untraced_s), traced_tput))
    result.notes.update(untraced_closed_requests=len(untraced_out),
                        wait_samples=len(waits))
    return result
