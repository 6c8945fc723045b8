#!/usr/bin/env python3
"""Traced admission server for the ``admit-open`` traced run.

Installs the layer wrappers from ``layers.py`` inside the server process,
arms the program's tracing and metrics, then calls
``repro.service.server.run`` exactly as ``python -m repro serve --port 0``
would.  ``SIGUSR1`` zeroes every total (sent after the warm-up), and on
``SIGTERM`` the server drains and this script writes its span, wrapper,
counter and histogram totals, plus each request's server-side duration
keyed by its ``X-Bench-Id`` header, to the ``--totals`` file.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import harness
import layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--totals", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, harness.SRC)

    from repro.service.handlers import ServiceConfig
    from repro.service.server import AdmissionServer, run

    probe = layers.Probe()
    probe.install_core()
    probe.install_service()
    window = layers.Window(probe)
    window.start()
    durations = {}
    reset = {"pending": False}

    def request_reset(signum, frame):
        # Applied at the next request, on the event loop, where no
        # wrapper holds the probe's lock.
        reset["pending"] = True

    signal.signal(signal.SIGUSR1, request_reset)
    handle = AdmissionServer._handle_request

    async def timed_handle(self, request):
        if reset["pending"]:
            reset["pending"] = False
            window.start()
            durations.clear()
        t0 = time.perf_counter()
        try:
            return await handle(self, request)
        finally:
            tag = request.headers.get("x-bench-id")
            if tag is not None:
                durations[tag] = time.perf_counter() - t0

    AdmissionServer._handle_request = timed_handle
    try:
        run(ServiceConfig(port=0))
    finally:
        AdmissionServer._handle_request = handle
        totals = window.stop()
        probe.uninstall()
        totals["requests"] = durations
        with open(args.totals, "w", encoding="utf-8") as fh:
            json.dump(totals, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
