#!/usr/bin/env python3
"""Run every workload once and print one table of their metrics.

Usage (from the repository root)::

    python3 e2ebench/all.py --seed 1 --seconds 20 --trace 0

Each workload runs as its own ``run.py`` process.  The exit code is the
first non-zero exit code among them (1: a correctness gate failed,
3: an invalid measurement), else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import harness
import layers
from run import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rows = {}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(harness.HERE, "run.py"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=harness.ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = status or proc.returncode
            print(f"{workload}: exit {proc.returncode}")
            continue
        lines = proc.stdout.strip().splitlines()
        metrics = {k: v["value"]
                   for k, v in json.loads(lines[-1])["metrics"].items()}
        for line in lines:
            if line.endswith("(reported only)"):
                name, value = line.split()[:2]
                metrics[name] = float("nan") if value == "n/a" else float(value)
        rows[workload] = metrics

    table = layers.PER_LAYER if args.trace else {
        **harness.END_TO_END, **harness.REPORTED_ONLY}
    names = {name: unit for name, (unit, _) in table.items()}
    print(f"{'metric':<38} {'unit':<6}" + "".join(f"{w:>16}" for w in rows))
    for name, unit in names.items():
        cells = "".join(f"{rows[w][name]:>16.6g}" for w in rows)
        print(f"{name:<38} {unit:<6}{cells}")
    return status


if __name__ == "__main__":
    sys.exit(main())
