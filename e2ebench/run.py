#!/usr/bin/env python3
"""End-to-end benchmark of the repro admission-control program.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload sweep-e3 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when a correctness gate fails or the measurement is invalid.
See ``e2ebench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402

WORKLOADS = ("sweep-e3", "admit-open", "churn-journal")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def prepare_environment() -> None:
    """Keep every file the program writes inside the checkout and start
    with the program's own tracing off (a traced run arms it itself)."""
    for flag in ("REPRO_TRACE", "REPRO_METRICS", "REPRO_PROFILE"):
        os.environ.pop(flag, None)
    os.environ["REPRO_KERNEL_CACHE"] = harness.work_dir("kernel-cache")
    if harness.SRC not in sys.path:
        sys.path.insert(0, harness.SRC)


def run_workload(args: argparse.Namespace, setup: harness.SetupTimer):
    if args.workload == "sweep-e3":
        import sweep_e3 as module
    elif args.workload == "admit-open":
        import admit_open as module
    else:
        import churn_journal as module
    return module.run(args.seed, args.seconds, bool(args.trace), setup)


def report(result: harness.Result, facts, correct: bool) -> None:
    import layers

    table = layers.PER_LAYER if result.trace else harness.END_TO_END
    print(f"workload {result.workload}  seed {result.seed}  "
          f"trace {int(result.trace)}")
    print("stamp " + json.dumps({"seed": result.seed, **facts},
                                sort_keys=True))
    for name, value in result.notes.items():
        print(f"  note {name} = {value}")
    for gate in result.gates:
        print(f"  gate passed: {gate}")
    if not result.trace:
        result.metrics["fail_ratio"] = result.failed / max(1, result.attempted)
        for name, (unit, _better) in harness.REPORTED_ONLY.items():
            value = result.metrics[name]
            shown = "n/a" if value is None else f"{value:.6f}"
            print(f"  {name:<38} {shown:>14} {unit}  (reported only)")
    metrics = {}
    for name, (unit, _better) in table.items():
        value = float(result.metrics[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<38} {value:>14.6f} {unit}")
    record = {
        "correct": correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }
    with open(os.path.join(harness.work_dir("results"),
                           f"{result.workload}-seed{result.seed}-"
                           f"trace{int(result.trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**record, "stamp": {"seed": result.seed, **facts},
                   "notes": result.notes, "gates": result.gates}, fh,
                  indent=2, sort_keys=True, default=str)
    print(json.dumps(record), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not harness.program_present():
        print("e2ebench: the program source (src/repro) is missing; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    prepare_environment()
    import repro  # noqa: F401  (imports count toward setup_s)

    setup = harness.SetupTimer(time.perf_counter() - T_START)
    try:
        result = run_workload(args, setup)
    except harness.GateFailure as exc:
        print(f"e2ebench: CORRECTNESS GATE FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}), flush=True)
        return 1
    except harness.InvalidRun as exc:
        print(f"e2ebench: invalid measurement: {exc}", file=sys.stderr)
        return 3
    report(result, harness.host_facts(), correct=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
