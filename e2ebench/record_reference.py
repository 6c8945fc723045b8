#!/usr/bin/env python3
"""Re-record ``e2ebench/reference.json``, the correctness references.

Run from the repository root, only when a change is *meant* to alter
sweep curves, exact RTA/MaxSplit counters or churn outcomes::

    python3 e2ebench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import harness


def record() -> dict:
    import churn_journal
    import sweep_e3

    generator, algorithms = sweep_e3.build()
    curves, counters = sweep_e3.sweep(
        generator, algorithms,
        seed=sweep_e3.REFERENCE_SEED, samples=sweep_e3.REFERENCE_SAMPLES,
    )
    churn = {}
    directory = harness.work_dir("record-reference")
    try:
        for policy in churn_journal.POLICIES:
            cfg = churn_journal.config(policy, churn_journal.REFERENCE_SEED,
                                       churn_journal.REFERENCE_HORIZON)
            result, store, _, _ = churn_journal.one_run(cfg, directory, "r.db")
            churn_journal.check_journal(cfg, result, store)
            churn_journal.discard(store, os.path.join(directory, "r.db"))
            churn[policy] = result.metrics.as_state()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "sweep-e3": {
            "seed": sweep_e3.REFERENCE_SEED,
            "samples": sweep_e3.REFERENCE_SAMPLES,
            "curves": curves,
            "counters": {n: counters[n] for n in sweep_e3.GATED_COUNTERS},
        },
        "churn-journal": churn,
    }


def main() -> int:
    if not harness.program_present():
        print("record_reference: src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    path = os.path.join(harness.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
