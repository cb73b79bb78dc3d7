#!/usr/bin/env python3
"""Guard the bench harness's quality/throughput floors.

Usage: perf_check.py BENCH.json scripts/perf_baseline.json

Reads sections of BENCH.json (see EXPERIMENTS.md) and compares each
metric named in the baseline against `baseline * (1 - margin)`. The
baseline's top-level "min" table applies to the `sim_throughput`
section (its historical shape); a top-level "floor" table applies to
the same section but without a margin, for machine-independent ratios
whose acceptance bar is the floor itself; a top-level
"recovery_overhead" object carries its own "min" (and optional
"margin" and "floor") tables for the `recovery_overhead` section, and a
"dme_coverage" object likewise for the `dme_coverage` section. Exits non-zero on
any regression past the margin, so CI fails when the pre-decoded core
or the closure-threaded engine loses its speedup or a recovery scheme
stops recovering.

The committed baseline values are deliberately conservative (shared CI
runners are slower and noisier than a dev box); they are floors against
architectural regressions, not a benchmark record. Update them only
when the expected throughput changes on purpose.
"""

import json
import sys


def lookup(section, doc, dotted):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            sys.exit(f"perf_check: BENCH.json has no field {section}.{dotted}")
        node = node[part]
    if not isinstance(node, (int, float)):
        sys.exit(f"perf_check: {section}.{dotted} is not a number")
    return float(node)


def check_section(bench, section, mins, margin, failures, floors=None):
    doc = bench.get(section)
    if not isinstance(doc, dict):
        sys.exit(
            f"perf_check: BENCH.json has no {section} section "
            f"(run bench with CASTED_SECTIONS={section})"
        )
    for dotted, baseline_value in mins.items():
        measured = lookup(section, doc, dotted)
        floor = float(baseline_value) * (1.0 - margin)
        ok = measured >= floor
        print(
            f"{section}.{dotted}: measured {measured:.3f}, "
            f"baseline {float(baseline_value):.3f}, floor {floor:.3f} "
            f"[{'ok' if ok else 'REGRESSED'}]"
        )
        if not ok:
            failures.append(f"{section}.{dotted}")
    # The "floor" table carries hard minimums applied without a margin:
    # machine-independent ratios (two rates measured on the same box)
    # where the acceptance bar itself is the floor.
    for dotted, floor_value in (floors or {}).items():
        measured = lookup(section, doc, dotted)
        floor = float(floor_value)
        ok = measured >= floor
        print(
            f"{section}.{dotted}: measured {measured:.3f}, "
            f"hard floor {floor:.3f} [{'ok' if ok else 'REGRESSED'}]"
        )
        if not ok:
            failures.append(f"{section}.{dotted}")


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} BENCH.json baseline.json")
    with open(sys.argv[1]) as fh:
        bench = json.load(fh)
    with open(sys.argv[2]) as fh:
        base = json.load(fh)

    margin = float(base.get("margin", 0.30))
    failures = []
    check_section(
        bench,
        "sim_throughput",
        base["min"],
        margin,
        failures,
        floors=base.get("floor", {}),
    )
    recovery = base.get("recovery_overhead")
    if isinstance(recovery, dict):
        check_section(
            bench,
            "recovery_overhead",
            recovery.get("min", {}),
            float(recovery.get("margin", margin)),
            failures,
            floors=recovery.get("floor", {}),
        )
    dme = base.get("dme_coverage")
    if isinstance(dme, dict):
        check_section(
            bench,
            "dme_coverage",
            dme.get("min", {}),
            float(dme.get("margin", margin)),
            failures,
            floors=dme.get("floor", {}),
        )

    if failures:
        sys.exit(
            "perf_check: metrics regressed below their baseline floor: "
            + ", ".join(failures)
        )
    print("perf_check: all metrics within margin of baseline")


if __name__ == "__main__":
    main()
