#!/usr/bin/env python3
"""The benchmark's own test.

For each workload: two traced runs at one seed must report identical work
counts (every per-layer metric whose unit is ``count``), and a traced run
at a second seed must check clean.  The known CLI defect is reported by
``cli.known_defect_fails`` and is not an operation, so it does not make a
run unclean.  Run from the root of a checkout:

    python3 bench/selftest.py [--workload NAME]

Exits 0 when every check holds.  Takes a few minutes per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("rank2-steinberg", "highrank-classes", "cli-cold")


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        capture_output=True, text=True, cwd=BENCH.parent, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    args = parser.parse_args()
    problems = []
    for workload in (args.workload,) if args.workload else WORKLOADS:
        first, second = traced_run(workload, 1), traced_run(workload, 1)
        a, b = counts(first), counts(second)
        differing = sorted(name for name in a if a[name] != b.get(name))
        if differing:
            problems.append(f"{workload}: counts differ between runs at seed 1: {differing}")
        other = traced_run(workload, 2)
        for seed, result in ((1, first), (1, second), (2, other)):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: seed {seed}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
        print(f"{workload}: {len(a)} counts compared, {len(differing)} differ; "
              f"seed 2 failed {other['failed']} of {other['attempted']}")
    for problem in problems:
        print(f"FAIL {problem}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
