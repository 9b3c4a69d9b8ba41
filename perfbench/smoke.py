#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, both run kinds.

Usage (from the repository root):  python3 perfbench/smoke.py

Each workload runs once untraced and once traced in smoke mode (one
round of points, every correctness gate armed).  The test fails unless
every run is correct with zero failed operations and emits exactly the
metrics BENCHMARK.json names, each with its declared unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            where = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} points failed\n"
                                f"{proc.stderr[-2000:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics {sorted(got.items())} "
                                f"!= {sorted(expected[trace].items())}")
            print(f"{where}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, {len(got)} metrics")
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
