#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload once at tiny sizes.

    python3 perfbench/smoke.py

Runs ``run.py --smoke`` for each workload of BENCHMARK.json, untraced and
traced, and checks that each run exits 0, reports a correct result, and
prints exactly the end-to-end (untraced) or per-layer (traced) metrics that
BENCHMARK.json names, with their units.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                units = sorted(n for n in got if n in wanted[trace]
                               and got[n] != wanted[trace][n])
                problems.append(f"{where}: missing {missing}, extra {extra}, "
                                f"wrong units {units}")
            print(f"{where}: {len(got)} metrics, attempted {result['attempted']}")
    for problem in problems:
        print("PROBLEM " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
