#!/usr/bin/env python3
"""Record the benchmark's baseline: repeated runs per workload, each with its
own seed, plus one traced run, summarised into benchmarks/baseline.json.

    python3 benchmarks/baseline.py                  # seeds 1-10
    python3 benchmarks/baseline.py --first-seed 11  # seeds 11-20

For every end-to-end metric it reports the median, the quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median, which is the spread the metric's bound in BENCHMARK.json must cover.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED = ("op_p50_us", "op_p99_us", "fail_ratio", "wall_run_s", "wall_setup_s")  # not gated
RUNS = 10
OUT = HERE / "baseline.json"


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect\n{proc.stdout}")
    printed = {}
    for line in lines:
        fields = line.split()
        if fields and fields[0] in PRINTED:
            printed[fields[0]] = float(fields[1])
    return result, printed


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    record = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cpus",
        "run_seconds": SPEC["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + RUNS)),
        "workloads": {},
    }
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        gated: dict[str, list] = {}
        printed: dict[str, list] = {}
        for seed in record["seeds"]:
            result, extra = run(workload, seed, 0)
            for name, m in result["metrics"].items():
                gated.setdefault(name, []).append(m["value"])
            for name, value in extra.items():
                printed.setdefault(name, []).append(value)
        traced, _ = run(workload, 0, 1)
        entry = {
            "end_to_end": {name: summary(v) for name, v in gated.items()},
            "printed": {name: summary(v) for name, v in printed.items()},
            "per_layer_seed0": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        record["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  (above a third of its bound)"
            print(f"{workload:<16} {name:<12} median {s['median']:.6g}  "
                  f"spread {s['spread']:.3f} / bound {bounds[name]}{flag}")
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
