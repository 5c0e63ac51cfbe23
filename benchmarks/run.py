#!/usr/bin/env python3
"""gshift benchmark: time to verdict, set-up time and peak memory on four
workloads, every output checked; with --trace 1, per-layer counts and self
times from a traced pass.

Run from the repository root:

    python3 benchmarks/run.py --workload verify-plain --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py                 # every workload, tracing off

Each pass runs in a fresh single-threaded interpreter (worker.py), started
only after the previous one has exited: a closed loop with one caller.
A run starts with set-up-only processes, then repeats full passes while
another fits in --seconds (at least three).  Each metric is the median over
the processes that measure it.  Times are rescaled to a reference host speed
by probe.py, measured inside each process; the plain wall-clock medians are
printed too.  Every metric prints by name with its unit;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md for the design.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# BENCHMARK.json is the one list of workloads and metrics.  Only the
# end_to_end metrics are gated; fail_ratio, op_p50_us and op_p99_us are
# printed but not gated, see README.md
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

MIN_PASSES = 3
SETUP_PASSES = 15  # extra set-up-only processes, so setup_s is a median of many
TRACED_PASSES = 2  # their counts must agree exactly
DEADLINE_S = 170  # per workload: a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong program output)."""


def run_pass(workload: str, seed: int, size: str, digests: Path, deadline: float,
             spans: Path | None = None, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--digests", str(digests)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass did not finish before the deadline") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass exited {proc.returncode}")
    return json.loads(lines[-1])


def run_passes(workload: str, args, deadline: float, seconds: float) -> list[dict]:
    """Fresh-process passes filling `seconds` (at least MIN_PASSES of them).

    Another pass starts only if a typical pass still fits, so a run ends close
    to `seconds` instead of overshooting by up to a whole pass.
    """
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, args.seed, args.size, args.digests, deadline))
        now = time.perf_counter()
        walls.append(now - t0)
        typical = statistics.median(walls)
        if len(passes) >= MIN_PASSES and now - start + typical > seconds:
            return passes
        if now + typical > deadline:
            if len(passes) < MIN_PASSES:
                raise BenchError(f"{workload}: fewer than {MIN_PASSES} passes fit the deadline")
            return passes


def percentile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples, and how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    return attempted, failed, errors


def measure(workload: str, args, deadline: float) -> tuple[dict, int, int]:
    start = time.perf_counter()
    setups = [run_pass(workload, args.seed, args.size, args.digests, deadline,
                       setup_only=True) for _ in range(SETUP_PASSES)]
    passes = run_passes(workload, args, deadline, args.seconds - (time.perf_counter() - start))
    attempted, failed, errors = tally(passes)
    samples = {name: [p[name] for p in passes] for name in END_TO_END}
    samples["setup_s"] += [s["setup_s"] for s in setups]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    setup_walls = [p["setup_wall_s"] for p in passes + setups]
    print(f"== {workload} (seed {args.seed}, {len(passes)} fresh-process passes and "
          f"{len(setups)} set-up-only ones, tracing off)")
    for name, unit in END_TO_END.items():
        print(f"{name:<12} {metrics[name]!r} {unit}  (median of {len(samples[name])} processes)")
    print("run_s per pass:", " ".join(f"{p['run_s']:.4f}" for p in passes))
    print(f"{'wall_run_s':<12} {statistics.median(p['wall_s'] for p in passes)!r} s  "
          "(wall clock, not rescaled, not gated)")
    print(f"{'wall_setup_s':<12} {statistics.median(setup_walls)!r} s  "
          "(wall clock, not rescaled, not gated)")
    print(f"{'fail_ratio':<12} {failed / attempted!r} failed/attempted  ({failed}/{attempted})")
    op = passes[0]["op"]
    if op is not None:
        ordered = sorted(x for p in passes for x in p["latencies"])
        p50, _ = percentile(ordered, 0.50)
        p99, beyond = percentile(ordered, 0.99)
        print(f"{'op_p50_us':<12} {p50 * 1e6!r} us  (op = one {op}, {len(ordered)} samples)")
        print(f"{'op_p99_us':<12} {p99 * 1e6!r} us  ({len(ordered)} samples, {beyond} beyond p99)")
    for err in errors[:10]:
        print(f"FAILED: {err}")
    return metrics, attempted, failed


def trace(workload: str, args, deadline: float) -> tuple[dict, int, int, bool]:
    plain = run_passes(workload, args, deadline, args.seconds / 2)
    traced = []
    spans = OUT / f"{workload}.spans.jsonl.gz"
    for _ in range(TRACED_PASSES):  # the last pass's spans are kept
        traced.append(run_pass(workload, args.seed, args.size, args.digests, deadline, spans))
    attempted, failed, errors = tally(plain + traced)
    layers = dict(traced[0]["layers"])
    deterministic = True
    for name, value in layers.items():
        if name.endswith("self_s"):
            continue
        others = [t["layers"][name] for t in traced[1:]]
        if any(v != value for v in others):
            deterministic = False
            print(f"NONDETERMINISTIC: {name} = {[value] + others}")
    layers["trace.overhead_ratio"] = (
        statistics.median(t["wall_s"] for t in traced) / statistics.median(p["wall_s"] for p in plain)
    )
    print(f"== {workload} (seed {args.seed}, traced pass 1 of {TRACED_PASSES}; "
          f"{len(plain)} untraced passes for the overhead ratio)")
    for name, unit in PER_LAYER.items():
        print(f"{name:<44} {layers[name]!r} {unit}")
    for name in traced[0]["missing"]:
        print(f"warning: {name} not found; its metrics read 0", file=sys.stderr)
    print(f"spans: {spans} ({traced[-1]['spans']} spans)")
    for err in errors[:10]:
        print(f"FAILED: {err}")
    return layers, attempted, failed, deterministic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="input order; 0 is the canonical order (default 0)")
    parser.add_argument("--seconds", type=float, default=30,
                        help="measuring time per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced inputs for the self-test")
    parser.add_argument("--digests", type=Path, default=HERE / "digests.json",
                        help="recorded output digests (default benchmarks/digests.json)")
    args = parser.parse_args(argv)
    args.digests = args.digests.resolve()

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + DEADLINE_S * len(selected)
    OUT.mkdir(exist_ok=True)
    # byte-compile once, so no measured pass pays for it
    compileall.compile_dir(ROOT / "src" / "gshift", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    metrics, attempted, failed, correct = {}, 0, 0, True
    units = PER_LAYER if args.trace else END_TO_END
    try:
        for workload in selected:
            if args.trace:
                values, a, f, deterministic = trace(workload, args, deadline)
                correct = correct and deterministic
            else:
                values, a, f = measure(workload, args, deadline)
            attempted, failed = attempted + a, failed + f
            prefix = "" if len(selected) == 1 else f"{workload}."
            for name, unit in units.items():
                metrics[prefix + name] = {"value": values[name], "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {"correct": correct and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
