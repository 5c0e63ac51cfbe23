"""One measuring process: set up one workload, run one pass, report as JSON.

run.py starts this script in a fresh interpreter for every pass, so set-up
(imports and the workload's preparation) and peak memory are those of a cold
process; with --setup-only it reports set-up time and exits.  The process is
single-threaded and makes one call at a time into gshift: a closed loop with
one caller.  Its times are rescaled to a reference host speed by probe.py,
whose timer handler runs on this same thread.  The last line of its standard
output is a JSON report for run.py.
"""

import sys

from probe import SpeedProbe

# before any other import: set-up time starts here
PROBE = SpeedProbe()
if "--spans" not in sys.argv:  # a probe inside a span would count as the layer's time
    PROBE.arm()
PROBE.begin()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--digests", required=True)
    parser.add_argument("--spans", help="trace the pass and write its spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="report set-up time and exit before the first operation")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    with open(args.digests) as fh:
        digests = json.load(fh)
    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.spans:
        import gshift.cli  # noqa: F401  (every submodule, so every binding can be wrapped)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.wrap("bench.setup", workload.setup)(args.seed, args.size, digests)
        run_op = tracer.wrap("bench.op", workload.run_op)
    else:
        workload.setup(args.seed, args.size, digests)
        run_op = workload.run_op
    PROBE.end()
    setup_s, setup_wall_s = PROBE.take()
    if args.setup_only:
        PROBE.disarm()
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    latencies = []
    errors = []
    failed_ops = 0
    for k, item in enumerate(workload.inputs(), 1):
        if tracer is not None:
            tracer.run = k
        PROBE.begin()
        try:
            out = run_op(item)
        except Exception as exc:  # a failure is counted, not raised
            latencies.append(PROBE.end())
            failed_ops += 1
            errors.append(f"operation {k} raised {exc!r}")
            continue
        latencies.append(PROBE.end())
        try:
            err = workload.check(item, out)
        except Exception as exc:  # an output the check cannot read is a failure
            err = f"check of operation {k} raised {exc!r}"
        if err is not None:
            failed_ops += 1
            errors.append(err)
    run_s, wall_s = PROBE.take()
    PROBE.disarm()
    try:
        pass_errors = workload.pass_checks()
    except Exception as exc:
        pass_errors = [f"digest check raised {exc!r}"]
    errors.extend(pass_errors)

    report = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "run_s": run_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "op": workload.op,
        "latencies": latencies if workload.op else [],
        # the digest check over the whole pass counts as one more item
        "attempted": len(latencies) + 1,
        "failed": failed_ops + (1 if pass_errors else 0),
        "errors": errors[:20],
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, workload.pairs_windows)
        report["spans"] = tracer.dump(args.spans)
        report["missing"] = tracer.missing
    print(json.dumps(report))
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process since exec, in MB.

    Linux carries the parent's resident set across a vfork/exec spawn into
    ru_maxrss, so a long run.py would inflate it; VmHWM counts this program
    image alone.  ru_maxrss is the fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(tracer, pairs_windows: int) -> dict:
    """Every per-layer metric of BENCHMARK.json that one traced pass gives.

    A name ending in .calls, .positions or .self_s reads that counter of the
    layer function named by the rest; the others are derived below.
    trace.overhead_ratio needs untraced passes too, so run.py adds it.
    """
    positions = tracer.positions_of("configspace.symbols_along")
    derived = {
        "stats.profiles_per_window": (
            tracer.count("stats.density_profile") / pairs_windows if pairs_windows else 0),
        "configspace.steps_per_position": (
            tracer.count("indexspace.evaluate") / positions if positions else 0),
        "orbits.classify_point.anchor_calls": tracer.calls_under(
            "orbits.classify_point", ("cli.pick_anchor", "constructions.family")),
        "trace.spans": len(tracer.span_name),
    }
    readers = {"calls": tracer.count, "positions": tracer.positions_of,
               "self_s": tracer.seconds}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        layer, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind in readers:
            out[name] = readers[kind](layer)
    return out

if __name__ == "__main__":
    sys.exit(main())
