#!/usr/bin/env python3
"""Check that the tests pin the checker's strictness, one mutant at a time.

Each mutant below is a one-line change that loosens a proof-bound replay or a
scrambling surrogate, lets an empty replay pass, or excuses a failed pair as
never told apart, so that `gshift verify` could claim more than it has shown.
For each, the script copies `src`, `tests` and `pyproject.toml` to a
temporary directory, applies the change there, runs the tests named for it
with `pytest -x -q`, and prints `killed` (a test failed) or `survived` (every
test passed).  The working tree is never touched.  Exit status 0 when every
mutant is killed, 1 otherwise.

    python3 scripts/run_mutants.py            # every mutant
    python3 scripts/run_mutants.py one-sided  # the named ones
    python3 scripts/run_mutants.py --list
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    original: str  # occurs exactly once in the file
    mutated: str
    tests: tuple[str, ...]  # pytest node ids


EDGE = "tests/test_stats.py::test_a_proof_bound_holds_exactly_up_to_its_edge"

MUTANTS = (
    Mutant("shared-slack", "src/gshift/stats.py",
           'slack = 2 * radius if lengths.variant == "weave" else 4 * radius',
           'slack = 4 * radius if lengths.variant == "weave" else 8 * radius',
           (EDGE,)),
    Mutant("one-sided", "src/gshift/stats.py",
           "count <= lengths.horizon(r) - lengths.value(r) + 1",
           "count <= lengths.horizon(r) - lengths.value(r) + 2",
           (EDGE,)),
    Mutant("dip", "src/gshift/stats.py",
           "p.running_min <= eps_low), None)",
           "p.running_min <= 2 * eps_low), None)",
           ("tests/test_stats.py::test_a_running_minimum_just_above_the_dip_bar_is_no_dip",)),
    Mutant("high-bar", "src/gshift/stats.py",
           "high = all(p.running_max >= 1 - eps_high for p in profiles)",
           "high = any(p.running_max >= 1 - eps_high for p in profiles)",
           ("tests/test_stats.py::test_the_high_bar_holds_only_when_every_window_reaches_it",)),
    Mutant("empty-replay", "src/gshift/cli.py",
           "if bound_results:",
           "if True:",
           ("tests/test_cli.py::test_an_empty_proof_bound_replay_alone_leaves_verify_inconclusive",
            "tests/test_cli.py::test_verify_reports_an_empty_proof_bound_replay_as_not_shown")),
    Mutant("never-told-apart", "src/gshift/cli.py",
           "told = any(sets[i].contains(r) != sets[j].contains(r) for r in range(1, last + 1))",
           "told = False",
           ("tests/test_cli.py::test_verify_names_the_pairs_a_failed_surrogate_check_failed_on",)),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or 'error' when pytest could not run the tests."""
    with tempfile.TemporaryDirectory(prefix="gshift-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / mutant.path
        text = target.read_text()
        if text.count(mutant.original) != 1:
            raise SystemExit(f"{mutant.name}: original text must occur once in {mutant.path}")
        target.write_text(text.replace(mutant.original, mutant.mutated))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests], cwd=work, env=env, capture_output=True, text=True)
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args()
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    if args.list:
        for m in chosen:
            print(f"{m.name}: {m.path}: {m.original!r} -> {m.mutated!r}")
        return 0
    outcomes = []
    for m in chosen:
        outcome = run(m)
        outcomes.append(outcome)
        print(f"{m.name}: {outcome}", flush=True)
    print(f"{outcomes.count('killed')}/{len(chosen)} mutants killed")
    return 0 if outcomes.count("killed") == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
