"""The four benchmark workloads: inputs from a seed, one timed call per operation,
and checks of every output against facts the benchmark knows independently.

A workload object is used by exactly one measuring process: setup() imports
gshift and builds what the program needs before the first timed operation,
inputs() yields the operations of one pass in seed order (untimed), run_op() is the timed
call into gshift's public API, check() validates one output (untimed), and
pass_checks() compares the pass's outputs with their recorded digests
(untimed).

The seed only reorders inputs of equal size.  Seed 0 keeps the canonical
order, whose output bytes are pinned in digests.json; other seeds are checked
against the same digests after their outputs are mapped back to canonical
order, so every seed is checked in full.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import shutil
from contextlib import redirect_stdout
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

TRUTH_CODE = {"proven_true": ord("T"), "proven_false": ord("F"), "unknown": ord("U")}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def seeded_order(count: int, seed: int) -> list[int]:
    order = list(range(count))
    if seed:
        random.Random(seed).shuffle(order)
    return order


class Verify:
    """`gshift verify` through gshift.cli.main on one configuration.

    The seed permutes the window list and the ranks inside each window.  Both
    leave every statistic unchanged; only the window ids in stats.csv move,
    and they are mapped back before the digest check.
    """

    op = None  # one verify call per pass: too few operations for percentiles
    windows = ((1,), (1, 2))

    def __init__(self, name: str, map_obj: dict, sizes: dict):
        self.name = name
        self.map_obj = map_obj
        self.sizes = sizes  # size -> (lengths count, schedule r_max)

    def setup(self, seed: int, size: str, digests: dict) -> None:
        from gshift import cli

        self.main = cli.main
        self.expected = digests[size][self.name]
        perms = list(itertools.permutations(range(len(self.windows))))
        self.order = perms[seed % len(perms)]  # position k holds canonical window order[k]
        flips = seed // len(perms)
        windows = []
        for k, canonical in enumerate(self.order):
            ranks = list(self.windows[canonical])
            if flips >> k & 1:
                ranks.reverse()
            windows.append(ranks)
        count, r_max = self.sizes[size]
        config = {
            "map": self.map_obj,
            "family_size": 3,
            "lengths": {"variant": "plain", "count": count},
            "schedule": {"kind": "block_boundaries", "r_max": r_max},
            "windows": windows,
        }
        self.pairs_windows = 3 * len(windows)  # 3 choose 2 pairs
        self.out = OUT / self.name
        shutil.rmtree(self.out / "artifacts", ignore_errors=True)  # no stale outputs
        self.out.mkdir(parents=True, exist_ok=True)
        config_path = self.out / "config.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n")
        self.argv = ["--config", str(config_path), "--out", str(self.out / "artifacts"),
                     "verify"]

    def inputs(self):
        return [self.argv]

    def run_op(self, argv):
        printed = io.StringIO()
        with redirect_stdout(printed):
            rc = self.main(argv)
        return rc, printed.getvalue()

    def check(self, argv, out) -> Optional[str]:
        rc, printed = out
        lines = printed.splitlines()
        if rc != 0 or not lines or lines[-1] != "rollup: PASS":
            return f"verify exited {rc} with {lines[-1:] or 'no output'}"
        verify = json.loads((self.out / "artifacts" / "verify.json").read_bytes())
        if verify.get("rollup") is not True:
            return "verify.json rollup is not true"
        return None

    def _canonical_stats(self, text: str) -> str:
        header, *rows = text.splitlines()
        pair_rank: dict[str, int] = {}
        keyed = []
        for row in rows:
            fields = row.split(",")
            canonical = self.order[int(fields[1][1:]) - 1]
            fields[1] = f"w{canonical + 1}"
            pair = pair_rank.setdefault(fields[0], len(pair_rank))
            keyed.append(((pair, canonical), ",".join(fields)))
        keyed.sort(key=lambda item: item[0])  # stable: checkpoint order is kept
        return "\n".join([header] + [row for _, row in keyed]) + "\n"

    def pass_checks(self) -> list[str]:
        artifacts = self.out / "artifacts"
        errors = []
        got = sha256(self._canonical_stats((artifacts / "stats.csv").read_text()).encode())
        if got != self.expected["stats.csv"]:
            errors.append(f"stats.csv digest {got} != {self.expected['stats.csv']}")
        got = sha256((artifacts / "verify.json").read_bytes())
        if got != self.expected["verify.json"]:
            errors.append(f"verify.json digest {got} != {self.expected['verify.json']}")
        return errors


class ClassifyTables:
    """map_profile + predict on every self-map of a k-point set.

    Each profile is checked against facts read straight off the table: the map
    is injective exactly when the table is a permutation (a non-injective
    verdict must name a colliding pair), a finite map always has a periodic
    point (the witness must return to itself) and never an infinite orbit, so
    all five chaos flavors are proven false.
    """

    op = "map"
    pairs_windows = 0

    def __init__(self, sizes: dict):
        self.name = "classify-tables"
        self.sizes = sizes  # size -> number of points

    def setup(self, seed: int, size: str, digests: dict) -> None:
        from gshift import map_profile, predict, table_map

        self.map_profile, self.predict, self.table_map = map_profile, predict, table_map
        self.expected = digests[size][self.name]
        self.points = self.sizes[size]
        count = self.points ** self.points
        self.order = seeded_order(count, seed)
        # one byte per verdict, 8 per map, in canonical order; a preallocated
        # buffer keeps peak memory independent of the seed's operation order
        self.codes = bytearray(8 * count)

    def inputs(self):
        """(i, table i), decoded from the base-k digits of i as needed, so no
        list of all tables inflates the process's peak memory."""
        k = self.points
        weights = [k ** (k - 1 - d) for d in range(k)]
        for i in self.order:
            yield i, tuple(i // w % k for w in weights)

    def run_op(self, item):
        profile = self.map_profile(self.table_map(item[1]))
        return profile, self.predict(profile)

    def check(self, item, out) -> Optional[str]:
        i, table = item
        profile, prediction = out
        truths = prediction.truths()
        self.codes[8 * i:8 * i + 8] = bytes(TRUTH_CODE[t] for t in profile.truths() + truths)
        injective = profile.injective
        want = "proven_true" if len(set(table)) == self.points else "proven_false"
        if injective.truth != want:
            return f"table {table}: injective {injective.truth}, want {want}"
        if want == "proven_false":
            a, b = injective.witness
            if a == b or table[a.coord] != table[b.coord]:
                return f"table {table}: collision witness {injective.witness} does not collide"
        periodic = profile.has_periodic_point
        if periodic.truth != "proven_true":
            return f"table {table}: periodic point {periodic.truth}, want proven_true"
        w = periodic.witness[0].coord
        cur = table[w]
        for _ in range(self.points - 1):
            if cur == w:
                break
            cur = table[cur]
        if cur != w:
            return f"table {table}: periodic witness {w} never returns"
        if profile.has_non_quasi_periodic_point.truth != "proven_false":
            return f"table {table}: infinite orbit {profile.has_non_quasi_periodic_point.truth}"
        if any(t != "proven_false" for t in truths):
            return f"table {table}: prediction {truths}, want all proven_false"
        return None

    def pass_checks(self) -> list[str]:
        if 0 in self.codes:
            return ["some tables were never classified"]
        got = sha256(self.codes)
        if got != self.expected["verdicts"]:
            return [f"verdict digest {got} != {self.expected['verdicts']}"]
        return []


class EntryWeave:
    """Weave entry exponents for every cylinder pattern up to a maximum rank.

    Each operation decodes pattern n, computes the constructive exponent at
    which the weave family enters its cylinder, and confirms the entry by
    pointwise reads of every shifted member.
    """

    op = "pattern"
    pairs_windows = 0

    def __init__(self, sizes: dict):
        self.name = "entry-weave"
        self.sizes = sizes  # size -> max rank; patterns 1 .. 3**rank - 1

    def setup(self, seed: int, size: str, digests: dict) -> None:
        from gshift import (ScrambledFamilySpec, almost_disjoint_family, block_lengths,
                            default_alphabet, full_shift_transitive_point, in_cylinder,
                            pattern_enumeration, shifted, successor,
                            transitive_weave_family, weave_entry_exponent)
        from gshift.indexspace import INTEGERS, ix

        self.in_cylinder, self.shifted = in_cylinder, shifted
        self.weave_entry_exponent = weave_entry_exponent
        self.expected = digests[size][self.name]
        alphabet = default_alphabet()
        self.map = successor()
        self.spec = ScrambledFamilySpec(self.map, (ix(0),), alphabet, block_lengths(16, "weave"),
                                        almost_disjoint_family(2), "weave")
        self.source = full_shift_transitive_point(alphabet)
        self.members = transitive_weave_family(self.spec, self.source)
        self.enumeration = pattern_enumeration(alphabet, INTEGERS)
        count = (1 + len(alphabet.symbols)) ** self.sizes[size] - 1
        self.order = [n + 1 for n in seeded_order(count, seed)]
        self.exponents: list[Optional[int]] = [None] * count

    def inputs(self):
        return self.order

    def run_op(self, n):
        pattern = self.enumeration.pattern(n)
        exponent = self.weave_entry_exponent(self.spec, self.source, pattern)
        entered = [self.in_cylinder(self.shifted(x, self.map, exponent), pattern)
                   for x in self.members]
        return exponent, entered

    def check(self, n, out) -> Optional[str]:
        exponent, entered = out
        self.exponents[n - 1] = exponent
        if not all(entered):
            return f"pattern {n}: members entered {entered} at exponent ~2^{exponent.bit_length()}"
        return None

    def pass_checks(self) -> list[str]:
        if None in self.exponents:
            return ["some patterns have no exponent"]
        # hex: decimal conversion of ~10^4000 integers hits int_max_str_digits
        got = sha256("\n".join(format(e, "x") for e in self.exponents).encode())
        if got != self.expected["exponents"]:
            return [f"exponent digest {got} != {self.expected['exponents']}"]
        return []


SUCCESSOR = {"rule": "successor"}
UNION = {"rule": "disjoint_union", "left": {"rule": "successor"}, "right": {"rule": "parity_up"}}

WORKLOADS = {
    "verify-plain": lambda: Verify("verify-plain", SUCCESSOR, {"full": (9, 9), "small": (6, 6)}),
    "verify-union": lambda: Verify("verify-union", UNION, {"full": (8, 8), "small": (7, 7)}),
    "classify-tables": lambda: ClassifyTables({"full": 6, "small": 5}),
    "entry-weave": lambda: EntryWeave({"full": 7, "small": 4}),
}
