"""Command-line front end: classify maps, predict chaos profiles, build the
block constructions, and verify the finite-horizon evidence end to end.

Exit codes: 0 all requested checks passed, 1 some check failed, 2 the
configuration was unusable, 3 inconclusive: a verdict the checks depend on came
back unknown, or an orbit lookup ran past the bit budget, so nothing was shown
either way.  Artifacts (JSON reports, CSV statistics) land in the --out
directory; CSV bodies are byte-stable for identical configurations.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .indexspace import (
    Index,
    Record,
    SelfMap,
    domain_size,
    enumerate_index,
    map_spec,
    parse_map_spec,
    rank_of,
)
from .orbits import (
    UnresolvedOrbitError,
    chain_decomposition,
    classify_point,
    map_profile,
)
from .configspace import (
    Alphabet,
    pattern_json,
    window_from_ranks,
)
from .constructions import (
    PreconditionError,
    ScrambledFamilySpec,
    almost_disjoint_family,
    block_lengths,
    dc_family,
    densify_family,
    full_shift_transitive_point,
    pattern_enumeration,
    transitive_weave_family,
)
from .stats import (
    Schedule,
    block_boundary_schedule,
    dc_pair_report,
    orbit_window,
    proof_bound_check_dc,
)
from .theorems import counterexample_suite, predict

__all__ = ["ConfigError", "ExperimentConfig", "main"]

STATS_COLUMNS = (
    "pair_id",
    "window_id",
    "n",
    "count",
    "fraction_num",
    "fraction_den",
    "running_min",
    "running_max",
)


class ConfigError(ValueError):
    """Configuration file failed validation; message names the offending field."""


class NoAnchorError(PreconditionError):
    """Every anchor candidate has a proven finite orbit."""


CONFIG_FIELDS = frozenset({"map", "alphabet", "family_size", "lengths", "windows", "schedule",
                           "eps_low", "eps_high", "anchor_rank"})
ALPHABET_FIELDS = frozenset({"symbols", "p", "q"})
LENGTHS_FIELDS = frozenset({"variant", "count"})
SCHEDULE_FIELDS = {"block_boundaries": frozenset({"kind", "r_max"}),
                   "explicit": frozenset({"kind", "horizons"})}

# The most blocks lengths.count and schedule.r_max may ask for: past block
# ~1,558 a horizon has more than 4,300 decimal digits, which Python refuses
# to convert to text, so stats.csv and the family manifest could not hold it.
MAX_BLOCKS = 1500


class ExperimentConfig(Record):
    """A parsed config; `parse_config` is its one constructor and holds the defaults."""

    map: SelfMap
    alphabet: Alphabet
    family_size: int
    lengths_variant: str
    variant_given: bool  # the config set lengths.variant itself
    lengths_count: int
    windows: Optional[tuple[tuple[int, ...], ...]]  # None: two windows on the anchor's orbit
    schedule_r_max: int
    schedule_horizons: tuple[int, ...]  # nonempty: an explicit schedule
    eps_low: Fraction
    eps_high: Fraction
    anchor_rank: int


def _is_int(value) -> bool:
    """A JSON integer: JSON true/false load as bool, which Python counts as int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(obj: dict, key: str, types, path: str, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}: required field missing")
        return default
    value = obj[key]
    if types is not None and not (_is_int(value) if types is int else isinstance(value, types)):
        raise ConfigError(f"{path}.{key}: expected {types}, got {type(value).__name__}")
    return value


def _reject_unknown(obj: dict, fields: frozenset, path: str) -> None:
    """ConfigError naming the first key of obj, in sorted order, outside fields."""
    unknown = sorted(obj.keys() - fields)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown field")


def _window_ranks(wi: int, w) -> tuple[int, ...]:
    if not isinstance(w, list) or not w or not all(_is_int(r) and r >= 1 for r in w):
        raise ConfigError(f"config.windows[{wi}]: need a nonempty list of ranks >= 1")
    if len(set(w)) != len(w):
        raise ConfigError(f"config.windows[{wi}]: need distinct ranks")
    return tuple(w)


def _eps(obj: dict, key: str) -> Fraction:
    """A density bar: a fraction strictly between 0 and 1, as epsilon is in
    the definition of distributional chaos; at or past either end a surrogate
    test becomes unreachable, exact or trivial."""
    text = _expect(obj, key, str, "config", default="1/4")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"config.{key}: {exc}") from exc
    if not 0 < value < 1:
        raise ConfigError(f"config.{key}: need a fraction strictly between 0 and 1, got {text!r}")
    return value


def parse_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config: top level must be an object")
    _reject_unknown(obj, CONFIG_FIELDS, "config")
    try:
        m = parse_map_spec(_expect(obj, "map", dict, "config", required=True))
    except ValueError as exc:
        raise ConfigError(f"config.map: {exc}") from exc
    alpha_obj = _expect(obj, "alphabet", dict, "config",
                        default={"symbols": ["p", "q"], "p": "p", "q": "q"})
    _reject_unknown(alpha_obj, ALPHABET_FIELDS, "config.alphabet")
    symbols = alpha_obj.get("symbols")
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise ConfigError("config.alphabet.symbols: need a list of strings")
    try:
        alphabet = Alphabet(tuple(symbols), alpha_obj["p"], alpha_obj["q"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config.alphabet: {exc}") from exc
    family_size = _expect(obj, "family_size", int, "config", default=3)
    if family_size < 2:
        raise ConfigError("config.family_size: need at least two members")
    lengths_obj = _expect(obj, "lengths", dict, "config", default={})
    _reject_unknown(lengths_obj, LENGTHS_FIELDS, "config.lengths")
    variant = lengths_obj.get("variant", "plain")
    if variant not in ("plain", "weave"):
        raise ConfigError(f"config.lengths.variant: unknown variant {variant!r}")
    count = lengths_obj.get("count", 8)
    if not _is_int(count) or not 1 <= count <= MAX_BLOCKS:
        raise ConfigError(f"config.lengths.count: need an integer from 1 to {MAX_BLOCKS}")
    windows_obj = _expect(obj, "windows", list, "config")
    if windows_obj == []:
        raise ConfigError("config.windows: need at least one window")
    windows = None if windows_obj is None else tuple(
        _window_ranks(wi, w) for wi, w in enumerate(windows_obj))
    sched_obj = _expect(obj, "schedule", dict, "config",
                        default={"kind": "block_boundaries", "r_max": 8})
    kind = sched_obj.get("kind", "block_boundaries")
    if not isinstance(kind, str) or kind not in SCHEDULE_FIELDS:
        raise ConfigError(f"config.schedule.kind: unknown kind {kind!r}")
    _reject_unknown(sched_obj, SCHEDULE_FIELDS[kind], "config.schedule")
    r_max, horizons = 8, ()
    if kind == "block_boundaries":
        r_max = sched_obj.get("r_max", 8)
        if not _is_int(r_max) or not 1 <= r_max <= MAX_BLOCKS:
            raise ConfigError(f"config.schedule.r_max: need an integer from 1 to {MAX_BLOCKS}")
    else:
        horizons = sched_obj.get("horizons")
        if not isinstance(horizons, list) or not horizons or any(
                not _is_int(h) or h < 1 for h in horizons):
            raise ConfigError("config.schedule.horizons: need positive integers")
        horizons = tuple(horizons)
        if any(b <= a for a, b in zip(horizons, horizons[1:])):
            raise ConfigError("config.schedule.horizons: need strictly increasing horizons")
    eps_low, eps_high = _eps(obj, "eps_low"), _eps(obj, "eps_high")
    anchor_rank = _expect(obj, "anchor_rank", int, "config", default=1)
    if anchor_rank < 1:
        raise ConfigError("config.anchor_rank: need a rank >= 1")
    return ExperimentConfig(
        map=m,
        alphabet=alphabet,
        family_size=family_size,
        lengths_variant=variant,
        variant_given="variant" in lengths_obj,
        lengths_count=count,
        windows=windows,
        schedule_r_max=r_max,
        schedule_horizons=horizons,
        eps_low=eps_low,
        eps_high=eps_high,
        anchor_rank=anchor_rank,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return parse_config(obj)


# ---------------------------------------------------------------------------
# Shared pipeline pieces.
# ---------------------------------------------------------------------------


def _schedule_for(cfg: ExperimentConfig, lengths, horizon_cap: Optional[int]) -> Schedule:
    horizons = (cfg.schedule_horizons
                or block_boundary_schedule(lengths, cfg.schedule_r_max).horizons)
    kept = tuple(h for h in horizons if horizon_cap is None or h <= horizon_cap)
    if not kept:
        raise ConfigError(f"--horizon-cap {horizon_cap} removes every checkpoint")
    return Schedule(kept)


def _pick_anchor(cfg: ExperimentConfig) -> Index:
    """The configured anchor when its orbit is proven infinite, else the first
    such point among ranks 1..64.  With no anchor, UnresolvedOrbitError if some
    candidate's classification came back unknown, so that the absence of an
    anchor was not shown, else NoAnchorError."""
    undecided = False
    size = domain_size(cfg.map.domain)
    for rank in dict.fromkeys([cfg.anchor_rank, *range(1, 65)]):
        if size is not None and rank > size:
            continue
        candidate = enumerate_index(cfg.map.domain, rank)
        cls = classify_point(cfg.map, candidate)
        if cls.is_non_quasi_periodic:
            return candidate
        undecided = undecided or cls.kind == "unknown"
    if undecided:
        raise UnresolvedOrbitError(
            "no usable anchor: some candidate's classification came back unknown")
    raise NoAnchorError("no usable anchor: every candidate has a proven finite orbit")


def _family_for(cfg: ExperimentConfig, lengths) -> tuple[ScrambledFamilySpec, list]:
    """The family that stats, verify and construct-* share, on the anchor that
    `_pick_anchor` finds."""
    anchor = _pick_anchor(cfg)
    fam = almost_disjoint_family(cfg.family_size)
    spec = ScrambledFamilySpec(cfg.map, (anchor,), cfg.alphabet, lengths, fam,
                               cfg.lengths_variant)
    if cfg.lengths_variant == "plain":
        members = dc_family(spec)
    else:
        source = full_shift_transitive_point(cfg.alphabet)
        members = transitive_weave_family(spec, source)
    return spec, members


def _pairs(members) -> list[tuple[str, int, int]]:
    """(pair id, i, j) for every member pair i < j, ids counted from 1."""
    return [(f"{i + 1}-{j + 1}", i, j)
            for i, j in itertools.combinations(range(len(members)), 2)]


def _pair_reports(cfg: ExperimentConfig, spec, members, schedule: Schedule) -> dict:
    """`dc_pair_report` of every member pair, by pair id, on the configured
    windows; by default on the anchor alone and on the anchor with its image,
    which lie on the orbit that the blocks are written along."""
    anchor = spec.anchor
    if cfg.windows is None:
        windows = [orbit_window(cfg.map, anchor, offsets) for offsets in ((0,), (0, 1))]
    else:
        windows = [window_from_ranks(cfg.map.domain, ranks) for ranks in cfg.windows]
    return {
        pair_id: dc_pair_report(cfg.map, members[i], members[j], windows, schedule,
                                cfg.eps_low, cfg.eps_high)
        for pair_id, i, j in _pairs(members)
    }


def _stats_rows(pair_reports: dict) -> list[dict]:
    rows = []
    for pair_id, report in pair_reports.items():
        for wi, profile in enumerate(report.profiles):
            for row in profile.rows:
                rows.append({
                    "pair_id": pair_id,
                    "window_id": f"w{wi + 1}",
                    "n": row.horizon,
                    "count": row.count,
                    "fraction_num": row.fraction.numerator,
                    "fraction_den": row.fraction.denominator,
                    "running_min": str(row.running_min),
                    "running_max": str(row.running_max),
                })
    return rows


def _write_csv(path: Path, rows: list[dict], columns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _member_manifest(cfg: ExperimentConfig, members, spec) -> dict:
    return {
        "schema": "gshift-family/1",
        "map": map_spec(cfg.map),
        "variant": cfg.lengths_variant,
        "anchor_ranks": [rank_of(cfg.map.domain, a) for a in spec.anchors],
        "alphabet": {"symbols": list(cfg.alphabet.symbols),
                     "p": cfg.alphabet.p, "q": cfg.alphabet.q},
        "lengths": list(spec.lengths.values()),
        "members": [
            {
                "member": i + 1,
                "block_set": m.members.describe(),
                "leading_blocks": [m.block_symbol(r) for r in range(1, 9)],
            }
            for i, m in enumerate(members)
        ],
    }


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_classify(cfg: ExperimentConfig, out: Path, args) -> int:
    """classify, and predict, which adds the prediction."""
    profile = map_profile(cfg.map)
    report = {
        "schema": f"gshift-{args.command}/1",
        "map": map_spec(cfg.map),
        "profile": profile.to_json(),
    }
    if args.command == "predict":
        report["prediction"] = predict(profile).to_json()
    print(json.dumps(report, indent=2, sort_keys=True))
    _write_json(out / f"{args.command}.json", report)
    return 0


def _cmd_construct(cfg: ExperimentConfig, out: Path, args) -> int:
    flavor = args.command.removeprefix("construct-")
    variant = "weave" if flavor == "transitive" else "plain"
    if cfg.variant_given and cfg.lengths_variant != variant:
        raise ConfigError(
            f"config.lengths.variant: construct-{flavor} builds {variant!r} blocks, "
            f"not {cfg.lengths_variant!r}; set {variant!r} or leave the field out")
    cfg = cfg._replace(lengths_variant=variant)
    spec, members = _family_for(cfg, block_lengths(cfg.lengths_count, variant))
    manifest = _member_manifest(cfg, members, spec)
    if flavor == "dense":
        enum = pattern_enumeration(cfg.alphabet, cfg.map.domain)
        dense = densify_family(cfg.map, members, enum, len(members))
        manifest["patches"] = [
            {
                "member": i + 1,
                "pattern": pattern_json(cfg.map.domain, enum.pattern(i + 1)),
            }
            for i in range(len(dense))
        ]
    elif flavor == "transitive":
        chains = chain_decomposition(cfg.map, 8)
        reps = [repr(r) for r in chains.representatives]
        if len(reps) > 1:  # the weave is written along the anchor's chain only
            raise PreconditionError(
                f"the weave covers one chain, but the map has {len(reps)} chains "
                f"(representatives {', '.join(reps)})")
        manifest["chain_representatives"] = reps
    print(json.dumps(manifest, indent=2, sort_keys=True))
    _write_json(out / f"family-{flavor}.json", manifest)
    return 0


def _cmd_stats(cfg: ExperimentConfig, out: Path, args) -> int:
    lengths = block_lengths(cfg.lengths_count, cfg.lengths_variant)
    schedule = _schedule_for(cfg, lengths, args.horizon_cap)
    spec, members = _family_for(cfg, lengths)
    rows = _stats_rows(_pair_reports(cfg, spec, members, schedule))
    _write_csv(out / "stats.csv", rows, STATS_COLUMNS)
    print(f"wrote {len(rows)} rows to {out / 'stats.csv'}")
    return 0


def _cmd_verify(cfg: ExperimentConfig, out: Path, args) -> int:
    checks: list[tuple[str, bool, str]] = []
    profile = map_profile(cfg.map)
    prediction = predict(profile)
    report: dict = {
        "schema": "gshift-verify/1",
        "map": map_spec(cfg.map),
        "profile": profile.to_json(),
        "prediction": prediction.to_json(),
    }
    verdict = prediction.distributional
    inconclusive = None
    if verdict.is_false:
        report["construction"] = {"skipped": f"distributional verdict is {verdict.truth}"}
    elif not verdict.is_true:
        inconclusive = f"distributional verdict is {verdict.truth}; no construction checked"
    else:
        lengths = block_lengths(cfg.lengths_count, cfg.lengths_variant)
        schedule = _schedule_for(cfg, lengths, args.horizon_cap)
        blocks = [r for r in range(2, cfg.schedule_r_max + 1)
                  if args.horizon_cap is None or lengths.horizon(r) <= args.horizon_cap]
        try:
            spec, members = _family_for(cfg, lengths)
            pair_reports = _pair_reports(cfg, spec, members, schedule)
            _write_csv(out / "stats.csv", _stats_rows(pair_reports), STATS_COLUMNS)
            bound_results = [
                {"pair": pair_id, "r": bound.r, "ok": bound.ok}
                for pair_id, i, j in _pairs(members)
                for bound in proof_bound_check_dc(spec, members, i, j, blocks, (0, 1))
            ]
            if bound_results:
                checks.append(("proof-bounds", all(b["ok"] for b in bound_results),
                               f"{sum(b['ok'] for b in bound_results)}/{len(bound_results)}"))
            else:  # an empty replay shows nothing, so it cannot pass
                inconclusive = f"proof-bounds: no block replayed in 2..{cfg.schedule_r_max}"
                if args.horizon_cap is not None:
                    inconclusive += f" under --horizon-cap {args.horizon_cap}"
            failing = [pair_id for pair_id, v in pair_reports.items()
                       if not (v.dc1_surrogate and v.dc2_surrogate)]
            checks.append(("dc-surrogate", not failing,
                           f"failing pairs {', '.join(failing)}" if failing else "all pairs"))
            report["bounds"] = bound_results
        except NoAnchorError as exc:
            checks.append(("anchor", False, str(exc)))
        except UnresolvedOrbitError as exc:
            inconclusive = str(exc)
        except (PreconditionError, ValueError) as exc:
            checks.append(("construction", False, str(exc)))
    for name, ok, note in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {note}")
    if verdict.is_false:
        print("SKIP construction: map is not predicted distributionally chaotic")
    if inconclusive is not None:
        print(f"INCONCLUSIVE: {inconclusive}")
        report["inconclusive"] = inconclusive
    report["checks"] = [{"name": n, "ok": ok, "note": note} for n, ok, note in checks]
    if not all(ok for _, ok, _ in checks):
        rollup = "FAIL"  # a failed check outranks what stayed undecided
    else:
        rollup = "PASS" if inconclusive is None else "INCONCLUSIVE"
    report["rollup"] = rollup == "PASS"
    _write_json(out / "verify.json", report)
    print(f"rollup: {rollup}")
    return {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 3}[rollup]


def _cmd_counterexamples(cfg_unused, out: Path, args) -> int:
    entries = counterexample_suite()
    rows = []
    names = ("li_yorke", "distributional", "omega", "dense", "transitive")
    for e in entries:
        rows.append({
            "map": e.name,
            "expected": "/".join(t.removeprefix("proven_") for t in e.expected),
            "computed": "/".join(t.removeprefix("proven_") for t in e.computed.truths()),
            "pass": str(e.passed).lower(),
        })
    _write_csv(out / "counterexamples.csv", rows, ("map", "expected", "computed", "pass"))
    width = max(len(r["map"]) for r in rows)
    header = f"{'map'.ljust(width)}  {'/'.join(names)}  pass"
    print(header)
    for r in rows:
        print(f"{r['map'].ljust(width)}  {r['computed']}  {r['pass']}")
    passed = sum(e.passed for e in entries)
    print(f"{passed}/{len(entries)} suite entries match")
    return 0 if passed == len(entries) else 1


COMMANDS = {
    "classify": _cmd_classify,
    "predict": _cmd_classify,
    "construct-dc": _cmd_construct,
    "construct-dense": _cmd_construct,
    "construct-transitive": _cmd_construct,
    "stats": _cmd_stats,
    "verify": _cmd_verify,
    "counterexamples": _cmd_counterexamples,
}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gshift",
        description="generalized shift systems: classification, construction, verification",
    )
    parser.add_argument("--config", help="path to a JSON experiment configuration")
    parser.add_argument("--out", default="gshift-out", help="artifact directory")
    parser.add_argument("--horizon-cap", type=int, default=None,
                        help="drop schedule checkpoints above this horizon")
    parser.add_argument("command", choices=COMMANDS)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "counterexamples":
            cfg = None
        elif args.config is None:
            raise ConfigError("config: --config is required for this command")
        else:
            cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnresolvedOrbitError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, ValueError) as exc:  # a construction's precondition failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
