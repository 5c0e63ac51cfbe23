"""Command-line interface: config validation, artifacts, determinism, exit codes."""

import csv
import hashlib
import json

import pytest

import gshift.cli as cli
import gshift.constructions as constructions
from gshift.cli import ConfigError, ExperimentConfig, main, parse_config
from gshift.orbits import MapProfile, PointClassification, Verdict

PHI1 = {
    "map": {"rule": "successor"},
    "family_size": 3,
    "lengths": {"variant": "plain", "count": 8},
    "windows": [[1], [1, 2]],
    "schedule": {"kind": "block_boundaries", "r_max": 6},
    "eps_low": "1/4",
    "eps_high": "1/4",
}


def _write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(tmp_path, *argv, config=None):
    args = list(argv)
    if config is not None:
        args = ["--config", _write_config(tmp_path, config), *args]
    return main(["--out", str(tmp_path / "out"), *args])


# ---------------------------------------------------------------------------
# Configuration parsing.
# ---------------------------------------------------------------------------


def test_config_round_trips(tmp_path):
    # the map a report records parses back into the same config
    assert _run(tmp_path, "classify", config=PHI1) == 0
    blob = json.loads((tmp_path / "out" / "classify.json").read_text())
    assert parse_config(dict(PHI1, map=blob["map"])) == parse_config(PHI1)


def test_config_defaults_fill_in():
    cfg = parse_config({"map": {"rule": "successor"}})
    assert cfg.family_size == 3
    assert cfg.lengths_variant == "plain"
    assert cfg.windows is None  # two windows on the anchor's orbit, placed at run time


# configs that once crashed `verify` with a traceback or were silently misread
NAMED_ERRORS = [pytest.param(broken, fragment, id=name) for name, broken, fragment in [
    ("symbols-int", {"map": PHI1["map"], "alphabet": {"symbols": 5, "p": "p", "q": "q"}},
     "config.alphabet.symbols"),
    ("symbols-nested",
     {"map": PHI1["map"], "alphabet": {"symbols": ["p", ["q"]], "p": "p", "q": "q"}},
     "config.alphabet.symbols"),
    ("compose-no-inner", {"map": {"rule": "compose", "outer": PHI1["map"]}}, "map.inner"),
    ("union-no-left", {"map": {"rule": "disjoint_union", "right": PHI1["map"]}}, "map.left"),
    ("union-no-right", {"map": {"rule": "disjoint_union", "left": PHI1["map"]}}, "map.right"),
    ("entries-int", {"map": {"rule": "table", "entries": 5}}, "map.entries"),
    ("entries-null", {"map": {"rule": "table", "entries": [None, 0]}}, "map.entries"),
    ("entries-bool", {"map": {"rule": "table", "entries": [True, 0]}}, "map.entries"),
    ("no-windows", dict(PHI1, windows=[]), "config.windows"),
    ("repeated-rank", {"map": PHI1["map"], "windows": [[1, 1]]}, "config.windows[0]"),
    ("bool-rank", {"map": PHI1["map"], "windows": [[1], [True]]}, "config.windows[1]"),
    ("bool-family", {"map": PHI1["map"], "family_size": True}, "config.family_size"),
    ("bool-count", {"map": PHI1["map"], "lengths": {"count": True}}, "config.lengths.count"),
    ("bool-r_max", {"map": PHI1["map"], "schedule": {"kind": "block_boundaries", "r_max": True}},
     "config.schedule.r_max"),
    ("bool-anchor", {"map": PHI1["map"], "anchor_rank": True}, "config.anchor_rank"),
    ("unknown-field", {"map": PHI1["map"], "windws": [[6]]}, "config.windws: unknown field"),
    ("unknown-fields", {"map": PHI1["map"], "windws": [[6]], "eps_lo": "1/2"},
     "config.eps_lo: unknown field"),  # the first in sorted order
    ("unknown-lengths-fields",
     {"map": PHI1["map"], "lengths": {"varient": "weave", "cout": 3},
      "schedule": {"kind": "block_boundaries", "horizons": [5, 50]}},
     "config.lengths.cout: unknown field"),
    ("unknown-alphabet-field",
     {"map": PHI1["map"], "alphabet": {"symbols": ["p", "q"], "p": "p", "q": "q", "r": "r"}},
     "config.alphabet.r: unknown field"),
    ("unknown-catalog-map-field",
     {"map": {"rule": "successor", "kind": "catalog", "outr": {"rule": "square"}}},
     "config.map: map.kind: unknown field"),
    ("unknown-table-map-field",
     {"map": {"rule": "table", "entries": [1, 0], "domain": "integers"}},
     "config.map: map.domain: unknown field"),
    ("unknown-nested-map-field",
     {"map": {"rule": "compose", "outer": {"rule": "successor"},
              "inner": {"rule": "successor", "inverse": True}}},
     "config.map: map.inverse: unknown field"),
    ("unknown-rule-before-field", {"map": {"rule": "nope", "kind": "catalog"}},
     "config.map: map.rule: unknown rule 'nope'"),
    ("horizons-for-block-boundaries",
     {"map": PHI1["map"], "schedule": {"kind": "block_boundaries", "horizons": [5, 50]}},
     "config.schedule.horizons: unknown field"),
    # block boundaries are the one schedule kind
    ("explicit-kind", {"map": PHI1["map"], "schedule": {"kind": "explicit", "horizons": [5]}},
     "config.schedule.kind: unknown kind 'explicit'"),
    ("unknown-schedule-kind", {"map": PHI1["map"], "schedule": {"kind": "fixed"}},
     "config.schedule.kind: unknown kind 'fixed'"),
    ("int-schedule-kind", {"map": PHI1["map"], "schedule": {"kind": 3}},
     "config.schedule.kind: unknown kind 3"),
    ("zero-anchor", {"map": PHI1["map"], "anchor_rank": 0}, "config.anchor_rank"),
    # past ~1,558 blocks a horizon has too many digits to print
    ("r_max-2000", {"map": PHI1["map"], "schedule": {"kind": "block_boundaries", "r_max": 2000}},
     "config.schedule.r_max: need an integer from 1 to 1500"),
    ("count-2000", {"map": PHI1["map"], "lengths": {"count": 2000}},
     "config.lengths.count: need an integer from 1 to 1500"),
    # a bar outside (0, 1) made verify FAIL a proven-chaotic map, or a surrogate trivial
] + [(f"{key}-{text}", {"map": PHI1["map"], key: text},
      f"config.{key}: need a fraction strictly between 0 and 1, got {text!r}")
     for key in ("eps_low", "eps_high") for text in ("-1", "0", "1", "3/2")]]


@pytest.mark.parametrize("broken, fragment", [
    ({}, "config.map"),
    ({"map": {"kind": "catalog", "rule": "nope"}}, "config.map"),
    ({"map": PHI1["map"], "family_size": 1}, "family_size"),
    ({"map": PHI1["map"], "lengths": {"variant": "fancy"}}, "variant"),
    ({"map": PHI1["map"], "windows": [[0]]}, "windows[0]"),
    ({"map": PHI1["map"], "schedule": {"r_max": 0}}, "r_max"),
    ({"map": PHI1["map"], "eps_low": "one quarter"}, "eps"),
    ({"map": PHI1["map"], "schedule": {"r_max": "8"}}, "r_max"),
    # kept out of NAMED_ERRORS: verify would try to build all 40,000 blocks
    pytest.param({"map": PHI1["map"], "lengths": {"count": 40000}},
                 "config.lengths.count: need an integer from 1 to 1500", id="count-40000"),
] + NAMED_ERRORS)
def test_config_errors_name_the_field(broken, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(broken)
    assert fragment in str(err.value)


@pytest.mark.parametrize("broken, fragment", NAMED_ERRORS)
def test_verify_exits_2_naming_the_field(tmp_path, capsys, broken, fragment):
    assert _run(tmp_path, "verify", config=broken) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stats", "construct-dc", "construct-transitive"])
def test_a_finite_table_has_no_anchor(tmp_path, capsys, command):
    # anchor candidates stop at the domain's size instead of raising
    config = {"map": {"rule": "table", "entries": [1, 0, 2]}, "anchor_rank": 5}
    assert _run(tmp_path, command, config=config) == 1
    assert "every candidate has a proven finite orbit" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.json"), "classify"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["--config", str(bad), "classify"]) == 2


def test_config_required_for_map_commands(tmp_path):
    assert main(["--out", str(tmp_path), "classify"]) == 2


# the search budget, and so --budget and GSHIFT_BUDGET, are gone; the cases
# kept under this name pin that the variable, set or not, changes nothing
@pytest.mark.parametrize("flag, env, error", [(None, "8", None), (None, None, None)])
def test_a_budget_that_is_not_an_integer_of_at_least_1_exits_2(tmp_path, capsys, monkeypatch,
                                                                 flag, env, error):
    if env is None:
        monkeypatch.delenv("GSHIFT_BUDGET", raising=False)
    else:
        monkeypatch.setenv("GSHIFT_BUDGET", env)
    rc = _run(tmp_path, "classify", config=PHI1)
    assert (rc, capsys.readouterr().err) == (0, "")


def test_there_is_no_budget_flag(tmp_path, capsys):
    # every map of the grammar is decided exactly, so no search takes a budget
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "classify", "--budget", "8", config=PHI1)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --budget 8" in err and "[--budget" not in err


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def test_classify_writes_schema_report(tmp_path, capsys):
    assert _run(tmp_path, "classify", config=PHI1) == 0
    blob = json.loads((tmp_path / "out" / "classify.json").read_text())
    assert blob["schema"] == "gshift-classify/1"
    assert blob["profile"]["injective"]["truth"] == "proven_true"
    printed = json.loads(capsys.readouterr().out)
    assert printed == blob


def test_predict_reports_all_five_flavors(tmp_path, capsys):
    assert _run(tmp_path, "predict", config=PHI1) == 0
    blob = json.loads((tmp_path / "out" / "predict.json").read_text())
    assert set(blob["prediction"]) == {
        "li_yorke", "distributional", "omega",
        "dense_distributional", "transitive_distributional"}


def test_counterexamples_pass_and_write_csv(tmp_path, capsys):
    assert _run(tmp_path, "counterexamples") == 0
    with open(tmp_path / "out" / "counterexamples.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert all(r["pass"] == "true" for r in rows)
    assert "9/9" in capsys.readouterr().out


def test_stats_csv_is_deterministic(tmp_path, capsys):
    cfg = dict(PHI1, schedule={"kind": "block_boundaries", "r_max": 5})
    assert _run(tmp_path, "stats", config=cfg) == 0
    first = (tmp_path / "out" / "stats.csv").read_bytes()
    assert _run(tmp_path, "stats", config=cfg) == 0
    second = (tmp_path / "out" / "stats.csv").read_bytes()
    assert first == second
    header = first.decode().splitlines()[0]
    assert header == ("pair_id,window_id,n,count,fraction_num,fraction_den,"
                      "running_min,running_max")


def test_verify_rolls_up_pass_for_translation(tmp_path, capsys):
    assert _run(tmp_path, "verify", config=PHI1) == 0
    out = capsys.readouterr().out
    assert "PASS proof-bounds" in out
    assert "PASS dc-surrogate: all pairs" in out
    assert "rollup: PASS" in out
    blob = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert blob["rollup"] is True
    assert (tmp_path / "out" / "stats.csv").exists()


@pytest.mark.parametrize("cfg", [
    # ranks 1 and 2 are square's fixed points 0 and 1, off the anchor's orbit
    {"map": {"rule": "square"}, "windows": [[1], [1, 2]],
     "schedule": {"kind": "block_boundaries", "r_max": 6}},
], ids=["square"])
def test_verify_names_the_pairs_a_failed_surrogate_check_failed_on(tmp_path, capsys, cfg):
    assert _run(tmp_path, "verify", config=cfg) == 1
    out = capsys.readouterr().out
    assert "FAIL dc-surrogate: failing pairs 1-2, 1-3, 2-3" in out
    blob = json.loads((tmp_path / "out" / "verify.json").read_text())
    check = next(c for c in blob["checks"] if c["name"] == "dc-surrogate")
    assert check == {"name": "dc-surrogate", "ok": False, "note": "failing pairs 1-2, 1-3, 2-3"}


# members 4 and 5 hold primes 11 and 13: their sets differ first at block 11
@pytest.mark.parametrize("r_max, code", [(8, 3), (10, 3), (11, 0)])
def test_a_pair_never_told_apart_leaves_verify_inconclusive(tmp_path, capsys, r_max, code):
    cfg = {"map": {"rule": "successor"}, "family_size": 5,
           "schedule": {"kind": "block_boundaries", "r_max": r_max}}
    assert _run(tmp_path, "verify", config=cfg) == code
    out = capsys.readouterr().out.splitlines()
    blob = json.loads((tmp_path / "out" / "verify.json").read_text())
    if code == 0:
        assert out[-2:] == ["PASS dc-surrogate: all pairs", "rollup: PASS"]
        assert "inconclusive" not in blob
        return
    note = (f"dc-surrogate: pairs 4-5 agree on every block in 1..{r_max}, "
            "so the run never told them apart")
    assert out[-2:] == [f"INCONCLUSIVE: {note}", "rollup: INCONCLUSIVE"]
    assert blob["inconclusive"] == note and blob["rollup"] is False
    assert [c["name"] for c in blob["checks"]] == ["proof-bounds"]


def test_a_pair_told_apart_still_fails_beside_one_that_was_not(tmp_path, capsys):
    cfg = {"map": {"rule": "square"}, "family_size": 5, "windows": [[1], [1, 2]]}
    assert _run(tmp_path, "verify", config=cfg) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [
        "FAIL dc-surrogate: failing pairs 1-2, 1-3, 1-4, 1-5, 2-3, 2-4, 2-5, 3-4, 3-5",
        "INCONCLUSIVE: dc-surrogate: pairs 4-5 agree on every block in 1..8, "
        "so the run never told them apart",
        "rollup: FAIL"]


def test_default_windows_sit_on_the_anchors_orbit(tmp_path, capsys):
    # square's anchor is 2 (0 and 1 are fixed, -1 lands on 1): windows {2}, {2, 4}
    assert _run(tmp_path, "verify", config={"map": {"rule": "square"}, "family_size": 3}) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "rollup: PASS"
    # successor's anchor 0 and its image 1 are ranks 1 and 2
    assert _run(tmp_path, "stats", config={"map": {"rule": "successor"}}) == 0
    default = (tmp_path / "out" / "stats.csv").read_bytes()
    cfg = {"map": {"rule": "successor"}, "windows": [[1], [1, 2]]}
    assert _run(tmp_path, "stats", config=cfg) == 0
    assert (tmp_path / "out" / "stats.csv").read_bytes() == default


def test_verify_skips_construction_for_non_chaotic_map(tmp_path, capsys):
    cfg = {"map": {"rule": "parity_up"}}
    assert _run(tmp_path, "verify", config=cfg) == 0
    out = capsys.readouterr().out
    assert "SKIP construction" in out


def test_a_composition_of_two_tables_verifies_as_a_table(tmp_path, capsys):
    cfg = {"map": {"rule": "compose", "outer": {"rule": "table", "entries": [1, 2, 0]},
                   "inner": {"rule": "table", "entries": [0, 0, 1]}}}
    assert _run(tmp_path, "verify", config=cfg) == 0
    out = capsys.readouterr().out
    assert "SKIP construction" in out and "INCONCLUSIVE" not in out
    blob = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert blob["map"] == cfg["map"]


# compositions of translations have closed forms: n -> n + 2, and (2, 0), which
# fixes the odd points and drifts the even ones (chaotic, but not densely)
@pytest.mark.parametrize("inner", ["successor", "parity_up"])
def test_verify_passes_on_composed_translations(tmp_path, capsys, inner):
    cfg = {"map": {"rule": "compose", "outer": {"rule": "successor"}, "inner": {"rule": inner}}}
    assert _run(tmp_path, "verify", config=cfg) == 0
    out = capsys.readouterr().out
    assert "PASS proof-bounds: 18/18" in out
    assert out.splitlines()[-1] == "rollup: PASS"
    assert json.loads((tmp_path / "out" / "verify.json").read_text())["rollup"] is True


def _unknown_profile(m):
    return MapProfile(Verdict("unknown"), Verdict("unknown"), Verdict("unknown"))


def _unknown_point(m, index):
    return PointClassification("unknown")


@pytest.mark.parametrize("map_obj", [
    {"rule": "compose", "outer": {"rule": "square"}, "inner": {"rule": "successor"}},
    {"rule": "compose", "outer": {"rule": "square_plus_one"}, "inner": {"rule": "successor"}},
], ids=["square-after-successor", "square-plus-one-after-successor"])
def test_verify_reports_an_unknown_prediction_as_inconclusive(tmp_path, capsys, monkeypatch,
                                                               map_obj):
    # both maps are decided (walked facts below their growth bound) and verify;
    # an unknown profile, which no grammar map has, is INCONCLUSIVE, never PASS
    assert _run(tmp_path, "verify", config={"map": map_obj}) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "rollup: PASS"
    monkeypatch.setattr(cli, "map_profile", _unknown_profile)
    assert _run(tmp_path, "verify", config={"map": map_obj}) == 3
    out = capsys.readouterr().out
    assert "SKIP" not in out
    assert "INCONCLUSIVE: distributional verdict is unknown" in out
    assert out.splitlines()[-1] == "rollup: INCONCLUSIVE"
    blob = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert blob["rollup"] is False
    assert blob["checks"] == []


def test_an_unknown_verdict_names_no_provenance(tmp_path, capsys, monkeypatch):
    # an undecided fact has no source: no verdict of the report claims one
    monkeypatch.setattr(cli, "map_profile", _unknown_profile)
    assert _run(tmp_path, "verify", config=PHI1) == 3
    blob = json.loads((tmp_path / "out" / "verify.json").read_text())
    verdicts = [*blob["profile"].values(), *blob["prediction"].values()]
    assert len(verdicts) == 8
    assert all(v == {"truth": "unknown"} for v in verdicts), verdicts


@pytest.mark.parametrize("map_obj, needs", [
    ({"rule": "square"}, "injectivity; verdict came back 'proven_false'"),
    ({"rule": "disjoint_union", "left": {"rule": "successor"}, "right": {"rule": "parity_up"}},
     "aperiodicity; verdict came back 'proven_true'"),
], ids=["square", "successor-or-parity_up"])
def test_verify_fails_a_weave_the_map_cannot_carry(tmp_path, capsys, map_obj, needs):
    # both maps are predicted distributionally chaotic, but a weave needs more
    assert _run(tmp_path, "verify", config={"map": map_obj, "lengths": {"variant": "weave"}}) == 1
    note = f"weave construction needs proven {needs}"
    assert capsys.readouterr().out.splitlines() == [f"FAIL construction: {note}", "rollup: FAIL"]
    blob = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert blob["checks"] == [{"name": "construction", "ok": False, "note": note}]
    assert blob["rollup"] is False


# square's orbit through coordinate 3 outgrows the bit budget within the
# horizon; so does the walk from coordinate 1 under (n + 1)^2 + 1, which
# never meets the orbit of the anchor 0
PAST_THE_BUDGET = [
    {"map": {"rule": "square"}, "windows": [[6]]},
    {"map": {"rule": "compose", "outer": {"rule": "square_plus_one"},
             "inner": {"rule": "successor"}}, "windows": [[2]]},
]


@pytest.mark.parametrize("command", ["verify", "stats"])
def test_an_orbit_lookup_past_its_budget_is_inconclusive(tmp_path, capsys, command):
    for i, cfg in enumerate(PAST_THE_BUDGET):
        run_dir = tmp_path / str(i)
        run_dir.mkdir()
        assert _run(run_dir, command, config=cfg) == 3
        captured = capsys.readouterr()
        if command == "stats":
            assert captured.err.startswith("inconclusive: coordinate needs")
            assert not (run_dir / "out" / "stats.csv").exists()
        else:
            assert "INCONCLUSIVE: coordinate needs" in captured.out
            assert captured.out.splitlines()[-1] == "rollup: INCONCLUSIVE"
            blob = json.loads((run_dir / "out" / "verify.json").read_text())
            assert blob["rollup"] is False


# the sha256 of stats.csv for PHI1 and its weave twin, recorded before the
# agreement counts went run-length; the statistics must not move
@pytest.mark.parametrize("variant, digest", [
    ("plain", "6f338012ef3308a1cf1cf8d339d2c0cce41a9f5d7541b07a1f99119ec2664a75"),
    ("weave", "fa70622f91876072f1a5139ae0d388825d28830ef9e622bafa4db5f4b81dd1e4"),
])
def test_stats_csv_digest_is_pinned(tmp_path, capsys, variant, digest):
    cfg = dict(PHI1, lengths={"variant": variant, "count": 8})
    assert _run(tmp_path, "stats", config=cfg) == 0
    assert hashlib.sha256((tmp_path / "out" / "stats.csv").read_bytes()).hexdigest() == digest


def test_verify_at_r_max_20_reads_runs_not_positions(tmp_path, capsys, evaluate_calls):
    # horizon(20) is ~4 * 10^18: only run-length counting gets there, and it
    # steps the map a handful of times, not once per orbit position
    cfg = dict(PHI1, lengths={"variant": "plain", "count": 20},
               schedule={"kind": "block_boundaries", "r_max": 20})
    assert _run(tmp_path, "verify", config=cfg) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "rollup: PASS"
    assert 0 < len(evaluate_calls) < 1000


def test_verify_reads_each_members_walks_once(tmp_path, capsys, walk_starts):
    # three members, window coordinates 0 and 1: the surrogate profiles and
    # the bound replays read the same six walks, and each member keeps its
    # runs, so one join lookup per member and start (36 without them)
    cfg = dict(PHI1, lengths={"variant": "plain", "count": 9},
               schedule={"kind": "block_boundaries", "r_max": 9})
    assert _run(tmp_path, "verify", config=cfg) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "rollup: PASS"
    assert len(walk_starts) == 6


# a window coordinate whose walk never meets the anchor's orbit is one q run:
# rank 2 is on the union's other side, and odd coordinates under n -> n + 2
# lie on other chains than the even anchor
@pytest.mark.parametrize("map_obj", [
    {"rule": "disjoint_union", "left": {"rule": "successor"}, "right": {"rule": "parity_up"}},
    {"rule": "compose", "outer": {"rule": "successor"}, "inner": {"rule": "successor"}},
], ids=["successor-union-parity-up", "successor-after-successor"])
def test_verify_at_r_max_20_certifies_off_orbit_coordinates(tmp_path, capsys, evaluate_calls,
                                                            map_obj):
    cfg = dict(PHI1, map=map_obj, lengths={"variant": "plain", "count": 20},
               schedule={"kind": "block_boundaries", "r_max": 20})
    assert _run(tmp_path, "verify", config=cfg) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "rollup: PASS"
    assert 0 < len(evaluate_calls) < 1000


def test_a_far_window_coordinate_costs_no_more_than_a_near_one(tmp_path, capsys, evaluate_calls):
    # rank 2,000,001 is coordinate -1,000,000: its walk reads q for a million
    # positions and then the anchor's orbit from its start, so window w2
    # counts as w1 does, read off chain coordinates instead of a million steps
    calls = []
    for far in (2, 2_000_001):
        cfg = dict(PHI1, windows=[[1], [1, far]], lengths={"variant": "plain", "count": 9},
                   schedule={"kind": "block_boundaries", "r_max": 9})
        evaluate_calls.clear()
        assert _run(tmp_path, "stats", config=cfg) == 0
        calls.append(len(evaluate_calls))
    with open(tmp_path / "out" / "stats.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_window = {w: [{k: v for k, v in row.items() if k != "window_id"}
                     for row in rows if row["window_id"] == w] for w in ("w1", "w2")}
    assert by_window["w1"] and by_window["w1"] == by_window["w2"]
    assert calls[1] == calls[0] < 100


SQUARE_AFTER_SUCCESSOR = {"rule": "compose", "outer": {"rule": "square"},
                          "inner": {"rule": "successor"}}


def _nested_union(left, depth):
    """left ⊔ (left ⊔ (... ⊔ successor)): ranks 1..64 all fall on `left` copies,
    so no anchor candidate is a successor point, yet the map is proven
    distributionally chaotic through its innermost right side."""
    m = {"rule": "successor"}
    for _ in range(depth):
        m = {"rule": "disjoint_union", "left": left, "right": m}
    return m


@pytest.mark.parametrize("command", ["stats", "construct-dc"])
def test_an_unknown_anchor_classification_is_inconclusive(tmp_path, capsys, monkeypatch,
                                                          command):
    # (n + 1)^2 has only infinite orbits, so its first candidate anchors the
    # family; an unknown classification, which no grammar map has, leaves the
    # anchor undecided
    cfg = {"map": SQUARE_AFTER_SUCCESSOR}
    assert _run(tmp_path, command, config=cfg) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "classify_point", _unknown_point)
    assert _run(tmp_path, command, config=cfg) == 3
    assert capsys.readouterr().err.startswith("inconclusive: no usable anchor")


@pytest.mark.parametrize("left, rc, checks", [
    (SQUARE_AFTER_SUCCESSOR, 3, []),
    ({"rule": "parity_up"}, 1, [{"name": "anchor", "ok": False, "note":
                                 "no usable anchor: every candidate has a proven finite orbit"}]),
], ids=["unknown", "finite"])
def test_verify_without_an_anchor(tmp_path, capsys, monkeypatch, left, rc, checks):
    # unknown candidates leave the anchor undecided (3); proven finite orbits fail (1)
    cfg = {"map": _nested_union(left, 7)}
    if rc == 3:
        # the left copies of (n + 1)^2 are decided and anchor the family; the
        # undecided case reads unknown for every candidate instead
        assert _run(tmp_path, "verify", config=cfg) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "classify_point", _unknown_point)
    assert _run(tmp_path, "verify", config=cfg) == rc
    out = capsys.readouterr().out
    blob = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert blob["checks"] == checks and blob["rollup"] is False
    if rc == 3:
        assert "INCONCLUSIVE: no usable anchor: some candidate's classification" in out
        assert out.splitlines()[-1] == "rollup: INCONCLUSIVE"
    else:
        assert out.splitlines()[-1] == "rollup: FAIL"


# a replay of no block shows nothing: never "PASS proof-bounds: 0/0"
@pytest.mark.parametrize("schedule, blocks", [
    ({"kind": "block_boundaries", "r_max": 1}, "2..1"),
], ids=["r_max-1"])
def test_verify_reports_an_empty_proof_bound_replay_as_not_shown(
        tmp_path, capsys, schedule, blocks):
    # the short horizons reach block 1 only, which no member set holds, so
    # their failed surrogates show nothing either: both reasons are reported
    assert _run(tmp_path, "verify", config=dict(PHI1, schedule=schedule)) == 3
    out = capsys.readouterr().out
    note = (f"proof-bounds: no block replayed in {blocks}; dc-surrogate: pairs 1-2, 1-3, 2-3 "
            "agree on every block in 1..1, so the run never told them apart")
    assert "proof-bounds: 0/0" not in out and f"INCONCLUSIVE: {note}" in out
    blob = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert blob["bounds"] == [] and blob["inconclusive"] == note
    assert blob["checks"] == []


def test_an_empty_proof_bound_replay_alone_leaves_verify_inconclusive(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "proof_bound_check_dc", lambda *args: [])
    assert _run(tmp_path, "verify", config=PHI1) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["INCONCLUSIVE: proof-bounds: no block replayed in 2..6",
                        "rollup: INCONCLUSIVE"]
    assert json.loads((tmp_path / "out" / "verify.json").read_text())["rollup"] is False


# stats and verify check the growth inequality on every block the schedule
# reads, whatever lengths.count says
@pytest.mark.parametrize("command", ["stats", "verify"])
def test_the_growth_inequality_is_checked_up_to_r_max(tmp_path, capsys, monkeypatch, command):
    checked = []
    monkeypatch.setattr(constructions, "verify_length_inequalities",
                        lambda bl, upto: checked.append(upto))
    cfg = dict(PHI1, lengths={"variant": "plain", "count": 1})
    assert _run(tmp_path, command, config=cfg) == 0
    assert checked == [6]


# the blocks whose proof bounds verify replays: 2..r_max, so r_max 5 stops at
# block 5, which ends at horizon(5) = 206
@pytest.mark.parametrize("schedule, replayed", [
    ({"kind": "block_boundaries", "r_max": 8},
     {"1-2": [2, 3, 4, 5, 6, 8], "1-3": [2, 3, 4, 6, 7, 8], "2-3": [2, 4, 5, 6, 7, 8]}),
    ({"kind": "block_boundaries", "r_max": 5},
     {"1-2": [2, 3, 4, 5], "1-3": [2, 3, 4], "2-3": [2, 4, 5]}),
], ids=["r_max-8", "capped"])
def test_verify_replays_the_pinned_proof_bounds(tmp_path, capsys, schedule, replayed):
    assert _run(tmp_path, "verify", config=dict(PHI1, schedule=schedule)) == 0
    bounds = json.loads((tmp_path / "out" / "verify.json").read_text())["bounds"]
    assert bounds == [{"pair": pair, "r": r, "ok": True}
                      for pair, rs in replayed.items() for r in rs]


def test_construct_dense_manifest_lists_patterns(tmp_path, capsys):
    cfg = {
        "map": {"rule": "square_plus_one"},
        "family_size": 6,
    }
    assert _run(tmp_path, "construct-dense", config=cfg) == 0
    blob = json.loads((tmp_path / "out" / "family-dense.json").read_text())
    assert len(blob["patches"]) == 6
    assert blob["patches"][0]["pattern"] == {"window": [1], "symbols": ["p"]}


def test_construct_transitive_switches_to_weave(tmp_path, capsys):
    # a config that leaves the variant out gets the flavor's own blocks
    cfg = {
        "map": {"rule": "successor"},
        "family_size": 2,
        "lengths": {"count": 10},
    }
    assert _run(tmp_path, "construct-transitive", config=cfg) == 0
    manifest = (tmp_path / "out" / "family-transitive.json").read_bytes()
    blob = json.loads(manifest)
    assert blob["variant"] == "weave"
    assert blob["chain_representatives"] == ["0"]
    assert hashlib.sha256(manifest).hexdigest() == (
        "c41da5fa97e2bb82e8477818acfbf9b26c844f85706b7d3bf5389c5394cd8612")


# the weave is written along one chain, so a map with several is refused
@pytest.mark.parametrize("map_obj, reps", [
    ({"rule": "compose", "outer": {"rule": "successor"}, "inner": {"rule": "successor"}},
     "0, 1"),
    ({"rule": "disjoint_union", "left": {"rule": "successor"}, "right": {"rule": "successor"}},
     "L0, R0"),
], ids=["successor-after-successor", "successor-union-successor"])
def test_construct_transitive_refuses_a_map_with_several_chains(tmp_path, capsys, map_obj,
                                                               reps):
    assert _run(tmp_path, "construct-transitive", config={"map": map_obj}) == 1
    assert f"the map has 2 chains (representatives {reps})" in capsys.readouterr().err
    assert not (tmp_path / "out" / "family-transitive.json").exists()


def test_construct_transitive_counts_every_chain_of_a_deep_union(tmp_path, capsys):
    # sixteen successors nested to the left: each side's orbit is one chain
    map_obj = {"rule": "successor"}
    for _ in range(15):
        map_obj = {"rule": "disjoint_union", "left": map_obj, "right": {"rule": "successor"}}
    assert _run(tmp_path, "construct-transitive", config={"map": map_obj}) == 1
    err = capsys.readouterr().err
    assert "the map has 16 chains (representatives LLLLLLLLLLLLLLL0, " in err
    assert not (tmp_path / "out" / "family-transitive.json").exists()


@pytest.mark.parametrize("command, variant, rc", [
    ("construct-dc", "plain", 0),
    ("construct-dense", "plain", 0),
    ("construct-transitive", "weave", 0),
    ("construct-dc", "weave", 2),
    ("construct-dense", "weave", 2),
    ("construct-transitive", "plain", 2),
])
def test_construct_honours_or_rejects_a_configured_variant(tmp_path, capsys, command,
                                                           variant, rc):
    cfg = {"map": {"rule": "successor"}, "family_size": 2,
           "lengths": {"variant": variant, "count": 10}}
    assert _run(tmp_path, command, config=cfg) == rc
    family = tmp_path / "out" / f"family-{command.removeprefix('construct-')}.json"
    if rc == 0:
        assert json.loads(family.read_text())["variant"] == variant
    else:
        err = capsys.readouterr().err
        assert "config error: config.lengths.variant" in err and repr(variant) in err
        assert not family.exists()


def test_construct_rejects_map_without_infinite_orbit(tmp_path, capsys):
    cfg = {"map": {"rule": "parity_up"}}
    assert _run(tmp_path, "construct-dc", config=cfg) == 1
