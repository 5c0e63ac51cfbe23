"""Golden outputs of the classification layer, pinned byte for byte.

The expected values in golden_profiles.json pin what the rule table
certifies, including the closed forms of composed translations; any rewrite of
the rule machinery must reproduce them exactly: every verdict, witness,
certificate and provenance of map_profile and predict, and the shape of every
point of rank 1-16.

Regenerate (only after an intended behaviour change) with
    PYTHONPATH=src python tests/test_golden.py > tests/golden_profiles.json
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

from gshift.indexspace import (
    compose_maps,
    disjoint_union_maps,
    domain_size,
    enumerate_index,
    parity_down,
    parity_up,
    predecessor,
    square,
    square_plus_one,
    successor,
    table_map,
)
from gshift.orbits import classify_point, map_profile
from gshift.theorems import counterexample_suite, predict

GOLDEN = Path(__file__).with_name("golden_profiles.json")
RANKS = range(1, 17)


def golden_maps() -> dict:
    maps = {e.name: e.map for e in counterexample_suite()}
    maps.update({
        "successor_union_parity_up": disjoint_union_maps(successor(), parity_up()),
        "table_permutation": table_map((1, 2, 0, 4, 3, 5)),
        "table_tail": table_map((1, 2, 2)),
        "table_sixteen": table_map((3, 0, 0, 1, 5, 4, 6, 7, 7, 2, 11, 10, 13, 12, 15, 14)),
        "predecessor": predecessor(),
        "successor_after_predecessor": compose_maps(successor(), predecessor()),
        "square_after_successor": compose_maps(square(), successor()),
        "successor_after_successor": compose_maps(successor(), successor()),
        "successor_after_parity_up": compose_maps(successor(), parity_up()),
        "successor_after_successor_after_parity_up": compose_maps(
            successor(), compose_maps(successor(), parity_up())),
        "square_plus_one_union_table": disjoint_union_maps(square_plus_one(),
                                                           table_map((0, 0))),
        "square_union_shift2": disjoint_union_maps(
            square(), compose_maps(parity_down(), parity_up())),
    })
    return maps


def record(m) -> dict:
    size = domain_size(m.domain)
    points = []
    for rank in RANKS:
        if size is not None and rank > size:
            break
        c = classify_point(m, enumerate_index(m.domain, rank))
        points.append([rank, c.kind, c.period, c.preperiod, c.certificate, c.provenance])
    profile = map_profile(m)
    return {
        "profile": profile.to_json(),
        "prediction": predict(profile).to_json(),
        "points": points,
    }


def expected() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_map():
    assert sorted(expected()) == sorted(golden_maps())


@pytest.mark.parametrize("name", sorted(golden_maps()))
def test_golden_profile(name):
    got = record(golden_maps()[name])
    want = expected()[name]
    assert got["profile"] == want["profile"]
    assert got["prediction"] == want["prediction"]
    assert got["points"] == want["points"]


def test_shared_predictions_survive_a_table_sweep():
    # profiles and predictions are shared per distinct value, and profiles
    # hash once: every golden map predicted before and after all 46,656
    # self-maps of 6 points fill the caches still matches the golden file
    maps, want = golden_maps(), expected()
    before = {name: record(m) for name, m in maps.items()}
    for entries in itertools.product(range(6), repeat=6):
        predict(map_profile(table_map(entries)))
    for name, m in maps.items():
        assert before[name] == want[name]
        assert record(m) == want[name]


if __name__ == "__main__":
    json.dump({name: record(m) for name, m in golden_maps().items()},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
