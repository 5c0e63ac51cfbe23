"""Chaos predictions from map facts, the curated suite, and the algebra laws."""

import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gshift import theorems
from gshift.indexspace import (
    compose_maps,
    format_index,
    ix,
    parity_down,
    parity_up,
    square,
    square_plus_one,
    successor,
    table_map,
)
from gshift.orbits import (
    MapProfile,
    Verdict,
    map_profile,
    proven_false,
    proven_true,
    v_and,
    v_not,
)
from gshift.theorems import (
    check_composition_law,
    check_product_law,
    counterexample_suite,
    predict,
)

T = proven_true(witness=(ix(0),))
F = proven_false(certificate="stipulated")
U = Verdict("unknown")
TRI = {"T": T, "F": F, "U": U}


# ---------------------------------------------------------------------------
# The prediction map, over the whole three-valued truth table.
# ---------------------------------------------------------------------------


def test_prediction_formula_over_full_truth_table():
    for inj, per, nqp in itertools.product("TFU", repeat=3):
        profile = MapProfile(TRI[inj], TRI[per], TRI[nqp])
        pred = predict(profile)
        assert pred.li_yorke.truth == TRI[nqp].truth
        assert pred.distributional.truth == TRI[nqp].truth
        assert pred.omega.truth == TRI[nqp].truth
        assert pred.dense_distributional.truth == v_not(TRI[per]).truth
        assert pred.transitive_distributional.truth == \
            v_and(TRI[inj], v_not(TRI[per])).truth


def test_all_unknown_profile_predicts_all_unknown():
    pred = predict(MapProfile(U, U, U))
    assert all(t == "unknown" for t in pred.truths())


def test_catalog_predictions():
    assert predict(map_profile(successor())).truths() == ("proven_true",) * 5
    assert predict(map_profile(square_plus_one())).truths() == (
        "proven_true", "proven_true", "proven_true", "proven_true", "proven_false")
    assert predict(map_profile(square())).truths() == (
        "proven_true", "proven_true", "proven_true", "proven_false", "proven_false")
    assert predict(map_profile(parity_up())).truths() == ("proven_false",) * 5


def test_composed_translation_predictions():
    t, f = "proven_true", "proven_false"
    # n + 2; (2, 0) and (0, 2) fix one parity class and drift the other; identity
    assert predict(map_profile(compose_maps(successor(), successor()))).truths() == (t,) * 5
    assert predict(map_profile(compose_maps(successor(), parity_up()))).truths() == (t, t, t, f, f)
    assert predict(map_profile(compose_maps(parity_up(), successor()))).truths() == (t, t, t, f, f)
    assert predict(map_profile(compose_maps(parity_up(), parity_up()))).truths() == (f,) * 5


def test_prediction_serializes():
    blob = predict(map_profile(successor())).to_json()
    assert set(blob) == {"li_yorke", "distributional", "omega",
                         "dense_distributional", "transitive_distributional"}
    assert blob["li_yorke"]["truth"] == "proven_true"


def test_an_equal_profile_built_by_hand_predicts_the_same_bytes():
    shared = map_profile(table_map((1, 1, 1)))
    by_hand = MapProfile(
        proven_false(witness=(ix(0), ix(1)), provenance="exhaustive"),
        proven_true(witness=(ix(1),), provenance="exhaustive"),
        proven_false(certificate="finite domain forces every orbit onto a cycle",
                     provenance="exhaustive"),
    )
    assert by_hand == shared and by_hand is not shared
    assert hash(by_hand) == hash(shared) == hash(shared)
    assert json.dumps(predict(by_hand).to_json()) == json.dumps(predict(shared).to_json())
    assert predict(by_hand) is predict(shared)


def test_profile_hash_is_the_hash_of_its_three_verdicts():
    # computed once per profile, the hash is still the dataclass hash of its fields
    first, second = map_profile(successor()), map_profile(successor())
    assert first is not second and first == second
    fields = (first.injective, first.has_periodic_point, first.has_non_quasi_periodic_point)
    assert hash(first) == hash(first) == hash(second) == hash(fields)
    assert {first: 1}[second] == 1


# ---------------------------------------------------------------------------
# The curated nine-map suite.
# ---------------------------------------------------------------------------


def test_suite_passes_and_covers_the_right_maps():
    entries = counterexample_suite()
    assert len(entries) == 9
    assert all(e.passed for e in entries)
    by_name = {e.name: e for e in entries}
    assert by_name["shift_by_one"].expected == ("proven_true",) * 5
    assert by_name["square_plus_one"].expected == (
        "proven_true", "proven_true", "proven_true", "proven_true", "proven_false")
    assert by_name["square"].expected == (
        "proven_true", "proven_true", "proven_true", "proven_false", "proven_false")
    assert by_name["pair_swap_up"].expected == ("proven_false",) * 5
    assert by_name["pair_swap_down"].expected == ("proven_false",) * 5
    assert by_name["swap_up_after_swap_down"].expected == ("proven_true",) * 5
    assert by_name["swap_down_after_swap_up"].expected == ("proven_true",) * 5
    assert by_name["identity_composition"].expected == ("proven_false",) * 5
    assert by_name["swap_union"].expected == ("proven_false",) * 5


def test_suite_expectations_are_recomputed_not_echoed():
    entries = counterexample_suite()
    for e in entries:
        assert e.computed.truths() == predict(map_profile(e.map)).truths()


# ---------------------------------------------------------------------------
# Product and composition laws.
# ---------------------------------------------------------------------------


def test_product_law_on_translations():
    assert check_product_law(successor(), successor(), samples=50)


def test_product_law_on_suite_pairs():
    pairs = [
        (successor(), parity_up()),
        (square(), square_plus_one()),
        (parity_up(), parity_down()),
        (compose_maps(parity_up(), parity_down()), successor()),
    ]
    for f, g in pairs:
        assert check_product_law(f, g, samples=30)


def test_composition_law_on_translations():
    assert check_composition_law(successor(), successor(), samples=50)


def test_composition_law_on_parity_swaps():
    assert check_composition_law(parity_up(), parity_down(), samples=50)
    assert check_composition_law(parity_down(), parity_up(), samples=50)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_laws_hold_for_arbitrary_seeds(seed):
    assert check_product_law(successor(), parity_up(), samples=8, seed=seed)
    assert check_composition_law(parity_up(), parity_down(), samples=8, seed=seed)


# the first three patches each law draws at seed 0, as "coordinate:symbol" in draw order
FIRST_PATCHES = {
    "product": [
        "R1:q L2:q R-2:p L3:p L-3:p R-3:p R-4:q L5:p L6:p R6:q R-7:q R8:p L-8:p R9:q R10:q",
        "L0:p R-2:p L-5:p L-6:q R-6:p R7:q R-7:p R8:p L-8:p L10:p R10:p R11:p R12:p",
        "L-1:p L2:p L-2:q R-2:q R3:q L5:p L-5:p L6:q L-6:q L-7:q L-8:p L9:p L-11:q R-11:p",
    ],
    "composition": [
        "2:q -3:q 5:p -5:p -6:p 7:p 9:q -9:p -11:p 12:q",
        "0:p 1:p -2:q -4:q -10:p -11:q -12:p",
        "0:p -5:p -7:q 8:p 9:q 10:p 11:p -11:p",
    ],
}


def test_the_laws_draw_their_pinned_patches_at_seed_zero(monkeypatch):
    drawn = []

    class Recorded(theorems.FinitePatch):
        def __init__(self, base, patch):
            super().__init__(base, patch)
            drawn.append(" ".join(f"{format_index(i)}:{s}" for i, s in patch.items()))

    monkeypatch.setattr(theorems, "FinitePatch", Recorded)
    assert check_product_law(successor(), parity_up(), samples=3)
    assert drawn == FIRST_PATCHES["product"]
    drawn.clear()
    assert check_composition_law(parity_up(), parity_down(), samples=3)
    assert drawn == FIRST_PATCHES["composition"]
