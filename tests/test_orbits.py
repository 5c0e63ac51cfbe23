"""Point classification, map profiles, and three-valued verdict algebra."""

import json
import time
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gshift.indexspace import (
    Index,
    chain_coordinates,
    compose_maps,
    disjoint_union_maps,
    evaluate,
    format_index,
    iterate,
    ix,
    map_spec,
    parity_down,
    parity_up,
    parse_map_spec,
    predecessor,
    region_indices,
    square,
    square_plus_one,
    successor,
    table_map,
)
from gshift.orbits import (
    PointClassification,
    Verdict,
    chain_decomposition,
    classify_point,
    map_profile,
    orbit_position,
    proven_false,
    proven_true,
    v_and,
    v_not,
    v_or,
    window_offsets,
)
from gshift.theorems import predict
from oracles import (
    brute_force_profile,
    capped_orbit_shape,
    parse_index,
    stepped_chain_representatives,
    table_json,
    walked_signed_orbit_index,
)

SIGNED_MAPS = {
    "successor": successor(),
    "predecessor": predecessor(),
    "parity_up": parity_up(),
    "parity_down": parity_down(),
    "plus_two": compose_maps(successor(), successor()),
    "up_after_down": compose_maps(parity_up(), parity_down()),
    "union": disjoint_union_maps(successor(), parity_up()),
    "square": square(),
}

tables = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * n)
)

verdicts = st.sampled_from([
    proven_true(witness=("w",), provenance="exhaustive"),
    proven_false(certificate="c", provenance="analytic-metadata"),
    Verdict("unknown"),
])


def _truth(v):
    return v.truth


# ---------------------------------------------------------------------------
# Verdict algebra: Kleene three-valued logic with evidence threading.
# ---------------------------------------------------------------------------


def test_definite_verdicts_require_evidence():
    with pytest.raises(ValueError):
        proven_true()
    with pytest.raises(ValueError):
        proven_false()
    assert proven_true(witness=(ix(0),)).is_true
    assert proven_false(certificate="because").is_false
    assert Verdict("unknown").is_unknown


@given(verdicts)
def test_negation_involutes(v):
    assert _truth(v_not(v_not(v))) == _truth(v)


@given(verdicts, verdicts)
def test_conjunction_truth_table(a, b):
    r = v_and(a, b)
    if a.is_true and b.is_true:
        assert r.is_true
    elif a.is_false or b.is_false:
        assert r.is_false
    else:
        assert r.is_unknown


@given(verdicts, verdicts)
def test_disjunction_truth_table(a, b):
    r = v_or(a, b)
    if a.is_true or b.is_true:
        assert r.is_true
    elif a.is_false and b.is_false:
        assert r.is_false
    else:
        assert r.is_unknown


@given(verdicts, verdicts)
def test_de_morgan(a, b):
    assert _truth(v_not(v_and(a, b))) == _truth(v_or(v_not(a), v_not(b)))


def test_definite_results_carry_evidence_through_algebra():
    t = proven_true(witness=(ix(3),))
    f = proven_false(certificate="no such point")
    assert v_and(t, f).certificate == "no such point"
    assert v_or(t, f).witness == (ix(3),)
    flipped = v_not(t)  # the witness refuting the negation rides along
    assert flipped.witness is not None or flipped.certificate is not None


# ---------------------------------------------------------------------------
# Point classification.
# ---------------------------------------------------------------------------


def test_square_fixed_points_are_periodic():
    assert classify_point(square(), ix(0)).kind == "periodic"
    assert classify_point(square(), ix(0)).period == 1
    assert classify_point(square(), ix(1)).period == 1


def test_square_minus_one_is_quasi_periodic():
    cls = classify_point(square(), ix(-1))
    assert cls.kind == "quasi_periodic"
    assert (cls.preperiod, cls.period) == (1, 1)


def test_square_growth_point_is_non_quasi_periodic():
    cls = classify_point(square(), ix(2))
    assert cls.kind == "non_quasi_periodic"
    # independent check of the certificate's inductive condition on early iterates
    cur = ix(2)
    for _ in range(10):
        nxt = evaluate(square(), cur)
        assert abs(nxt.coord) > abs(cur.coord)
        cur = nxt


def test_parity_swap_point_is_periodic_with_period_two():
    cls = classify_point(parity_up(), ix(4))
    assert (cls.kind, cls.period) == ("periodic", 2)


def test_table_classification_is_exact():
    cls = classify_point(table_map((1, 2, 0, 4, 3, 5)), ix(3))
    assert (cls.kind, cls.period, cls.preperiod) == ("periodic", 2, 0)
    cls2 = classify_point(table_map((1, 2, 2)), ix(0))
    assert (cls2.kind, cls2.preperiod, cls2.period) == ("quasi_periodic", 2, 1)


def test_union_classification_recurses_per_side():
    u = disjoint_union_maps(successor(), parity_up())
    assert classify_point(u, parse_index("L0")).kind == "non_quasi_periodic"
    assert classify_point(u, parse_index("R0")).kind == "periodic"


# ---------------------------------------------------------------------------
# Map profiles.
# ---------------------------------------------------------------------------


def test_three_point_table_profiles():
    assert map_profile(table_map((1, 2, 0))).truths() == (
        "proven_true", "proven_true", "proven_false")
    assert map_profile(table_map((0, 0))).truths() == (
        "proven_false", "proven_true", "proven_false")
    assert map_profile(table_map((0,))).truths() == (
        "proven_true", "proven_true", "proven_false")


def test_catalog_profiles():
    assert map_profile(successor()).truths() == (
        "proven_true", "proven_false", "proven_true")
    assert map_profile(square()).truths() == (
        "proven_false", "proven_true", "proven_true")
    assert map_profile(square_plus_one()).truths() == (
        "proven_false", "proven_false", "proven_true")
    assert map_profile(parity_up()).truths() == (
        "proven_true", "proven_true", "proven_false")


def test_profile_verdicts_carry_evidence():
    prof = map_profile(square_plus_one())
    assert prof.injective.is_false and prof.injective.witness is not None
    a, b = prof.injective.witness
    assert a != b
    assert evaluate(square_plus_one(), a) == evaluate(square_plus_one(), b)


@given(tables)
@settings(max_examples=300, deadline=None)
def test_table_profile_matches_brute_force(entries):
    m = table_map(entries)
    assert map_profile(m).truths() == brute_force_profile(m).truths()


def _assert_table_json(entries):
    # byte for byte, key order included: a shared verdict must carry this
    # table's own witness
    profile = map_profile(table_map(entries))
    want_profile, want_prediction = table_json(entries)
    assert json.dumps(profile.to_json()) == json.dumps(want_profile)
    assert json.dumps(predict(profile).to_json()) == json.dumps(want_prediction)


def test_every_table_up_to_five_points_has_the_oracle_json():
    every = [t for n in range(1, 6) for t in product(range(n), repeat=n)]
    assert len(every) == 3413
    for entries in every:
        _assert_table_json(entries)


@given(st.integers(min_value=6, max_value=12).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
@settings(max_examples=300, deadline=None)
def test_larger_tables_have_the_oracle_json(entries):
    _assert_table_json(entries)


def test_large_tables_have_the_oracle_json():
    n = 100_000
    cycle = tuple(range(1, n)) + (0,)
    late = tuple(range(1, n)) + (5,)  # entry n-1 is the first to repeat a target
    # one linear pass per question takes ~0.1 s here; a quadratic scan takes minutes
    start = time.perf_counter()
    profiles = [map_profile(table_map(entries)) for entries in (cycle, late)]
    assert time.perf_counter() - start < 5.0
    assert profiles[0].injective.is_true
    assert profiles[1].injective.witness == (ix(4), ix(n - 1))
    _assert_table_json(cycle)
    _assert_table_json(late)


def test_equal_table_profiles_are_one_shared_object():
    # each table's first collision is (0, 1) and its walk from 0 repeats 1
    shared = map_profile(table_map((1, 1, 1)))
    assert map_profile(table_map((1, 1, 0))) is shared
    assert map_profile(table_map((1, 1, 3, 2))) is shared
    # collision (1, 2), repeated point 2: a profile of its own
    assert map_profile(table_map((1, 2, 2))) != shared


def test_a_composition_of_two_tables_profiles_as_its_composed_table():
    m = compose_maps(table_map((1, 2, 0)), table_map((0, 0, 1)))
    profile, table_profile = map_profile(m), map_profile(table_map((1, 1, 2)))
    assert profile.to_json() == table_profile.to_json()
    assert predict(profile).to_json() == predict(table_profile).to_json()
    assert classify_point(m, ix(0)) == classify_point(table_map((1, 1, 2)), ix(0))


def test_profiling_a_table_builds_no_rule_record():
    m = table_map((1, 2, 0))
    predict(map_profile(m))
    assert "record" not in m.__dict__
    assert evaluate(m, ix(2)) == ix(0)  # a read builds it
    assert m.record.name == "table"


def test_union_profile_combines_sides():
    u = disjoint_union_maps(successor(), parity_up())
    # injectivity survives (both sides injective); periodic point from the right
    assert u and map_profile(u).truths() == (
        "proven_true", "proven_true", "proven_true")
    witness = map_profile(u).has_periodic_point.witness
    assert witness is not None and witness[0].path == ("R",)


# ---------------------------------------------------------------------------
# Injectivity witnesses, chains, orbit positions.
# ---------------------------------------------------------------------------


def _collision(m):
    """The profile's colliding pair, ordered by coordinate, or None when injective."""
    verdict = map_profile(m).injective
    if verdict.witness is None:
        return None
    return tuple(sorted(verdict.witness, key=lambda i: i.coord))


def test_injectivity_witness_examples():
    assert _collision(square_plus_one()) == (ix(-1), ix(1))
    assert _collision(square()) == (ix(-1), ix(1))
    assert _collision(compose_maps(square(), predecessor())) == (ix(0), ix(2))  # (n - 1)^2
    assert _collision(successor()) is None


def test_chain_decomposition_examples():
    cd = chain_decomposition(successor(), 10)
    assert [format_index(r) for r in cd.representatives] == ["0"]

    cd2 = chain_decomposition(compose_maps(parity_up(), parity_down()), 10)
    assert sorted(format_index(r) for r in cd2.representatives) == ["0", "1"]

    cd3 = chain_decomposition(disjoint_union_maps(successor(), successor()), 5)
    assert sorted(format_index(r) for r in cd3.representatives) == ["L0", "R0"]


TRANSLATIONS = {"s": successor(), "p": predecessor(), "u": parity_up(), "d": parity_down()}


def _compositions(depth, rules=TRANSLATIONS):
    """Every composition of `depth` of the given rules, nested to the right."""
    if depth == 1:
        return dict(rules)
    return {f"{a}.{rest}": compose_maps(rules[a], m)
            for a in rules for rest, m in _compositions(depth - 1, rules).items()}


CHAIN_MAPS = {name: m for depth in (1, 2, 3) for name, m in _compositions(depth).items()}
# unions of the one- and two-step compositions, on both sides
_SHORT = [name for name in CHAIN_MAPS if name.count(".") < 2]
CHAIN_MAPS.update({f"[{a}|{b}]": disjoint_union_maps(CHAIN_MAPS[a], CHAIN_MAPS[b])
                   for a in _SHORT[:8] for b in _SHORT[4:12]})


@pytest.mark.parametrize("name", sorted(CHAIN_MAPS))
def test_chain_decomposition_matches_two_sided_stepping(name):
    m = CHAIN_MAPS[name]
    profile = map_profile(m)
    for bound in range(11):
        if not (profile.injective.is_true and profile.has_periodic_point.is_false):
            with pytest.raises(ValueError, match="chain decomposition needs proven"):
                chain_decomposition(m, bound)
            continue
        cd = chain_decomposition(m, bound)
        assert cd.region_bound == bound
        assert list(cd.representatives) == stepped_chain_representatives(
            m, bound, 4 * bound + 8), bound


@pytest.mark.parametrize("nest", ["left", "right"])
def test_every_side_of_a_deep_union_is_its_own_chain(nest):
    # sixteen successors: the chains are the sixteen sides' orbits of 0
    join = disjoint_union_maps if nest == "left" else lambda a, b: disjoint_union_maps(b, a)
    m = reduce(join, [successor()] * 16)
    cd = chain_decomposition(m, 8)
    assert len(cd.representatives) == 16
    assert {r.coord for r in cd.representatives} == {0}
    assert len({r.path for r in cd.representatives}) == 16


def test_chain_decomposition_rejects_non_injective_maps():
    with pytest.raises(ValueError):
        chain_decomposition(square_plus_one(), 10)


def test_chain_cover_reaches_every_small_coordinate():
    m = compose_maps(parity_up(), parity_down())
    cd = chain_decomposition(m, 8)
    # every |n| <= 8 sits on the forward/backward orbit of some representative
    for n in range(-8, 9):
        hit = any(
            window_offsets(m, rep, (ix(n),)) is not None
            for rep in cd.representatives
        )
        assert hit, n


def test_orbit_position_arithmetic():
    assert orbit_position(successor(), ix(0), ix(41)) == 41
    assert orbit_position(successor(), ix(0), ix(-3)) is None
    assert window_offsets(successor(), ix(0), (ix(-3),)) == (-3,)


def test_a_walk_that_comes_back_round_settles_a_miss():
    # (n - 1)^2 has no chain coordinates and grows only past |n| = 4; the orbit
    # of 0 is the cycle 0, 1, 0, ..., so 5 is off it after two steps
    m = compose_maps(square(), predecessor())
    assert orbit_position(m, ix(0), ix(5)) is None
    assert orbit_position(m, ix(0), ix(1)) == 1
    assert orbit_position(m, ix(2), ix(0)) == 2  # 2, 1, 0
    assert orbit_position(m, ix(2), ix(-1)) is None


def test_orbit_position_by_growth():
    assert orbit_position(square(), ix(2), ix(65536)) == 4
    assert orbit_position(square(), ix(2), ix(65537)) is None
    assert orbit_position(square_plus_one(), ix(0), ix(26)) == 4  # 0,1,2,5,26


# ---------------------------------------------------------------------------
# window_offsets: the one closed-form offset resolution.  A one-index window
# reads the target's signed orbit index, the exponent i with
# phi^i(anchor) == target (phi^-i(target) == anchor when i < 0).  The oracle
# is the preimage walk, and iterating by the offset lands on the index or the
# anchor.
# ---------------------------------------------------------------------------


OFFSET_MAPS = {name: SIGNED_MAPS[name] for name in (
    "successor", "predecessor", "parity_up", "parity_down", "plus_two", "up_after_down")}


@given(st.integers(min_value=0, max_value=30))
def test_signed_orbit_index_round_trips_on_translation(k):
    target = iterate(successor(), ix(-5), k)
    assert window_offsets(successor(), ix(-5), (target,)) == (k,)
    assert window_offsets(successor(), target, (ix(-5),)) == (-k,)


@pytest.mark.parametrize("name", sorted(SIGNED_MAPS))
def test_signed_orbit_index_matches_the_preimage_walk(name):
    # a map without chain coordinates (square) reads no offset; a union reads
    # its sides' coordinates
    m = SIGNED_MAPS[name]
    closed_form = m.record.chain is not None
    tags = [("L",), ("R",)] if m.left is not None else [()]
    for a in range(-20, 21):
        tag = tags[a % len(tags)]  # a union's anchors alternate sides
        anchor = Index(tag, a)
        targets = [Index(tag, t) for t in range(a - 12, a + 13)]
        # a union never maps one side onto the other
        targets += [Index(other, a) for other in tags if other != tag]
        for target in targets:
            k = walked_signed_orbit_index(m, anchor, target, 64) if closed_form else None
            want = None if k is None else (k,)
            assert window_offsets(m, anchor, (target,)) == want, (anchor, target)


def test_square_still_refuses_a_negative_exponent():
    assert orbit_position(square(), ix(2), ix(16)) == 2
    assert window_offsets(square(), ix(4), (ix(2),)) is None


def test_a_permutation_table_reads_forward_exponents_only():
    # the walk finds phi^2(0) == 2 within the domain's 3 steps; a table has
    # no chain coordinates, so no signed offset
    m = table_map((1, 2, 0))
    assert orbit_position(m, ix(0), ix(2)) == 2
    assert window_offsets(m, ix(0), (ix(2),)) is None


def test_a_walk_on_a_finite_domain_is_exact_past_the_walk_limit():
    # a 600-cycle: the orbit of 0 reaches 599 after 599 steps; a composition
    # of two tables is walked as its composed table, so a miss is settled at
    # the walk's first repeat
    cycle = table_map([(i + 1) % 600 for i in range(600)])
    assert orbit_position(cycle, ix(0), ix(599)) == 599
    halves = table_map([(i + 2) % 600 for i in range(600)])
    assert orbit_position(halves, ix(0), ix(1)) is None
    assert orbit_position(compose_maps(cycle, cycle), ix(0), ix(598)) == 299
    assert orbit_position(compose_maps(halves, cycle), ix(0), ix(2)) is None


@pytest.mark.parametrize("coord", [-2, 2])
@pytest.mark.parametrize("target_path", [("L",), ("R", "L")])
def test_a_target_on_another_path_is_off_the_orbit_on_both_sides(coord, target_path):
    # n -> n + 1 reaches 2 forward and -2 backward, but only on its own path
    m = successor()
    assert window_offsets(m, ix(0), (ix(coord),)) == (coord,)
    assert window_offsets(m, ix(0), (Index(target_path, coord),)) is None
    union = disjoint_union_maps(successor(), successor())
    assert orbit_position(union, ix(0, "L"), ix(coord, "L")) == (coord if coord > 0 else None)
    assert orbit_position(union, ix(0, "L"), ix(coord, "R")) is None
    assert orbit_position(union, ix(0, "L"), Index(("L", "L"), coord)) is None


def test_an_off_domain_target_is_off_every_orbit():
    # the anchor's cycle 0 -> 1 -> 2 -> 0 never reaches coordinate 5
    m = table_map((1, 2, 0))
    for target in (ix(5), ix(-1)):
        assert orbit_position(m, ix(0), target) is None
        assert window_offsets(m, ix(0), (target,)) is None


@pytest.mark.parametrize("name", sorted(OFFSET_MAPS))
@pytest.mark.parametrize("a", [0, 3, -2])
def test_window_offsets_match_the_preimage_walk(name, a):
    m, anchor = OFFSET_MAPS[name], ix(a)
    targets = [ix(t) for t in range(a - 12, a + 13)]
    want = [walked_signed_orbit_index(m, anchor, t, 64) for t in targets]
    for target, k in zip(targets, want):
        assert window_offsets(m, anchor, (target,)) == (None if k is None else (k,)), target
        if k is not None and k >= 0:
            assert iterate(m, anchor, k) == target
        elif k is not None:
            assert iterate(m, target, -k) == anchor
    # a window resolves to every offset in order, or to None when one is off the chain
    for i in range(0, len(targets) - 4, 3):
        window = tuple(targets[i:i + 5])[::-1]
        offsets = want[i:i + 5][::-1]
        expected = None if None in offsets else tuple(offsets)
        assert window_offsets(m, anchor, window) == expected, window


@pytest.mark.parametrize("m, anchor, window", [
    (disjoint_union_maps(square(), successor()), ix(2, "L"), (ix(4, "L"),)),
    (disjoint_union_maps(successor(), parity_up()), ix(0, "L"), (ix(1, "L"), ix(1, "R"))),
    (square(), ix(2), (ix(4),)),
    (successor(), ix(0), (ix(1), ix(2, "L"))),
    (table_map((1, 2, 0)), ix(0), (ix(2), ix(3))),
])
def test_window_offsets_refuse_unions_growth_and_off_domain_indices(m, anchor, window):
    assert window_offsets(m, anchor, window) is None


@pytest.mark.parametrize("name", sorted(CHAIN_MAPS))
def test_chain_coordinates_follow_the_map_and_name_the_orbit(name):
    # evaluate keeps the key and adds one to the offset (mod the period on a
    # cycle); two region points share a key iff a walk joins them
    m = CHAIN_MAPS[name]
    region = list(region_indices(m.domain, 4))
    coords = {x: chain_coordinates(m, x) for x in region}
    for x, (key, offset, period) in coords.items():
        after = chain_coordinates(m, evaluate(m, x))
        assert after[0] == key and after[2] == period, x
        assert after[1] == (offset + 1 if period is None else (offset + 1) % period), x
    for x, y in product(region, repeat=2):
        (key, offset, period), (other, to, _) = coords[x], coords[y]
        k = walked_signed_orbit_index(m, x, y, 24)
        assert (key == other) == (k is not None), (x, y)
        if k is not None:
            assert k == (to - offset if period is None else (to - offset) % period), (x, y)


def test_chain_coordinates_of_the_catalog_translations():
    assert chain_coordinates(successor(), ix(-7)) == (0, -7, None)
    assert chain_coordinates(predecessor(), ix(-7)) == (0, 7, None)
    assert chain_coordinates(compose_maps(successor(), successor()), ix(-7)) == (1, -4, None)
    assert chain_coordinates(parity_up(), ix(5)) == (4, 1, 2)
    union = disjoint_union_maps(square(), parity_down())
    assert chain_coordinates(union, ix(3, "R")) == (("R", 4), 1, 2)  # 4 -> 3
    assert chain_coordinates(union, ix(3, "L")) is None
    assert chain_coordinates(table_map((1, 2, 0)), ix(0)) is None


# ---------------------------------------------------------------------------
# Compositions with a squaring rule: facts walked below the growth bound.  The
# two `bounded_search` tests keep their names from the budgeted search these
# facts replace, and the kinds, periods and colliding pairs it found.
# ---------------------------------------------------------------------------

SQUARE_AFTER_PREDECESSOR = compose_maps(square(), predecessor())  # (n - 1)^2

CATALOG = {**TRANSLATIONS, "q": square(), "q1": square_plus_one()}
CATALOG_COMPOSITIONS = {name: m for depth in (1, 2, 3)
                        for name, m in _compositions(depth, CATALOG).items()}


def test_an_inner_collision_survives_composition():
    verdict = map_profile(compose_maps(successor(), square())).injective
    assert verdict == proven_false(witness=(ix(-1), ix(1)))


def test_bounded_search_profiles_a_composition_without_facts():
    m = SQUARE_AFTER_PREDECESSOR  # the inner map is injective
    assert m.record.grows == 4  # reach 1 + 0, so B = 2 * 1 + 2
    profile = map_profile(m)
    assert profile.injective == proven_false(witness=(ix(0), ix(2)))
    assert profile.has_periodic_point == proven_true(witness=(ix(0),))
    assert profile.has_non_quasi_periodic_point.witness == (ix(5),)


def test_bounded_search_classifies_points_of_a_composition():
    cls = classify_point(SQUARE_AFTER_PREDECESSOR, ix(0))  # 0 -> 1 -> 0
    assert (cls.kind, cls.preperiod, cls.period, cls.provenance) == (
        "periodic", 0, 2, "analytic-metadata")
    cls = classify_point(compose_maps(successor(), SQUARE_AFTER_PREDECESSOR), ix(0))  # 0 -> 2 -> 2
    assert (cls.kind, cls.preperiod, cls.period, cls.provenance) == (
        "quasi_periodic", 1, 1, "analytic-metadata")


def test_an_unknown_point_names_no_provenance():
    # as an unknown verdict: an undecided point has no source to name
    assert PointClassification("unknown").provenance is None


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_every_catalog_composition_is_decided_exactly(depth):
    # 6, 36 and 216 maps: no unknown fact, every stored collision collides,
    # and each point of -40..40 has the shape a capped walk finds (finite
    # orbits of these maps stay below 20 in magnitude, infinite ones pass 2^64)
    for name, m in _compositions(depth, CATALOG).items():
        profile = map_profile(m)
        assert "unknown" not in profile.truths(), name
        if profile.injective.is_false:
            a, b = profile.injective.witness
            assert a != b and evaluate(m, a) == evaluate(m, b), name
        for c in range(-40, 41):
            cls = classify_point(m, ix(c))
            shape = None if cls.is_non_quasi_periodic else (cls.preperiod, cls.period)
            assert shape == capped_orbit_shape(m, ix(c), 64, 2 ** 64), (name, c)


@pytest.mark.parametrize("name", ["q.s", "q1.s", "s.q", "q.q1.p", "u.q.d"])
def test_a_squaring_composition_grows_past_its_bound(name):
    # |phi(n)| > |n| for every |n| > B, with B = 2 * (sum of the parts' reach) + 2
    m = CATALOG_COMPOSITIONS[name]
    bound = m.record.grows
    assert bound == 2 * m.record.reach + 2
    for c in range(-bound - 30, bound + 31):
        if abs(c) > bound:
            assert abs(evaluate(m, ix(c)).coord) > abs(c), c


def test_a_composition_of_two_unions_routes_by_tag():
    u = disjoint_union_maps(successor(), parity_up())
    m = compose_maps(u, u)
    assert (m.rule, m.record.name) == ("compose", "disjoint_union")
    assert map_profile(m).truths() == ("proven_true", "proven_true", "proven_true")
    assert map_spec(m) == {"rule": "compose", "outer": map_spec(u), "inner": map_spec(u)}
    assert parse_map_spec(map_spec(m)) == m
    assert chain_coordinates(m, ix(3, "L")) == (("L", 1), 1, None)  # n + 2: 1 -> 3
    for x in region_indices(m.domain, 6):
        assert evaluate(m, x) == evaluate(u, evaluate(u, x)), x
    assert classify_point(m, ix(4, "R")).kind == "periodic"  # the swap, twice, is the identity
    twice = disjoint_union_maps(successor(), successor())
    cd = chain_decomposition(compose_maps(twice, twice), 3)  # n + 2 on both sides
    assert [format_index(r) for r in cd.representatives] == ["L0", "R0", "L1", "R1"]
