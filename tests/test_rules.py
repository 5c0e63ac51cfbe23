"""Every record of the rule table against plain stepping.

A record's shortcuts (closed-form iterate, certified preimage, closed-form
orbit position) must agree with applying its one-step map repeatedly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gshift.indexspace import (
    RULES,
    compose_maps,
    disjoint_union_maps,
    domain_size,
    enumerate_index,
    evaluate,
    iterate,
    parity_down,
    parity_up,
    predecessor,
    preimage,
    square,
    square_plus_one,
    successor,
    table_map,
)
from gshift.orbits import orbit_position

SAMPLES = [
    successor(),
    predecessor(),
    square(),
    square_plus_one(),
    parity_up(),
    parity_down(),
    table_map((1, 2, 0, 4, 3, 5)),
    table_map((3, 0, 0, 1, 5, 4, 6, 7, 7, 2)),
    compose_maps(square(), successor()),
    compose_maps(successor(), successor()),
    compose_maps(predecessor(), successor()),
    compose_maps(successor(), predecessor()),
    compose_maps(parity_up(), parity_down()),
    compose_maps(parity_down(), parity_up()),
    compose_maps(successor(), parity_up()),
    compose_maps(parity_up(), successor()),
    compose_maps(successor(), compose_maps(successor(), parity_up())),
    disjoint_union_maps(successor(), parity_up()),
    disjoint_union_maps(table_map((1, 1, 0)), compose_maps(parity_down(), parity_up())),
    compose_maps(disjoint_union_maps(successor(), parity_up()),
                 disjoint_union_maps(predecessor(), square())),
]


def test_samples_cover_every_record():
    # a composition's record is built per map ("compose": a translation or a
    # growing record), so the table holds every other kind
    assert {m.record.name for m in SAMPLES} == set(RULES) | {"compose"}
    assert {m.record.grows is not None for m in SAMPLES if m.record.name == "compose"} == {
        True, False}


def test_every_record_without_chain_coordinates_is_a_table_or_grows():
    # so the walk of `orbit_position` always ends: at a repeat (tables) or
    # past the growth bound, unless the bit budget stops it first
    records = [*RULES.values(), *(m.record for m in SAMPLES)]
    records += [compose_maps(a, b).record for a in SAMPLES[:6] for b in SAMPLES[:6]]
    for rule in records:
        assert rule.chain is not None or rule.name == "table" or rule.grows is not None, rule.name


@st.composite
def map_and_point(draw):
    m = draw(st.sampled_from(SAMPLES))
    size = domain_size(m.domain)
    rank = draw(st.integers(min_value=1, max_value=200 if size is None else size))
    return m, enumerate_index(m.domain, rank)


@given(map_and_point(), st.integers(min_value=0, max_value=12))
@settings(max_examples=400, deadline=None)
def test_iterate_is_repeated_evaluate(mp, k):
    m, a = mp
    cur = a
    for _ in range(k):
        cur = evaluate(m, cur)
    assert iterate(m, a, k) == cur


def _certified_preimage(m, x):
    """(True, preimage) where the inverse is certified at x, else (False, None)."""
    try:
        return True, preimage(m, x)
    except ValueError:
        return False, None


@given(map_and_point())
@settings(max_examples=300, deadline=None)
def test_certified_preimage_inverts_evaluate(mp):
    m, x = mp
    certified, pre = _certified_preimage(m, x)
    if certified and pre is not None:
        assert evaluate(m, pre) == x
    certified, back = _certified_preimage(m, evaluate(m, x))
    if certified:
        assert back == x


@given(map_and_point(), st.integers(min_value=0, max_value=12))
@settings(max_examples=400, deadline=None)
def test_orbit_position_is_least_exponent(mp, k):
    m, a = mp
    target = iterate(m, a, k)
    n = orbit_position(m, a, target)
    assert n is not None and n <= k
    assert iterate(m, a, n) == target
    assert all(iterate(m, a, j) != target for j in range(n))


@pytest.mark.parametrize("m", [successor(), parity_up(), compose_maps(parity_up(), parity_down()),
                               compose_maps(predecessor(), successor()),
                               compose_maps(parity_up(), successor())])
def test_closed_forms_reach_huge_step_counts(m):
    a = enumerate_index(m.domain, 7)
    k = 10 ** 30 + 3
    target = iterate(m, a, k)
    n = orbit_position(m, a, target)
    assert iterate(m, a, n) == target and n <= k
