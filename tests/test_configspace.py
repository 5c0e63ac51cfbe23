"""Configurations, block layouts, cylinder patterns, and the dyadic metric."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gshift.indexspace import (
    INTEGERS,
    NATURALS,
    DomainMismatchError,
    Index,
    chain_coordinates,
    compose_maps,
    disjoint_union_maps,
    enumerate_index,
    evaluate,
    finite_range,
    ix,
    iterate,
    parity_up,
    predecessor,
    rank_of,
    square,
    successor,
    square_plus_one,
    table_map,
)
from gshift.configspace import (
    Alphabet,
    Constant,
    CylinderPattern,
    Embedded,
    FinitePatch,
    MetricResolutionError,
    OrbitBlocks,
    Shifted,
    default_alphabet,
    in_cylinder,
    make_window,
    metric_less_than,
    pattern_json,
    shifted,
    threshold_to_window,
    window_from_ranks,
    window_to_threshold,
)
from gshift.orbits import first_join, orbit_position
from gshift.constructions import (
    ExplicitBlockSet,
    block_lengths,
    full_shift_transitive_point,
)
from oracles import (
    agree_on_window,
    expand,
    parse_pattern,
    pattern_from_ranks,
    stepped_join,
    truncated_distance,
)

ALPHA = default_alphabet()
P, Q = ALPHA.p, ALPHA.q


def _blocks(member_ranks, variant="plain", count=6, weave=False):
    fam = ExplicitBlockSet(frozenset(member_ranks))
    source = full_shift_transitive_point(ALPHA) if weave else None
    return OrbitBlocks(successor(), ix(0), block_lengths(count, variant),
                       fam, ALPHA, weave_source=source)


# ---------------------------------------------------------------------------
# Alphabet and elementary configurations.
# ---------------------------------------------------------------------------


def test_alphabet_validates_distinguished_symbols():
    with pytest.raises(ValueError):
        Alphabet(("a",), "a", "a")
    with pytest.raises(ValueError):
        Alphabet(("a", "b"), "a", "c")


def test_constant_reads_everywhere():
    c = Constant(INTEGERS, Q)
    assert c.symbol_at(ix(0)) == Q
    assert c.symbol_at(ix(-999)) == Q


def test_finite_patch_overrides_base():
    c = FinitePatch(Constant(INTEGERS, P), {ix(2): Q})
    assert c.symbol_at(ix(2)) == Q
    assert c.symbol_at(ix(3)) == P
    assert tuple(c.patch) == (ix(2),)


# ---------------------------------------------------------------------------
# Block layouts along the anchor orbit (frozen by hand-expansion).
# ---------------------------------------------------------------------------


def test_plain_block_layout_prefix():
    x = _blocks({2})
    # lengths (1, 2, 7, ...): block 1 not a member -> q; block 2 member -> p p
    assert x.symbol_at(ix(0)) == Q
    assert x.symbol_at(ix(1)) == P
    assert x.symbol_at(ix(2)) == P
    assert expand(x.runs_along(successor(), ix(0), 10)) == [Q, P, P, Q, Q, Q, Q, Q, Q, Q]


def test_plain_block_layout_off_orbit_reads_q():
    x = _blocks({2})
    assert x.symbol_at(ix(-5)) == Q


def test_weave_block_layout_interleaves_source():
    x = _blocks({2}, variant="weave", weave=True)
    # layout: [block1][1 source symbol][block2][2 source symbols][block3...]
    # lengths (1, 3, 15, ...), source starts p, q, p, p, ...
    assert expand(x.runs_along(successor(), ix(0), 12)) == [
        Q,            # block 1 (not a member)
        P,            # source position 0
        P, P, P,      # block 2 (member)
        P, Q,         # source positions 0, 1
        Q, Q, Q, Q, Q  # block 3 starts (not a member)
    ]


def test_weave_requires_source_pairing():
    with pytest.raises(ValueError):
        _blocks({2}, variant="weave", weave=False)
    with pytest.raises(ValueError):
        _blocks({2}, variant="plain", weave=True)


@given(st.sets(st.integers(min_value=1, max_value=6), min_size=1),
       st.integers(min_value=-10, max_value=60),
       st.sampled_from(["plain", "weave"]))
@settings(max_examples=80, deadline=None)
def test_symbols_along_matches_pointwise_reads(members, start, variant):
    # 120 reads from any start cross the weave splices at 101..104, and from
    # the first starts also those at 1, 5..6 and 22..24
    x = _blocks(members, variant=variant, weave=variant == "weave")
    m = successor()
    bulk = expand(x.runs_along(m, ix(start), 120))
    pointwise = [x.symbol_at(iterate(m, ix(start), i)) for i in range(120)]
    assert bulk == pointwise


def _pointwise(x, m, start, count):
    return [x.symbol_at(iterate(m, start, i)) for i in range(count)]


@given(st.sets(st.integers(min_value=1, max_value=6)),
       st.integers(min_value=-10, max_value=60),
       st.integers(min_value=0, max_value=150),
       st.sampled_from(["plain", "weave", "shifted", "patched", "constant"]))
@settings(max_examples=80, deadline=None)
def test_runs_along_matches_pointwise_reads(members, start, count, kind):
    m = successor()
    x = _blocks(members, variant="weave" if kind == "weave" else "plain", weave=kind == "weave")
    if kind == "shifted":
        x = shifted(x, m, 4)
    elif kind == "patched":
        x = FinitePatch(x, {ix(start + 3): P, ix(start + 20): Q})
    elif kind == "constant":
        x = Constant(INTEGERS, P)
    runs = x.runs_along(m, ix(start), count)
    assert all(length >= 1 for length, _ in runs)
    assert all(a[1] != b[1] for a, b in zip(runs, runs[1:]))  # maximal runs
    assert expand(runs) == _pointwise(x, m, ix(start), count)


@pytest.mark.parametrize("variant", ["plain", "weave"])
def test_runs_along_reaches_far_horizons_block_by_block(variant):
    # out to block 30 (horizon ~5·10^32 plain, ~10^33 weave), every run's first and
    # last symbol matches a pointwise read, and the runs cover the count exactly
    m, start = successor(), ix(-2)
    x = _blocks(set(range(1, 31, 3)), variant=variant, count=30, weave=variant == "weave")
    count = x.lengths.horizon(30) + 7
    runs = x.runs_along(m, start, count)
    assert sum(length for length, _ in runs) == count
    assert len(runs) < 31 + 31 * 31  # blocks plus splice symbols
    pos = 0
    for length, symbol in runs:
        for i in (pos, pos + length - 1):
            assert x.symbol_at(iterate(m, start, i)) == symbol
        pos += length


def test_orbit_position_lookup():
    x = _blocks({2})
    assert orbit_position(x.map, x.anchor, ix(7)) == 7
    assert orbit_position(x.map, x.anchor, ix(-1)) is None


# ---------------------------------------------------------------------------
# Walks that start off the anchor's orbit: q up to where `first_join` says
# they meet it, one q run when they never do.
# ---------------------------------------------------------------------------

UNION = disjoint_union_maps(successor(), parity_up())
SQUARE_UNION = disjoint_union_maps(successor(), square())  # not injective
PLUS_TWO = compose_maps(successor(), successor())


def _on_orbit_of(m, anchor):
    return OrbitBlocks(m, anchor, block_lengths(6), ExplicitBlockSet(frozenset({1, 3, 4})), ALPHA)


def _case(m, anchor, walkers, disjoint, most=150):
    """(map, anchor, walker, disjoint, largest count): disjoint when the
    forward orbits never meet; the count stays small for square, whose
    pointwise reads square a coordinate once per position."""
    return walkers.map(lambda c: (m, anchor, c, disjoint, most))


OFF_ORBIT_WALKS = st.one_of(
    # the other side of a union, whatever its maps
    _case(UNION, ix(0, "L"), st.integers(-50, 50).map(lambda c: ix(c, "R")), True),
    _case(SQUARE_UNION, ix(0, "L"), st.sampled_from([ix(c, "R") for c in (-3, 2, 3)]), True,
          most=16),
    # square's fixed points and its preperiodic -1, walked to a repeat
    _case(square(), ix(2), st.sampled_from([ix(0), ix(1), ix(-1)]), True),
    # n -> n + 2: odd walkers lie on other chains than the anchor 0
    _case(PLUS_TWO, ix(0), st.integers(-25, 25).map(lambda k: ix(2 * k + 1)), True),
    # late joins on chain coordinates ...
    _case(predecessor(), ix(0), st.integers(1, 40).map(ix), False),
    _case(PLUS_TWO, ix(0), st.integers(-25, -1).map(lambda k: ix(2 * k)), False),
    _case(UNION, ix(0, "L"), st.integers(-40, -1).map(lambda c: ix(c, "L")), False),
    # ... and a non-injective walk with an infinite orbit, joining at position 1,
    # also on the side of a union that has no chain coordinates
    _case(square(), ix(2), st.just(ix(-2)), False, most=16),
    _case(SQUARE_UNION, ix(2, "R"), st.just(ix(-2, "R")), False, most=16),
)


@given(OFF_ORBIT_WALKS, st.data())
@settings(max_examples=150, deadline=None)
def test_off_orbit_runs_match_pointwise_reads(case, data):
    m, anchor, walker, disjoint, most = case
    count = data.draw(st.integers(0, most))
    x = _on_orbit_of(m, anchor)
    assert orbit_position(m, anchor, walker) is None
    assert (first_join(m, walker, anchor, most + 1) is None) is disjoint
    # every join of these walks lies at anchor position 0 or 1
    assert first_join(m, walker, anchor, count) == stepped_join(m, walker, anchor, count, 16)
    runs = x.runs_along(m, walker, count)
    assert expand(runs) == _pointwise(x, m, walker, count)
    if disjoint:
        assert runs == ([(count, Q)] if count else [])


@pytest.mark.parametrize("m, anchor, walker, joins_at", [
    (predecessor(), ix(0), ix(7), 7),
    (PLUS_TWO, ix(0), ix(-6), 3),
    (UNION, ix(0, "L"), ix(-4, "L"), 4),
    (square(), ix(4), ix(-2), 1),
    (predecessor(), ix(0), ix(10 ** 9), 10 ** 9),
])
def test_an_uncertified_walk_is_stepped_to_its_join(m, anchor, walker, joins_at, evaluate_calls):
    # a late join is read off chain coordinates without a step, however late;
    # square has none, so its walk is stepped to the join
    runs = _on_orbit_of(m, anchor).runs_along(m, walker, joins_at + 12)
    assert runs[:2] == [(joins_at, Q), (1, P)]  # joins at the anchor: block 1
    if chain_coordinates(m, walker) is None:
        assert len(evaluate_calls) >= joins_at
    else:
        assert evaluate_calls == []
    assert first_join(m, walker, anchor, joins_at + 1) == (joins_at, 0)
    assert first_join(m, walker, anchor, joins_at) is None


@pytest.mark.parametrize("m, anchor, walker", [
    (SQUARE_UNION, ix(0, "L"), ix(3, "R")),
    (square(), ix(2), ix(-1)),
    (PLUS_TWO, ix(0), ix(1)),
], ids=["other-side", "finite-orbit", "injective-miss"])
def test_a_certified_walk_costs_the_same_at_any_count(m, anchor, walker, evaluate_calls):
    x = _on_orbit_of(m, anchor)
    assert first_join(m, walker, anchor, 20_000) is None
    before = len(evaluate_calls)
    assert x.runs_along(m, walker, 50) == [(50, Q)]
    near = len(evaluate_calls) - before
    far = 20_000  # stepping would make 400 times the calls
    assert x.runs_along(m, walker, far) == [(far, Q)]
    assert len(evaluate_calls) - before == 2 * near


def _forward_orbit(m, index, steps=64):
    seen = [index]
    for _ in range(steps):
        seen.append(evaluate(m, seen[-1]))
    return set(seen)


@pytest.mark.parametrize("m, anchor, walker", [
    (square(), ix(1), ix(-1)),   # both orbits finite: -1 joins the fixed point 1
    (square(), ix(0), ix(0)),
    (successor(), ix(0), ix(5)),  # injective, walker on the anchor's orbit
    (PLUS_TWO, ix(0), ix(4)),
    (PLUS_TWO, ix(0), ix(-4)),   # injective, anchor on the walker's orbit
])
def test_a_walk_that_meets_the_anchor_orbit_is_never_certified(m, anchor, walker):
    assert _forward_orbit(m, anchor) & _forward_orbit(m, walker)
    n, k = first_join(m, walker, anchor, 64)
    assert iterate(m, walker, n) == iterate(m, anchor, k)


@given(st.lists(st.integers(0, 5), min_size=6, max_size=6),
       st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_finite_anchor_orbits_certify_only_disjoint_walks(entries, a, w):
    # on any table, permutation or not: no join within 6 steps exactly when
    # the forward orbits are disjoint, and the join is the stepped one
    m = table_map(entries)
    meets = bool(_forward_orbit(m, ix(a), 6) & _forward_orbit(m, ix(w), 6))
    join = first_join(m, ix(w), ix(a), 6)
    assert (join is None) is not meets
    assert join == stepped_join(m, ix(w), ix(a), 6, 6)


@pytest.mark.parametrize("m, anchor, kind", [
    (table_map((1, 2, 0)), ix(0), "periodic"),
    (table_map((1, 2, 2)), ix(0), "quasi_periodic"),
    (parity_up(), ix(0), "periodic"),
])
def test_a_layout_refuses_an_anchor_without_an_infinite_orbit(m, anchor, kind):
    # on the 3-cycle with blocks {1, 3, 4}, reading runs along the orbit would
    # give p q q p p p ... while pointwise reads at the least orbit position
    # give p q q p q q ...: no configuration is both
    message = (f"anchor {anchor!r} must have a proven infinite orbit; "
               f"classification came back {kind!r}")
    with pytest.raises(ValueError) as exc:
        _on_orbit_of(m, anchor)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        Embedded(m, anchor, Constant(NATURALS, P), P)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# A layout keeps each walk's runs: reads in any order equal fresh reads.
# ---------------------------------------------------------------------------

MEMO_LENGTHS = {variant: block_lengths(9, variant) for variant in ("plain", "weave")}


def _memo_member(variant, member_ranks):
    # n -> n + 2 from 0: even starts >= 0 lie on the orbit, negative even ones
    # join it later, and odd ones lie on the other chain
    source = full_shift_transitive_point(ALPHA) if variant == "weave" else None
    return OrbitBlocks(PLUS_TWO, ix(0), MEMO_LENGTHS[variant],
                       ExplicitBlockSet(frozenset(member_ranks)), ALPHA, weave_source=source)


def _near_boundaries(variant):
    """Orbit positions around the end of each block r <= 9: its last three,
    then the r + 1 after it (the splice that follows it in the weave, the
    start of block r + 1 in the plain layout)."""
    lengths = MEMO_LENGTHS[variant]
    return st.integers(1, 9).flatmap(lambda r: st.integers(-3, r + 1).map(
        lambda d: max(0, lengths.horizon(r) + d)))


def _memo_starts(variant):
    return st.one_of(
        st.integers(0, 30).map(lambda k: ix(2 * k)),                    # on the orbit
        _near_boundaries(variant).map(lambda pos: ix(2 * pos)),         # deep on it
        st.integers(-20, -1).map(lambda k: ix(2 * k)),                  # before it
        st.integers(-15, 15).map(lambda k: ix(2 * k + 1)),              # off it
    )


def _memo_counts(variant):
    return st.one_of(st.just(0), st.integers(1, 60), _near_boundaries(variant))


def _check_pointwise(x, m, start, runs, full_up_to=3000):
    """runs against symbol_at: every position when short, else both ends of
    every run (the far-horizon test's check)."""
    count = sum(length for length, _ in runs)
    if count <= full_up_to:
        assert expand(runs) == _pointwise(x, m, start, count)
        return
    pos = 0
    for length, symbol in runs:
        for i in (pos, pos + length - 1):
            assert x.symbol_at(iterate(m, start, i)) == symbol
        pos += length


@given(st.sampled_from(["plain", "weave"]).flatmap(lambda variant: st.tuples(
    st.just(variant),
    st.sets(st.integers(1, 9)),
    st.lists(_memo_starts(variant), min_size=1, max_size=3),
    # (which start, count, shift power): reads of one start in any order, some
    # through a shifted member that reads its base at that start
    st.lists(st.tuples(st.integers(0, 2), _memo_counts(variant), st.integers(0, 3)),
             min_size=1, max_size=8))))
@settings(max_examples=60, deadline=None)
def test_kept_runs_equal_fresh_reads_in_any_order(case):
    variant, member_ranks, starts, reads = case
    m = PLUS_TWO
    x = _memo_member(variant, member_ranks)
    for which, count, power in reads:
        start = starts[which % len(starts)]
        runs = shifted(x, m, power).runs_along(m, Index((), start.coord - 2 * power), count) \
            if power else x.runs_along(m, start, count)
        assert runs == _memo_member(variant, member_ranks).runs_along(m, start, count)
        assert sum(length for length, _ in runs) == count
        assert all(a[1] != b[1] for a, b in zip(runs, runs[1:]))  # maximal runs
        _check_pointwise(x, m, start, runs)
        # the caller owns the returned list: changing it changes no later read
        runs.append((1, P))
        runs[:1] = [(7, Q)]
        assert x.runs_along(m, start, count) == \
            _memo_member(variant, member_ranks).runs_along(m, start, count)


def test_a_shorter_read_is_cut_from_the_kept_walk(walk_starts):
    # one join lookup per start, however many reads of it: the longest so
    # far serves every shorter one, a longer one reads again
    x = _blocks({2, 4}, count=6)
    m = successor()
    far = x.lengths.horizon(5) + 2
    assert x.runs_along(m, ix(0), far) == [(1, Q), (2, P), (7, Q), (31, P), (167, Q)]
    assert x.runs_along(m, ix(0), 4) == [(1, Q), (2, P), (1, Q)]
    assert x.runs_along(m, ix(0), 0) == []
    assert walk_starts == [ix(0)]
    x.runs_along(m, ix(0), far + 1)
    x.runs_along(m, ix(-3), 5)
    x.runs_along(m, ix(-3), 2)
    assert walk_starts == [ix(0), ix(0), ix(-3)]
    x.runs_along(predecessor(), ix(3), 2)  # not the layout's own map: read pointwise
    assert walk_starts == [ix(0), ix(0), ix(-3)]


def _warmed(x, m, start):
    x.runs_along(m, start, 10)  # a longer read kept, so a later one is cut from it
    return x


# every kind of configuration, each read from a start that reaches its own path
EMPTY_READS = {
    "constant": lambda: (Constant(INTEGERS, P), successor(), ix(0)),
    "finite-patch": lambda: (FinitePatch(Constant(INTEGERS, Q), {ix(1): P}),
                             successor(), ix(0)),
    "orbit-blocks": lambda: (_blocks({1, 2}), successor(), ix(0)),
    "orbit-blocks-weave": lambda: (_blocks({1}, "weave", weave=True), successor(), ix(0)),
    "orbit-blocks-off-orbit": lambda: (_on_orbit_of(UNION, ix(0, "L")), UNION, ix(3, "R")),
    "orbit-blocks-kept": lambda: (_warmed(_blocks({1}), successor(), ix(-4)),
                                  successor(), ix(-4)),
    "orbit-blocks-other-map": lambda: (_blocks({1}), predecessor(), ix(2)),
    "shifted": lambda: (shifted(_blocks({1}), successor(), 3), successor(), ix(0)),
    "embedded": lambda: (Embedded(successor(), ix(0), Constant(NATURALS, P), Q),
                         successor(), ix(0)),
    "length-lex-word": lambda: (full_shift_transitive_point(ALPHA), successor(), ix(0)),
}


@pytest.mark.parametrize("count", [-3, 0])
@pytest.mark.parametrize("kind", sorted(EMPTY_READS))
def test_a_count_below_one_reads_no_runs(kind, count):
    x, m, start = EMPTY_READS[kind]()
    assert x.runs_along(m, start, count) == []


# ---------------------------------------------------------------------------
# Off-domain coordinates: every reader refuses them, as the shifted read does.
# ---------------------------------------------------------------------------


def test_a_block_layout_refuses_an_off_domain_coordinate():
    x = _blocks({1})
    assert x.symbol_at(ix(-3)) == Q  # off the orbit, on the domain
    with pytest.raises(DomainMismatchError, match="L0 outside configuration domain"):
        x.symbol_at(ix(0, "L"))


def test_an_embedding_refuses_an_off_domain_coordinate():
    w = Embedded(successor(), ix(0), Constant(NATURALS, P), Q)
    assert w.symbol_at(ix(-3)) == Q  # off the orbit, on the domain: the fill
    with pytest.raises(DomainMismatchError, match="L0 outside configuration domain"):
        w.symbol_at(ix(0, "L"))


def test_a_constant_refuses_an_off_domain_coordinate():
    with pytest.raises(DomainMismatchError, match="L0 outside configuration domain"):
        Constant(INTEGERS, P).symbol_at(ix(0, "L"))


def test_a_constant_refuses_a_read_from_an_off_domain_start():
    assert Constant(INTEGERS, P).runs_along(successor(), ix(0), 3) == [(3, P)]
    with pytest.raises(DomainMismatchError, match="L0 outside configuration domain"):
        Constant(INTEGERS, P).runs_along(successor(), ix(0, "L"), 3)


# ---------------------------------------------------------------------------
# Embedded configurations.
# ---------------------------------------------------------------------------


def test_embedded_reads_inner_along_orbit():
    alternating = FinitePatch(
        Constant(NATURALS, Q), {Index((), n): P for n in (1, 3, 5, 7, 9)}
    )
    w = Embedded(successor(), ix(0), alternating, P)
    assert w.symbol_at(ix(3)) == P   # inner's 3rd symbol
    assert w.symbol_at(ix(4)) == Q   # inner's 4th symbol
    assert w.symbol_at(ix(-2)) == P  # off the forward orbit: fill symbol


def test_embedded_with_q_exactly_at_position_three():
    inner = FinitePatch(Constant(NATURALS, P), {Index((), 3): Q})
    w = Embedded(successor(), ix(0), inner, P)
    got = [w.symbol_at(ix(k)) for k in range(1, 7)]
    assert got == [P, P, Q, P, P, P]


# ---------------------------------------------------------------------------
# Shifted configurations.
# ---------------------------------------------------------------------------


def test_shift_fixes_constants():
    c = Constant(INTEGERS, P)
    assert shifted(c, successor(), 7).symbol_at(ix(123)) == P
    assert shifted(c, square_plus_one(), 7).symbol_at(ix(-9)) == P


def test_shift_by_first_block_length_reaches_second_block():
    x = _blocks({2})
    s1 = block_lengths(6, "plain").value(1)
    y = shifted(x, successor(), s1)
    assert y.symbol_at(ix(0)) == x.symbol_at(ix(s1))  # first symbol of block 2
    assert y.symbol_at(ix(0)) == P


@given(st.integers(min_value=-20, max_value=40))
def test_stacked_shifts_compose_additively(coord):
    x = _blocks({1, 3})
    m = successor()
    twice = shifted(shifted(x, m, 2), m, 3)
    once = shifted(x, m, 5)
    assert twice.symbol_at(ix(coord)) == once.symbol_at(ix(coord))


# ---------------------------------------------------------------------------
# Shifted block layouts are read at their orbit position; the oracle is the
# pointwise read of the base at the iterated coordinate.
# ---------------------------------------------------------------------------

COORDS = [ix(c) for c in range(-40, 41)]


def _layout(m, anchor, variant, count=12):
    source = full_shift_transitive_point(ALPHA) if variant == "weave" else None
    return OrbitBlocks(m, anchor, block_lengths(count, variant),
                       ExplicitBlockSet(frozenset({1, 3, 4, 8, 11})), ALPHA,
                       weave_source=source)


def _edge_powers(lengths, blocks=6):
    """Powers that put the coordinates' positions across every segment edge of
    the first blocks and of block 12, plus small ones that leave the
    coordinates behind the anchor reading q."""
    edges = {0}
    for r in [*range(1, blocks + 1), 12]:
        hi = lengths.horizon(r)
        edges |= {hi - lengths.value(r), hi}
        if lengths.variant == "weave":
            edges.add(hi + r)  # the splice after block r
    return sorted({e + d for e in edges for d in (-41, -1, 0, 1, 40) if e + d >= 0}
                  | set(range(6)))


def _assert_reads_match_the_oracle(base, m, powers, coords) -> int:
    """Compare every shifted read with the oracle; returns how many coordinates
    were read through the shift."""
    windows = [coords[i:i + w] for w in (3, 7) for i in range(0, len(coords) - w + 1, 5)]
    windows += [window[::-1] for window in windows]  # the lowest position last
    for power in powers:
        moved = Shifted(base, m, power)
        want = {i: base.symbol_at(iterate(m, i, power)) for i in coords}
        assert [moved.symbol_at(i) for i in coords] == [want[i] for i in coords], power
        for window in windows:
            assert moved.symbols_at(window) == [want[i] for i in window], (power, window)
    return len(powers) * (len(coords) + sum(map(len, windows)))


@pytest.mark.parametrize("variant", ["plain", "weave"])
@pytest.mark.parametrize("anchor", [0, 3, -2])
def test_a_shifted_layout_reads_the_iterated_coordinate(variant, anchor, monkeypatch):
    import gshift.configspace as configspace
    base = _layout(successor(), ix(anchor), variant)
    powers = _edge_powers(base.lengths)
    _assert_reads_match_the_oracle(base, successor(), powers, COORDS)
    # the positioned read never builds the shifted coordinate, and the weave
    # reads its source by chain offset: nothing is iterated
    steps = []
    monkeypatch.setattr(configspace, "iterate",
                        lambda m, index, power: steps.append(power) or iterate(m, index, power))
    moved = Shifted(_layout(successor(), ix(anchor), variant), successor(), powers[-1])
    assert [moved.symbol_at(i) for i in COORDS] == moved.symbols_at(COORDS)
    assert steps == []


def test_n_plus_two_reads_off_chain_coordinates_through_the_map():
    # the anchor's chain holds the even coordinates; the odd ones never meet it
    m = compose_maps(successor(), successor())
    for variant in ("plain", "weave"):
        base = _layout(m, ix(0), variant)
        _assert_reads_match_the_oracle(base, m, _edge_powers(base.lengths), COORDS)


UNION_POWERS = [0, 1, 2, 5, 9, 10, 41, 42]


@pytest.mark.parametrize("m, anchor, coords, powers", [
    # the other side of a union is off the anchor's chain
    (disjoint_union_maps(successor(), parity_up()), ix(0, "L"),
     [ix(c, "R") for c in range(-20, 21)], UNION_POWERS),
    (square(), ix(2), [ix(c) for c in range(-12, 13)], [0, 1, 2, 3]),
])
def test_maps_without_a_closed_form_position_iterate_first(m, anchor, coords, powers,
                                                           monkeypatch):
    import gshift.configspace as configspace
    base = OrbitBlocks(m, anchor, block_lengths(6, "plain"),
                       ExplicitBlockSet(frozenset({2, 3})), ALPHA)
    iterated = []
    monkeypatch.setattr(configspace, "iterate",
                        lambda *args: iterated.append(args) or iterate(*args))
    reads = _assert_reads_match_the_oracle(base, m, powers, coords)
    assert len(iterated) == reads


@pytest.mark.parametrize("variant", ["plain", "weave"])
def test_a_union_reads_the_anchors_side_by_chain_offset(variant, monkeypatch):
    import gshift.configspace as configspace
    m = disjoint_union_maps(successor(), parity_up())
    base = _layout(m, ix(0, "L"), variant)
    iterated = []
    monkeypatch.setattr(configspace, "iterate",
                        lambda *args: iterated.append(args) or iterate(*args))
    _assert_reads_match_the_oracle(base, m, UNION_POWERS, [ix(c, "L") for c in range(-20, 21)])
    assert iterated == []


@pytest.mark.parametrize("variant", ["plain", "weave"])
def test_a_window_list_reads_as_its_tuple(variant):
    base = _layout(successor(), ix(-2), variant)
    window = [ix(5), ix(-7), ix(0), ix(-2)]
    for power in _edge_powers(base.lengths):
        want = base.symbols_after(successor(), tuple(window), power)
        assert base.symbols_after(successor(), window, power) == want, power
        assert Shifted(base, successor(), power).symbols_at(window) == want, power


@pytest.mark.parametrize("m, anchor, index", [
    (successor(), ix(0), ix(3, "L")),
    (compose_maps(successor(), successor()), ix(0), ix(-7, "R")),
    (disjoint_union_maps(successor(), parity_up()), ix(0, "L"), ix(3)),
])
@pytest.mark.parametrize("power", [0, 5])
def test_an_off_domain_index_still_raises_through_a_shifted_layout(m, anchor, index, power):
    moved = Shifted(OrbitBlocks(m, anchor, block_lengths(6, "plain"),
                                ExplicitBlockSet(frozenset({2})), ALPHA), m, power)
    with pytest.raises(DomainMismatchError):
        moved.symbol_at(index)
    with pytest.raises(DomainMismatchError):
        moved.symbols_at([ix(0, *anchor.path), index])


# ---------------------------------------------------------------------------
# Windows and cylinder patterns.
# ---------------------------------------------------------------------------


def test_window_construction_validates():
    with pytest.raises(ValueError):
        make_window(())
    with pytest.raises(ValueError):
        make_window((ix(0), ix(0)))


def test_agreement_trivials():
    x = _blocks({2})
    w = window_from_ranks(INTEGERS, (1, 2, 3))
    assert agree_on_window(x, x, w)
    assert not agree_on_window(Constant(INTEGERS, P), Constant(INTEGERS, Q),
                               make_window((ix(0),)))


def test_disagreement_at_in_block_shifts():
    # members {2} vs {} differ across all of block 2 at the anchor
    x, y = _blocks({2}), _blocks(set() | {99})
    m = successor()
    w = make_window((ix(0),))
    for i in (1, 2):  # block-2 positions
        assert not agree_on_window(shifted(x, m, i), shifted(y, m, i), w)


def test_pattern_round_trips_through_json():
    pat = pattern_from_ranks(INTEGERS, (1, 3), (P, Q))
    blob = pattern_json(INTEGERS, pat)
    again = parse_pattern(INTEGERS, blob)
    assert again == pat
    assert dict(again.items()) == {ix(0): P, ix(-1): Q}


def test_in_cylinder_basics():
    all_p = Constant(INTEGERS, P)
    assert in_cylinder(all_p, pattern_from_ranks(INTEGERS, (1, 2), (P, P)))
    assert not in_cylinder(all_p, pattern_from_ranks(INTEGERS, (1, 2), (P, Q)))


def test_block_config_hits_its_own_first_block_pattern():
    x = _blocks({1, 2})
    pat = CylinderPattern((ix(0), ix(1), ix(2)),
                          (x.symbol_at(ix(0)), x.symbol_at(ix(1)), x.symbol_at(ix(2))))
    assert in_cylinder(x, pat)


# ---------------------------------------------------------------------------
# Dyadic metric: exact arithmetic, truncation, duality.
# ---------------------------------------------------------------------------


def test_truncated_distance_examples():
    x = _blocks({2})
    assert truncated_distance(x, x, 10) == 0
    d = truncated_distance(Constant(INTEGERS, P), Constant(INTEGERS, Q), 3)
    assert d == Fraction(7, 8)  # 1/2 + 1/4 + 1/8
    pair_diff_at_rank_2 = (
        FinitePatch(Constant(INTEGERS, P), {ix(1): Q}),  # rank 2 is coordinate 1
        Constant(INTEGERS, P),
    )
    assert truncated_distance(*pair_diff_at_rank_2, 4) == Fraction(1, 4)


def test_metric_less_than_decides_exactly():
    x = FinitePatch(Constant(INTEGERS, P), {ix(1): Q})  # distance exactly 1/4
    y = Constant(INTEGERS, P)
    assert metric_less_than(x, y, Fraction(1, 3))
    assert not metric_less_than(x, y, Fraction(1, 4))  # knife edge: not strictly below
    assert not metric_less_than(x, y, Fraction(1, 5))


def test_metric_raises_when_threshold_is_unreachable_limit():
    # constant p vs constant q has distance exactly 1 but every finite partial
    # sum stays below it; the comparison against t = 1 cannot terminate
    with pytest.raises(MetricResolutionError):
        metric_less_than(Constant(INTEGERS, P), Constant(INTEGERS, Q),
                         Fraction(1), depth_cap=64)


def test_the_metric_on_a_finite_domain_stops_at_its_last_rank():
    # past rank 3 the partial sum is the exact distance
    x = Constant(finite_range(3), P)
    assert metric_less_than(x, Constant(finite_range(3), P), Fraction(1, 16))
    y = FinitePatch(x, {enumerate_index(finite_range(3), 3): Q})  # distance 1/8
    assert not metric_less_than(x, y, Fraction(1, 16))
    assert metric_less_than(x, y, Fraction(1, 7))


def test_a_threshold_below_a_finite_domain_takes_the_whole_domain():
    domain = finite_range(3)
    assert threshold_to_window(domain, Fraction(1, 16)) == window_from_ranks(domain, (1, 2, 3))
    assert threshold_to_window(domain, Fraction(3, 10)) == window_from_ranks(domain, (1, 2))


def test_threshold_window_duality_examples():
    w = threshold_to_window(INTEGERS, Fraction(3, 10))
    assert tuple(rank_of(INTEGERS, i) for i in w) == (1, 2)  # 1/4 < 3/10 <= 1/2
    w1 = threshold_to_window(INTEGERS, Fraction(1))
    assert tuple(rank_of(INTEGERS, i) for i in w1) == (1,)
    d = make_window((enumerate_rank(1), enumerate_rank(3)))
    assert window_to_threshold(INTEGERS, d) == Fraction(1, 8)


def enumerate_rank(r):
    return enumerate_index(INTEGERS, r)


@given(st.fractions(min_value=Fraction(1, 4096), max_value=1))
@settings(max_examples=80)
def test_duality_brackets_the_threshold(t):
    w = threshold_to_window(INTEGERS, t)
    m = len(w)
    assert Fraction(1, 2 ** m) < t
    assert m == 1 or Fraction(1, 2 ** (m - 1)) >= t  # minimality


@given(st.sets(st.integers(min_value=1, max_value=24), min_size=1, max_size=5))
def test_window_threshold_guarantees_containment(ranks):
    w = window_from_ranks(INTEGERS, sorted(ranks))
    t = window_to_threshold(INTEGERS, w)
    assert t == Fraction(1, 2 ** max(ranks))
    # any pair strictly closer than t agrees on every rank in the window:
    # a disagreement at rank r <= max(ranks) would already contribute 2^-r >= t
    x = FinitePatch(Constant(INTEGERS, P), {w[0]: Q})
    assert not metric_less_than(x, Constant(INTEGERS, P), t)


# ---------------------------------------------------------------------------
# Refusals: each names its exception and its message.
# ---------------------------------------------------------------------------


REFUSALS = {
    "constant-off-domain": (lambda: Constant(NATURALS, P).symbol_at(ix(0)),
                            DomainMismatchError, "0 outside configuration domain"),
    "finite-patch-off-domain": (lambda: FinitePatch(Constant(INTEGERS, P), {ix(0, "L"): Q}),
                                DomainMismatchError, "L0 outside configuration domain"),
    "embedded-inner-off-naturals": (
        lambda: Embedded(successor(), ix(0), Constant(INTEGERS, P), Q),
        ValueError, "inner configuration must live on the naturals"),
    "shifted-negative-power": (lambda: Shifted(Constant(INTEGERS, P), successor(), -1),
                               ValueError, "shift power must be >= 0"),
    "pattern-lengths-differ": (lambda: CylinderPattern((ix(0), ix(1)), (P,)),
                               ValueError, "window and symbols must align"),
    "threshold-zero": (lambda: threshold_to_window(INTEGERS, Fraction(0)),
                       ValueError, "threshold must be > 0"),
    "threshold-negative": (lambda: threshold_to_window(INTEGERS, Fraction(-1, 2)),
                           ValueError, "threshold must be > 0"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_configspace_refusals_name_their_cause(name):
    build, error, message = REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
