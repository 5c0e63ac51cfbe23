"""Block-length recurrences, almost-disjoint families, and the three constructions."""

import hashlib
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gshift.indexspace import (
    INTEGERS,
    DomainMismatchError,
    Index,
    NATURALS,
    SelfMap,
    compose_maps,
    disjoint_union_maps,
    ix,
    rank_of,
    iterate,
    parity_down,
    parity_up,
    predecessor,
    square,
    square_plus_one,
    successor,
    table_map,
)
from gshift.configspace import (
    Alphabet,
    Constant,
    CylinderPattern,
    FinitePatch,
    OrbitBlocks,
    default_alphabet,
    in_cylinder,
    shifted,
)
from gshift.constructions import (
    AlmostDisjointFamily,
    BlockLengths,
    ExplicitBlockSet,
    LengthLexWord,
    PreconditionError,
    PrimePowerSet,
    ScrambledFamilySpec,
    almost_disjoint_family,
    block_lengths,
    dc_family,
    densify_family,
    full_shift_transitive_point,
    omega_embedding,
    pattern_enumeration,
    shift_inner,
    transitive_weave_family,
    verify_length_inequalities,
    weave_entry_exponent,
)
from gshift.orbits import classify_point, orbit_position

from oracles import bisected_location, expand, pattern_from_ranks, scanned_pattern

ALPHA = default_alphabet()
P, Q = ALPHA.p, ALPHA.q


# ---------------------------------------------------------------------------
# Block lengths.
# ---------------------------------------------------------------------------

PLAIN_PREFIX = (1, 2, 7, 31, 165, 1031, 7423, 60621)
PLAIN_HORIZONS = (1, 3, 10, 41, 206, 1237, 8660, 69281)
WEAVE_PREFIX = (1, 3, 15, 76, 421, 2656, 19159, 156514)
WEAVE_HORIZONS = (1, 5, 22, 101, 526, 3187, 22352, 178873)


def test_plain_lengths_frozen_prefix():
    bl = block_lengths(8, "plain")
    assert bl.values() == PLAIN_PREFIX
    assert tuple(bl.horizon(r) for r in range(1, 9)) == PLAIN_HORIZONS


def test_weave_lengths_frozen_prefix():
    bl = block_lengths(8, "weave")
    assert bl.values() == WEAVE_PREFIX
    assert tuple(bl.horizon(r) for r in range(1, 9)) == WEAVE_HORIZONS


def test_plain_small_case_inequality():
    bl = block_lengths(4, "plain")
    assert bl.values() == (1, 2, 7, 31)
    assert 31 * 4 > 3 * 41  # s_4/n_4 = 31/41 > 3/4
    assert 2 * 2 > 1 * 3    # s_2/n_2 = 2/3 > 1/2


def test_weave_small_case_inequality():
    bl = block_lengths(2, "weave")
    assert bl.value(2) == 3
    assert 3 * 2 > 1 * 5  # s_2/n_2 = 3/5 > 1/2


def test_length_inequalities_hold_and_are_checked_directly():
    for variant in ("plain", "weave"):
        verify_length_inequalities(block_lengths(32, variant), 32)


@given(st.integers(min_value=2, max_value=48),
       st.sampled_from(["plain", "weave"]))
@settings(max_examples=60, deadline=None)
def test_length_recurrence_oracle(n, variant):
    bl = block_lengths(n, variant)
    s = bl.values()
    partial = sum(s[: n - 1])
    if variant == "plain":
        assert s[n - 1] == (n - 1) * partial + 1
        denom = partial + s[n - 1]
    else:
        assert s[n - 1] == (n - 1) * (partial + n * (n - 1) // 2) + 1
        denom = partial + s[n - 1] + n * (n - 1) // 2
    assert n * s[n - 1] > (n - 1) * denom
    assert bl.horizon(n) == denom


@pytest.mark.parametrize("variant", ["plain", "weave"])
def test_locate_matches_a_plain_bisect_in_any_query_order(variant):
    # each segment's first and last position and the one just past it, twice
    # over, in a seeded shuffle; from count 1, most early queries extend the
    # ends, and some weave queries land in the splice after the last block built
    ref = block_lengths(40, variant)
    segments = []
    for r in range(1, 41):
        hi = ref.horizon(r)
        segments.append((hi - ref.value(r), hi))
        if variant == "weave":
            segments.append((hi, hi + r))
    positions = [p for lo, hi in segments for p in (lo, hi - 1, hi)] * 2
    random.Random(17).shuffle(positions)
    bl = BlockLengths(variant, 1)
    assert [bl.locate(p) for p in positions] == [bisected_location(variant, p) for p in positions]


@pytest.mark.parametrize("variant", ["plain", "weave"])
def test_locate_refuses_a_negative_position(variant):
    bl = BlockLengths(variant, 4)
    bl.locate(0)  # the memo covers block 1 from position 0 on, not before it
    with pytest.raises(ValueError, match="position must be >= 0"):
        bl.locate(-1)
    assert len(bl._ends) == 4


def test_lengths_keep_one_end_per_block_in_either_layout():
    # the splice after block r ends r symbols past it: only block ends are kept
    for variant in ("plain", "weave"):
        bl = BlockLengths(variant, 1)
        for r in (1, 7, 30):
            bl.horizon(r)
            assert len(bl._ends) == r
        bl.locate(bl.horizon(30) + 29)  # the splice after block 30 in the weave
        assert len(bl._ends) == (30 if variant == "weave" else 31)
    assert len(BlockLengths("plain", 2_000)._ends) == len(BlockLengths("weave", 2_000)._ends)


def test_block_lengths_reject_unknown_variant():
    with pytest.raises(ValueError):
        block_lengths(4, "fancy")


# ---------------------------------------------------------------------------
# Almost-disjoint family.
# ---------------------------------------------------------------------------


def test_raw_prime_power_sets_are_disjoint():
    fam = almost_disjoint_family(2)
    a, b = fam.raw
    assert [n for n in range(1, 100) if a.contains(n)][:3] == [3, 9, 27]
    assert [n for n in range(1, 200) if b.contains(n)][:3] == [5, 25, 125]
    assert not any(a.contains(n) and b.contains(n) for n in range(1, 10 ** 6, 2))


def test_membership_examples():
    fam = almost_disjoint_family(2)
    assert fam.raw[0].contains(27)
    h1, h2 = fam.members
    assert h1.contains(4) and h2.contains(4)  # evens lie in every augmented set


def test_augmented_sets_intersect_exactly_in_evens_early_on():
    fam = almost_disjoint_family(3)
    for i in range(3):
        for j in range(i + 1, 3):
            both = [n for n in range(1, 1000)
                    if fam.members[i].contains(n) and fam.members[j].contains(n)]
            assert both == [n for n in range(2, 1000, 2)]


def test_family_members_differ_in_infinitely_many_odd_blocks():
    fam = almost_disjoint_family(2)
    h1, h2 = fam.members
    sym_diff = [n for n in range(1, 200) if h1.contains(n) != h2.contains(n)]
    assert sym_diff[:4] == [3, 5, 9, 25]


# ---------------------------------------------------------------------------
# Scrambled family construction (plain blocks).
# ---------------------------------------------------------------------------


def test_dc_family_members_differ_inside_symmetric_difference_blocks():
    m = successor()
    lengths = block_lengths(8, "plain")
    fam = almost_disjoint_family(2)
    spec = ScrambledFamilySpec(m, (ix(0),), ALPHA, lengths, fam, "plain")
    x, y = dc_family(spec)
    for r in (3, 5):  # 3 only in H1, 5 only in H2
        pos = lengths.horizon(r - 1)
        assert x.symbol_at(ix(pos)) != y.symbol_at(ix(pos))
    for r in (2, 4):  # evens lie in both: whole blocks agree
        pos = lengths.horizon(r - 1)
        assert x.symbol_at(ix(pos)) == y.symbol_at(ix(pos))


def test_dc_family_on_square_orbit_anchor():
    m = square()
    spec = ScrambledFamilySpec(m, (ix(2),), ALPHA, block_lengths(6, "plain"),
                               almost_disjoint_family(2), "plain")
    x = dc_family(spec)[0]
    # orbit 2, 4, 16, 256...: block 1 = {2} -> q; blocks 2,3 member -> p
    assert expand(x.runs_along(m, ix(2), 6)) == [Q, P, P, P, P, P]
    assert x.symbol_at(ix(3)) == Q  # off the anchor orbit


@pytest.mark.parametrize("anchors", [(), (ix(0), ix(1))])
def test_family_spec_takes_a_single_anchor(anchors):
    with pytest.raises(ValueError):
        ScrambledFamilySpec(successor(), anchors, ALPHA, block_lengths(6, "plain"),
                            almost_disjoint_family(2), "plain")


def test_dc_family_rejects_quasi_periodic_anchor():
    spec = ScrambledFamilySpec(parity_up(), (ix(0),), ALPHA,
                               block_lengths(6, "plain"),
                               almost_disjoint_family(2), "plain")
    with pytest.raises(PreconditionError):
        dc_family(spec)


def test_dc_family_refuses_a_table_anchor_with_the_precondition_text():
    spec = ScrambledFamilySpec(table_map((1, 2, 0)), (ix(0),), ALPHA,
                               block_lengths(6, "plain"),
                               almost_disjoint_family(2), "plain")
    with pytest.raises(PreconditionError) as exc:
        dc_family(spec)
    assert str(exc.value) == ("anchor 0 must have a proven infinite orbit; "
                              "classification came back 'periodic'")


# ---------------------------------------------------------------------------
# Pattern enumeration.
# ---------------------------------------------------------------------------


def test_first_patterns_use_the_first_window():
    en = pattern_enumeration(ALPHA, INTEGERS)
    assert dict(en.pattern(1).items()) == {ix(0): P}
    assert dict(en.pattern(2).items()) == {ix(0): Q}


def test_twenty_six_patterns_within_rank_three():
    en = pattern_enumeration(ALPHA, INTEGERS)
    small = [n for n in range(1, 200)
             if max(rank_of(INTEGERS, i) for i in en.pattern(n).window) <= 3]
    assert small == list(range(1, 27))


@given(st.integers(min_value=1, max_value=3000))
def test_pattern_enumeration_round_trips(n):
    en = pattern_enumeration(ALPHA, INTEGERS)
    assert en.rank_of(en.pattern(n)) == n


@pytest.mark.parametrize("symbols, last", [(("p", "q"), 3 ** 8 - 1),
                                           (("p", "q", "r"), 4 ** 6 - 1)])
def test_pattern_decoding_matches_the_mask_scan(symbols, last):
    # every pattern of the groups m <= 8 (two symbols) or m <= 6 (three)
    en = pattern_enumeration(Alphabet(symbols, "p", "q"), INTEGERS)
    for n in range(1, last + 1):
        pat = en.pattern(n)
        assert pat == scanned_pattern(en, n)
        assert en.rank_of(pat) == n


@pytest.mark.parametrize("n", [3 ** 23, 3 ** 23 + 12345, 2 * 3 ** 23, 3 ** 24 - 1])
def test_pattern_round_trips_at_the_largest_decodable_rank(n):
    en = pattern_enumeration(ALPHA, INTEGERS)
    pat = en.pattern(n)
    assert max(rank_of(INTEGERS, i) for i in pat.window) == 24
    assert en.rank_of(pat) == n


def test_pattern_decoding_stops_past_rank_24():
    # 3^24 would be the first pattern of group 25: the one coordinate of rank 25
    # (the round trip at rank 24, from 3^23, is checked above)
    en = pattern_enumeration(ALPHA, INTEGERS)
    with pytest.raises(ValueError, match="too large"):
        en.pattern(3 ** 24)
    with pytest.raises(ValueError, match="too large"):
        en.rank_of(pattern_from_ranks(INTEGERS, (25,), (P,)))


def test_pattern_rank_of_window_pair():
    en = pattern_enumeration(ALPHA, INTEGERS)
    pat = pattern_from_ranks(INTEGERS, (1, 2), (P, P))
    assert en.rank_of(pat) >= 1
    assert en.pattern(en.rank_of(pat)) == pat


# ---------------------------------------------------------------------------
# Densification.
# ---------------------------------------------------------------------------


def _dense_family(count):
    m = square_plus_one()
    spec = ScrambledFamilySpec(m, (ix(0),), ALPHA, block_lengths(8, "plain"),
                               almost_disjoint_family(count), "plain")
    en = pattern_enumeration(ALPHA, m.domain)
    return m, en, densify_family(m, dc_family(spec), en, count)


def test_densified_members_hit_their_patterns():
    m, en, dense = _dense_family(8)
    for n in (1, 2, 5, 8):
        assert in_cylinder(dense[n - 1], en.pattern(n))


def test_densified_patch_support_is_non_quasi_periodic():
    m, en, dense = _dense_family(4)
    for member in dense:
        for coord in member.support():
            assert classify_point(m, coord).kind == "non_quasi_periodic"


@pytest.mark.parametrize("variant, first_block_start", [("plain", 3), ("weave", 7)])
def test_distinctness_witness_skips_patches_and_separates_the_pair(variant, first_block_start):
    from gshift.constructions import _distinctness_witness

    m = successor()
    spec = ScrambledFamilySpec(m, (ix(0),), ALPHA, block_lengths(8, variant),
                               almost_disjoint_family(2), variant)
    if variant == "plain":
        x, y = dc_family(spec)
    else:
        x, y = transitive_weave_family(spec, full_shift_transitive_point(ALPHA))
    # block 3 (in the first member's set only) is the first block the two
    # members differ on; the patches cover its first three positions
    c = first_block_start
    a = FinitePatch(x, {ix(c): Q, ix(c + 1): P, ix(-4): P})
    b = FinitePatch(y, {ix(c + 2): Q})
    kind, anchor, pos = _distinctness_witness(a, b)
    assert (kind, anchor) == ("orbit_position", ix(0))
    patched = {orbit_position(m, ix(0), coord) for patch in (a.patch, b.patch)
               for coord in patch}
    assert pos not in patched
    coord = iterate(m, ix(0), pos)
    assert coord not in a.patch and coord not in b.patch
    assert a.symbol_at(coord) != b.symbol_at(coord)
    assert pos == c + 3


def test_two_patches_of_one_base_have_no_distinctness_witness():
    from gshift.constructions import _distinctness_witness

    spec = ScrambledFamilySpec(successor(), (ix(0),), ALPHA, block_lengths(8, "plain"),
                               almost_disjoint_family(2), "plain")
    x, _ = dc_family(spec)
    # the patches conflict at 5, but only a difference between block sets is a witness
    assert _distinctness_witness(FinitePatch(x, {ix(5): P}), FinitePatch(x, {ix(5): Q})) is None


def test_densify_rejects_maps_with_periodic_points():
    m = square()
    spec = ScrambledFamilySpec(m, (ix(2),), ALPHA, block_lengths(6, "plain"),
                               almost_disjoint_family(2), "plain")
    members = dc_family(spec)
    with pytest.raises(PreconditionError):
        densify_family(m, members, pattern_enumeration(ALPHA, m.domain), 2)


# ---------------------------------------------------------------------------
# Length-lex transitive word.
# ---------------------------------------------------------------------------


def test_word_prefix_is_length_lex_concatenation():
    w = full_shift_transitive_point(ALPHA)
    got = [w.symbol_at(ix(k)) for k in range(11)]
    assert got == [P, Q, P, P, P, Q, Q, P, Q, Q, P]
    assert w.symbol_at(ix(-4)) == P


def test_word_start_lands_on_the_word():
    w = full_shift_transitive_point(ALPHA)
    assert w.word_start((P,)) == 0
    assert w.word_start((Q,)) == 1
    assert w.word_start((Q, Q)) == 8
    for word in ((Q, Q), (P, Q, P), (Q, P, Q, Q)):
        start = w.word_start(word)
        assert tuple(w.symbol_at(ix(start + k)) for k in range(len(word))) == word


@pytest.mark.parametrize("symbols, longest", [(("p", "q"), 8), (("p", "q", "r"), 5)])
def test_word_start_lands_on_every_word(symbols, longest):
    # the catalog, spelled out: every word of each length in lex order
    w = full_shift_transitive_point(Alphabet(symbols, "p", "q"))
    spelled = [word for length in range(1, longest + 1)
               for word in itertools.product(symbols, repeat=length)]
    catalog = [s for word in spelled for s in word]
    assert [w.symbol_at(ix(c)) for c in range(len(catalog))] == catalog
    start = 0
    for word in spelled:
        assert w.word_start(word) == start, word
        assert tuple(w.symbol_at(ix(start + k)) for k in range(len(word))) == word
        start += len(word)


def test_a_symbol_outside_the_alphabet_has_no_word_or_pattern_number():
    w = full_shift_transitive_point(ALPHA)
    with pytest.raises(ValueError, match="'r' is not in the alphabet"):
        w.word_start((P, "r"))
    en = pattern_enumeration(ALPHA, INTEGERS)
    with pytest.raises(ValueError, match="'r' is not in the alphabet"):
        en.rank_of(pattern_from_ranks(INTEGERS, (1, 2), (P, "r")))


def test_single_q_pattern_entered_at_shift_one():
    w = full_shift_transitive_point(ALPHA)
    pat = pattern_from_ranks(INTEGERS, (1,), (Q,))
    assert in_cylinder(shifted(w, successor(), 1), pat)


# ---------------------------------------------------------------------------
# Weave construction and its entry bound.
# ---------------------------------------------------------------------------


def _weave_setup():
    m = successor()
    spec = ScrambledFamilySpec(m, (ix(0),), ALPHA, block_lengths(12, "weave"),
                               almost_disjoint_family(2), "weave")
    source = full_shift_transitive_point(ALPHA)
    members = transitive_weave_family(spec, source)
    return m, spec, source, members


def test_weave_family_requires_injective_aperiodic_map():
    spec = ScrambledFamilySpec(square_plus_one(), (ix(0),), ALPHA,
                               block_lengths(8, "weave"),
                               almost_disjoint_family(2), "weave")
    with pytest.raises(PreconditionError):
        transitive_weave_family(spec, full_shift_transitive_point(ALPHA))


def test_weave_hits_all_q_cylinder_within_bound():
    m, spec, source, members = _weave_setup()
    pat = pattern_from_ranks(INTEGERS, (1,), (Q,))
    bound = weave_entry_exponent(spec, source, pat)
    assert in_cylinder(shifted(members[0], m, bound), pat)


def test_weave_enters_every_small_cylinder_at_computed_exponent():
    m, spec, source, members = _weave_setup()
    en = pattern_enumeration(ALPHA, INTEGERS)
    for n in range(1, 27):
        pat = en.pattern(n)
        expo = weave_entry_exponent(spec, source, pat)
        assert in_cylinder(shifted(members[0], m, expo), pat), n


@pytest.mark.parametrize("anchor", [0, 3, -2])
def test_weave_members_enter_the_first_80_cylinders_from_any_anchor(anchor):
    # the splices read the source from the anchor on, not from coordinate 0
    m = successor()
    spec = ScrambledFamilySpec(m, (ix(anchor),), ALPHA, block_lengths(12, "weave"),
                               almost_disjoint_family(2), "weave")
    source = full_shift_transitive_point(ALPHA)
    members = transitive_weave_family(spec, source)
    en = pattern_enumeration(ALPHA, INTEGERS)
    for n in range(1, 81):
        pat = en.pattern(n)
        expo = weave_entry_exponent(spec, source, pat)
        assert all(in_cylinder(shifted(x, m, expo), pat) for x in members), n


def test_weave_members_share_their_source_reads(monkeypatch):
    calls = []
    read = LengthLexWord.symbol_at
    monkeypatch.setattr(LengthLexWord, "symbol_at",
                        lambda self, index: calls.append(index) or read(self, index))
    m = successor()
    spec = ScrambledFamilySpec(m, (ix(0),), ALPHA, block_lengths(16, "weave"),
                               almost_disjoint_family(2), "weave")
    source = full_shift_transitive_point(ALPHA)
    members = transitive_weave_family(spec, source)
    en = pattern_enumeration(ALPHA, INTEGERS)
    for n in range(1, 27):
        pat = en.pattern(n)
        expo = weave_entry_exponent(spec, source, pat)
        assert all(in_cylinder(shifted(x, m, expo), pat) for x in members), n
    assert len(calls) == 26


def test_an_entry_check_locates_its_window_once_for_both_members(monkeypatch):
    # every coordinate of one pattern lands in one splice of the shared lengths
    import gshift.constructions as constructions
    searches = []
    search = constructions.bisect_right
    monkeypatch.setattr(constructions, "bisect_right",
                        lambda *args: searches.append(None) or search(*args))
    m = successor()
    spec = ScrambledFamilySpec(m, (ix(0),), ALPHA, block_lengths(16, "weave"),
                               almost_disjoint_family(2), "weave")
    source = full_shift_transitive_point(ALPHA)
    members = transitive_weave_family(spec, source)
    en = pattern_enumeration(ALPHA, INTEGERS)
    for n in range(1, 81):
        pat = en.pattern(n)
        expo = weave_entry_exponent(spec, source, pat)
        before = len(searches)
        assert all(in_cylinder(shifted(x, m, expo), pat) for x in members), n
        assert len(searches) - before <= 1, n


def test_an_entry_check_resolves_each_window_once(monkeypatch):
    # ranks <= 7 give 2,186 patterns over 127 windows: a window costs one
    # chain-coordinate read per index and one for the anchor, and each
    # exponent and member reads the anchor's chain offset once more
    from gshift.indexspace import RULES
    from gshift.orbits import window_offsets
    m = SelfMap(INTEGERS, "successor")  # not the shared map, so its record is read after the patch
    reads = []
    rule = successor().record
    monkeypatch.setitem(RULES, "successor", rule._replace(
        chain=lambda *args: reads.append(None) or rule.chain(*args)))
    window_offsets.cache_clear()
    spec = ScrambledFamilySpec(m, (ix(0),), ALPHA, block_lengths(16, "weave"),
                               almost_disjoint_family(2), "weave")
    source = full_shift_transitive_point(ALPHA)
    members = transitive_weave_family(spec, source)
    en = pattern_enumeration(ALPHA, INTEGERS)
    windows = set()
    for n in range(1, 3 ** 7):
        pat = en.pattern(n)
        windows.add(pat.window)
        expo = weave_entry_exponent(spec, source, pat)
        assert all(in_cylinder(shifted(x, m, expo), pat) for x in members), n
    assert len(windows) == 127
    assert len(reads) == sum(len(w) + 1 for w in windows) + 3 ** 7 - 1 + len(members)


@pytest.mark.parametrize("window", [
    (ix(0), Index(("L",), -2)),  # off the domain: refused before any read
    (ix(0), Index(("L",), 2)),
    (ix(-65),),  # past radius 64
    (ix(65),),
])
def test_a_window_out_of_reach_has_no_entry_exponent(window):
    m, spec, source, members = _weave_setup()
    pat = CylinderPattern(window, (P,) * len(window))
    with pytest.raises(ValueError, match="not within reach of the anchor"):
        weave_entry_exponent(spec, source, pat)


@pytest.mark.parametrize("coord", [5, -5])
def test_an_entry_exponent_past_the_block_ceiling_is_refused(coord):
    # a window at offset 5 needs 30,000 to 41,000 blocks; the lengths stop at
    # 10,000, whose exact block ends take about 71 MB
    # (refused before a block is built: the shared block ends do not grow)
    m, spec, source, members = _weave_setup()
    ends = list(spec.lengths._ends)
    start = time.perf_counter()
    with pytest.raises(ValueError,
                       match="not within reach of the anchor: .* past the 10000-block ceiling"):
        weave_entry_exponent(spec, source, CylinderPattern((ix(coord),), (P,)))
    assert time.perf_counter() - start < 1
    assert spec.lengths._ends == ends


# sha256 of the hex exponents of patterns 1..80, one per line, on block_lengths(12, "weave")
EXPONENT_DIGESTS = {
    0: "5f5ecfc6d834f6c6e667942c671eee9611c59626729e350c01d7967e1824e672",
    3: "30f7052cd28073234b3fca0f879c5dfc76863c45c4d679798ba2dc917bf587cd",
    -2: "d647412061b9dfb87c63e68830837984907b12a20d5281aadfa07793bc12ed2f",
}


@pytest.mark.parametrize("anchor", sorted(EXPONENT_DIGESTS))
def test_weave_entry_exponents_are_pinned(anchor):
    spec = ScrambledFamilySpec(successor(), (ix(anchor),), ALPHA, block_lengths(12, "weave"),
                               almost_disjoint_family(2), "weave")
    source = full_shift_transitive_point(ALPHA)
    en = pattern_enumeration(ALPHA, INTEGERS)
    exponents = [weave_entry_exponent(spec, source, en.pattern(n)) for n in range(1, 81)]
    text = "\n".join(format(e, "x") for e in exponents)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPONENT_DIGESTS[anchor]


def test_a_hand_built_successor_gets_the_shared_maps_exponents():
    source = full_shift_transitive_point(ALPHA)
    pat = pattern_enumeration(ALPHA, INTEGERS).pattern(40)

    def spec_for(m):
        return ScrambledFamilySpec(m, (ix(3),), ALPHA, block_lengths(12, "weave"),
                                   almost_disjoint_family(2), "weave")

    hand_built = SelfMap(INTEGERS, "successor")
    assert hand_built is not successor() and hand_built == successor()
    assert (weave_entry_exponent(spec_for(hand_built), source, pat)
            == weave_entry_exponent(spec_for(successor()), source, pat))
    # n -> n - 1 has one chain: its exponent is confirmed by the members
    spec = spec_for(predecessor())
    expo = weave_entry_exponent(spec, source, pat)
    assert all(in_cylinder(shifted(x, spec.map, expo), pat)
               for x in transitive_weave_family(spec, source))
    # n -> n + 2 keeps parity: pattern 40's window holds coordinates of both
    # parities, so some lie off the chain of the odd anchor
    assert {i.coord % 2 for i in pat.window} == {0, 1}
    with pytest.raises(ValueError, match="not within reach"):
        weave_entry_exponent(spec_for(compose_maps(successor(), successor())), source, pat)


# n -> n - 1, and n -> n + (3, -1)[n mod 2] (successor after parity_down after
# parity_up): translations with one chain each, read by chain offset
ONE_CHAIN_MAPS = {
    "predecessor": predecessor(),
    "s.d.u": compose_maps(successor(), compose_maps(parity_down(), parity_up())),
}


@pytest.mark.parametrize("anchor", [0, 3, -2])
@pytest.mark.parametrize("name", sorted(ONE_CHAIN_MAPS))
def test_a_one_chain_weave_enters_the_first_80_cylinders(name, anchor):
    m = ONE_CHAIN_MAPS[name]
    spec = ScrambledFamilySpec(m, (ix(anchor),), ALPHA, block_lengths(12, "weave"),
                               almost_disjoint_family(2), "weave")
    source = full_shift_transitive_point(ALPHA)
    members = transitive_weave_family(spec, source)
    en = pattern_enumeration(ALPHA, INTEGERS)
    for n in range(1, 81):
        pat = en.pattern(n)
        expo = weave_entry_exponent(spec, source, pat)
        assert all(in_cylinder(shifted(x, m, expo), pat) for x in members), (n, expo)


def test_the_splices_along_predecessor_replay_the_source():
    # position j of the anchor 0's orbit is coordinate -j; the splice after
    # block 6 reads the source at chain offsets 0..5, not at coordinates 0..-5
    m = predecessor()
    spec = ScrambledFamilySpec(m, (ix(0),), ALPHA, block_lengths(8, "weave"),
                               almost_disjoint_family(2), "weave")
    source = full_shift_transitive_point(ALPHA)
    start = spec.lengths.horizon(6)
    for x in transitive_weave_family(spec, source):
        splice = [x.symbol_at(ix(-(start + j))) for j in range(6)]
        assert splice == [source.symbol_at(ix(j)) for j in range(6)] == list("pqpppq")


def test_a_weave_needs_chain_coordinates():
    # n -> n^2 + 1 has none: its orbits are infinite, but no weave is laid out
    m = square_plus_one()
    lengths = block_lengths(4, "weave")
    with pytest.raises(PreconditionError, match="no chain coordinates"):
        OrbitBlocks(m, ix(0), lengths, ExplicitBlockSet(frozenset({1})), ALPHA,
                    weave_source=full_shift_transitive_point(ALPHA))


@pytest.mark.parametrize("m, anchor", [
    (successor(), ix(0)),
    (disjoint_union_maps(successor(), parity_up()), ix(0, "L")),
])
def test_a_weave_source_off_the_integers_is_refused(m, anchor):
    # splice symbol j is read at the integer coordinate origin + j, which a
    # source on a union domain does not have: refused before any read
    source = Constant(disjoint_union_maps(successor(), parity_up()).domain, P)
    with pytest.raises(PreconditionError, match="disjoint_union domain"):
        OrbitBlocks(m, anchor, block_lengths(4, "weave"), ExplicitBlockSet(frozenset({1})),
                    ALPHA, weave_source=source)


# ---------------------------------------------------------------------------
# Orbit embedding of the full one-sided shift.
# ---------------------------------------------------------------------------


def test_embedding_of_constant_inner_is_constant_on_samples():
    w = omega_embedding(successor(), ix(0), Constant(NATURALS, P), P)
    for c in (-3, 0, 1, 5, 40):
        assert w.symbol_at(ix(c)) == P


def test_embedding_places_inner_symbols_along_the_orbit():
    inner = FinitePatch(Constant(NATURALS, P), {Index((), 3): Q})
    w = omega_embedding(successor(), ix(0), inner, P)
    assert w.symbol_at(ix(3)) == Q
    assert [w.symbol_at(ix(c)) for c in (1, 2, 4)] == [P, P, P]


def test_embedding_requires_infinite_orbit_anchor():
    with pytest.raises(PreconditionError):
        omega_embedding(parity_up(), ix(0), Constant(NATURALS, P), P)


def test_shift_inner_drops_positions_below_one():
    inner = FinitePatch(Constant(NATURALS, Q), {Index((), 1): P, Index((), 5): P})
    moved = shift_inner(inner, 2)
    assert moved.symbol_at(Index((), 3)) == P   # was position 5
    assert moved.symbol_at(Index((), 1)) == Q   # old position 1 fell off


# ---------------------------------------------------------------------------
# Refusals: each names its exception and its message.
# ---------------------------------------------------------------------------


def _refusal_spec(variant):
    return ScrambledFamilySpec(successor(), (ix(0),), ALPHA, block_lengths(4, variant),
                               almost_disjoint_family(2), variant)


REFUSALS = {
    "block-lengths-count-0": (lambda: BlockLengths("plain", 0), ValueError,
                              "count must be >= 1"),
    "block-value-0": (lambda: block_lengths(3).value(0), ValueError,
                      "block index must be >= 1"),
    "block-horizon-negative": (lambda: block_lengths(3).horizon(-1), ValueError,
                               "block index must be >= 0"),
    "block-ceiling": (lambda: block_lengths(3).value(10_001), ValueError,
                      "block 10001 lies past the 10000-block ceiling"),
    "pattern-0": (lambda: pattern_enumeration(ALPHA, INTEGERS).pattern(0), ValueError,
                  "pattern index must be >= 1"),
    "dc-family-on-weave": (lambda: dc_family(_refusal_spec("weave")), ValueError,
                           "dc_family builds the plain variant"),
    "weave-family-on-plain": (
        lambda: transitive_weave_family(_refusal_spec("plain"), full_shift_transitive_point(ALPHA)),
        ValueError, "transitive_weave_family builds the weave variant"),
    "densify-past-the-family": (
        lambda: densify_family(successor(), dc_family(_refusal_spec("plain")),
                               pattern_enumeration(ALPHA, INTEGERS), 3),
        PreconditionError, "family exhausted before reaching the requested count"),
    "length-lex-off-domain": (lambda: full_shift_transitive_point(ALPHA).symbol_at(ix(5, "L")),
                              DomainMismatchError, "L5 outside configuration domain"),
    "entry-needs-length-lex": (
        lambda: weave_entry_exponent(_refusal_spec("weave"), Constant(INTEGERS, P),
                                     CylinderPattern((ix(0),), (P,))),
        ValueError, "entry bound needs the length-lex source"),
    "shift-inner-off-naturals": (lambda: shift_inner(Constant(INTEGERS, P), 1), ValueError,
                                 "shift_inner expects a naturals-domain configuration"),
    "shift-inner-unsupported": (
        lambda: shift_inner(FinitePatch(FinitePatch(Constant(NATURALS, P), {}), {}), 1),
        ValueError, "shift_inner supports constants and finite patches over constants"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_constructions_refusals_name_their_cause(name):
    build, error, message = REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
