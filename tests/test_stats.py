"""Agreement statistics checked against a from-scratch list simulation and
the per-position oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gshift.indexspace import INTEGERS, disjoint_union_maps, ix, parity_up, successor
from gshift.configspace import (
    Constant,
    FinitePatch,
    OrbitBlocks,
    default_alphabet,
    make_window,
    shifted,
    threshold_to_window,
    window_from_ranks,
    window_to_threshold,
)
from gshift.constructions import (
    AlmostDisjointFamily,
    ExplicitBlockSet,
    ScrambledFamilySpec,
    almost_disjoint_family,
    block_lengths,
    dc_family,
    densify_family,
    full_shift_transitive_point,
    pattern_enumeration,
    transitive_weave_family,
)
from gshift.stats import (
    Schedule,
    block_boundary_schedule,
    dc_pair_report,
    density_profile,
    orbit_window,
    proof_bound_check_dc,
    xi_count,
    zeta_count,
)
from oracles import agreement_flags, per_block_bound

ALPHA = default_alphabet()
P, Q = ALPHA.p, ALPHA.q
LENGTHS = block_lengths(8, "plain")
M = successor()


def _blocks(member_ranks):
    return OrbitBlocks(M, ix(0), LENGTHS, ExplicitBlockSet(frozenset(member_ranks)),
                       ALPHA)


def _naive_stream(member_ranks, n):
    """Expand the plain block layout into a symbol list, independently of OrbitBlocks."""
    out = []
    r = 1
    while len(out) < n:
        out.extend([P if r in member_ranks else Q] * LENGTHS.value(r))
        r += 1
    return out[:n]


def _naive_zeta(xs, ys, offsets, n):
    return sum(
        1 for i in range(n) if all(xs[i + d] == ys[i + d] for d in offsets)
    )


# ---------------------------------------------------------------------------
# Window-agreement counts.
# ---------------------------------------------------------------------------


def test_zeta_trivials():
    x = _blocks({2, 4})
    w = make_window((ix(0),))
    assert zeta_count(M, x, x, w, 25) == 25
    assert zeta_count(M, Constant(INTEGERS, P), Constant(INTEGERS, Q), w, 25) == 0
    assert zeta_count(M, x, _blocks({3}), w, 0) == 0


@given(st.sets(st.integers(min_value=1, max_value=8)),
       st.sets(st.integers(min_value=1, max_value=8)),
       st.integers(min_value=1, max_value=300))
@settings(max_examples=60, deadline=None)
def test_zeta_matches_list_simulation(a, b, n):
    x, y = _blocks(a), _blocks(b)
    offsets = (0, 1)
    w = make_window((ix(0), ix(1)))
    xs, ys = _naive_stream(a, n + 2), _naive_stream(b, n + 2)
    assert zeta_count(M, x, y, w, n) == _naive_zeta(xs, ys, offsets, n)


def test_zeta_on_scrambled_pair_matches_simulation_at_block_horizons():
    fam = almost_disjoint_family(2)
    spec = ScrambledFamilySpec(M, (ix(0),), ALPHA, LENGTHS, fam, "plain")
    x, y = dc_family(spec)
    a = {r for r in range(1, 40) if fam.members[0].contains(r)}
    b = {r for r in range(1, 40) if fam.members[1].contains(r)}
    for r in (3, 4, 5):
        n_r = LENGTHS.horizon(r)
        xs, ys = _naive_stream(a, n_r), _naive_stream(b, n_r)
        got = zeta_count(M, x, y, make_window((ix(0),)), n_r)
        assert got == _naive_zeta(xs, ys, (0,), n_r)


def test_zeta_rejects_bad_arguments():
    x = _blocks({1})
    with pytest.raises(ValueError):
        zeta_count(M, x, x, (), 5)
    with pytest.raises(ValueError):
        zeta_count(M, x, x, make_window((ix(0),)), -1)


# ---------------------------------------------------------------------------
# Run-length counts against the per-position oracle.
# ---------------------------------------------------------------------------


def _horizons_around_blocks(lengths, r, extra):
    """1, every block end up to r and its neighbours (inside blocks and, in the
    weave variant, inside the splices that follow), plus the drawn extras."""
    near = {lengths.horizon(k) + d for k in range(1, r + 1) for d in (-1, 0, 1, 2, k - 1)}
    last = lengths.horizon(r) + r
    return sorted(h for h in near | set(extra) | {1} if 1 <= h <= last)


def _check_against_oracle(m, x, y, window, horizons):
    flags = agreement_flags(m, x, y, window, horizons[-1])
    profile = density_profile(m, x, y, window, Schedule(tuple(horizons)))
    assert [row.count for row in profile.rows] == [sum(flags[:h]) for h in horizons]
    assert zeta_count(m, x, y, window, horizons[-1]) == sum(flags)


@pytest.mark.parametrize("variant", ["plain", "weave"])
@pytest.mark.parametrize("r", range(1, 10))
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_run_length_counts_match_the_per_position_oracle(r, variant, data):
    # window coordinates 0..3 lie on the anchor's orbit; -1..-3 join it later
    lengths = block_lengths(r, variant)
    source = full_shift_transitive_point(ALPHA) if variant == "weave" else None
    cache: dict = {}
    x, y = (OrbitBlocks(M, ix(0), lengths,
                        ExplicitBlockSet(frozenset(data.draw(st.sets(st.integers(1, r + 1))))),
                        ALPHA, weave_source=source, source_cache=cache)
            for _ in range(2))
    coords = data.draw(st.sets(st.integers(-3, 3), min_size=1, max_size=3))
    extra = data.draw(st.lists(st.integers(1, lengths.horizon(r) + r), max_size=3))
    _check_against_oracle(M, x, y, make_window([ix(c) for c in sorted(coords)]),
                          _horizons_around_blocks(lengths, r, extra))


UNION = disjoint_union_maps(successor(), parity_up())


@pytest.mark.parametrize("variant", ["plain", "weave"])
@given(st.sets(st.integers(1, 6)), st.sets(st.integers(1, 6)),
       st.sets(st.sampled_from([ix(0, "L"), ix(2, "L"), ix(-2, "L"), ix(0, "R"), ix(5, "R")]),
               min_size=1, max_size=3))
@settings(max_examples=10, deadline=None)
def test_run_length_counts_off_the_anchor_orbit(variant, a, b, coords):
    # the right side of successor + parity_up never meets the anchor's orbit,
    # so those coordinates are one q run; L-2 reads q for the two steps to the anchor
    lengths = block_lengths(6, variant)
    # splices read the source at the anchor's chain offsets 0, 1, ...: p at 1
    # and 3, q elsewhere
    source = FinitePatch(Constant(INTEGERS, Q), {ix(1): P, ix(3): P})
    source = source if variant == "weave" else None
    x, y = (OrbitBlocks(UNION, ix(0, "L"), lengths, ExplicitBlockSet(frozenset(s)), ALPHA,
                        weave_source=source)
            for s in (a, b))
    _check_against_oracle(UNION, x, y, make_window(sorted(coords, key=repr)),
                          _horizons_around_blocks(lengths, 6, ()))


def test_run_length_counts_on_shifted_and_densified_members():
    spec = ScrambledFamilySpec(M, (ix(0),), ALPHA, block_lengths(6, "plain"),
                               almost_disjoint_family(4), "plain")
    members = dc_family(spec)
    dense = densify_family(M, members, pattern_enumeration(ALPHA, INTEGERS), 4)
    pool = dense + [shifted(members[0], M, 3), shifted(dense[1], M, 2), members[2]]
    window = make_window((ix(-1), ix(0), ix(2)))
    horizons = _horizons_around_blocks(spec.lengths, 6, (7, 333))
    for k, x in enumerate(pool):
        for y in pool[k + 1:]:
            _check_against_oracle(M, x, y, window, horizons)


# ---------------------------------------------------------------------------
# Metric counts and the window/metric bracket.
# ---------------------------------------------------------------------------


def test_xi_trivials():
    x = _blocks({2})
    assert xi_count(M, x, x, Fraction(1, 2), 10) == 10
    assert xi_count(M, Constant(INTEGERS, P), Constant(INTEGERS, Q),
                    Fraction(1, 4), 10) == 0


def test_xi_ignores_disagreement_beyond_the_threshold_window():
    x = _blocks({2})
    y = FinitePatch(x, {ix(-40): P if x.symbol_at(ix(-40)) == Q else Q})
    # the patched coordinate keeps rank > 26 along the first ten shifts,
    # contributing less than 2^-26 to every distance
    assert xi_count(M, x, y, Fraction(1, 2), 10) == 10


@given(st.sets(st.integers(min_value=1, max_value=6)),
       st.sets(st.integers(min_value=1, max_value=6)),
       st.integers(min_value=1, max_value=12),
       st.fractions(min_value=Fraction(1, 64), max_value=1))
@settings(max_examples=40, deadline=None)
def test_metric_window_bracket(a, b, n, t):
    x, y = _blocks(a), _blocks(b)
    d = threshold_to_window(INTEGERS, t)
    assert zeta_count(M, x, y, d, n) <= xi_count(M, x, y, t, n)
    t_prime = window_to_threshold(INTEGERS, d)
    assert xi_count(M, x, y, t_prime, n) <= zeta_count(M, x, y, d, n)


# ---------------------------------------------------------------------------
# Density profiles and schedules.
# ---------------------------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(())
    with pytest.raises(ValueError):
        Schedule((5, 5))
    with pytest.raises(ValueError):
        Schedule((0, 3))


def test_block_boundary_schedule_is_frozen():
    sched = block_boundary_schedule(LENGTHS, 8)
    assert sched.horizons == (1, 3, 10, 41, 206, 1237, 8660, 69281)


def test_density_profile_counts_are_prefix_sums():
    a, b = {1, 2, 5}, {2, 3, 5}
    x, y = _blocks(a), _blocks(b)
    sched = Schedule((1, 3, 10, 41, 206))
    prof = density_profile(M, x, y, make_window((ix(0),)), sched)
    xs, ys = _naive_stream(a, 206), _naive_stream(b, 206)
    for row in prof.rows:
        expected = _naive_zeta(xs, ys, (0,), row.horizon)
        assert row.count == expected
        assert row.fraction == Fraction(expected, row.horizon)
    fractions = [r.fraction for r in prof.rows]
    assert prof.rows[-1].running_min == min(fractions)
    assert prof.rows[-1].running_max == max(fractions)


def test_identical_pair_never_flags_scrambling():
    x = _blocks({2})
    sched = Schedule((1, 3, 10))
    v = dc_pair_report(M, x, x, [make_window((ix(0),))], sched,
                       Fraction(1, 4), Fraction(1, 4))
    assert not v.dc1_surrogate and not v.dc2_surrogate
    assert v.min_fractions == (Fraction(1),)


def test_constant_disagreeing_pair_never_reaches_the_high_bar():
    x, y = Constant(INTEGERS, P), Constant(INTEGERS, Q)
    sched = Schedule((1, 3, 10))
    v = dc_pair_report(M, x, y, [make_window((ix(0),))], sched,
                       Fraction(1, 4), Fraction(1, 4))
    assert not v.dc1_surrogate
    assert v.max_fractions == (Fraction(0),)


def test_scrambled_pair_flags_both_surrogates():
    fam = almost_disjoint_family(2)
    spec = ScrambledFamilySpec(M, (ix(0),), ALPHA, LENGTHS, fam, "plain")
    x, y = dc_family(spec)
    sched = block_boundary_schedule(LENGTHS, 8)
    windows = [window_from_ranks(INTEGERS, (1,)), window_from_ranks(INTEGERS, (1, 2))]
    v = dc_pair_report(M, x, y, windows, sched, Fraction(1, 4), Fraction(1, 4))
    assert v.dc1_surrogate and v.dc2_surrogate
    assert v.dip_window is not None


def test_pair_report_carries_the_profiles_it_was_read_off():
    x, y = _blocks({1, 2, 5}), _blocks({2, 3, 5})
    sched = Schedule((1, 3, 10, 41, 206))
    windows = [make_window((ix(0),)), make_window((ix(1), ix(0)))]
    v = dc_pair_report(M, x, y, windows, sched, Fraction(1, 4), Fraction(1, 4))
    assert v.profiles == tuple(density_profile(M, x, y, w, sched) for w in windows)
    assert v.min_fractions == tuple(p.running_min for p in v.profiles)
    assert v.max_fractions == tuple(p.running_max for p in v.profiles)


def _edge_pair():
    """p everywhere against q on coordinates 0..6 and 100..139: along the orbit
    of 0 the pair agrees on 3 of the first 10 positions and 33 of the first
    40, and along the orbit of 100 on none of the first 40."""
    x = Constant(INTEGERS, P)
    y = FinitePatch(x, {ix(c): Q for c in (*range(7), *range(100, 140))})
    return x, y


def test_a_running_minimum_just_above_the_dip_bar_is_no_dip():
    # 3/10 lies in (eps_low, 2 eps_low]: a loosened dip test would flag DC1
    x, y = _edge_pair()
    v = dc_pair_report(M, x, y, [make_window((ix(0),))], Schedule((10, 40)),
                       Fraction(1, 4), Fraction(1, 4))
    assert (v.min_fractions, v.max_fractions) == ((Fraction(3, 10),), (Fraction(33, 40),))
    assert not v.dc1_surrogate and v.dc2_surrogate


def test_the_high_bar_holds_only_when_every_window_reaches_it():
    # window 1 climbs to 33/40 but window 2 never leaves 0: one window below
    # 1 - eps_high is enough to refuse both surrogates
    x, y = _edge_pair()
    windows = [make_window((ix(0),)), make_window((ix(100),))]
    v = dc_pair_report(M, x, y, windows, Schedule((10, 40)), Fraction(1, 4), Fraction(1, 4))
    assert v.max_fractions == (Fraction(33, 40), Fraction(0))
    assert not v.dc1_surrogate and not v.dc2_surrogate


def test_pair_report_without_windows_flags_nothing():
    x, y = _blocks({2}), _blocks({3})
    v = dc_pair_report(M, x, y, [], Schedule((1, 3, 10)), Fraction(1, 4), Fraction(1, 4))
    assert not v.dc1_surrogate and not v.dc2_surrogate
    assert v.horizon == 10
    assert v.min_fractions == () and v.dip_window is None


# ---------------------------------------------------------------------------
# Proof-bound replay.
# ---------------------------------------------------------------------------


def _pair():
    fam = almost_disjoint_family(2)
    spec = ScrambledFamilySpec(M, (ix(0),), ALPHA, LENGTHS, fam, "plain")
    return spec, dc_family(spec)


def _replayed(spec, members, blocks):
    """(r, shared, ok) of every block the pair's replay covered."""
    return [(b.r, b.shared, b.ok) for b in proof_bound_check_dc(spec, members, 0, 1, blocks, (0,))]


def test_shared_block_bound_with_radius_zero():
    assert _replayed(*_pair(), [4]) == [(4, True, True)]  # count >= s_4 - 1


def test_one_sided_block_bound():
    assert _replayed(*_pair(), [5]) == [(5, False, True)]  # 5 in H_2 only


# Negative controls at each estimate's edge: x patched with q on a few orbit
# coordinates.  Block 3 is in S_1 only (n_3 - s_3 + 1 = 4) and block 4 in both
# sets (s_4 - 4 * 1 - 1 = 26 on the window at offsets 0, 1); one agreement
# past the edge turns ok off, so a loosened bound fails here.
@pytest.mark.parametrize("block, offsets, patched, count, ok", [
    (3, (0,), (3,), 4, True),
    (3, (0,), (3, 4), 5, False),
    (4, (0, 1), (11, 13, 15), 26, True),
    (4, (0, 1), (10, 12, 14, 16), 25, False),
], ids=["one-sided-at-bound", "one-sided-past-bound", "shared-at-bound", "shared-past-bound"])
def test_a_proof_bound_holds_exactly_up_to_its_edge(block, offsets, patched, count, ok):
    spec, (x, y) = _pair()
    x = FinitePatch(x, {ix(c): Q for c in patched})
    [bound] = proof_bound_check_dc(spec, [x, y], 0, 1, [block], offsets)
    assert (bound.r, bound.count, bound.ok) == (block, count, ok)


def test_degenerate_first_block_bound_is_trivial():
    both = ExplicitBlockSet(frozenset({1, 2}))
    spec = ScrambledFamilySpec(M, (ix(0),), ALPHA, LENGTHS,
                               AlmostDisjointFamily((both, both), (both, both)), "plain")
    members = [_blocks({1, 2}), _blocks({1, 2})]
    assert _replayed(spec, members, [1]) == [(1, True, True)]  # bound s_1 - 1 = 0


def test_a_block_in_neither_set_is_not_replayed():
    # 7 is odd and a power of neither 3 nor 5, so no estimate covers it
    assert _replayed(*_pair(), [7]) == []
    assert [r for r, _, _ in _replayed(*_pair(), [7, 5, 4, 7])] == [4, 5]


def _family_of(sets):
    sets = tuple(ExplicitBlockSet(frozenset(s)) for s in sets)
    return AlmostDisjointFamily(sets, sets)


# members of the second kind are built from sets the spec does not name, so
# some of the spec's estimates fail on them
OTHER_SETS = ({1, 2, 5}, {2, 3, 4, 8}, {3, 6, 7})


@pytest.mark.parametrize("variant", ["plain", "weave"])
@pytest.mark.parametrize("built_from", ["spec", "other"])
def test_bound_replay_matches_the_per_block_oracle(variant, built_from):
    lengths = block_lengths(8, variant)
    spec = ScrambledFamilySpec(M, (ix(0),), ALPHA, lengths, almost_disjoint_family(3), variant)
    source = full_shift_transitive_point(ALPHA)
    if built_from == "other":
        build = ScrambledFamilySpec(M, (ix(0),), ALPHA, lengths, _family_of(OTHER_SETS), variant)
    else:
        build = spec
    members = dc_family(build) if variant == "plain" else transitive_weave_family(build, source)
    outcomes = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for offsets in ((0,), (0, 1), (-1, 0, 1)):
            got = {b.r: (b.count, b.ok) for b in
                   proof_bound_check_dc(spec, members, i, j, range(1, 9), offsets)}
            want = {r: replay for r in range(1, 9)
                    if (replay := per_block_bound(spec, members, i, j, r, offsets)) is not None}
            assert got == want, (i, j, offsets)
            outcomes += [ok for _, ok in got.values()]
    assert all(outcomes) if built_from == "spec" else not all(outcomes)


def test_orbit_window_resolves_signed_offsets():
    w = orbit_window(M, ix(0), (-1, 0, 2))
    assert tuple(i.coord for i in w) == (-1, 0, 2)
