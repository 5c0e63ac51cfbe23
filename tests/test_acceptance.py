"""Acceptance gate: ten exact criteria, one verdict line each.

Every criterion prints `criterion NN PASS/FAIL (elapsed)` to the live terminal
(bypassing capture) and then asserts, so a full run shows ten lines and any
red criterion fails the suite.  Tolerances are exact — integer inequalities and
rational arithmetic throughout — with per-criterion wall-clock caps.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from gshift.indexspace import (
    INTEGERS,
    Index,
    NATURALS,
    compose_maps,
    ix,
    iterate,
    parity_down,
    parity_up,
    rank_of,
    square,
    square_plus_one,
    successor,
    table_map,
)
from gshift.orbits import (
    classify_point,
    map_profile,
)
from gshift.configspace import (
    Constant,
    FinitePatch,
    default_alphabet,
    in_cylinder,
    metric_less_than,
    shifted,
    threshold_to_window,
    window_from_ranks,
    window_to_threshold,
)
from gshift.constructions import (
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
from gshift.stats import (
    block_boundary_schedule,
    dc_pair_report,
    proof_bound_check_dc,
    xi_count,
    zeta_count,
)
from gshift.theorems import (
    check_composition_law,
    check_product_law,
    counterexample_suite,
    predict,
)
from oracles import brute_force_profile

ALPHA = default_alphabet()
P, Q = ALPHA.p, ALPHA.q


def _verdict(capsys, num, name, ok, elapsed, cap):
    line = (f"criterion {num:02d} {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.2f}s, cap {cap}s): {name}")
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line
    assert elapsed < cap, line


# ---------------------------------------------------------------------------
# 1. Curated suite and its verdict algebra.
# ---------------------------------------------------------------------------


def test_criterion_01_counterexample_suite(capsys):
    t0 = time.perf_counter()
    entries = counterexample_suite()
    ok = len(entries) == 9 and all(e.passed for e in entries)
    expected = {
        "shift_by_one": ("proven_true",) * 5,
        "square_plus_one": ("proven_true", "proven_true", "proven_true",
                            "proven_true", "proven_false"),
        "square": ("proven_true", "proven_true", "proven_true",
                   "proven_false", "proven_false"),
        "pair_swap_up": ("proven_false",) * 5,
        "pair_swap_down": ("proven_false",) * 5,
        "swap_up_after_swap_down": ("proven_true",) * 5,
        "swap_down_after_swap_up": ("proven_true",) * 5,
        "identity_composition": ("proven_false",) * 5,
        "swap_union": ("proven_false",) * 5,
    }
    got = {e.name: e.computed.truths() for e in entries}
    ok = ok and got == expected
    # verdict algebra across a union: chaotic iff either side, densely iff both,
    # transitively iff both
    ok = ok and check_product_law(successor(), parity_up(), samples=20)
    ok = ok and check_product_law(parity_up(), parity_down(), samples=20)
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 1, "nine-map suite with union verdict algebra", ok, elapsed, 1.0)


# ---------------------------------------------------------------------------
# 2. Exhaustive oracle equivalence on six points.
# ---------------------------------------------------------------------------


def test_criterion_02_exhaustive_six_point_oracle(capsys):
    t0 = time.perf_counter()
    ok = True
    for entries in itertools.product(range(6), repeat=6):
        m = table_map(entries)
        prof = map_profile(m)
        if prof.truths() != brute_force_profile(m).truths():
            ok = False
            break
        if not predict(prof).distributional.is_false:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 2, "46656 six-point tables match brute force; "
             "finite domains never chaotic", ok, elapsed, 30.0)


# ---------------------------------------------------------------------------
# 3 + 4. Proof-bound replay and scrambling surrogate for the plain family.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def plain_family_run():
    t0 = time.perf_counter()
    m = successor()
    anchor = ix(0)
    lengths = block_lengths(8, "plain")
    fam = almost_disjoint_family(3)
    spec = ScrambledFamilySpec(m, (anchor,), ALPHA, lengths, fam, "plain")
    members = dc_family(spec)

    bounds = []
    for i in range(3):
        for j in range(i + 1, 3):
            # radius N = 0 replays every block in either set; N = 1 adds the
            # shared blocks again on the wider orbit window
            bounds += [b.ok for b in proof_bound_check_dc(spec, members, i, j, range(2, 9))]
            bounds += [b.ok for b in proof_bound_check_dc(spec, members, i, j, range(2, 9),
                                                          (-1, 0, 1)) if b.shared]

    schedule = block_boundary_schedule(lengths, 8)
    windows = [window_from_ranks(INTEGERS, (1,)), window_from_ranks(INTEGERS, (1, 2))]
    surrogates = []
    for i in range(3):
        for j in range(i + 1, 3):
            v = dc_pair_report(m, members[i], members[j], windows, schedule,
                               Fraction(1, 4), Fraction(1, 4))
            surrogates.append(v)
    elapsed = time.perf_counter() - t0
    return bounds, surrogates, elapsed


def test_criterion_03_proof_bounds(capsys, plain_family_run):
    bounds, _, elapsed = plain_family_run
    ok = len(bounds) == 30 and all(bounds)
    _verdict(capsys, 3, "shared/one-sided block bounds, all pairs, r in 2..8, "
             "radii N <= 1", ok, elapsed, 120.0)


def test_criterion_04_dc_surrogate(capsys, plain_family_run):
    _, surrogates, elapsed = plain_family_run
    ok = len(surrogates) == 3
    for v in surrogates:
        ok = ok and v.dc1_surrogate and v.dc2_surrogate
        ok = ok and any(f <= Fraction(1, 4) for f in v.min_fractions)
        ok = ok and all(f >= Fraction(3, 4) for f in v.max_fractions)
    _verdict(capsys, 4, "agreement fraction dips to 1/4 and rebounds to 3/4 "
             "at the r=8 horizon", ok, elapsed, 120.0)


# ---------------------------------------------------------------------------
# 5. Densification hits every small cylinder.
# ---------------------------------------------------------------------------


def test_criterion_05_densification(capsys):
    t0 = time.perf_counter()
    m = square_plus_one()
    en = pattern_enumeration(ALPHA, m.domain)
    spec = ScrambledFamilySpec(m, (ix(0),), ALPHA, block_lengths(8, "plain"),
                               almost_disjoint_family(26), "plain")
    dense = densify_family(m, dc_family(spec), en, 26)
    ok = len(dense) == 26
    for n in range(1, 27):
        pattern = en.pattern(n)
        if max(rank_of(INTEGERS, i) for i in pattern.window) > 3:
            ok = False  # the first 26 patterns must exhaust ranks <= 3
        hit = next((k for k, member in enumerate(dense, start=1)
                    if in_cylinder(member, pattern)), None)
        ok = ok and hit is not None and hit <= en.rank_of(pattern)
    for member in dense:
        for coord in member.patch:
            ok = ok and classify_point(m, coord).kind == "non_quasi_periodic"
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 5, "all 26 rank-3 cylinders hit within the enumeration bound; "
             "patches sit on infinite orbits", ok, elapsed, 10.0)


# ---------------------------------------------------------------------------
# 6. Weave transitivity within the constructive bound.
# ---------------------------------------------------------------------------


def test_criterion_06_weave_transitivity(capsys):
    t0 = time.perf_counter()
    m = successor()
    spec = ScrambledFamilySpec(m, (ix(0),), ALPHA, block_lengths(12, "weave"),
                               almost_disjoint_family(2), "weave")
    source = full_shift_transitive_point(ALPHA)
    x = transitive_weave_family(spec, source)[0]
    en = pattern_enumeration(ALPHA, INTEGERS)
    ok = True
    for n in range(1, 27):
        pattern = en.pattern(n)
        bound = weave_entry_exponent(spec, source, pattern)
        ok = ok and bound >= 0
        ok = ok and in_cylinder(shifted(x, m, bound), pattern)
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 6, "weave configuration enters every rank-3 cylinder at "
             "its computed exponent", ok, elapsed, 60.0)


# ---------------------------------------------------------------------------
# 7. Orbit embedding is a conjugacy and is injective.
# ---------------------------------------------------------------------------


def _random_inner(rng):
    patch = {
        Index((), pos): rng.choice(ALPHA.symbols)
        for pos in rng.sample(range(1, 61), rng.randrange(0, 8))
    }
    return FinitePatch(Constant(NATURALS, Q), patch)


def _inner_signature(inner, upto=70):
    return tuple(inner.symbol_at(Index((), n)) for n in range(1, upto))


def test_criterion_07_embedding_conjugacy(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    m = successor()
    anchor = ix(0)
    inners = [_random_inner(rng) for _ in range(100)]
    coords = rng.sample(range(1, 400), 50)  # orbit positions n >= 1
    ok = True
    for inner in inners:
        emb = omega_embedding(m, anchor, inner, P)
        for power in range(1, 6):
            lhs = shifted(emb, m, power)
            rhs = omega_embedding(m, anchor, shift_inner(inner, power), P)
            for n in coords:
                coord = iterate(m, anchor, n)
                if lhs.symbol_at(coord) != rhs.symbol_at(coord):
                    ok = False
    # injectivity: distinct inner sequences embed to configurations that differ
    embeddings = [omega_embedding(m, anchor, inner, P) for inner in inners]
    for a in range(len(inners)):
        for b in range(a + 1, len(inners)):
            sig_a, sig_b = _inner_signature(inners[a]), _inner_signature(inners[b])
            if sig_a == sig_b:
                continue
            first = next(n for n in range(1, 70)
                         if sig_a[n - 1] != sig_b[n - 1])
            coord = iterate(m, anchor, first)
            if embeddings[a].symbol_at(coord) == embeddings[b].symbol_at(coord):
                ok = False
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 7, "embedding intertwines the shifts at 100x5x50 samples "
             "and separates distinct inners", ok, elapsed, 5.0)


# ---------------------------------------------------------------------------
# 8. Metric/window duality bracketing.
# ---------------------------------------------------------------------------


def test_criterion_08_duality_bracketing(capsys):
    t0 = time.perf_counter()
    rng = random.Random(4096)
    m = successor()
    base = Constant(INTEGERS, P)
    ok = True
    for _ in range(1000):
        x = FinitePatch(base, {ix(rng.randrange(-12, 13)): rng.choice(ALPHA.symbols)
                               for _ in range(rng.randrange(0, 5))})
        y = FinitePatch(base, {ix(rng.randrange(-12, 13)): rng.choice(ALPHA.symbols)
                               for _ in range(rng.randrange(0, 5))})
        t = Fraction(rng.randrange(1, 129), 128)
        ranks = sorted(rng.sample(range(1, 16), rng.randrange(1, 4)))
        d_from_t = threshold_to_window(INTEGERS, t)
        d = window_from_ranks(INTEGERS, ranks)
        n = rng.randrange(1, 9)
        if not (zeta_count(m, x, y, d_from_t, n) <= xi_count(m, x, y, t, n)):
            ok = False
        t_prime = window_to_threshold(INTEGERS, d)
        if not (xi_count(m, x, y, t_prime, n) <= zeta_count(m, x, y, d, n)):
            ok = False
        # window/threshold duality is itself bracketed
        if not (window_to_threshold(INTEGERS, d_from_t) < t):
            ok = False
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 8, "metric and window counts bracket each other on 1000 "
             "exact dyadic triples", ok, elapsed, 5.0)


# ---------------------------------------------------------------------------
# 9. Block-length inequalities at depth 64.
# ---------------------------------------------------------------------------


def test_criterion_09_block_length_inequalities(capsys):
    t0 = time.perf_counter()
    ok = True
    try:
        for variant in ("plain", "weave"):
            verify_length_inequalities(block_lengths(64, variant), 64)
    except ValueError:
        ok = False
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 9, "strict density inequalities for both length variants "
             "to n = 64", ok, elapsed, 1.0)


# ---------------------------------------------------------------------------
# 10. Product and composition laws at volume.
# ---------------------------------------------------------------------------


def test_criterion_10_algebra_laws(capsys):
    t0 = time.perf_counter()
    catalog = [successor(), square(), square_plus_one(), parity_up(),
               parity_down(), compose_maps(parity_up(), parity_down())]
    ok = True
    for f, g in itertools.combinations(catalog, 2):
        ok = ok and check_product_law(f, g, samples=100)
        ok = ok and check_composition_law(f, g, samples=100)
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 10, "union and stacking laws on all catalog pairs, "
             "100 samples each", ok, elapsed, 5.0)
