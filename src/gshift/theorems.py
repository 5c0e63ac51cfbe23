"""Chaos-profile predictions and the curated counterexample suite.

The characterization driving everything: for a generalized shift, Li-Yorke,
distributional, and omega chaos each hold exactly when the index map has a
point with an infinite orbit; the dense flavor needs no periodic point at all;
the transitive flavor additionally needs injectivity.  Predictions therefore
reduce to the three-verdict map profile, with unknowns propagated honestly.

The suite pins nine standard maps with hand-checked expectations and replays
the product and composition laws for the shift algebra.
"""

from __future__ import annotations

import random
from functools import lru_cache

from . import _EXPORTS
from .indexspace import (
    Index,
    Record,
    SelfMap,
    compose_maps,
    disjoint_union_maps,
    iterate,
    parity_down,
    parity_up,
    predecessor,
    region_indices,
    successor,
    square,
    square_plus_one,
)
from .orbits import MapProfile, Verdict, VerdictFields, map_profile, v_and, v_not, v_or
from .configspace import Constant, FinitePatch, shifted

__all__ = list(_EXPORTS["theorems"])


class ChaosPrediction(VerdictFields, Record):
    """Predicted chaos profile of the shift generated by a map profile."""

    li_yorke: Verdict
    distributional: Verdict
    omega: Verdict
    dense_distributional: Verdict
    transitive_distributional: Verdict


@lru_cache(maxsize=1024)
def predict(profile: MapProfile) -> ChaosPrediction:
    """Chaos flavors from the three map facts; unknown in, unknown out.

    Profiles and predictions are frozen, and equal profiles give equal
    predictions, so each distinct profile's prediction is built once and
    shared from a bounded cache.
    """
    nqp = profile.has_non_quasi_periodic_point
    aperiodic = v_not(profile.has_periodic_point)
    return ChaosPrediction(
        li_yorke=nqp,
        distributional=nqp,
        omega=nqp,
        dense_distributional=aperiodic,
        transitive_distributional=v_and(profile.injective, aperiodic),
    )


class SuiteEntry(Record):
    name: str
    map: SelfMap
    expected: tuple[str, str, str, str, str]
    rationale: str
    computed: ChaosPrediction
    passed: bool


def _suite_rows() -> list[tuple[str, SelfMap, tuple[str, ...], str]]:
    t, f = "proven_true", "proven_false"
    return [
        (
            "shift_by_one",
            successor(),
            (t, t, t, t, t),
            "translation: injective, aperiodic, every orbit infinite",
        ),
        (
            "square_plus_one",
            square_plus_one(),
            (t, t, t, t, f),
            "n^2+1 collides at -1,1 but exceeds n everywhere: aperiodic, not injective",
        ),
        (
            "square",
            square(),
            (t, t, t, f, f),
            "0 and 1 are fixed; magnitudes >= 2 explode, so chaos without density",
        ),
        (
            "pair_swap_up",
            parity_up(),
            (f, f, f, f, f),
            "involution pairing 2k with 2k+1: every orbit has size two",
        ),
        (
            "pair_swap_down",
            parity_down(),
            (f, f, f, f, f),
            "involution pairing 2k with 2k-1: every orbit has size two",
        ),
        (
            "swap_up_after_swap_down",
            compose_maps(parity_up(), parity_down()),
            (t, t, t, t, t),
            "the two involutions compose to a parity-preserving drift by two",
        ),
        (
            "swap_down_after_swap_up",
            compose_maps(parity_down(), parity_up()),
            (t, t, t, t, t),
            "same drift with the classes exchanged",
        ),
        (
            "identity_composition",
            compose_maps(predecessor(), successor()),
            (f, f, f, f, f),
            "forward then backward translation fixes every point",
        ),
        (
            "swap_union",
            disjoint_union_maps(parity_up(), parity_down()),
            (f, f, f, f, f),
            "both sides are involutions, so the union has only finite orbits",
        ),
    ]


def counterexample_suite() -> list[SuiteEntry]:
    """Nine curated maps whose chaos profiles are pinned by hand-checked facts."""
    entries = []
    for name, m, expected, rationale in _suite_rows():
        computed = predict(map_profile(m))
        entries.append(
            SuiteEntry(name, m, expected, rationale, computed,
                       computed.truths() == expected)
        )
    return entries


# ---------------------------------------------------------------------------
# Algebra laws.
# ---------------------------------------------------------------------------


def _sample_union_config(domain, region, rng: random.Random, alphabet=("p", "q")):
    """A constant configuration patched at a random part of `region`."""
    patch = {}
    for index in region:
        if rng.random() < 0.35:
            patch[index] = rng.choice(alphabet)
    return FinitePatch(Constant(domain, alphabet[0]), patch)


def check_product_law(f: SelfMap, g: SelfMap, samples: int = 25,
                      seed: int = 0) -> bool:
    """Union shifts act sidewise, and the union chaos verdicts obey or/and/and.

    Pointwise: shifting under the tag-routing union, read at an L-tagged (or
    R-tagged) coordinate, equals shifting the side restriction under the side's
    own map.  Verdict algebra: the union is chaotic when either side is, densely
    chaotic when both sides are, transitively so when both sides are.
    """
    union = disjoint_union_maps(f, g)
    rng = random.Random(seed)
    patched = list(region_indices(union.domain, 12))
    probed = list(region_indices(union.domain, 10))
    for _ in range(samples):
        config = _sample_union_config(union.domain, patched, rng)
        power = rng.randrange(1, 6)
        moved = shifted(config, union, power)
        for index in rng.sample(probed, 8):
            side_map = f if index.path[0] == "L" else g
            bare = Index(index.path[1:], index.coord)
            stepped = iterate(side_map, bare, power)
            retagged = Index((index.path[0],) + stepped.path, stepped.coord)
            if moved.symbol_at(index) != config.symbol_at(retagged):
                return False
    pf, pg, pu = map_profile(f), map_profile(g), map_profile(union)
    want = predict(MapProfile(
        injective=v_and(pf.injective, pg.injective),
        has_periodic_point=v_or(pf.has_periodic_point, pg.has_periodic_point),
        has_non_quasi_periodic_point=v_or(
            pf.has_non_quasi_periodic_point, pg.has_non_quasi_periodic_point
        ),
    ))
    return predict(pu).truths() == want.truths()


def check_composition_law(f: SelfMap, g: SelfMap, samples: int = 25,
                          seed: int = 0) -> bool:
    """Shift of g, then shift of f, equals the shift of (g after f).

    Reading a coordinate through two stacked shifts routes it through f first,
    hence the reversal: the combined system is generated by compose_maps(g, f).
    """
    if f.domain != g.domain:
        raise ValueError("composition law needs a shared domain")
    combined = compose_maps(g, f)
    rng = random.Random(seed)
    patched = list(region_indices(f.domain, 12))
    probed = list(region_indices(f.domain, 10))
    for _ in range(samples):
        config = _sample_union_config(f.domain, patched, rng)
        stacked = shifted(shifted(config, g, 1), f, 1)
        direct = shifted(config, combined, 1)
        for index in rng.sample(probed, 8):
            if stacked.symbol_at(index) != direct.symbol_at(index):
                return False
    return True
