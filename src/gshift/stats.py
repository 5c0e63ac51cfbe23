"""Finite-horizon scrambling statistics for pairs of configurations.

The primitive counts how often the pair, pushed forward by the shift, agrees on
a finite window (or stays metrically close).  Density profiles track the counts
at a schedule of horizons with running extremes; the two surrogate flags mirror
the liminf/limsup conditions that distinguish the chaos flavors at desk scale.
Proof-bound checks replay the combinatorial estimates that drive the block
construction, by simulation, never by trusting the formula being tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .indexspace import Index, SelfMap, evaluate, preimage
from .configspace import Configuration, metric_less_than, shifted
from .constructions import BlockLengths

__all__ = [
    "Schedule",
    "DensityRow",
    "DensityProfile",
    "PairVerdict",
    "DcPairParams",
    "block_boundary_schedule",
    "zeta_count",
    "xi_count",
    "agreement_flags",
    "density_profile",
    "dc_pair_report",
    "surrogate_verdict",
    "proof_bound_check_dc",
    "orbit_window",
]


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing horizons at which statistics are sampled."""

    horizons: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if not self.horizons:
            raise ValueError("schedule needs at least one horizon")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise ValueError("horizons must strictly increase")
        if self.horizons[0] < 1:
            raise ValueError("horizons start at 1")


def block_boundary_schedule(lengths: BlockLengths, r_max: int) -> Schedule:
    horizons = tuple(lengths.horizon(r) for r in range(1, r_max + 1))
    labels = tuple(f"r={r}" for r in range(1, r_max + 1))
    return Schedule(horizons, labels)


def agreement_flags(m: SelfMap, x: Configuration, y: Configuration,
                    window: Sequence[Index], n: int) -> list[bool]:
    """flags[i] says the pair agrees on the whole window after i shifts (i < n)."""
    flags = [True] * n
    for d in window:
        sx = x.symbols_along(m, d, n)
        sy = y.symbols_along(m, d, n)
        for i in range(n):
            if flags[i] and sx[i] != sy[i]:
                flags[i] = False
        # free this coordinate's lists before the next one builds its own, so
        # at most two are alive and the peak does not depend on window order
        del sx, sy
    return flags


def zeta_count(m: SelfMap, x: Configuration, y: Configuration,
               window: Sequence[Index], n: int) -> int:
    """#{i < n : the shifted pair agrees on every window coordinate}."""
    if n < 0:
        raise ValueError("horizon must be >= 0")
    if not window:
        raise ValueError("window must be nonempty")
    return sum(agreement_flags(m, x, y, window, n))


def xi_count(m: SelfMap, x: Configuration, y: Configuration, t: Fraction,
             n: int, depth_cap: int = 512) -> int:
    """#{i < n : metric distance of the shifted pair is below t}, decided exactly.

    Metric comparisons walk the enumeration until the dyadic partial sums
    certify the answer; statistics prefer the window form, this exists for the
    bracketing tests and API parity.
    """
    count = 0
    for i in range(n):
        sx = shifted(x, m, i)
        sy = shifted(y, m, i)
        if metric_less_than(sx, sy, t, depth_cap):
            count += 1
    return count


@dataclass(frozen=True)
class DensityRow:
    horizon: int
    count: int
    fraction: Fraction
    running_min: Fraction
    running_max: Fraction


@dataclass(frozen=True)
class DensityProfile:
    window: tuple[Index, ...]
    rows: tuple[DensityRow, ...]

    @property
    def running_min(self) -> Fraction:
        return self.rows[-1].running_min

    @property
    def running_max(self) -> Fraction:
        return self.rows[-1].running_max


def density_profile(m: SelfMap, x: Configuration, y: Configuration,
                    window: Sequence[Index], schedule: Schedule) -> DensityProfile:
    """Agreement fractions at every scheduled horizon, with running extremes.

    One linear pass over the largest horizon; counts at earlier checkpoints are
    prefix sums of the same flag stream.
    """
    n_max = schedule.horizons[-1]
    flags = agreement_flags(m, x, y, window, n_max)
    rows = []
    run_min: Optional[Fraction] = None
    run_max: Optional[Fraction] = None
    count = 0
    done = 0
    for horizon in schedule.horizons:
        count += sum(flags[done:horizon])
        done = horizon
        frac = Fraction(count, horizon)
        run_min = frac if run_min is None or frac < run_min else run_min
        run_max = frac if run_max is None or frac > run_max else run_max
        rows.append(DensityRow(horizon, count, frac, run_min, run_max))
    return DensityProfile(tuple(window), tuple(rows))


@dataclass(frozen=True)
class PairVerdict:
    """Finite-horizon surrogates for the two distributional-chaos conditions.

    dc1_surrogate: some window's running-min fraction dips to eps_low while every
    window's running-max reaches 1 - eps_high.  dc2_surrogate relaxes the dip to
    1 - eps_low.  These witness scrambling at the tested horizons; they are
    evidence, not limits.
    """

    dc1_surrogate: bool
    dc2_surrogate: bool
    eps_low: Fraction
    eps_high: Fraction
    horizon: int
    min_fractions: tuple[Fraction, ...]
    max_fractions: tuple[Fraction, ...]
    dip_window: Optional[tuple[Index, ...]]


def dc_pair_report(m: SelfMap, x: Configuration, y: Configuration,
                   windows: Sequence[Sequence[Index]], schedule: Schedule,
                   eps_low: Fraction, eps_high: Fraction) -> PairVerdict:
    profiles = [density_profile(m, x, y, w, schedule) for w in windows]
    return surrogate_verdict(profiles, schedule.horizons[-1], eps_low, eps_high)


def surrogate_verdict(profiles: Sequence[DensityProfile], horizon: int,
                      eps_low: Fraction, eps_high: Fraction) -> PairVerdict:
    """The pair's surrogates from its density profiles, one per window, all
    sampled on a schedule whose last horizon is `horizon`."""
    mins = tuple(p.running_min for p in profiles)
    maxes = tuple(p.running_max for p in profiles)
    dip = next((p for p in profiles if p.running_min <= eps_low), None)
    high = all(p.running_max >= 1 - eps_high for p in profiles)
    dc1 = dip is not None and high
    dc2 = any(p.running_min <= 1 - eps_low for p in profiles) and high
    return PairVerdict(
        dc1, dc2, Fraction(eps_low), Fraction(eps_high),
        horizon, mins, maxes,
        dip.window if dip is not None else None,
    )


# ---------------------------------------------------------------------------
# Proof-bound replay for the block construction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DcPairParams:
    """One pair of plain or weave block configurations plus the layout data."""

    map: SelfMap
    anchor: Index
    lengths: BlockLengths
    x: Configuration
    y: Configuration
    set_x: object  # BlockSet-like
    set_y: object


def orbit_window(m: SelfMap, anchor: Index, offsets: Sequence[int]) -> tuple[Index, ...]:
    """Window of coordinates phi^o(anchor) for signed offsets o (backward via preimage)."""
    out = []
    for o in sorted(set(offsets)):
        if o >= 0:
            cur = anchor
            for _ in range(o):
                cur = evaluate(m, cur)
            out.append(cur)
        else:
            cur = anchor
            ok = True
            for _ in range(-o):
                prev = preimage(m, cur)
                if prev is None:
                    ok = False
                    break
                cur = prev
            if not ok:
                continue
            out.append(cur)
    return tuple(out)


def proof_bound_check_dc(params: DcPairParams, r: int,
                         offsets: Sequence[int] = (0,)) -> bool:
    """Replay the block-construction estimate for block r by direct counting.

    Membership case decides the claim:
      r in both sets: agreement on the radius-N orbit window at horizon n_r is
        at least s_r - 4N - 1 (plain) or s_r - 2N - 1 (weave);
      r in exactly one set: agreement on the anchor-only window at horizon n_r
        is at most n_r - s_r + 1.
    Raises ValueError when r lies in neither set (no estimate applies).
    """
    in_x = params.set_x.contains(r)
    in_y = params.set_y.contains(r)
    n_r = params.lengths.horizon(r)
    s_r = params.lengths.value(r)
    if in_x and in_y:
        radius = max(abs(o) for o in offsets)
        window = orbit_window(params.map, params.anchor, offsets)
        count = zeta_count(params.map, params.x, params.y, window, n_r)
        slack = 2 * radius if params.lengths.variant == "weave" else 4 * radius
        return count >= s_r - slack - 1
    if in_x != in_y:
        window = (params.anchor,)
        count = zeta_count(params.map, params.x, params.y, window, n_r)
        return count <= n_r - s_r + 1
    raise ValueError(f"block {r} lies in neither member set; no bound applies")
