"""Finite-horizon scrambling statistics for pairs of configurations.

The primitive counts how often the pair, pushed forward by the shift, agrees on
a finite window (or stays metrically close).  Density profiles track the counts
at a schedule of horizons with running extremes; the two surrogate flags mirror
the liminf/limsup conditions that distinguish the chaos flavors at desk scale.
Proof-bound checks replay the combinatorial estimates that drive the block
construction, by simulation, never by trusting the formula being tested.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import _EXPORTS
from .indexspace import Index, Record, SelfMap, evaluate, preimage
from .configspace import Configuration, Run, make_window, metric_less_than, shifted
from .constructions import BlockLengths, ScrambledFamilySpec

__all__ = list(_EXPORTS["stats"])


class Schedule(Record):
    """Strictly increasing horizons at which statistics are sampled."""

    horizons: tuple[int, ...]

    def __post_init__(self):
        if not self.horizons:
            raise ValueError("schedule needs at least one horizon")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise ValueError("horizons must strictly increase")
        if self.horizons[0] < 1:
            raise ValueError("horizons start at 1")


def block_boundary_schedule(lengths: BlockLengths, r_max: int) -> Schedule:
    return Schedule(tuple(lengths.horizon(r) for r in range(1, r_max + 1)))


def _disagreements(xs: list[Run], ys: list[Run]) -> list[tuple[int, int]]:
    """Half-open position intervals [a, b), in order, on which two run lists
    of the same total length show different symbols (adjacent ones unmerged)."""
    out: list[tuple[int, int]] = []
    x_runs, y_runs = iter(xs), iter(ys)
    x_left = y_left = pos = 0
    x_sym = y_sym = None
    while True:
        if not x_left:
            x_left, x_sym = next(x_runs, (0, None))
        if not y_left:
            y_left, y_sym = next(y_runs, (0, None))
        step = min(x_left, y_left)
        if not step:
            return out
        if x_sym != y_sym:
            out.append((pos, pos + step))
        pos += step
        x_left -= step
        y_left -= step


def _agreement_counts(m: SelfMap, x: Configuration, y: Configuration,
                      window: Sequence[Index], horizons: Sequence[int]) -> list[int]:
    """Window-agreement counts #{i < h : the shifted pair agrees on the window}
    at ascending horizons h.

    Each window coordinate's x and y runs up to the last horizon are merge-walked
    into disagreement intervals; one sweep over the union of those intervals
    reads off every count.  The cost follows the number of runs, not the
    horizon, and the arithmetic is integer throughout.
    """
    n = horizons[-1]
    spans = sorted(span for d in window
                   for span in _disagreements(x.runs_along(m, d, n), y.runs_along(m, d, n)))
    union: list[list[int]] = []  # disjoint, ascending
    for a, b in spans:
        if union and a <= union[-1][1]:
            union[-1][1] = max(union[-1][1], b)
        else:
            union.append([a, b])
    counts: list[int] = []
    k = below = 0  # union[:k] ends at or before h and holds `below` positions
    for h in horizons:
        while k < len(union) and union[k][1] <= h:
            below += union[k][1] - union[k][0]
            k += 1
        straddle = max(0, h - union[k][0]) if k < len(union) else 0
        counts.append(h - below - straddle)
    return counts


def zeta_count(m: SelfMap, x: Configuration, y: Configuration,
               window: Sequence[Index], n: int) -> int:
    """#{i < n : the shifted pair agrees on every window coordinate}."""
    if n < 0:
        raise ValueError("horizon must be >= 0")
    if not window:
        raise ValueError("window must be nonempty")
    return _agreement_counts(m, x, y, window, [n])[0]


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


class DensityRow(Record):
    horizon: int
    count: int
    fraction: Fraction
    running_min: Fraction
    running_max: Fraction


class DensityProfile(Record):
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

    Every count comes from one run-length agreement pass per window, up to the
    largest horizon: its cost grows with the blocks and splice symbols the
    runs cover, not with the horizon.
    """
    counts = _agreement_counts(m, x, y, window, schedule.horizons)
    rows = []
    run_min: Optional[Fraction] = None
    run_max: Optional[Fraction] = None
    for horizon, count in zip(schedule.horizons, counts):
        frac = Fraction(count, horizon)
        run_min = frac if run_min is None or frac < run_min else run_min
        run_max = frac if run_max is None or frac > run_max else run_max
        rows.append(DensityRow(horizon, count, frac, run_min, run_max))
    return DensityProfile(tuple(window), tuple(rows))


class PairVerdict(Record):
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
    profiles: tuple[DensityProfile, ...]  # one per window, the evidence behind the flags


def dc_pair_report(m: SelfMap, x: Configuration, y: Configuration,
                   windows: Sequence[Sequence[Index]], schedule: Schedule,
                   eps_low: Fraction, eps_high: Fraction) -> PairVerdict:
    """The pair's density profile on every window and the surrogates read off them."""
    profiles = tuple(density_profile(m, x, y, w, schedule) for w in windows)
    dip = next((p for p in profiles if p.running_min <= eps_low), None)
    high = all(p.running_max >= 1 - eps_high for p in profiles)
    return PairVerdict(
        dip is not None and high,
        any(p.running_min <= 1 - eps_low for p in profiles) and high,
        Fraction(eps_low), Fraction(eps_high), schedule.horizons[-1],
        tuple(p.running_min for p in profiles),
        tuple(p.running_max for p in profiles),
        dip.window if dip is not None else None,
        profiles,
    )


# ---------------------------------------------------------------------------
# Proof-bound replay for the block construction.
# ---------------------------------------------------------------------------


class BlockBound(Record):
    """Block r's construction estimate, replayed for one pair of members."""

    r: int
    shared: bool  # r lies in both member sets; otherwise in exactly one
    count: int  # window agreements before n_r
    ok: bool


def orbit_window(m: SelfMap, anchor: Index, offsets: Sequence[int]) -> tuple[Index, ...]:
    """Window of coordinates phi^o(anchor) for signed offsets o (backward via preimage)."""
    out = []
    for o in sorted(set(offsets)):
        cur: Optional[Index] = anchor
        for _ in range(abs(o)):
            cur = evaluate(m, cur) if o > 0 else preimage(m, cur)
            if cur is None:  # no preimage: the offset falls off the orbit
                break
        if cur is not None:
            out.append(cur)
    return tuple(out)


def proof_bound_check_dc(spec: ScrambledFamilySpec, members: Sequence[Configuration],
                         i: int, j: int, blocks: Sequence[int],
                         offsets: Sequence[int] = (0,)) -> list[BlockBound]:
    """Replay the block-construction estimate of members i and j by direct
    counting, for every block in `blocks` that lies in either member set of the
    spec's family, in ascending order.

    Membership case decides the claim:
      r in both sets: agreement on the orbit window at `offsets` (radius N) at
        horizon n_r is at least s_r - 4N - 1 (plain) or s_r - 2N - 1 (weave);
      r in exactly one set: agreement on the anchor-only window at horizon n_r
        is at most n_r - s_r + 1.
    Blocks in neither set carry no estimate and are skipped.  Each window's
    counts come from one agreement pass up to its largest n_r.
    """
    lengths, set_i, set_j = spec.lengths, spec.family.members[i], spec.family.members[j]
    holders = {r: set_i.contains(r) + set_j.contains(r) for r in set(blocks)}
    one_sided = sorted(r for r, k in holders.items() if k == 1)
    shared = sorted(r for r, k in holders.items() if k == 2)
    m, x, y = spec.map, members[i], members[j]
    out: list[BlockBound] = []
    if one_sided:
        counts = _agreement_counts(m, x, y, (spec.anchor,),
                                   [lengths.horizon(r) for r in one_sided])
        out += [BlockBound(r, False, count, count <= lengths.horizon(r) - lengths.value(r) + 1)
                for r, count in zip(one_sided, counts)]
    if shared:
        radius = max(abs(o) for o in offsets)
        slack = 2 * radius if lengths.variant == "weave" else 4 * radius
        window = make_window(orbit_window(m, spec.anchor, offsets))
        counts = _agreement_counts(m, x, y, window, [lengths.horizon(r) for r in shared])
        out += [BlockBound(r, True, count, count >= lengths.value(r) - slack - 1)
                for r, count in zip(shared, counts)]
    return sorted(out, key=lambda bound: bound.r)
