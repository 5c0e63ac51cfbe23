"""Lazy configurations over a countable index domain, windows, and the dyadic metric.

A configuration is a total rule from the domain to a finite symbol alphabet,
represented lazily so block constructions with astronomically long segments can
still answer pointwise queries.  Closeness is measured two interchangeable ways:
agreement on a finite window of enumerated coordinates, or a dyadic metric
summing 2^-rank over disagreements; the two are bracketed exactly by the
threshold/window translations at the bottom of this module.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .indexspace import (
    DomainMismatchError,
    Index,
    IndexDomain,
    Record,
    SelfMap,
    chain_coordinates,
    contains,
    domain_size,
    enumerate_index,
    evaluate,
    iterate,
    rank_of,
)
from .orbits import classify_point, first_join, orbit_position, window_offsets

__all__ = [
    "Alphabet",
    "Configuration",
    "Constant",
    "FinitePatch",
    "OrbitBlocks",
    "Embedded",
    "Shifted",
    "CylinderPattern",
    "MetricResolutionError",
    "PreconditionError",
    "default_alphabet",
    "make_window",
    "window_from_ranks",
    "pattern_json",
    "shifted",
    "in_cylinder",
    "metric_less_than",
    "threshold_to_window",
    "window_to_threshold",
]


class Alphabet(Record):
    """Finite symbol set with two distinguished distinct marks p and q."""

    symbols: tuple[str, ...]
    p: str
    q: str

    def __post_init__(self):
        if len(self.symbols) < 2 or len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet needs at least two distinct symbols")
        if self.p == self.q or self.p not in self.symbols or self.q not in self.symbols:
            raise ValueError("marks p, q must be distinct alphabet members")


def default_alphabet() -> Alphabet:
    return Alphabet(("p", "q"), "p", "q")


class MetricResolutionError(RuntimeError):
    """A metric comparison stayed on a knife edge past the inspection depth."""


Run = tuple[int, str]  # (length, symbol): `length` consecutive orbit positions


def _push_run(runs: list[Run], length: int, symbol: str) -> None:
    """Append a run, extending the last one when it shows the same symbol."""
    if runs and runs[-1][1] == symbol:
        runs[-1] = (runs[-1][0] + length, symbol)
    else:
        runs.append((length, symbol))


def _cut_runs(runs: list[Run], count: int) -> list[Run]:
    """A new list of the first `count` > 0 positions of `runs` (which cover
    at least that many): still maximal runs, the last one cut short."""
    out: list[Run] = []
    for length, symbol in runs:
        if length >= count:
            out.append((count, symbol))
            return out
        out.append((length, symbol))
        count -= length
    return out


class Configuration:
    """Total lazy assignment of symbols to domain indices."""

    domain: IndexDomain

    def symbol_at(self, index: Index) -> str:
        raise NotImplementedError

    def symbols_at(self, window: Sequence[Index]) -> list[str]:
        """The symbols on a window of coordinates, in window order."""
        return [self.symbol_at(index) for index in window]

    def symbols_after(self, m: SelfMap, window: Sequence[Index], power: int) -> list[str]:
        """The symbols at phi^power(i) for each i of a window, in window order.
        This base iterates the map and reads there; a layout that knows where
        the orbit lands reads it directly."""
        return [self.symbol_at(iterate(m, index, power)) for index in window]

    def runs_along(self, m: SelfMap, start: Index, count: int) -> list[Run]:
        """Symbols at phi^i(start) for i = 0..count-1 as maximal (length, symbol)
        runs.  This base steps `symbol_at` position by position; subclasses that
        know where their symbols change read whole runs instead."""
        runs: list[Run] = []
        cur = start
        for _ in range(count):
            _push_run(runs, 1, self.symbol_at(cur))
            cur = evaluate(m, cur)
        return runs


def _refuse_off_domain(domain: IndexDomain, index: Index) -> None:
    if not contains(domain, index):
        raise DomainMismatchError(f"{index!r} outside configuration domain")


class Constant(Configuration):
    def __init__(self, domain: IndexDomain, symbol: str):
        self.domain = domain
        self.symbol = symbol

    def symbol_at(self, index: Index) -> str:
        _refuse_off_domain(self.domain, index)
        return self.symbol

    def runs_along(self, m: SelfMap, start: Index, count: int) -> list[Run]:
        _refuse_off_domain(self.domain, start)
        return [(count, self.symbol)] if count > 0 else []


class FinitePatch(Configuration):
    """A base configuration overridden at finitely many explicit coordinates
    of its domain (checked once here, so no read pays for it)."""

    def __init__(self, base: Configuration, patch: dict[Index, str]):
        for index in patch:
            _refuse_off_domain(base.domain, index)
        self.domain = base.domain
        self.base = base
        self.patch = dict(patch)

    def symbol_at(self, index: Index) -> str:
        hit = self.patch.get(index)
        return hit if hit is not None else self.base.symbol_at(index)

    def support(self) -> tuple[Index, ...]:
        return tuple(self.patch)


class PreconditionError(ValueError):
    """A constructor precondition failed; the message names the offending verdict."""


def _require_infinite_orbit(m: SelfMap, anchor: Index) -> None:
    # a layout along the anchor's orbit is one configuration only when the
    # orbit never repeats: on a cycle, position-by-position runs and
    # least-position pointwise reads would write different symbols
    cls = classify_point(m, anchor)
    if not cls.is_non_quasi_periodic:
        raise PreconditionError(
            f"anchor {anchor!r} must have a proven infinite orbit; classification "
            f"came back {cls.kind!r}"
        )


class OrbitBlocks(Configuration):
    """Block layout along the forward orbit of one anchor point.

    Plain variant: the orbit of the anchor reads s_1 copies of the block-1
    symbol, then s_2 copies of the block-2 symbol, and so on, where block r
    shows mark p exactly when r belongs to the member set; everything off the
    forward orbit shows q.

    Weave variant: after block r, a splice of r symbols of a supplied source
    is written, symbol j read at coordinate origin + j, origin the anchor's
    chain offset (no chain coordinates, or a source off the integers:
    PreconditionError).  The reads are cached in `source_cache`; members that
    share a source and an anchor may share one cache, so each source symbol is
    read once.

    Where block r and its splice sit is not computed here: `lengths.locate`
    maps an orbit position to (r, offset, in_splice), from the one block-end
    list that every member built on the same lengths object shares.

    `runs_along` reads the orbit one run per block and one per splice symbol;
    a walk that starts off the orbit reads q up to where `orbits.first_join`
    says it meets the orbit.  Each walk's runs along the layout's own map
    are kept by start: the longest read serves every shorter one, cut short.

    A shifted read (`symbols_after`) along the layout's own map reads each
    index at orbit position power + k, k its signed offset from the anchor
    (`orbits.window_offsets`, resolved once per window), without building the
    shifted coordinate.  A window without offsets there, or a negative power,
    iterates the map first.

    The anchor must have a proven infinite orbit (PreconditionError, a
    ValueError, otherwise).
    """

    def __init__(self, m: SelfMap, anchor: Index, lengths, members,
                 alphabet: Alphabet, weave_source: Optional[Configuration] = None,
                 source_cache: Optional[dict[int, str]] = None):
        _require_infinite_orbit(m, anchor)
        self.domain = m.domain
        self.map = m
        self.anchor = anchor
        self.lengths = lengths  # BlockLengths: value(r), horizon(r), locate(pos), variant
        self.members = members  # BlockSet-like: contains(r), describe()
        self.alphabet = alphabet
        self.weave_source = weave_source
        if (lengths.variant == "weave") != (weave_source is not None):
            raise ValueError("weave layout and weave source must come together")
        if weave_source is not None:
            if weave_source.domain.kind != "integers":
                raise PreconditionError(
                    f"a weave source is read at integer coordinates, not on a "
                    f"{weave_source.domain.kind} domain")
            coords = chain_coordinates(m, anchor)
            if coords is None:
                raise PreconditionError(f"a {m.rule!r} map has no chain coordinates to weave along")
            self._origin = coords[1]
        self._source_cache = {} if source_cache is None else source_cache
        self._walks: dict[Index, tuple[int, list[Run]]] = {}  # start -> (count, runs)

    def _source_symbol(self, j: int) -> str:
        hit = self._source_cache.get(j)
        if hit is None:
            hit = self.weave_source.symbol_at(Index((), self._origin + j))
            self._source_cache[j] = hit
        return hit

    def block_symbol(self, r: int) -> str:
        """Mark p on block r when r is in the member set, q otherwise."""
        return self.alphabet.p if self.members.contains(r) else self.alphabet.q

    # -- configuration interface ----------------------------------------------

    def symbol_at(self, index: Index) -> str:
        pos = orbit_position(self.map, self.anchor, index)
        if pos is None:  # off the orbit: q, when on the domain at all
            _refuse_off_domain(self.domain, index)
            return self.alphabet.q
        return self._symbol_at_position(pos)

    def symbols_after(self, m: SelfMap, window: Sequence[Index], power: int) -> list[str]:
        offsets = window_offsets(m, self.anchor, tuple(window)) if m == self.map else None
        if not offsets or power < 0:
            return super().symbols_after(m, window, power)
        # a weave entry check reads a whole window inside one splice: locate
        # the lowest position once and read the rest at their distance from
        # it, straight from the shared source cache when every read is there
        low = min(offsets)
        start = power + low
        if start >= 0:
            r, offset, in_splice = self.lengths.locate(start)
            if in_splice and offset + max(offsets) - low < r:
                base, cache = offset - low, self._source_cache
                out = [cache.get(base + k) for k in offsets]
                if None in out:
                    out = [self._source_symbol(base + k) for k in offsets]
                return out
        return [self._symbol_at_position(power + k) for k in offsets]

    def _symbol_at_position(self, pos: int) -> str:
        # phi^power(index) sits at orbit position power + k when k is the
        # index's offset; a negative one is off the forward orbit, because
        # landing on it would close the anchor's orbit into a cycle
        if pos < 0:
            return self.alphabet.q
        r, offset, in_splice = self.lengths.locate(pos)
        if in_splice:
            return self._source_symbol(offset)
        return self.block_symbol(r)

    def runs_along(self, m: SelfMap, start: Index, count: int) -> list[Run]:
        if count <= 0:
            return []
        if m != self.map:
            return super().runs_along(m, start, count)
        hit = self._walks.get(start)
        if hit is not None and hit[0] >= count:
            return _cut_runs(hit[1], count)
        runs = self._walk(start, count)
        self._walks[start] = (count, runs)
        return list(runs)

    def _walk(self, start: Index, count: int) -> list[Run]:
        # q up to where the walk first meets the anchor's orbit (all of it when
        # it never does), then one run per block and one per splice symbol
        done, pos = first_join(self.map, start, self.anchor, count) or (count, None)
        runs: list[Run] = [(done, self.alphabet.q)] if done else []
        while done < count:
            r, offset, in_splice = self.lengths.locate(pos)
            if in_splice:
                take = min(r - offset, count - done)
                for j in range(offset, offset + take):
                    _push_run(runs, 1, self._source_symbol(j))
            else:
                take = min(self.lengths.value(r) - offset, count - done)
                _push_run(runs, take, self.block_symbol(r))
            done += take
            pos += take
        return runs


class Embedded(Configuration):
    """A one-sided sequence written along phi^n(anchor), n >= 1, filler elsewhere.

    Coordinate phi^n(anchor) carries the inner configuration's n-th symbol; every
    other coordinate (the anchor itself included) carries the filler mark.
    The anchor must have a proven infinite orbit, as for OrbitBlocks.
    """

    def __init__(self, m: SelfMap, anchor: Index, inner: Configuration, fill: str):
        _require_infinite_orbit(m, anchor)
        if inner.domain.kind != "naturals":
            raise ValueError("inner configuration must live on the naturals")
        self.domain = m.domain
        self.map = m
        self.anchor = anchor
        self.inner = inner
        self.fill = fill

    def symbol_at(self, index: Index) -> str:
        pos = orbit_position(self.map, self.anchor, index)
        if pos is None:
            _refuse_off_domain(self.domain, index)
        if pos is None or pos == 0:
            return self.fill
        return self.inner.symbol_at(Index((), pos))


class Shifted(Configuration):
    """Lazy shift: reading coordinate i of the shifted configuration reads
    coordinate phi^power(i) of the base."""

    def __init__(self, base: Configuration, m: SelfMap, power: int):
        if power < 0:
            raise ValueError("shift power must be >= 0")
        self.domain = base.domain
        self.base = base
        self.map = m
        self.power = power

    def symbol_at(self, index: Index) -> str:
        return self.base.symbols_after(self.map, (index,), self.power)[0]

    def symbols_at(self, window: Sequence[Index]) -> list[str]:
        return self.base.symbols_after(self.map, window, self.power)

    def runs_along(self, m: SelfMap, start: Index, count: int) -> list[Run]:
        if m == self.map:
            return self.base.runs_along(m, iterate(m, start, self.power), count)
        return super().runs_along(m, start, count)


def shifted(config: Configuration, m: SelfMap, power: int) -> Configuration:
    """Shift a configuration by the map, collapsing stacked shifts over the same map."""
    if isinstance(config, Shifted) and config.map == m:
        return Shifted(config.base, m, config.power + power)
    return Shifted(config, m, power)


# ---------------------------------------------------------------------------
# Windows and cylinder patterns.
# ---------------------------------------------------------------------------


def make_window(indices: Sequence[Index]) -> tuple[Index, ...]:
    out = tuple(indices)
    if not out:
        raise ValueError("window must be nonempty")
    if len(set(out)) != len(out):
        raise ValueError("window indices must be distinct")
    return out


def window_from_ranks(domain: IndexDomain, ranks: Sequence[int]) -> tuple[Index, ...]:
    return make_window([enumerate_index(domain, r) for r in ranks])


class CylinderPattern(Record):
    """Finite window plus a symbol prescription on it."""

    window: tuple[Index, ...]
    symbols: tuple[str, ...]

    def __post_init__(self):
        window, symbols = self
        if len(window) != len(symbols):
            raise ValueError("window and symbols must align")
        make_window(window)

    def items(self):
        return zip(self.window, self.symbols)


def pattern_json(domain: IndexDomain, pattern: CylinderPattern) -> dict:
    return {
        "window": [rank_of(domain, i) for i in pattern.window],
        "symbols": list(pattern.symbols),
    }


def in_cylinder(config: Configuration, pattern: CylinderPattern) -> bool:
    return tuple(config.symbols_at(pattern.window)) == pattern.symbols


# ---------------------------------------------------------------------------
# Dyadic metric: d(x, y) = sum over ranks i of [x(beta_i) != y(beta_i)] * 2^-i.
# All values are exact rationals; `fractions` is imported inside the three
# functions below, so a caller that never measures distance does not load it.
# ---------------------------------------------------------------------------


def metric_less_than(x: Configuration, y: Configuration, t: Fraction,
                     depth_cap: int = 512) -> bool:
    """Exact decision of d(x, y) < t, inspecting ranks until certified either way."""
    from fractions import Fraction

    if t <= 0:
        return False
    t = Fraction(t)
    domain = x.domain
    size = domain_size(domain)
    last = depth_cap if size is None else min(depth_cap, size)
    partial = Fraction(0)
    for m in range(1, last + 1):
        beta = enumerate_index(domain, m)
        if x.symbol_at(beta) != y.symbol_at(beta):
            partial += Fraction(1, 2 ** m)
        if partial >= t:
            return False
        if partial + Fraction(1, 2 ** m) < t:
            return True
    if last == size:  # past a finite domain's last rank the partial sum is the distance
        return True
    raise MetricResolutionError(
        f"comparison with {t} unresolved after {depth_cap} ranks"
    )


def threshold_to_window(domain: IndexDomain, t: Fraction) -> tuple[Index, ...]:
    """Smallest initial window {beta_1..beta_m} with 2^-m < t, or the whole
    of a finite domain that has fewer ranks.

    Agreement on the window forces metric distance below t via the tail bound
    (on a whole finite domain, distance 0).
    """
    from fractions import Fraction

    t = Fraction(t)
    if t <= 0:
        raise ValueError("threshold must be > 0")
    size = domain_size(domain)
    m = 1
    while Fraction(1, 2 ** m) >= t and m != size:
        m += 1
        if m > 4096:
            raise ValueError("threshold too small to bracket")
    return window_from_ranks(domain, range(1, m + 1))


def window_to_threshold(domain: IndexDomain, window: Sequence[Index]) -> Fraction:
    """2^-(max rank in the window): metric distance below it forces window agreement."""
    from fractions import Fraction

    ranks = [rank_of(domain, i) for i in make_window(window)]
    return Fraction(1, 2 ** max(ranks))
