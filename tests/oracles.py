"""Test-only oracles: independent, deliberately naive recomputations that the
library's answers are checked against."""

from bisect import bisect_right
from fractions import Fraction
from typing import Optional, Sequence

from gshift.configspace import Configuration, CylinderPattern, window_from_ranks
from gshift.constructions import PatternEnumeration, ScrambledFamilySpec
from gshift.indexspace import (
    Index,
    IndexDomain,
    SelfMap,
    enumerate_index,
    evaluate,
    preimage,
    region_indices,
)
from gshift.orbits import MapProfile, proven_false, proven_true
from gshift.stats import orbit_window


def brute_force_profile(m: SelfMap) -> MapProfile:
    """Ground-truth profile for finite tables by enumerating every orbit explicitly."""
    if m.rule != "table":
        raise ValueError("brute_force_profile handles finite tables only")
    table = m.table
    size = len(table)
    # injectivity by counting in-degrees (a different route than map_profile's scan)
    indeg = [0] * size
    for tgt in table:
        indeg[tgt] += 1
    collision_target = next((t for t in range(size) if indeg[t] > 1), None)
    if collision_target is None:
        inj = proven_true(certificate="all in-degrees equal one", provenance="exhaustive")
    else:
        srcs = [s for s in range(size) if table[s] == collision_target][:2]
        inj = proven_false(witness=(Index((), srcs[0]), Index((), srcs[1])),
                           provenance="exhaustive")
    # walking any point `size` steps lands on a cycle, giving a periodic witness
    cur = 0
    for _ in range(size):
        cur = table[cur]
    per = proven_true(witness=(Index((), cur),), provenance="exhaustive")
    # enumerate every orbit explicitly; each must revisit, so none is infinite
    for start in range(size):
        seen = set()
        walker = start
        while walker not in seen:
            seen.add(walker)
            walker = table[walker]
    nqp = proven_false(certificate="every enumerated orbit repeated", provenance="exhaustive")
    return MapProfile(inj, per, nqp)


def table_json(table: Sequence[int]) -> tuple[dict, dict]:
    """The to_json() of map_profile and of predict for a finite table, written
    out by hand: the collision witness is the first colliding pair in
    coordinate order, the periodic witness the first point that the walk
    from 0 repeats."""
    first_source: dict[int, int] = {}
    pair = None
    for b, tgt in enumerate(table):
        if tgt in first_source:
            pair = (first_source[tgt], b)
            break
        first_source[tgt] = b
    visited, cur = set(), 0
    while cur not in visited:
        visited.add(cur)
        cur = table[cur]
    if pair is None:
        inj = {"truth": "proven_true", "provenance": "exhaustive",
               "certificate": "no collision among all entries"}
    else:
        inj = {"truth": "proven_false", "provenance": "exhaustive",
               "witness": [str(pair[0]), str(pair[1])]}
    per = {"truth": "proven_true", "provenance": "exhaustive", "witness": [str(cur)]}
    nqp = {"truth": "proven_false", "provenance": "exhaustive",
           "certificate": "finite domain forces every orbit onto a cycle"}
    aperiodic = dict(per, truth="proven_false")
    profile = {"injective": inj, "has_periodic_point": per,
               "has_non_quasi_periodic_point": nqp}
    # transitive DC needs injectivity and aperiodicity; the first false one is reported
    prediction = {"li_yorke": nqp, "distributional": nqp, "omega": nqp,
                  "dense_distributional": aperiodic,
                  "transitive_distributional": inj if pair is not None else aperiodic}
    return profile, prediction


def converted_table(entries) -> tuple[int, ...]:
    """The table `table_map` builds from `entries`, every entry converted with
    `int` whatever its type; raises what `table_map` raises on a bad table."""
    entries = tuple(entries)
    table = tuple(map(int, entries))
    if table != entries:  # some conversion changed a value: refuse a truncation
        for entry, value in zip(entries, table):
            if value != entry and not isinstance(entry, (str, bytes)):
                raise ValueError(f"table entry {entry!r} is not an integer")
    size = len(table)
    if size < 1:
        raise ValueError("table_map needs at least one entry")
    bad = next((e for e in table if not 0 <= e < size), None)
    if bad is not None:
        raise ValueError(f"table entry {bad} outside range 0..{size - 1}")
    return table


def scanned_pattern(en: PatternEnumeration, n: int) -> CylinderPattern:
    """The n-th cylinder pattern by scanning every mask of its group in order:
    mask bit r - 1 adds rank r below the group's rank m, and a mask with c
    bits set holds g^(c + 1) symbol choices, earliest rank varying slowest."""
    symbols = en.alphabet.symbols
    g = len(symbols)
    m, before = 1, 0
    while before + g * (1 + g) ** (m - 1) < n:
        before += g * (1 + g) ** (m - 1)
        m += 1
    offset = n - before - 1
    for mask in range(2 ** (m - 1)):
        ranks = [r for r in range(1, m) if mask >> (r - 1) & 1] + [m]
        block = g ** len(ranks)
        if offset < block:
            digits = []
            for _ in ranks:
                offset, d = divmod(offset, g)
                digits.append(d)
            digits.reverse()
            return CylinderPattern(tuple(enumerate_index(en.domain, r) for r in ranks),
                                   tuple(symbols[d] for d in digits))
        offset -= block
    raise AssertionError("group sizes disagree with the scan")


def bisected_location(variant: str, position: int) -> tuple[int, int, bool]:
    """BlockLengths.locate by a plain bisect over segment starts, rebuilt from
    the length rule for every query: block n starts at orbit position b and
    has (n - 1) * b + 1 symbols, and in the weave layout a splice of n symbols
    follows it."""
    starts: list[int] = []
    segments: list[tuple[int, bool]] = []
    start, n = 0, 0
    while start <= position:
        n += 1
        starts.append(start)
        segments.append((n, False))
        start += (n - 1) * start + 1
        if variant == "weave":
            starts.append(start)
            segments.append((n, True))
            start += n
    seg = bisect_right(starts, position) - 1
    r, in_splice = segments[seg]
    return r, position - starts[seg], in_splice


def walked_signed_orbit_index(m: SelfMap, anchor: Index, target: Index,
                              radius: int) -> Optional[int]:
    """The signed orbit index of target by stepping: the first of up to radius
    forward steps from the anchor that lands on target, else the first of up
    to radius certified preimages of the anchor that equals target, counted
    negatively."""
    cur = anchor
    for i in range(radius + 1):
        if cur == target:
            return i
        cur = evaluate(m, cur)
    cur = anchor
    for i in range(1, radius + 1):
        cur = preimage(m, cur)
        if cur is None:
            return None
        if cur == target:
            return -i
    return None


def stepped_join(m: SelfMap, walker: Index, anchor: Index, limit: int,
                 reach: int) -> Optional[tuple[int, int]]:
    """`orbits.first_join` by stepping both orbits: the least n < limit whose
    point is among the first `reach` points of the anchor's orbit, with its
    least position there.  Exact when every join before the limit lies at an
    anchor position below `reach`."""
    orbit: dict[Index, int] = {}
    cur = anchor
    for k in range(reach):
        orbit.setdefault(cur, k)
        cur = evaluate(m, cur)
    cur = walker
    for n in range(limit):
        if n:
            cur = evaluate(m, cur)
        if cur in orbit:
            return n, orbit[cur]
    return None


def capped_orbit_shape(m: SelfMap, start: Index, steps: int,
                       magnitude: int) -> Optional[tuple[int, int]]:
    """(preperiod, period) of start's orbit by stepping, or None when nothing
    repeats within `steps` steps or before a coordinate passes `magnitude`."""
    seen: dict[Index, int] = {}
    cur = start
    for i in range(steps + 1):
        if cur in seen:
            return seen[cur], i - seen[cur]
        if abs(cur.coord) > magnitude:
            return None
        seen[cur] = i
        cur = evaluate(m, cur)
    return None


def stepped_chain_representatives(m: SelfMap, bound: int, steps: int) -> list[Index]:
    """Chain representatives of the region |coord| <= bound by stepping: in
    rank order, a point not yet met starts a chain, and `steps` forward and
    `steps` backward moves from it mark the region points of its chain.  Exact
    when any two region points on one chain lie at most `steps` moves apart:
    an aperiodic translation n -> n + d[n mod 2] moves at least one coordinate
    per step on average, so 4 * bound + 8 steps are enough when |d| <= 4."""
    met: set[Index] = set()
    reps: list[Index] = []
    for start in region_indices(m.domain, bound):
        if start in met:
            continue
        reps.append(start)
        for move in (lambda i: evaluate(m, i), lambda i: preimage(m, i)):
            cur = start
            for _ in range(steps):
                cur = move(cur)
                if cur is None:
                    break
                met.add(cur)
    return reps


def parse_index(text: str) -> Index:
    """Inverse of format_index: "L0" -> Index(("L",), 0), "-3" -> Index((), -3)."""
    i = 0
    while i < len(text) and text[i] in "LR":
        i += 1
    return Index(tuple(text[:i]), int(text[i:]))


def pattern_from_ranks(domain: IndexDomain, ranks: Sequence[int],
                       symbols: Sequence[str]) -> CylinderPattern:
    return CylinderPattern(window_from_ranks(domain, ranks), tuple(symbols))


def parse_pattern(domain: IndexDomain, obj) -> CylinderPattern:
    if not isinstance(obj, dict) or "window" not in obj or "symbols" not in obj:
        raise ValueError("pattern must be an object with 'window' and 'symbols'")
    return pattern_from_ranks(domain, obj["window"], obj["symbols"])


def expand(runs: Sequence[tuple[int, str]]) -> list[str]:
    """Maximal (length, symbol) runs, as from runs_along, one symbol per position."""
    return [symbol for length, symbol in runs for _ in range(length)]


def agree_on_window(x: Configuration, y: Configuration,
                    window: Sequence[Index]) -> bool:
    return all(x.symbol_at(i) == y.symbol_at(i) for i in window)


def truncated_distance(x: Configuration, y: Configuration, depth: int) -> Fraction:
    """Partial metric sum through enumeration rank `depth` (a lower bound on d)."""
    domain = x.domain
    total = Fraction(0)
    for i in range(1, depth + 1):
        beta = enumerate_index(domain, i)
        if x.symbol_at(beta) != y.symbol_at(beta):
            total += Fraction(1, 2 ** i)
    return total


def agreement_flags(m: SelfMap, x: Configuration, y: Configuration,
                    window: Sequence[Index], n: int) -> list[bool]:
    """flags[i] says the pair agrees on the whole window after i shifts (i < n),
    compared symbol by symbol."""
    flags = [True] * n
    for d in window:
        sx = expand(x.runs_along(m, d, n))
        sy = expand(y.runs_along(m, d, n))
        for i in range(n):
            if flags[i] and sx[i] != sy[i]:
                flags[i] = False
    return flags


def per_position_count(m: SelfMap, x: Configuration, y: Configuration,
                       window: Sequence[Index], n: int) -> int:
    """#{i < n : the shifted pair agrees on the window}, one position at a time."""
    return sum(agreement_flags(m, x, y, window, n))


def per_block_bound(spec: ScrambledFamilySpec, members: Sequence[Configuration],
                    i: int, j: int, r: int,
                    offsets: Sequence[int]) -> Optional[tuple[int, bool]]:
    """Block r's construction estimate for members i and j, replayed on its own
    as (count, holds): one count at n_r on the window of r's membership case.
    None when r lies in neither member set of the spec's family."""
    in_i = spec.family.members[i].contains(r)
    in_j = spec.family.members[j].contains(r)
    n_r, s_r = spec.lengths.horizon(r), spec.lengths.value(r)
    x, y = members[i], members[j]
    if in_i and in_j:
        radius = max(abs(o) for o in offsets)
        window = orbit_window(spec.map, spec.anchor, offsets)
        slack = 2 * radius if spec.lengths.variant == "weave" else 4 * radius
        count = per_position_count(spec.map, x, y, window, n_r)
        return count, count >= s_r - slack - 1
    if in_i or in_j:
        count = per_position_count(spec.map, x, y, (spec.anchor,), n_r)
        return count, count <= n_r - s_r + 1
    return None
