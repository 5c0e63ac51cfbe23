"""Orbit analysis for catalog self-maps: classification, profiles, chains.

Every answer is a three-valued verdict (proven true / proven false / unknown)
carrying a witness or a named certificate plus a provenance tag.  Maps on the
integers read certified facts (periodic sets, growth of orbits, injectivity)
off their rule-table records, tables are analysed exhaustively and unions side
by side, so every map is decided; `unknown` stays so that an undecided fact
can never read as a proof.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .indexspace import (
    BudgetExceededError,
    DomainMismatchError,
    Index,
    Record,
    SelfMap,
    chain_coordinates,
    contains,
    cycle_walk,
    evaluate,
    region_indices,
    route,
)

__all__ = [
    "Verdict",
    "PointClassification",
    "MapProfile",
    "ChainDecomposition",
    "UnresolvedOrbitError",
    "proven_true",
    "proven_false",
    "unknown",
    "v_not",
    "v_and",
    "v_or",
    "classify_point",
    "map_profile",
    "chain_decomposition",
    "orbit_position",
    "first_join",
    "window_offsets",
]

PROVEN_TRUE = "proven_true"
PROVEN_FALSE = "proven_false"
UNKNOWN = "unknown"


class UnresolvedOrbitError(RuntimeError):
    """Orbit membership could not be decided within the available certificates."""


class Verdict(Record):
    """Three-valued answer with evidence.

    provenance: "exhaustive" (finite domain fully checked),
    "analytic-metadata" (a certified fact of the map's rule record), or
    "bounded-search" (an undecided verdict).  Unknown verdicts record a
    budget instead of evidence.
    """

    truth: str
    witness: Optional[tuple] = None
    certificate: Optional[str] = None
    provenance: str = "analytic-metadata"
    budget: Optional[int] = None

    @property
    def is_true(self) -> bool:
        return self.truth == PROVEN_TRUE

    @property
    def is_false(self) -> bool:
        return self.truth == PROVEN_FALSE

    @property
    def is_unknown(self) -> bool:
        return self.truth == UNKNOWN

    def to_json(self) -> dict:
        out: dict = {"truth": self.truth, "provenance": self.provenance}
        if self.witness is not None:
            out["witness"] = [repr(w) for w in self.witness]
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.budget is not None:
            out["budget"] = self.budget
        return out


def proven_true(witness=None, certificate=None, provenance="analytic-metadata") -> Verdict:
    if witness is None and certificate is None:
        raise ValueError("a definite verdict needs a witness or a certificate")
    return Verdict(PROVEN_TRUE, witness, certificate, provenance)


def proven_false(witness=None, certificate=None, provenance="analytic-metadata") -> Verdict:
    if witness is None and certificate is None:
        raise ValueError("a definite verdict needs a witness or a certificate")
    return Verdict(PROVEN_FALSE, witness, certificate, provenance)


def unknown(budget: int) -> Verdict:
    return Verdict(UNKNOWN, provenance="bounded-search", budget=budget)


def v_not(v: Verdict) -> Verdict:
    if v.is_unknown:
        return v
    return Verdict(
        PROVEN_FALSE if v.is_true else PROVEN_TRUE,
        v.witness,
        v.certificate,
        v.provenance,
    )


def _worst_provenance(a: Verdict, b: Verdict) -> str:
    order = {"exhaustive": 0, "analytic-metadata": 1, "bounded-search": 2}
    return a.provenance if order[a.provenance] >= order[b.provenance] else b.provenance


def v_and(a: Verdict, b: Verdict) -> Verdict:
    if a.is_false:
        return a
    if b.is_false:
        return b
    if a.is_true and b.is_true:
        return Verdict(
            PROVEN_TRUE,
            a.witness or b.witness,
            a.certificate or b.certificate,
            _worst_provenance(a, b),
        )
    return a if a.is_unknown else b


def v_or(a: Verdict, b: Verdict) -> Verdict:
    if a.is_true:
        return a
    if b.is_true:
        return b
    if a.is_false and b.is_false:
        return Verdict(
            PROVEN_FALSE,
            a.witness or b.witness,
            a.certificate or b.certificate,
            _worst_provenance(a, b),
        )
    return a if a.is_unknown else b


class PointClassification(Record):
    """Forward-orbit shape of a single point.

    kind: "periodic" (returns to itself; period recorded), "quasi_periodic"
    (finite orbit, never returns; preperiod and eventual period recorded),
    "non_quasi_periodic" (infinite orbit), or "unknown" (undecided).
    """

    kind: str
    period: Optional[int] = None
    preperiod: Optional[int] = None
    certificate: Optional[str] = None
    provenance: str = "analytic-metadata"
    budget: Optional[int] = None

    @property
    def is_non_quasi_periodic(self) -> bool:
        return self.kind == "non_quasi_periodic"


class VerdictFields:
    """Truths and JSON, in field order, of a record whose fields are all verdicts
    (a plain mixin: a Record subclass must declare fields of its own)."""

    def truths(self) -> tuple[str, ...]:
        # a list, not a generator: a generator per call raised a 46,656-table sweep's peak RSS ~1%
        return tuple([verdict.truth for verdict in self])

    def to_json(self) -> dict:
        return {name: verdict.to_json() for name, verdict in zip(self._fields, self)}


class MapProfile(VerdictFields, Record):
    """The three dynamical facts that drive every chaos prediction."""

    injective: Verdict
    has_periodic_point: Verdict
    has_non_quasi_periodic_point: Verdict


class ChainDecomposition(Record):
    """One representative per chain that meets the region |coord| <= region_bound."""

    representatives: tuple[Index, ...]
    region_bound: int


# ---------------------------------------------------------------------------
# Point classification.  Tables walk every orbit to its cycle, union maps ask
# the side that owns the point, and maps on the integers read the certified
# facts (RuleFacts) of their rule record.
# ---------------------------------------------------------------------------


def _kind(preperiod: int) -> str:
    return "periodic" if preperiod == 0 else "quasi_periodic"


def classify_point(m: SelfMap, index: Index) -> PointClassification:
    """Classify the forward orbit of one point."""
    if not contains(m.domain, index):
        raise DomainMismatchError(f"{index!r} not in map domain")
    if m.left is not None:
        return route(m, index, classify_point)
    if m.table is not None:
        points, pre = cycle_walk(m.table.__getitem__, index.coord)
        return PointClassification(_kind(pre), len(points) - pre, pre, provenance="exhaustive")
    facts = m.record.facts
    if facts.period is not None and facts.period_parity in (None, index.coord & 1):
        return PointClassification("periodic", facts.period, 0, certificate=facts.note)
    shape = facts.finite.get(index.coord)
    if shape is not None:
        pre, per = shape
        return PointClassification(_kind(pre), per, pre, certificate=facts.finite_note)
    return PointClassification("non_quasi_periodic", certificate=facts.note)


# ---------------------------------------------------------------------------
# Map profiles.
# ---------------------------------------------------------------------------


def map_profile(m: SelfMap) -> MapProfile:
    """Injectivity, periodic-point existence, and infinite-orbit existence for the map."""
    if m.table is not None:
        return _table_profile(m.table)
    if m.left is not None:
        return _union_profile(map_profile(m.left), map_profile(m.right))
    facts = m.record.facts
    if facts.injective:
        inj = proven_true(certificate="certified injective rule")
    else:
        a, b = facts.collision
        inj = proven_false(witness=(Index((), a), Index((), b)))
    if facts.period is not None and facts.period_parity is None:
        per = proven_true(witness=(Index((), 0),))
        nqp = proven_false(certificate="every orbit is certified finite")
        return MapProfile(inj, per, nqp)
    if facts.period is not None:  # one parity class is periodic, the other drifts
        periodic = [facts.period_parity]
    else:
        periodic = [c for c, (pre, _) in facts.finite.items() if pre == 0]
    if periodic:
        per = proven_true(witness=(Index((), min(periodic)),))
    else:
        per = proven_false(certificate="certified aperiodic rule")
    nqp = proven_true(witness=(Index((), facts.nqp_witness),), certificate=facts.note)
    return MapProfile(inj, per, nqp)


@lru_cache(maxsize=1024)
def _shared_table_profile(pair: Optional[tuple[int, int]], periodic: int) -> MapProfile:
    if pair is None:
        inj = proven_true(certificate="no collision among all entries", provenance="exhaustive")
    else:
        inj = proven_false(witness=(Index((), pair[0]), Index((), pair[1])),
                           provenance="exhaustive")
    per = proven_true(witness=(Index((), periodic),), provenance="exhaustive")
    nqp = proven_false(certificate="finite domain forces every orbit onto a cycle",
                       provenance="exhaustive")
    return MapProfile(inj, per, nqp)


def _table_profile(table: tuple[int, ...]) -> MapProfile:
    """Exhaustive profile of a finite table, shared per distinct value.

    A table's profile depends only on its collision pair (or its lack of
    one) and its periodic witness, so equal profiles are one frozen object
    from a bounded cache keyed by those plain ints.  The witnesses are the
    first collision in coordinate order (rank order on finite ranges) and
    the first point the walk from 0 repeats.  One pass over the entries
    finds the first collision, or proves injectivity by running off the end.
    """
    pair = None
    first_source: dict[int, int] = {}
    for src, tgt in enumerate(table):
        a = first_source.setdefault(tgt, src)
        if a != src:
            pair = (a, src)
            break
    seen = [False] * len(table)
    cur = 0
    while not seen[cur]:
        seen[cur] = True
        cur = table[cur]
    return _shared_table_profile(pair, cur)


def _union_profile(lp: MapProfile, rp: MapProfile) -> MapProfile:
    # tagged sides never interact, so the union facts combine exactly
    def lift(v: Verdict, side: str) -> Verdict:
        if v.witness is None:
            return v
        tagged = tuple(Index((side,) + w.path, w.coord) for w in v.witness)
        return Verdict(v.truth, tagged, v.certificate, v.provenance, v.budget)

    inj = v_and(lift(lp.injective, "L"), lift(rp.injective, "R"))
    per = v_or(lift(lp.has_periodic_point, "L"), lift(rp.has_periodic_point, "R"))
    nqp = v_or(
        lift(lp.has_non_quasi_periodic_point, "L"),
        lift(rp.has_non_quasi_periodic_point, "R"),
    )
    return MapProfile(inj, per, nqp)


# ---------------------------------------------------------------------------
# Chain decomposition for injective aperiodic maps.
# ---------------------------------------------------------------------------


def chain_decomposition(m: SelfMap, bound: int) -> ChainDecomposition:
    """One representative per chain of the region |coord| <= bound.

    Representatives are the minimal-rank member of each chain: the first point
    with each chain key, in rank order.  Requires a certified injective,
    aperiodic map (a translation or unions of them, so every point has chain
    coordinates); the profile is re-checked here so callers cannot feed a map
    whose chains could collide.
    """
    profile = map_profile(m)
    if not profile.injective.is_true:
        raise ValueError(f"chain decomposition needs proven injectivity, got {profile.injective.truth}")
    if not profile.has_periodic_point.is_false:
        raise ValueError(
            f"chain decomposition needs proven aperiodicity, got {profile.has_periodic_point.truth}"
        )
    reps: dict = {}  # chain key -> its first point
    for x in region_indices(m.domain, bound):
        reps.setdefault(chain_coordinates(m, x)[0], x)
    return ChainDecomposition(tuple(reps.values()), bound)


# ---------------------------------------------------------------------------
# Orbit-position resolution: is kappa on the forward orbit of theta, and where?
# Exact answers only; raises UnresolvedOrbitError when a walk outgrows the bit budget.
# first_join asks it of a whole walk: where does it first meet the anchor's orbit?
# ---------------------------------------------------------------------------


def _steps(a: tuple, t: Optional[tuple]) -> Optional[int]:
    """Signed steps from chain coordinates a to t (forward on a cycle), or None."""
    if t is None or a[0] != t[0]:
        return None
    k = t[1] - a[1]
    return k if a[2] is None else k % a[2]


def orbit_position(m: SelfMap, anchor: Index, target: Index) -> Optional[int]:
    """Position n >= 0 with iterate(m, anchor, n) == target, or None when off-orbit;
    read off chain coordinates, else walked (a table or a growing record) to
    the target, a repeat, or past max(growth bound, |target|); a coordinate
    past the bit budget raises UnresolvedOrbitError."""
    if anchor.path != target.path:
        return None
    if m.left is not None:
        return route(m, anchor, orbit_position, Index(target.path[1:], target.coord))
    rule = m.record
    if rule.chain is not None:
        k = _steps(rule.chain(m, anchor), rule.chain(m, target))
        return None if k is None or k < 0 else k
    cur, seen = anchor, set()
    while cur != target:
        if cur in seen or (rule.grows is not None
                           and abs(cur.coord) > max(rule.grows, abs(target.coord))):
            return None
        seen.add(cur)
        try:
            cur = evaluate(m, cur)
        except BudgetExceededError as exc:
            raise UnresolvedOrbitError(str(exc)) from exc
    return len(seen)


def first_join(m: SelfMap, walker: Index, anchor: Index,
               limit: int) -> Optional[tuple[int, int]]:
    """The least n < limit with phi^n(walker) == phi^k(anchor), k >= 0, as (n, k),
    or None.  Union halves never meet (every map keeps the tag path); chain
    coordinates give the signed steps k from anchor to walker (n = max(-k, 0));
    a walk without them (a table or a growing record) steps until it joins,
    repeats or reaches the limit, and past the bit budget raises
    UnresolvedOrbitError."""
    if not contains(m.domain, walker):
        raise DomainMismatchError(f"{walker!r} not in map domain")
    if walker.path != anchor.path:
        return None
    origin = chain_coordinates(m, anchor)
    if origin is not None:
        k = _steps(origin, chain_coordinates(m, walker))
        if k is None or max(-k, 0) >= limit:
            return None
        return (0, k) if k >= 0 else (-k, 0)
    cur, seen = walker, set()
    while len(seen) < limit and cur not in seen:
        k = orbit_position(m, anchor, cur)
        if k is not None:
            return len(seen), k
        seen.add(cur)
        try:
            cur = evaluate(m, cur)
        except BudgetExceededError as exc:
            raise UnresolvedOrbitError(str(exc)) from exc
    return None


@lru_cache(maxsize=1024)
def window_offsets(m: SelfMap, anchor: Index,
                   window: tuple[Index, ...]) -> Optional[tuple[int, ...]]:
    """Signed steps k from the anchor to each index of a window, in window order:
    phi^k(anchor) == index when k >= 0, phi^-k(index) == anchor when k < 0.

    The one closed-form offset resolution, one chain-coordinate read per
    index; None when the map has no chain coordinates (see `Rule`) or an
    index is off the domain or off the anchor's chain.  Kept per (map,
    anchor, window) in a bounded cache: a weave entry check resolves its
    pattern's window once, for the exponent and for every member's read.
    """
    origin = chain_coordinates(m, anchor)
    if origin is None or not all(contains(m.domain, index) for index in window):
        return None
    out = tuple(_steps(origin, m.record.chain(m, index)) for index in window)
    return None if None in out else out
