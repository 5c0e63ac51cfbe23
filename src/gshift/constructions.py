"""Constructions: block-length schedules, almost-disjoint families, scrambled
configuration families (plain and weave), densification by cylinder patterns,
the length-lex transitive word, and the one-sided embedding.

Everything here is desk-scale: families are finite samples of the uncountable
objects they imitate, but every emitted configuration is a total lazy rule and
every claim about one is either checked directly or derived from a certificate.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Sequence

from .indexspace import (
    INTEGERS,
    DomainMismatchError,
    Index,
    IndexDomain,
    Record,
    SelfMap,
    chain_coordinates,
    enumerate_index,
    rank_of,
)
from .orbits import classify_point, map_profile, orbit_position, window_offsets
from .configspace import (
    Alphabet,
    Configuration,
    Constant,
    CylinderPattern,
    Embedded,
    FinitePatch,
    OrbitBlocks,
    PreconditionError,
    in_cylinder,
)

__all__ = [
    "BlockLengths",
    "PrimePowerSet",
    "ExplicitBlockSet",
    "AlmostDisjointFamily",
    "ScrambledFamilySpec",
    "PatternEnumeration",
    "PreconditionError",
    "block_lengths",
    "verify_length_inequalities",
    "almost_disjoint_family",
    "dc_family",
    "pattern_enumeration",
    "densify_family",
    "transitive_weave_family",
    "LengthLexWord",
    "full_shift_transitive_point",
    "weave_entry_exponent",
    "omega_embedding",
    "shift_inner",
]


# ---------------------------------------------------------------------------
# Block lengths.  Two layouts along the anchor orbit:
#   plain: [block 1][block 2][block 3]...
#   weave: [block 1][splice 1][block 2][splice 2]...   (splice r holds r symbols)
# Block n has length s_n and ends at the horizon n_n = s_1 + ... + s_n, plus
# n(n-1)/2 splice symbols in the weave layout.  Both grow by the same rule,
# s_n / n_n > (n-1)/n, whose least solution is s_n = (n-1) * start_n + 1 where
# start_n = n_n - s_n is the orbit position at which block n begins.
# ---------------------------------------------------------------------------


# Only the block ends are kept, exactly, and block n's end has about
# log2(n!) bits: 10,000 blocks hold about 71 MB in either layout.  A weave
# entry exponent for a window at offset 5 from the anchor would need 30,000
# to 41,000 blocks.
_MAX_BLOCKS = 10_000


class BlockLengths:
    """Lazily extendable strictly increasing block lengths of one variant.

    This is the one owner of the layout: the block-end list grows on demand,
    and every member of a family shares it through `locate` and `horizon`.
    Block r starts where block r - 1 ends, plus the r - 1 symbols of splice
    r - 1 in the weave layout; splice r covers [n_r, n_r + r).
    """

    def __init__(self, variant: str, count: int):
        if variant not in ("plain", "weave"):
            raise ValueError(f"unknown variant {variant!r}")
        if count < 1:
            raise ValueError("count must be >= 1")
        self.variant = variant
        self.count = count
        self._weave = variant == "weave"  # a splice of r symbols follows block r
        self._ends: list[int] = []  # block ends n_1, n_2, ...
        self._last = (0, 0, 1, False)  # (lo, hi, r, in_splice) of the last segment located
        self._extend_to(count)

    def _start(self, r: int) -> int:
        """Orbit position at which block r begins (r may be one past the ends)."""
        if r == 1:
            return 0
        end = self._ends[r - 2]
        return end + (r - 1) if self._weave else end  # no big-int copy in plain

    def _extend_to(self, r: int) -> None:
        if r > _MAX_BLOCKS:  # refused before any block is built
            raise ValueError(f"block {r} lies past the {_MAX_BLOCKS}-block ceiling")
        ends = self._ends
        for n in range(len(ends) + 1, r + 1):
            ends.append(n * self._start(n) + 1)  # start + s_n, s_n = (n - 1) * start + 1

    def value(self, r: int) -> int:
        if r < 1:
            raise ValueError("block index must be >= 1")
        self._extend_to(r)
        return self._ends[r - 1] - self._start(r)

    def horizon(self, r: int) -> int:
        """Orbit position just past block r (weave counts the splices before it)."""
        if r < 0:
            raise ValueError("block index must be >= 0")
        self._extend_to(r)
        return self._ends[r - 1] if r else 0

    def locate(self, position: int) -> tuple[int, int, bool]:
        """(r, offset, in_splice): orbit position `position` >= 0 lies `offset`
        symbols into block r, or into the splice after block r when in_splice.

        One bisect of the block ends finds the block that ends past the
        position; the position lies in that block from its start on, and
        before that in the splice after the block before it.  The last segment
        found answers a position inside it without a search: members sharing
        these lengths are read at the same positions, one after the other.
        The ends only grow by appending, so it never goes stale."""
        lo, hi, r, in_splice = self._last
        if lo <= position < hi:
            return r, position - lo, in_splice
        if position < 0:
            raise ValueError("orbit position must be >= 0")
        ends = self._ends
        while self._start(len(ends) + 1) <= position:  # past the last splice
            self._extend_to(len(ends) + 1)
        r = bisect_right(ends, position)  # blocks ending at or before position
        start = self._start(r + 1)
        if position >= start:
            self._last = (start, ends[r], r + 1, False)
            return r + 1, position - start, False
        lo = ends[r - 1]
        self._last = (lo, start, r, True)
        return r, position - lo, True

    def values(self) -> tuple[int, ...]:
        return tuple(self.value(r) for r in range(1, self.count + 1))


def block_lengths(count: int, variant: str = "plain") -> BlockLengths:
    bl = BlockLengths(variant, count)
    verify_length_inequalities(bl, count)
    return bl


def verify_length_inequalities(bl: BlockLengths, upto: int) -> None:
    """Direct integer check of the growth inequality for every n <= upto."""
    for n in range(1, upto + 1):
        s_n = bl.value(n)
        # s_n / horizon(n) > (n-1)/n, cross-multiplied to stay in integers
        if not n * s_n > (n - 1) * bl.horizon(n):
            raise AssertionError(f"length inequality fails at n={n}")
        if n >= 2 and not s_n > bl.value(n - 1):
            raise AssertionError(f"lengths not strictly increasing at n={n}")


# ---------------------------------------------------------------------------
# Almost-disjoint membership sets: powers of odd primes, optionally augmented
# by the even numbers so that any two members share an infinite set.
# ---------------------------------------------------------------------------


def _odd_primes(count: int) -> list[int]:
    out, n = [], 3
    while len(out) < count:
        if all(n % p for p in range(3, int(n ** 0.5) + 1, 2)):
            out.append(n)
        n += 2
    return out


class PrimePowerSet(Record):
    """{prime^e : e >= 1}, plus all even numbers when augmented."""

    prime: int
    augmented: bool

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        if self.augmented and n % 2 == 0:
            return True
        if n < self.prime:
            return False
        while n % self.prime == 0:
            n //= self.prime
        return n == 1

    def describe(self) -> dict:
        return {"kind": "prime_powers", "prime": self.prime, "augmented": self.augmented}


class ExplicitBlockSet(Record):
    values: frozenset[int]

    def contains(self, n: int) -> bool:
        return n in self.values

    def describe(self) -> dict:
        return {"kind": "explicit", "values": sorted(self.values)}


class AlmostDisjointFamily(Record):
    """k raw prime-power sets (pairwise disjoint) and their augmented variants
    (pairwise intersections all equal to the evens, hence infinite)."""

    raw: tuple[PrimePowerSet, ...]
    members: tuple[PrimePowerSet, ...]


def almost_disjoint_family(k: int) -> AlmostDisjointFamily:
    primes = _odd_primes(k)
    raw = tuple(PrimePowerSet(p, False) for p in primes)
    members = tuple(PrimePowerSet(p, True) for p in primes)
    return AlmostDisjointFamily(raw, members)


# ---------------------------------------------------------------------------
# Scrambled families.
# ---------------------------------------------------------------------------


class ScrambledFamilySpec(Record):
    """Everything needed to lay out one family of block configurations.

    `anchors` is a one-element tuple: every member writes its blocks along the
    orbit of that single anchor.
    """

    map: SelfMap
    anchors: tuple[Index, ...]
    alphabet: Alphabet
    lengths: BlockLengths
    family: AlmostDisjointFamily
    variant: str  # "plain" | "weave"

    def __post_init__(self):
        if len(self.anchors) != 1:
            raise ValueError("a scrambled family uses a single anchor")

    @property
    def anchor(self) -> Index:
        return self.anchors[0]


def dc_family(spec: ScrambledFamilySpec) -> list[OrbitBlocks]:
    """Plain block family: members differ on whole blocks indexed by their sets."""
    if spec.variant != "plain":
        raise ValueError("dc_family builds the plain variant")
    return [  # OrbitBlocks refuses an anchor without a proven infinite orbit
        OrbitBlocks(spec.map, spec.anchor, spec.lengths, member, spec.alphabet)
        for member in spec.family.members
    ]


# ---------------------------------------------------------------------------
# Cylinder-pattern enumeration: a bijection from 1, 2, 3, ... onto all
# (finite window, symbol assignment) pairs.  Windows are grouped by their
# maximum rank M; within a group, the other ranks form a bitmask over
# 1..M-1 ordered numerically; assignments are ordered lexicographically by
# alphabet position along ascending ranks.  With g symbols the group for M
# holds g*(1+g)^(M-1) patterns, so ranks <= M cover (1+g)^M - 1 patterns.
# ---------------------------------------------------------------------------


# The largest rank a pattern may use: `pattern` and `rank_of` both refuse the
# patterns past it, whose numbers exceed (1 + g)^24 - 1 for g symbols.
_MAX_RANK = 24


class PatternEnumeration:
    def __init__(self, alphabet: Alphabet, domain: IndexDomain):
        self.alphabet = alphabet
        self.domain = domain
        self._g = g = len(alphabet.symbols)
        self._digits = _digits(alphabet)
        # ranks <= m cover totals[m] = (1+g)^m - 1 patterns; powers[k] = g^k
        self._totals = [(1 + g) ** m - 1 for m in range(_MAX_RANK + 1)]
        self._powers = [g ** k for k in range(_MAX_RANK + 1)]

    def pattern(self, n: int) -> CylinderPattern:
        """The n-th cylinder pattern (n >= 1).

        Group m holds the windows whose largest rank is m, ordered by the
        mask of their other ranks (bit r - 1 for rank r) and then by their
        symbols, earliest rank varying slowest.  The group is the first whose
        running total (1+g)^m - 1 reaches n, found by one bisect over the
        totals table.  The mask is then read greedily from its top bit down:
        the masks that agree above `bit` (setting k bits there), clear it and
        set any j of the bits below hold C(bit, j) * g^(k + j + 1) patterns,
        which sum to g^(k + 1) * (1 + g)^bit, a product of two table entries.
        Decoding costs O(m) small-int steps.  The window of each rank set is
        built once and then reused from a bounded cache (ranks <= 7 hold only
        127 windows); the pattern still validates it.
        """
        if n < 1:
            raise ValueError("pattern index must be >= 1")
        totals, powers, g = self._totals, self._powers, self._g
        m = bisect_left(totals, n)
        if m > _MAX_RANK:
            raise ValueError("pattern index too large to decode")
        offset = n - totals[m - 1] - 1
        ranks = []
        for bit in range(m - 2, -1, -1):
            before = powers[len(ranks) + 1] * (totals[bit] + 1)
            if offset >= before:
                offset -= before
                ranks.append(bit + 1)
        ranks.reverse()
        ranks.append(m)
        alphabet, symbols = self.alphabet.symbols, []
        for _ in ranks:
            offset, d = divmod(offset, g)
            symbols.append(alphabet[d])
        symbols.reverse()  # lex order: earliest rank varies slowest
        return CylinderPattern(_window(self.domain, tuple(ranks)), tuple(symbols))

    def rank_of(self, pattern: CylinderPattern) -> int:
        """The n with pattern(n) == pattern; ValueError past rank _MAX_RANK or
        for a symbol outside the alphabet."""
        totals, powers = self._totals, self._powers
        by_rank = {rank_of(self.domain, i): s for i, s in pattern.items()}
        ranks = sorted(by_rank)
        m = ranks[-1]
        if m > _MAX_RANK:
            raise ValueError("pattern index too large to decode")
        offset = 0
        for chosen, r in enumerate(reversed(ranks[:-1])):
            offset += powers[chosen + 1] * (totals[r - 1] + 1)
        value = _word_number(self._digits, [by_rank[r] for r in ranks])
        return totals[m - 1] + offset + value + 1


def _digits(alphabet: Alphabet) -> dict[str, int]:
    """Each symbol's position in the alphabet: its digit in base g."""
    return {s: d for d, s in enumerate(alphabet.symbols)}


def _word_number(digits: dict[str, int], symbols: Sequence[str]) -> int:
    """The word read as a base-g number, first symbol most significant;
    ValueError for a symbol outside the alphabet."""
    g, value = len(digits), 0
    for s in symbols:
        d = digits.get(s)
        if d is None:
            raise ValueError(f"symbol {s!r} is not in the alphabet")
        value = value * g + d
    return value


@lru_cache(maxsize=1024)
def _window(domain: IndexDomain, ranks: tuple[int, ...]) -> tuple[Index, ...]:
    """The indices of the given ranks, shared per (domain, ranks): Index is frozen."""
    return tuple(enumerate_index(domain, r) for r in ranks)


def pattern_enumeration(alphabet: Alphabet, domain: IndexDomain) -> PatternEnumeration:
    return PatternEnumeration(alphabet, domain)


# ---------------------------------------------------------------------------
# Densification: patch the n-th family member with the n-th cylinder pattern.
# ---------------------------------------------------------------------------


def densify_family(m: SelfMap, members: Sequence[OrbitBlocks],
                   enumeration: PatternEnumeration, count: int) -> list[FinitePatch]:
    """Patch members in order so the n-th output realizes the n-th pattern.

    Preconditions: the map must be proven aperiodic (then every coordinate has
    an infinite orbit, so finite patches cannot disturb the scrambling
    statistics), and each patched coordinate is classified to confirm that.
    Members are consumed in order; a member is skipped when no distinctness
    witness against the previously accepted outputs can be certified.
    """
    profile = map_profile(m)
    if not profile.has_periodic_point.is_false:
        raise PreconditionError(
            "densification needs a proven absence of periodic points; verdict "
            f"came back {profile.has_periodic_point.truth!r}"
        )
    out: list[FinitePatch] = []
    supply = list(members)
    supply.reverse()  # pop from the front cheaply
    for n in range(1, count + 1):
        pattern = enumeration.pattern(n)
        for i, s in pattern.items():
            cls = classify_point(m, i)
            if not cls.is_non_quasi_periodic:
                raise PreconditionError(
                    f"patched coordinate {i!r} classified {cls.kind!r}; "
                    "densification patches only infinite-orbit coordinates"
                )
        while True:
            if not supply:
                raise PreconditionError("family exhausted before reaching the requested count")
            base = supply.pop()
            candidate = FinitePatch(base, dict(pattern.items()))
            if all(_distinctness_witness(candidate, prev) is not None for prev in out):
                out.append(candidate)
                break
        if not in_cylinder(out[-1], pattern):
            raise AssertionError("patched member missed its own pattern")
    return out


def _distinctness_witness(a: FinitePatch, b: FinitePatch):
    """An orbit position where the two patched members certifiably differ.

    The bases must be block layouts over one map, anchor and lengths (as one
    dc_family's members are), so they differ on the first block r < 4096 in
    exactly one member set; the witness is a position of that block that no
    patch touches, checkable even where the coordinate is too large to
    materialize.  Any other pair gets None, and densify_family skips it.
    """
    ba, bb = a.base, b.base
    if not (isinstance(ba, OrbitBlocks) and isinstance(bb, OrbitBlocks) and ba.map == bb.map
            and ba.anchor == bb.anchor and ba.lengths is bb.lengths):
        return None
    sa, sb = ba.members, bb.members
    block = next((r for r in range(1, 4096) if sa.contains(r) != sb.contains(r)), None)
    if block is None:
        return None
    hi = ba.lengths.horizon(block)
    patched_positions = {orbit_position(ba.map, ba.anchor, coord)
                         for patch in (a.patch, b.patch) for coord in patch}
    for pos in range(hi - ba.lengths.value(block), hi):
        if pos not in patched_positions:
            return ("orbit_position", ba.anchor, pos)
    return None


# ---------------------------------------------------------------------------
# Weave families and their transitivity entry bound.
# ---------------------------------------------------------------------------


def transitive_weave_family(spec: ScrambledFamilySpec,
                            source: Configuration) -> list[OrbitBlocks]:
    """Weave family: block layout with the source configuration spliced in.

    Requires a proven injective, aperiodic map (so the anchor's orbit never
    meets itself) and a source the caller certifies transitive for the map.
    Every member splices the same source reads, so they share one cache.
    """
    if spec.variant != "weave":
        raise ValueError("transitive_weave_family builds the weave variant")
    profile = map_profile(spec.map)
    if not profile.injective.is_true:
        raise PreconditionError(
            f"weave construction needs proven injectivity; verdict came back "
            f"{profile.injective.truth!r}"
        )
    if not profile.has_periodic_point.is_false:
        raise PreconditionError(
            f"weave construction needs proven aperiodicity; verdict came back "
            f"{profile.has_periodic_point.truth!r}"
        )
    source_cache: dict[int, str] = {}
    return [
        OrbitBlocks(spec.map, spec.anchor, spec.lengths, member, spec.alphabet,
                    weave_source=source, source_cache=source_cache)
        for member in spec.family.members
    ]


class LengthLexWord(Configuration):
    """Transitive point of the full shift on the integers under n -> n + 1.

    Nonnegative coordinates spell the concatenation of every finite word over
    the alphabet in length-then-lex order; negative coordinates repeat the
    first symbol.
    """

    def __init__(self, alphabet: Alphabet):
        self.domain = INTEGERS
        self.alphabet = alphabet
        self._digits = _digits(alphabet)
        self._starts = [0, 0]  # _starts[L]: coordinate where the words of length L begin

    def _grow(self) -> None:
        """Append the start of the next word length: words of length j take
        j * g^j coordinates."""
        starts, g = self._starts, len(self._digits)
        j = len(starts) - 1
        starts.append(starts[-1] + j * g ** j)

    def symbol_at(self, index: Index) -> str:
        if index.path:  # a tagged index lies off the integers
            raise DomainMismatchError(f"{index!r} outside configuration domain")
        c = index.coord
        if c < 0:
            return self.alphabet.symbols[0]
        starts = self._starts
        while starts[-1] <= c:
            self._grow()
        length = 1
        while starts[length + 1] <= c:
            length += 1
        word_i, offset = divmod(c - starts[length], length)
        g = len(self._digits)
        return self.alphabet.symbols[word_i // g ** (length - 1 - offset) % g]

    def word_start(self, symbols: Sequence[str]) -> int:
        """Coordinate where `symbols` begins as a whole catalog word.

        The words of length L begin at sum of j * g^j over j < L, read from a
        prefix list that grows the first time a longer word is asked for;
        the word's own index among them is its base-g number, with digits
        from a symbol -> digit table.  ValueError for a symbol outside the
        alphabet."""
        length, starts = len(symbols), self._starts
        while len(starts) <= length:
            self._grow()
        return starts[length] + _word_number(self._digits, symbols) * length


def full_shift_transitive_point(alphabet: Alphabet) -> LengthLexWord:
    return LengthLexWord(alphabet)


def weave_entry_exponent(spec: ScrambledFamilySpec, source: LengthLexWord,
                         pattern: CylinderPattern) -> int:
    """Constructive shift exponent at which every weave member enters the cylinder.

    Recipe: take each window coordinate's signed offset i (the coordinate is
    phi^i(anchor)) from `orbits.window_offsets`, with N = max |i|; a window
    with N > 64, or with a coordinate off the domain or off the anchor's
    chain (any, on a map without chain coordinates), or whose entry block
    lies past the block ceiling, raises ValueError.
    Splice offset j reads the source at origin + j, origin the anchor's chain
    offset.  Find the shift h > N at which the source, read from origin on,
    matches the pattern on the radius-N orbit window; the splice after block
    h+N+1 replays it for j <= h+N, so the member enters the cylinder at
    exponent l + h where l is that splice's starting position.  The offsets
    stay cached per window for the members' shifted reads.
    """
    if not isinstance(source, LengthLexWord):
        raise ValueError("entry bound needs the length-lex source")
    m, anchor = spec.map, spec.anchor
    # the source must realize the pattern on the full +-N orbit window of the
    # anchor; unconstrained coordinates there may read anything, so fill with q
    offsets = window_offsets(m, anchor, tuple(pattern.window))
    n_rad = None if offsets is None else max(map(abs, offsets))
    if n_rad is None or n_rad > 64:
        raise ValueError(f"window {pattern.window!r} not within reach of the anchor")
    origin = chain_coordinates(m, anchor)[1]
    want, q = dict(zip(offsets, pattern.symbols)), spec.alphabet.q
    word = [want.get(i, q) for i in range(-n_rad, n_rad + 1)]
    # offset i of the window sits at splice offset h + i when the word starts
    # at source coordinate origin + h - N
    h = source.word_start(word) + n_rad - origin
    while h <= n_rad:  # pad the word on the right until the occurrence lands deeper
        word.append(spec.alphabet.symbols[0])
        h = source.word_start(word) + n_rad - origin
    entry = h + n_rad + 1
    if entry > _MAX_BLOCKS:
        raise ValueError(f"window {pattern.window!r} not within reach of the anchor: its entry "
                         f"needs block {entry}, past the {_MAX_BLOCKS}-block ceiling")
    return spec.lengths.horizon(entry) + h


# ---------------------------------------------------------------------------
# One-sided embedding along an orbit.
# ---------------------------------------------------------------------------


def omega_embedding(m: SelfMap, anchor: Index, inner: Configuration,
                    fill: str) -> Embedded:
    """Write a one-sided sequence along phi^n(anchor), n >= 1, filler elsewhere.

    The anchor must have a proven infinite orbit so the carrier coordinates are
    pairwise distinct; then reading the embedded image along the orbit replays
    the inner sequence shifted, coordinate by coordinate.
    """
    return Embedded(m, anchor, inner, fill)


def shift_inner(inner: Configuration, steps: int) -> Configuration:
    """One-sided shift of a naturals-domain configuration built from finite data."""
    if inner.domain.kind != "naturals":
        raise ValueError("shift_inner expects a naturals-domain configuration")
    if isinstance(inner, Constant):
        return inner
    if isinstance(inner, FinitePatch) and isinstance(inner.base, Constant):
        moved = {}
        for coord, sym in inner.patch.items():
            n = coord.coord - steps
            if n >= 1:
                moved[Index((), n)] = sym
        return FinitePatch(inner.base, moved)
    raise ValueError("shift_inner supports constants and finite patches over constants")
