"""Countable index domains, canonical enumerations, and a closed catalog of self-maps.

The index side of a generalized shift system: a countable domain Gamma given by a
finite description, a fixed enumeration beta_1, beta_2, ... of its elements, and
self-maps phi drawn from a small closed catalog so that their dynamical properties
(injectivity, periodic points, orbit growth) remain decidable.  Coordinates are
arbitrary-size integers; a bit-length budget guards against runaway
doubly-exponential orbits.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from heapq import merge
from operator import itemgetter
from typing import Callable, Iterator, Optional

from . import _EXPORTS

__all__ = list(_EXPORTS["indexspace"])

# Bit-length ceiling for coordinates.  Squaring-type rules grow doubly
# exponentially; beyond this the coordinate is refused rather than computed.
COORD_BIT_BUDGET = 1 << 20

# Step ceiling for explicit iteration when no closed form applies.
DEFAULT_STEP_BUDGET = 1 << 24


class DomainMismatchError(ValueError):
    """An index was fed to a domain or map it does not belong to."""


class BudgetExceededError(RuntimeError):
    """Coordinate magnitude or step count exceeded the configured budget."""


class RankRangeError(ValueError):
    """Enumeration rank outside a finite domain."""


class _StoredHash:
    """A record's hash, computed on first read and written into the instance
    dict, which shadows this non-data descriptor from then on: later reads
    are plain attribute reads.  Unlike `functools.cached_property` it takes
    no lock."""

    def __get__(self, record, owner):
        if record is None:  # read on the class
            return self
        value = record.__dict__["_hash"] = tuple.__hash__(record)
        return value


class Record(tuple):
    """Base of the package's records: a tuple of named fields.

    A subclass lists its fields as class annotations, in order, after those
    of its record bases, and must declare at least one of its own (TypeError
    otherwise); a class-level value is that field's default (shared by every
    instance, so immutable).  The names and defaults are read once, when the
    subclass is defined, into `_fields` and `_defaults`, and each field reads
    its position through a property.  A record is the tuple of its field
    values: the class takes them positionally or by name and then calls
    `__post_init__`, and `_replace(**changes)` builds a copy the same way.
    Records of one class with equal fields are equal; a record never equals
    one of another class or a plain tuple.  A record is a value, not a
    sequence: `<`, `<=`, `>`, `>=`, `+` and `*` raise TypeError with a
    record on either side.  A record hashes as its field tuple, and one with
    a `__dict__` (every record but `Index`) computes that hash on first use
    and keeps it, so a record keying a cache is hashed once; the `__dict__`
    also holds any `functools.cached_property`.  Pickle and copy rebuild a
    record from its class and field values, so neither travels.  Records are
    frozen: assigning or deleting any attribute raises AttributeError.  They
    print as ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        if not own or not own.keys().isdisjoint(cls._fields):
            raise TypeError(f"{cls.__qualname__}: a record must declare its own fields")
        cls._defaults = {**cls._defaults,
                         **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}
        for position, name in enumerate(own, len(cls._fields)):
            setattr(cls, name, property(itemgetter(position)))
        cls._fields += tuple(own)

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._arguments(args, kwargs)
        record = tuple.__new__(cls, args)
        record.__post_init__()
        return record

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value in order, from positional and keyword arguments
        and the defaults; TypeError for a missing, repeated or unknown field."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes at most {len(cls._fields)} fields")
        values = {**cls._defaults, **dict(zip(cls._fields, args))}
        for name, value in kwargs.items():
            if name not in cls._fields or name in cls._fields[:len(args)]:
                raise TypeError(f"{cls.__name__}: unexpected or repeated field {name!r}")
            values[name] = value
        missing = [name for name in cls._fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}: missing fields {missing}")
        return tuple(values[name] for name in cls._fields)

    def __post_init__(self) -> None:
        """Validate the fields; called last by the constructor."""

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self)), **changes})

    def __reduce__(self):
        return self.__class__, tuple(self)

    def __eq__(self, other):
        return other is self or (other.__class__ is self.__class__ and tuple.__eq__(self, other))

    def __ne__(self, other):
        return not self.__eq__(other)

    def _refuse(self, other):
        # raised, not NotImplemented: a plain tuple on the other side would
        # then order or concatenate with the record as with its field tuple
        raise TypeError(f"{type(self).__qualname__} records neither order, add nor repeat")

    __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __add__ = __radd__ = __mul__ = __rmul__ = _refuse

    _hash = _StoredHash()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Index(Record):
    """A point of a domain: a tag path through disjoint unions plus an integer coordinate.

    ``path`` is a tuple of "L"/"R" tags, outermost first; plain domains use ``()``.
    The hottest value type, so it has no ``__dict__`` and hashes in C, as
    ``hash((path, coord))``, on every use.
    """

    __slots__ = ()
    path: tuple[str, ...]
    coord: int

    def __new__(cls, path: tuple[str, ...], coord: int):
        return tuple.__new__(cls, (path, coord))

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:  # compact: "L0", "-3", "RL2"
        return format_index(self)


def ix(coord: int, *path: str) -> Index:
    """Shorthand constructor used heavily in tests."""
    return Index(path, coord)


def format_index(index: Index) -> str:
    return "".join(index.path) + str(index.coord)


class IndexDomain(Record):
    """Finite description of a countable set: finite range, naturals, integers, or a tagged union."""

    kind: str  # "finite_range" | "naturals" | "integers" | "disjoint_union"
    size: Optional[int] = None
    left: "Optional[IndexDomain]" = None
    right: "Optional[IndexDomain]" = None


INTEGERS = IndexDomain("integers")
NATURALS = IndexDomain("naturals")


@lru_cache(maxsize=64)
def finite_range(size: int) -> IndexDomain:
    """The domain 0..size-1; one shared (frozen) object per recently used size."""
    if size < 1:
        raise ValueError("finite_range needs size >= 1")
    return IndexDomain("finite_range", size=size)


def disjoint_union(left: IndexDomain, right: IndexDomain) -> IndexDomain:
    return IndexDomain("disjoint_union", left=left, right=right)


def domain_size(domain: IndexDomain) -> Optional[int]:
    """Number of elements, or None when countably infinite."""
    if domain.kind == "finite_range":
        return domain.size
    if domain.kind in ("naturals", "integers"):
        return None
    ls, rs = domain_size(domain.left), domain_size(domain.right)
    if ls is None or rs is None:
        return None
    return ls + rs


def contains(domain: IndexDomain, index: Index) -> bool:
    if domain.kind == "disjoint_union":
        if not index.path:
            return False
        side = domain.left if index.path[0] == "L" else domain.right
        return contains(side, Index(index.path[1:], index.coord))
    if index.path:
        return False
    if domain.kind == "finite_range":
        return 0 <= index.coord < domain.size
    if domain.kind == "naturals":
        return index.coord >= 1
    return True  # integers


# ---------------------------------------------------------------------------
# Enumeration.  Fixed conventions:
#   finite_range m: 0, 1, ..., m-1
#   naturals:       1, 2, 3, ...
#   integers:       0, 1, -1, 2, -2, ...
#   disjoint_union: interleave left/right ranks (L1, R1, L2, R2, ...),
#                   spilling into the longer side once the shorter runs out.
# Ranks are 1-based throughout.
# ---------------------------------------------------------------------------


def enumerate_index(domain: IndexDomain, rank: int) -> Index:
    """The rank-th element beta_rank of the domain (ranks start at 1)."""
    if rank < 1:
        raise RankRangeError(f"rank must be >= 1, got {rank}")
    if domain.kind == "finite_range":
        if rank > domain.size:
            raise RankRangeError(f"rank {rank} > domain size {domain.size}")
        return Index((), rank - 1)
    if domain.kind == "naturals":
        return Index((), rank)
    if domain.kind == "integers":
        if rank == 1:
            return Index((), 0)
        if rank % 2 == 0:
            return Index((), rank // 2)
        return Index((), -(rank // 2))
    # disjoint union: interleave, then spill
    ls, rs = domain_size(domain.left), domain_size(domain.right)
    total = None if (ls is None or rs is None) else ls + rs
    if total is not None and rank > total:
        raise RankRangeError(f"rank {rank} > domain size {total}")
    m = min(ls if ls is not None else rank, rs if rs is not None else rank)
    if rank <= 2 * m:
        side, sub = ("L", domain.left) if rank % 2 == 1 else ("R", domain.right)
        inner = enumerate_index(sub, (rank + 1) // 2)
    else:
        spill_left = rs is not None and (ls is None or ls > rs)
        side, sub = ("L", domain.left) if spill_left else ("R", domain.right)
        inner = enumerate_index(sub, rank - m)
    return Index((side,) + inner.path, inner.coord)


def rank_of(domain: IndexDomain, index: Index) -> int:
    """Inverse of enumerate_index."""
    if not contains(domain, index):
        raise DomainMismatchError(f"{index!r} not in domain")
    if domain.kind == "finite_range":
        return index.coord + 1
    if domain.kind == "naturals":
        return index.coord
    if domain.kind == "integers":
        if index.coord == 0:
            return 1
        if index.coord > 0:
            return 2 * index.coord
        return -2 * index.coord + 1
    ls, rs = domain_size(domain.left), domain_size(domain.right)
    side = index.path[0]
    sub = domain.left if side == "L" else domain.right
    r = rank_of(sub, Index(index.path[1:], index.coord))
    own, other = (ls, rs) if side == "L" else (rs, ls)
    if other is None or r <= other:
        return 2 * r - 1 if side == "L" else 2 * r
    return 2 * other + (r - other)


def region_indices(domain: IndexDomain, bound: int) -> Iterator[Index]:
    """All indices with |coordinate| <= bound, in enumeration-rank order.

    Built from the domain's description and lazy, so a caller that stops
    early never builds the rest: each side of a union comes in its own rank
    order, which the union's ranks keep, so merging the sides by rank is
    enough.
    """
    if domain.kind == "disjoint_union":
        return merge(_tagged("L", domain.left, bound), _tagged("R", domain.right, bound),
                     key=lambda index: rank_of(domain, index))
    if domain.kind == "finite_range":
        coords = range(min(bound, domain.size - 1) + 1)
    elif domain.kind == "naturals":
        coords = range(1, bound + 1)
    else:  # integers: 0, 1, -1, 2, -2, ...
        coords = (c for k in range(bound + 1) for c in ((k, -k) if k else (0,)))
    return (Index((), c) for c in coords)


def _tagged(side: str, sub: IndexDomain, bound: int) -> Iterator[Index]:
    for index in region_indices(sub, bound):
        yield Index((side,) + index.path, index.coord)


# ---------------------------------------------------------------------------
# Self-maps.
# ---------------------------------------------------------------------------


class SelfMap(Record):
    """A total self-map of a domain, from the closed rule catalog.

    rule: "table" on a finite range, one of CATALOG_RULES on the integers,
    "compose" (outer after inner), or "disjoint_union" routing by tag.
    record: the map's entry in the rule table, built on first read: the table
    record for a map with a `table`, the union record for one with a `left`
    (two tables or two unions composed, too), else `_composed`'s.
    """

    domain: IndexDomain
    rule: str
    table: Optional[tuple[int, ...]] = None
    outer: "Optional[SelfMap]" = None
    inner: "Optional[SelfMap]" = None
    left: "Optional[SelfMap]" = None
    right: "Optional[SelfMap]" = None

    @cached_property
    def record(self) -> "Rule":
        if self.table is not None:
            return RULES["table"]
        if self.left is not None:
            return RULES["disjoint_union"]
        if self.outer is not None:
            return _composed(self)
        return RULES[self.rule]


def table_map(entries) -> SelfMap:
    """The map i -> entries[i] on finite_range(len(entries)).

    A tuple of plain ints is kept as given.  Any other entries go through
    `int`, so ``"1"``, ``2.0`` and ``True`` read as 1, 2 and 1; an entry that
    `int` would truncate (``2.5``, ``1.9999``) is refused with a ValueError
    that names it, as is one outside 0..len - 1.
    """
    entries = tuple(entries)  # the same object when given a tuple
    if _INT_ONLY.issuperset(map(type, entries)):  # `int` would return each entry unchanged
        table = entries
    else:
        table = tuple(map(int, entries))
        if table != entries:  # some conversion changed a value: refuse a truncation
            for entry, value in zip(entries, table):
                if value != entry and not isinstance(entry, (str, bytes)):
                    raise ValueError(f"table entry {entry!r} is not an integer")
    size = len(table)
    if size < 1:
        raise ValueError("table_map needs at least one entry")
    domain, points = _table_domain(size)
    if not points.issuperset(table):
        bad = next(e for e in table if e not in points)  # name the first one
        raise ValueError(f"table entry {bad} outside range 0..{size - 1}")
    # built as the tuple of its fields, since every finite table of a sweep
    # builds one and a map has no checks to run
    return tuple.__new__(SelfMap, (domain, "table", table, None, None, None, None))


_INT_ONLY = frozenset({int})  # the entry types a table keeps as given


@lru_cache(maxsize=64)
def _table_domain(size: int) -> tuple[IndexDomain, frozenset[int]]:
    """finite_range(size) with its point set, so a table's range check is one
    C-level `issuperset` over its int entries, whether kept as given or
    converted; the set is no larger than the table it checks."""
    return finite_range(size), frozenset(range(size))


@lru_cache(maxsize=None)  # keyed by the catalog's few rule names
def _catalog(rule: str) -> SelfMap:
    """One shared (frozen) map per catalog rule, so comparing a map with its
    catalog constructor's result usually stops at identity."""
    return SelfMap(INTEGERS, rule)


def successor() -> SelfMap:
    """n -> n + 1 on the integers."""
    return _catalog("successor")


def predecessor() -> SelfMap:
    """n -> n - 1 on the integers."""
    return _catalog("predecessor")


def square() -> SelfMap:
    """n -> n^2 on the integers."""
    return _catalog("square")


def square_plus_one() -> SelfMap:
    """n -> n^2 + 1 on the integers."""
    return _catalog("square_plus_one")


def parity_up() -> SelfMap:
    """even n -> n + 1, odd n -> n - 1; an involution pairing 2k with 2k+1."""
    return _catalog("parity_up")


def parity_down() -> SelfMap:
    """odd n -> n + 1, even n -> n - 1; an involution pairing 2k with 2k-1."""
    return _catalog("parity_down")


def compose_maps(outer: SelfMap, inner: SelfMap) -> SelfMap:
    """The map sending idx to outer(inner(idx)), on their shared domain; tables tabulate,
    and unions compose side by side."""
    if outer.domain != inner.domain:
        raise DomainMismatchError("composition requires a shared domain")
    table = None if None in (outer.table, inner.table) else tuple(map(outer.table.__getitem__, inner.table))
    sides = () if None in (outer.left, inner.left) else (
        compose_maps(outer.left, inner.left), compose_maps(outer.right, inner.right))
    return SelfMap(outer.domain, "compose", table, outer, inner, *sides)


def disjoint_union_maps(left: SelfMap, right: SelfMap) -> SelfMap:
    """Tag-routing union: L-tagged points move by `left`, R-tagged by `right`."""
    return SelfMap(
        disjoint_union(left.domain, right.domain),
        "disjoint_union",
        left=left,
        right=right,
    )


def _check_bits(value: int) -> int:
    if value.bit_length() > COORD_BIT_BUDGET:
        raise BudgetExceededError(
            f"coordinate needs {value.bit_length()} bits, budget {COORD_BIT_BUDGET}"
        )
    return value


def evaluate(m: SelfMap, index: Index) -> Index:
    """Apply the map once.  Raises DomainMismatchError off-domain."""
    if not contains(m.domain, index):
        raise DomainMismatchError(f"{index!r} not in map domain")
    return m.record.step(m, index)


def _step(m: SelfMap, index: Index) -> Index:
    return m.record.step(m, index)


def iterate(m: SelfMap, index: Index, steps: int) -> Index:
    """Apply the map `steps` times (steps >= 0), using closed forms where certified.

    Closed forms keep huge step counts (block-construction horizons) cheap for
    translation-like rules; everything else steps explicitly under a budget.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not contains(m.domain, index):
        raise DomainMismatchError(f"{index!r} not in map domain")
    return _iterate(m, index, steps)


def _iterate(m: SelfMap, index: Index, steps: int) -> Index:
    if steps == 0:
        return index
    rule = m.record
    if rule.iterate is not None:
        return rule.iterate(m, index, steps)
    if steps > DEFAULT_STEP_BUDGET:
        raise BudgetExceededError(f"{steps} explicit steps exceed budget {DEFAULT_STEP_BUDGET}")
    for _ in range(steps):
        index = rule.step(m, index)
    return index


def preimage(m: SelfMap, index: Index) -> Optional[Index]:
    """The unique preimage under a certified-invertible map, or None when none exists.

    Raises ValueError for rules whose inverse is not certified (squaring rules
    and compositions with one, non-permutation tables).
    """
    inverse = m.record.preimage
    if inverse is None:
        raise ValueError(f"preimage not certified for rule {m.rule!r}")
    return inverse(m, index)


def route(m: SelfMap, index: Index, fn, *args):
    """fn(side map, index with its tag stripped, *args) on the half of a union
    map that owns the index; an Index result gets the tag back."""
    side = index.path[0]
    out = fn(m.left if side == "L" else m.right, Index(index.path[1:], index.coord), *args)
    return Index((side,) + out.path, out.coord) if isinstance(out, Index) else out


def cycle_walk(step, start) -> tuple[list, int]:
    """Walk the forward orbit of start under step until a point repeats (a
    finite table's walk does within its length).

    Returns (points, preperiod): the orbit's distinct points in order, whose
    cycle is points[preperiod:].
    """
    seen: dict = {}
    cur = start
    while cur not in seen:
        seen[cur] = len(seen)
        cur = step(cur)
    return list(seen), seen[cur]


# ---------------------------------------------------------------------------
# The rule table: one record per kind of map.  Everything that evaluates,
# iterates, inverts or classifies a map reads its record and never branches
# on rule names.
# ---------------------------------------------------------------------------


class RuleFacts(Record):
    """Certified dynamics of an integer rule, as plain data.

    Either every point is periodic with `period`, certified by `note` (only
    the points of parity `period_parity` when it is set: the other class
    drifts and holds `nqp_witness`), or the coordinates in `finite`
    (coordinate -> (preperiod, period), certified by `finite_note`) are the
    only ones with finite orbits and the growth argument `note` makes every
    other orbit infinite; `nqp_witness` is one such point.  The test suite
    re-checks each fact by a bounded scan.
    """

    injective: bool
    note: str
    collision: Optional[tuple[int, int]] = None  # colliding pair when not injective
    period: Optional[int] = None
    finite: dict = {}  # the default is shared by every record, so it is only ever read
    finite_note: str = ""
    nqp_witness: int = 0
    period_parity: Optional[int] = None


class Rule(Record):
    """Everything the package knows about one kind of map.

    step(m, index) applies the map once.  The rest are certified shortcuts,
    each optional: iterate(m, index, steps) is a closed form (else explicit
    stepping under DEFAULT_STEP_BUDGET), preimage(m, index) a certified
    inverse (else ValueError), chain(m, index) the coordinates (key, offset,
    period) every closed-form orbit answer is read from (else a walk): index
    is phi^offset of its chain's base point, indices share an orbit iff
    their keys are equal, period is a cycle's length (None on a chain).
    facts: the certified dynamics on the integers (tables and unions are read
    exhaustively or per side).  grows: a bound B with |phi(n)| > |n| for every
    |n| > B.  shift: the steps (d0, d1) of a translation n -> n + d[n mod 2].
    reach: max |d| for a translation, c for n^2 + c (see `_composed`).
    """

    name: str
    step: Callable[[SelfMap, Index], Index]
    iterate: Optional[Callable[[SelfMap, Index, int], Index]] = None
    preimage: Optional[Callable[[SelfMap, Index], Optional[Index]]] = None
    chain: Optional[Callable[[SelfMap, Index], Optional[tuple]]] = None
    facts: Optional[RuleFacts] = None
    grows: Optional[int] = None
    shift: Optional[tuple[int, int]] = None
    reach: Optional[int] = None


def chain_coordinates(m: SelfMap, index: Index) -> Optional[tuple]:
    """The index's (key, offset, period) under the map (see `Rule`), or None."""
    chain = m.record.chain
    return None if chain is None else chain(m, index)


def _translation(name: str, d0: int, d1: int, note: str) -> Rule:
    """n -> n + d[n mod 2] with d0 = d1 (mod 2).

    Each step moves by d[n mod 2] for good when d0 = d1 or both are even
    (parity is kept): a class with a zero step is fixed, one with step s
    drifts along the chain n mod |s|.  Odd unequal steps alternate, so every
    two steps add lap = d0 + d1, along the chain e mod |lap| of the even
    e = n or n - d0 (a two-cycle when lap = 0).  `note` certifies the orbit
    shape: the periodicity, or the drift when no point returns.
    """
    assert d0 % 2 == d1 % 2
    d = (d0, d1)
    lap = d0 + d1
    alternating = d0 != d1 and d0 % 2 == 1

    def step(m: SelfMap, index: Index) -> Index:
        return Index((), index.coord + d[index.coord & 1])

    def iterate(m: SelfMap, index: Index, steps: int) -> Index:
        n = index.coord
        if alternating:
            n += (steps >> 1) * lap + (steps & 1) * d[n & 1]
        else:
            n += steps * d[n & 1]
        return Index((), _check_bits(n))

    def preimage(m: SelfMap, index: Index) -> Index:
        n = index.coord  # its source has the parity of n + d0
        return Index((), n - d[(n + d0) & 1])

    def chain(m: SelfMap, index: Index) -> tuple:
        # n lies `past` steps after e, and every `turn` steps from e add `stride`
        n = index.coord
        e, stride, turn, past = ((n - d0 * (n & 1), lap, 2, n & 1) if alternating
                                 else (n, d[n & 1], 1, 0))
        if stride == 0:  # a cycle of `turn` points through e
            return e, past, turn
        key = e % abs(stride)
        return key, turn * (e - key) // stride + past, None

    p0, p1 = (chain(None, Index((), c))[2] for c in (0, 1))  # each parity class's period
    parity = None if p0 == p1 else int(p0 is None)
    facts = RuleFacts(True, note, period=p0 or p1, period_parity=parity,
                      nqp_witness=0 if parity is None else 1 - parity)
    return Rule(name, step, iterate, preimage, chain, facts, shift=d, reach=max(map(abs, d)))


def _composed(m: SelfMap) -> Rule:
    """The record of m = outer after inner, two maps on the integers.

    Two translations compose into one translation record.  Any other pair
    holds a squaring rule, and B = 2D + 2 bounds its growth, D the sum of the
    parts' reach: for |n| > B the translations before the first squaring
    leave a magnitude > D + 2, which that squaring at least doubles, no
    squaring shrinks, and the translations take back at most D in all, so
    |phi(n)| >= 2(|n| - D) - D > |n|.  Every finite orbit thus lies in
    [-B, B], and a walk from each point there ends at a repeat (a finite
    orbit) or on leaving it (an infinite one).  A collision lies there too:
    the translations before the first squaring send two points of magnitude
    <= D + 1 onto 1 and -1, which that squaring merges.
    """
    outer, inner = m.outer.record, m.inner.record
    if outer.shift is not None and inner.shift is not None:
        (a0, a1), b = inner.shift, outer.shift
        # inner moves an even n onto parity a0 and an odd n onto parity 1 + a1
        d0, d1 = a0 + b[a0 & 1], a1 + b[(1 + a1) & 1]
        return _translation("compose", d0, d1,
                            f"composed translation n -> n + ({d0}, {d1})[n mod 2]")
    reach = outer.reach + inner.reach
    bound = 2 * reach + 2
    image = {n: _compose_step(m, Index((), n)).coord for n in range(-bound, bound + 1)}
    finite = {}
    for n in image:
        seen: dict[int, int] = {}  # point -> steps from n
        cur = n
        while cur in image and cur not in seen:
            seen[cur] = len(seen)
            cur = image[cur]
        if cur in seen:
            finite[n] = (seen[cur], len(seen) - seen[cur])
    first: dict[int, int] = {}  # image -> its first source
    collision = next((first[t], n) for n, t in image.items() if first.setdefault(t, n) != n)
    facts = RuleFacts(False, f"|n| > {bound} gives |phi(n)| > |n|, so magnitudes strictly increase",
                      collision, finite=finite, nqp_witness=bound + 1,
                      finite_note=f"walked every orbit from [-{bound}, {bound}]")
    return Rule("compose", _compose_step, facts=facts, grows=bound, reach=reach)


def _compose_step(m: SelfMap, index: Index) -> Index:
    return _step(m.outer, _step(m.inner, index))


def _square_plus(name: str, c: int, grows: int, facts: RuleFacts) -> Rule:
    """n -> n^2 + c; no closed forms, but |n^2 + c| > |n| once |n| > grows."""

    def step(m: SelfMap, index: Index) -> Index:
        n = index.coord
        least = 2 * n.bit_length() - 1  # n^2 has 2b - 1 or 2b bits: refuse before multiplying
        if least > COORD_BIT_BUDGET:
            raise BudgetExceededError(
                f"coordinate needs at least {least} bits, budget {COORD_BIT_BUDGET}"
            )
        return Index((), _check_bits(n * n + c))

    return Rule(name, step, facts=facts, grows=grows, reach=c)


def _table_power(m: SelfMap, index: Index, steps: int) -> Index:
    points, pre = cycle_walk(m.table.__getitem__, index.coord)
    if steps >= len(points):
        steps = pre + (steps - pre) % (len(points) - pre)
    return Index((), points[steps])


def _table_preimage(m: SelfMap, index: Index) -> Optional[Index]:
    hits = [i for i, e in enumerate(m.table) if e == index.coord]
    if len(hits) > 1:
        raise ValueError("table is not injective; preimage not certified")
    return Index((), hits[0]) if hits else None


def _union_chain(m: SelfMap, index: Index) -> Optional[tuple]:
    coords = route(m, index, chain_coordinates)  # the owning side's, keyed by its tag
    return coords and ((index.path[0], coords[0]),) + coords[1:]


RULES = {rule.name: rule for rule in (
    _translation("successor", 1, 1, "translation by +1 never revisits a coordinate"),
    _translation("predecessor", -1, -1, "translation by -1 never revisits a coordinate"),
    _square_plus("square", 0, 1, RuleFacts(
        False,
        "|n| >= 2 gives |n^2| >= 2|n|, so magnitudes strictly increase",
        collision=(-1, 1),
        # 0 and 1 are fixed; -1 lands on the fixed point 1 after one step
        finite={0: (0, 1), 1: (0, 1), -1: (1, 1)},
        finite_note="squaring fixed points 0,1",
        nqp_witness=2,
    )),
    _square_plus("square_plus_one", 1, 0, RuleFacts(
        False,
        "n^2 + 1 > n for every integer, so orbits strictly increase",
        collision=(-1, 1),
    )),
    _translation("parity_up", 1, -1, "involution pairing"),
    _translation("parity_down", -1, 1, "involution pairing"),
    Rule("table", lambda m, index: Index((), m.table[index.coord]),
         _table_power, _table_preimage),
    Rule("disjoint_union", lambda m, index: route(m, index, _step),
         lambda m, index, steps: route(m, index, _iterate, steps),
         lambda m, index: route(m, index, preimage), _union_chain),
)}

CATALOG_RULES = tuple(name for name, rule in RULES.items() if rule.facts is not None)


# ---------------------------------------------------------------------------
# JSON map grammar.
# ---------------------------------------------------------------------------


# the fields a map object may hold besides "rule", per rule
_MAP_FIELDS = {**dict.fromkeys(CATALOG_RULES, ("domain",)), "table": ("entries",),
               "compose": ("outer", "inner"), "disjoint_union": ("left", "right")}


def parse_map_spec(obj) -> SelfMap:
    """Parse the JSON map grammar into a SelfMap, validating structure.

    An unknown rule is reported first, then the first unknown field of the
    object in sorted order, before any nested map is read.
    """
    if not isinstance(obj, dict) or "rule" not in obj:
        raise ValueError("map spec must be an object with a 'rule' field")
    rule = obj["rule"]
    fields = _MAP_FIELDS.get(rule) if isinstance(rule, str) else None
    if fields is None:
        raise ValueError(f"map.rule: unknown rule {rule!r}")
    unknown = sorted(obj.keys() - {"rule", *fields})
    if unknown:
        raise ValueError(f"map.{unknown[0]}: unknown field")
    if rule in CATALOG_RULES:
        if obj.get("domain", "integers") != "integers":
            raise ValueError(f"map.domain: rule {rule!r} lives on 'integers'")
        return _catalog(rule)
    if rule == "table":
        entries = obj.get("entries")
        if not isinstance(entries, list) or not all(
                isinstance(e, int) and not isinstance(e, bool) for e in entries):
            raise ValueError("map.entries: rule 'table' needs a list of integers")
        return table_map(entries)
    if rule == "compose":
        return compose_maps(_submap(obj, "outer"), _submap(obj, "inner"))
    return disjoint_union_maps(_submap(obj, "left"), _submap(obj, "right"))


def _submap(obj: dict, key: str) -> SelfMap:
    if key not in obj:
        raise ValueError(f"map.{key}: required for rule {obj['rule']!r}")
    return parse_map_spec(obj[key])


def map_spec(m: SelfMap) -> dict:
    """Inverse of parse_map_spec (round-trips)."""
    if m.rule in CATALOG_RULES:
        return {"rule": m.rule, "domain": "integers"}
    if m.rule == "table":
        return {"rule": "table", "entries": list(m.table)}
    if m.rule == "compose":
        return {"rule": "compose", "outer": map_spec(m.outer), "inner": map_spec(m.inner)}
    return {"rule": "disjoint_union", "left": map_spec(m.left), "right": map_spec(m.right)}
