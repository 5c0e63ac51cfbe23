"""Index domains, enumeration conventions, self-map evaluation, and records."""

import os
import pickle
import re
import subprocess
import sys
from copy import deepcopy
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gshift.indexspace import (
    BudgetExceededError,
    DomainMismatchError,
    INTEGERS,
    Index,
    IndexDomain,
    NATURALS,
    Record,
    SelfMap,
    compose_maps,
    contains,
    disjoint_union,
    disjoint_union_maps,
    domain_size,
    enumerate_index,
    evaluate,
    finite_range,
    format_index,
    ix,
    iterate,
    map_spec,
    parity_down,
    parity_up,
    parse_map_spec,
    predecessor,
    preimage,
    rank_of,
    region_indices,
    square,
    square_plus_one,
    successor,
    table_map,
)
from gshift.indexspace import COORD_BIT_BUDGET
from oracles import converted_table, parse_index

ints = st.integers(min_value=-10**6, max_value=10**6)


# ---------------------------------------------------------------------------
# Enumeration conventions (frozen).
# ---------------------------------------------------------------------------


def test_integer_enumeration_prefix():
    got = [enumerate_index(INTEGERS, r).coord for r in range(1, 8)]
    assert got == [0, 1, -1, 2, -2, 3, -3]


def test_integer_rank_examples():
    assert enumerate_index(INTEGERS, 3).coord == -1
    assert rank_of(INTEGERS, ix(2)) == 4


def test_naturals_enumeration():
    assert [enumerate_index(NATURALS, r).coord for r in range(1, 5)] == [1, 2, 3, 4]
    assert rank_of(NATURALS, Index((), 17)) == 17


def test_finite_range_enumeration():
    assert enumerate_index(finite_range(3), 2).coord == 1
    assert domain_size(finite_range(3)) == 3
    assert domain_size(INTEGERS) is None


def test_union_enumeration_interleaves():
    u = disjoint_union(INTEGERS, INTEGERS)
    got = [format_index(enumerate_index(u, r)) for r in range(1, 5)]
    assert got == ["L0", "R0", "L1", "R1"]


def test_union_enumeration_spills_into_longer_side():
    u = disjoint_union(finite_range(2), INTEGERS)
    got = [format_index(enumerate_index(u, r)) for r in range(1, 8)]
    assert got == ["L0", "R0", "L1", "R1", "R-1", "R2", "R-2"]


@given(st.integers(min_value=1, max_value=5000))
def test_integer_enumeration_round_trips(rank):
    assert rank_of(INTEGERS, enumerate_index(INTEGERS, rank)) == rank


@given(st.integers(min_value=1, max_value=2000))
def test_nested_union_enumeration_round_trips(rank):
    u = disjoint_union(disjoint_union(NATURALS, finite_range(3)), INTEGERS)
    index = enumerate_index(u, rank)
    assert contains(u, index)
    assert rank_of(u, index) == rank


def test_rank_of_rejects_foreign_coordinates():
    with pytest.raises(DomainMismatchError):
        rank_of(finite_range(3), ix(5))


def test_index_formatting_round_trips():
    for text in ("0", "-3", "L0", "R-7", "LR2"):
        assert format_index(parse_index(text)) == text


def test_region_indices_covers_small_ball():
    coords = {i.coord for i in region_indices(INTEGERS, 3)}
    assert {-3, -2, -1, 0, 1, 2, 3} <= coords


def _filtered_ranks(domain, bound, depth):
    """The region by brute force: the first 2^depth * (2 * bound + 1) ranks,
    kept where |coord| <= bound.  A leaf domain holds its region within its
    first 2 * bound + 1 ranks, and each union level at most doubles a rank,
    so no region point lies past the ranks filtered."""
    last = 2 ** depth * (2 * bound + 1)
    total = domain_size(domain)
    if total is not None:
        last = min(last, total)
    indices = (enumerate_index(domain, r) for r in range(1, last + 1))
    return [i for i in indices if abs(i.coord) <= bound]


LEAVES = {
    "integers": [INTEGERS],
    "mixed": [INTEGERS, NATURALS, finite_range(1), finite_range(5), NATURALS, finite_range(13)],
}


@pytest.mark.parametrize("bound", [0, 1, 3])
@pytest.mark.parametrize("depth", [1, 2, 5, 12])
@pytest.mark.parametrize("leaves", sorted(LEAVES))
@pytest.mark.parametrize("nest", ["left", "right"])
def test_region_of_a_nested_union_matches_a_rank_filter(nest, leaves, depth, bound):
    kinds = LEAVES[leaves]
    parts = [kinds[k % len(kinds)] for k in range(depth + 1)]
    join = disjoint_union if nest == "left" else lambda a, b: disjoint_union(b, a)
    domain = reduce(join, parts)
    assert list(region_indices(domain, bound)) == _filtered_ranks(domain, bound, depth)


@pytest.mark.parametrize("domain", [INTEGERS, NATURALS] + [finite_range(n) for n in range(1, 41)],
                         ids=lambda d: d.kind if d.size is None else f"range{d.size}")
def test_region_of_a_plain_domain_matches_a_rank_filter(domain):
    for bound in range(45):
        assert list(region_indices(domain, bound)) == _filtered_ranks(domain, bound, 0), bound
    assert list(region_indices(domain, -1)) == []


def test_a_ten_sided_union_keeps_every_side_at_bound_zero():
    domain = reduce(disjoint_union, [INTEGERS] * 10)
    region = list(region_indices(domain, 0))
    assert len(region) == 10
    assert {i.coord for i in region} == {0}
    assert region[0] == Index(("L",) * 9, 0)


# ---------------------------------------------------------------------------
# Evaluation and iteration.
# ---------------------------------------------------------------------------


def test_successor_evaluates():
    assert evaluate(successor(), ix(3)).coord == 4


def test_composition_evaluates_by_hand():
    m = compose_maps(parity_up(), parity_down())
    assert evaluate(m, ix(2)).coord == 0  # 2 -> 1 -> 0


@given(ints)
def test_composed_swap_is_shift_by_two(n):
    m = compose_maps(parity_up(), parity_down())
    expected = n + 2 if n % 2 else n - 2
    assert evaluate(m, ix(n)).coord == expected


def test_identity_table_composition_is_extensional():
    f = table_map((2, 0, 1))
    identity = table_map((0, 1, 2))
    m = compose_maps(identity, f)
    for c in range(3):
        assert evaluate(m, ix(c)) == evaluate(f, ix(c))


def test_union_map_keeps_tags():
    u = disjoint_union_maps(successor(), successor())
    assert format_index(evaluate(u, parse_index("L0"))) == "L1"
    v = disjoint_union_maps(parity_up(), parity_down())
    assert format_index(evaluate(v, parse_index("R3"))) == "R4"


def test_union_map_rejects_unknown_tag():
    u = disjoint_union_maps(successor(), successor())
    with pytest.raises(DomainMismatchError):
        evaluate(u, ix(0))


def test_iterate_examples():
    assert iterate(square(), ix(2), 3).coord == 256  # 2 -> 4 -> 16 -> 256
    assert iterate(successor(), ix(-7), 0).coord == -7
    assert iterate(parity_up(), ix(4), 2).coord == 4  # 4 -> 5 -> 4


@given(ints, st.integers(min_value=0, max_value=10**12))
def test_iterate_successor_closed_form(n, k):
    assert iterate(successor(), ix(n), k).coord == n + k
    assert iterate(predecessor(), ix(n), k).coord == n - k


@given(ints, st.integers(min_value=0, max_value=64))
@settings(max_examples=50)
def test_iterate_agrees_with_single_steps(n, k):
    m = compose_maps(parity_up(), parity_down())
    cur = ix(n)
    for _ in range(k):
        cur = evaluate(m, cur)
    assert iterate(m, ix(n), k) == cur


def test_iterate_budget_guards_magnitude():
    with pytest.raises(BudgetExceededError):
        iterate(square(), ix(2), 100)


@pytest.mark.parametrize("m", [square(), square_plus_one()])
def test_squaring_refuses_exactly_the_coordinates_past_the_budget(m):
    half = COORD_BIT_BUDGET // 2
    with pytest.raises(BudgetExceededError):
        evaluate(m, ix(1 << half))  # (2^half)^2 has COORD_BIT_BUDGET + 1 bits
    assert evaluate(m, ix((1 << half) - 1)).coord.bit_length() == COORD_BIT_BUDGET


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # pytest and hypothesis load both, so only a fresh interpreter can tell
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, gshift.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_every_record_is_frozen():
    import gshift.cli  # noqa: F401  (defines the last record)

    records = Record.__subclasses__()  # Index is a tuple, pinned below
    assert len(records) == 22
    for cls in records:
        held = dict.fromkeys(cls._fields, 0)
        blank = cls.__new__(cls)  # the refusal is the class's, whatever the field values
        blank.__dict__.update(held)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(blank, name, None)
            with pytest.raises(AttributeError):
                delattr(blank, name)
        assert blank.__dict__ == held
    m = successor()
    with pytest.raises(AttributeError, match="cannot assign to field 'rule'"):
        m.rule = "predecessor"
    with pytest.raises(AttributeError, match="cannot delete field 'coord'"):
        del ix(3).coord
    assert m == successor() and m._replace(rule="predecessor") == predecessor()


def test_an_index_equals_only_an_index():
    assert ix(3) == Index((), 3) and not ix(3) != Index((), 3)
    assert ix(3) != ((), 3) and ((), 3) != ix(3)
    assert not ix(3) == ((), 3) and not ((), 3) == ix(3)
    assert ix(3) != ix(3, "L") and ix(3) != ix(4)
    assert {ix(3): 1}.get(((), 3)) is None


def test_an_index_hashes_as_its_pair_in_c():
    assert hash(ix(3, "L")) == hash((("L",), 3))
    assert Index.__hash__ is tuple.__hash__


def test_an_index_is_frozen_and_has_no_dict():
    index = ix(3, "L")
    for name in ("coord", "path", "extra"):
        with pytest.raises(AttributeError):
            setattr(index, name, 4)
    with pytest.raises(AttributeError):
        del index.coord
    assert not hasattr(index, "__dict__")
    assert (index.path, index.coord) == (("L",), 3)


def test_an_index_prints_compactly():
    assert [repr(i) for i in (ix(0, "L"), ix(-3), ix(2, "R", "L"))] == ["L0", "-3", "RL2"]
    assert str(ix(-3)) == f"{ix(-3)}" == "-3"


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_an_index_survives_pickle_and_deepcopy(protocol):
    index = ix(-7, "R", "L")
    for copy in (pickle.loads(pickle.dumps(index, protocol)), deepcopy(index)):
        assert type(copy) is Index and copy == index and hash(copy) == hash(index)
        assert (copy.path, copy.coord) == (("R", "L"), -7)


@pytest.mark.parametrize("base", [SelfMap, IndexDomain])
def test_a_record_without_fields_of_its_own_is_refused(base):
    with pytest.raises(TypeError, match="Bare: a record must declare its own fields"):
        type("Bare", (base,), {})


def test_every_record_hashes_its_field_tuple_once(monkeypatch):
    import gshift.cli  # noqa: F401  (defines the last record)

    for cls in Record.__subclasses__():
        record = cls.__new__(cls)
        record.__dict__.update(zip(cls._fields, range(len(cls._fields))))
        values, reads = cls._values, []
        monkeypatch.setattr(cls, "_values", lambda self: reads.append(None) or values(self))
        assert hash(record) == hash(record) == hash(values(record)), cls.__name__
        assert len(reads) == 1, cls.__name__
        monkeypatch.undo()
    assert hash(ix(3, "L", "R")) == hash((("L", "R"), 3))


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, "missing fields ['kind']"),
    (("integers",), {"kind": "naturals"}, "repeated field 'kind'"),
    (("integers",), {"sise": 3}, "unexpected or repeated field 'sise'"),
    (("finite_range", 3, None, None, None), {}, "takes at most 4 fields"),
])
def test_record_constructor_names_the_field_it_cannot_place(args, kwargs, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        IndexDomain(*args, **kwargs)


def test_record_is_built_on_first_read_and_never_compared():
    assert list(SelfMap._fields) == [
        "domain", "rule", "table", "outer", "inner", "left", "right"]
    assert repr(successor()) == (
        "SelfMap(domain=IndexDomain(kind='integers', size=None, left=None, right=None), "
        "rule='successor', table=None, outer=None, inner=None, left=None, right=None)")
    read, fresh = compose_maps(successor(), parity_up()), compose_maps(successor(), parity_up())
    assert evaluate(read, ix(2)) == ix(4)
    assert "record" in read.__dict__ and "record" not in fresh.__dict__
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert read.record is read.record


@pytest.mark.parametrize("constructor", [
    successor, predecessor, square, square_plus_one, parity_up, parity_down])
def test_each_catalog_rule_is_one_shared_map(constructor):
    m = constructor()
    assert constructor() is m
    assert parse_map_spec({"rule": m.rule}) is m
    assert parse_map_spec({"rule": m.rule, "domain": "integers"}) is m
    hand_built = SelfMap(INTEGERS, m.rule)  # equality between maps stays by value
    assert hand_built is not m and hand_built == m and hash(hand_built) == hash(m)


# ---------------------------------------------------------------------------
# Closed forms and inverses.
# ---------------------------------------------------------------------------


def test_three_level_translation_composition_keeps_its_closed_form():
    # successor after parity_up after (successor after successor): n + (4, 2)[n mod 2]
    parts = [successor(), parity_up(), successor(), successor()]  # outermost first
    m = compose_maps(parts[0], compose_maps(parts[1], compose_maps(parts[2], parts[3])))
    assert (m.record.name, m.record.shift) == ("compose", (4, 2))
    for n in range(-7, 8):
        point = ix(n)
        for k in range(6):
            assert iterate(m, ix(n), k) == point
            for part in reversed(parts):
                point = evaluate(part, point)
        assert iterate(m, ix(n), 10**30) == ix(n + (2 if n % 2 else 4) * 10**30)


@given(ints)
def test_certified_shift_forms_match_stepping(n):
    odd_up = compose_maps(parity_up(), parity_down())
    even_up = compose_maps(parity_down(), parity_up())
    even_drift = compose_maps(successor(), parity_up())
    assert iterate(odd_up, ix(n), 5).coord == (n + 10 if n % 2 else n - 10)
    assert iterate(even_up, ix(n), 5).coord == (n - 10 if n % 2 else n + 10)
    assert iterate(even_drift, ix(n), 5).coord == (n if n % 2 else n + 10)


def test_preimage_of_invertible_rules():
    assert preimage(successor(), ix(5)).coord == 4
    assert preimage(parity_up(), ix(5)).coord == 4  # involution: its own inverse
    m = compose_maps(parity_up(), parity_down())
    assert preimage(m, ix(5)).coord == 3
    assert evaluate(m, preimage(m, ix(5))) == ix(5)


def test_preimage_rejects_non_injective_table():
    with pytest.raises(ValueError):
        preimage(table_map((0, 0)), ix(0))


def test_a_composition_that_is_not_a_translation_has_no_certified_inverse():
    with pytest.raises(ValueError, match="'compose'"):
        preimage(compose_maps(square(), predecessor()), ix(0))
    # a composition of two tables is the table of its composed entries
    swap = table_map((1, 0))
    assert preimage(compose_maps(swap, swap), ix(0)) == ix(0)


def test_a_composition_of_two_tables_is_tabulated():
    outer, inner = table_map((1, 2, 0)), table_map((0, 0, 1))
    m = compose_maps(outer, inner)
    assert (m.rule, m.table, m.record.name) == ("compose", (1, 1, 2), "table")
    assert parse_map_spec(map_spec(m)) == m
    assert [evaluate(m, ix(i)) for i in range(3)] == [
        evaluate(outer, evaluate(inner, ix(i))) for i in range(3)]
    deeper = compose_maps(outer, m)
    assert deeper.table == (2, 2, 0)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def test_map_spec_round_trips():
    samples = [
        successor(),
        square_plus_one(),
        table_map((1, 2, 0)),
        compose_maps(parity_up(), parity_down()),
        disjoint_union_maps(successor(), compose_maps(parity_up(), parity_down())),
    ]
    for m in samples:
        spec = map_spec(m)
        again = parse_map_spec(spec)
        assert map_spec(again) == spec
        if domain_size(m.domain) is None:
            probe = enumerate_index(m.domain, 5)
        else:
            probe = enumerate_index(m.domain, 1)
        assert evaluate(again, probe) == evaluate(m, probe)


def test_parse_map_spec_rejects_unknown_rule():
    with pytest.raises(ValueError):
        parse_map_spec({"rule": "no_such_rule"})


def test_table_map_validates_entries():
    with pytest.raises(ValueError):
        table_map((0, 3))


@pytest.mark.parametrize("entries, message", [
    ((0, 3), "table entry 3 outside range 0..1"),
    ((-1, 5), "table entry -1 outside range 0..1"),
    ((0, 5, -1), "table entry 5 outside range 0..2"),
    ((), "table_map needs at least one entry"),
])
def test_table_map_names_the_first_bad_entry(entries, message):
    with pytest.raises(ValueError) as exc:
        table_map(entries)
    assert str(exc.value) == message


@pytest.mark.parametrize("entries, bad", [
    ((0, 2.5, 1), "2.5"),
    ((0, 1.9999), "1.9999"),
    ((Fraction(1, 2), 0), "Fraction(1, 2)"),
])
def test_table_map_refuses_an_entry_int_would_truncate(entries, bad):
    with pytest.raises(ValueError) as exc:
        table_map(entries)
    assert str(exc.value) == f"table entry {bad} is not an integer"


def test_table_map_accepts_a_generator_of_int_convertible_entries():
    m = table_map(e for e in ("1", 2.0, 0))
    assert m.table == (1, 2, 0)
    assert m.domain == finite_range(3)


def test_table_map_keeps_an_in_range_int_tuple_as_given():
    entries = (2, 0, 1)
    m = table_map(entries)
    assert m.table is entries and m.domain == finite_range(3)
    assert set(m.__dict__) == {"domain", "rule", "table"}  # no sub-map is stored
    spelled = SelfMap(finite_range(3), "table", (2, 0, 1), None, None, None, None)
    assert m == spelled and hash(m) == hash(spelled) and repr(m) == repr(spelled)
    assert (m.outer, m.inner, m.left, m.right) == (None,) * 4


def test_table_map_converts_a_bool_and_refuses_a_complex_entry():
    m = table_map((True, 0))
    assert m.table == (1, 0) and [type(e) for e in m.table] == [int, int]
    with pytest.raises(TypeError):
        table_map((1 + 0j, 0))


ENTRIES = st.one_of(
    st.integers(-3, 8),
    st.booleans(),
    st.integers(-3, 8).map(float),
    st.floats(-3, 8),
    st.fractions(min_value=-3, max_value=8, max_denominator=3),
    st.integers(-3, 8).map(str),
    st.sampled_from(["1.0", " 2", "x", "", b"1"]),
    st.integers(-3, 8).map(complex),
    st.just([]),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.integers(-1, 6), max_size=6), st.lists(ENTRIES, max_size=6)))
def test_table_map_matches_converting_every_entry(entries):
    try:
        expected = converted_table(entries)
    except Exception as exc:  # the same refusal, type and message
        with pytest.raises(type(exc)) as raised:
            table_map(entries)
        assert str(raised.value) == str(exc)
    else:
        table = table_map(entries).table
        assert table == expected and all(type(e) is int for e in table)
