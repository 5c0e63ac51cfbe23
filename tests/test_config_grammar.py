"""Fuzzing the config grammar: every config that parses as JSON ends `gshift
verify`, `stats` and each `construct-*` with a documented exit code (0 pass,
1 fail, 2 config error, 3 inconclusive) and never with a traceback.

Configs are drawn from the grammar (nested compositions and unions of catalog
rules and tables, both schedule kinds, windows, alphabets), and any field may
instead hold a wrong-typed JSON value or be left out.  Drawn sizes stay small
(r_max and count <= 5, family <= 4) so most runs take milliseconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gshift.cli import main
from gshift.indexspace import CATALOG_RULES, parse_map_spec
from gshift.orbits import map_profile

# any JSON value, kept small: what a hand-edited config might hold by mistake
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 5) | st.sampled_from(["", "p", "1/0", "plain"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["rule", "kind", "p", "x"]), inner, max_size=2),
    max_leaves=6,
)


def _often(common, rare):
    """`common` in 19 draws of 20, else `rare`."""
    return st.sampled_from([common] * 19 + [rare]).flatmap(lambda strategy: strategy)


def _maybe(good):
    """Mostly a well-formed value, else any JSON value."""
    return _often(good, JUNK)


def _drop_one(obj: dict):
    return st.sampled_from(sorted(obj)).map(lambda key: {k: v for k, v in obj.items() if k != key})


def _fields(fields: dict):
    """A JSON object with these fields, any of which may hold a wrong value;
    now and then one of them is left out."""
    full = st.fixed_dictionaries({k: _maybe(v) for k, v in fields.items()})
    return _often(full, full.flatmap(_drop_one))


def _composed(leaves):
    return st.recursive(leaves, lambda inner: _fields(
        {"rule": st.just("compose"), "outer": inner, "inner": inner}), max_leaves=3)


def _tables(size: int):
    return _composed(_fields({"rule": st.just("table"), "entries": st.lists(
        _maybe(st.integers(0, size - 1)), min_size=size, max_size=size)}))


# compositions mostly of maps on one domain (integers, or one table size),
# unions of any of them, and now and then a composition across domains
MAPS = st.recursive(
    _composed(_fields({"rule": st.sampled_from(CATALOG_RULES), "domain": st.just("integers")}))
    | st.integers(1, 4).flatmap(_tables),
    lambda inner: _fields({"rule": st.just("disjoint_union"), "left": inner, "right": inner})
    | _fields({"rule": st.just("compose"), "outer": inner, "inner": inner}),
    max_leaves=3,
)

RANKS = st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True)
SCHEDULES = st.one_of(
    _fields({"kind": st.just("block_boundaries"), "r_max": st.integers(1, 5)}),
    _fields({"kind": st.just("explicit"),
             "horizons": st.lists(st.integers(1, 400), min_size=1, max_size=4)}),
)
SYMBOLS = _often(st.sampled_from([["p", "q"], ["p", "q", "r"], ["q", "r", "p"]]),
                 st.sampled_from([["p"], ["p", "p"]]))
ALPHABETS = _fields({"symbols": SYMBOLS, "p": _often(st.just("p"), st.just("r")),
                     "q": _often(st.just("q"), st.just("p"))})

CONFIGS = _maybe(_fields({
    "map": MAPS,
    "alphabet": ALPHABETS,
    "family_size": st.integers(2, 4),
    "lengths": _fields({"variant": st.sampled_from(["plain", "weave"]),
                        "count": st.integers(1, 5)}),
    "windows": st.lists(RANKS, min_size=1, max_size=2),
    "schedule": SCHEDULES,
    "eps_low": st.sampled_from(["1/4", "1/8"]),
    "eps_high": st.sampled_from(["1/4", "1/2"]),
    "anchor_rank": st.integers(1, 6),
}))


@settings(max_examples=100, deadline=None)
@given(obj=MAPS)
def test_every_map_of_the_grammar_is_decided(obj):
    # compositions with a squaring rule carry walked facts and compositions of
    # unions route by tag, so no well-formed map has an unknown fact
    try:
        m = parse_map_spec(obj)
    except ValueError:  # a malformed spec, or a composition across domains
        assume(False)
    assert "unknown" not in map_profile(m).truths(), obj


def _exit_code(command: str, config) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["--config", str(path), "--out", str(Path(tmp) / "out"), command])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=CONFIGS)
def test_verify_ends_with_a_documented_exit_code(config):
    assert _exit_code("verify", config) in (0, 1, 2, 3)


# fewer draws than verify, to keep the four commands quick
@pytest.mark.parametrize("command", [
    "stats", "construct-dc", "construct-dense", "construct-transitive"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=CONFIGS)
def test_other_commands_end_with_a_documented_exit_code(command, config):
    assert _exit_code(command, config) in (0, 1, 2, 3)
