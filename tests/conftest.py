import sys

import pytest

from gshift.indexspace import (
    CATALOG_RULES,
    INTEGERS,
    Index,
    SelfMap,
    compose_maps,
    evaluate,
)
from oracles import capped_orbit_shape


def sanity_check_catalog_metadata(bound: int = 64) -> None:
    """Bounded re-verification of the certified facts of every catalog rule and
    of every composition of two (typed by hand, in closed form, or walked
    below the growth bound); raises on mismatch."""
    catalog = {name: SelfMap(INTEGERS, name) for name in CATALOG_RULES}
    pairs = {f"{outer} after {inner}": compose_maps(catalog[outer], catalog[inner])
             for outer in catalog for inner in catalog}
    coords = range(-bound, bound + 1)
    # every composition's record agrees with stepping outer after inner
    for name, m in pairs.items():
        for c in coords:
            point = Index((), c)
            got, want = evaluate(m, point), evaluate(m.outer, evaluate(m.inner, point))
            if got != want:
                raise AssertionError(f"{name}: evaluation mismatch at {point}: {got} != {want}")
    for name, m in {**catalog, **pairs}.items():
        facts = m.record.facts
        # injectivity within the window (collisions may need both points inside)
        images: dict[int, int] = {}
        collision = None
        for c in coords:
            t = evaluate(m, Index((), c)).coord
            if t in images:
                collision = (images[t], c)
                break
            images[t] = c
        if facts.injective and collision is not None:
            raise AssertionError(f"{name}: certified injective but found collision {collision}")
        if not facts.injective:
            a, b = facts.collision
            if evaluate(m, Index((), a)) != evaluate(m, Index((), b)):
                raise AssertionError(f"{name}: stored collision witness does not collide")
        # periodic structure: every point with period p, or exactly the listed finite orbits
        for c in coords:
            # no finite orbit here comes near 2^64, and a walk past it stops early
            shape = capped_orbit_shape(m, Index((), c), 8, 2 ** 64)
            periodic = facts.period is not None and facts.period_parity in (None, c & 1)
            want = (0, facts.period) if periodic else facts.finite.get(c)
            if shape != want:
                raise AssertionError(f"{name}: expected orbit shape {want} at {c}, got {shape}")
        # the growth bound behind the non-quasi-periodic certificates of growing rules
        growth = m.record.grows
        if growth is not None:
            for c in coords:
                if abs(c) > growth and not abs(evaluate(m, Index((), c)).coord) > abs(c):
                    raise AssertionError(f"{name}: growth bound {growth} broken at {c}")


@pytest.fixture(scope="session", autouse=True)
def _catalog_metadata_is_sound():
    """Re-verify every certified catalog fact by bounded scan before any test runs."""
    sanity_check_catalog_metadata(64)


@pytest.fixture
def evaluate_calls(monkeypatch):
    """A list that grows by one entry per `indexspace.evaluate` call, counted on
    every binding of it in the gshift package while the test runs."""
    calls = []

    def counting(*args):
        calls.append(None)
        return evaluate(*args)

    for name, module in list(sys.modules.items()):
        if name == "gshift" or name.startswith("gshift."):
            for attr, value in list(vars(module).items()):
                if value is evaluate:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture
def walk_starts(monkeypatch):
    """The walker of each `first_join` call that `gshift.configspace` makes
    while the test runs, in call order."""
    import gshift.configspace as configspace

    starts = []
    join = configspace.first_join

    def counting(m, walker, *args):
        starts.append(walker)
        return join(m, walker, *args)

    monkeypatch.setattr(configspace, "first_join", counting)
    return starts
