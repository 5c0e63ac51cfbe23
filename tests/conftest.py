import pytest

from gshift.indexspace import (
    FORMS,
    INTEGERS,
    RULES,
    Index,
    SelfMap,
    canonical_form,
    compose_maps,
    cycle_walk,
    evaluate,
)


def _orbit_shape(m, c, budget):
    """(preperiod, period) of c's orbit, or None if nothing repeats within budget steps."""
    walk = cycle_walk(lambda index: evaluate(m, index), Index((), c), budget)
    return None if walk is None else (walk[1], len(walk[0]) - walk[1])


def sanity_check_catalog_metadata(bound: int = 64) -> None:
    """Bounded re-verification of every hand-certified fact in the rule table; raises on mismatch."""
    certified = [(name, SelfMap(INTEGERS, name))
                 for name, rule in RULES.items() if rule.facts is not None]
    certified += [(form.name, compose_maps(SelfMap(INTEGERS, outer), SelfMap(INTEGERS, inner)))
                  for (outer, inner), form in FORMS.items()]
    coords = range(-bound, bound + 1)
    for name, m in certified:
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
            shape = _orbit_shape(m, c, 8)
            want = (0, facts.period) if facts.period is not None else facts.finite.get(c)
            if shape != want:
                raise AssertionError(f"{name}: expected orbit shape {want} at {c}, got {shape}")
        # growth claims behind the non-quasi-periodic certificates of growing rules
        if m.record.grows:
            for c in coords:
                if c in facts.finite:
                    continue
                t = evaluate(m, Index((), c)).coord
                if not t > c or (abs(c) >= 2 and not abs(t) > abs(c)):
                    raise AssertionError(f"{name}: growth certificate broken at {c}")
    # recognized composition forms agree with stepping outer after inner
    for (outer, inner), form in FORMS.items():
        o, i = SelfMap(INTEGERS, outer), SelfMap(INTEGERS, inner)
        m = compose_maps(o, i)
        if canonical_form(m) != form.name:
            raise AssertionError(f"canonical_form missed {form.name}")
        for c in coords:
            got, want = evaluate(m, Index((), c)), evaluate(o, evaluate(i, Index((), c)))
            if got != want:
                raise AssertionError(f"{form.name}: evaluation mismatch at {c}: {got} != {want}")


@pytest.fixture(scope="session", autouse=True)
def _catalog_metadata_is_sound():
    """Re-verify every certified catalog fact by bounded scan before any test runs."""
    sanity_check_catalog_metadata(64)
