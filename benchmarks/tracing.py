"""In-memory span tracer that wraps gshift's layer entry points from outside.

The package itself carries no tracing hooks, so the traced run replaces each
entry point listed in LAYERS with a wrapper, on every name a caller actually
looks up: the defining module's attribute, every ``from .x import name``
binding in the other gshift modules (``cli`` binds ``density_profile`` at
import time, ``configspace._step`` re-imports ``indexspace.evaluate`` on each
call), and, for methods, every Configuration subclass that defines one.

Each wrapped call records a span (name, start, end, parent span, run id) in
flat arrays and bumps per-name counters.  A call whose immediate parent span
has the same name (a union map recursing into its halves, a shifted
configuration delegating to its base) runs untraced inside the outer span, so
``calls`` counts entries into a layer function from a different caller, as
cProfile's primitive-call count does.  Self time is a span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

# (layer metric name, module, attribute) for module-level functions.
FUNCTIONS = (
    ("indexspace.evaluate", "gshift.indexspace", "evaluate"),
    ("indexspace.iterate", "gshift.indexspace", "iterate"),
    ("indexspace.table_map", "gshift.indexspace", "table_map"),
    ("orbits.orbit_position", "gshift.orbits", "orbit_position"),
    ("orbits.classify_point", "gshift.orbits", "classify_point"),
    ("orbits.map_profile", "gshift.orbits", "map_profile"),
    ("orbits.signed_orbit_index", "gshift.orbits", "signed_orbit_index"),
    ("stats.agreement_flags", "gshift.stats", "agreement_flags"),
    ("stats.density_profile", "gshift.stats", "density_profile"),
    ("stats.dc_pair_report", "gshift.stats", "dc_pair_report"),
    ("stats.proof_bound_check_dc", "gshift.stats", "proof_bound_check_dc"),
    ("theorems.predict", "gshift.theorems", "predict"),
    ("constructions.family", "gshift.constructions", "dc_family"),
    ("constructions.family", "gshift.constructions", "transitive_weave_family"),
    ("constructions.weave_entry_exponent", "gshift.constructions", "weave_entry_exponent"),
    ("cli.main", "gshift.cli", "main"),
    # private, but it is where verify picks its anchor; absent names are reported
    ("cli.pick_anchor", "gshift.cli", "_pick_anchor"),
)

# (layer metric name, defining module, base class, method) for methods; every
# subclass of the base that defines the method in its own body is wrapped.
METHODS = (
    ("configspace.symbol_at", "gshift.configspace", "Configuration", "symbol_at"),
    ("configspace.symbols_along", "gshift.configspace", "Configuration", "symbols_along"),
    ("constructions.pattern", "gshift.constructions", "PatternEnumeration", "pattern"),
)


def _agreement_positions(args) -> int:
    # agreement_flags(m, x, y, window, n): n positions per window coordinate
    return args[4] * len(args[3])


def _along_positions(args) -> int:
    # symbols_along(self, m, start, count)
    return args[3]


POSITIONS = {
    "stats.agreement_flags": _agreement_positions,
    "configspace.symbols_along": _along_positions,
}


class Tracer:
    """Spans and counters for one traced process, kept in memory until dump()."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.positions: list[int] = []
        self.stack: list[list] = []  # [span id, name id, child seconds]
        self.run = 0
        self.missing: list[str] = []
        self.origin = perf_counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.positions.append(0)
        return nid

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        count_positions = POSITIONS.get(name)
        stack = self.stack
        push, pop = stack.append, stack.pop
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_run, add_start = self.span_run.append, self.span_start.append
        add_end, ends = self.span_end.append, self.span_end
        calls, self_s, positions = self.calls, self.self_s, self.positions
        tracer = self

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                if parent[1] == nid:
                    return fn(*args, **kwargs)
                add_parent(parent[0])
            else:
                parent = None
                add_parent(-1)
            sid = len(ends)
            add_name(nid)
            add_run(tracer.run)
            add_end(0.0)
            frame = [sid, nid, 0.0]
            push(frame)
            t0 = perf_counter()
            add_start(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                pop()
                ends[sid] = t1
                dur = t1 - t0
                self_s[nid] += dur - frame[2]
                calls[nid] += 1
                if parent is not None:
                    parent[2] += dur
                if count_positions is not None:
                    positions[nid] += count_positions(args)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every entry point in FUNCTIONS and METHODS (gshift must be imported)."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "gshift" or key.startswith("gshift."))]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name, module, base_name, method in METHODS:
            base = getattr(sys.modules.get(module), base_name, None)
            classes = [cls for cls in _subclasses(base) if method in vars(cls)] if base else []
            if not classes:
                self.missing.append(f"{module}.{base_name}.{method}")
            for cls in classes:
                setattr(cls, method, self.wrap(name, vars(cls)[method]))

    # -- results --------------------------------------------------------------

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def positions_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.positions[nid]

    def calls_under(self, name: str, parents) -> int:
        """Calls of `name` whose parent span is one of `parents`."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        pids = {self._ids[p] for p in parents if p in self._ids}
        span_name = self.span_name
        return sum(1 for sid, n in enumerate(span_name)
                   if n == nid and self.span_parent[sid] >= 0
                   and span_name[self.span_parent[sid]] in pids)

    def dump(self, path) -> int:
        """Write the spans as gzipped JSON lines.

        The first line names the fields and the span names; each further line
        is one span [id, name index, start ns, end ns, parent id, run id], with
        times counted from the tracer's creation and parent -1 at the top.
        """
        origin = self.origin
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_ns", "end_ns", "parent", "run"],
                                 "names": self.names}) + "\n")
            batch = []
            for sid, (nid, start, end, parent, run) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_run)):
                batch.append(f"[{sid},{nid},{round((start - origin) * 1e9)},"
                             f"{round((end - origin) * 1e9)},{parent},{run}]\n")
                if len(batch) >= 65536:
                    fh.write("".join(batch))
                    batch.clear()
            fh.write("".join(batch))
        return len(self.span_name)


def _subclasses(base):
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen
