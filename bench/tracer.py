"""Spans around the library's layer boundaries, recorded from outside.

The tracer replaces module attributes (``engine.cost_share``,
``oracles.shortest_path``, ...) with timing wrappers, so every call a layer
makes through that name becomes a span with a start, an end and the span it
was called from.  Nothing in the library changes: the wrappers sit at the
names the callers look up, and ``uninstall`` puts the originals back.

A layer's self time is its spans' duration minus the part covered by their
direct child spans; per-layer metrics are derived from the spans in
``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import logging
import statistics
from time import perf_counter
from typing import Callable

# (module, attribute): the span name is "<module>.<attribute>".  Callers look
# these names up at call time, so replacing the attribute intercepts them.
TARGETS: tuple[tuple[str, str], ...] = (
    ("engine", "delta_vector"),
    ("engine", "approximate_best_response"),
    ("engine", "cost_share"),
    ("engine", "reply_oracle"),
    ("engine", "total_cost"),
    ("sharing", "shapley_exact"),
    ("sharing", "shapley_sampled"),
    ("sharing", "hoeffding_sample_count"),
    ("oracles", "routing_oracle"),
    ("oracles", "machine_oracle"),
    ("oracles", "explicit_oracle"),
    ("oracles", "steiner_tree_oracle"),
    ("oracles", "steiner_forest_oracle"),
    ("oracles", "directed_multi_routing_oracle"),
    ("oracles", "strong_connectivity_oracle"),
    ("oracles", "shortest_path"),
    ("analysis", "potential"),
    ("fpl", "candidate_replies"),
    ("fpl", "fpl_step"),
    ("fpl", "routing_oracle"),
    ("fpl", "total_cost"),
)

# spans whose layer is not the module they are looked up in
LAYER_OF = {
    "engine.cost_share": "sharing",
    "engine.reply_oracle": "oracles",
    "engine.total_cost": "instance",
    "fpl.routing_oracle": "oracles",
    "fpl.total_cost": "instance",
    "fpl.candidate_replies": "analysis",
}

ORACLE_KINDS = {
    "oracles.routing_oracle": "routing",
    "fpl.routing_oracle": "routing",
    "oracles.steiner_tree_oracle": "steiner_tree",
    "oracles.steiner_forest_oracle": "steiner_forest",
    "oracles.machine_oracle": "argmin",
    "oracles.explicit_oracle": "argmin",
    "oracles.directed_multi_routing_oracle": "directed",
    "oracles.strong_connectivity_oracle": "directed",
}


def layer(name: str) -> str:
    return LAYER_OF.get(name, name.split(".", 1)[0])


def _users_in_query(args, result):
    return len(args[0].users)


def _length(args, result):
    return len(result)


def _identity(args, result):
    return result


# per-span numbers worth keeping beside the timing
NOTES: dict[str, Callable] = {
    "sharing.shapley_exact": _users_in_query,
    "sharing.hoeffding_sample_count": _identity,
    "fpl.candidate_replies": _length,
}


class CapCounter(logging.Handler):
    """Counts the sharing layer's warnings (at this library version, only
    sample-cap warnings, each meaning one share whose epsilon guarantee is
    void) and keeps them off stderr."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def attach_cap_counter() -> CapCounter:
    handler = CapCounter()
    log = logging.getLogger("gndes.sharing")
    log.addHandler(handler)
    log.propagate = False
    return handler


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.notes: dict[int, float] = {}
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def clear(self):
        self.names.clear()
        self.parents.clear()
        self.starts.clear()
        self.ends.clear()
        self.notes.clear()
        self._stack[:] = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, notes, note = self._stack, self.notes, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, result)
            return result

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of its own (the root of a solve)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        """Wrap every target that exists; record the missing ones as absent."""
        self.absent = []
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"gndes.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(f"{module_name}.{attr}", original))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write_csv(self, path: str):
        """One line per span: id, parent id, name, start and end in seconds
        relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for idx, (name, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{idx},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")

    # -- aggregation ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        own = self.durations()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own


def layer_metrics(tracer: Tracer, cap_hits: int, rounds: int,
                  step_durations: list[float]) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced pass.

    ``cap_hits`` counts the sample-cap warnings and ``rounds`` the FPL rounds
    of the pass.  The ``delta_vector`` durations are appended to
    ``step_durations``, so step percentiles can be pooled across passes.
    """
    names = tracer.names
    dur = tracer.durations()
    own = tracer.self_times()
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    own_total: dict[str, float] = {}
    layer_own: dict[str, float] = {}
    for idx, name in enumerate(names):
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[idx]
        own_total[name] = own_total.get(name, 0.0) + own[idx]
        lay = layer(name)
        layer_own[lay] = layer_own.get(lay, 0.0) + own[idx]

    def notes_of(name):
        return [v for idx, v in tracer.notes.items() if names[idx] == name]

    step_durations.extend(
        dur[idx] for idx, name in enumerate(names) if name == "engine.delta_vector")
    exact_users = notes_of("sharing.shapley_exact")
    samples = notes_of("sharing.hoeffding_sample_count")
    kind_s: dict[str, float] = {}
    for name, kind in ORACLE_KINDS.items():
        kind_s[kind] = kind_s.get(kind, 0.0) + total.get(name, 0.0)
    sampled = count.get("sharing.shapley_sampled", 0)
    hoeffding = count.get("sharing.hoeffding_sample_count", 0)
    return {
        "engine.steps": count.get("engine.delta_vector", 0),
        "engine.abr_calls": count.get("engine.approximate_best_response", 0),
        "engine.abr_self_s": own_total.get("engine.approximate_best_response", 0.0),
        "sharing.calls": count.get("engine.cost_share", 0),
        "sharing.self_s": layer_own.get("sharing", 0.0),
        "sharing.exact_users_mean": statistics.fmean(exact_users) if exact_users else 0.0,
        "sharing.exact_users_max": max(exact_users, default=0),
        "sharing.samples": sum(samples),
        "sharing.cap_hits": cap_hits,
        "sharing.cap_hit_frac": cap_hits / hoeffding if hoeffding else 0.0,
        "sharing.guarantee_void_frac": cap_hits / sampled if sampled else 0.0,
        "oracles.calls": sum(count.get(name, 0) for name in ORACLE_KINDS),
        "oracles.self_s": layer_own.get("oracles", 0.0),
        "oracles.shortest_path_calls": count.get("oracles.shortest_path", 0),
        "oracles.routing_s": kind_s["routing"],
        "oracles.steiner_tree_s": kind_s["steiner_tree"],
        "oracles.steiner_forest_s": kind_s["steiner_forest"],
        "oracles.argmin_s": kind_s["argmin"],
        "analysis.potential_calls": count.get("analysis.potential", 0),
        "analysis.potential_s": total.get("analysis.potential", 0.0),
        "instance.total_cost_s": layer_own.get("instance", 0.0),
        "fpl.rounds": rounds,
        "fpl.paths": sum(notes_of("fpl.candidate_replies")),
        "fpl.enumerate_s": total.get("fpl.candidate_replies", 0.0),
        "fpl.step_s": total.get("fpl.fpl_step", 0.0),
        "fpl.round_self_s": own_total.get("solve.run_l_apx", 0.0),
    }
