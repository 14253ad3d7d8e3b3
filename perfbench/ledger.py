"""Per-layer span ledger, recorded from outside the program.

The ledger wraps the public function of each layer at the module attribute
(or class attribute) where callers look it up, records one span per call
and restores the originals afterwards.  No code under ``src/`` changes.

A span carries its layer name, its parent span, the root span it belongs
to (a unit's set-up or one scenario), its start and end times and, for
layers that report work, a few counters read from the call's return value.
A layer's self time is its spans' durations minus the durations of their
direct child spans, so the self times under one root sum to the root's
wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable

# Root layers: their self time is the time no wrapped call covers.
SETUP = "setup.other"
SCENARIO = "scenarios.other"


def _aggregation_counts(result) -> dict[str, float]:
    return {"rounds": result.rounds, "messages": result.messages}


def _simulation_counts(stats) -> dict[str, float]:
    return {
        "rounds": stats.rounds,
        "messages": stats.messages,
        "dropped": stats.dropped,
        "delivered": stats.messages - stats.dropped + stats.duplicated,
    }


def _bfs_counts(result) -> dict[str, float]:
    # distributed_bfs_tree returns (tree, stats); robust_bfs_tree adds a
    # repair count as a third element.
    return _simulation_counts(result[1])


def _mst_counts(result) -> dict[str, float]:
    return {"phases": result.phases}


# (owner, attribute, layer, counters): ``owner`` is a module path, or
# ``module:Class`` for a method looked up on the class.
SPANS: list[tuple[str, str, str, Callable | None]] = [
    ("repro.algorithms.mst", "partwise_aggregate_indexed", "congest.aggregation",
     _aggregation_counts),
    ("repro.algorithms.mst", "partwise_aggregate", "congest.aggregation",
     _aggregation_counts),
    ("repro.algorithms.mincut", "partwise_aggregate", "congest.aggregation",
     _aggregation_counts),
    ("repro.scenarios.registry", "partwise_aggregate", "congest.aggregation",
     _aggregation_counts),
    ("repro.algorithms.mst", "oblivious_sweep", "shortcuts.engine", None),
    ("repro.shortcuts.engine:ConstructionEngine", "__init__", "shortcuts.engine", None),
    ("repro.shortcuts.engine:ConstructionEngine", "quality_sweep", "shortcuts.engine",
     None),
    ("repro.shortcuts.engine:ConstructionEngine", "build_shortcut", "shortcuts.engine",
     None),
    ("repro.shortcuts.shortcut:Shortcut", "measure", "shortcuts.measure", None),
    ("repro.shortcuts.shortcut:Shortcut", "quality", "shortcuts.measure", None),
    ("repro.shortcuts.shortcut:Shortcut", "validate", "shortcuts.validate", None),
    ("repro.scenarios.registry", "distributed_bfs_tree", "congest.simulate", _bfs_counts),
    ("repro.scenarios.registry", "robust_bfs_tree", "congest.simulate", _bfs_counts),
    ("repro.scenarios.registry", "broadcast_value", "congest.simulate",
     _simulation_counts),
    ("repro.scenarios.registry", "boruvka_mst", "algorithms.mst", _mst_counts),
    ("repro.algorithms.mincut", "boruvka_mst", "algorithms.mst", _mst_counts),
    ("repro.scenarios.registry", "approximate_min_cut", "algorithms.mincut", None),
    ("repro.algorithms.mincut", "exact_min_cut", "algorithms.mincut.exact", None),
    ("repro.scenarios.registry", "native_mst_weight", "algorithms.oracle", None),
    ("repro.scenarios.registry", "reference_mst_weight", "algorithms.oracle", None),
    ("repro.scenarios.registry:FamilySpec", "instantiate", "graphs.instance", None),
    ("repro.scenarios.instances", "bfs_spanning_tree", "structure.spanning", None),
    ("repro.scenarios.instances", "tree_fragment_parts", "shortcuts.parts", None),
]

# The callables returned by ConstructorSpec.builder_for are wrapped too.
CONSTRUCT = "shortcuts.construct"


def resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Ledger:
    """Spans kept in memory: ``[layer, parent, root, start, end, counters]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        # Scenario root span -> the scenario's number of nodes.
        self.sizes: dict[int, int] = {}
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, layer: str, fn: Callable, args, kwargs, counters=None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        root = self.spans[parent][2] if parent >= 0 else index
        span = [layer, parent, root, time.perf_counter(), 0.0, None]
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._open.pop()
            span[4] = time.perf_counter()
        if counters is not None:
            span[5] = counters(result)
        return result

    def setup(self, fn: Callable):
        """Run ``fn()`` as the root span of a unit's set-up."""
        return self.call(SETUP, fn, (), {})

    def scenario(self, fn: Callable, n: int):
        """Run ``fn()`` as the root span of a scenario over ``n`` nodes."""
        self.sizes[len(self.spans)] = n
        return self.call(SCENARIO, fn, (), {})

    # -- installing the wrappers ----------------------------------------------

    def _wrap(self, fn: Callable, layer: str, counters=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, fn, args, kwargs, counters)

        return traced

    def install(self) -> None:
        for owner, attribute, layer, counters in SPANS:
            target = resolve(owner)
            original = target.__dict__[attribute] if isinstance(target, type) else getattr(
                target, attribute
            )
            self._saved.append((target, attribute, original))
            setattr(target, attribute, self._wrap(original, layer, counters))
        spec = resolve("repro.scenarios.registry:ConstructorSpec")
        builder_for = spec.__dict__["builder_for"]
        ledger = self

        def traced_builder_for(self_spec, instance):
            # functools.wraps copies the builder's __dict__, so flags such as
            # ``uses_engine`` reach the Boruvka loop unchanged.
            return ledger._wrap(builder_for(self_spec, instance), CONSTRUCT)

        self._saved.append((spec, "builder_for", builder_for))
        spec.builder_for = traced_builder_for

    def uninstall(self) -> None:
        while self._saved:
            target, attribute, original = self._saved.pop()
            setattr(target, attribute, original)

    # -- summaries --------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [span[4] - span[3] for span in self.spans]
        for span in self.spans:
            if span[1] >= 0:
                own[span[1]] -= span[4] - span[3]
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``s`` (self seconds), ``calls`` and summed counters."""
        totals: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = totals.setdefault(span[0], {"s": 0.0, "calls": 0})
            entry["s"] += own
            entry["calls"] += 1
            for key, value in (span[5] or {}).items():
                entry[key] = entry.get(key, 0) + value
        return totals

    def self_time_by_size(self) -> dict[str, dict[int, float]]:
        """Per layer, self seconds summed over the scenarios of each size."""
        by_size: dict[str, dict[int, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            if span[2] in self.sizes:
                layer = by_size.setdefault(span[0], {})
                n = self.sizes[span[2]]
                layer[n] = layer.get(n, 0.0) + own
        return by_size

    def wall(self) -> float:
        """Wall time of all root spans: traced set-ups and scenarios."""
        return sum(span[4] - span[3] for span in self.spans if span[1] < 0)
