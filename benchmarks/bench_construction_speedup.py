"""S4 -- the array-native construction engine versus the seed oracle.

The acceptance gate of the construction-engine refactor: the full
``oblivious_shortcut`` budget sweep (Euler-tour benefits, Steiner edge ids
shared across the sweep, incremental per-budget quality on the
:class:`~repro.shortcuts.ConstructionEngine`) must be at least **3x** faster
than the seed oracle ``oblivious_shortcut_reference`` (``tests/oracles/``)
on a mid-size planar grid, with both arms producing the identical shortcut
(edge sets, chosen budget, measured quality).  On this hardware the measured ratio is ~10-25x.

Each run appends its record to ``benchmarks/BENCH_S4.json`` (see
``conftest.append_trajectory``) -- a trajectory of (size, speedup, chosen
budget) entries so that speedup regressions are visible across commits,
not just against the gate.

CI runs this file at a smaller side by setting ``S4_BENCH_SIDE`` and raises
``S4_BENCH_REPEATS``; both arms take the best of N runs, which keeps the
ratio stable on noisy shared runners.
"""

import os

from conftest import append_trajectory, best_of, run_experiment
from oracles import measure_reference, oblivious_shortcut_reference

from repro.scenarios import InstanceCache, build_instance
from repro.shortcuts.congestion_capped import oblivious_shortcut

SIDE = int(os.environ.get("S4_BENCH_SIDE", "30"))
REPEATS = int(os.environ.get("S4_BENCH_REPEATS", "3"))


def experiment_construction_speedup(
    side: int = 30,
    seed: int = 23,
    parts_kind: str = "path",
    repeats: int = 3,
) -> dict:
    """Time the engine sweep against the seed sweep on a ``side x side`` grid.

    The seed oracle re-derives the Steiner trees, O(n) subtree sets and a
    fresh measurement for every budget.  Timing is best of ``repeats``.
    """
    cache = InstanceCache()
    instance = build_instance("planar", {"side": side}, seed=seed, cache=cache)
    instance.view  # warm the shared conversion (one per sweep)
    tree = instance.tree
    parts = instance.parts(parts_kind)
    instance.part_set(parts_kind)  # warm the int-indexed family next to the view
    graph = instance.graph

    fast_seconds, fast_shortcut = best_of(lambda: oblivious_shortcut(graph, tree, parts), repeats)
    reference_seconds, reference_shortcut = best_of(
        lambda: oblivious_shortcut_reference(graph, tree, parts), repeats
    )
    agree = (
        fast_shortcut.edge_sets == reference_shortcut.edge_sets
        and fast_shortcut.chosen_budget == reference_shortcut.chosen_budget
        and fast_shortcut.measure() == measure_reference(reference_shortcut)
    )
    return {
        "experiment": "S4-construction-speedup",
        "n": side * side,
        "parts_kind": parts_kind,
        "num_parts": len(parts),
        "chosen_budget": fast_shortcut.chosen_budget,
        "engine_seconds": fast_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / max(fast_seconds, 1e-9),
        "results_agree": agree,
        "measure": fast_shortcut.measure().as_row(),
    }


def test_s4_construction_speedup(benchmark):
    result = run_experiment(
        benchmark,
        experiment_construction_speedup,
        side=SIDE,
        repeats=REPEATS,
    )
    append_trajectory("S4", result)
    assert result["results_agree"]
    assert result["speedup"] >= 3.0
