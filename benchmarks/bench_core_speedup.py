"""S3 -- CoreGraph paths versus the seed oracles (>=2x gate).

The acceptance gate of the CSR kernel refactor: with the seed oracles in
``tests/oracles/`` as the baseline,

* ``Shortcut.measure()`` (flat congestion counting + epoch union-find
  blocks) must be at least 2x faster than the per-part
  ``nx.Graph``-components recomputation (``measure_reference``), and
* the full simulated MST scenario on the n=2025 grid (core-mode simulator,
  CSR aggregation trees and part validation, fast per-phase quality) must be
  at least 2x faster than a replay of the same workload on the seed Boruvka
  oracle and the label-mode simulator,

with both arms producing identical results.  The MST scenario's default
constructor is ``steiner``; the replay builds its shortcuts with the seed
twin ``steiner_shortcut_reference``.  On this hardware the measured
ratios are ~25-35x for quality measurement and ~11x for the MST run.

CI runs this file at a smaller n by setting ``CORE_BENCH_MST_SIDE`` /
``CORE_BENCH_QUALITY_SIDE``; the MST ratio shrinks with n (fixed set-up
costs weigh on the core arm), so the smoke also raises
``CORE_BENCH_REPEATS`` -- both arms take the best of N runs, which keeps
the ratio stable on noisy shared runners.

Each run appends its record to ``benchmarks/BENCH_S3.json`` (see
``conftest.append_trajectory``), like every other speedup gate.
"""

import os
import time

from conftest import append_trajectory, best_of, run_experiment
from oracles import boruvka_mst_reference, measure_reference, steiner_shortcut_reference

from repro.algorithms.mst import reference_mst_weight
from repro.congest.primitives import broadcast_value, distributed_bfs_tree
from repro.scenarios import InstanceCache, Scenario, build_instance, run_scenario
from repro.scenarios.registry import constructor as scenario_constructor

MST_SIDE = int(os.environ.get("CORE_BENCH_MST_SIDE", "45"))
QUALITY_SIDE = int(os.environ.get("CORE_BENCH_QUALITY_SIDE", "30"))
REPEATS = int(os.environ.get("CORE_BENCH_REPEATS", "3"))

MST_KEYS = ("mst_rounds", "mst_phases", "mst_weight", "weight_matches_reference",
            "sim_rounds", "sim_messages", "sim_words")


def replay_mst_on_oracles(scenario: Scenario, cache: InstanceCache) -> dict:
    """The registry ``mst`` runner's steps, on the seed Boruvka oracle.

    The simulated BFS build and result broadcast run in label mode (on the
    ``nx.Graph``), as they did before the CoreGraph refactor.
    """
    instance = build_instance(scenario.family, scenario.params, scenario.seed, cache)
    if scenario.constructor == "steiner":
        # The seed twin, so that the reference arm stays seed code.
        builder = steiner_shortcut_reference
    else:
        builder = scenario_constructor(scenario.constructor).builder_for(instance)
    weighted = instance.weighted_graph(scenario.seed)
    root = min(weighted.nodes(), key=repr)
    started = time.perf_counter()
    sim_tree, bfs_stats = distributed_bfs_tree(weighted, root)
    sim_seconds = time.perf_counter() - started
    result = boruvka_mst_reference(weighted, shortcut_builder=builder, tree=sim_tree)
    started = time.perf_counter()
    announce_stats = broadcast_value(weighted, root, round(result.weight, 6))
    sim_seconds += time.perf_counter() - started
    return {
        "mst_rounds": result.rounds,
        "mst_phases": result.phases,
        "mst_weight": result.weight,
        "weight_matches_reference": abs(result.weight - reference_mst_weight(weighted)) < 1e-6,
        "sim_seconds": sim_seconds,
        "sim_rounds": bfs_stats.rounds + announce_stats.rounds,
        "sim_messages": bfs_stats.messages + announce_stats.messages,
        "sim_words": bfs_stats.words + announce_stats.words,
    }


def experiment_core_speedup(
    mst_side: int = 45,
    quality_side: int = 30,
    seed: int = 19,
    quality_constructor: str = "whole_tree",
    mst_constructor: str = "steiner",
    repeats: int = 3,
) -> dict:
    """Time quality measurement and the ``mst`` scenario against the oracles.

    Quality runs on a ``quality_side`` grid with path parts and the
    ``quality_constructor`` shortcut (default ``whole_tree``: every part
    carries the full spanning tree, the heaviest measurement shape); the
    ``mst`` scenario runs on an ``mst_side`` grid against
    :func:`replay_mst_on_oracles`.  Wall-clock is best of ``repeats``.
    """
    cache = InstanceCache()
    # --- quality measurement -------------------------------------------
    quality_instance = build_instance("planar", {"side": quality_side}, seed=seed, cache=cache)
    quality_instance.view  # warm the shared conversion (one per sweep)
    parts = quality_instance.parts("path")
    shortcut = scenario_constructor(quality_constructor).build(
        quality_instance, quality_instance.tree, parts
    )

    fast_seconds, fast_measure = best_of(shortcut.measure, repeats)
    reference_seconds, reference_measure = best_of(lambda: measure_reference(shortcut), repeats)
    quality_agree = fast_measure == reference_measure

    # --- the simulated MST run -----------------------------------------
    warm = build_instance("planar", {"side": mst_side}, seed=seed, cache=cache)
    warm.weighted_graph(seed)
    warm.view
    warm.tree  # the shared spanning tree is cache-warm for both arms
    scenario = Scenario(
        name=f"planar/{mst_constructor}/mst",
        family="planar",
        constructor=mst_constructor,
        algorithm="mst",
        params={"side": mst_side},
        seed=seed,
    )

    def run_mst() -> dict:
        return dict(run_scenario(scenario, cache=cache).as_dict()["result"])

    core_seconds, core_result = best_of(run_mst, repeats)
    pre_seconds, pre_result = best_of(lambda: replay_mst_on_oracles(scenario, cache), repeats)
    mst_agree = all(core_result[key] == pre_result[key] for key in MST_KEYS)
    return {
        "experiment": "S3-core-speedup",
        "quality": {
            "n": quality_side * quality_side,
            "num_parts": len(parts),
            "constructor": quality_constructor,
            "core_seconds": fast_seconds,
            "reference_seconds": reference_seconds,
            "speedup": reference_seconds / max(fast_seconds, 1e-9),
            "results_agree": quality_agree,
            "measure": fast_measure.as_row(),
        },
        "mst": {
            "n": mst_side * mst_side,
            "constructor": mst_constructor,
            "core_seconds": core_seconds,
            "reference_seconds": pre_seconds,
            "speedup": pre_seconds / max(core_seconds, 1e-9),
            "sim_speedup": pre_result["sim_seconds"] / max(core_result["sim_seconds"], 1e-9),
            "results_agree": mst_agree,
            "mst_rounds": core_result["mst_rounds"],
        },
    }


def test_s3_core_speedup(benchmark):
    result = run_experiment(
        benchmark,
        experiment_core_speedup,
        mst_side=MST_SIDE,
        quality_side=QUALITY_SIDE,
        repeats=REPEATS,
    )
    append_trajectory("S3", result)
    assert result["quality"]["results_agree"]
    assert result["mst"]["results_agree"]
    assert result["quality"]["speedup"] >= 2.0
    assert result["mst"]["speedup"] >= 2.0
