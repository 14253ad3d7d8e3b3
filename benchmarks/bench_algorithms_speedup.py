"""S5 -- the array-native algorithm layer versus the seed oracles.

The acceptance gate of the algorithm-layer refactor: one end-to-end
distributed MST plus one (1+eps)-approximate min-cut (the Corollary 1
workload) on the array-native fast paths -- flat union-find Boruvka
fragments, CSR MWOE scans, engine-driven per-phase shortcuts, indexed
aggregation, Euler-interval respecting-cut sweeps -- must be at least **3x**
faster than the seed oracles ``boruvka_mst_reference`` /
``approximate_min_cut_reference`` (``tests/oracles/``) on a mid-size planar
grid, with both arms producing identical results (MST
edges/weight/rounds/phases/qualities, cut value/side/edges/rounds).  On this hardware the measured ratio is ~5-8x.

A second arm gates the ``steiner`` constructor's engine hook the same way:
Boruvka with the registry's ``steiner`` builder (each phase's shortcut is
the construction engine's unpruned build) against ``boruvka_mst_reference``
driven by the label oracle ``steiner_shortcut_reference``, with identical
MST results and the same >=3x gate.

Each run appends its record to ``benchmarks/BENCH_S5.json`` (see
``conftest.append_trajectory``) -- a trajectory of (size, speedup, rounds)
entries so that speedup regressions are visible across commits, not just
against the gate.

CI runs this file at a smaller side by setting ``S5_BENCH_SIDE`` and raises
``S5_BENCH_REPEATS``; both arms take the best of N runs, which keeps the
ratio stable on noisy shared runners.
"""

import os

from conftest import append_trajectory, best_of, run_experiment
from oracles import (
    approximate_min_cut_reference,
    boruvka_mst_reference,
    steiner_shortcut_reference,
)

from repro.algorithms.mincut import approximate_min_cut
from repro.algorithms.mst import boruvka_mst
from repro.scenarios import InstanceCache, build_instance
from repro.scenarios.registry import constructor

SIDE = int(os.environ.get("S5_BENCH_SIDE", "30"))
REPEATS = int(os.environ.get("S5_BENCH_REPEATS", "3"))


def experiment_algorithms_speedup(
    side: int = 30,
    seed: int = 23,
    epsilon: float = 1.0,
    repeats: int = 3,
) -> dict:
    """Time one MST plus one min-cut on a ``side x side`` grid, package vs oracles.

    The centralised Stoer--Wagner oracle is skipped (``compute_exact=False``):
    it is identical dead weight in both arms and no part of the distributed
    algorithm.  Timing is best of ``repeats``.
    """
    cache = InstanceCache()
    instance = build_instance("planar", {"side": side}, seed=seed, cache=cache)
    instance.view  # warm the shared conversion (one per sweep)
    tree = instance.tree
    weighted = instance.weighted_graph(seed, low=1, high=10)

    def run_workload():
        mst = boruvka_mst(weighted, tree=tree)
        cut = approximate_min_cut(weighted, epsilon=epsilon, tree=tree, compute_exact=False)
        return mst, cut

    def run_oracles():
        mst = boruvka_mst_reference(weighted, tree=tree)
        cut = approximate_min_cut_reference(
            weighted, epsilon=epsilon, tree=tree, compute_exact=False
        )
        return mst, cut

    steiner_builder = constructor("steiner").builder_for(instance)

    def run_steiner():
        return boruvka_mst(weighted, shortcut_builder=steiner_builder, tree=tree)

    def run_steiner_oracle():
        return boruvka_mst_reference(
            weighted, shortcut_builder=steiner_shortcut_reference, tree=tree
        )

    fast_seconds, (fast_mst, fast_cut) = best_of(run_workload, repeats)
    reference_seconds, (reference_mst, reference_cut) = best_of(run_oracles, repeats)
    steiner_seconds, steiner_mst = best_of(run_steiner, repeats)
    steiner_reference_seconds, steiner_reference_mst = best_of(run_steiner_oracle, repeats)
    agree = (
        _mst_agree(fast_mst, reference_mst)
        and fast_cut.value == reference_cut.value
        and fast_cut.side == reference_cut.side
        and fast_cut.cut_edges == reference_cut.cut_edges
        and fast_cut.rounds == reference_cut.rounds
        and fast_cut.tree_rounds == reference_cut.tree_rounds
    )
    return {
        "experiment": "S5-algorithms-speedup",
        "n": side * side,
        "epsilon": epsilon,
        "mst_rounds": fast_mst.rounds,
        "mst_phases": fast_mst.phases,
        "mincut_value": fast_cut.value,
        "mincut_rounds": fast_cut.rounds,
        "num_trees": fast_cut.num_trees,
        "fast_seconds": fast_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / max(fast_seconds, 1e-9),
        "results_agree": agree,
        "steiner_mst_rounds": steiner_mst.rounds,
        "steiner_fast_seconds": steiner_seconds,
        "steiner_reference_seconds": steiner_reference_seconds,
        "steiner_speedup": steiner_reference_seconds / max(steiner_seconds, 1e-9),
        "steiner_results_agree": _mst_agree(steiner_mst, steiner_reference_mst),
    }


def _mst_agree(fast, reference) -> bool:
    return (
        fast.edges == reference.edges
        and fast.weight == reference.weight
        and fast.rounds == reference.rounds
        and fast.phase_rounds == reference.phase_rounds
        and fast.phase_qualities == reference.phase_qualities
    )


def test_s5_algorithms_speedup(benchmark):
    result = run_experiment(
        benchmark,
        experiment_algorithms_speedup,
        side=SIDE,
        repeats=REPEATS,
    )
    append_trajectory("S5", result)
    assert result["results_agree"]
    assert result["speedup"] >= 3.0
    assert result["steiner_results_agree"]
    assert result["steiner_speedup"] >= 3.0
