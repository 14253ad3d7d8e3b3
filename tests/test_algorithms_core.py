"""Differential tests for the array-native algorithm layer (PR: algorithms).

Three layers:

* **differential** -- :func:`repro.algorithms.boruvka_mst` and
  :func:`repro.algorithms.approximate_min_cut` must reproduce the seed
  oracles in ``tests/oracles/`` *exactly* (MST
  edges/weight/rounds/phases/qualities; cut value/side/edges/rounds) across
  every registered graph family, for both engine-capable and
  witness-closure shortcut builders;
* **substrate** -- the index-native :meth:`PartSet.from_member_lists`
  construction agrees with its label twin, and both aggregation entry
  points agree with the seed scheduler on every family;
* **satellites** -- the ROADMAP open items fixed alongside: the
  ``graph_diameter`` approximate-regime tie-break (pinned above the
  400-node exact threshold), the unified simulator exception contract, and
  the view-cache lifecycle.
"""

from __future__ import annotations

import gc
import weakref

import networkx as nx
import pytest

from repro.algorithms.mincut import approximate_min_cut
from repro.algorithms.mst import boruvka_mst, oblivious_builder
from repro.congest.aggregation import partwise_aggregate, partwise_aggregate_indexed
from repro.congest.node import NodeProgram
from repro.congest.simulator import CongestSimulator
from repro.core import PartSet, view_of
from repro.errors import InvalidGraphError
from repro.graphs.planar import cycle_graph, grid_graph, random_delaunay_triangulation
from repro.scenarios import build_instance, family_names
from repro.scenarios.registry import constructor as scenario_constructor
from repro.shortcuts.baseline import steiner_shortcut
from repro.structure.spanning import graph_diameter

from oracles import (
    approximate_min_cut_reference,
    boruvka_mst_reference,
    partwise_aggregate_reference,
    steiner_shortcut_reference,
)

_INSTANCES: dict = {}


def _family_instance(name):
    if name not in _INSTANCES:
        _INSTANCES[name] = build_instance(name, seed=3)
    return _INSTANCES[name]


def _assert_mst_equal(fast, reference):
    assert fast.edges == reference.edges
    assert fast.weight == reference.weight
    assert fast.rounds == reference.rounds
    assert fast.phases == reference.phases
    assert fast.phase_rounds == reference.phase_rounds
    assert fast.phase_qualities == reference.phase_qualities


def _assert_mincut_equal(fast, reference):
    assert fast.value == reference.value
    assert fast.side == reference.side
    assert fast.cut_edges == reference.cut_edges
    assert fast.rounds == reference.rounds
    assert fast.num_trees == reference.num_trees
    assert fast.tree_rounds == reference.tree_rounds
    assert fast.exact_value == reference.exact_value
    assert fast.approximation_ratio == reference.approximation_ratio


# --------------------------------------------------------------- differential


@pytest.mark.parametrize("family_name", family_names())
def test_boruvka_fast_path_matches_reference(family_name):
    """Array-native Boruvka == the seed Boruvka oracle on every family."""
    instance = _family_instance(family_name)
    weighted = instance.weighted_graph(3)
    tree = instance.tree
    fast = boruvka_mst(weighted, tree=tree)
    reference = boruvka_mst_reference(weighted, tree=tree)
    _assert_mst_equal(fast, reference)


@pytest.mark.parametrize("family_name", family_names())
def test_mincut_fast_path_matches_reference(family_name):
    """Array-native tree packing + respecting cuts == the seed min-cut oracle."""
    instance = _family_instance(family_name)
    weighted = instance.weighted_graph(3, low=1, high=10)
    tree = instance.tree
    fast = approximate_min_cut(weighted, epsilon=1.0, tree=tree)
    reference = approximate_min_cut_reference(weighted, epsilon=1.0, tree=tree)
    _assert_mincut_equal(fast, reference)


@pytest.mark.parametrize("constructor_name", ["oblivious", "steiner"])
def test_boruvka_engine_bypass_matches_builder_closure(constructor_name):
    """The registry's engine-capable builders == calling them as closures."""
    instance = _family_instance("planar")
    weighted = instance.weighted_graph(5)
    tree = instance.tree
    builder = scenario_constructor(constructor_name).builder_for(instance)
    assert builder.from_engine  # the hook the fast loop dispatches on
    via_marker = boruvka_mst(weighted, shortcut_builder=builder, tree=tree)

    def unmarked(graph, t, parts):
        return builder(graph, t, parts)

    via_closure = boruvka_mst(weighted, shortcut_builder=unmarked, tree=tree)
    _assert_mst_equal(via_marker, via_closure)


@pytest.mark.parametrize("family_name", family_names())
def test_boruvka_steiner_hook_matches_label_oracle(family_name):
    """The ``steiner`` hook == the seed Boruvka driven by the label Steiner oracle."""
    instance = _family_instance(family_name)
    weighted = instance.weighted_graph(3)
    tree = instance.tree
    builder = scenario_constructor("steiner").builder_for(instance)
    fast = boruvka_mst(weighted, shortcut_builder=builder, tree=tree)
    reference = boruvka_mst_reference(
        weighted, shortcut_builder=steiner_shortcut_reference, tree=tree
    )
    _assert_mst_equal(fast, reference)


def test_boruvka_fast_path_with_witness_builder_matches_reference():
    """A non-engine (label-space) builder exercises the label_parts hand-off."""
    instance = _family_instance("apex")
    weighted = instance.weighted_graph(7)
    tree = instance.tree
    builder = scenario_constructor("apex").builder_for(instance)
    assert not getattr(builder, "from_engine", None)
    fast = boruvka_mst(weighted, shortcut_builder=builder, tree=tree)
    reference = boruvka_mst_reference(weighted, shortcut_builder=builder, tree=tree)
    _assert_mst_equal(fast, reference)


def test_boruvka_reads_weights_assigned_after_viewing():
    """Weight reassignment between runs over one viewed graph is honoured."""
    from repro.graphs.weights import assign_random_weights

    graph = grid_graph(5, 5)
    view_of(graph)  # freeze the topology into the CSR cache first
    assign_random_weights(graph, seed=11, integer=True)
    first = boruvka_mst(graph)
    assign_random_weights(graph, seed=12, integer=True)
    second = boruvka_mst(graph)
    reference = boruvka_mst_reference(graph)
    _assert_mst_equal(second, reference)
    assert first.weight != second.weight  # the reassignment was visible


def test_mincut_compute_exact_false_skips_the_oracle():
    instance = _family_instance("planar")
    weighted = instance.weighted_graph(3, low=1, high=10)
    tree = instance.tree
    full = approximate_min_cut(weighted, epsilon=1.0, tree=tree)
    bare = approximate_min_cut(weighted, epsilon=1.0, tree=tree, compute_exact=False)
    assert bare.value == full.value
    assert bare.side == full.side
    assert bare.rounds == full.rounds
    assert bare.exact_value != bare.exact_value  # nan
    assert bare.approximation_ratio != bare.approximation_ratio  # nan


# ----------------------------------------------------------------- substrate


def test_part_set_from_member_lists_is_lazy_and_equal():
    graph = grid_graph(4, 4)
    view = view_of(graph)
    member_lists = [[5, 1, 3], [0, 2], [15]]
    part_set = PartSet.from_member_lists(view, member_lists)
    assert part_set._parts is None, "labels must not materialise eagerly"
    assert part_set.num_parts == 3
    assert part_set.members_of(0) == [1, 3, 5]
    assert part_set.owner_array()[15] == 2
    labels = part_set.label_parts()
    assert labels == [
        frozenset(view.nodes[m] for m in members) for members in member_lists
    ]
    assert part_set.parts is labels  # cached


@pytest.mark.parametrize("family_name", family_names())
def test_partwise_aggregate_indexed_matches_label_entry_point(family_name):
    """Both entry points == the seed scheduler, for min and an ordered combine.

    Tuple concatenation is associative but not commutative, so it pins the
    order in which every aggregation tree folds its children, not just the
    aggregate.  Engine-built shortcuts carry index-space edge lists; the
    seed Steiner oracle is label-built, so both hand-offs into the scheduler
    run.
    """
    instance = _family_instance(family_name)
    view = instance.view
    parts = instance.parts("tree_fragments", num_parts=6, seed=3)
    shortcuts = [
        scenario_constructor("oblivious").build(instance, instance.tree, parts),
        steiner_shortcut(instance.graph, instance.tree, parts),
        steiner_shortcut_reference(instance.graph, instance.tree, parts),
    ]
    for combine, label_values in (
        (min, {node: (index * 37) % 97 for index, node in enumerate(view.nodes)}),
        (lambda a, b: a + b, {node: (node,) for node in view.nodes}),
    ):
        indexed_values = [label_values[node] for node in view.nodes]
        for shortcut in shortcuts:
            reference = partwise_aggregate_reference(shortcut, label_values, combine=combine)
            assert partwise_aggregate(shortcut, label_values, combine=combine) == reference
            assert partwise_aggregate_indexed(shortcut, indexed_values, combine=combine) == reference


# ---------------------------------------------------------------- satellites


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: cycle_graph(501),  # odd cycle: two farthest vertices tie
        lambda: grid_graph(21, 21),  # 441 nodes: above the exact threshold
        lambda: random_delaunay_triangulation(430, seed=9),
    ],
    ids=["odd-cycle", "grid-21", "delaunay-430"],
)
def test_graph_diameter_tie_break_agrees_above_exact_threshold(make_graph):
    """ROADMAP open item: the approximate regime's far-vertex tie-breaks align."""
    graph = make_graph()
    assert graph.number_of_nodes() > 400
    assert graph_diameter(graph) == graph_diameter(view_of(graph))


def test_graph_diameter_agrees_in_exact_regime_too():
    graph = grid_graph(7, 9)
    assert graph_diameter(graph) == graph_diameter(view_of(graph)) == 14


@pytest.mark.parametrize("core_mode", [False, True], ids=["label", "core"])
def test_simulator_raises_invalid_graph_error_in_both_modes(core_mode):
    """ROADMAP open item: one exception type for empty/disconnected networks."""
    disconnected = nx.Graph()
    disconnected.add_nodes_from([0, 1])
    empty = nx.Graph()
    for network in (empty, disconnected):
        target = view_of(network) if core_mode else network
        with pytest.raises(InvalidGraphError):
            CongestSimulator(target, NodeProgram)


def test_view_cache_releases_dropped_graphs():
    """ROADMAP open item: a viewed graph must be collectable once dropped."""
    graph = grid_graph(3, 3)
    view = view_of(graph)
    assert view_of(graph) is view, "memoised per graph object"
    graph_ref = weakref.ref(graph)
    view_ref = weakref.ref(view)
    del graph, view
    gc.collect()
    assert graph_ref() is None, "the graph<->view cycle must be collectable"
    assert view_ref() is None
