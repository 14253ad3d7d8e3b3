"""Round-trip and differential tests for the CSR kernel (``repro.core``).

Three layers:

* **round trip** -- for every registered graph family, the
  :class:`GraphView` conversion preserves labels, edges and effective edge
  weights, the index bijection is consistent, and witnesses survive (they
  live on the instance, untouched by the view);
* **differential** -- the CoreGraph paths (BFS spanning trees, graph
  diameter, shortcut quality measurement, heavy-light chains, core-mode
  simulator) must reproduce the ``networkx`` implementations and the seed
  oracles in ``tests/oracles/`` *exactly* on every family;
* **end to end** -- an ``mst`` scenario record equals a replay of the
  workload on the seed Boruvka oracle and the label-mode simulator.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest.primitives import broadcast_value, distributed_bfs_tree, flood_max_id
from repro.core import CoreGraph, GraphView, view_of
from repro.errors import InvalidGraphError
from repro.graphs.planar import grid_graph
from repro.graphs.weights import WEIGHT, assign_random_weights
from repro.scenarios import (
    Scenario,
    applicable_constructors,
    build_instance,
    constructor,
    family_names,
    run_scenario,
)
from repro.structure.heavy_light import heavy_light_chains
from repro.structure.spanning import bfs_spanning_tree, graph_diameter

from oracles import boruvka_mst_reference, measure_reference


# ----------------------------------------------------------------- CoreGraph


def test_core_graph_csr_invariants():
    core = CoreGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3, 2.5)])
    assert core.num_nodes == 4 and core.num_edges == 4
    assert list(core.indptr) == [0, 2, 4, 6, 8]
    assert core.neighbors(0) == [1, 3]
    assert core.edge_weight(0, 3) == 2.5 and core.edge_weight(0, 1) == 1.0
    assert core.has_edge(2, 3) and not core.has_edge(0, 2)
    assert not core.has_edge(0, "elsewhere")
    assert core.is_connected()
    assert core.exact_diameter() == 2  # the 4-cycle


def test_core_graph_rejects_self_loops_and_range():
    with pytest.raises(InvalidGraphError):
        CoreGraph(3, [(1, 1)])
    with pytest.raises(InvalidGraphError):
        CoreGraph(3, [(0, 7)])


def test_core_graph_bfs_and_connectivity():
    core = CoreGraph(5, [(0, 1), (1, 2), (3, 4)])
    parents, order = core.bfs_parents(0)
    assert parents[0] == -1 and parents[2] == 1 and parents[3] == -2
    assert order == [0, 1, 2]
    assert not core.is_connected()
    with pytest.raises(InvalidGraphError):
        core.eccentricity(0)


# ---------------------------------------------------------------- round trip


_INSTANCES = {}


def _family_instance(name):
    if name not in _INSTANCES:
        _INSTANCES[name] = build_instance(name, seed=3)
    return _INSTANCES[name]


@pytest.mark.parametrize("family_name", family_names())
def test_graphview_round_trip_per_family(family_name):
    instance = _family_instance(family_name)
    graph = instance.graph
    witness_before = instance.witness
    view = instance.view
    assert view is view_of(graph), "instance view must be the shared memoised one"

    # The bijection is total and consistent.
    assert len(view) == graph.number_of_nodes()
    for index in range(len(view)):
        assert view.index_of(view.node_of(index)) == index
    for node in graph.nodes():
        assert view.node_of(view.index_of(node)) == node
        assert node in view

    # Round trip preserves labels, edges and effective weights.
    rebuilt = view.to_networkx()
    assert set(rebuilt.nodes()) == set(graph.nodes())
    assert {frozenset(edge) for edge in rebuilt.edges()} == {
        frozenset(edge) for edge in graph.edges()
    }
    for u, v, data in graph.edges(data=True):
        assert rebuilt[u][v].get(WEIGHT, 1.0) == data.get(WEIGHT, 1.0)

    # The witness rides on the instance, untouched by the conversion.
    assert instance.witness is witness_before


def test_graphview_round_trip_preserves_weights():
    graph = grid_graph(5, 5)
    assign_random_weights(graph, seed=11, integer=True)
    view = GraphView(graph)
    rebuilt = view.to_networkx()
    for u, v, data in graph.edges(data=True):
        assert rebuilt[u][v][WEIGHT] == data[WEIGHT]


def test_graphview_rejects_self_loops():
    graph = nx.Graph([(0, 1), (1, 1)])
    with pytest.raises(InvalidGraphError):
        GraphView(graph)


def test_view_of_is_memoised_per_graph_object():
    a, b = grid_graph(3, 3), grid_graph(3, 3)
    assert view_of(a) is view_of(a)
    assert view_of(a) is not view_of(b)
    assert view_of(view_of(a)) is view_of(a)


# --------------------------------------------------------------- differential


@pytest.mark.parametrize("family_name", family_names())
def test_core_bfs_tree_matches_networkx(family_name):
    instance = _family_instance(family_name)
    nx_tree = bfs_spanning_tree(instance.graph)
    core_tree = bfs_spanning_tree(instance.view)
    assert core_tree.root == nx_tree.root
    assert core_tree.parent == nx_tree.parent
    assert core_tree.depth == nx_tree.depth


@pytest.mark.parametrize("family_name", family_names())
def test_core_diameter_matches_networkx(family_name):
    instance = _family_instance(family_name)
    assert graph_diameter(instance.view) == graph_diameter(instance.graph)


@pytest.mark.parametrize("family_name", family_names())
def test_quality_measurement_matches_reference(family_name):
    """measure() (flat arrays) == the seed measure_reference (per-part nx graphs)."""
    instance = _family_instance(family_name)
    parts = instance.parts("tree_fragments", num_parts=6, seed=3)
    for name in applicable_constructors(instance):
        shortcut = constructor(name).build(instance, instance.tree, parts)
        assert shortcut.measure() == measure_reference(shortcut), name


def _reference_heavy_light_chains(tree, root):
    """The pre-CoreGraph dict-of-dict implementation, kept here as the oracle."""
    if tree.number_of_nodes() == 0:
        return []
    parent = {root: None}
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for neighbour in tree.neighbors(node):
            if neighbour not in parent:
                parent[neighbour] = node
                stack.append(neighbour)
    size = {node: 1 for node in parent}
    for node in reversed(order):
        if parent[node] is not None:
            size[parent[node]] += size[node]
    heavy_child = {}
    for node in parent:
        children = [c for c in tree.neighbors(node) if parent.get(c) == node]
        heavy_child[node] = max(children, key=lambda c: (size[c], repr(c))) if children else None
    chains = []
    chain_of = set()
    for node in order:
        if node in chain_of:
            continue
        chain = [node]
        chain_of.add(node)
        current = node
        while heavy_child[current] is not None:
            current = heavy_child[current]
            chain.append(current)
            chain_of.add(current)
        chains.append(chain)
    return chains


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heavy_light_chains_match_reference(seed):
    import random

    rng = random.Random(seed)
    tree = nx.random_labeled_tree(40, seed=rng.randint(0, 10_000))
    root = min(tree.nodes())
    assert heavy_light_chains(tree, root) == _reference_heavy_light_chains(tree, root)


def test_core_mode_primitives_match_label_mode():
    graph = grid_graph(7, 7)
    assign_random_weights(graph, seed=5, integer=True)
    view = view_of(graph)

    nx_tree, nx_stats = distributed_bfs_tree(graph, 0)
    core_tree, core_stats = distributed_bfs_tree(view, 0)
    assert core_tree.parent == nx_tree.parent
    assert (core_stats.rounds, core_stats.messages, core_stats.words) == (
        nx_stats.rounds,
        nx_stats.messages,
        nx_stats.words,
    )
    assert core_stats.telemetry == nx_stats.telemetry
    assert core_stats.outputs.keys() == nx_stats.outputs.keys()  # label-keyed

    assert flood_max_id(view)[0] == flood_max_id(graph)[0]

    nx_bc = broadcast_value(graph, 0, ("v", 7))
    core_bc = broadcast_value(view, 0, ("v", 7))
    assert core_bc == nx_bc  # outputs carry the value, so full equality holds


# --------------------------------------------------------------- end to end


def test_mst_scenario_identical_with_and_without_core_paths():
    """The mst workload == its replay on the seed Boruvka oracle + label-mode simulator."""
    scenario = Scenario(
        name="planar/steiner/mst",
        family="planar",
        constructor="steiner",
        algorithm="mst",
        params={"side": 6},
        seed=2,
    )
    fast = run_scenario(scenario).as_dict()["result"]

    instance = build_instance("planar", {"side": 6}, seed=2)
    weighted = instance.weighted_graph(2)
    root = min(weighted.nodes(), key=repr)
    sim_tree, bfs_stats = distributed_bfs_tree(weighted, root)
    mst = boruvka_mst_reference(
        weighted,
        shortcut_builder=constructor("steiner").builder_for(instance),
        tree=sim_tree,
    )
    announce_stats = broadcast_value(weighted, root, round(mst.weight, 6))
    assert fast["mst_rounds"] == mst.rounds
    assert fast["mst_phases"] == mst.phases
    assert fast["mst_weight"] == mst.weight
    assert fast["phase_qualities"] == mst.phase_qualities
    assert fast["sim_rounds"] == bfs_stats.rounds + announce_stats.rounds
    assert fast["sim_messages"] == bfs_stats.messages + announce_stats.messages
    assert fast["sim_words"] == bfs_stats.words + announce_stats.words
