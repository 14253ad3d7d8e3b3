"""The part-wise aggregation schedule against the seed scheduler.

Both entry points (:func:`partwise_aggregate` and
:func:`partwise_aggregate_indexed`) must return exactly what the seed
label-keyed scheduler ``partwise_aggregate_reference`` returns -- the same
``values``, ``rounds``, ``messages`` and ``per_part_rounds`` -- in the
congested regime that Boruvka's first phases produce: many small parts
(up to ``n / 2``), shortcuts that make several parts queue on one directed
edge, and aggregation trees that pass through relay vertices outside the
part.  Like Boruvka fragments (subtrees of the MST, not of the shortcut's
tree ``T``), the parts are fragments of a random spanning tree, so their
Steiner trees in ``T`` leave the part and overlap.  Tuple concatenation as
the combine pins the order in which every tree folds its children, not
only the aggregate.

The typed failures (round budget, missing value, non-graph shortcut edge,
malformed parts) are pinned below the property test.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.aggregation import partwise_aggregate, partwise_aggregate_indexed
from repro.errors import SimulationError
from repro.graphs.planar import grid_graph
from repro.scenarios import build_instance, family, family_names
from repro.shortcuts.baseline import steiner_shortcut
from repro.shortcuts.congestion_capped import congestion_capped_shortcut
from repro.shortcuts.parts import tree_fragment_parts
from repro.shortcuts.shortcut import Shortcut
from repro.structure.spanning import RootedTree, bfs_spanning_tree

from oracles import partwise_aggregate_reference

_INSTANCES: dict = {}

COMBINES = {
    "min": (min, lambda rng, node: rng.randrange(50)),
    "concat": (lambda a, b: a + b, lambda rng, node: (node,)),
}


def _tiny_instance(name: str, seed: int):
    key = (name, seed)
    if key not in _INSTANCES:
        _INSTANCES[key] = build_instance(name, family(name).tiny_params, seed=seed)
    return _INSTANCES[key]


def _fragments(instance, num_parts: int, seed: int) -> list[frozenset]:
    """Fragments of a seeded random spanning tree (not of ``T``)."""
    rng = random.Random(seed)
    weighted = nx.Graph()
    weighted.add_weighted_edges_from((u, v, rng.random()) for u, v in instance.graph.edges())
    root = instance.tree.root
    parent = {root: None, **dict(nx.bfs_predecessors(nx.minimum_spanning_tree(weighted), root))}
    other = RootedTree(parent, root)
    return tree_fragment_parts(instance.graph, other, num_parts=num_parts, seed=seed)


def _shortcut(instance, parts, kind: str):
    if kind == "steiner":
        return steiner_shortcut(instance.graph, instance.tree, parts)
    return congestion_capped_shortcut(
        instance.graph, instance.tree, parts, congestion_budget=int(kind[len("capped"):])
    )


def _assert_schedules_equal(shortcut, label_values, combine):
    reference = partwise_aggregate_reference(shortcut, label_values, combine=combine)
    indexed_values = [label_values[node] for node in shortcut.part_set().view.nodes]
    for result in (
        partwise_aggregate(shortcut, label_values, combine=combine),
        partwise_aggregate_indexed(shortcut, indexed_values, combine=combine),
    ):
        assert result.values == reference.values
        assert result.rounds == reference.rounds
        assert result.messages == reference.messages
        assert result.per_part_rounds == reference.per_part_rounds
    return reference


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family_name=st.sampled_from(family_names()),
    instance_seed=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
    part_share=st.floats(min_value=0.0, max_value=1.0),
    kind=st.sampled_from(["capped0", "capped1", "capped2", "capped3", "steiner"]),
    combine_name=st.sampled_from(sorted(COMBINES)),
)
def test_schedule_matches_seed_scheduler_in_congested_regime(
    family_name, instance_seed, seed, part_share, kind, combine_name
):
    instance = _tiny_instance(family_name, instance_seed)
    n = instance.num_nodes
    num_parts = 1 + round(part_share * (n // 2 - 1))
    shortcut = _shortcut(instance, _fragments(instance, num_parts, seed), kind)
    combine, draw = COMBINES[combine_name]
    rng = random.Random(seed)
    values = {node: draw(rng, node) for node in instance.view.nodes}
    _assert_schedules_equal(shortcut, values, combine)


@pytest.mark.parametrize("kind", ["capped1", "steiner"])
def test_congested_regime_is_reached(kind):
    """The drawn regime really queues parts on shared edges and uses relays."""
    instance = _tiny_instance("planar", 0)
    shortcut = _shortcut(instance, _fragments(instance, instance.num_nodes // 2, 1), kind)
    relays = [
        vertex
        for index, edges in enumerate(shortcut.edge_sets)
        for edge in edges
        for vertex in edge
        if vertex not in shortcut.parts[index]
    ]
    assert relays
    assert shortcut.congestion() == (1 if kind == "capped1" else 3)
    values = {node: (node,) for node in instance.view.nodes}
    reference = _assert_schedules_equal(shortcut, values, lambda a, b: a + b)
    assert reference.rounds > 0


# ------------------------------------------------------------ typed failures


@pytest.fixture(scope="module")
def grid_case():
    graph = grid_graph(6, 6)
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=6, seed=2)
    shortcut = steiner_shortcut(graph, tree, parts)
    values = {node: index for index, node in enumerate(sorted(graph.nodes(), key=repr))}
    return graph, tree, parts, shortcut, values


def test_round_budget_boundary_matches_seed_scheduler(grid_case):
    _graph, _tree, _parts, shortcut, values = grid_case
    rounds = partwise_aggregate(shortcut, values).rounds
    assert rounds >= 3
    for aggregate in (partwise_aggregate, partwise_aggregate_reference):
        assert aggregate(shortcut, values, max_rounds=rounds - 1).rounds == rounds
        with pytest.raises(SimulationError, match="exceeded the round budget"):
            aggregate(shortcut, values, max_rounds=rounds - 2)
    indexed = [values[node] for node in shortcut.part_set().view.nodes]
    assert partwise_aggregate_indexed(shortcut, indexed, max_rounds=rounds - 1).rounds == rounds
    with pytest.raises(SimulationError, match="exceeded the round budget"):
        partwise_aggregate_indexed(shortcut, indexed, max_rounds=rounds - 2)


def test_missing_value_names_the_same_vertex_as_seed_scheduler(grid_case):
    _graph, _tree, parts, shortcut, values = grid_case
    missing = dict(values)
    del missing[sorted(parts[3], key=repr)[1]]
    messages = []
    for aggregate in (partwise_aggregate, partwise_aggregate_reference):
        with pytest.raises(SimulationError) as error:
            aggregate(shortcut, missing)
        messages.append(str(error.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("no input value for vertex")


def test_non_graph_shortcut_edge_is_a_simulation_error(grid_case):
    graph, tree, parts, _shortcut, values = grid_case
    # Vertices 0 and 7 of the 6x6 grid are diagonal neighbours: no edge.
    assert not graph.has_edge(0, 7)
    edge_sets = [frozenset() for _ in parts]
    edge_sets[2] = frozenset({(0, 7)})
    shortcut = Shortcut(graph, tree, parts, edge_sets)
    with pytest.raises(SimulationError, match=r"shortcut edge \(0, 7\) of part 2 is not a graph"):
        partwise_aggregate(shortcut, values)


def test_malformed_parts_are_simulation_errors(grid_case):
    graph, tree, parts, _shortcut, values = grid_case
    # Shortcut construction skips part validation; the scheduler still
    # refuses part families it cannot schedule.
    for bad_parts, message in (
        ([parts[0], parts[0] | parts[1]], "not disjoint"),
        ([parts[0], frozenset()], "part 1 is empty"),
    ):
        shortcut = Shortcut(graph, tree, bad_parts, [frozenset()] * len(bad_parts))
        with pytest.raises(SimulationError, match=message):
            partwise_aggregate(shortcut, values)


def test_indexed_values_must_cover_every_vertex(grid_case):
    _graph, _tree, _parts, shortcut, values = grid_case
    indexed = [values[node] for node in shortcut.part_set().view.nodes]
    for wrong in (indexed[:-1], indexed + [0]):
        with pytest.raises(SimulationError, match="expected 36 indexed values"):
            partwise_aggregate_indexed(shortcut, wrong)
