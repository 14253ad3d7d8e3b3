"""Differential and property tests for the array-native construction engine.

Three layers:

* **differential** -- the :class:`~repro.shortcuts.ConstructionEngine`
  behind ``oblivious_shortcut`` / ``congestion_capped_shortcut`` must
  reproduce the seed oracles in ``tests/oracles/`` *exactly* (edge sets,
  congestion, blocks, chosen budget) across every registered graph family
  and every part generator kind;
* **property** -- the incremental budget sweep's per-budget quality must
  equal a from-scratch ``congestion_capped_shortcut`` at each budget,
  including unsorted, duplicated and negative budget schedules;
* **compiled engine vs seed oracles** -- a Hypothesis property over tiny
  instances of every family, with random-spanning-tree fragments as parts
  (Steiner trees leave their part and overlap) and random budget lists,
  compares every per-budget quality, edge set and the chosen budget with
  the oracles, and the engine-built ``steiner_shortcut`` (edge sets,
  measurement, priced quality) with the label Steiner oracle;
* **substrate** -- the Euler-tour index and the int-indexed
  :class:`~repro.core.PartSet` agree with the label-keyed
  :class:`RootedTree` / ``frozenset`` structures they replace.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import part_set_of, view_of
from repro.graphs.planar import grid_graph, wheel_graph
from repro.scenarios import build_instance, family_names
from repro.shortcuts.baseline import steiner_shortcut
from repro.shortcuts.congestion_capped import (
    congestion_capped_shortcut,
    default_budget_schedule,
    oblivious_shortcut,
)
from repro.shortcuts.engine import ConstructionEngine
from repro.shortcuts.parts import path_parts, singleton_parts, tree_fragment_parts
from repro.structure.spanning import bfs_spanning_tree

from oracles import (
    block_parameter_reference,
    congestion_capped_reference,
    measure_reference,
    oblivious_shortcut_reference,
    steiner_shortcut_reference,
    validate_gates_reference,
)
from test_aggregation_schedule import _fragments, _tiny_instance

PART_KINDS = ("tree_fragments", "path", "singleton")

_INSTANCES: dict = {}


def _family_instance(name):
    if name not in _INSTANCES:
        _INSTANCES[name] = build_instance(name, seed=3)
    return _INSTANCES[name]


def _family_parts(instance, kind):
    if kind == "tree_fragments":
        return instance.parts("tree_fragments", num_parts=6, seed=3)
    return instance.parts(kind)


# --------------------------------------------------------------- differential


@pytest.mark.parametrize("kind", PART_KINDS)
@pytest.mark.parametrize("family_name", family_names())
def test_oblivious_engine_matches_reference(family_name, kind):
    """Engine sweep == seed sweep oracle: edge sets, measures, chosen budget."""
    instance = _family_instance(family_name)
    graph, tree = instance.graph, instance.tree
    parts = _family_parts(instance, kind)
    fast = oblivious_shortcut(graph, tree, parts)
    reference = oblivious_shortcut_reference(graph, tree, parts)
    assert fast.edge_sets == reference.edge_sets
    assert fast.chosen_budget == reference.chosen_budget
    assert fast.chosen_quality == reference.chosen_quality
    assert fast.constructor == reference.constructor == "oblivious"
    assert fast.block_parameter() == block_parameter_reference(reference)
    assert fast.measure() == measure_reference(reference)


@pytest.mark.parametrize("family_name", family_names())
def test_congestion_capped_engine_matches_reference_per_budget(family_name):
    instance = _family_instance(family_name)
    graph, tree = instance.graph, instance.tree
    parts = _family_parts(instance, "tree_fragments")
    for budget in (0, 1, 2, 3, len(parts)):
        fast = congestion_capped_shortcut(graph, tree, parts, congestion_budget=budget)
        reference = congestion_capped_reference(graph, tree, parts, budget)
        assert fast.edge_sets == reference.edge_sets, budget
        assert fast.constructor == reference.constructor, budget
        fast.validate()
        assert fast.congestion() <= max(0, budget)


# ------------------------------------------------------------------ property


@pytest.mark.parametrize(
    "make_graph",
    [lambda: grid_graph(7, 7), lambda: wheel_graph(20)],
    ids=["grid", "wheel"],
)
def test_incremental_sweep_matches_from_scratch_at_every_budget(make_graph):
    graph = make_graph()
    tree = bfs_spanning_tree(graph)
    parts = path_parts(graph, tree)
    engine = ConstructionEngine(graph, tree, parts)
    budgets = list(range(len(parts) + 2))
    qualities = engine.quality_sweep(budgets)
    for budget in budgets:
        from_scratch = congestion_capped_shortcut(
            graph, tree, parts, congestion_budget=budget
        )
        assert qualities[budget] == from_scratch.quality(), budget


def test_sweep_handles_unsorted_duplicate_and_negative_budgets():
    graph = grid_graph(6, 6)
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=7, seed=5)
    budgets = [4, 1, 4, -3, 2, 1, 9]
    fast = oblivious_shortcut(graph, tree, parts, budgets=budgets)
    reference = oblivious_shortcut_reference(graph, tree, parts, budgets=budgets)
    assert fast.edge_sets == reference.edge_sets
    assert fast.chosen_budget == reference.chosen_budget
    assert fast.measure() == measure_reference(reference)


def test_default_budget_schedule_is_strictly_increasing_to_num_parts():
    for num_parts in range(1, 40):
        schedule = default_budget_schedule(num_parts)
        assert schedule[-1] == num_parts
        assert len(set(schedule)) == len(schedule)
        assert schedule == sorted(schedule)
        # The doubling ladder is intact below the final budget.
        assert all(b == 2**i for i, b in enumerate(schedule[:-1]))


def test_oblivious_validates_parts_once_per_sweep(monkeypatch):
    import repro.shortcuts.congestion_capped as module

    calls = {"count": 0}
    real = module.validate_parts

    def counting(graph, parts):
        calls["count"] += 1
        return real(graph, parts)

    monkeypatch.setattr(module, "validate_parts", counting)
    graph = grid_graph(5, 5)
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=5, seed=1)
    oblivious_shortcut(graph, tree, parts)
    assert calls["count"] == 1


def test_chosen_budget_is_none_for_direct_constructions():
    graph = grid_graph(4, 4)
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=3, seed=2)
    assert congestion_capped_shortcut(graph, tree, parts).chosen_budget is None
    assert oblivious_shortcut(graph, tree, parts).chosen_budget is not None
    assert oblivious_shortcut(graph, tree, []).chosen_budget is None


# ------------------------------------------- compiled engine vs seed oracles


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family_name=st.sampled_from(family_names()),
    instance_seed=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
    part_share=st.floats(min_value=0.0, max_value=1.0),
    budgets=st.lists(st.integers(min_value=-3, max_value=12), min_size=1, max_size=6),
)
def test_compiled_engine_matches_seed_oracles(
    family_name, instance_seed, seed, part_share, budgets
):
    instance = _tiny_instance(family_name, instance_seed)
    graph, tree = instance.graph, instance.tree
    num_parts = 1 + round(part_share * (instance.num_nodes // 2 - 1))
    parts = _fragments(instance, num_parts, seed)
    engine = ConstructionEngine(graph, tree, parts)
    qualities = engine.quality_sweep(budgets)
    assert sorted(qualities) == sorted({max(0, budget) for budget in budgets})
    for budget in sorted(qualities):
        reference = congestion_capped_reference(graph, tree, parts, budget)
        assert qualities[budget] == measure_reference(reference).quality, budget
        assert engine.build_shortcut(budget).edge_sets == reference.edge_sets, budget
    fast = oblivious_shortcut(graph, tree, parts, budgets=budgets)
    reference = oblivious_shortcut_reference(graph, tree, parts, budgets=budgets)
    assert fast.edge_sets == reference.edge_sets
    assert fast.chosen_budget == reference.chosen_budget
    assert fast.chosen_quality == reference.chosen_quality


def _assert_steiner_matches_oracle(graph, tree, parts):
    fast = steiner_shortcut(graph, tree, parts)
    reference = steiner_shortcut_reference(graph, tree, parts)
    measured = measure_reference(reference)
    assert fast.constructor == "steiner"
    assert fast.edge_sets == reference.edge_sets
    assert fast.measure() == measured
    if parts:
        assert fast.chosen_quality == measured.quality


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family_name=st.sampled_from(family_names()),
    instance_seed=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
    part_share=st.floats(min_value=0.0, max_value=1.0),
)
def test_engine_steiner_matches_seed_oracle(family_name, instance_seed, seed, part_share):
    instance = _tiny_instance(family_name, instance_seed)
    num_parts = 1 + round(part_share * (instance.num_nodes // 2 - 1))
    parts = _fragments(instance, num_parts, seed)
    _assert_steiner_matches_oracle(instance.graph, instance.tree, parts)


@pytest.mark.parametrize("family_name", family_names())
def test_engine_steiner_matches_seed_oracle_on_singletons_and_empty_family(family_name):
    instance = _tiny_instance(family_name, 0)
    graph, tree = instance.graph, instance.tree
    _assert_steiner_matches_oracle(graph, tree, singleton_parts(graph))
    _assert_steiner_matches_oracle(graph, tree, [])
    assert steiner_shortcut(graph, tree, []).num_parts == 0


def test_compiled_engine_regime_is_reached():
    """The drawn regime has congested edges, singletons and member tops."""
    max_owner_count = 0
    singletons = member_tops = 0
    for family_name in family_names():
        instance = _tiny_instance(family_name, 0)
        for seed in range(3):
            parts = _fragments(instance, instance.num_nodes // 2, seed)
            engine = ConstructionEngine(instance.graph, instance.tree, parts)
            max_owner_count = max(max_owner_count, engine.max_owner_count)
            part_set = engine.part_set
            for index in range(part_set.num_parts):
                members = part_set.members_of(index)
                singletons += len(members) == 1
                member_tops += len(members) > 1 and int(engine.top[index]) in members
    assert max_owner_count >= 3
    assert singletons and member_tops


# ----------------------------------------------------------------- substrate


def test_euler_index_intervals_match_subtree_nodes():
    graph = grid_graph(5, 5)
    tree = bfs_spanning_tree(graph)
    view = view_of(graph)
    euler = tree.euler_index(view)
    assert euler is tree.euler_index(view), "euler index must be cached per view"
    index_of, node_of = view.index_of, view.nodes
    for node in tree.nodes:
        subtree = tree.subtree_nodes(node)
        ancestor = index_of(node)
        interval = {
            node_of[v] for v in range(len(view)) if euler.in_subtree(ancestor, v)
        }
        assert interval == subtree, node
    for u in list(tree.nodes)[:6]:
        for v in list(tree.nodes)[-6:]:
            lca = euler.lca(index_of(u), index_of(v))
            assert node_of[lca] == tree.lowest_common_ancestor(u, v)


def test_part_set_arrays_and_memoisation():
    graph = grid_graph(5, 5)
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=4, seed=7)
    view = view_of(graph)
    part_set = part_set_of(graph, parts)
    assert part_set is part_set_of(view, parts), "memoised per (view, parts)"
    assert part_set is part_set_of(view, [frozenset(p) for p in parts]), "value-keyed"
    assert len(part_set) == len(parts)
    owner = part_set.owner_array()
    for index, part in enumerate(parts):
        members = part_set.members_of(index)
        assert members == sorted(members)
        assert {view.nodes[m] for m in members} == set(part)
        assert all(owner[m] == index for m in members)
        assert part_set.connected(index) == nx.is_connected(graph.subgraph(part))
    euler = tree.euler_index(view)
    by_tin = part_set.members_by_tin(euler)
    for index, members in enumerate(by_tin):
        tins = [euler.tin[m] for m in members]
        assert tins == sorted(tins)
        assert set(members) == set(part_set.members_of(index))


def test_part_set_connectivity_detects_disconnection():
    graph = grid_graph(3, 3)
    part_set = part_set_of(graph, [frozenset({0, 8})])
    assert not part_set.connected(0)


def test_part_sets_live_and_die_with_their_view():
    import gc
    import weakref

    from repro.core import GraphView

    graph = grid_graph(3, 3)
    view = GraphView(graph)  # deliberately bypasses the view_of memo
    part_set = part_set_of(view, [frozenset({0, 1})])
    assert view._part_sets, "part sets are memoised on the view itself"
    finalizer = weakref.ref(view)
    del view, part_set
    gc.collect()
    assert finalizer() is None, "dropping the view must drop its part sets"


def _first_violation(callable_):
    from repro.errors import InvalidPartitionError

    try:
        callable_()
    except InvalidPartitionError as error:
        return str(error)
    return None


def test_validate_parts_reports_same_violation_in_both_modes():
    """A later part's bad vertex must not mask an earlier violation.

    The family-wide part set cannot be built when a later part has a
    non-graph vertex; the per-part fallback must still report the first
    violation in part order, with the seed check's message.
    """
    from repro.shortcuts.parts import validate_parts

    graph = nx.path_graph(4)
    cases = [
        # overlap before missing
        ([frozenset({0}), frozenset({0}), frozenset({99})], "parts overlap on vertices [0]"),
        # disconnection before missing
        ([frozenset({0, 3}), frozenset({99})], "part 0 is not connected (Definition 9)"),
        # empty before missing
        ([frozenset({0}), frozenset(), frozenset({99})], "part 1 is empty"),
    ]
    for parts, message in cases:
        assert _first_violation(lambda: validate_parts(graph, parts)) == message, parts


def test_cell_validate_reports_same_violation_in_both_modes():
    from repro.structure.cells import CellPartition

    graph = nx.path_graph(4)
    partition = CellPartition(cells=[frozenset({0, 3}), frozenset({99})])
    assert (
        _first_violation(lambda: partition.validate(graph))
        == "cell 0 is not connected in the graph"
    )


def test_validate_gates_tolerates_stale_cells_like_reference():
    """Cells with non-graph vertices: ignored, like the seed checker's cell_of."""
    from repro.structure.cells import CellPartition
    from repro.structure.gates import CombinatorialGate, GateCollection, validate_gates

    graph = nx.path_graph(4)
    partition = CellPartition(cells=[frozenset({0, 1}), frozenset({2, 3, 99})])
    gate = frozenset({1, 2})
    collection = GateCollection(
        gates=[CombinatorialGate(fence=gate, gate=gate)], partition=partition
    )
    assert validate_gates(graph, collection) == validate_gates_reference(graph, collection)


def test_scenario_instance_memoises_part_set():
    instance = _family_instance("planar")
    first = instance.part_set("tree_fragments", num_parts=6, seed=3)
    assert first is instance.part_set("tree_fragments", num_parts=6, seed=3)
    assert first.view is instance.view
