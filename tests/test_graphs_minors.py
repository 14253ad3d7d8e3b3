"""Tests for the exact minor-containment search and generator validation."""

import networkx as nx
import pytest

from repro.errors import InvalidGraphError
from repro.graphs.minors import (
    complete_bipartite_minor,
    complete_graph_minor,
    excludes_minor,
    has_minor,
    verify_family_exclusion,
)
from repro.graphs.planar import (
    grid_graph,
    random_outerplanar_graph,
    random_series_parallel_graph,
    wheel_graph,
)
from repro.graphs.treewidth import random_caterpillar_tree, random_ktree


def test_k3_minor_in_any_cycle_but_not_in_trees():
    assert has_minor(nx.cycle_graph(8), complete_graph_minor(3))
    tree = random_caterpillar_tree(15, seed=1)
    assert excludes_minor(tree, complete_graph_minor(3))


def test_k4_minor_in_wheel_but_not_series_parallel():
    assert has_minor(wheel_graph(6), complete_graph_minor(4))
    sp = random_series_parallel_graph(18, seed=2)
    assert excludes_minor(sp, complete_graph_minor(4))


def test_k5_and_k33_absent_from_planar_grids():
    grid = grid_graph(4, 5)
    assert excludes_minor(grid, complete_graph_minor(5))
    # K_{3,3} *is* a minor of a large enough grid; on a 2-row grid it is not.
    thin = grid_graph(2, 6)
    assert excludes_minor(thin, complete_bipartite_minor(3, 3))


def test_grid_contains_k4_minor():
    assert has_minor(grid_graph(3, 3), complete_graph_minor(4))


def test_complete_graph_detected_by_clique_fast_path():
    assert has_minor(nx.complete_graph(6), complete_graph_minor(5))


def test_ktree_excludes_larger_clique_minor():
    witness = random_ktree(14, 2, seed=3)
    assert excludes_minor(witness.graph, complete_graph_minor(5))


def test_outerplanar_excludes_k4():
    graph = random_outerplanar_graph(12, seed=4)
    assert excludes_minor(graph, complete_graph_minor(4))


def test_verify_family_exclusion_over_a_small_family():
    family = [random_series_parallel_graph(12, seed=s) for s in range(4)]
    assert verify_family_exclusion(family, complete_graph_minor(4))


def test_minor_node_limit_guard():
    big = nx.path_graph(100)
    with pytest.raises(InvalidGraphError):
        has_minor(big, complete_graph_minor(3))
    # Raising the limit explicitly allows the call.
    assert excludes_minor(big, complete_graph_minor(3), node_limit=200)


CYCLIC_PATTERNS = {
    "K3": complete_graph_minor(3),
    "K4": complete_graph_minor(4),
    "C4": nx.cycle_graph(4),
    "K2,3": complete_bipartite_minor(2, 3),
}


@pytest.mark.parametrize("name", sorted(CYCLIC_PATTERNS))
def test_forest_certificate_agrees_with_exact_search(monkeypatch, name):
    """The forest certificate never changes an answer of the exact search."""
    import repro.graphs.minors as minors

    pattern = CYCLIC_PATTERNS[name]
    hosts = [graph for graph in nx.graph_atlas_g() if 1 <= graph.number_of_nodes() <= 6]
    with_certificate = [has_minor(graph, pattern) for graph in hosts]
    monkeypatch.setattr(minors, "_forest_excludes", lambda graph, minor: False)
    exact = [has_minor(graph, pattern) for graph in hosts]
    assert with_certificate == exact
    forests = [i for i, graph in enumerate(hosts) if nx.is_forest(graph)]
    assert forests and not any(exact[i] for i in forests)
    assert any(exact), "the atlas must contain hosts that have the minor"


def test_forest_certificate_rejects_large_forests_quickly():
    tree = random_caterpillar_tree(60, seed=3)
    assert excludes_minor(tree, complete_graph_minor(3))
    assert excludes_minor(nx.path_graph(60), complete_bipartite_minor(2, 3))
