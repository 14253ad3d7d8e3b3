"""Tests for the planar graph generators."""

import networkx as nx
import pytest

from repro.errors import InvalidGraphError
from repro.graphs.planar import (
    boundary_cycle,
    cycle_graph,
    cylinder_graph,
    embedding_faces,
    grid_graph,
    is_planar,
    planar_embedding,
    random_delaunay_triangulation,
    random_outerplanar_graph,
    random_series_parallel_graph,
    star_graph,
    wheel_graph,
)


def test_grid_graph_size_and_diameter():
    graph = grid_graph(4, 6)
    assert graph.number_of_nodes() == 24
    assert nx.diameter(graph) == 4 + 6 - 2
    assert is_planar(graph)


def test_grid_graph_rejects_degenerate_dimensions():
    with pytest.raises(InvalidGraphError):
        grid_graph(0, 5)


def test_cycle_and_star_and_wheel():
    assert cycle_graph(10).number_of_edges() == 10
    assert star_graph(5).number_of_nodes() == 6
    wheel = wheel_graph(12)
    assert wheel.number_of_nodes() == 13
    hub = max(wheel.nodes(), key=lambda v: wheel.degree(v))
    assert wheel.degree(hub) == 12
    assert nx.diameter(wheel) == 2
    with pytest.raises(InvalidGraphError):
        cycle_graph(2)


def test_cylinder_is_planar_and_regular_enough():
    graph = cylinder_graph(3, 8)
    assert graph.number_of_nodes() == 24
    assert is_planar(graph)
    assert nx.is_connected(graph)


def test_delaunay_triangulation_is_planar_and_connected():
    graph = random_delaunay_triangulation(60, seed=1)
    assert graph.number_of_nodes() == 60
    assert is_planar(graph)
    assert nx.is_connected(graph)


def test_delaunay_is_deterministic_for_fixed_seed():
    a = random_delaunay_triangulation(40, seed=9)
    b = random_delaunay_triangulation(40, seed=9)
    assert set(a.edges()) == set(b.edges())


def test_outerplanar_graph_is_planar_and_has_hamiltonian_boundary():
    graph = random_outerplanar_graph(15, seed=2)
    assert is_planar(graph)
    for i in range(15):
        assert graph.has_edge(i, (i + 1) % 15)


def test_series_parallel_graph_is_planar_and_connected():
    graph = random_series_parallel_graph(30, seed=3)
    assert graph.number_of_nodes() == 30
    assert is_planar(graph)
    assert nx.is_connected(graph)


def test_planar_embedding_rejects_nonplanar():
    with pytest.raises(InvalidGraphError):
        planar_embedding(nx.complete_graph(5))


def test_embedding_faces_satisfy_euler_formula():
    graph = grid_graph(4, 4)
    embedding = planar_embedding(graph)
    faces = embedding_faces(embedding)
    n, m, f = graph.number_of_nodes(), graph.number_of_edges(), len(faces)
    assert n - m + f == 2


def test_boundary_cycle_is_a_cycle_in_the_grid():
    rows, cols = 5, 7
    graph = grid_graph(rows, cols)
    cycle = boundary_cycle(rows, cols, graph)
    assert len(cycle) == 2 * (rows + cols) - 4
    for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        assert graph.has_edge(a, b)


@pytest.mark.parametrize("rows, cols", [(12, 12), (3, 15)])
def test_boundary_cycle_matches_grid_labels_past_two_digit_coordinates(rows, cols):
    """Grid labels follow repr order, which leaves tuple order at side 11."""
    graph = grid_graph(rows, cols)
    cycle = boundary_cycle(rows, cols, graph)
    assert len(cycle) == len(set(cycle)) == 2 * (rows + cols) - 4
    for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        assert graph.has_edge(a, b)
    assert set(cycle) == {node for node, degree in graph.degree() if degree < 4}
