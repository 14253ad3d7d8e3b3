"""Tests for cell partitions, cell assignment and combinatorial gates."""

import networkx as nx
import pytest

from repro.errors import InvalidPartitionError
from repro.graphs.minor_free import planar_plus_apex
from repro.graphs.planar import grid_graph, wheel_graph
from repro.shortcuts.parts import path_parts
from repro.structure.cell_assignment import compute_cell_assignment
from repro.structure.cells import (
    CellPartition,
    cells_from_multisource_bfs,
    cells_from_tree_without_apices,
    merge_cells_touching,
)
from repro.structure.gates import (
    CombinatorialGate,
    GateCollection,
    planar_gates,
    trivial_gates,
    validate_gates,
)
from repro.structure.spanning import bfs_spanning_tree

from oracles import validate_gates_reference


# ------------------------------------------------------------------ cells


def test_cells_from_tree_without_apices_cover_non_apex_vertices(apex_witness):
    tree = bfs_spanning_tree(apex_witness.graph)
    cells = cells_from_tree_without_apices(tree, apex_witness.apices)
    cells.validate(apex_witness.graph)
    covered = cells.covered_vertices()
    assert covered == frozenset(apex_witness.graph.nodes()) - frozenset(apex_witness.apices)


def test_cells_are_connected_subtrees_of_small_diameter(apex_witness):
    tree = bfs_spanning_tree(apex_witness.graph)
    cells = cells_from_tree_without_apices(tree, apex_witness.apices)
    surface = apex_witness.non_apex_graph()
    for diameter in cells.measured_diameters(surface):
        assert diameter <= tree.diameter()


def test_wheel_cells_are_arcs_of_the_outer_cycle(wheel):
    hub = max(wheel.nodes(), key=lambda v: wheel.degree(v))
    tree = bfs_spanning_tree(wheel, root=hub)
    cells = cells_from_tree_without_apices(tree, [hub])
    # BFS from the hub makes every outer vertex a child of the hub: singleton cells.
    assert len(cells) == wheel.number_of_nodes() - 1


def test_multisource_bfs_cells_partition_the_graph():
    graph = grid_graph(6, 6)
    cells = cells_from_multisource_bfs(graph, sources=[0, 35])
    cells.validate(graph, require_cover=True)
    assert len(cells) == 2


def test_cell_partition_validation_rejects_overlap_and_disconnection():
    graph = grid_graph(3, 3)
    overlapping = CellPartition(cells=[frozenset({0, 1}), frozenset({1, 2})])
    with pytest.raises(InvalidPartitionError):
        overlapping.validate(graph)
    disconnected = CellPartition(cells=[frozenset({0, 8})])
    with pytest.raises(InvalidPartitionError):
        disconnected.validate(graph)


def test_merge_cells_touching_marks_special_cells():
    graph = grid_graph(4, 4)
    cells = cells_from_multisource_bfs(graph, sources=[0, 15])
    merged = merge_cells_touching(cells, [[0, 15]])
    # The group touches both cells, so they merge into a single special cell.
    assert len(merged) == 1
    assert merged.special == {0}


# ------------------------------------------------------------------ cell assignment


def test_cell_assignment_satisfies_definition_15(apex_witness):
    tree = bfs_spanning_tree(apex_witness.graph)
    cells = cells_from_tree_without_apices(tree, apex_witness.apices)
    parts = path_parts(apex_witness.non_apex_graph())
    assignment = compute_cell_assignment(parts, cells)
    assignment.validate(allow_skipped=2)
    assert assignment.max_skipped <= 2
    # Property (ii): the reported beta matches a recount.
    for cell_index in range(len(cells)):
        count = sum(
            1 for related in assignment.related_cells.values() if cell_index in related
        )
        assert count <= assignment.beta
    # Parts are only related to cells they intersect.
    for part_index, related in assignment.related_cells.items():
        part = set(parts[part_index])
        for cell_index in related:
            assert part & set(cells.cells[cell_index])


def test_cell_assignment_ignores_special_cells():
    graph = grid_graph(4, 4)
    cells = cells_from_multisource_bfs(graph, sources=[0, 15])
    cells = merge_cells_touching(cells, [[0]])  # cell containing 0 becomes special
    parts = [frozenset({v}) for v in graph.nodes()]
    assignment = compute_cell_assignment(parts, cells)
    special_index = next(iter(cells.special))
    for related in assignment.related_cells.values():
        assert special_index not in related


def test_cell_assignment_beta_is_small_for_wheel(wheel):
    hub = max(wheel.nodes(), key=lambda v: wheel.degree(v))
    tree = bfs_spanning_tree(wheel, root=hub)
    cells = cells_from_tree_without_apices(tree, [hub])
    outer = frozenset(set(wheel.nodes()) - {hub})
    assignment = compute_cell_assignment([outer], cells)
    # A single part: every cell is related to at most that one part.
    assert assignment.beta <= 1


# ------------------------------------------------------------------ gates


def _grid_apex_cells():
    witness = planar_plus_apex(6, 6, apices=1, seed=21)
    tree = bfs_spanning_tree(witness.graph)
    surface = witness.non_apex_graph()
    cells = cells_from_tree_without_apices(tree, witness.apices)
    return surface, cells


def test_trivial_gates_satisfy_definition_17():
    surface, cells = _grid_apex_cells()
    collection = trivial_gates(surface, cells)
    s = validate_gates(surface, collection)
    assert s > 0
    assert s == validate_gates_reference(surface, collection)


def test_planar_gates_satisfy_definition_17_and_report_s():
    surface, cells = _grid_apex_cells()
    collection = planar_gates(surface, cells)
    s = validate_gates(surface, collection)
    assert s >= 0
    assert collection.measured_s() == s == validate_gates_reference(surface, collection)


def test_validate_gates_rejects_uncovered_inter_cell_edges():
    surface, cells = _grid_apex_cells()
    broken = GateCollection(gates=[], partition=cells)
    # With at least two adjacent cells there is an uncovered inter-cell edge.
    if len(cells) > 1:
        with pytest.raises(InvalidPartitionError):
            validate_gates(surface, broken)
        with pytest.raises(InvalidPartitionError):
            validate_gates_reference(surface, broken)


def test_combinatorial_gate_requires_fence_inside_gate():
    with pytest.raises(InvalidPartitionError):
        CombinatorialGate(fence=frozenset({1, 2}), gate=frozenset({1}))
