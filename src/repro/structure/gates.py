"""s-combinatorial gates (Definition 17) and their validation.

A combinatorial gate is a collection of (fence, gate) vertex-set pairs that
"covers" every inter-cell edge while keeping the total fence size small
(property 6: ``sum |F| <= s * |cells|``).  Lemma 4 turns a gate into the
degree dichotomy that drives the cell-assignment peeling, and Lemma 7 /
Lemma 8 construct gates of size ``s = O(d)`` (planar) and ``O((g+1) k d)``
(Genus+Vortex) respectively.

This module provides:

* :func:`validate_gates` -- an exact checker for properties (1)-(5) of
  Definition 17 that also *measures* the ``s`` of property (6);
* :func:`trivial_gates` -- a generic construction (one gate per adjacent cell
  pair consisting of the endpoints of their inter-cell edges) that satisfies
  properties (1)-(5) on any graph; its measured ``s`` is what experiment E10
  reports;
* :func:`planar_gates` -- the refinement used for planar graphs: the gate of
  an adjacent cell pair additionally includes the two cells' spanning-tree
  paths between the extremal attachment points, mirroring the
  ``cyc(e_L, e_R)`` construction of Lemma 7 at the level of fences.  The full
  laminar-region argument of Lemma 7 (which needs a concrete planar embedding
  and region bookkeeping) is what guarantees ``s = O(d)`` in the paper; here
  the refinement is constructive and properties (1)-(5) are validated
  exactly, while property (6) is measured and compared against the ``O(d)``
  target (see DESIGN.md section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import networkx as nx

from ..core import view_of
from ..errors import InvalidPartitionError
from .cells import CellPartition
from .spanning import bfs_spanning_tree


@dataclass(frozen=True)
class CombinatorialGate:
    """A single (fence, gate) pair of Definition 17."""

    fence: frozenset
    gate: frozenset

    def __post_init__(self) -> None:
        if not self.fence <= self.gate:
            raise InvalidPartitionError("fence must be a subset of its gate (property 1)")


@dataclass
class GateCollection:
    """A collection of gates plus the cell partition it refers to."""

    gates: list[CombinatorialGate]
    partition: CellPartition

    def total_fence_size(self) -> int:
        return sum(len(gate.fence) for gate in self.gates)

    def measured_s(self) -> float:
        """Return the measured ``s`` of property (6): total fence size / #cells."""
        if len(self.partition) == 0:
            return 0.0
        return self.total_fence_size() / len(self.partition)


def validate_gates(graph: nx.Graph, collection: GateCollection) -> float:
    """Validate properties (1)-(5) of Definition 17 and return the measured ``s``.

    Raises :class:`InvalidPartitionError` on any violation.  Property (6) is
    not a yes/no property (it defines ``s``), so it is returned as a number.

    The properties run on int-indexed flat arrays: gate membership is one
    epoch-stamped array, the cell lookup one read of the cells'
    :class:`~repro.core.PartSet` owner array, and property 3 one pass over
    the CSR edges with per-vertex gate-id lists (a label-keyed
    ``any(... for gate in collection.gates)`` per inter-cell edge makes
    validation quadratic in the gate count).  The seed label-keyed checker
    is kept as the oracle ``validate_gates_reference`` in
    ``tests/oracles/``; both accept and reject exactly the same
    collections.
    """
    partition = collection.partition
    view = view_of(graph)
    index_of = view.index_of
    node_of = view.nodes
    core = view.core
    n = len(view)
    try:
        owner = partition.part_set(graph).owner_array()
    except InvalidPartitionError:
        # A cell contains non-graph vertices.  CellPartition.cell_of()
        # silently ignores such vertices (they can never meet a gate or an
        # edge endpoint), so mirror that here rather than rejecting the
        # collection.
        owner = [-1] * n
        for cell_index, cell in enumerate(partition.cells):
            for vertex in cell:
                if vertex in view:
                    owner[index_of(vertex)] = cell_index

    gate_stamp = [0] * n
    gate_indices: list[list[int]] = []
    gates_at: list[list[int]] = [[] for _ in range(n)]
    for index, gate_pair in enumerate(collection.gates):
        members: list[int] = []
        for vertex in gate_pair.gate:
            try:
                member = index_of(vertex)
            except KeyError:
                raise InvalidPartitionError(
                    f"gate {index} contains non-graph vertex {vertex}"
                ) from None
            members.append(member)
            gates_at[member].append(index)
        gate_indices.append(members)

    epoch = 0
    for index, gate_pair in enumerate(collection.gates):
        members = gate_indices[index]
        epoch += 1
        for member in members:
            gate_stamp[member] = epoch
        fence = gate_pair.fence
        touched: set[int] = set()
        for member in members:
            start, end = core.neighbor_slice(member)
            neighbours = core._indices_list[start:end]
            # Property 2: the boundary of the gate is contained in the fence.
            if any(gate_stamp[v] != epoch for v in neighbours):
                if node_of[member] not in fence:
                    raise InvalidPartitionError(
                        f"gate {index}: boundary vertex {node_of[member]} is not in the "
                        "fence (property 2)"
                    )
            if owner[member] >= 0:
                touched.add(owner[member])
        # Property 4: the gate intersects at most two cells.
        if len(touched) > 2:
            raise InvalidPartitionError(
                f"gate {index} intersects {len(touched)} cells (property 4 allows 2)"
            )

    # Property 3: every inter-cell edge is covered by some gate.
    for u, v, _weight in core.edges():
        cu, cv = owner[u], owner[v]
        if cu < 0 or cv < 0 or cu == cv:
            continue
        gates_u = gates_at[u]
        if not gates_u or not any(index in gates_u for index in gates_at[v]):
            raise InvalidPartitionError(
                f"inter-cell edge ({node_of[u]}, {node_of[v]}) is covered by no gate "
                "(property 3)"
            )

    # Property 5: non-fence gate vertices are globally disjoint.
    non_fence_owner = [-1] * n
    for index, gate_pair in enumerate(collection.gates):
        fence = gate_pair.fence
        for member in gate_indices[index]:
            if node_of[member] in fence:
                continue
            if non_fence_owner[member] >= 0:
                raise InvalidPartitionError(
                    f"vertex {node_of[member]} is a non-fence member of gates "
                    f"{non_fence_owner[member]} and {index} (property 5)"
                )
            non_fence_owner[member] = index

    return collection.measured_s()


def _inter_cell_edges(
    graph: nx.Graph, partition: CellPartition
) -> dict[frozenset, list[tuple[Hashable, Hashable]]]:
    """Group the edges running between two different cells by the cell pair."""
    cell_of = partition.cell_of()
    grouped: dict[frozenset, list[tuple[Hashable, Hashable]]] = {}
    for u, v in graph.edges():
        cu, cv = cell_of.get(u), cell_of.get(v)
        if cu is None or cv is None or cu == cv:
            continue
        grouped.setdefault(frozenset((cu, cv)), []).append((u, v))
    return grouped


def trivial_gates(graph: nx.Graph, partition: CellPartition) -> GateCollection:
    """Build one gate per adjacent cell pair from its inter-cell edge endpoints.

    The gate (and fence) of the pair ``(C_i, C_j)`` is simply the set of
    endpoints of all ``(C_i, C_j)``-inter-cell edges.  All five structural
    properties hold by construction on *any* graph; the measured ``s`` equals
    ``2 * #inter-cell edges / #cells`` in the worst case, which is what the
    extremal-edge refinement of Lemma 7 improves to ``O(d)`` for planar
    graphs.
    """
    gates: list[CombinatorialGate] = []
    for _pair, edges in sorted(_inter_cell_edges(graph, partition).items(), key=repr):
        vertices = frozenset(endpoint for edge in edges for endpoint in edge)
        gates.append(CombinatorialGate(fence=vertices, gate=vertices))
    return GateCollection(gates=gates, partition=partition)


def planar_gates(graph: nx.Graph, partition: CellPartition) -> GateCollection:
    """Build gates for a planar graph following the spirit of Lemma 7.

    For every adjacent cell pair ``(C_i, C_j)`` the construction

    1. builds a BFS spanning tree of each cell (the trees ``T_i`` of the
       lemma, diameter at most twice the cell diameter);
    2. picks the two *extremal* inter-cell edges -- here, the pair of
       inter-cell edges whose tree-path closure is largest, playing the role
       of ``e_L`` and ``e_R``;
    3. takes the cycle ``cyc(e_L, e_R)`` (the two extremal edges plus the two
       tree paths between their endpoints) together with all inter-cell edge
       endpoints as both the fence and the gate.

    The result always satisfies properties (1)-(5) -- with fence equal to
    gate, properties (2) and (5) hold vacuously.  The paper's full Lemma 7
    additionally uses the laminar enclosed-region argument (which needs an
    explicit planar embedding) to shrink the *fence* to the ``4d + 2`` cycle
    vertices alone while keeping all endpoints inside the gate's interior;
    that refinement is what guarantees ``s = O(d)``.  Here property (6) is
    *measured* and reported by experiment E10 against that target (see
    DESIGN.md section 4 for the substitution note).
    """
    cell_of = partition.cell_of()
    trees = {}
    for index, cell in enumerate(partition.cells):
        subgraph = graph.subgraph(cell)
        trees[index] = bfs_spanning_tree(subgraph)

    gates: list[CombinatorialGate] = []
    for pair, edges in sorted(_inter_cell_edges(graph, partition).items(), key=repr):
        i, j = sorted(pair)
        endpoints = frozenset(endpoint for edge in edges for endpoint in edge)
        if len(edges) == 1:
            fence = frozenset(edges[0])
            gates.append(CombinatorialGate(fence=fence, gate=fence | endpoints))
            continue
        # Extremal edges: the two inter-cell edges whose endpoints are
        # furthest apart inside the two cell trees.
        def edge_key(edge: tuple[Hashable, Hashable]) -> tuple[int, int]:
            u, v = edge
            ui, vj = (u, v) if cell_of[u] == i else (v, u)
            return (trees[i].depth[ui], trees[j].depth[vj])

        ordered = sorted(edges, key=edge_key)
        e_left, e_right = ordered[0], ordered[-1]
        left_i, left_j = (e_left if cell_of[e_left[0]] == i else (e_left[1], e_left[0]))
        right_i, right_j = (e_right if cell_of[e_right[0]] == i else (e_right[1], e_right[0]))
        fence_vertices: set[Hashable] = set(e_left) | set(e_right)
        fence_vertices |= set(trees[i].tree_path(left_i, right_i))
        fence_vertices |= set(trees[j].tree_path(left_j, right_j))
        fence_vertices |= endpoints
        fence = frozenset(fence_vertices)
        gates.append(CombinatorialGate(fence=fence, gate=fence))
    return GateCollection(gates=gates, partition=partition)
