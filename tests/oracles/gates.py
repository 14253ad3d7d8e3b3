"""Seed oracle for the Definition 17 gate checker: the label-keyed properties."""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.errors import InvalidPartitionError
from repro.structure.gates import GateCollection


def validate_gates_reference(graph: nx.Graph, collection: GateCollection) -> float:
    """Validate properties (1)-(5) of Definition 17 and return the measured ``s``."""
    partition = collection.partition
    cell_of = partition.cell_of()

    for index, gate_pair in enumerate(collection.gates):
        fence, gate = gate_pair.fence, gate_pair.gate
        # Property 1 is enforced by the CombinatorialGate constructor.
        # Property 2: the boundary of the gate is contained in the fence.
        for vertex in gate:
            if vertex not in graph:
                raise InvalidPartitionError(f"gate {index} contains non-graph vertex {vertex}")
            on_boundary = any(neighbour not in gate for neighbour in graph.neighbors(vertex))
            if on_boundary and vertex not in fence:
                raise InvalidPartitionError(
                    f"gate {index}: boundary vertex {vertex} is not in the fence (property 2)"
                )
        # Property 4: the gate intersects at most two cells.
        touched = {cell_of[v] for v in gate if v in cell_of}
        if len(touched) > 2:
            raise InvalidPartitionError(
                f"gate {index} intersects {len(touched)} cells (property 4 allows 2)"
            )

    # Property 3: every inter-cell edge is covered by some gate.
    for u, v in graph.edges():
        cu, cv = cell_of.get(u), cell_of.get(v)
        if cu is None or cv is None or cu == cv:
            continue
        if not any(u in gate.gate and v in gate.gate for gate in collection.gates):
            raise InvalidPartitionError(
                f"inter-cell edge ({u}, {v}) is covered by no gate (property 3)"
            )

    # Property 5: non-fence gate vertices are globally disjoint.
    owner: dict[Hashable, int] = {}
    for index, gate_pair in enumerate(collection.gates):
        for vertex in gate_pair.gate - gate_pair.fence:
            if vertex in owner:
                raise InvalidPartitionError(
                    f"vertex {vertex} is a non-fence member of gates {owner[vertex]} and "
                    f"{index} (property 5)"
                )
            owner[vertex] = index

    return collection.measured_s()
