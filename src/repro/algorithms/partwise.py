"""Convenience wrappers around the part-wise aggregation primitive.

These are the small "fragment subroutines" that the distributed algorithms
repeatedly need (and that Theorem 1's framework implements via shortcut
aggregation): letting every vertex learn its part's identifier, computing a
part-wise minimum/maximum/sum, and finding each fragment's minimum-weight
outgoing edge.  Each wrapper returns both the per-part answers and the
measured CONGEST rounds, so callers can account costs uniformly.

Every wrapper delegates to
:func:`repro.congest.aggregation.partwise_aggregate` (the index-space
scheduler).  The wrappers themselves stay in label space -- they are
convenience API, not hot paths; the Boruvka loop implements its MWOE step
natively instead (see :mod:`repro.algorithms.mst`).
"""

from __future__ import annotations

from typing import Hashable, Mapping

import networkx as nx

from ..congest.aggregation import AggregationResult, partwise_aggregate
from ..graphs.weights import WEIGHT
from ..shortcuts.shortcut import Shortcut
from ..utils import canonical_edge


def partwise_minimum(
    shortcut: Shortcut, values: Mapping[Hashable, float]
) -> AggregationResult:
    """Every part computes the minimum of its members' values."""
    return partwise_aggregate(shortcut, values, combine=min)


def partwise_maximum(
    shortcut: Shortcut, values: Mapping[Hashable, float]
) -> AggregationResult:
    """Every part computes the maximum of its members' values."""
    return partwise_aggregate(shortcut, values, combine=max)


def partwise_sum(shortcut: Shortcut, values: Mapping[Hashable, float]) -> AggregationResult:
    """Every part computes the sum of its members' values."""
    return partwise_aggregate(shortcut, values, combine=lambda a, b: a + b)


def partwise_component_ids(shortcut: Shortcut) -> tuple[dict[Hashable, int], int]:
    """Let every vertex learn a canonical identifier of its part.

    The identifier is the minimum vertex (by representation) of the part --
    computed by a part-wise min-aggregation followed by the broadcast the
    aggregation primitive already performs.  Returns the vertex -> part-id
    map together with the measured rounds.
    """
    values = {v: v for part in shortcut.parts for v in part}
    result = partwise_aggregate(shortcut, values, combine=lambda a, b: min(a, b, key=repr))
    mapping: dict[Hashable, int] = {}
    for index, part in enumerate(shortcut.parts):
        for vertex in part:
            mapping[vertex] = result.values[index]
    return mapping, result.rounds


def minimum_outgoing_edges(
    graph: nx.Graph, shortcut: Shortcut
) -> tuple[list[tuple[Hashable, Hashable] | None], int]:
    """Every part finds its minimum-weight outgoing edge (the Boruvka MWOE step).

    One round of neighbour exchange lets every vertex learn which incident
    edges leave its part; the per-part minimum is then a single aggregation.
    Returns one edge (or None for parts with no outgoing edge) per part and
    the total measured rounds (including the exchange round).
    """
    part_of: dict[Hashable, int] = {}
    for index, part in enumerate(shortcut.parts):
        for vertex in part:
            part_of[vertex] = index

    infinity = (float("inf"), "", None, None)
    candidates: dict[Hashable, tuple] = {}
    for part in shortcut.parts:
        for vertex in part:
            best = infinity
            for neighbour in graph.neighbors(vertex):
                if part_of.get(neighbour) == part_of.get(vertex):
                    continue
                weight = graph[vertex][neighbour].get(WEIGHT, 1.0)
                key = (weight, repr(canonical_edge(vertex, neighbour)), vertex, neighbour)
                if key[:2] < best[:2]:
                    best = key
            candidates[vertex] = best

    result = partwise_aggregate(
        shortcut, candidates, combine=lambda a, b: a if a[:2] <= b[:2] else b
    )
    edges: list[tuple[Hashable, Hashable] | None] = []
    for value in result.values:
        if value is None or value[2] is None or value[0] == float("inf"):
            edges.append(None)
        else:
            edges.append(canonical_edge(value[2], value[3]))
    return edges, result.rounds + 1
