"""Seed oracles for shortcut quality and the Steiner and oblivious constructions.

The measurement counts congestion with a per-edge dict walk and blocks with
one ``nx`` component search per part; the Steiner construction prunes each
part's union of root paths in label space; the oblivious construction
prunes with one O(n) subtree set per Steiner edge per part and re-measures
a fresh candidate per budget.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from repro.core import view_of
from repro.shortcuts.congestion_capped import default_budget_schedule
from repro.shortcuts.parts import validate_parts
from repro.shortcuts.shortcut import Edge, Shortcut, ShortcutQuality
from repro.structure.spanning import RootedTree, bfs_spanning_tree
from repro.utils import canonical_edge


def block_parameter_reference(shortcut: Shortcut) -> int:
    """The pre-CoreGraph block parameter (per-part nx components)."""
    return max(
        (len(shortcut.block_components(i)) for i in range(shortcut.num_parts)), default=0
    )


def measure_reference(shortcut: Shortcut) -> ShortcutQuality:
    """The pre-CoreGraph measurement path.

    Re-measures congestion with a per-edge dict walk, the block parameter
    with one ``nx.Graph`` + ``connected_components`` per part, and reuses
    the shortcut's memoised tree diameter (the pre-refactor code cached it
    too, so it is deliberately not part of the comparison).
    """
    congestion_map: dict[Edge, int] = {}
    for edges in shortcut.edge_sets:
        for edge in edges:
            congestion_map[edge] = congestion_map.get(edge, 0) + 1
    congestion = max(congestion_map.values(), default=0)
    block = block_parameter_reference(shortcut)
    d = shortcut.tree_diameter()
    return ShortcutQuality(
        congestion=congestion,
        block=block,
        tree_diameter=d,
        quality=block * d + congestion,
        num_parts=shortcut.num_parts,
        total_shortcut_edges=sum(len(edges) for edges in shortcut.edge_sets),
    )


def steiner_shortcut_reference(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
) -> Shortcut:
    """The preserved seed Steiner shortcut: one label Steiner tree per part."""
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    validate_parts(graph, parts)
    edge_sets = [frozenset(tree.steiner_tree_edges(part)) for part in parts]
    return Shortcut(
        graph=graph,
        tree=tree,
        parts=parts,
        edge_sets=edge_sets,
        constructor="steiner",
    )


def _edge_benefit(
    tree: RootedTree, part: frozenset, steiner_edges: frozenset
) -> dict[tuple, int]:
    """For every Steiner edge, count the part vertices in the subtree below it.

    When an edge must be dropped from some parts, dropping it from the parts
    with the smallest "behind the edge" population severs the fewest part
    vertices from the rest of the Steiner tree, which keeps the number of
    extra blocks small.
    """
    benefit: dict[tuple, int] = {}
    for u, v in steiner_edges:
        child = u if tree.parent.get(u) == v else v
        below = tree.subtree_nodes(child)
        benefit[canonical_edge(u, v)] = len(below & part)
    return benefit


def congestion_capped_reference(
    graph: nx.Graph,
    tree: RootedTree,
    parts: Sequence[frozenset],
    congestion_budget: int,
) -> Shortcut:
    """The preserved seed implementation (label-keyed networkx sets)."""
    steiner: list[frozenset] = [frozenset(tree.steiner_tree_edges(part)) for part in parts]
    requests: dict[tuple, list[int]] = {}
    for index, edges in enumerate(steiner):
        for edge in edges:
            requests.setdefault(edge, []).append(index)

    benefits: list[dict[tuple, int]] = [
        _edge_benefit(tree, parts[index], steiner[index]) for index in range(len(parts))
    ]

    keep: list[set[tuple]] = [set(edges) for edges in steiner]
    for edge, owners in requests.items():
        if len(owners) <= congestion_budget:
            continue
        ranked = sorted(owners, key=lambda i: (-benefits[i].get(edge, 0), i))
        for loser in ranked[congestion_budget:]:
            keep[loser].discard(edge)

    return Shortcut(
        graph=graph,
        tree=tree,
        parts=parts,
        edge_sets=[frozenset(edges) for edges in keep],
        constructor=f"congestion_capped(c={congestion_budget})",
    )


def oblivious_shortcut_reference(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
    budgets: Sequence[int] | None = None,
) -> Shortcut:
    """The preserved seed budget search: one fresh candidate per budget."""
    tree = tree if tree is not None else bfs_spanning_tree(view_of(graph))
    validate_parts(graph, parts)
    if not parts:
        return Shortcut(graph=graph, tree=tree, parts=[], edge_sets=[], constructor="oblivious")
    if budgets is None:
        budgets = default_budget_schedule(len(parts))

    best = None
    best_budget = None
    best_quality = None
    for budget in budgets:
        # congestion_capped_shortcut clamps negative budgets to 0.
        candidate = congestion_capped_reference(graph, tree, parts, max(0, budget))
        quality = measure_reference(candidate).quality
        if best_quality is None or quality < best_quality:
            best, best_budget, best_quality = candidate, budget, quality
    assert best is not None
    best.constructor = "oblivious"
    best.chosen_budget = best_budget
    best.chosen_quality = best_quality
    return best
