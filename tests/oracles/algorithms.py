"""Seed oracles for Boruvka MST and the tree-packing min-cut.

The Boruvka oracle builds shortcuts with the seed oblivious search,
measures each phase with the seed measurement and aggregates on the seed
scheduler; the min-cut oracle takes its MST cost from the Boruvka oracle
and its per-cut charge from a probe on the seed scheduler.
"""

from __future__ import annotations

import math
from typing import Hashable

import networkx as nx
import numpy as np

from repro.algorithms.mincut import MinCutResult, _packing_size, exact_min_cut
from repro.algorithms.mst import MstResult, ShortcutBuilder
from repro.errors import ConvergenceError, InvalidGraphError
from repro.graphs.weights import WEIGHT
from repro.shortcuts.shortcut import Shortcut
from repro.structure.spanning import RootedTree, bfs_spanning_tree
from repro.utils import canonical_edge

from .aggregation import partwise_aggregate_reference
from .shortcuts import measure_reference, oblivious_shortcut_reference


def _edge_weight(graph: nx.Graph, u: Hashable, v: Hashable) -> float:
    return graph[u][v].get(WEIGHT, 1.0)


def boruvka_mst_reference(
    graph: nx.Graph,
    shortcut_builder: ShortcutBuilder | None = None,
    tree: RootedTree | None = None,
    max_phases: int | None = None,
    validate_shortcuts: bool = False,
) -> MstResult:
    """The preserved seed implementation (label-keyed networkx structures)."""
    builder = shortcut_builder if shortcut_builder is not None else oblivious_shortcut_reference
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    nodes = sorted(graph.nodes(), key=repr)
    if max_phases is None:
        max_phases = 2 + max(1, len(nodes)).bit_length()

    fragment: dict[Hashable, int] = {node: index for index, node in enumerate(nodes)}
    mst_edges: set[tuple[Hashable, Hashable]] = set()
    total_rounds = 0
    phase_rounds: list[int] = []
    phase_qualities: list[int] = []
    sync_cost = max(1, tree.height)

    def fragments_as_parts() -> list[frozenset]:
        groups: dict[int, set[Hashable]] = {}
        for node, frag in fragment.items():
            groups.setdefault(frag, set()).add(node)
        return [frozenset(group) for _, group in sorted(groups.items())]

    for phase in range(max_phases):
        parts = fragments_as_parts()
        if len(parts) <= 1:
            break
        shortcut = builder(graph, tree, parts)
        if validate_shortcuts:
            shortcut.validate()
        phase_qualities.append(measure_reference(shortcut).quality)

        # Every node's best outgoing edge (1 round of neighbour exchange lets
        # every node learn its neighbours' fragment ids).
        infinity = (float("inf"), "", None, None)
        candidate: dict[Hashable, tuple[float, str, Hashable | None, Hashable | None]] = {}
        for node in nodes:
            best = infinity
            for neighbour in graph.neighbors(node):
                if fragment[neighbour] == fragment[node]:
                    continue
                weight = _edge_weight(graph, node, neighbour)
                key = (weight, repr(canonical_edge(node, neighbour)), node, neighbour)
                if key[:2] < best[:2]:
                    best = key
            candidate[node] = best

        aggregation = partwise_aggregate_reference(
            shortcut,
            values=candidate,
            combine=lambda a, b: a if a[:2] <= b[:2] else b,
        )
        # Fragment leaders now know the MWOE; a second aggregation round trip
        # (merge coordination: agreeing on the merged fragment identifier) is
        # charged at the same measured cost.
        rounds_this_phase = 1 + 2 * aggregation.rounds + sync_cost
        total_rounds += rounds_this_phase
        phase_rounds.append(rounds_this_phase)

        # Apply the merges centrally (the simulation already charged the
        # communication); standard union-find with the MWOEs as merge edges.
        union: dict[int, int] = {frag: frag for frag in set(fragment.values())}

        def find(frag: int) -> int:
            while union[frag] != frag:
                union[frag] = union[union[frag]]
                frag = union[frag]
            return frag

        merged_any = False
        for part_index, part in enumerate(shortcut.parts):
            mwoe = aggregation.values[part_index]
            if mwoe is None or mwoe[2] is None:
                continue
            weight, _key, u, v = mwoe
            if weight == float("inf"):
                continue
            ru, rv = find(fragment[u]), find(fragment[v])
            if ru == rv:
                continue
            union[max(ru, rv)] = min(ru, rv)
            mst_edges.add(canonical_edge(u, v))
            merged_any = True
        if not merged_any:
            raise ConvergenceError("Boruvka phase made no progress; graph may be disconnected")
        fragment = {node: find(frag) for node, frag in fragment.items()}
    else:
        if len(set(fragment.values())) > 1:
            raise ConvergenceError("Boruvka did not converge within the phase budget")

    weight = sum(_edge_weight(graph, u, v) for u, v in mst_edges)
    return MstResult(
        edges=frozenset(mst_edges),
        weight=weight,
        rounds=total_rounds,
        phases=len(phase_rounds),
        phase_rounds=phase_rounds,
        phase_qualities=phase_qualities,
    )


def _charging_probe_reference(graph: nx.Graph, tree: RootedTree) -> int:
    """Measured rounds of one whole-graph aggregation on the seed scheduler."""
    whole_part = [frozenset(graph.nodes())]
    whole_shortcut = Shortcut(
        graph=graph,
        tree=tree,
        parts=whole_part,
        edge_sets=[tree.edge_set()],
        constructor="mincut-charging",
    )
    probe = partwise_aggregate_reference(
        whole_shortcut, {v: 1 for v in graph.nodes()}, combine=min
    )
    return probe.rounds


def _respecting_cuts(
    graph: nx.Graph, tree: RootedTree
) -> tuple[float, frozenset, list[int]]:
    """Return the best 1- or 2-respecting cut of ``tree`` (value, side, charges).

    For every tree edge ``e`` let ``S_e`` be the vertex set of the subtree
    below ``e``.  A cut that 1-respects the tree is some ``S_e``; a cut that
    2-respects it is the symmetric difference ``S_e xor S_f`` for a pair of
    tree edges.  Both families are evaluated in one vectorised pass: with the
    indicator matrix ``X[edge, tree_edge] = [exactly one endpoint lies in the
    subtree]``, the cut value of the pair ``(i, j)`` is
    ``s_i + s_j - 2 * (X^T W X)_{ij}`` where ``s`` is the 1-respecting value
    vector.  The returned "charges" list records the number of aggregation-
    equivalent operations, which the caller converts to rounds.
    """
    tree_edges = sorted(tree.edges())
    if not tree_edges:
        return float("inf"), frozenset(), []
    node_list = sorted(graph.nodes(), key=repr)
    node_index = {node: i for i, node in enumerate(node_list)}

    # Subtree membership per tree edge.
    below: list[set] = []
    for u, v in tree_edges:
        child = u if tree.parent.get(u) == v else v
        below.append(tree.subtree_nodes(child))

    graph_edges = list(graph.edges())
    weights = np.array([graph[u][v].get(WEIGHT, 1.0) for u, v in graph_edges], dtype=float)
    # X[e, k] = 1 iff graph edge e crosses the subtree of tree edge k.
    X = np.zeros((len(graph_edges), len(tree_edges)), dtype=float)
    for k, subtree in enumerate(below):
        for e, (u, v) in enumerate(graph_edges):
            X[e, k] = 1.0 if (u in subtree) != (v in subtree) else 0.0

    ones_cut = weights @ X  # 1-respecting values s_k
    cross = X.T @ (X * weights[:, None])  # (X^T W X)
    pair_cut = ones_cut[:, None] + ones_cut[None, :] - 2.0 * cross
    np.fill_diagonal(pair_cut, np.inf)

    best_single = int(np.argmin(ones_cut))
    best_single_value = float(ones_cut[best_single])
    best_pair_flat = int(np.argmin(pair_cut))
    i, j = divmod(best_pair_flat, pair_cut.shape[1])
    best_pair_value = float(pair_cut[i, j])

    if best_single_value <= best_pair_value:
        side = frozenset(below[best_single])
        value = best_single_value
    else:
        side = frozenset(below[i] ^ below[j])
        value = best_pair_value
    # Charges: one subtree aggregation per tree edge batch (log n batches in
    # the distributed implementations); recorded as a single unit here and
    # converted by the caller.
    return value, side, [1]


def approximate_min_cut_reference(
    graph: nx.Graph,
    epsilon: float = 1.0,
    shortcut_builder: ShortcutBuilder | None = None,
    tree: RootedTree | None = None,
    max_trees: int | None = None,
    compute_exact: bool = True,
) -> MinCutResult:
    """The preserved seed implementation (label-keyed networkx structures)."""
    if epsilon <= 0:
        raise InvalidGraphError("epsilon must be positive")
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    n = graph.number_of_nodes()
    num_trees = _packing_size(n, epsilon, max_trees)

    # Measure the distributed MST cost once; each packed tree is one MST
    # computation of the same shape (only the weights change), so each is
    # charged the measured cost of a representative run.
    representative = boruvka_mst_reference(graph, shortcut_builder=shortcut_builder, tree=tree)
    mst_rounds = representative.rounds

    loads: dict[tuple, float] = {}
    best_value = float("inf")
    best_side: frozenset = frozenset()
    total_rounds = 0
    tree_rounds: list[int] = []

    # One aggregation on the full-graph part gives the per-cut-evaluation charge.
    aggregation_rounds = _charging_probe_reference(graph, tree)
    log_n = max(1, math.ceil(math.log2(n + 2)))

    for _round in range(num_trees):
        # Greedy packing: MST under current loads (load-dominated weights).
        packed = nx.Graph()
        packed.add_nodes_from(graph.nodes())
        for u, v in graph.edges():
            base = graph[u][v].get(WEIGHT, 1.0)
            load = loads.get((min(u, v, key=repr), max(u, v, key=repr)), 0.0)
            packed.add_edge(u, v, **{WEIGHT: load + base / (graph.number_of_edges() + 1.0)})
        packing_tree_graph = nx.minimum_spanning_tree(packed, weight=WEIGHT)
        packing_tree = bfs_spanning_tree(packing_tree_graph, root=tree.root)
        for u, v in packing_tree.edges():
            key = (min(u, v, key=repr), max(u, v, key=repr))
            loads[key] = loads.get(key, 0.0) + 1.0

        value, side, charges = _respecting_cuts(graph, packing_tree)
        if value < best_value and 0 < len(side) < n:
            best_value, best_side = value, side
        rounds_this_tree = mst_rounds + len(charges) * aggregation_rounds * log_n
        total_rounds += rounds_this_tree
        tree_rounds.append(rounds_this_tree)

    cut_edges = frozenset(
        (u, v) for u, v in graph.edges() if (u in best_side) != (v in best_side)
    )
    if compute_exact:
        exact = exact_min_cut(graph)
        ratio = best_value / exact if exact > 0 else 1.0
    else:
        exact = float("nan")
        ratio = float("nan")
    return MinCutResult(
        value=best_value,
        cut_edges=cut_edges,
        side=best_side,
        exact_value=exact,
        approximation_ratio=ratio,
        rounds=total_rounds,
        num_trees=num_trees,
        tree_rounds=tree_rounds,
    )
