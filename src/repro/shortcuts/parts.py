"""Parts (Definition 9) and workload generators for shortcut experiments.

A *part* is a connected vertex set; the parts of a family are pairwise
disjoint.  In the algorithms that consume shortcuts, parts arise as the
fragments of Boruvka's MST algorithm or as the components of a partially
computed structure; for the shortcut experiments we also need *adversarial*
part families -- long skinny parts that stretch across the whole graph --
because those maximise the gap between the part diameter and the graph
diameter that shortcuts exist to close (the wheel-graph discussion of
Section 1.3.3).
"""

from __future__ import annotations

import random
from typing import Hashable, Sequence

import networkx as nx

from ..core import GraphView, part_connected, part_set_of, view_of
from ..errors import InvalidPartitionError
from ..graphs.weights import WEIGHT
from ..structure.spanning import RootedTree, bfs_spanning_tree
from ..utils import ensure_rng


def validate_parts(graph: nx.Graph | GraphView, parts: Sequence[frozenset]) -> None:
    """Check Definition 9: parts are disjoint, non-empty and connected in ``graph``.

    Connectivity runs on the memoised int-indexed
    :class:`~repro.core.PartSet` of the family (one flat-array BFS per part,
    no per-part label sets).  Violations are reported in per-part order: if
    the family-wide part set cannot be built because a later part has
    non-graph vertices, the check falls back to per-part BFS so an earlier
    part's violation is still the one reported.

    Given a :class:`~repro.core.GraphView` the check runs entirely on the
    CSR arrays (never materialising an ``nx.Graph``) -- native views are
    exactly the instances too large to convert.
    """
    view = graph if isinstance(graph, GraphView) else None
    part_set = None
    part_set_failed = False
    nodes = None
    seen: set[Hashable] = set()
    for index, part in enumerate(parts):
        if not part:
            raise InvalidPartitionError(f"part {index} is empty")
        overlap = seen & set(part)
        if overlap:
            raise InvalidPartitionError(
                f"parts overlap on vertices {sorted(overlap, key=repr)[:5]}"
            )
        seen |= set(part)
        if nodes is None:
            nodes = set(view.nodes) if view is not None else set(graph.nodes())
        missing = set(part) - nodes
        if missing:
            raise InvalidPartitionError(
                f"part {index} contains non-graph vertices {sorted(missing, key=repr)[:5]}"
            )
        if view is None:
            view = view_of(graph)
        if part_set is None and not part_set_failed:
            try:
                part_set = part_set_of(view, parts)
            except InvalidPartitionError:
                part_set_failed = True
        if part_set is not None:
            connected = part_set.connected(index)
        else:
            connected = part_connected(view, part)
        if not connected:
            raise InvalidPartitionError(f"part {index} is not connected (Definition 9)")


def random_connected_parts(
    graph: nx.Graph,
    num_parts: int,
    part_size: int,
    seed: int | random.Random | None = None,
) -> list[frozenset]:
    """Grow ``num_parts`` disjoint connected parts of roughly ``part_size`` vertices.

    Each part is grown by a randomised BFS from an unused seed vertex and
    stops when it reaches ``part_size`` vertices or runs out of unused
    neighbours.  Vertices not absorbed by any part are simply not in any part
    (Definition 9 does not require the parts to cover the graph).
    """
    if num_parts < 1 or part_size < 1:
        raise InvalidPartitionError("num_parts and part_size must be positive")
    rng = ensure_rng(seed)
    unused = set(graph.nodes())
    parts: list[frozenset] = []
    candidates = sorted(graph.nodes(), key=repr)
    rng.shuffle(candidates)
    for start in candidates:
        if len(parts) >= num_parts:
            break
        if start not in unused:
            continue
        part = {start}
        unused.discard(start)
        frontier = [start]
        while frontier and len(part) < part_size:
            vertex = frontier.pop(rng.randrange(len(frontier)))
            for neighbour in sorted(graph.neighbors(vertex), key=repr):
                if neighbour in unused and len(part) < part_size:
                    part.add(neighbour)
                    unused.discard(neighbour)
                    frontier.append(neighbour)
        parts.append(frozenset(part))
    validate_parts(graph, parts)
    return parts


def tree_fragment_parts(
    graph: nx.Graph | GraphView,
    tree: RootedTree | None = None,
    num_parts: int = 8,
    seed: int | random.Random | None = None,
) -> list[frozenset]:
    """Split a spanning tree into ``num_parts`` subtrees and use them as parts.

    Removing ``num_parts - 1`` random edges from a spanning tree leaves
    ``num_parts`` subtrees; each is connected in the graph (it is connected
    already in the tree) and together they cover every vertex.  This is the
    canonical "fragments of a partially built spanning forest" workload.

    Given a :class:`~repro.core.GraphView` the whole computation is nx-free:
    the cut edges are sampled from the same canonical sorted edge list (so
    the rng draws are identical), and the forest components come from a
    union-find over the surviving parent edges instead of
    ``nx.connected_components`` -- the resulting parts are equal as sets.
    """
    rng = ensure_rng(seed)
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    edges = sorted(tree.edges())
    if num_parts < 1:
        raise InvalidPartitionError("num_parts must be positive")
    cuts = min(num_parts - 1, len(edges))
    removed = rng.sample(edges, cuts) if cuts else []
    if isinstance(graph, GraphView):
        parts = _forest_components(tree, removed)
    else:
        forest = tree.as_graph()
        forest.remove_edges_from(removed)
        parts = [frozenset(component) for component in nx.connected_components(forest)]
    parts.sort(key=lambda part: min(map(repr, part)))
    validate_parts(graph, parts)
    return parts


def _forest_components(tree: RootedTree, removed: Sequence[tuple]) -> list[frozenset]:
    """Components of the tree minus ``removed`` edges, via union-find."""
    from ..utils import canonical_edge

    cut = set(removed)
    leader: dict[Hashable, Hashable] = {node: node for node in tree.parent}

    def find(node: Hashable) -> Hashable:
        root = node
        while leader[root] != root:
            root = leader[root]
        while leader[node] != root:
            leader[node], node = root, leader[node]
        return root

    for node, par in tree.parent.items():
        if par is None or canonical_edge(node, par) in cut:
            continue
        ru, rv = find(node), find(par)
        if ru != rv:
            leader[ru] = rv
    groups: dict[Hashable, set[Hashable]] = {}
    for node in tree.parent:
        groups.setdefault(find(node), set()).add(node)
    return [frozenset(group) for group in groups.values()]


def path_parts(
    graph: nx.Graph,
    tree: RootedTree | None = None,
) -> list[frozenset]:
    """Decompose a spanning tree into vertex-disjoint paths and use them as parts.

    The decomposition is the heavy-path decomposition of the spanning tree:
    every part is a root-to-leaf-ish path, i.e. a maximally long and skinny
    connected set.  These are the adversarial parts for which the naive
    "aggregate inside your own part" strategy costs ``Theta(part length)``
    rounds, while good shortcuts cost ``~ quality`` rounds.
    """
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    from ..structure.heavy_light import heavy_light_chains

    chains = heavy_light_chains(tree.as_graph(), tree.root)
    parts = [frozenset(chain) for chain in chains]
    validate_parts(graph, parts)
    return parts


def boruvka_parts(
    graph: nx.Graph,
    phases: int = 1,
    seed: int | random.Random | None = None,
) -> list[frozenset]:
    """Return the MST fragments after a number of Boruvka phases.

    Starting from singleton fragments, each phase merges every fragment with
    the fragment across its minimum-weight outgoing edge (using the edge
    ``weight`` attribute, defaulting to 1 with deterministic tie-breaking by
    edge id).  After ``phases`` rounds the fragments are exactly the parts
    the distributed MST algorithm would hand to the shortcut framework next.
    """
    if phases < 0:
        raise InvalidPartitionError("phases must be non-negative")
    fragment: dict[Hashable, int] = {v: i for i, v in enumerate(sorted(graph.nodes(), key=repr))}

    def weight_of(u: Hashable, v: Hashable) -> tuple[float, str]:
        return (graph[u][v].get(WEIGHT, 1.0), repr((min(repr(u), repr(v)), max(repr(u), repr(v)))))

    for _ in range(phases):
        if len(set(fragment.values())) <= 1:
            break
        best_edge: dict[int, tuple[tuple[float, str], Hashable, Hashable]] = {}
        for u, v in graph.edges():
            fu, fv = fragment[u], fragment[v]
            if fu == fv:
                continue
            w = weight_of(u, v)
            for f in (fu, fv):
                if f not in best_edge or w < best_edge[f][0]:
                    best_edge[f] = (w, u, v)
        union: dict[int, int] = {f: f for f in set(fragment.values())}

        def find(f: int) -> int:
            while union[f] != f:
                union[f] = union[union[f]]
                f = union[f]
            return f

        for f, (_, u, v) in best_edge.items():
            ru, rv = find(fragment[u]), find(fragment[v])
            if ru != rv:
                union[max(ru, rv)] = min(ru, rv)
        fragment = {v: find(f) for v, f in fragment.items()}

    groups: dict[int, set[Hashable]] = {}
    for vertex, f in fragment.items():
        groups.setdefault(f, set()).add(vertex)
    parts = [frozenset(group) for _, group in sorted(groups.items())]
    validate_parts(graph, parts)
    return parts


def singleton_parts(graph: nx.Graph | GraphView) -> list[frozenset]:
    """Return one singleton part per vertex (the phase-0 Boruvka fragments)."""
    nodes = graph.nodes if isinstance(graph, GraphView) else graph.nodes()
    return [frozenset({v}) for v in sorted(nodes, key=repr)]
