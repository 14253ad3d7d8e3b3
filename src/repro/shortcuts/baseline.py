"""Trivial shortcut constructions used as baselines and building blocks.

Three extremes bracket the design space:

* the **empty shortcut** gives every part nothing: congestion 0, but the
  block parameter equals the largest part size (every part vertex is its own
  block), which is the "aggregate inside your own part" strategy the paper's
  introduction describes as the naive solution;
* the **whole-tree shortcut** gives every part the entire spanning tree:
  block parameter 1, but congestion equal to the number of parts;
* the **Steiner shortcut** gives every part the minimal subtree of ``T``
  spanning it: block parameter 1, congestion equal to the maximum number of
  part Steiner trees sharing a tree edge -- usually much better than the
  whole tree, and the starting point the congestion-capped constructor prunes.

The Steiner shortcut is the construction engine's *unpruned* build
(:func:`steiner_from_engine`): at a congestion budget of the engine's
``max_owner_count`` no part loses a Steiner edge, so the engine's Steiner
pairs are handed to the :class:`Shortcut` as they are, in index space.  The
per-part label construction it replaces is kept as the oracle
``steiner_shortcut_reference`` in ``tests/oracles/``.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from ..structure.spanning import RootedTree, bfs_spanning_tree
from .engine import ConstructionEngine
from .parts import validate_parts
from .shortcut import Shortcut


def empty_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
) -> Shortcut:
    """Return the shortcut that assigns no edges to any part (the naive baseline)."""
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    validate_parts(graph, parts)
    return Shortcut(
        graph=graph,
        tree=tree,
        parts=parts,
        edge_sets=[frozenset() for _ in parts],
        constructor="empty",
    )


def whole_tree_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
) -> Shortcut:
    """Return the shortcut that gives every part the entire spanning tree.

    Block parameter is 1 for every part, but every tree edge is used by every
    part, so the congestion equals the number of parts -- acceptable only
    when there are few parts (e.g. the final Boruvka phases).
    """
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    validate_parts(graph, parts)
    all_edges = tree.edge_set()
    return Shortcut(
        graph=graph,
        tree=tree,
        parts=parts,
        edge_sets=[all_edges for _ in parts],
        constructor="whole_tree",
    )


def steiner_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
) -> Shortcut:
    """Give every part the minimal subtree of ``T`` spanning its vertices.

    This is the natural "greedy" tree-restricted shortcut: each part gets a
    single block (its Steiner tree is connected and touches the part), and
    the congestion of a tree edge equals the number of parts whose Steiner
    tree crosses it.  On a path-shaped tree with nested parts this congestion
    can be as large as the number of parts, which is exactly the failure mode
    the congestion-capped constructor repairs.
    """
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    validate_parts(graph, parts)
    if not parts:
        return Shortcut(graph=graph, tree=tree, parts=[], edge_sets=[], constructor="steiner")
    return steiner_from_engine(ConstructionEngine(graph, tree, parts))


def steiner_from_engine(engine: ConstructionEngine) -> Shortcut:
    """Build the Steiner shortcut of a prebuilt engine's part family.

    No tree edge has more than ``max_owner_count`` owners, so at that budget
    every part keeps its whole Steiner tree.  The shortcut records its
    quality, priced in closed form: one block per part, congestion
    ``max_owner_count``.  The array-native Boruvka loop calls this directly
    on its per-phase engine (the ``from_engine`` hook of the ``steiner``
    builders).
    """
    shortcut = engine.build_shortcut(engine.max_owner_count)
    shortcut.constructor = "steiner"
    shortcut.chosen_quality = engine.tree_diameter() + engine.max_owner_count
    return shortcut
