"""Structure-oblivious shortcut construction with a congestion cap.

Haeupler, Izumi and Zuzic [HIZ16a] show that near-optimal *tree-restricted*
shortcuts can be constructed distributively without looking at the graph
structure at all: essentially, every part tries to acquire the tree edges of
its Steiner tree, and over-congested edges are dropped, trading congestion
for extra blocks.  The paper leans on this fact (Theorem 1's algorithm
"does not look at any structure in the network graph"): the structural
results (Theorems 4-8) only certify that a good assignment *exists*, which
guarantees that the oblivious construction -- searched over its congestion
budget -- finds one of comparable quality.

This module implements that oblivious constructor:

* :func:`congestion_capped_shortcut` prunes the Steiner-tree shortcut down to
  a given congestion budget, dropping each over-budget tree edge from the
  parts that benefit from it least (fewest part vertices behind the edge);
* :func:`oblivious_shortcut` performs the doubling search over the budget and
  returns the best-quality result, which is the constructor the distributed
  algorithms in :mod:`repro.algorithms` use by default.

Both run on the array-native :class:`~repro.shortcuts.engine.ConstructionEngine`
(Euler-tour benefits, Steiner edge ids computed once per sweep, incremental
per-budget quality).  The seed implementation is kept as the oracles
``congestion_capped_reference`` / ``oblivious_shortcut_reference`` in
``tests/oracles/``; the differential tests pin the engine
edge-set-for-edge-set equal to them on every graph family.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from ..core import view_of
from ..structure.spanning import RootedTree, bfs_spanning_tree
from .engine import ConstructionEngine
from .parts import validate_parts
from .shortcut import Shortcut


def _spanning_tree(graph: nx.Graph) -> RootedTree:
    """Default spanning tree: CSR BFS over the graph's shared view."""
    return bfs_spanning_tree(view_of(graph))


def congestion_capped_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
    congestion_budget: int = 8,
    validate: bool = True,
) -> Shortcut:
    """Prune the Steiner-tree shortcut to respect a congestion budget.

    Every part starts with its full Steiner tree in ``T``.  For every tree
    edge requested by more than ``congestion_budget`` parts, only the
    ``congestion_budget`` parts with the largest benefit (number of their
    vertices behind the edge) keep it; the others lose the edge, which may
    split their shortcut into more blocks.  The result is always a valid
    T-restricted shortcut with congestion at most ``congestion_budget``.

    ``validate=False`` skips the Definition 9 part validation; callers that
    already validated the same parts (the :func:`oblivious_shortcut` sweep
    validates once instead of once per budget) opt out.
    """
    tree = tree if tree is not None else _spanning_tree(graph)
    if validate:
        validate_parts(graph, parts)
    if congestion_budget < 0:
        congestion_budget = 0
    return ConstructionEngine(graph, tree, parts).build_shortcut(congestion_budget)


def default_budget_schedule(num_parts: int) -> list[int]:
    """The doubling budget schedule: powers of two up to the number of parts.

    The doubling stops strictly below ``num_parts``, so appending the final
    budget (``num_parts``, beyond which the Steiner shortcut is returned
    unpruned) never prices a budget twice -- the schedule is strictly
    increasing by construction.
    """
    budgets: list[int] = []
    budget = 1
    while budget < num_parts:
        budgets.append(budget)
        budget *= 2
    budgets.append(num_parts)
    return budgets


def oblivious_sweep(
    engine: ConstructionEngine, budgets: Sequence[int] | None = None
) -> Shortcut:
    """Run the doubling budget search on a prebuilt engine; return the winner.

    This is the engine core of :func:`oblivious_shortcut`, split out so the
    array-native Boruvka loop (:mod:`repro.algorithms.mst`) can drive it
    with a per-phase :class:`~repro.core.PartSet` and a shared
    :class:`~repro.shortcuts.engine.EngineScratch` without re-validating
    parts it constructed itself.  The winner records both ``chosen_budget``
    and ``chosen_quality`` (the sweep already priced it; re-measuring would
    repeat the work).
    """
    if budgets is None:
        budgets = default_budget_schedule(engine.num_parts)
    qualities = engine.quality_sweep(budgets)
    best_budget: int | None = None
    best_quality: int | None = None
    for budget in budgets:
        quality = qualities[max(0, int(budget))]
        if best_quality is None or quality < best_quality:
            best_budget, best_quality = budget, quality
    assert best_budget is not None
    best = engine.build_shortcut(best_budget)
    best.constructor = "oblivious"
    best.chosen_budget = best_budget
    best.chosen_quality = best_quality
    return best


def oblivious_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
    budgets: Sequence[int] | None = None,
) -> Shortcut:
    """Doubling search over the congestion budget; return the best quality found.

    This mirrors how the distributed construction of HIZ16a is used in
    practice: the algorithm does not know the right congestion/block
    trade-off in advance, so it tries geometrically increasing budgets and
    keeps the best.  The searched budgets default to powers of two up to the
    number of parts (beyond which the Steiner shortcut is returned
    unpruned).

    Parts are validated once for the whole sweep, and the engine prices
    every budget incrementally from the previous one (keep sets only grow
    with the budget) instead of building and measuring a fresh candidate
    per budget.  The returned shortcut records the winning
    budget in ``chosen_budget`` and its priced quality in
    ``chosen_quality``.
    """
    tree = tree if tree is not None else _spanning_tree(graph)
    validate_parts(graph, parts)
    if not parts:
        return Shortcut(graph=graph, tree=tree, parts=[], edge_sets=[], constructor="oblivious")
    if budgets is None:
        budgets = default_budget_schedule(len(parts))
    return oblivious_sweep(ConstructionEngine(graph, tree, parts), budgets)
