"""The array-native construction engine behind the congestion-capped search.

The oblivious constructor of HIZ16a (see
:mod:`repro.shortcuts.congestion_capped`) is a *sweep*: the same
(tree, parts) instance is pruned at geometrically increasing congestion
budgets and the best measured quality wins.  The seed implementation paid
for everything per budget -- it re-derived every part's Steiner edge set,
materialised an O(n) subtree set per Steiner edge per part to rank the
benefits, and re-measured full quality from scratch for each candidate.

:class:`ConstructionEngine` computes the budget-independent state exactly
once per (graph, tree, parts):

* **Steiner edge ids** -- every tree edge is identified by the view index of
  its child endpoint; a part's Steiner edges are found by walking members up
  the flat ``parent`` array into an epoch-stamped mark array and keeping the
  marked vertices inside the Euler-tour interval of the terminals' LCA;
* **Euler-tour benefits** -- the benefit of a part at a tree edge (number of
  part vertices behind the edge, Definition 12's tie-breaker) is one
  O(|Steiner|) accumulation pass over the Steiner vertices in decreasing
  ``tin`` order, instead of per-edge subtree-set intersections;
* **owner rankings** -- for every tree edge the requesting parts are ranked
  once by (benefit desc, part index asc); the budget-``b`` winners are then
  simply the top-``b`` prefix, so keep sets only grow with ``b``.

The incremental sweep exploits that monotonicity: per-edge congestion at
budget ``b`` is ``min(#owners, b)`` (a closed form), and the block
parameter is maintained by per-part union-find structures over Steiner
vertices that only ever *merge* as the budget grows -- each budget step
unions exactly the newly-won (edge, part) pairs and updates a per-part
terminal-component counter.  Once a budget drops no edge at all, every
larger budget produces the identical shortcut and the sweep short-circuits.

The engine reproduces the preserved ``networkx`` reference implementation
*exactly* (edge sets, congestion, blocks, chosen budget); the differential
tests in ``tests/test_construction_engine.py`` pin this on every graph
family and part generator.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from ..core import PartSet, part_set_of, view_of
from ..structure.spanning import RootedTree
from .shortcut import Shortcut


class EngineScratch:
    """Reusable size-``n`` work arrays for repeated engine builds over one view.

    One :class:`ConstructionEngine` allocates three length-``n`` arrays for
    its Steiner derivation.  Built once per construction that is fine; the
    Boruvka loop builds a fresh engine *per phase* over the same view,
    so it threads one scratch through the whole run -- the epoch counter is
    persistent, which makes re-use O(1) (no clearing pass between phases).
    """

    __slots__ = ("size", "mark_stamp", "member_stamp", "acc", "epoch")

    def __init__(self, size: int) -> None:
        self.size = size
        self.mark_stamp = [0] * size  # ancestor-closure marking
        self.member_stamp = [0] * size  # terminal membership
        self.acc = [0] * size  # subtree terminal counts
        self.epoch = 0


class ConstructionEngine:
    """Shared per-(graph, tree, parts) state for the congestion-capped sweep.

    Building the engine computes the Steiner edge-id arrays, Euler-tour
    benefits and per-edge owner rankings once; :meth:`quality_sweep` then
    prices any set of budgets incrementally and :meth:`build_shortcut`
    materialises the pruned :class:`Shortcut` for one chosen budget.

    The part family may be supplied either as label frozensets (``parts``)
    or directly as an int-indexed :class:`~repro.core.PartSet`
    (``part_set``); the Boruvka loop uses the latter so per-phase
    fragment families never round-trip through labels.  ``scratch`` is an
    optional :class:`EngineScratch` shared across engines over the same
    view (one allocation per MST run instead of one per phase).
    """

    def __init__(
        self,
        graph: nx.Graph,
        tree: RootedTree,
        parts: Sequence[frozenset] | None = None,
        part_set: PartSet | None = None,
        scratch: EngineScratch | None = None,
    ) -> None:
        self.graph = graph
        self.tree = tree
        if part_set is not None:
            self.part_set = part_set
            self.view = part_set.view
        else:
            if parts is None:
                raise TypeError("ConstructionEngine needs either parts or a part_set")
            self.view = view_of(graph)
            self.part_set = part_set_of(self.view, parts)
        self.euler = tree.euler_index(self.view)
        if scratch is None or scratch.size != len(self.view):
            scratch = EngineScratch(len(self.view))
        self.scratch = scratch
        self._tree_diameter: int | None = None
        self._build_steiner_index()
        self._rank_owners()

    @property
    def parts(self) -> list[frozenset]:
        """The family as label frozensets (lazy when built from a part set)."""
        return self.part_set.label_parts()

    @property
    def num_parts(self) -> int:
        return self.part_set.num_parts

    # -- budget-independent state -----------------------------------------

    def _build_steiner_index(self) -> None:
        """Compute per-part Steiner vertex/edge-id arrays and edge benefits."""
        parent, tin = self.euler.parent, self.euler.tin
        members_by_tin = self.part_set.members_by_tin(self.euler)
        scratch = self.scratch
        mark_stamp = scratch.mark_stamp  # ancestor-closure marking
        member_stamp = scratch.member_stamp  # terminal membership
        acc = scratch.acc  # subtree terminal counts (reset via the kept list)

        # Per part: Steiner vertex list, Steiner edge ids (child indices) and
        # the parallel benefit array.
        self.steiner_nodes: list[list[int]] = []
        self.steiner_edges: list[list[int]] = []
        self.benefits: list[list[int]] = []

        epoch = scratch.epoch
        for part_index, members in self.part_set.iter_members():
            epoch += 1
            # The Steiner tree is the ancestor closure of the terminals
            # restricted to the subtree of their LCA, which in DFS order is
            # the LCA of the extreme-tin members (the sorted tin views make
            # those the first and last entries).  Computing the subtree's tin
            # interval *first* lets every root-walk stop at parent(top)
            # instead of climbing to the root: ancestors of a member are
            # either inside subtree(top) (tin >= low) or proper ancestors of
            # top (tin < low), so the marked set is exactly the old
            # ancestor-closure intersected with the interval -- and singleton
            # parts, the bulk of Boruvka's first phase, cost O(1) instead of
            # O(tree depth).
            by_tin = members_by_tin[part_index]
            top = self.euler.lca(by_tin[0], by_tin[-1])
            low = tin[top]
            kept: list[int] = []
            for member in members:
                member_stamp[member] = epoch
                node = member
                while node >= 0 and mark_stamp[node] != epoch and tin[node] >= low:
                    mark_stamp[node] = epoch
                    kept.append(node)
                    node = parent[node]
            # One accumulation pass in decreasing tin order: children are
            # processed before their parents, so acc[node] is the number of
            # part vertices in the Steiner subtree below node -- equal to the
            # reference |subtree(node) & part| because every part vertex in
            # subtree(node) routes its root path through node.
            kept.sort(key=tin.__getitem__, reverse=True)
            for node in kept:
                acc[node] = 0
            edges: list[int] = []
            benefit: list[int] = []
            for node in kept:
                below = acc[node] + (1 if member_stamp[node] == epoch else 0)
                par = parent[node]
                if par >= 0 and mark_stamp[par] == epoch and tin[par] >= low:
                    edges.append(node)
                    benefit.append(below)
                    acc[par] += below
            self.steiner_nodes.append(kept)
            self.steiner_edges.append(edges)
            self.benefits.append(benefit)
        scratch.epoch = epoch

    def _rank_owners(self) -> None:
        """Rank every tree edge's requesting parts by (benefit desc, index asc)."""
        owners: dict[int, list[int]] = {}
        owner_benefits: dict[int, list[int]] = {}
        for part_index, edges in enumerate(self.steiner_edges):
            benefit = self.benefits[part_index]
            for offset, edge in enumerate(edges):
                entry = owners.get(edge)
                if entry is None:
                    owners[edge] = [part_index]
                    owner_benefits[edge] = [benefit[offset]]
                else:
                    entry.append(part_index)
                    owner_benefits[edge].append(benefit[offset])
        ranked: dict[int, list[int]] = {}
        for edge, parts in owners.items():
            if len(parts) == 1:
                ranked[edge] = parts
                continue
            benefit = owner_benefits[edge]
            pairs = sorted(zip(parts, benefit), key=lambda item: (-item[1], item[0]))
            ranked[edge] = [part for part, _benefit in pairs]
        self.ranked_owners = ranked
        self.max_owner_count = max((len(parts) for parts in ranked.values()), default=0)

    def tree_diameter(self) -> int:
        if self._tree_diameter is None:
            self._tree_diameter = self.tree.diameter()
        return self._tree_diameter

    # -- the incremental budget sweep --------------------------------------

    def quality_sweep(self, budgets: Sequence[int]) -> dict[int, int]:
        """Return ``{budget: quality}`` for every distinct requested budget.

        Budgets are priced in ascending order: going from one budget to the
        next only *adds* kept (edge, part) pairs (each edge's winners are a
        prefix of its ranking), so the per-part block counts are maintained
        by union-find merges and the per-edge congestion has the closed form
        ``min(#owners, budget)``.  Negative budgets price like 0, matching
        the constructor's clamp.  Once a budget drops no edge at all the
        remaining budgets share its quality (the candidates are identical).
        """
        distinct = sorted({max(0, int(budget)) for budget in budgets})
        if not distinct:
            return {}
        diameter = self.tree_diameter()
        sizes = [self.part_set.size_of(p) for p in range(self.part_set.num_parts)]

        # (edge, part) pairs grouped by the rank at which the part wins the
        # edge: rank r is won exactly when the budget exceeds r.
        by_rank: list[list[tuple[int, int]]] = [[] for _ in range(self.max_owner_count)]
        for edge, ranked in self.ranked_owners.items():
            for rank, part in enumerate(ranked):
                by_rank[rank].append((edge, part))

        # Per-part union-find over the Steiner vertices (local ids), with a
        # terminal flag per root and a live terminal-component counter.
        local: list[dict[int, int]] = []
        uf_parent: list[list[int]] = []
        has_terminal: list[list[bool]] = []
        blocks = list(sizes)  # budget 0: every part vertex is its own block
        for part_index, kept in enumerate(self.steiner_nodes):
            mapping = {node: local_id for local_id, node in enumerate(kept)}
            local.append(mapping)
            uf_parent.append(list(range(len(kept))))
            member_set = set(self.part_set.members_of(part_index))
            has_terminal.append([node in member_set for node in kept])

        def find(parents: list[int], item: int) -> int:
            root = item
            while parents[root] != root:
                root = parents[root]
            while parents[item] != root:
                parents[item], item = root, parents[item]
            return root

        parent = self.euler.parent
        qualities: dict[int, int] = {}
        max_count = self.max_owner_count
        current_rank = 0
        constant_quality: int | None = None
        for budget in distinct:
            if constant_quality is not None:
                qualities[budget] = constant_quality
                continue
            for rank in range(current_rank, min(budget, max_count)):
                for edge, part in by_rank[rank]:
                    mapping = local[part]
                    parents = uf_parent[part]
                    a = find(parents, mapping[edge])
                    b = find(parents, mapping[parent[edge]])
                    if a == b:
                        continue
                    flags = has_terminal[part]
                    if flags[a] and flags[b]:
                        blocks[part] -= 1
                    parents[b] = a
                    flags[a] = flags[a] or flags[b]
            current_rank = min(budget, max_count)
            congestion = min(max_count, budget)
            block = max(blocks, default=0)
            qualities[budget] = block * diameter + congestion
            if budget >= max_count:
                # No edge is dropped at this budget: every larger budget
                # yields the identical (unpruned) candidate.
                constant_quality = qualities[budget]
        return qualities

    # -- materialisation ---------------------------------------------------

    def build_shortcut(self, congestion_budget: int) -> Shortcut:
        """Materialise the pruned :class:`Shortcut` for one budget.

        The shortcut is built in index space -- per-part ``(child, parent)``
        vertex-index pairs plus the engine's part set -- and derives its
        canonical label edge sets lazily, so a consumer that stays on the
        array-native path (the Boruvka fast loop, the indexed aggregation)
        never pays for label materialisation.
        """
        budget = max(0, int(congestion_budget))
        dropped: set[tuple[int, int]] = set()
        if budget < self.max_owner_count:
            for edge, ranked in self.ranked_owners.items():
                if len(ranked) > budget:
                    for part in ranked[budget:]:
                        dropped.add((edge, part))
        parent = self.euler.parent
        core_edge_lists: list[list[tuple[int, int]]] = []
        for part_index, edges in enumerate(self.steiner_edges):
            if dropped:
                kept = [
                    (edge, parent[edge])
                    for edge in edges
                    if (edge, part_index) not in dropped
                ]
            else:
                kept = [(edge, parent[edge]) for edge in edges]
            core_edge_lists.append(kept)
        return Shortcut(
            graph=self.graph,
            tree=self.tree,
            parts=None,
            edge_sets=None,
            constructor=f"congestion_capped(c={budget})",
            part_set=self.part_set,
            core_edge_lists=core_edge_lists,
        )
