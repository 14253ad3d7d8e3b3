"""The array-native construction engine behind the congestion-capped search.

The oblivious constructor of HIZ16a (see
:mod:`repro.shortcuts.congestion_capped`) is a *sweep*: the same
(tree, parts) instance is pruned at geometrically increasing congestion
budgets and the best measured quality wins.  The seed implementation paid
for everything per budget -- it re-derived every part's Steiner edge set,
materialised an O(n) subtree set per Steiner edge per part to rank the
benefits, and re-measured full quality from scratch for each candidate.

:class:`ConstructionEngine` computes the budget-independent state exactly
once per (graph, tree, parts), as a few numpy passes over the whole part
family.  Its unit is the *Steiner pair* ``(part, vertex)``: ``vertex`` lies
on the Steiner tree of ``part``, the union of the tree paths from the
part's members up to its *top*, the LCA of its first and last members by
``tin``.  Every array below is indexed by Steiner pair, sorted by
``(part, tin)``:

* **Steiner pairs** -- the tree's heavy paths are contiguous ``tin`` ranges
  (:class:`~repro.structure.spanning.EulerTourIndex`), so a path up to an
  ancestor is at most ``1 + log2 n`` ``tin`` intervals.  In ``tin`` order,
  each member's path up to its LCA with the previous member (the first
  member's up to the top), without that endpoint, is disjoint from the
  others, and together they are exactly the part's Steiner edges.  All
  members climb together, one heavy path per vectorised step; their
  intervals plus the tops are sorted and expanded into the pairs.  A pair
  is a Steiner *edge* -- the tree edge from its vertex to the vertex's
  parent -- iff its vertex is not the top;
* **benefits** -- the benefit of a part at a tree edge (the number of part
  members behind the edge, Definition 12's tie-breaker) is the number of
  the part's members whose ``tin`` lies in the edge's subtree interval
  ``[tin, tout]``: two ``searchsorted`` calls over the sorted
  ``(part, tin)`` member keys price every edge pair at once;
* **owner ranks** -- one ``lexsort`` by (edge, benefit desc, part asc)
  ranks every edge's requesting parts; a part keeps an edge at budget
  ``b`` iff its rank there is below ``b``, so keep sets only grow with
  ``b``.

The sweep exploits that monotonicity: per-edge congestion at budget ``b``
is ``min(#owners, b)`` (a closed form), and the block parameter comes from
the components of the kept forest over the Steiner pairs.  Every pair
points at its parent pair once its edge is kept, pointer jumping resolves
every pair to its component's root, and a part's blocks are the distinct
roots among its members.  Each budget only adds pointers, so the jumping
resumes from the previous budget's roots.  Once a budget drops no edge at
all, every larger budget produces the identical shortcut and the sweep
short-circuits.

:meth:`ConstructionEngine.build_shortcut` hands the kept pairs to the
:class:`Shortcut` as flat ``(pairs, offsets)`` vertex-index arrays, which
the aggregation scheduler reads directly; label edge sets are built only
when a label consumer asks for them.

The engine reproduces the seed implementation, kept as the oracles in
``tests/oracles/``, *exactly* (edge sets, congestion, blocks, chosen
budget); the differential and property tests in
``tests/test_construction_engine.py`` pin this on every graph family and
part generator.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from ..core import PartSet, part_set_of, view_of
from ..structure.spanning import RootedTree
from .shortcut import Shortcut


class ConstructionEngine:
    """Shared per-(graph, tree, parts) state for the congestion-capped sweep.

    Building the engine computes the Steiner pairs, their benefits and the
    per-edge owner ranks once; :meth:`quality_sweep` then prices any set of
    budgets incrementally and :meth:`build_shortcut` materialises the pruned
    :class:`Shortcut` for one chosen budget.

    The part family may be supplied either as label frozensets (``parts``)
    or directly as an int-indexed :class:`~repro.core.PartSet`
    (``part_set``); the Boruvka loop uses the latter so per-phase
    fragment families never round-trip through labels.

    Attributes (arrays are int64):
        top: per part, the root of its Steiner tree.
        pair_part: per Steiner pair, its part; ``terminal_local`` holds the
            pair of every member (in ``(part, tin)`` order).
        edge_local / edge_child / edge_part / edge_benefit / edge_rank /
            parent_local: per Steiner edge, its pair, its edge (the child
            vertex), its part, its benefit, the part's rank among the
            edge's owners and the pair of the edge's parent vertex.
        max_owner_count: the most parts requesting one tree edge.
    """

    def __init__(
        self,
        graph: nx.Graph,
        tree: RootedTree,
        parts: Sequence[frozenset] | None = None,
        part_set: PartSet | None = None,
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
        """Compute the Steiner pairs of every part and their edge benefits."""
        euler = self.euler
        tin, path_head, path_exit = euler.tin, euler.path_head, euler.path_exit
        # Keys ``part * stride + tin`` keep every part's tin range apart.
        stride = len(self.view) + 1
        offsets = np.asarray(self.part_set.offsets, dtype=np.int64)
        members = np.asarray(self.part_set.members, dtype=np.int64)
        num_parts = len(offsets) - 1
        self.sizes = offsets[1:] - offsets[:-1]
        part_base = np.arange(num_parts, dtype=np.int64) * stride
        base = part_base.repeat(self.sizes)
        member_key = base + tin[members]
        member_key.sort()
        member_tin = member_key - base
        first = offsets[:-1]

        # The top of a part is the deepest ancestor of its last member (by
        # tin) whose tin is at most its first member's: the last member
        # climbs one heavy path per step until its path reaches that bound.
        position, bound = member_tin[offsets[1:] - 1], member_tin[first]
        top_tin = np.empty(num_parts, dtype=np.int64)
        climbing = np.arange(num_parts)
        while len(climbing):
            stops = path_head[position] <= bound
            top_tin[climbing[stops]] = np.minimum(position[stops], bound[stops])
            moves = ~stops
            climbing, bound = climbing[moves], bound[moves]
            position = path_exit[position[moves]]

        # In tin order, each member's path up to its LCA with the previous
        # member -- the first member's up to the top -- minus that endpoint
        # is disjoint from every other such path, and together they are the
        # part's Steiner edges (a vertex below the top is reached first from
        # the first member of its subtree).  All members climb together,
        # each leaving one tin interval per heavy path.
        bound = np.empty_like(member_tin)
        bound[1:] = member_tin[:-1]
        bound[first] = top_tin
        lows = [part_base + top_tin]
        highs = [lows[0]]
        position, key_base = member_tin, base
        while len(position):
            head = path_head[position]
            stops = head <= bound
            lows.append(key_base + np.where(stops, np.minimum(position, bound) + 1, head))
            highs.append(key_base + position)
            moves = ~stops
            position = path_exit[position[moves]]
            bound, key_base = bound[moves], key_base[moves]
        low = np.concatenate(lows)
        high = np.concatenate(highs)

        # Expand the disjoint intervals (and each part's top) into the
        # sorted pair keys.
        nonempty = low <= high
        low, high = low[nonempty], high[nonempty]
        by_low = low.argsort()
        low, high = low[by_low], high[by_low]
        lengths = high - low + 1
        step = np.ones(int(lengths.sum()), dtype=np.int64)
        step[0:1] = low[:1]
        step[lengths[:-1].cumsum()] = low[1:] - high[:-1]
        pair_key = step.cumsum()
        self.pair_part, pair_tin = np.divmod(pair_key, stride)
        self.top = euler.order[top_tin]

        # Steiner edges and their benefits: members in [tin, tout].
        is_edge = pair_tin != top_tin[self.pair_part]
        self.edge_local = is_edge.nonzero()[0]
        edge_key, edge_tin = pair_key[is_edge], pair_tin[is_edge]
        self.edge_child = euler.order[edge_tin]
        self.edge_part = self.pair_part[is_edge]
        edge_base = edge_key - edge_tin
        self.edge_benefit = member_key.searchsorted(
            edge_base + euler.tout[self.edge_child], side="right"
        ) - member_key.searchsorted(edge_key, side="left")
        # Local ids of every member's pair and of every edge's parent pair.
        self.terminal_local = pair_key.searchsorted(member_key)
        self.parent_local = pair_key.searchsorted(
            edge_base + tin[euler.parent[self.edge_child]]
        )

    def _rank_owners(self) -> None:
        """Rank every tree edge's requesting parts by (benefit desc, index asc)."""
        edge = self.edge_child
        count = len(edge)
        by_owner = np.lexsort((self.edge_part, -self.edge_benefit, edge))
        sorted_edge = edge[by_owner]
        opens = np.ones(count, dtype=bool)
        opens[1:] = sorted_edge[1:] != sorted_edge[:-1]
        starts = opens.nonzero()[0]
        group_sizes = np.empty_like(starts)
        group_sizes[:-1] = starts[1:] - starts[:-1]
        group_sizes[-1:] = count - starts[-1:]
        rank = np.empty(count, dtype=np.int64)
        rank[by_owner] = np.arange(count, dtype=np.int64) - starts.repeat(group_sizes)
        self.edge_rank = rank
        self.max_owner_count = int(group_sizes.max()) if count else 0

    def tree_diameter(self) -> int:
        if self._tree_diameter is None:
            self._tree_diameter = self.tree.diameter()
        return self._tree_diameter

    # -- the incremental budget sweep --------------------------------------

    def quality_sweep(self, budgets: Sequence[int]) -> dict[int, int]:
        """Return ``{budget: quality}`` for every distinct requested budget.

        Budgets are priced in ascending order: going from one budget to the
        next only *adds* kept (edge, part) pairs (each edge's winners are a
        prefix of its ranking), so each step points the newly won pairs at
        their parent pairs and resumes the pointer jumping from the previous
        roots; a part's block count is the number of distinct roots among
        its members, and the per-edge congestion has the closed form
        ``min(#owners, budget)``.  Negative budgets price like 0, matching
        the constructor's clamp.  Once a budget drops no edge at all the
        remaining budgets share its quality (the candidates are identical).
        """
        distinct = sorted({max(0, int(budget)) for budget in budgets})
        if not distinct:
            return {}
        diameter = self.tree_diameter()
        max_count = self.max_owner_count
        num_pairs = len(self.pair_part)
        # Every terminal is its own block until an edge is kept.
        block = int(self.sizes.max()) if len(self.sizes) else 0
        pointer = np.arange(num_pairs, dtype=np.int64)
        qualities: dict[int, int] = {}
        kept_rank = 0
        for budget in distinct:
            rank_limit = min(budget, max_count)
            if rank_limit > kept_rank:
                won = (self.edge_rank >= kept_rank) & (self.edge_rank < rank_limit)
                pointer[self.edge_local[won]] = self.parent_local[won]
                while True:
                    jumped = pointer[pointer]
                    if (jumped == pointer).all():
                        break
                    pointer = jumped
                is_root = np.zeros(num_pairs, dtype=bool)
                is_root[pointer[self.terminal_local]] = True
                block = int(np.bincount(self.pair_part[is_root]).max())
                kept_rank = rank_limit
            qualities[budget] = block * diameter + rank_limit
        return qualities

    # -- materialisation ---------------------------------------------------

    def build_shortcut(self, congestion_budget: int) -> Shortcut:
        """Materialise the pruned :class:`Shortcut` for one budget.

        The shortcut is built in index space: the kept ``(child, parent)``
        vertex-index pairs of all parts as one ``(k, 2)`` array sliced by
        per-part ``offsets``, plus the engine's part set.  It derives its
        canonical label edge sets lazily, so a consumer that stays on the
        array-native path (the Boruvka fast loop, the indexed aggregation)
        never pays for label materialisation.
        """
        budget = max(0, int(congestion_budget))
        kept = self.edge_rank < budget
        child = self.edge_child[kept]
        pairs = np.empty((len(child), 2), dtype=np.int64)
        pairs[:, 0] = child
        pairs[:, 1] = self.euler.parent[child]
        offsets = np.zeros(self.num_parts + 1, dtype=np.int64)
        np.bincount(self.edge_part[kept], minlength=self.num_parts).cumsum(out=offsets[1:])
        return Shortcut(
            graph=self.graph,
            tree=self.tree,
            parts=None,
            edge_sets=None,
            constructor=f"congestion_capped(c={budget})",
            part_set=self.part_set,
            core_pairs=(pairs, offsets),
        )
