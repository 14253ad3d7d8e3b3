"""Distributed MST via Boruvka phases over low-congestion shortcuts.

This is the algorithm behind Corollary 1: Boruvka's algorithm runs for
``O(log n)`` phases; in each phase every fragment must learn its
minimum-weight outgoing edge (MWOE), which is exactly a part-wise
min-aggregation with the fragments as parts.  Theorem 1 shows that with
shortcuts of quality ``q``, each phase costs ``O~(q(D))`` rounds; here the
phase cost is *measured* by actually scheduling the aggregation messages in
the CONGEST cost model (see :mod:`repro.congest.aggregation`).

Round accounting per phase:

* 1 round for neighbours to exchange fragment identifiers (each node must
  know which incident edges are outgoing);
* the measured rounds of two part-wise aggregations (one convergecast of
  candidate MWOEs -- including the broadcast of the winner back to the
  fragment, which the aggregation primitive already performs -- and one
  aggregation for merge coordination);
* the height of the global BFS tree for announcing the end of the phase
  (standard ``O(D)`` synchronisation).

The *construction* of the shortcut itself is not charged rounds: the
distributed construction of HIZ16a takes ``O~(q)`` rounds, the same order as
one aggregation, so charging it would only change constants; DESIGN.md
records this simplification.

The per-phase aggregations are simulated at the message-schedule level
(they never instantiate node programs), so they are identical under every
simulator mode.  The *node-program* phases of the ``mst`` scenario
workload -- the BFS-tree construction before the Boruvka loop and the
result broadcast after it -- are what the simulator's execution modes
accelerate: under ``run_scenario(..., runtime=True)`` they run on the
vectorized batch programs of :mod:`repro.congest.runtime` with exactly
the same rounds, messages and telemetry (``docs/simulator.md``; the S6
benchmark gates the speedup).

The loop is array-native: fragments are a flat union-find owner array over
:class:`~repro.core.GraphView` indices, each phase's family is an
incremental :meth:`~repro.core.PartSet.from_member_lists` part set, the
MWOE search scans the CSR slices with the view's cached slot ranks
(:meth:`~repro.core.GraphView.slot_order`) as tie-break keys, any
engine-backed builder (one carrying a ``from_engine`` hook: ``oblivious``
and ``steiner``) builds its shortcut straight from a
:class:`~repro.shortcuts.engine.ConstructionEngine` over that part set, and
the aggregation runs through
:func:`~repro.congest.aggregation.partwise_aggregate_indexed`.
``tests/test_algorithms_core.py`` pins every result field to the seed
oracle ``boruvka_mst_reference`` (``tests/oracles/``) on every family.
(With non-integer weights the two may sum the MST in different orders, so
``weight`` can differ in the last ulp; every generator here uses integer
weights.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

import networkx as nx
import numpy as np

from ..core import GraphView, PartSet, view_of
from ..errors import ConvergenceError
from ..graphs.weights import WEIGHT
# partwise_aggregate is unused here, and oblivious_sweep is only read once below;
# both stay bound because perfbench/ledger.py looks them up on this module by name.
from ..congest.aggregation import partwise_aggregate, partwise_aggregate_indexed
from ..shortcuts.congestion_capped import oblivious_shortcut, oblivious_sweep
from ..shortcuts.engine import ConstructionEngine
from ..shortcuts.shortcut import Shortcut
from ..structure.spanning import RootedTree, bfs_spanning_tree
from ..utils import canonical_edge

# A shortcut builder receives (graph, tree, parts) and returns a Shortcut; the
# distributed algorithm is oblivious to how the shortcut was obtained.  A
# builder may also carry a ``from_engine(engine) -> Shortcut`` hook that builds
# the same shortcut from a ConstructionEngine over the parts; Boruvka then
# calls the hook on its per-phase part set instead of the builder.
ShortcutBuilder = Callable[[nx.Graph, RootedTree, Sequence[frozenset]], Shortcut]


def oblivious_builder(graph: nx.Graph, tree: RootedTree, parts: Sequence[frozenset]) -> Shortcut:
    """Default shortcut builder: the structure-oblivious congestion-capped search.

    Its ``from_engine`` hook is :func:`oblivious_sweep`: the array-native
    Boruvka loop runs the sweep on an engine over its per-phase
    :class:`~repro.core.PartSet` instead of round-tripping the fragments
    through label frozensets.
    """
    return oblivious_shortcut(graph, tree, parts)


# The two are pinned identical by the construction-engine differential tests.
oblivious_builder.from_engine = oblivious_sweep


@dataclass
class MstResult:
    """Result of one distributed MST execution.

    Attributes:
        edges: the MST edges (canonical form).
        weight: their total weight.
        rounds: total simulated CONGEST rounds across all phases.
        phases: number of Boruvka phases executed.
        phase_rounds: rounds charged per phase.
        phase_qualities: measured shortcut quality per phase (for the
            quality-vs-rounds correlation the experiments report).
    """

    edges: frozenset[tuple[Hashable, Hashable]]
    weight: float
    rounds: int
    phases: int
    phase_rounds: list[int] = field(default_factory=list)
    phase_qualities: list[int] = field(default_factory=list)


def reference_mst_weight(graph: nx.Graph) -> float:
    """Return the weight of a reference (centralised) MST for validation.

    This is the centralised ``networkx`` oracle (Kruskal), used by tests and
    experiment records to check the distributed result; it is not part of
    the measured algorithm.
    """
    tree = nx.minimum_spanning_tree(graph, weight=WEIGHT)
    return sum(graph[u][v].get(WEIGHT, 1.0) for u, v in tree.edges())


def native_mst_weight(view: GraphView) -> float:
    """Return the reference MST weight of a native instance, nx-free.

    The :class:`~repro.core.GraphView` twin of :func:`reference_mst_weight`:
    hands the CSR arrays to ``scipy.sparse.csgraph.minimum_spanning_tree``,
    so million-node instances can be validated without materialising an
    ``nx.Graph``.  Requires strictly positive weights (scipy's CSR MST
    treats explicit zeros as absent edges); every weight scheme in this
    package draws from ``[low, high]`` with ``low >= 1``.  The float sum may
    differ from the distributed result in the last ulps at large ``n``
    (different summation order), so callers compare with a relative
    tolerance rather than the exact equality the integer-weight nx oracle
    affords.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    core = view.core
    matrix = csr_matrix(
        (core.weights, core.indices, core.indptr),
        shape=(core.num_nodes, core.num_nodes),
    )
    return float(minimum_spanning_tree(matrix).sum())


def _edge_weight(graph: nx.Graph, u: Hashable, v: Hashable) -> float:
    return graph[u][v].get(WEIGHT, 1.0)


def boruvka_mst(
    graph: nx.Graph | GraphView,
    shortcut_builder: ShortcutBuilder | None = None,
    tree: RootedTree | None = None,
    max_phases: int | None = None,
    validate_shortcuts: bool = False,
) -> MstResult:
    """Compute the MST with Boruvka phases and measured CONGEST round costs.

    Args:
        graph: connected weighted network graph (``weight`` edge attribute;
            missing weights default to 1; ties are broken by edge identity so
            the algorithm is deterministic).  Accepts a weighted
            :class:`~repro.core.GraphView` directly (the native generators'
            output): weights are then read straight from the CSR
            arrays and never materialises an ``nx.Graph`` -- the million-node
            configuration of the S7 scale gate.  A view requires an
            engine-backed builder (the default).
        shortcut_builder: how each phase obtains its shortcut; defaults to the
            structure-oblivious constructor.  A builder with a
            ``from_engine`` hook is never called: each phase calls the hook
            on a :class:`~repro.shortcuts.engine.ConstructionEngine` over
            the phase's fragments.
        tree: the global spanning tree ``T`` used for T-restriction and for
            the end-of-phase synchronisation; defaults to a BFS tree.
        max_phases: optional safety cap (default ``2 + log2 n``).
        validate_shortcuts: validate every phase's shortcut (slower; the
            tests enable it).

    Returns:
        An :class:`MstResult`; ``result.weight`` always equals the reference
        MST weight (the tests assert this on every workload).
    """
    builder = shortcut_builder if shortcut_builder is not None else oblivious_builder
    from_engine = getattr(builder, "from_engine", None)
    view = view_of(graph)
    tree = tree if tree is not None else bfs_spanning_tree(view)
    n = len(view)
    if max_phases is None:
        max_phases = 2 + max(1, n).bit_length()

    core = view.core
    indptr, indices = core._indptr_list, core._indices_list
    node_of = view.nodes

    # Canonical per-slot tie-break keys: the view's slot rank of the edge's
    # canonical (low index -> high index) slot.  Index order is repr order,
    # so comparing these ranks compares the strings repr(canonical_edge(u,
    # v)) the seed oracle recomputes for every directed edge in every phase.
    # Weights are re-read from the nx graph per run rather than taken from
    # the CSR cache: the frozen-once-viewed convention covers topology, but
    # callers legitimately reassign *weights* between runs over one graph
    # (the README quickstart does), and each run must see the current ones.
    slots = view.slot_order()
    slot_key = np.where(
        slots.tail < slots.head, slots.rank, slots.rank[slots.reverse]
    ).tolist()
    if isinstance(graph, GraphView):
        # Native instances carry their weights in the CSR arrays themselves
        # (the view is the primary representation -- there is no nx graph to
        # re-read, and weights are baked in at generation time).
        edge_weights = core._weights_list
    else:
        edge_weights = [1.0] * len(indices)
        for u in range(n):
            adjacency = graph.adj[node_of[u]]
            for offset in range(indptr[u], indptr[u + 1]):
                edge_weights[offset] = adjacency[node_of[indices[offset]]].get(WEIGHT, 1.0)

    # Fragment state: a flat owner array (vertex index -> fragment root) and
    # incrementally merged member lists.  Roots are the minimum vertex index
    # of their fragment (merges always point the larger root at the smaller,
    # exactly like the seed oracle's union), so the ascending roots list is
    # also the oracle's ascending-fragment-id part order.
    frag = list(range(n))
    members: list[list[int]] = [[index] for index in range(n)]
    roots = list(range(n))

    mst_edges: set[tuple[Hashable, Hashable]] = set()
    # Weight of each accepted MWOE, recorded at merge time: for GraphView
    # inputs there is no nx adjacency to re-read the final sum from.
    merge_weight: dict[tuple[Hashable, Hashable], float] = {}
    total_rounds = 0
    phase_rounds: list[int] = []
    phase_qualities: list[int] = []
    sync_cost = max(1, tree.height)
    infinity = (float("inf"), -1, -1, -1)

    for _phase in range(max_phases):
        if len(roots) <= 1:
            break
        part_set = PartSet.from_member_lists(view, [members[root] for root in roots])
        if from_engine is not None:
            shortcut = from_engine(ConstructionEngine(graph, tree, part_set=part_set))
        else:
            shortcut = builder(graph, tree, part_set.label_parts())
        if validate_shortcuts:
            shortcut.validate()
        quality = shortcut.chosen_quality
        phase_qualities.append(quality if quality is not None else shortcut.quality())

        # Every vertex's best outgoing edge (1 round of neighbour exchange
        # lets every node learn its neighbours' fragment ids): one scan over
        # the CSR slices against the owner array.
        candidate: list[tuple] = [infinity] * n
        for u in range(n):
            fragment_u = frag[u]
            best_w = float("inf")
            best_k = -1
            best_v = -1
            for offset in range(indptr[u], indptr[u + 1]):
                v = indices[offset]
                if frag[v] == fragment_u:
                    continue
                w = edge_weights[offset]
                if w > best_w:
                    continue
                k = slot_key[offset]
                if w < best_w or k < best_k:
                    best_w, best_k, best_v = w, k, v
            if best_v >= 0:
                candidate[u] = (best_w, best_k, u, best_v)

        aggregation = partwise_aggregate_indexed(
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
        # communication); union-find over the pre-phase roots with the MWOEs
        # as merge edges.
        union: dict[int, int] = {root: root for root in roots}

        def find(root: int) -> int:
            while union[root] != root:
                union[root] = union[union[root]]
                root = union[root]
            return root

        merged_any = False
        for part_index, _root in enumerate(roots):
            mwoe = aggregation.values[part_index]
            if mwoe is None or mwoe[2] < 0:
                continue
            weight, _key, u, v = mwoe
            if weight == float("inf"):
                continue
            ru, rv = find(frag[u]), find(frag[v])
            if ru == rv:
                continue
            union[max(ru, rv)] = min(ru, rv)
            edge = canonical_edge(node_of[u], node_of[v])
            mst_edges.add(edge)
            merge_weight[edge] = weight
            merged_any = True
        if not merged_any:
            raise ConvergenceError("Boruvka phase made no progress; graph may be disconnected")
        surviving: list[int] = []
        for root in roots:
            winner = find(root)
            if winner == root:
                surviving.append(root)
            else:
                moved = members[root]
                for vertex in moved:
                    frag[vertex] = winner
                members[winner].extend(moved)
                members[root] = []
        roots = surviving
    else:
        if len(roots) > 1:
            raise ConvergenceError("Boruvka did not converge within the phase budget")

    if isinstance(graph, GraphView):
        weight = sum(merge_weight[edge] for edge in mst_edges)
    else:
        weight = sum(_edge_weight(graph, u, v) for u, v in mst_edges)
    return MstResult(
        edges=frozenset(mst_edges),
        weight=weight,
        rounds=total_rounds,
        phases=len(phase_rounds),
        phase_rounds=phase_rounds,
        phase_qualities=phase_qualities,
    )

