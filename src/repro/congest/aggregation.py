"""Part-wise aggregation over a shortcut, simulated at the message-schedule level.

This is the primitive the whole shortcut framework exists to accelerate
(Section 1.3.3): every part must compute an associative aggregate
(min / max / sum) of values held by its members.  Theorem 1's algorithm does
this by convergecasting towards a per-part leader on ``G[P_i] + H_i`` and
broadcasting the result back; the cost is governed by the dilation of those
subgraphs (block parameter times tree diameter) plus the congestion of edges
shared by several parts.

The simulation here is faithful to the CONGEST accounting without running
full node programs: every part builds a BFS aggregation tree of its
augmented subgraph, each aggregation-tree edge must carry one "up" message
(after all of the child's children have reported) and one "down" message
(after the parent has learned the result), and **each directed graph edge
delivers at most one message per round** -- so edges used by many parts
serialise, which is exactly how congestion costs rounds in the model.  A
greedy FIFO schedule is used; optimal scheduling is NP-hard but within
``O(congestion + dilation)`` of the greedy one, so the measured shape is the
one the theory predicts.

This schedule-level simulation sits *beside* the node-program simulator
and its three execution modes (``docs/simulator.md``): the single-tree
convergecast that does run as node programs is
:func:`repro.congest.primitives.convergecast_aggregate`; this module is
the many-parts, shared-edges generalisation whose round counts realise the
quality -> rounds argument of Theorem 1.

Two entry points share one core scheduler:

* :func:`partwise_aggregate` -- the label-keyed public primitive: ``values``
  maps node labels to inputs, per-part aggregates come back in part order.
  The schedule runs entirely in vertex-index space (flat adjacency slices,
  int-keyed queues, per-edge delivery keys derived from the label reprs
  exactly once), producing round-for-round identical schedules to the seed
  label-keyed scheduler, which is kept as the oracle
  ``partwise_aggregate_reference`` in ``tests/oracles/``; the differential
  tests pin the two equal on every family.
* :func:`partwise_aggregate_indexed` -- the array-native twin used by the
  Boruvka loop (:mod:`repro.algorithms.mst`): ``values`` is a flat
  sequence indexed by :class:`~repro.core.GraphView` vertex index, so a
  caller that already lives in index space never round-trips through label
  dictionaries.  Aggregates, rounds and messages are identical to the
  label-keyed entry point by construction (the schedule never looks at the
  values).

Shortcuts built by the array-native construction engine carry their part
family and shortcut edges as vertex-index arrays
(:meth:`repro.shortcuts.engine.ConstructionEngine.build_shortcut`); the
scheduler consumes those directly and only falls back to the label
``edge_sets`` / ``parts`` for shortcuts built in label space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

from ..errors import SimulationError
from ..shortcuts.shortcut import Shortcut

Value = object


@dataclass
class AggregationResult:
    """Outcome of one part-wise aggregation.

    Attributes:
        values: per-part aggregate value, indexed like the shortcut's parts.
        rounds: number of synchronous rounds the greedy schedule needed
            (convergecast plus broadcast, including congestion delays).
        messages: total messages sent.
        per_part_rounds: the round in which each part finished (its broadcast
            completed); the maximum equals ``rounds``.
    """

    values: list[Value]
    rounds: int
    messages: int
    per_part_rounds: list[int] = field(default_factory=list)


def partwise_aggregate(
    shortcut: Shortcut,
    values: Mapping[Hashable, Value],
    combine: Callable[[Value, Value], Value] = min,
    max_rounds: int = 1_000_000,
) -> AggregationResult:
    """Aggregate ``values`` within every part of ``shortcut`` and count rounds.

    Args:
        shortcut: the shortcut whose augmented subgraphs define each part's
            communication graph.
        values: per-vertex input values; every vertex of every part must have
            one (a part vertex without a value raises
            :class:`~repro.errors.SimulationError`).  Vertices outside all
            parts are ignored (they only relay).
        combine: associative, commutative binary operation (min by default).
        max_rounds: safety bound on the schedule length.

    Returns:
        An :class:`AggregationResult` with per-part aggregates and the exact
        number of rounds used by the greedy schedule.
    """
    return _partwise_aggregate_core(shortcut, values, None, combine, max_rounds)


def partwise_aggregate_indexed(
    shortcut: Shortcut,
    values: Sequence[Value],
    combine: Callable[[Value, Value], Value] = min,
    max_rounds: int = 1_000_000,
) -> AggregationResult:
    """Index-space twin of :func:`partwise_aggregate`.

    ``values`` is a sequence of length ``n`` indexed by the
    :class:`~repro.core.GraphView` vertex index (full coverage -- every
    vertex has an entry, so the label path's missing-value check does not
    apply).  This is the entry point for callers that already hold their
    state in flat arrays, like the Boruvka MWOE step; it skips the
    label-dictionary round trip entirely.
    """
    return _partwise_aggregate_core(shortcut, None, values, combine, max_rounds)


def _core_members(shortcut: Shortcut):
    """Return (view, part_set) for the index-space scheduler."""
    part_set = shortcut.part_set()
    return part_set.view, part_set


def _core_edge_lists(shortcut: Shortcut, view) -> list[list[tuple[int, int]]]:
    """Per-part shortcut edges as vertex-index pairs.

    Engine-built shortcuts carry them from construction; label-built
    shortcuts convert their canonical edge sets once per aggregation.
    """
    if shortcut._core_edges is not None:
        return shortcut._core_edges
    index_of = view.index_of
    return [
        [(index_of(u), index_of(v)) for u, v in edges] for edges in shortcut.edge_sets
    ]


def _partwise_aggregate_core(
    shortcut: Shortcut,
    label_values: Mapping[Hashable, Value] | None,
    indexed_values: Sequence[Value] | None,
    combine: Callable[[Value, Value], Value],
    max_rounds: int,
) -> AggregationResult:
    """The index-space greedy scheduler behind both entry points.

    Vertices are view indices throughout; the only label work is the
    per-directed-edge delivery key ``repr((label_u, label_v))``, computed
    once per edge that actually carries a message, which keeps the greedy
    schedule order identical to the seed label-keyed oracle (index
    order is repr order for vertices, but *edge* keys are string reprs of
    label pairs, so they must be derived from the labels).
    """
    view, part_set = _core_members(shortcut)
    node_of = view.nodes
    num_parts = part_set.num_parts
    aggregates: list[Value] = [None] * num_parts
    per_part_done: list[int] = [0] * num_parts

    if label_values is not None:
        # Same missing-value check (and same reported vertex) as the seed
        # oracle: iterate the label parts in frozenset order.
        for index, part in enumerate(shortcut.parts):
            for vertex in part:
                if vertex not in label_values:
                    raise SimulationError(
                        f"no input value for vertex {vertex} of part {index}"
                    )

        def value_of(vertex: int) -> Value:
            return label_values[node_of[vertex]]

    else:

        def value_of(vertex: int) -> Value:
            return indexed_values[vertex]

    core = view.core
    indptr, indices = core._indptr_list, core._indices_list
    edge_lists = _core_edge_lists(shortcut, view)

    # Per-part aggregation trees (BFS parent maps over the augmented
    # subgraph, anchored at the part's minimum index) and bookkeeping.
    parents: list[dict[int, int | None]] = []
    children: list[dict[int, list[int]]] = []
    pending_children: list[dict[int, int]] = []
    partial: list[dict[int, Value]] = []
    for index in range(num_parts):
        members = part_set.members_of(index)
        member_set = set(members)
        adjacency: dict[int, list[int]] = {
            u: [v for v in indices[indptr[u] : indptr[u + 1]] if v in member_set]
            for u in members
        }
        for a, b in edge_lists[index]:
            row = adjacency.setdefault(a, [])
            if b not in row:
                row.append(b)
            row = adjacency.setdefault(b, [])
            if a not in row:
                row.append(a)
        anchor = members[0]
        parent: dict[int, int | None] = {anchor: None}
        # Children lists recorded in BFS discovery order -- the same order a
        # scan of ``parent.items()`` yields (dict insertion order), so the
        # down-phase enqueues below are schedule-identical to the seed
        # oracle's full scans while costing O(children) instead of O(part).
        kids: dict[int, list[int]] = {}
        queue: deque[int] = deque([anchor])
        while queue:
            u = queue.popleft()
            for v in sorted(adjacency[u]):
                if v not in parent:
                    parent[v] = u
                    kids.setdefault(u, []).append(v)
                    queue.append(v)
        parents.append(parent)
        children.append(kids)
        counts: dict[int, int] = {node: 0 for node in parent}
        for node, par in parent.items():
            if par is not None:
                counts[par] += 1
        pending_children.append(counts)
        partial.append(
            {
                node: value_of(node) if node in member_set else None
                for node in parent
            }
        )

    # Build the initial set of ready "up" tasks: leaves of each aggregation
    # tree.  Directed edges deliver in canonical (repr) order each round;
    # the repr of an index edge is derived from its labels once, when the
    # edge first carries a task.
    #
    # Hot-path representation (schedule-identical to the seed oracle's
    # scheduler, several times cheaper per message): tasks are plain
    # ``(part, sender, receiver, is_up)`` tuples, and the active edges are
    # kept as an always-sorted list that is *merged* with each round's
    # newly activated edges instead of being re-sorted from scratch every
    # round -- at 10^6 nodes the per-round ``sorted`` is the dominant cost.
    edge_queues: dict[tuple[int, int], deque] = {}
    edge_key: dict[tuple[int, int], str] = {}
    outstanding = 0
    fresh_edges: list[tuple[int, int]] = []  # activated since the last merge

    def enqueue(index: int, sender: int, receiver: int, is_up: bool) -> None:
        nonlocal outstanding
        edge = (sender, receiver)
        queue = edge_queues.get(edge)
        if queue is None:
            queue = edge_queues[edge] = deque()
            edge_key[edge] = f"({node_of[sender]!r}, {node_of[receiver]!r})"
        if not queue:
            fresh_edges.append(edge)
        queue.append((index, sender, receiver, is_up))
        outstanding += 1

    for index in range(num_parts):
        parent = parents[index]
        pending = pending_children[index]
        for node, par in parent.items():
            if par is not None and pending[node] == 0:
                enqueue(index, node, par, True)

    # Down-phase bookkeeping: which vertices still await the broadcast.
    awaiting_down: list[set[int]] = [set() for _ in range(num_parts)]

    key_of = edge_key.__getitem__
    rounds = 0
    messages = 0
    active: list[tuple[int, int]] = []  # sorted by edge key, queues non-empty
    while outstanding > 0:
        if rounds > max_rounds:
            raise SimulationError("aggregation schedule exceeded the round budget")
        rounds += 1
        if fresh_edges:
            fresh_edges.sort(key=key_of)
            if active:
                # Merge the (sorted) survivors with the newly activated
                # edges; both lists are duplicate-free and disjoint.
                merged: list[tuple[int, int]] = []
                append = merged.append
                iter_old = iter(active)
                iter_new = iter(fresh_edges)
                old_edge = next(iter_old, None)
                new_edge = next(iter_new, None)
                while old_edge is not None and new_edge is not None:
                    if key_of(old_edge) <= key_of(new_edge):
                        append(old_edge)
                        old_edge = next(iter_old, None)
                    else:
                        append(new_edge)
                        new_edge = next(iter_new, None)
                while old_edge is not None:
                    append(old_edge)
                    old_edge = next(iter_old, None)
                while new_edge is not None:
                    append(new_edge)
                    new_edge = next(iter_new, None)
                active = merged
            else:
                active = fresh_edges
            fresh_edges = []
        # Each directed edge delivers at most one message per round.
        delivered: list[tuple[int, int, int, bool]] = []
        still_active: list[tuple[int, int]] = []
        deliver = delivered.append
        keep = still_active.append
        queues = edge_queues
        for edge in active:
            queue = queues[edge]
            deliver(queue.popleft())
            if queue:
                keep(edge)
        outstanding -= len(delivered)
        messages += len(delivered)
        active = still_active
        for index, sender, receiver, is_up in delivered:
            if is_up:
                part_partial = partial[index]
                value = part_partial[sender]
                if value is not None:
                    current = part_partial[receiver]
                    part_partial[receiver] = (
                        value if current is None else combine(current, value)
                    )
                pending = pending_children[index]
                pending[receiver] -= 1
                if pending[receiver] == 0:
                    parent = parents[index]
                    grand = parent[receiver]
                    if grand is not None:
                        enqueue(index, receiver, grand, True)
                    else:
                        # The root has the aggregate: start the broadcast.
                        aggregates[index] = partial[index][receiver]
                        awaiting_down[index] = {
                            node for node, par in parent.items() if par is not None
                        }
                        if not awaiting_down[index]:
                            per_part_done[index] = rounds
                        for node in children[index].get(receiver, ()):
                            enqueue(index, receiver, node, False)
            else:  # down
                waiting = awaiting_down[index]
                waiting.discard(receiver)
                if not waiting:
                    per_part_done[index] = rounds
                for node in children[index].get(receiver, ()):
                    enqueue(index, receiver, node, False)

    # Single-vertex parts (and parts whose anchor component never produced a
    # task) fall back to a direct fold over their members' values.
    for index in range(num_parts):
        if aggregates[index] is None:
            members = part_set.members_of(index)
            aggregate = value_of(members[0])
            for member in members[1:]:
                aggregate = combine(aggregate, value_of(member))
            aggregates[index] = aggregate
            per_part_done[index] = max(per_part_done[index], 0)

    return AggregationResult(
        values=aggregates,
        rounds=rounds,
        messages=messages,
        per_part_rounds=per_part_done,
    )

