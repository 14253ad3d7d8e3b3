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

Two entry points share one scheduler:

* :func:`partwise_aggregate` -- the label-keyed public primitive: ``values``
  maps node labels to inputs, per-part aggregates come back in part order.
* :func:`partwise_aggregate_indexed` -- the array-native twin used by the
  Boruvka loop (:mod:`repro.algorithms.mst`): ``values`` is a flat
  sequence indexed by :class:`~repro.core.GraphView` vertex index, so a
  caller that already lives in index space never round-trips through label
  dictionaries.  Aggregates, rounds and messages are identical to the
  label-keyed entry point by construction (the schedule never looks at the
  values).

The scheduler is a calendar over integers, in two steps:

* **Setup as arrays.**  Every part's aggregation tree comes out of one
  array-built local graph (a node per ``(part, vertex)`` pair: the part's
  members plus the relay endpoints of its shortcut edges) and one BFS per
  part.  Each tree node carries the rank of the directed edge its up and
  down messages cross, from the view's cached
  :meth:`~repro.core.GraphView.slot_order`: sorting the ``2 m`` directed
  slots once by their key ``repr((label_u, label_v))`` turns the seed
  scheduler's per-round string ordering of edges into integer order.
* **Calendar loop.**  A directed edge is a FIFO that delivers one message
  per round and never idles while it holds one, so a message's delivery
  round is fixed the moment it is sent: ``max(now + 1, next_free[edge])``.
  Each round is one bucket of integer-coded tasks, sorted as plain ints
  (edge rank first) and applied in that order, so even an order-sensitive
  ``combine`` sees the oracle's sequence.

The schedule is round-for-round identical to the seed label-keyed
scheduler, kept as the oracle ``partwise_aggregate_reference`` in
``tests/oracles/``; the differential and property tests pin the two equal
(values, rounds, messages and per-part rounds) on every family.

Shortcuts built by the array-native construction engine carry their part
family and their shortcut edges as flat ``(pairs, offsets)`` vertex-index
arrays (:meth:`repro.shortcuts.engine.ConstructionEngine.build_shortcut`);
:func:`_local_graph` reads those arrays directly, with no per-edge Python
pass.  Shortcuts built in label space convert their ``edge_sets`` into the
same arrays once (:meth:`~repro.shortcuts.shortcut.Shortcut.index_pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

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

    Raises:
        SimulationError: a part vertex has no value, a part is empty or
            overlaps another, a shortcut edge is not a graph edge (CONGEST
            sends only over graph edges), or the schedule needs more than
            ``max_rounds + 1`` rounds.
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
    apply; another length raises :class:`~repro.errors.SimulationError`).  This is the entry point for callers that already hold their
    state in flat arrays, like the Boruvka MWOE step; it skips the
    label-dictionary round trip entirely.
    """
    return _partwise_aggregate_core(shortcut, None, values, combine, max_rounds)


def _local_graph(view, part_set, pairs, pair_offsets):
    """Lay out every part's augmented subgraph as one CSR over local nodes.

    A *local node* is a ``(part, vertex)`` pair: each part member is the
    node whose id is its vertex index (parts are disjoint), and each
    endpoint of a part's shortcut edges outside the part is a relay node
    with an id ``>= n``.  The local edges are the intra-part CSR slots plus
    both directions of every shortcut pair; each row lists its neighbours
    once, in ascending vertex order, the order the seed oracle expands
    them in.  The shortcut pairs come as the flat ``(pairs, offsets)``
    arrays of :meth:`~repro.shortcuts.shortcut.Shortcut.index_pairs`.

    Returns ``(indptr, neighbours, crossed)``: the CSR as lists and the
    graph slot each local edge crosses (an array).  The edge-sized arrays
    are freed as soon as they are used: in Boruvka's early phases there
    are tens of local edges per vertex, and they dominate peak memory.
    """
    slots = view.slot_order()
    tail, head = slots.tail, slots.head
    n = len(view)
    num_parts = part_set.num_parts
    sizes = np.diff(part_set.offsets)
    if num_parts and sizes.min() == 0:
        raise SimulationError(f"aggregation part {int(sizes.argmin())} is empty")
    owner = np.asarray(part_set.owner_array(), dtype=np.int64)
    if np.count_nonzero(owner >= 0) != len(part_set.members):
        raise SimulationError("aggregation parts are not disjoint")

    # Shortcut pairs of every part, endpoints resolved to graph slots.
    total = len(pairs)
    pair_part = np.repeat(np.arange(num_parts, dtype=np.int64), np.diff(pair_offsets))
    a, b = pairs[:, 0], pairs[:, 1]
    pair_slot = slots.find(a, b)
    if total and pair_slot.min() < 0:
        bad = int(np.flatnonzero(pair_slot < 0)[0])
        node_of = view.nodes
        raise SimulationError(
            f"shortcut edge ({node_of[int(a[bad])]}, {node_of[int(b[bad])]}) of part "
            f"{int(pair_part[bad])} is not a graph edge"
        )

    # Local ids of the shortcut endpoints: the vertex itself for a member
    # of the part, a relay id for a vertex outside it.
    local = np.concatenate((a, b))
    end_part = np.concatenate((pair_part, pair_part))
    relay = owner[local] != end_part
    relay_keys, relay_index = np.unique(end_part[relay] * n + local[relay], return_inverse=True)
    local[relay] = n + relay_index
    num_nodes = n + len(relay_keys)
    del pair_part, end_part, relay, relay_keys, relay_index

    # Every directed local edge, sorted into rows by (source, target vertex)
    # with repeats dropped (a shortcut edge inside its own part repeats an
    # intra-part slot).
    intra = np.flatnonzero((owner[tail] >= 0) & (owner[tail] == owner[head]))
    local_a, local_b = local[:total], local[total:]
    source = np.concatenate((tail[intra], local_a, local_b))
    key = source * n + np.concatenate((head[intra], b, a))
    by_row = np.argsort(key)
    key = key[by_row]
    fresh = np.ones(len(key), dtype=bool)
    fresh[1:] = key[1:] != key[:-1]
    del key
    by_row = by_row[fresh]
    del fresh
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(source[by_row], minlength=num_nodes), out=indptr[1:])
    del source
    neighbours = np.concatenate((head[intra], local_b, local_a))[by_row].tolist()
    crossed = np.concatenate((intra, pair_slot, slots.reverse[pair_slot]))[by_row]
    return indptr.tolist(), neighbours, crossed


def _aggregation_forest(view, part_set, pairs, pair_offsets):
    """Build every part's aggregation tree over the :func:`_local_graph`.

    A BFS per part, in part order and seeded at the part's minimum index,
    yields exactly the seed oracle's trees: the same parents, children in
    discovery order, and the whole forest in ``parent.items()`` order part
    by part.

    Returns ``(order, part_start, parent, first_child, num_children,
    up_rank, down_rank)``: the BFS order (part after part), each part's
    start in it (its root's position), and per local node its parent
    (``-1`` for a root), children ``order[first_child:first_child +
    num_children]``, and the :class:`~repro.core.view.SlotOrder` rank of
    the directed edge its up and down messages cross.
    """
    indptr, neighbours, crossed = _local_graph(view, part_set, pairs, pair_offsets)
    num_nodes = len(indptr) - 1
    parent = [-2] * num_nodes  # -2: not reached
    via = [0] * num_nodes  # the local edge each node was discovered over
    first_child = [0] * num_nodes
    num_children = [0] * num_nodes
    order: list[int] = []
    part_start: list[int] = []
    append = order.append
    offsets, members = part_set.offsets, part_set.members
    size = 0
    for index in range(part_set.num_parts):
        anchor = members[offsets[index]]
        part_start.append(size)
        parent[anchor] = -1
        append(anchor)
        cursor = size
        size += 1
        while cursor < size:
            u = order[cursor]
            cursor += 1
            first = size
            for edge in range(indptr[u], indptr[u + 1]):
                v = neighbours[edge]
                if parent[v] == -2:
                    parent[v] = u
                    via[v] = edge
                    append(v)
                    size += 1
            first_child[u] = first
            num_children[u] = size - first
    del indptr, neighbours
    # The graph slot of each node's tree edge (parent -> node).  Without
    # any local edge no node has a parent and the rank lists stay empty.
    slots = view.slot_order()
    tree_slot = crossed[np.array(via, dtype=np.int64)] if len(crossed) else crossed
    del via
    down_rank = slots.rank[tree_slot].tolist()
    up_rank = slots.rank[slots.reverse[tree_slot]].tolist()
    return order, part_start, parent, first_child, num_children, up_rank, down_rank


def _partwise_aggregate_core(
    shortcut: Shortcut,
    label_values: Mapping[Hashable, Value] | None,
    indexed_values: Sequence[Value] | None,
    combine: Callable[[Value, Value], Value],
    max_rounds: int,
) -> AggregationResult:
    """The calendar scheduler behind both entry points.

    Each directed edge is a FIFO that delivers one message per round and
    never idles while it holds one, so a message's delivery round is fixed
    the moment it is sent: ``max(now + 1, next_free[edge])``.  Every round
    is one calendar bucket of integer-coded tasks
    ``(edge_rank << shift) | (node << 1) | is_up``; edge ranks are unique
    within a round, so sorting a bucket as plain ints yields the seed
    oracle's delivery order (directed edges by ``repr`` key), and
    ``combine`` runs in exactly that order.
    """
    part_set = shortcut.part_set()
    view = part_set.view
    node_of = view.nodes
    num_parts = part_set.num_parts
    aggregates: list[Value] = [None] * num_parts
    per_part_done: list[int] = []

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
        if len(indexed_values) != len(node_of):
            raise SimulationError(
                f"expected {len(node_of)} indexed values, got {len(indexed_values)}"
            )
        value_of = indexed_values.__getitem__

    order, part_start, parent, first_child, num_children, up_rank, down_rank = (
        _aggregation_forest(view, part_set, *shortcut.index_pairs())
    )
    num_nodes = len(parent)
    if label_values is not None:
        partial: list[Value] = [None] * num_nodes
        for member in part_set.members:
            partial[member] = value_of(member)
    else:
        partial = list(indexed_values) + [None] * (num_nodes - len(node_of))
    part_of = part_set.owner_array()  # roots are members
    pending = list(num_children)
    arrival = [0] * num_nodes  # the round each node learned the aggregate

    shift = (2 * num_nodes + 1).bit_length()
    node_mask = (1 << (shift - 1)) - 1
    next_free = [0] * len(view.core._indices_list)  # by edge rank
    calendar: dict[int, list[int]] = {}

    def send(edge: int, task: int, now: int) -> None:
        """Queue ``task`` on directed edge ``edge`` during round ``now``."""
        when = next_free[edge]
        if when <= now:
            when = now + 1
        next_free[edge] = when + 1
        queue = calendar.get(when)
        if queue is None:
            calendar[when] = [(edge << shift) | task]
        else:
            queue.append((edge << shift) | task)

    # Leaves report first, part by part in BFS order (the oracle's order).
    for node in order:
        if pending[node] == 0 and parent[node] >= 0:
            send(up_rank[node], (node << 1) | 1, 0)

    # Every tree edge carries one up and one down message.
    total = 2 * (len(order) - num_parts)
    rounds = 0
    messages = 0
    while messages < total:
        if rounds > max_rounds:
            raise SimulationError("aggregation schedule exceeded the round budget")
        rounds += 1
        delivered = calendar.pop(rounds)
        delivered.sort()
        messages += len(delivered)
        for task in delivered:
            node = (task >> 1) & node_mask
            if task & 1:  # up: node reports to its parent
                receiver = parent[node]
                value = partial[node]
                if value is not None:
                    current = partial[receiver]
                    partial[receiver] = (
                        value if current is None else combine(current, value)
                    )
                left = pending[receiver] - 1
                pending[receiver] = left
                if left:
                    continue
                if parent[receiver] >= 0:
                    send(up_rank[receiver], (receiver << 1) | 1, rounds)
                    continue
                # The root has the aggregate: start the broadcast.
                aggregates[part_of[receiver]] = partial[receiver]
                node = receiver  # fans out to its children below
            else:  # down: node learned the aggregate
                arrival[node] = rounds
            first = first_child[node]
            for child in order[first : first + num_children[node]]:
                send(down_rank[child], child << 1, rounds)

    # A part finishes when its last node learns the aggregate (round 0 for
    # a part whose tree is only its root).
    if order:
        per_part_done = np.maximum.reduceat(
            np.array(arrival, dtype=np.int64)[np.array(order, dtype=np.int64)], part_start
        ).tolist()

    # Single-vertex parts (and parts whose anchor component never produced a
    # task) fall back to a direct fold over their members' values.
    for index in range(num_parts):
        if aggregates[index] is None:
            members = part_set.members_of(index)
            aggregate = value_of(members[0])
            for member in members[1:]:
                aggregate = combine(aggregate, value_of(member))
            aggregates[index] = aggregate

    return AggregationResult(
        values=aggregates,
        rounds=rounds,
        messages=messages,
        per_part_rounds=per_part_done,
    )
