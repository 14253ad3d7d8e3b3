"""CSR-native graph generators: million-node instances without ``networkx``.

Every generator in :mod:`repro.graphs.planar` (and friends) builds an
``nx.Graph`` first and converts through :class:`~repro.core.GraphView`,
which caps practical instance sizes near ``10^4`` nodes.  This module
inverts that direction: the generators here emit flat edge arrays with a
vectorised numpy pipeline, assemble the CSR :class:`~repro.core.CoreGraph`
directly, and wrap it in a *lazy* view
(:meth:`~repro.core.GraphView.from_core`) whose ``nx.Graph`` is only ever
materialised if a seed oracle or validator asks for it.

The native output is pinned **exactly equal** to the preserved ``nx``
generator converted via ``GraphView`` -- same canonical node ordering, same
edge set, same weights (``tests/test_graphs_native.py``).  Exactness is
non-trivial because the package's canonical node order is *sorted by
``repr``*, in two layers:

* :func:`repro.utils.relabel_to_integers` (used by ``grid_graph`` /
  ``cylinder_graph``) orders the ``(r, c)`` coordinate tuples by the string
  order of their ``repr``, which for ``rows, cols >= 11`` differs from
  numeric order (``"(0, 10)" < "(0, 2)"``); and
* :class:`~repro.core.GraphView` orders the resulting integer labels by
  *their* ``repr``, i.e. decimal-string order (``"10" < "2"``).

Both permutations are computed here vectorised (:func:`string_argsort`):
the repr order of a tuple ``(r, c)`` equals the lexicographic order of the
pair of decimal-string ranks, and decimal-string order of ``0 .. n-1`` is
an argsort over the digit-left-aligned key ``(x * 10**(maxd - digits(x)),
digits(x))``.

Weights are drawn by the order-independent hashed scheme
(:func:`repro.graphs.weights.hashed_weights_array`) so the vectorised draw
and the per-edge ``nx`` twin produce bit-for-bit identical floats.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from ..core import CoreGraph, GraphView
from ..errors import InvalidGraphError
from ..utils import ensure_rng
from .weights import hashed_weights_array

__all__ = [
    "string_argsort",
    "native_grid",
    "native_cylinder",
    "native_cycle",
    "native_star",
    "native_wheel",
    "native_delaunay",
    "native_ktree_chain",
    "native_clique_sum_chain",
    "ktree_chain_reference",
    "clique_sum_chain_reference",
    "with_hashed_weights",
    "NATIVE_GENERATORS",
]


# ---------------------------------------------------------------------------
# Canonical-order machinery
# ---------------------------------------------------------------------------


def string_argsort(n: int) -> np.ndarray:
    """Return ``0 .. n-1`` permuted into decimal-string (``repr``) order.

    ``perm[i]`` is the integer whose decimal string has rank ``i``, i.e.
    ``perm.tolist() == sorted(range(n), key=repr)``.  Lexicographic order of
    decimal strings is an argsort over ``(x * 10**(maxd - digits(x)),
    digits(x))``: left-aligning the digits makes the numeric comparison
    agree with the string comparison, and the digit count breaks the
    remaining ties (a shorter string that is a prefix of a longer one sorts
    first).
    """
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    x = np.arange(n, dtype=np.int64)
    digits = np.ones(n, dtype=np.int64)
    threshold = 10
    while threshold < n:
        digits += x >= threshold
        threshold *= 10
    key = x * 10 ** (digits.max() - digits)
    return np.lexsort((digits, key)).astype(np.int64)


def _string_rank(n: int) -> np.ndarray:
    """Return ``rank[x]`` = position of ``x`` in decimal-string order."""
    perm = string_argsort(n)
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n, dtype=np.int64)
    return rank


def _assemble_view(
    num_nodes: int,
    label_u: np.ndarray,
    label_v: np.ndarray,
    weight_seed: int | None,
    low: float,
    high: float,
    integer: bool,
) -> GraphView:
    """Assemble a lazy :class:`GraphView` from edge arrays in *label* space.

    Canonicalises and deduplicates the edges, draws hashed weights on the
    label pairs (matching the ``nx`` twin), bakes in the repr-rank
    permutation so that CSR index order equals the canonical node order,
    and builds the symmetric sorted CSR arrays in one vectorised pass.
    """
    label_u = np.asarray(label_u, dtype=np.int64)
    label_v = np.asarray(label_v, dtype=np.int64)
    if label_u.size and (
        label_u.min() < 0
        or label_v.min() < 0
        or label_u.max() >= num_nodes
        or label_v.max() >= num_nodes
    ):
        raise InvalidGraphError(f"edge endpoint out of range for n={num_nodes}")
    if np.any(label_u == label_v):
        raise InvalidGraphError("native generator produced a self-loop")
    a = np.minimum(label_u, label_v)
    b = np.maximum(label_u, label_v)
    keys = np.unique(a * np.int64(num_nodes) + b)
    a = keys // num_nodes
    b = keys % num_nodes
    if weight_seed is None:
        edge_weights = None
    else:
        edge_weights = hashed_weights_array(
            a, b, weight_seed, low=low, high=high, integer=integer
        )
    rank = _string_rank(num_nodes)
    iu, iv = rank[a], rank[b]
    src = np.concatenate([iu, iv])
    dst = np.concatenate([iv, iu])
    order = np.lexsort((dst, src))
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    weights = None
    if edge_weights is not None:
        weights = np.concatenate([edge_weights, edge_weights])[order]
    core = CoreGraph.from_csr(indptr, dst[order], weights)
    perm = string_argsort(num_nodes)
    return GraphView.from_core(
        core, nodes=perm.tolist(), has_weights=weight_seed is not None
    )


def with_hashed_weights(
    view: GraphView,
    seed: int,
    low: float = 1.0,
    high: float = 100.0,
    integer: bool = False,
) -> GraphView:
    """Return a weighted copy of a native view, sharing its CSR structure.

    Weights are drawn by :func:`~repro.graphs.weights.hashed_weights_array`
    on the *label* pairs, so the result is exactly the view of the ``nx``
    twin graph after ``assign_hashed_weights(graph, seed, ...)``.  Requires
    integer node labels (every native generator emits them); the structure
    arrays are reused, only the weight array is new.
    """
    core = view.core
    try:
        labels = np.asarray(view.nodes, dtype=np.int64)
    except (TypeError, ValueError):
        raise InvalidGraphError(
            "with_hashed_weights needs integer node labels"
        ) from None
    indptr = core.indptr
    indices = core.indices
    u = np.repeat(labels, np.diff(indptr))
    v = labels[indices]
    weights = hashed_weights_array(u, v, seed, low=low, high=high, integer=integer)
    weighted_core = CoreGraph.from_csr(
        indptr, indices, weights, sort_neighbours=core.sorted_adjacency
    )
    return GraphView.from_core(weighted_core, nodes=view.nodes, has_weights=True)


# ---------------------------------------------------------------------------
# Native generators (each pinned equal to its nx twin by the differential
# suite; weight_seed=None gives the unweighted twin, otherwise the twin is
# the generator followed by assign_hashed_weights with the same arguments)
# ---------------------------------------------------------------------------


def native_grid(
    rows: int,
    cols: int,
    weight_seed: int | None = None,
    low: float = 1.0,
    high: float = 100.0,
    integer: bool = False,
) -> GraphView:
    """CSR-native twin of :func:`repro.graphs.planar.grid_graph`."""
    if rows < 1 or cols < 1:
        raise InvalidGraphError("grid dimensions must be positive")
    # relabel_to_integers orders (r, c) by repr == lexicographic on the
    # string ranks of the coordinates, so label(r, c) = srank(r)*cols + srank(c).
    labels = _string_rank(rows)[:, None] * np.int64(cols) + _string_rank(cols)[None, :]
    label_u = np.concatenate([labels[:, :-1].ravel(), labels[:-1, :].ravel()])
    label_v = np.concatenate([labels[:, 1:].ravel(), labels[1:, :].ravel()])
    return _assemble_view(rows * cols, label_u, label_v, weight_seed, low, high, integer)


def native_cylinder(
    rows: int,
    cols: int,
    weight_seed: int | None = None,
    low: float = 1.0,
    high: float = 100.0,
    integer: bool = False,
) -> GraphView:
    """CSR-native twin of :func:`repro.graphs.planar.cylinder_graph`."""
    if rows < 1 or cols < 3:
        raise InvalidGraphError("a cylinder needs at least 1 row and 3 columns")
    labels = _string_rank(rows)[:, None] * np.int64(cols) + _string_rank(cols)[None, :]
    wrapped = np.roll(labels, -1, axis=1)
    label_u = np.concatenate([labels.ravel(), labels[:-1, :].ravel()])
    label_v = np.concatenate([wrapped.ravel(), labels[1:, :].ravel()])
    return _assemble_view(rows * cols, label_u, label_v, weight_seed, low, high, integer)


def native_cycle(
    n: int,
    weight_seed: int | None = None,
    low: float = 1.0,
    high: float = 100.0,
    integer: bool = False,
) -> GraphView:
    """CSR-native twin of :func:`repro.graphs.planar.cycle_graph`."""
    if n < 3:
        raise InvalidGraphError("a cycle needs at least 3 nodes")
    label_u = np.arange(n, dtype=np.int64)
    label_v = (label_u + 1) % n
    return _assemble_view(n, label_u, label_v, weight_seed, low, high, integer)


def native_star(
    n: int,
    weight_seed: int | None = None,
    low: float = 1.0,
    high: float = 100.0,
    integer: bool = False,
) -> GraphView:
    """CSR-native twin of :func:`repro.graphs.planar.star_graph` (n leaves)."""
    if n < 1:
        raise InvalidGraphError("a star needs at least one leaf")
    label_v = np.arange(1, n + 1, dtype=np.int64)
    label_u = np.zeros(n, dtype=np.int64)
    return _assemble_view(n + 1, label_u, label_v, weight_seed, low, high, integer)


def native_wheel(
    n: int,
    weight_seed: int | None = None,
    low: float = 1.0,
    high: float = 100.0,
    integer: bool = False,
) -> GraphView:
    """CSR-native twin of :func:`repro.graphs.planar.wheel_graph` (n-cycle + hub)."""
    if n < 3:
        raise InvalidGraphError("a wheel needs a cycle of at least 3 nodes")
    rim = np.arange(1, n + 1, dtype=np.int64)
    rim_next = np.roll(rim, -1)
    label_u = np.concatenate([np.zeros(n, dtype=np.int64), rim])
    label_v = np.concatenate([rim, rim_next])
    return _assemble_view(n + 1, label_u, label_v, weight_seed, low, high, integer)


def native_delaunay(
    n: int,
    seed: int | None = None,
    weight_seed: int | None = None,
    low: float = 1.0,
    high: float = 100.0,
    integer: bool = False,
) -> GraphView:
    """CSR-native twin of :func:`repro.graphs.planar.random_delaunay_triangulation`.

    Runs the identical seeded point draw and scipy triangulation, then
    extracts the edge set from the simplex array vectorised instead of
    inserting triangles into an ``nx.Graph`` one at a time.
    """
    if n < 3:
        raise InvalidGraphError("a triangulation needs at least 3 points")
    rng = ensure_rng(seed)
    np_rng = np.random.default_rng(rng.randrange(2**32))
    points = np_rng.random((n, 2))
    from scipy.spatial import Delaunay  # deferred import: scipy is heavy

    simplices = Delaunay(points).simplices.astype(np.int64)
    pairs = np.concatenate(
        [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]]
    )
    view = _assemble_view(
        n, pairs[:, 0], pairs[:, 1], weight_seed, low, high, integer
    )
    if not view.core.is_connected():
        raise InvalidGraphError("Delaunay triangulation is not connected")
    return view


def ktree_chain_reference(n: int, k: int) -> nx.Graph:
    """The preserved ``nx`` twin of :func:`native_ktree_chain`.

    A deterministic interval ``k``-tree: vertex ``i`` is adjacent to the
    ``min(i, k)`` preceding vertices, so the bags ``{i-k, ..., i}`` form a
    path decomposition of width ``k`` (a bounded-treewidth chain -- the
    shape the scale experiments use because its treewidth is independent
    of ``n``).
    """
    if k < 1:
        raise InvalidGraphError("k must be at least 1")
    if n < k + 1:
        raise InvalidGraphError(f"a {k}-tree chain needs at least {k + 1} nodes")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for i in range(1, n):
        for j in range(max(0, i - k), i):
            graph.add_edge(j, i)
    return graph


def native_ktree_chain(
    n: int,
    k: int,
    weight_seed: int | None = None,
    low: float = 1.0,
    high: float = 100.0,
    integer: bool = False,
) -> GraphView:
    """CSR-native twin of :func:`ktree_chain_reference`."""
    if k < 1:
        raise InvalidGraphError("k must be at least 1")
    if n < k + 1:
        raise InvalidGraphError(f"a {k}-tree chain needs at least {k + 1} nodes")
    label_u = np.concatenate(
        [np.arange(n - j, dtype=np.int64) for j in range(1, k + 1)]
    )
    label_v = np.concatenate(
        [np.arange(j, n, dtype=np.int64) for j in range(1, k + 1)]
    )
    return _assemble_view(n, label_u, label_v, weight_seed, low, high, integer)


def clique_sum_chain_reference(num_bags: int, bag_side: int, k: int) -> nx.Graph:
    """The preserved ``nx`` twin of :func:`native_clique_sum_chain`.

    A deterministic ``k``-clique-sum of ``num_bags`` grid blocks: block
    ``t`` is a ``bag_side x bag_side`` grid on the label interval starting
    at ``t * (bag_side**2 - k)`` (cell ``(r, c)`` at offset ``r*bag_side +
    c``), each junction's ``k`` shared vertices -- the last ``k`` cells of
    one block and the first ``k`` of the next -- completed into a clique,
    which is the set the two blocks are glued on.
    """
    if num_bags < 1 or k < 1:
        raise InvalidGraphError("need at least one bag and k >= 1")
    if bag_side * bag_side < 2 * k:
        raise InvalidGraphError("bag too small for the junction cliques")
    size = bag_side * bag_side
    graph = nx.Graph()
    for t in range(num_bags):
        base = t * (size - k)
        for r in range(bag_side):
            for c in range(bag_side):
                node = base + r * bag_side + c
                if c + 1 < bag_side:
                    graph.add_edge(node, node + 1)
                if r + 1 < bag_side:
                    graph.add_edge(node, node + bag_side)
    for t in range(num_bags - 1):
        shared = [t * (size - k) + size - k + i for i in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                graph.add_edge(shared[i], shared[j])
    return graph


def native_clique_sum_chain(
    num_bags: int,
    bag_side: int,
    k: int,
    weight_seed: int | None = None,
    low: float = 1.0,
    high: float = 100.0,
    integer: bool = False,
) -> GraphView:
    """CSR-native twin of :func:`clique_sum_chain_reference` (index-space glue)."""
    if num_bags < 1 or k < 1:
        raise InvalidGraphError("need at least one bag and k >= 1")
    if bag_side * bag_side < 2 * k:
        raise InvalidGraphError("bag too small for the junction cliques")
    size = bag_side * bag_side
    num_nodes = num_bags * (size - k) + k
    cells = np.arange(size, dtype=np.int64)
    right = cells[(cells % bag_side) + 1 < bag_side]
    down = cells[cells // bag_side + 1 < bag_side]
    block_u = np.concatenate([right, down])
    block_v = np.concatenate([right + 1, down + bag_side])
    bases = (np.arange(num_bags, dtype=np.int64) * (size - k))[:, None]
    label_u = (bases + block_u[None, :]).ravel()
    label_v = (bases + block_v[None, :]).ravel()
    if num_bags > 1 and k > 1:
        i, j = np.triu_indices(k, 1)
        junctions = (np.arange(num_bags - 1, dtype=np.int64) * (size - k) + size - k)[
            :, None
        ]
        label_u = np.concatenate([label_u, (junctions + i[None, :]).ravel()])
        label_v = np.concatenate([label_v, (junctions + j[None, :]).ravel()])
    return _assemble_view(num_nodes, label_u, label_v, weight_seed, low, high, integer)


# Registry of (native, nx-twin) pairs for the differential and property
# suites: family name -> (native callable, twin callable, list of kwargs
# dicts exercised by the tests).  Twins take the same positional shape
# parameters; weight arguments apply to the native side only (the twin is
# weighted separately via assign_hashed_weights).
def _grid_twin(rows, cols):
    from .planar import grid_graph

    return grid_graph(rows, cols)


def _cylinder_twin(rows, cols):
    from .planar import cylinder_graph

    return cylinder_graph(rows, cols)


def _cycle_twin(n):
    from .planar import cycle_graph

    return cycle_graph(n)


def _star_twin(n):
    from .planar import star_graph

    return star_graph(n)


def _wheel_twin(n):
    from .planar import wheel_graph

    return wheel_graph(n)


def _delaunay_twin(n, seed=None):
    from .planar import random_delaunay_triangulation

    return random_delaunay_triangulation(n, seed=seed)


NATIVE_GENERATORS: dict[str, tuple] = {
    "grid": (native_grid, _grid_twin, [{"rows": 4, "cols": 7}, {"rows": 13, "cols": 12}, {"rows": 1, "cols": 30}]),
    "cylinder": (native_cylinder, _cylinder_twin, [{"rows": 3, "cols": 5}, {"rows": 11, "cols": 14}]),
    "cycle": (native_cycle, _cycle_twin, [{"n": 3}, {"n": 41}]),
    "star": (native_star, _star_twin, [{"n": 1}, {"n": 27}]),
    "wheel": (native_wheel, _wheel_twin, [{"n": 3}, {"n": 23}]),
    "delaunay": (native_delaunay, _delaunay_twin, [{"n": 30, "seed": 3}, {"n": 150, "seed": 11}]),
    "ktree_chain": (native_ktree_chain, ktree_chain_reference, [{"n": 12, "k": 1}, {"n": 40, "k": 4}]),
    "clique_sum_chain": (
        native_clique_sum_chain,
        clique_sum_chain_reference,
        [{"num_bags": 2, "bag_side": 3, "k": 2}, {"num_bags": 5, "bag_side": 4, "k": 3}],
    ),
}
