"""Rooted spanning trees and tree utilities (BFS trees, Steiner subtrees).

Tree-restricted shortcuts (Definition 10) are always stated with respect to a
spanning tree ``T``; Theorem 1 instantiates ``T`` as a BFS tree of the
network, whose depth is at most the network diameter ``D``.  This module
provides the :class:`RootedTree` wrapper that every shortcut constructor
works with: parent/child/depth maps, ancestor queries, tree paths, Steiner
subtrees of a terminal set, and the "contract-to-a-vertex-subset" minor used
by the clique-sum local shortcuts (the repaired tree ``T^2_h`` of Theorem 7).

The traversal entry points (:func:`bfs_spanning_tree`,
:func:`graph_diameter`) accept either an ``nx.Graph`` or a
:class:`repro.core.GraphView`; given a view they run on the CSR kernel,
producing byte-identical trees (index order equals the repr order used for
tie-breaking on the ``networkx`` path) several times faster.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Sequence

import networkx as nx

from ..core import GraphView
from ..errors import InvalidGraphError
from ..utils import canonical_edge, require_connected

Edge = tuple[Hashable, Hashable]


class RootedTree:
    """A rooted spanning tree with O(1) parent/depth lookups.

    The tree is stored as a parent map; edges are exposed in canonical
    (sorted-repr) form so that they can be compared against shortcut edge
    sets without worrying about orientation.
    """

    def __init__(self, parent: dict[Hashable, Hashable | None], root: Hashable) -> None:
        if parent.get(root, "missing") is not None:
            raise InvalidGraphError("the root must map to parent None")
        self.root = root
        self.parent: dict[Hashable, Hashable | None] = dict(parent)
        self.depth: dict[Hashable, int] = {}
        self.children: dict[Hashable, list[Hashable]] = {node: [] for node in parent}
        for node, par in parent.items():
            if par is not None:
                if par not in parent:
                    raise InvalidGraphError(f"parent {par} of {node} is not a tree node")
                self.children[par].append(node)
        self._compute_depths()
        self._euler: EulerTourIndex | None = None
        # Both caches are safe because the parent map is fixed after
        # construction; the Boruvka loop re-reads both every phase.
        self._edge_set: frozenset[Edge] | None = None
        self._diameter: int | None = None

    def _compute_depths(self) -> None:
        self.depth[self.root] = 0
        queue: deque[Hashable] = deque([self.root])
        visited = 1
        while queue:
            node = queue.popleft()
            for child in self.children[node]:
                self.depth[child] = self.depth[node] + 1
                queue.append(child)
                visited += 1
        if visited != len(self.parent):
            raise InvalidGraphError("parent map does not describe a single rooted tree")

    # -- basic accessors ------------------------------------------------

    @property
    def nodes(self) -> set[Hashable]:
        return set(self.parent.keys())

    def edges(self) -> set[Edge]:
        """Return all tree edges in canonical form."""
        return {
            canonical_edge(node, par)
            for node, par in self.parent.items()
            if par is not None
        }

    def edge_set(self) -> frozenset[Edge]:
        """Return (and cache) the canonical tree edges as a frozenset."""
        if self._edge_set is None:
            self._edge_set = frozenset(self.edges())
        return self._edge_set

    @property
    def height(self) -> int:
        """Return the height (maximum depth) of the rooted tree."""
        return max(self.depth.values(), default=0)

    def _bfs_depths(self, start: Hashable) -> dict[Hashable, int]:
        """Hop distances from ``start`` over the tree's parent/children maps."""
        depths = {start: 0}
        queue: deque[Hashable] = deque([start])
        while queue:
            node = queue.popleft()
            next_depth = depths[node] + 1
            parent = self.parent[node]
            if parent is not None and parent not in depths:
                depths[parent] = next_depth
                queue.append(parent)
            for child in self.children[node]:
                if child not in depths:
                    depths[child] = next_depth
                    queue.append(child)
        return depths

    def diameter(self) -> int:
        """Return the diameter (in hops) of the tree, at most twice the height.

        Double BFS over the parent/children maps -- exact on trees -- without
        materialising an ``nx.Graph``.  Cached: every Boruvka phase prices
        its shortcut's quality against the same tree diameter.
        """
        if self._diameter is not None:
            return self._diameter
        if len(self.parent) <= 1:
            self._diameter = 0
            return 0
        depths = self._bfs_depths(next(iter(self.parent)))
        far = max(depths.items(), key=lambda kv: kv[1])[0]
        self._diameter = max(self._bfs_depths(far).values())
        return self._diameter

    def as_graph(self) -> nx.Graph:
        """Return the tree as a :class:`networkx.Graph`."""
        graph = nx.Graph()
        graph.add_nodes_from(self.parent.keys())
        for node, par in self.parent.items():
            if par is not None:
                graph.add_edge(node, par)
        return graph

    # -- paths and ancestors ---------------------------------------------

    def lowest_common_ancestor(self, u: Hashable, v: Hashable) -> Hashable:
        """Return the LCA of ``u`` and ``v`` (linear-time walk, fine for our sizes)."""
        du, dv = self.depth[u], self.depth[v]
        while du > dv:
            u = self.parent[u]
            du -= 1
        while dv > du:
            v = self.parent[v]
            dv -= 1
        while u != v:
            u = self.parent[u]
            v = self.parent[v]
        return u

    def tree_path(self, u: Hashable, v: Hashable) -> list[Hashable]:
        """Return the unique tree path from ``u`` to ``v`` (inclusive of both)."""
        ancestor = self.lowest_common_ancestor(u, v)
        up: list[Hashable] = []
        node = u
        while node != ancestor:
            up.append(node)
            node = self.parent[node]
        down: list[Hashable] = []
        node = v
        while node != ancestor:
            down.append(node)
            node = self.parent[node]
        return up + [ancestor] + list(reversed(down))

    def subtree_nodes(self, node: Hashable) -> set[Hashable]:
        """Return all nodes in the subtree rooted at ``node`` (including it)."""
        result: set[Hashable] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            result.add(current)
            stack.extend(self.children[current])
        return result

    # -- derived structures ----------------------------------------------

    def euler_index(self, view: GraphView) -> "EulerTourIndex":
        """Return (and cache) the Euler-tour index of this tree over ``view``.

        The index stores flat arrays over the view's vertex indices:
        ``parent`` / ``depth``, the DFS pre-order ``order``, and the
        ``tin`` / ``tout`` interval of every subtree, so that "is ``v`` in
        the subtree below ``u``" is two integer comparisons and a part's
        benefit at every tree edge is one accumulation pass (see
        :mod:`repro.shortcuts.engine`).  Cached per view identity -- a
        budget sweep builds it once.
        """
        cached = self._euler
        if cached is None or cached.view is not view:
            cached = self._euler = EulerTourIndex(self, view)
        return cached

    def steiner_tree_edges(self, terminals: Iterable[Hashable]) -> set[Edge]:
        """Return the edges of the minimal subtree of T spanning ``terminals``.

        Computed by taking the union of root-paths of all terminals and then
        repeatedly pruning non-terminal leaves; linear in the size of the
        union, which is all the precision the shortcut constructors need.
        """
        terminal_set = set(terminals)
        if not terminal_set:
            return set()
        for t in terminal_set:
            if t not in self.parent:
                raise InvalidGraphError(f"terminal {t} is not a node of the tree")
        # Union of root paths.
        marked: set[Hashable] = set()
        for t in terminal_set:
            node = t
            while node is not None and node not in marked:
                marked.add(node)
                node = self.parent[node]
        # Prune non-terminal leaves of the marked subtree with a degree-count
        # worklist (linear in the marked set; the old per-pass nx.Graph scan
        # was quadratic in the worst case).
        degree: dict[Hashable, int] = {node: 0 for node in marked}
        for node in marked:
            par = self.parent[node]
            if par is not None and par in marked:
                degree[node] += 1
                degree[par] += 1
        removed: set[Hashable] = set()
        worklist = [
            node for node, deg in degree.items() if deg <= 1 and node not in terminal_set
        ]
        while worklist:
            node = worklist.pop()
            if node in removed or degree[node] > 1 or node in terminal_set:
                continue
            removed.add(node)
            par = self.parent[node]
            neighbours = [par] if par is not None and par in marked else []
            neighbours.extend(child for child in self.children[node] if child in marked)
            for neighbour in neighbours:
                if neighbour in removed:
                    continue
                degree[neighbour] -= 1
                if degree[neighbour] <= 1 and neighbour not in terminal_set:
                    worklist.append(neighbour)
        kept = marked - removed
        return {
            canonical_edge(node, self.parent[node])
            for node in kept
            if self.parent[node] is not None and self.parent[node] in kept
        }

    def contract_to(self, keep: Iterable[Hashable]) -> "RootedTree":
        """Return the minor of T on the vertex set ``keep`` (the repaired tree T^2).

        Every maximal connected component of discarded vertices is contracted
        into one arbitrary neighbouring kept vertex, which is exactly the
        construction of Theorem 7's local-shortcut step: the result is a tree
        on ``keep`` whose hop-diameter is at most the diameter of ``T``.
        """
        keep_set = set(keep)
        if not keep_set:
            raise InvalidGraphError("cannot contract a tree onto an empty vertex set")
        missing = keep_set - self.nodes
        if missing:
            raise InvalidGraphError(f"vertices {sorted(missing, key=repr)[:5]} are not tree nodes")
        tree_graph = self.as_graph()
        outside = self.nodes - keep_set
        # Map each outside component to a representative kept neighbour.
        component_of: dict[Hashable, int] = {}
        components: list[set[Hashable]] = []
        for node in outside:
            if node in component_of:
                continue
            component: set[Hashable] = set()
            stack = [node]
            while stack:
                current = stack.pop()
                if current in component or current not in outside:
                    continue
                component.add(current)
                component_of[current] = len(components)
                stack.extend(n for n in tree_graph.neighbors(current) if n in outside)
            components.append(component)

        quotient = nx.Graph()
        quotient.add_nodes_from(keep_set)
        component_anchor: dict[int, Hashable] = {}
        component_border: dict[int, set[Hashable]] = {i: set() for i in range(len(components))}
        for u, v in tree_graph.edges():
            u_in, v_in = u in keep_set, v in keep_set
            if u_in and v_in:
                quotient.add_edge(u, v)
            elif u_in and not v_in:
                component_border[component_of[v]].add(u)
            elif v_in and not u_in:
                component_border[component_of[u]].add(v)
        for index, border in component_border.items():
            if not border:
                continue
            anchor = min(border, key=repr)
            component_anchor[index] = anchor
            for other in border:
                if other != anchor:
                    quotient.add_edge(anchor, other)
        if not nx.is_connected(quotient):
            # This can only happen if T itself was not spanning/connected on
            # the kept vertices' closure, which validate() rules out.
            raise InvalidGraphError("contraction produced a disconnected quotient tree")
        root = min(keep_set, key=repr)
        return bfs_spanning_tree(quotient, root=root)

    def validate(self, graph: nx.Graph | GraphView | None = None) -> None:
        """Check that this is a spanning tree of ``graph`` (if provided).

        Passing a :class:`~repro.core.GraphView` runs the nx-free twin of
        the check (vertex-set equality, edge count, connectivity from the
        root, every tree edge a CSR edge) -- the million-node native
        pipeline validates its BFS trees without building any ``nx.Graph``.
        """
        if isinstance(graph, GraphView):
            self._validate_native(graph)
            return
        tree_graph = self.as_graph()
        if tree_graph.number_of_edges() != tree_graph.number_of_nodes() - 1:
            raise InvalidGraphError("rooted tree has the wrong number of edges")
        if not nx.is_connected(tree_graph):
            raise InvalidGraphError("rooted tree is not connected")
        if graph is not None:
            if set(tree_graph.nodes()) != set(graph.nodes()):
                raise InvalidGraphError("tree does not span the graph's vertex set")
            for u, v in tree_graph.edges():
                if not graph.has_edge(u, v):
                    raise InvalidGraphError(f"tree edge ({u}, {v}) is not a graph edge")

    def _validate_native(self, view: GraphView) -> None:
        """The :class:`GraphView` twin of :meth:`validate` (same error texts)."""
        parent = self.parent
        if set(parent) != set(view.nodes):
            raise InvalidGraphError("tree does not span the graph's vertex set")
        core = view.core
        index_of = view.index_of
        children: dict[Hashable, list[Hashable]] = {}
        edge_count = 0
        for node, par in parent.items():
            if par is None:
                continue
            edge_count += 1
            if not core.has_edge(index_of(node), index_of(par)):
                raise InvalidGraphError(f"tree edge ({node}, {par}) is not a graph edge")
            children.setdefault(par, []).append(node)
        if edge_count != len(parent) - 1:
            raise InvalidGraphError("rooted tree has the wrong number of edges")
        reached = 1
        stack = [self.root]
        while stack:
            for child in children.get(stack.pop(), ()):
                reached += 1
                stack.append(child)
        if reached != len(parent):
            raise InvalidGraphError("rooted tree is not connected")


class EulerTourIndex:
    """Flat-array Euler-tour (DFS interval) index of a :class:`RootedTree`.

    All arrays are indexed by the :class:`GraphView` vertex index:

    * ``parent[i]`` -- index of the tree parent (``-1`` for the root);
    * ``depth[i]`` -- hop depth below the root;
    * ``order`` -- the DFS pre-order as a list of indices;
    * ``tin[i]`` -- pre-order position of ``i``;
    * ``tout[i]`` -- the largest ``tin`` in the subtree below ``i``
      (inclusive), so ``v`` lies in the subtree of ``u`` iff
      ``tin[u] <= tin[v] <= tout[u]``.
    """

    __slots__ = ("view", "root", "parent", "depth", "order", "tin", "tout")

    def __init__(self, tree: RootedTree, view: GraphView) -> None:
        n = len(view)
        if len(tree.parent) != n:
            raise InvalidGraphError("tree does not span the graph view's vertex set")
        index_of = view.index_of
        parent = [-1] * n
        depth = [0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        try:
            root = index_of(tree.root)
            for node, par in tree.parent.items():
                index = index_of(node)
                depth[index] = tree.depth[node]
                if par is not None:
                    par_index = index_of(par)
                    parent[index] = par_index
                    children[par_index].append(index)
        except KeyError as error:
            raise InvalidGraphError(
                f"tree node {error.args[0]!r} is not a vertex of the graph view"
            ) from None
        order: list[int] = []
        tin = [0] * n
        stack = [root]
        while stack:
            node = stack.pop()
            tin[node] = len(order)
            order.append(node)
            stack.extend(reversed(children[node]))
        tout = list(tin)
        for node in reversed(order):
            par = parent[node]
            if par >= 0 and tout[node] > tout[par]:
                tout[par] = tout[node]
        self.view = view
        self.root = root
        self.parent = parent
        self.depth = depth
        self.order = order
        self.tin = tin
        self.tout = tout

    def in_subtree(self, ancestor: int, node: int) -> bool:
        """Return True iff ``node`` lies in the subtree below ``ancestor``."""
        return self.tin[ancestor] <= self.tin[node] <= self.tout[ancestor]

    def lca(self, u: int, v: int) -> int:
        """Return the LCA of two indices (depth-walk, linear in the depth gap)."""
        parent, depth = self.parent, self.depth
        while depth[u] > depth[v]:
            u = parent[u]
        while depth[v] > depth[u]:
            v = parent[v]
        while u != v:
            u = parent[u]
            v = parent[v]
        return u


def bfs_spanning_tree(graph: nx.Graph | GraphView, root: Hashable | None = None) -> RootedTree:
    """Return a BFS spanning tree of ``graph`` rooted at ``root``.

    The BFS tree's height is at most the eccentricity of the root, hence at
    most the diameter ``D`` of the graph -- the property Theorem 1 relies on
    when it plugs ``D`` into the shortcut quality function.

    Accepts a :class:`GraphView` for the CSR fast path; the resulting tree is
    identical to the ``networkx`` one (index order is repr order, so the
    neighbour tie-breaking agrees) but label-keyed like always.
    """
    if isinstance(graph, GraphView):
        return _bfs_spanning_tree_core(graph, root)
    require_connected(graph, "graph")
    if root is None:
        root = min(graph.nodes(), key=repr)
    if root not in graph:
        raise InvalidGraphError(f"root {root} is not in the graph")
    parent: dict[Hashable, Hashable | None] = {root: None}
    queue: deque[Hashable] = deque([root])
    while queue:
        node = queue.popleft()
        for neighbour in sorted(graph.neighbors(node), key=repr):
            if neighbour not in parent:
                parent[neighbour] = node
                queue.append(neighbour)
    return RootedTree(parent, root)


def _bfs_spanning_tree_core(view: GraphView, root: Hashable | None = None) -> RootedTree:
    """CSR BFS spanning tree; same contract (and output) as the nx path."""
    if len(view) == 0:
        raise InvalidGraphError("graph is empty")
    root_index = 0 if root is None else None
    if root_index is None:
        try:
            root_index = view.index_of(root)
        except KeyError:
            raise InvalidGraphError(f"root {root} is not in the graph") from None
    parents, order = view.core.bfs_parents(root_index)
    if len(order) != len(view):
        raise InvalidGraphError("graph is not connected")
    node_of = view.nodes
    parent: dict[Hashable, Hashable | None] = {
        node_of[index]: (None if parents[index] < 0 else node_of[parents[index]])
        for index in order
    }
    return RootedTree(parent, node_of[root_index])


def center_root(graph: nx.Graph) -> Hashable:
    """Return an approximate centre of the graph (minimises BFS tree height).

    Found by double BFS: the midpoint of an approximately longest shortest
    path has eccentricity at most ``ceil(D / 2) + 1``; rooting the spanning
    tree there keeps ``d_T`` close to ``D`` rather than ``2 D``.
    """
    require_connected(graph, "graph")
    start = min(graph.nodes(), key=repr)
    far = max(nx.single_source_shortest_path_length(graph, start).items(), key=lambda kv: kv[1])[0]
    lengths = nx.single_source_shortest_path_length(graph, far)
    farther = max(lengths.items(), key=lambda kv: kv[1])[0]
    path = nx.shortest_path(graph, far, farther)
    return path[len(path) // 2]


def graph_diameter(graph: nx.Graph | GraphView, exact_threshold: int = 400) -> int:
    """Return the diameter of ``graph`` (exact for small graphs, 2-approx above).

    For graphs with more than ``exact_threshold`` nodes the double-BFS lower
    bound is returned, which is within a factor 2 of the true diameter and is
    standard practice for experiment bookkeeping at scale.  Given a
    :class:`GraphView` both regimes run on the CSR kernel.
    """
    if isinstance(graph, GraphView):
        core = graph.core
        if core.num_nodes == 0:
            raise InvalidGraphError("graph is empty")
        if not core.is_connected():
            raise InvalidGraphError("graph is not connected")
        if core.num_nodes <= exact_threshold:
            return core.exact_diameter()
        return core.double_sweep_diameter()
    require_connected(graph, "graph")
    if graph.number_of_nodes() <= exact_threshold:
        return nx.diameter(graph)
    start = min(graph.nodes(), key=repr)
    lengths = nx.single_source_shortest_path_length(graph, start)
    # Far-vertex tie-break: the repr-smallest vertex at maximum distance.
    # This is the same vertex the GraphView path picks (lowest index; index
    # order is repr order), so both regimes of both paths agree exactly --
    # the old "first max in BFS dict order" rule diverged from the CSR path
    # above the exact threshold (ROADMAP open item, pinned by the
    # differential test in tests/test_algorithms_core.py).
    eccentricity = max(lengths.values())
    far = min((v for v, d in lengths.items() if d == eccentricity), key=repr)
    return max(nx.single_source_shortest_path_length(graph, far).values())


def steiner_tree_edges(tree: RootedTree, terminals: Sequence[Hashable]) -> set[Edge]:
    """Module-level convenience wrapper around :meth:`RootedTree.steiner_tree_edges`."""
    return tree.steiner_tree_edges(terminals)
