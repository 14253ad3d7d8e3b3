"""Scenario instances: a generated graph plus cached derived structures.

A :class:`ScenarioInstance` bundles the output of one graph-family builder
(the graph and, where the family provides one, its construction witness)
with memoised derived objects -- the BFS spanning tree, part families and
seeded weighted copies -- so that a scenario matrix running several
constructors and algorithms over the same instance pays for each expensive
derivation exactly once.

Instances come in two flavours.  The classic path hands ``__init__`` an
``nx.Graph``; the *native* path (``FamilySpec.native_build`` /
``instantiate(native=True)``) hands it a CSR-backed
:class:`~repro.core.GraphView` straight from :mod:`repro.graphs.native`.
A native instance never builds an ``nx.Graph`` unless something explicitly
reads ``instance.graph`` -- the spanning tree, part families, weighted
copies and description all run on the arrays -- which is what lets the
scenario engine accept million-node instances.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import networkx as nx

from ..core import GraphView, PartSet, part_set_of, view_of
from ..errors import InvalidGraphError
from ..graphs.weights import assign_random_weights
from ..shortcuts.parts import path_parts, singleton_parts, tree_fragment_parts
from ..structure.spanning import RootedTree, bfs_spanning_tree


class ScenarioInstance:
    """One concrete graph instance of a family, with memoised derivations.

    Attributes:
        family: registry name of the family that produced the instance.
        params: the generator parameters (JSON-friendly scalars).
        seed: the generator seed.
        graph: the network graph (materialised on demand for native
            instances -- reading it on a native instance converts the CSR
            arrays to an ``nx.Graph`` once).
        native: whether the instance was built CSR-first from a
            :class:`~repro.core.GraphView`.
        witness: the family's construction witness (``TreewidthWitness``,
            ``CliqueSumDecomposition``, ``AlmostEmbeddableGraph``,
            ``MinorFreeGraph``, ``LowerBoundGraph``) or ``None`` for
            families, like plain planar grids, that need none.
    """

    def __init__(
        self,
        family: str,
        params: Mapping[str, object],
        seed: int,
        graph: nx.Graph | GraphView,
        witness: object | None = None,
    ) -> None:
        if isinstance(graph, GraphView):
            self._view: GraphView | None = graph
            self._graph: nx.Graph | None = None
            self.native = True
            empty = graph.core.num_nodes == 0
        else:
            self._view = None
            self._graph = graph
            self.native = False
            empty = graph.number_of_nodes() == 0
        if empty:
            raise InvalidGraphError(f"family {family} produced an empty graph")
        self.family = family
        self.params = dict(params)
        self.seed = seed
        self.witness = witness
        self._tree: RootedTree | None = None
        self._parts: dict[tuple, list[frozenset]] = {}
        self._weighted: dict[tuple, nx.Graph | GraphView] = {}

    # -- cached derivations -------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        """The instance as an ``nx.Graph`` (materialised lazily if native)."""
        if self._graph is None:
            self._graph = self._view.graph
        return self._graph

    @property
    def view(self) -> GraphView:
        """The shared CSR :class:`GraphView` of the instance graph.

        Native instances carry their view from construction; classic
        instances convert once through the package-wide
        :func:`repro.core.view_of` memo, so every constructor and algorithm
        in a sweep shares one label-to-index conversion.
        """
        if self._view is not None:
            return self._view
        return view_of(self.graph)

    @property
    def num_nodes(self) -> int:
        if self._view is not None:
            return self._view.core.num_nodes
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        if self._view is not None:
            return self._view.core.num_edges
        return self._graph.number_of_edges()

    @property
    def tree(self) -> RootedTree:
        """The shared BFS spanning tree ``T`` (built once per instance)."""
        if self._tree is None:
            self._tree = bfs_spanning_tree(self.view)
        return self._tree

    def parts(self, kind: str = "tree_fragments", **kwargs) -> list[frozenset]:
        """Return (and cache) a part family of the requested kind.

        Supported kinds: ``"tree_fragments"`` (keyword ``num_parts``/
        ``seed``), ``"path"`` and ``"singleton"``.  On native instances the
        tree-fragment and singleton kinds run nx-free on the view.
        """
        # Resolve defaults before keying the cache, so e.g. parts("x") and
        # parts("x", num_parts=6) share one entry.
        if kind == "tree_fragments":
            num_parts = int(kwargs.pop("num_parts", 6))
            seed = int(kwargs.pop("seed", self.seed))
            num_parts = max(1, min(num_parts, self.num_nodes))
            key = (kind, num_parts, seed)
        elif kind in ("path", "singleton"):
            key = (kind,)
        else:
            raise ValueError(f"unknown parts kind {kind!r}")
        if kwargs:
            raise ValueError(f"unknown parts arguments for {kind!r}: {sorted(kwargs)}")
        if key not in self._parts:
            network = self.view if self.native else self.graph
            if kind == "tree_fragments":
                self._parts[key] = tree_fragment_parts(
                    network, self.tree, num_parts=num_parts, seed=seed
                )
            elif kind == "path":
                self._parts[key] = path_parts(network, self.tree)
            else:
                self._parts[key] = singleton_parts(network)
        return self._parts[key]

    def part_set(self, kind: str = "tree_fragments", **kwargs) -> PartSet:
        """Return the int-indexed :class:`~repro.core.PartSet` of a part family.

        Memoised next to the shared :class:`~repro.core.GraphView` (through
        the package-wide :func:`repro.core.part_set_of` memo over the cached
        label parts), so the shortcut construction engine, quality
        measurement and validation all share one label-to-index conversion
        of the family per instance.
        """
        return part_set_of(self.view, self.parts(kind, **kwargs))

    def weighted_graph(
        self, seed: int, integer: bool = True, low: float = 1.0, high: float = 100.0
    ) -> nx.Graph | GraphView:
        """Return a copy of the graph with seeded random edge weights.

        The copy keeps the shared instance immutable, so scenarios with
        different weight seeds can run over the same cached instance.

        Native instances return a weighted :class:`~repro.core.GraphView`
        (sharing the CSR structure arrays, new weight array) drawn by the
        order-independent hashed scheme
        (:func:`repro.graphs.weights.hashed_edge_weight`); classic
        instances keep the sequential :func:`assign_random_weights` scheme,
        so existing records are unchanged.
        """
        key = (seed, integer, low, high)
        if key not in self._weighted:
            if self.native:
                from ..graphs.native import with_hashed_weights

                self._weighted[key] = with_hashed_weights(
                    self._view, seed, low=low, high=high, integer=integer
                )
            else:
                weighted = self.graph.copy()
                assign_random_weights(
                    weighted, low=low, high=high, seed=seed, integer=integer
                )
                self._weighted[key] = weighted
        return self._weighted[key]

    # -- description --------------------------------------------------------

    @property
    def root(self) -> Hashable:
        return self.tree.root

    def describe(self) -> dict[str, object]:
        """Return a JSON-friendly summary of the instance."""
        return {
            "family": self.family,
            "params": dict(self.params),
            "seed": self.seed,
            "n": self.num_nodes,
            "m": self.num_edges,
            "tree_height": self.tree.height,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"ScenarioInstance(family={self.family!r}, params={self.params!r}, "
            f"seed={self.seed}, n={self.num_nodes})"
        )


class InstanceCache:
    """Memoises instances across a scenario matrix run.

    Keyed by ``(family, params, seed, native)``; the cached
    :class:`ScenarioInstance` then memoises its own spanning tree and part
    families, so a sweep of ``k`` constructors over one instance performs
    one generation, one BFS tree and one partition instead of ``k`` each.
    """

    def __init__(self) -> None:
        self._instances: dict[tuple, ScenarioInstance] = {}
        self.hits = 0
        self.misses = 0

    def get(
        self,
        family: str,
        params: Mapping[str, object],
        seed: int,
        build,
        native: bool = False,
    ) -> ScenarioInstance:
        key = (family, tuple(sorted(params.items())), seed, native)
        if key not in self._instances:
            self.misses += 1
            self._instances[key] = build()
        else:
            self.hits += 1
        return self._instances[key]

    def __len__(self) -> int:
        return len(self._instances)
