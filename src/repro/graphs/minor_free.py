"""Samplers for the family L_k (Definition 6) and friendly named families.

``L_k`` is the family of graphs representable as k-clique-sums of k-almost-
embeddable graphs; by the Graph Structure Theorem (Theorem 3) every family
excluding a fixed minor ``H`` is contained in ``L_k`` for ``k = k(H)``.
Because no practical algorithm exists to *decompose* an arbitrary H-free
graph, we sample L_k members constructively: draw almost-embeddable bags,
glue them by k-clique-sums, and return the graph together with its witness
(see DESIGN.md Section 4).  This is exactly the class of inputs on which
Theorem 6 promises shortcuts of quality ``~ d^2``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

from ..errors import InvalidGraphError
from ..utils import ensure_rng
from .apex_vortex import AlmostEmbeddableGraph, add_apices, build_almost_embeddable
from .clique_sum import Bag, CliqueSumDecomposition, clique_sum_compose
from .planar import grid_graph, random_delaunay_triangulation, random_outerplanar_graph
from .treewidth import random_partial_ktree


@dataclass(frozen=True)
class MinorFreeGraph:
    """A sampled member of ``L_k`` with its full construction witness.

    Attributes:
        graph: the composed network graph ``G``.
        decomposition: the clique-sum decomposition tree (Definition 8); each
            bag carries its family tag and, for almost-embeddable bags, the
            relabelled :class:`AlmostEmbeddableGraph` witness.
        k: the clique-sum order / almost-embeddability parameter.
    """

    graph: nx.Graph
    decomposition: CliqueSumDecomposition
    k: int

    @property
    def number_of_nodes(self) -> int:
        return self.graph.number_of_nodes()


def planar_plus_apex(
    rows: int = 12,
    cols: int = 12,
    apices: int = 1,
    attach_probability: float = 0.3,
    seed: int | random.Random | None = None,
) -> AlmostEmbeddableGraph:
    """Return a grid with ``apices`` universal-ish vertices attached.

    This is the paper's flagship motivating example: "a planar graph with an
    added vertex attached to every other node" has tiny diameter but defeats
    planar-only algorithms, while excluded-minor shortcuts still apply (the
    graph is (apices, 0, 0, 0)-almost-embeddable).
    """
    base = grid_graph(rows, cols)
    surface_nodes = frozenset(base.nodes())
    graph, apex_nodes = add_apices(
        base, apices, attach_probability=attach_probability, seed=seed
    )
    result = AlmostEmbeddableGraph(
        graph=graph,
        genus=0,
        apices=apex_nodes,
        vortices=(),
        surface_nodes=surface_nodes,
    )
    result.validate()
    return result


def _sample_bag(
    kind: str,
    k: int,
    size_hint: int,
    rng: random.Random,
) -> tuple[nx.Graph, str, object | None]:
    """Sample one bag graph of the requested kind for :func:`sample_lk_graph`."""
    side = max(3, int(round(size_hint**0.5)))
    if kind == "planar":
        if rng.random() < 0.5:
            return grid_graph(side, side), "planar", None
        return (
            random_delaunay_triangulation(max(8, size_hint), seed=rng),
            "planar",
            None,
        )
    if kind == "outerplanar":
        return random_outerplanar_graph(max(4, size_hint), seed=rng), "planar", None
    if kind == "treewidth":
        width = max(1, min(k, 4))
        witness = random_partial_ktree(max(width + 2, size_hint), width, seed=rng)
        return witness.graph, "treewidth", witness
    if kind == "almost_embeddable":
        witness = build_almost_embeddable(
            q=rng.randint(0, max(0, min(k, 2))),
            g=rng.randint(0, 1),
            k=rng.randint(1, max(1, min(k, 2))),
            l=rng.randint(0, 1),
            base_rows=side,
            base_cols=side,
            seed=rng,
        )
        return witness.graph, "almost_embeddable", witness
    raise InvalidGraphError(f"unknown bag kind {kind!r}")


def sample_lk_graph(
    num_bags: int = 4,
    k: int = 3,
    bag_size: int = 30,
    bag_kinds: tuple[str, ...] = ("planar", "almost_embeddable", "treewidth"),
    tree_shape: str = "random",
    seed: int | random.Random | None = None,
) -> MinorFreeGraph:
    """Sample a random member of ``L_k`` (Definition 6) with its witness.

    Args:
        num_bags: how many almost-embeddable bags to glue together.
        k: clique-sum order and almost-embeddability parameter.
        bag_size: approximate number of vertices per bag.
        bag_kinds: the pool of bag families to draw from; drawing planar or
            bounded-treewidth bags is allowed because both are special cases
            of k-almost-embeddable graphs.
        tree_shape: decomposition tree shape passed to
            :func:`clique_sum_compose` (``"random"``, ``"path"``, ``"star"``).
        seed: RNG seed.

    Returns:
        A :class:`MinorFreeGraph` whose ``decomposition`` witnesses membership
        in ``L_k``.
    """
    if num_bags < 1:
        raise InvalidGraphError("need at least one bag")
    rng = ensure_rng(seed)
    components = [
        _sample_bag(rng.choice(list(bag_kinds)), k, bag_size, rng) for _ in range(num_bags)
    ]
    decomposition = clique_sum_compose(
        components, k=k, seed=rng, tree_shape=tree_shape
    )
    return MinorFreeGraph(graph=decomposition.graph, decomposition=decomposition, k=k)


def perturbed_planar_graph(
    rows: int = 12,
    cols: int = 12,
    extra_edges: int = 3,
    extra_apices: int = 1,
    seed: int | random.Random | None = None,
) -> tuple[nx.Graph, AlmostEmbeddableGraph]:
    """Return a planar grid perturbed by a few random edges plus apices.

    Used by the robustness experiment (E8): the perturbed graph is generally
    *not* planar any more -- so planar-only machinery is inapplicable -- but
    it is still an excluded-minor graph: random extra edges can be charged to
    the genus (each one adds at most one handle) and the apices to the apex
    budget, so the graph is ``(extra_apices, extra_edges, 0, 0)``-almost-
    embeddable.  The returned witness records exactly that accounting.
    """
    rng = ensure_rng(seed)
    base = grid_graph(rows, cols)
    nodes = sorted(base.nodes())
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 100 * (extra_edges + 1):
        attempts += 1
        u, v = rng.sample(nodes, 2)
        if not base.has_edge(u, v):
            base.add_edge(u, v)
            added += 1
    surface_nodes = frozenset(base.nodes())
    graph, apex_nodes = add_apices(base, extra_apices, attach_probability=0.3, seed=rng)
    witness = AlmostEmbeddableGraph(
        graph=graph,
        genus=added,
        apices=apex_nodes,
        vortices=(),
        surface_nodes=surface_nodes,
    )
    witness.validate()
    return graph, witness
