"""``repro.core``: the CSR-backed graph kernel under the whole reproduction.

Three classes and two caches:

* :class:`CoreGraph` -- immutable int-indexed CSR adjacency (flat
  ``indptr`` / ``indices`` / ``weights`` arrays) with BFS, eccentricity,
  diameter and connectivity primitives;
* :class:`GraphView` -- the label <-> index adapter that converts an
  ``nx.Graph`` once at the construction boundary and can round-trip back;
* :class:`PartSet` -- the int-indexed view of a part/cell family (flat
  member/offset arrays, owner array, CSR connectivity, per-part sorted
  Euler-tour ``tin`` views);
* :func:`view_of` / :func:`part_set_of` -- the memoised conversions every
  layer shares (one per graph, one per (view, part family)).

The traversal layer (``repro.structure``), the quality measurements
(``repro.shortcuts.shortcut``), the shortcut construction engine
(``repro.shortcuts.engine``) and the CONGEST simulator
(``repro.congest.simulator``) all accept a :class:`GraphView` and run on
the CSR arrays; ``networkx`` remains the generator/witness frontend.
"""

from .graph import CoreGraph
from .partset import PartSet, part_connected, part_set_of
from .view import GraphView, nx_materializations, view_of

__all__ = [
    "CoreGraph",
    "GraphView",
    "PartSet",
    "nx_materializations",
    "part_connected",
    "part_set_of",
    "view_of",
]
