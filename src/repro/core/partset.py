"""The :class:`PartSet` adapter: an int-indexed view of a part family.

Parts (Definition 9) and cells (Definition 14) are handed around the package
as collections of label ``frozenset``\\ s, which is the right interface for
generators and witnesses but a poor substrate for hot loops: every
measurement or validation pass used to re-map each member label through the
:class:`~repro.core.view.GraphView` bijection, one dict lookup per vertex
per pass.

A :class:`PartSet` performs that mapping **once**: the member indices of all
parts live in one flat ``members`` array sliced by ``offsets`` (the same CSR
idiom as :class:`~repro.core.graph.CoreGraph`), with derived structures --
an owner array (vertex index -> part index), per-part CSR connectivity
checks, and per-part member views sorted by Euler-tour ``tin`` -- computed
on demand and cached.  :func:`part_set_of` memoises part sets per
``(GraphView, parts)`` pair (weakly in the view, by value in the parts), so
a budget sweep, a quality measurement and a validation pass over the same
part family all share one conversion.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import InvalidPartitionError
from .view import GraphView, view_of


class PartSet:
    """Flat int-indexed view of a part family over one :class:`GraphView`.

    Attributes:
        view: the graph view the member indices refer to.
        parts: the original label frozensets (kept for round-tripping).
        offsets: CSR row pointers into ``members`` (length ``num_parts + 1``).
        members: concatenated member indices, each part's slice sorted
            ascending (index order == canonical repr order).
    """

    __slots__ = (
        "view",
        "_parts",
        "offsets",
        "members",
        "_owner",
        "_tin_key",
        "_tin_views",
        "_member_stamp",
        "_seen_stamp",
        "_epoch",
        "__weakref__",
    )

    def __init__(self, view: GraphView, parts: Sequence[frozenset]) -> None:
        self.view = view
        self._parts: list[frozenset] | None = [
            part if isinstance(part, frozenset) else frozenset(part) for part in parts
        ]
        index_of = view.index_of
        offsets = [0]
        members: list[int] = []
        for part in self._parts:
            try:
                members.extend(sorted(index_of(node) for node in part))
            except KeyError as error:
                raise InvalidPartitionError(
                    f"part {len(offsets) - 1} contains non-graph vertex {error.args[0]!r}"
                ) from None
            offsets.append(len(members))
        self.offsets = offsets
        self.members = members
        self._owner: list[int] | None = None
        self._tin_key: object | None = None
        self._tin_views: list[list[int]] | None = None
        # Epoch-stamped scratch arrays for the per-part connectivity BFS,
        # allocated on first use: part sets are cached per view for its whole
        # lifetime, and many families (e.g. the per-phase Boruvka fragments)
        # never ask for connectivity.
        self._member_stamp: list[int] | None = None
        self._seen_stamp: list[int] | None = None
        self._epoch = 0

    @classmethod
    def from_member_lists(
        cls, view: GraphView, member_lists: Sequence[Sequence[int]]
    ) -> "PartSet":
        """Build a part set directly from per-part vertex *index* lists.

        This is the construction boundary of the array-native algorithm
        layer: the Boruvka loop keeps its fragments as flat index lists
        and never owns label frozensets -- the label :attr:`parts` of the
        returned set are derived lazily (:meth:`label_parts`) and only if a
        label-space consumer (a structural shortcut constructor, a
        validator) actually asks.  Each member list is sorted in place of
        the label path's ``sorted(index_of(node) ...)``; indices must be
        valid for ``view`` (the caller's contract -- no validation pass).
        """
        part_set = cls.__new__(cls)
        part_set.view = view
        part_set._parts = None
        offsets = [0]
        members: list[int] = []
        for member_list in member_lists:
            members.extend(sorted(member_list))
            offsets.append(len(members))
        part_set.offsets = offsets
        part_set.members = members
        part_set._owner = None
        part_set._tin_key = None
        part_set._tin_views = None
        part_set._member_stamp = None
        part_set._seen_stamp = None
        part_set._epoch = 0
        return part_set

    # -- basic accessors ---------------------------------------------------

    @property
    def parts(self) -> list[frozenset]:
        """The label frozensets of the family (derived lazily from indices)."""
        return self.label_parts()

    def label_parts(self) -> list[frozenset]:
        """Return (and cache) the parts as label frozensets.

        For part sets built from label parts this is the original input; for
        :meth:`from_member_lists` sets the labels are materialised on first
        call -- the array-native algorithm layer never triggers it on its
        hot path.
        """
        if self._parts is None:
            node_of = self.view.nodes
            self._parts = [
                frozenset(node_of[member] for member in members)
                for _, members in self.iter_members()
            ]
        return self._parts

    @property
    def num_parts(self) -> int:
        return len(self.offsets) - 1

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def size_of(self, part_index: int) -> int:
        return self.offsets[part_index + 1] - self.offsets[part_index]

    def members_of(self, part_index: int) -> list[int]:
        """Return the member indices of one part (ascending)."""
        return self.members[self.offsets[part_index] : self.offsets[part_index + 1]]

    def iter_members(self) -> Iterable[tuple[int, list[int]]]:
        """Yield ``(part_index, member_indices)`` for every part."""
        for part_index in range(len(self.offsets) - 1):
            yield part_index, self.members_of(part_index)

    # -- derived structures ------------------------------------------------

    def owner_array(self) -> list[int]:
        """Return the vertex-index -> part-index map (``-1`` for uncovered).

        For overlapping inputs the highest part index wins; disjointness is
        the caller's contract (``validate_parts`` / ``CellPartition.validate``
        check it in label space, where the error message can name vertices).
        """
        if self._owner is None:
            owner = [-1] * len(self.view)
            for part_index, members in self.iter_members():
                for member in members:
                    owner[member] = part_index
            self._owner = owner
        return self._owner

    def members_by_tin(self, euler) -> list[list[int]]:
        """Return per-part member index lists sorted by Euler-tour ``tin``.

        ``euler`` is an Euler-tour index of a spanning tree over the same
        view (see :meth:`repro.structure.spanning.RootedTree.euler_index`);
        only its ``tin`` array is read, so any object with a compatible
        ``tin`` attribute works.  Cached per euler-index identity: a budget
        sweep asking repeatedly gets the sorted views for free.
        """
        if self._tin_views is None or self._tin_key is not euler:
            tin = euler.tin
            self._tin_views = [
                sorted(members, key=tin.__getitem__) for _, members in self.iter_members()
            ]
            self._tin_key = euler
        return self._tin_views

    def connected(self, part_index: int) -> bool:
        """Return True iff the part induces a connected subgraph (CSR BFS).

        Runs on the flat adjacency of the underlying :class:`CoreGraph`,
        restricted to the part via an epoch-stamped membership array -- no
        per-part set or subgraph is materialised.
        """
        members = self.members_of(part_index)
        if not members:
            return True
        if self._member_stamp is None:
            self._member_stamp = [0] * len(self.view)
            self._seen_stamp = [0] * len(self.view)
        self._epoch += 1
        epoch = self._epoch
        member_stamp, seen_stamp = self._member_stamp, self._seen_stamp
        for member in members:
            member_stamp[member] = epoch
        core = self.view.core
        indptr, indices = core._indptr_list, core._indices_list
        start = members[0]
        seen_stamp[start] = epoch
        stack = [start]
        reached = 1
        while stack:
            u = stack.pop()
            for offset in range(indptr[u], indptr[u + 1]):
                v = indices[offset]
                if member_stamp[v] == epoch and seen_stamp[v] != epoch:
                    seen_stamp[v] = epoch
                    stack.append(v)
                    reached += 1
        return reached == len(members)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"PartSet(parts={self.num_parts}, members={len(self.members)})"


def part_connected(view: GraphView, part: frozenset) -> bool:
    """Connectivity of ``graph[part]`` via a CSR BFS over an ad-hoc index set.

    Standalone fallback for the validators when the family-wide
    :class:`PartSet` cannot be built (a *later* part of the family contains
    non-graph vertices): the checks must still run part by part in order so
    that the first violation reported matches the ``networkx`` reference
    path.
    """
    index_of = view.index_of
    members = {index_of(node) for node in part}
    neighbors = view.core.neighbors
    start = next(iter(members))
    reached = {start}
    stack = [start]
    while stack:
        for v in neighbors(stack.pop()):
            if v in members and v not in reached:
                reached.add(v)
                stack.append(v)
    return len(reached) == len(members)


def part_set_of(graph, parts: Sequence[frozenset]) -> PartSet:
    """Return the memoised :class:`PartSet` of ``parts`` over ``graph``.

    ``graph`` may be an ``nx.Graph`` or a :class:`GraphView`; the view is
    resolved through :func:`view_of` so everything shares one conversion.

    The memo lives *on the view* (``GraphView._part_sets``), keyed by the
    part family's value (tuple of frozensets; frozensets cache their hash,
    so repeat lookups are cheap and families that are equal but not
    identical -- e.g. parts rebuilt per Boruvka phase from the same
    fragments -- still share one conversion).  Dropping the view therefore
    drops its part sets; a global cache keyed by the view would pin the
    view (and its CSR arrays) for the process lifetime, since every
    :class:`PartSet` references its view.
    """
    view = view_of(graph)
    per_view = view._part_sets
    key = tuple(part if isinstance(part, frozenset) else frozenset(part) for part in parts)
    part_set = per_view.get(key)
    if part_set is None:
        part_set = per_view[key] = PartSet(view, key)
    return part_set
