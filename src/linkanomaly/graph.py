"""Immutable graph with three directional neighbor views over sorted edge keys.

Vertex names are interned to dense integer ids (sorted name order for
:func:`build_graph`, so the same edge multiset yields an identical graph in
any input order).  The :class:`Graph` constructor is the one place that
cleans id rows: it drops self-loops and duplicates, counting both, and puts
undirected rows in (min, max) form.  Each neighbor view (all, in, out)
is one ascending int64 array of edge keys `row * n + col`, from which its
CSR row offsets and sorted int32 neighbor ids are derived.  The views are
built on first use, so a graph read only for its edges and degrees never
builds them.  A neighbor query is a constant-time slice, and a batch of
membership queries is one `np.searchsorted` over the keys
(:meth:`Graph.adjacent`).
"""

from __future__ import annotations

import copy
import itertools
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, ParseError, UnknownVertexError

NORMAL = 0
ANOMALOUS = 1

_MODES = ("all", "in", "out")


class _View(NamedTuple):
    """One neighbor view: ascending keys `row * n + col` and their CSR form."""

    keys: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def of(cls, keys: np.ndarray, n: int) -> "_View":
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        indices = (keys % n).astype(np.int32)
        for a in (keys, indptr, indices):
            a.setflags(write=False)
        return cls(keys, indptr, indices)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an int64 array, ascending; sorts `keys` in place."""
    keys.sort()
    if len(keys):
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def _member(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Whether each query value occurs in the ascending array `keys`."""
    pos = np.searchsorted(keys, query)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == query[found]
    return found


class Graph:
    """Read-only graph over dense vertex ids `0..vertex_count-1`.

    `edges` is any (E, 2) array of ids.  The constructor drops self-loops
    and repeated rows (a reversed row repeats an undirected edge), keeps
    the counts in `dropped_self_loops` and `dropped_duplicates`, and stores
    the rest sorted, undirected rows as (min, max).  Graphs from names come
    from :func:`build_graph` or :func:`linkanomaly.io.load_edge_list`.
    """

    def __init__(self, names: Sequence[str], edges: np.ndarray, directed: bool,
                 labels: np.ndarray | None = None):
        n = len(names)
        self._names = list(names)
        self._name_to_id = {name: i for i, name in enumerate(self._names)}
        if len(self._name_to_id) != n:
            raise ParameterError("vertex names are not unique")
        self.directed = bool(directed)

        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges) and (edges.min() < 0 or edges.max() >= n):
            raise ParameterError(f"edge endpoints must be vertex ids in [0, {n})")
        u, v = edges[:, 0], edges[:, 1]
        keys = u * n + v
        if not directed:
            # a * n + b < b * n + a when a < b: the smaller key is the (min, max) row's
            np.minimum(keys, v * n + u, out=keys)
        keys = keys[u != v]
        self.dropped_self_loops = len(edges) - len(keys)
        # canonical order: sorted by (u, v), each row once
        out = _sorted_unique(keys)
        self.dropped_duplicates = len(keys) - len(out)
        del keys
        self._edges = np.empty((len(out), 2), dtype=np.int64)
        np.divmod(out, n, out=(self._edges[:, 0], self._edges[:, 1]))
        self._edges.setflags(write=False)
        # filled by _view; a copy from with_labels shares the dict, so one build serves both
        self._views: dict[str, _View] = {}

        # the degrees that the edge rows give without a view
        u, v = self._edges[:, 0], self._edges[:, 1]
        degrees = {"out": np.bincount(u, minlength=n), "in": np.bincount(v, minlength=n)}
        if not directed:
            degrees = dict.fromkeys(_MODES, degrees["out"] + degrees["in"])
        for d in degrees.values():
            d.setflags(write=False)
        self._degrees = degrees

        if labels is not None:
            labels = np.asarray(labels, dtype=np.int8)
            if labels.shape != (n,):
                raise ParameterError("labels array must have one entry per vertex")
            labels.setflags(write=False)
        self._labels = labels

    # -- basic properties ---------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._names)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) id array; canonical (min, max) rows when undirected."""
        return self._edges

    @property
    def names(self) -> list[str]:
        return list(self._names)

    @property
    def labels(self) -> np.ndarray | None:
        """Per-vertex labels (0 normal, 1 anomalous), or None if unlabeled."""
        return self._labels

    def name_of(self, v: int) -> str:
        self._check_vertex(v)
        return self._names[v]

    def id_of(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex name {name!r}") from None

    def label_of(self, v: int) -> int:
        self._check_vertex(v)
        return NORMAL if self._labels is None else int(self._labels[v])

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._names):
            raise UnknownVertexError(f"vertex id {v} not in graph of {len(self._names)} vertices")

    # -- neighbor views -----------------------------------------------------

    def _view(self, mode: str) -> _View:
        if mode not in _MODES:
            raise ParameterError(f"unknown neighbor mode {mode!r}; expected one of {_MODES}")
        if not self._views:
            self._views.update(self._build_views())
        return self._views[mode]

    def _build_views(self) -> dict[str, _View]:
        n = len(self._names)
        u, v = self._edges[:, 0], self._edges[:, 1]
        out = u * n + v  # ascending, as the rows are
        if not self.directed:
            return dict.fromkeys(_MODES, _View.of(np.sort(np.concatenate([out, v * n + u])), n))
        into = np.sort(v * n + u)
        return {"out": _View.of(out, n), "in": _View.of(into, n),
                "all": _View.of(_sorted_unique(np.concatenate([out, into])), n)}

    def _vertex_ids(self, vertices) -> np.ndarray:
        """`vertices` as an int64 array, raising for the first id out of range."""
        vs = np.asarray(vertices, dtype=np.int64)
        bad = (vs < 0) | (vs >= len(self._names))
        if bad.any():
            self._check_vertex(int(vs[bad][0]))
        return vs

    def neighbors(self, v: int, mode: str = "all") -> np.ndarray:
        """Sorted, read-only id array of the requested neighbor set."""
        self._check_vertex(v)
        _, indptr, indices = self._view(mode)
        return indices[indptr[v]:indptr[v + 1]]

    def gather_neighbors(self, vertices, mode: str = "all") -> tuple[np.ndarray, np.ndarray]:
        """(counts, neighbors): the neighbor sets of `vertices`, concatenated.

        counts[i] is the size of vertices[i]'s set, whose sorted ids follow
        those of vertices[i - 1] in the second array.
        """
        vs = self._vertex_ids(vertices)
        _, indptr, indices = self._view(mode)
        start = indptr[vs]
        counts = indptr[vs + 1] - start
        ends = np.cumsum(counts)
        pos = np.arange(ends[-1] if len(ends) else 0) + np.repeat(start - ends + counts, counts)
        return counts, indices[pos]

    def adjacent(self, rows, cols, mode: str = "all") -> np.ndarray:
        """Boolean array: whether cols[i] is in the `mode` neighbor set of rows[i].

        Both id arrays are checked: an id past the last vertex would alias
        a key of the next row.
        """
        rows, cols = self._vertex_ids(rows), self._vertex_ids(cols)
        return _member(self._view(mode).keys, rows * len(self._names) + cols)

    def degree(self, v: int, mode: str = "all") -> int:
        return len(self.neighbors(v, mode))

    def degrees(self, mode: str = "all") -> np.ndarray:
        """Per-vertex neighbor-set sizes; read-only when the edge rows give them
        without a view (every mode when undirected, in and out when directed)."""
        if mode in self._degrees:
            return self._degrees[mode]
        return np.diff(self._view(mode).indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """True iff (u, v) is an edge ((u, v) in either order when undirected)."""
        self._check_vertex(u)
        self._check_vertex(v)
        row = self.neighbors(u, "out")
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    # -- derived graphs -----------------------------------------------------

    def with_labels(self, labels_by_name: Mapping[str, int]) -> "Graph":
        """Copy of this graph, sharing its edges and views, carrying labels;
        names absent from the map are normal."""
        arr = np.zeros(self.vertex_count, dtype=np.int8)
        for name, label in labels_by_name.items():
            if name in self._name_to_id:
                arr[self._name_to_id[name]] = label
        arr.setflags(write=False)
        out = copy.copy(self)
        out._labels = arr
        return out

    # -- equality (semantic, name-based) ------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.directed != other.directed or sorted(self._names) != sorted(other._names):
            return False
        mine = {(self._names[a], self._names[b]) for a, b in self._edges}
        theirs = {(other._names[a], other._names[b]) for a, b in other._edges}
        if self.directed:
            if mine != theirs:
                return False
        else:
            canon = lambda s: {tuple(sorted(e)) for e in s}
            if canon(mine) != canon(theirs):
                return False
        return all(self.label_of(self.id_of(n)) == other.label_of(other.id_of(n))
                   for n in self._names)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, |V|={self.vertex_count}, |E|={self.edge_count})"


def build_graph(edge_list: Iterable[tuple[str, str]], directed: bool) -> Graph:
    """Intern vertex names and build a :class:`Graph` from name pairs.

    Self-loops and duplicate edges are dropped; the drop counts are kept on
    the returned graph.  Ids are assigned in sorted name order, so the same
    edge multiset produces an identical graph regardless of input order.
    """
    endpoints = []
    for i, pair in enumerate(edge_list):
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ParseError(f"entry {i + 1}: expected a pair of vertex names, got {pair!r}") from None
        if not isinstance(a, str) or not isinstance(b, str) or not a or not b:
            raise ParseError(f"entry {i + 1}: expected two non-empty names, got {pair!r}")
        endpoints += (a, b)
    if not endpoints:
        raise ParameterError("edge list is empty")
    first_seen: dict[str, int] = {}
    return graph_from_interned(first_seen, [intern_names(endpoints, first_seen, 0)], directed)


def intern_names(names: Sequence[str], first_seen: dict[str, int], start: int) -> np.ndarray:
    """Where each name first occurs in a run of names that reaches `names` at
    position `start`; `first_seen` holds that position per name and gains the new ones."""
    return np.fromiter(map(first_seen.setdefault, names, itertools.count(start)),
                       dtype=np.int64, count=len(names))


def graph_from_interned(first_seen: dict[str, int], positions: list[np.ndarray],
                        directed: bool) -> Graph:
    """:func:`build_graph` of a run of valid names that :func:`intern_names` took in
    slices: names 2i and 2i + 1 are an edge, and ids go in sorted name order."""
    names = sorted(first_seen)
    rank = np.empty(sum(map(len, positions)), dtype=np.int64)
    rank[np.fromiter(map(first_seen.__getitem__, names), dtype=np.int64,
                     count=len(names))] = np.arange(len(names))
    ids = rank[np.concatenate(positions)]
    del rank  # not held while the graph is built
    return Graph(names, ids.reshape(-1, 2), directed)
