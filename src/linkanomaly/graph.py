"""Immutable graph with four directional neighbor views over sorted edge keys.

Vertex names are interned to dense integer ids (sorted name order for the
public constructor, so the same edge multiset yields an identical graph in
any input order).  Each neighbor view (all, in, out, bi) is one ascending
int64 array of edge keys `row * n + col`, from which its CSR row offsets
and sorted int32 neighbor ids are derived.  A neighbor query is a
constant-time slice, and a batch of membership queries is one
`np.searchsorted` over the keys (:meth:`Graph.adjacent`).
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, ParseError, UnknownVertexError

NORMAL = 0
ANOMALOUS = 1

_MODES = ("all", "in", "out", "bi")


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
    """The distinct values of an int64 array, ascending."""
    keys = np.sort(keys)
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

    Not constructed directly; use :func:`build_graph`,
    :func:`linkanomaly.io.load_edge_list`, or the generators in
    :mod:`linkanomaly.sampling`.
    """

    def __init__(self, names: Sequence[str], edges: np.ndarray, directed: bool,
                 labels: np.ndarray | None = None,
                 dropped_self_loops: int = 0, dropped_duplicates: int = 0):
        n = len(names)
        self._names = list(names)
        self._name_to_id = {name: i for i, name in enumerate(self._names)}
        if len(self._name_to_id) != n:
            raise ParameterError("vertex names are not unique")
        self.directed = bool(directed)
        self.dropped_self_loops = dropped_self_loops
        self.dropped_duplicates = dropped_duplicates

        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges) and (edges.min() < 0 or edges.max() >= n):
            raise ParameterError(f"edge endpoints must be vertex ids in [0, {n})")
        # canonical order: sorted by (u, v); assumed already deduplicated
        u, v = edges[:, 0], edges[:, 1]
        out = np.sort(u * n + v)
        self._edges = np.column_stack([out // n, out % n])
        self._edges.setflags(write=False)

        if directed:
            into = np.sort(v * n + u)
            self._views = {"out": _View.of(out, n), "in": _View.of(into, n),
                           "all": _View.of(_sorted_unique(np.concatenate([out, into])), n),
                           # reciprocal pairs: (a, b) with (b, a) also present
                           "bi": _View.of(out[_member(into, out)], n)}
        else:
            both = _View.of(np.sort(np.concatenate([out, v * n + u])), n)
            self._views = dict.fromkeys(_MODES, both)

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
        try:
            return self._views[mode]
        except KeyError:
            raise ParameterError(
                f"unknown neighbor mode {mode!r}; expected one of {_MODES}") from None

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
        return np.diff(self._view(mode).indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """True iff (u, v) is an edge ((u, v) in either order when undirected)."""
        self._check_vertex(u)
        self._check_vertex(v)
        row = self.neighbors(u, "out" if self.directed else "all")
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    # -- derived graphs -----------------------------------------------------

    def with_labels(self, labels_by_name: Mapping[str, int]) -> "Graph":
        """Copy of this graph carrying labels; names absent from the map are normal."""
        arr = np.zeros(self.vertex_count, dtype=np.int8)
        for name, label in labels_by_name.items():
            if name in self._name_to_id:
                arr[self._name_to_id[name]] = label
        return Graph(self._names, self._edges, self.directed, labels=arr,
                     dropped_self_loops=self.dropped_self_loops,
                     dropped_duplicates=self.dropped_duplicates)

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


def _dedup_id_edges(ids: np.ndarray, n: int, directed: bool):
    """Drop self-loops and duplicates; canonicalize undirected rows to (min, max)."""
    loops = ids[:, 0] == ids[:, 1]
    n_loops = int(np.count_nonzero(loops))
    ids = ids[~loops]
    if not directed:
        ids = np.sort(ids, axis=1)
    key = ids[:, 0] * n + ids[:, 1]
    uniq = _sorted_unique(key)
    return np.column_stack([uniq // n, uniq % n]), n_loops, len(key) - len(uniq)


def build_graph(edge_list: Iterable[tuple[str, str]], directed: bool,
                labels: Mapping[str, int] | None = None) -> Graph:
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
    return graph_from_endpoints(endpoints, directed, labels)


def graph_from_endpoints(endpoints: Sequence[str], directed: bool,
                         labels: Mapping[str, int] | None = None) -> Graph:
    """:func:`build_graph` of the pairs (endpoints[0], endpoints[1]), (endpoints[2], ...).

    The names are taken as valid: non-empty strings, an even number of them.
    """
    names = sorted(set(endpoints))
    index = dict(zip(names, range(len(names))))
    ids = np.fromiter(map(index.__getitem__, endpoints), dtype=np.int64, count=len(endpoints))
    ids, n_loops, n_dups = _dedup_id_edges(ids.reshape(-1, 2), len(names), directed)

    label_arr = None
    if labels is not None:
        label_arr = np.zeros(len(names), dtype=np.int8)
        for name, label in labels.items():
            if name in index:
                label_arr[index[name]] = label
    return Graph(names, ids, directed, labels=label_arr,
                 dropped_self_loops=n_loops, dropped_duplicates=n_dups)
