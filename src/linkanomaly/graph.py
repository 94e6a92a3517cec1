"""Immutable graph with three directional neighbor views over sorted edge keys.

Vertex names become dense integer ids in one place, :func:`graph_from_names`,
which :func:`build_graph` and the edge-list loader both call: ids go in
sorted name order, so the same edge multiset yields an identical graph in
any input order.  The :class:`Graph` constructor is the one place that
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

DIRECTION_MODES = ("out", "in", "all")


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
            degrees = dict.fromkeys(DIRECTION_MODES, degrees["out"] + degrees["in"])
        for d in degrees.values():
            d.setflags(write=False)
        self._degrees = degrees

        labels = np.zeros(n, dtype=np.int8) if labels is None else np.asarray(labels, dtype=np.int8)
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
    def labels(self) -> np.ndarray:
        """Read-only per-vertex labels (0 normal, 1 anomalous); a graph built
        without labels is all normal."""
        return self._labels

    def name_of(self, v: int) -> str:
        self._check_vertex(v)
        return self._names[v]

    def id_of(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex name {name!r}") from None

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._names):
            raise UnknownVertexError(f"vertex id {v} not in graph of {len(self._names)} vertices")

    # -- neighbor views -----------------------------------------------------

    def _view(self, mode: str) -> _View:
        if mode not in DIRECTION_MODES:
            raise ParameterError(f"direction mode must be one of {DIRECTION_MODES}, got {mode!r}")
        if not self._views:
            self._views.update(self._build_views())
        return self._views[mode]

    def _build_views(self) -> dict[str, _View]:
        n = len(self._names)
        u, v = self._edges[:, 0], self._edges[:, 1]
        out = u * n + v  # ascending, as the rows are
        if not self.directed:
            return dict.fromkeys(DIRECTION_MODES, _View.of(np.sort(np.concatenate([out, v * n + u])), n))
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

    def degrees(self, mode: str = "all") -> np.ndarray:
        """Per-vertex neighbor-set sizes; read-only when the edge rows give them
        without a view (every mode when undirected, in and out when directed)."""
        if mode in self._degrees:
            return self._degrees[mode]
        return np.diff(self._view(mode).indptr)

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
        return self._by_name() == other._by_name()

    def _by_name(self) -> tuple:
        """Direction, label per name and edges as name pairs: what equality compares."""
        names = self._names
        edges = {(names[a], names[b]) for a, b in self._edges.tolist()}
        if not self.directed:
            edges = {tuple(sorted(e)) for e in edges}
        return self.directed, dict(zip(names, self._labels.tolist())), edges

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
    return graph_from_names([endpoints], directed)


def graph_from_names(slices: Iterable[Sequence[str]], directed: bool) -> Graph:
    """The graph of a run of valid vertex names given in slices, names 2i and
    2i + 1 of the run being an edge; ids go in sorted name order.

    Each slice is interned as it comes and is not held while the next one
    is made.
    """
    first_seen: dict[str, int] = {}  # each name's first position in the run
    positions, count = [], 0
    for names in slices:
        positions.append(np.fromiter(map(first_seen.setdefault, names, itertools.count(count)),
                                     dtype=np.int64, count=len(names)))
        count += len(names)
        del names  # freed before the next slice is made
    if not count:
        raise ParameterError("edge list is empty")
    names = sorted(first_seen)
    rank = np.empty(count, dtype=np.int64)
    rank[np.fromiter(map(first_seen.__getitem__, names), dtype=np.int64,
                     count=len(names))] = np.arange(len(names))
    ids = rank[np.concatenate(positions)]
    del rank  # not held while the graph is built
    return Graph(names, ids.reshape(-1, 2), directed)
