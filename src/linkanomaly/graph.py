"""Immutable graph with three directional neighbor views over sorted edge keys.

Vertex names become dense integer ids in one place, :func:`graph_from_names`,
which :func:`build_graph` and the edge-list loader both call: ids go in
sorted name order, so the same edge multiset yields an identical graph in
any input order.  The :class:`Graph` constructor is the one place that cleans
id rows, also for a host grown by new vertices, which is built whole: it drops
self-loops and duplicates, counting both, and puts undirected rows in (min,
max) form.
Each neighbor view (all, in, out) is one ascending int64 array of edge
keys `row * n + col`, from which its CSR row offsets and sorted int32
neighbor ids are derived, and a bit table of at least 8 bits per key.  The
views are built on first use, so a graph read only for its edges and
degrees never builds them.  A neighbor query is a constant-time slice.  A
batch of membership queries (:meth:`Graph.adjacent`) first tests each
query's bit, at its Fibonacci hash, and turns away those whose bit no key
set: most queries of the pair-feature kernel are not edges.  Only the rest
go on to one `np.searchsorted` over the keys, so the answers stay exact.
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


# Fibonacci hashing (Knuth, TAOCP vol. 3, 6.4): the top b bits of key * 2^64/phi
_FIB = np.uint64(0x9E3779B97F4A7C15)

# keys hashed at a time while a bit table is built, so that the hashes add
# no temporary the size of the view
_HASH_BLOCK = 1 << 16


def _slot(keys: np.ndarray, shift: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """(byte, bit in the byte) of each non-negative int64 key's hash in a
    little-endian packed table of 2^(64 - shift) bits."""
    h = keys.view(np.uint64) * _FIB
    h >>= shift
    bit = (h & np.uint64(7)).astype(np.uint8)
    h >>= np.uint64(3)
    return h, bit


class _View(NamedTuple):
    """One neighbor view: ascending keys `row * n + col`, their CSR form and a
    bit table (packed little-endian) with the bit at each key's hash set."""

    keys: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    bits: np.ndarray
    shift: np.uint64

    @classmethod
    def of(cls, keys: np.ndarray, n: int) -> "_View":
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        indices = (keys % n).astype(np.int32)
        # 2^size bits: the smallest power of two of at least 8 bits per key, and one byte
        size = max(8 * len(keys) - 1, 7).bit_length()
        shift = np.uint64(64 - size)
        bits = np.zeros(1 << (size - 3), dtype=np.uint8)
        for start in range(0, len(keys), _HASH_BLOCK):
            byte, bit = _slot(keys[start:start + _HASH_BLOCK], shift)
            np.bitwise_or.at(bits, byte, np.left_shift(np.uint8(1), bit))
        for a in (keys, indptr, indices, bits):
            a.setflags(write=False)
        return cls(keys, indptr, indices, bits, shift)


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distinct values of the ascending int64 arrays `a` and `b`, ascending;
    a stable sort (timsort) merges the two runs in linear time, and with `a`
    empty there is nothing to merge."""
    if len(a):
        b = np.concatenate([a, b])
        b.sort(kind="stable")
    return b[np.concatenate(([True], b[1:] != b[:-1]))] if len(b) else b


def _key_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """The (row, col) id rows of edge keys `row * n + col`."""
    rows = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(rows[:, 0], rows[:, 1]))
    return rows


def _member(view: _View, query: np.ndarray) -> np.ndarray:
    """Whether each non-negative int64 query key occurs in `view.keys`.

    A query whose bit in `view.bits` is clear is no key.  Only the others
    (keys, and the misses whose hash some key shares) go on to the binary
    search of the ascending keys, so a bit alone never reports an edge.
    They are searched in ascending order, where successive searches share
    the paths of their probes through the keys.
    """
    byte, bit = _slot(query, view.shift)
    found = ((view.bits[byte] >> bit) & np.uint8(1)).astype(bool)
    maybe = np.flatnonzero(found)
    q = query[maybe]
    order = q.argsort()
    maybe, q = maybe[order], q[order]
    # a set bit means keys is not empty, and a q past the last key fails the test
    pos = np.minimum(np.searchsorted(view.keys, q), len(view.keys) - 1)
    found[maybe] = view.keys[pos] == q
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
        self.directed = bool(directed)
        self._names = list(names)
        n = len(self._names)
        self._name_to_id = dict(zip(self._names, itertools.count()))
        if len(self._name_to_id) != n:
            raise ParameterError("vertex names are not unique")

        # a copy: the read-only flag set here is not the caller's
        labels = np.zeros(n, dtype=np.int8) if labels is None else np.array(labels, dtype=np.int8)
        if labels.shape != (n,):
            raise ParameterError("labels array must have one entry per vertex")
        labels.setflags(write=False)
        self._labels = labels

        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges) and (edges.min() < 0 or edges.max() >= n):
            raise ParameterError(f"edge endpoints must be vertex ids in [0, {n})")
        u, v = edges[:, 0], edges[:, 1]
        keys = u * n + v
        if not self.directed:
            # a * n + b < b * n + a when a < b: the smaller key is the (min, max) row's
            np.minimum(keys, v * n + u, out=keys)
        keys = keys[u != v]
        self.dropped_self_loops = len(edges) - len(keys)
        # canonical order: sorted by (u, v), each row once
        keys.sort()
        kept = _union(keys[:0], keys)  # an empty first run: the sorted keys, deduped
        self.dropped_duplicates = len(keys) - len(kept)
        del keys
        self._edges = _key_rows(kept, n)
        # filled by _view; a copy from with_labels shares the dict, so one build serves both
        self._views: dict[str, _View] = {}

        # the degrees that the edge rows give without a view, counted while
        # the rows are writable (bincount copies a read-only input)
        ends = ({"out": self._edges[:, 0], "in": self._edges[:, 1]} if self.directed
                else {"all": self._edges.ravel()})
        degrees = {mode: np.bincount(ids, minlength=n) for mode, ids in ends.items()}
        for d in degrees.values():
            d.setflags(write=False)
        if not self.directed:
            degrees = dict.fromkeys(DIRECTION_MODES, degrees["all"])
        self._degrees = degrees
        self._edges.setflags(write=False)

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

    def has_name(self, name: str) -> bool:
        return name in self._name_to_id

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
        out, into = u * n + v, np.sort(v * n + u)  # out is ascending, as the rows are
        every = _View.of(_union(out, into), n)
        if not self.directed:
            return dict.fromkeys(DIRECTION_MODES, every)
        return {"out": _View.of(out, n), "in": _View.of(into, n), "all": every}

    def _vertex_ids(self, vertices) -> np.ndarray:
        """`vertices` as an int64 array, raising for the first id out of range."""
        vs = np.asarray(vertices, dtype=np.int64)
        if vs.size and (vs.min() < 0 or vs.max() >= len(self._names)):
            self._check_vertex(int(vs[(vs < 0) | (vs >= len(self._names))][0]))
        return vs

    def neighbors(self, v: int, mode: str = "all") -> np.ndarray:
        """Sorted, read-only id array of the requested neighbor set."""
        self._check_vertex(v)
        view = self._view(mode)
        return view.indices[view.indptr[v]:view.indptr[v + 1]]

    def gather_neighbors(self, vertices, mode: str = "all") -> tuple[np.ndarray, np.ndarray]:
        """(counts, neighbors): the neighbor sets of `vertices`, concatenated.

        counts[i] is the size of vertices[i]'s set, whose sorted ids follow
        those of vertices[i - 1] in the second array.
        """
        vs = self._vertex_ids(vertices)
        view = self._view(mode)
        start = view.indptr[vs]
        counts = view.indptr[vs + 1] - start
        ends = np.cumsum(counts)
        pos = np.arange(ends[-1] if len(ends) else 0) + np.repeat(start - ends + counts, counts)
        return counts, view.indices[pos]

    def adjacent(self, rows, cols, mode: str = "all") -> np.ndarray:
        """Boolean array: whether cols[i] is in the `mode` neighbor set of rows[i].

        Both id arrays are checked: an id past the last vertex would alias
        a key of the next row.
        """
        rows, cols = self._vertex_ids(rows), self._vertex_ids(cols)
        return _member(self._view(mode), rows * len(self._names) + cols)

    def degrees(self, mode: str = "all") -> np.ndarray:
        """Per-vertex neighbor-set sizes; read-only when the edge rows give them
        without a view (every mode when undirected, in and out when directed)."""
        if mode in self._degrees:
            return self._degrees[mode]
        return np.diff(self._view(mode).indptr)

    # -- derived graphs -----------------------------------------------------

    def with_labels(self, labels_by_name: Mapping[str, int]) -> "Graph":
        """Copy of this graph, sharing its edges and views, carrying labels;
        names absent from the map are normal, and a name in it that is not a
        vertex is an :class:`UnknownVertexError`."""
        unknown = [name for name in labels_by_name if name not in self._name_to_id]
        if unknown:
            raise UnknownVertexError(f"{len(unknown)} labelled name(s) are not vertices of "
                                     f"the graph, the first {unknown[0]!r}")
        arr = np.zeros(self.vertex_count, dtype=np.int8)
        for name, label in labels_by_name.items():
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
