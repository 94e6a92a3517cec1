"""Immutable adjacency-structure graph with four directional neighbor views.

Vertex names are interned to dense integer ids (sorted name order for the
public constructor, so the same edge multiset yields an identical graph in
any input order).  Neighbor sets are stored CSR-style as sorted int32
arrays, one structure per directional mode, so a neighbor query is a
constant-time slice and set operations downstream can merge-scan.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ParameterError, ParseError, UnknownVertexError
from .rng import generator

NORMAL = 0
ANOMALOUS = 1

_MODES = ("all", "in", "out", "bi")


def _csr_from_pairs(src: np.ndarray, dst: np.ndarray, n: int):
    """Sorted CSR (indptr, indices) from parallel src/dst id arrays."""
    order = np.lexsort((dst, src))
    indices = dst[order].astype(np.int32, copy=False)
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices.setflags(write=False)
    indptr.setflags(write=False)
    return indptr, indices


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
        # canonical order: sorted by (u, v); assumed already deduplicated
        if len(edges):
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            edges = edges[order]
        self._edges = edges
        self._edges.setflags(write=False)

        u, v = edges[:, 0], edges[:, 1]
        if directed:
            self._out = _csr_from_pairs(u, v, n)
            self._in = _csr_from_pairs(v, u, n)
            both_u = np.concatenate([u, v])
            both_v = np.concatenate([v, u])
            key = both_u * n + both_v
            uniq = np.unique(key)
            self._all = _csr_from_pairs(uniq // n, uniq % n, n)
            # reciprocal pairs: (a,b) with (b,a) also present
            fwd = u * n + v
            rev = v * n + u
            mutual = np.intersect1d(fwd, rev, assume_unique=True)
            self._bi = _csr_from_pairs(mutual // n, mutual % n, n)
        else:
            both_u = np.concatenate([u, v])
            both_v = np.concatenate([v, u])
            adj = _csr_from_pairs(both_u, both_v, n)
            self._out = self._in = self._all = self._bi = adj

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

    def _csr(self, mode: str):
        if mode == "all":
            return self._all
        if mode == "in":
            return self._in
        if mode == "out":
            return self._out
        if mode == "bi":
            return self._bi
        raise ParameterError(f"unknown neighbor mode {mode!r}; expected one of {_MODES}")

    def neighbors(self, v: int, mode: str = "all") -> np.ndarray:
        """Sorted, read-only id array of the requested neighbor set."""
        self._check_vertex(v)
        indptr, indices = self._csr(mode)
        return indices[indptr[v]:indptr[v + 1]]

    def gather_neighbors(self, vertices, mode: str = "all") -> tuple[np.ndarray, np.ndarray]:
        """(counts, neighbors): the neighbor sets of `vertices`, concatenated.

        counts[i] is the size of vertices[i]'s set, whose sorted ids follow
        those of vertices[i - 1] in the second array.
        """
        vs = np.asarray(vertices, dtype=np.int64)
        bad = (vs < 0) | (vs >= len(self._names))
        if bad.any():
            self._check_vertex(int(vs[bad][0]))
        indptr, indices = self._csr(mode)
        start = indptr[vs]
        counts = indptr[vs + 1] - start
        ends = np.cumsum(counts)
        pos = np.arange(ends[-1] if len(ends) else 0) + np.repeat(start - ends + counts, counts)
        return counts, indices[pos]

    def degree(self, v: int, mode: str = "all") -> int:
        self._check_vertex(v)
        indptr, _ = self._csr(mode)
        return int(indptr[v + 1] - indptr[v])

    def degrees(self, mode: str = "all") -> np.ndarray:
        indptr, _ = self._csr(mode)
        return np.diff(indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """True iff (u, v) is an edge ((u, v) in either order when undirected)."""
        self._check_vertex(u)
        self._check_vertex(v)
        row = self.neighbors(u, "out" if self.directed else "all")
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    # -- sampling -----------------------------------------------------------

    def sample_degree(self, seed) -> int:
        """One draw from the empirical degree distribution.

        Equivalent to the degree of a uniformly sampled vertex; out-degree
        for directed graphs.
        """
        if self.vertex_count == 0:
            raise ParameterError("cannot sample a degree from an empty graph")
        rng = generator(seed)
        v = int(rng.integers(self.vertex_count))
        return self.degree(v, "out" if self.directed else "all")

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
    if not directed and len(ids):
        ids = np.sort(ids, axis=1)
    if len(ids):
        key = ids[:, 0] * n + ids[:, 1]
        uniq = np.unique(key)
        n_dups = len(key) - len(uniq)
        ids = np.column_stack([uniq // n, uniq % n])
    else:
        n_dups = 0
    return ids, n_loops, n_dups


def build_graph(edge_list: Iterable[tuple[str, str]], directed: bool,
                labels: Mapping[str, int] | None = None) -> Graph:
    """Intern vertex names and build a :class:`Graph` from name pairs.

    Self-loops and duplicate edges are dropped; the drop counts are kept on
    the returned graph.  Ids are assigned in sorted name order, so the same
    edge multiset produces an identical graph regardless of input order.
    """
    pairs = []
    for i, pair in enumerate(edge_list):
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ParseError(f"entry {i + 1}: expected a pair of vertex names, got {pair!r}") from None
        if not isinstance(a, str) or not isinstance(b, str) or not a or not b:
            raise ParseError(f"entry {i + 1}: expected two non-empty names, got {pair!r}")
        pairs.append((a, b))
    if not pairs:
        raise ParameterError("edge list is empty")

    names = sorted({n for pair in pairs for n in pair})
    index = {name: i for i, name in enumerate(names)}
    ids = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.int64)
    ids, n_loops, n_dups = _dedup_id_edges(ids, len(names), directed)

    label_arr = None
    if labels is not None:
        label_arr = np.zeros(len(names), dtype=np.int8)
        for name, label in labels.items():
            if name in index:
                label_arr[index[name]] = label
    return Graph(names, ids, directed, labels=label_arr,
                 dropped_self_loops=n_loops, dropped_duplicates=n_dups)

