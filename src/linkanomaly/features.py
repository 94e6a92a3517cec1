"""Topological features of a vertex pair, for existing and non-existing edges.

16 features for directed graphs, 7 for undirected; the order is fixed per
mode (see FEATURE_NAMES_DIRECTED / FEATURE_NAMES_UNDIRECTED) and must be
identical at train and predict time.  The per-feature functions and
`extract_edge_features` compute one pair by merge-scans over the graph's
sorted adjacency arrays; `extract_feature_matrix` computes a whole batch
with array operations and gives the same bits, row for row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidPairError, ModeError
from .graph import Graph

FEATURE_NAMES_DIRECTED = (
    "total_friends",
    "common_friends_in",
    "common_friends_out",
    "common_friends_bi",
    "jaccard",
    "preferential_attachment",
    "transitive_friends",
    "opposite_direction_friends",
    "knnw1", "knnw2", "knnw3", "knnw4", "knnw5", "knnw6", "knnw7", "knnw8",
)

FEATURE_NAMES_UNDIRECTED = (
    "total_friends",
    "common_friends",
    "jaccard",
    "preferential_attachment",
    "adamic_adar",
    "knnw9",
    "knnw10",
)


def feature_names(directed: bool) -> tuple[str, ...]:
    return FEATURE_NAMES_DIRECTED if directed else FEATURE_NAMES_UNDIRECTED


@dataclass(frozen=True)
class EdgeFeatureVector:
    """Named, ordered feature values for one vertex pair."""

    names: tuple[str, ...]
    values: np.ndarray

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(zip(self.names, self.values.tolist()))

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.names.index(name)])

    def __len__(self) -> int:
        return len(self.names)


def _check_pair(g: Graph, v: int, u: int) -> None:
    g._check_vertex(v)
    g._check_vertex(u)
    if v == u:
        raise InvalidPairError(f"pair features need two distinct vertices, got ({v}, {u})")


def _intersect_count(a: np.ndarray, b: np.ndarray) -> int:
    """|a ∩ b| for sorted unique arrays."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 0:
        return 0
    pos = np.searchsorted(b, a)
    pos[pos == len(b)] = len(b) - 1
    return int(np.count_nonzero(b[pos] == a))


def _intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a ∩ b for sorted unique arrays."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 0:
        return a
    pos = np.searchsorted(b, a)
    pos_c = np.minimum(pos, len(b) - 1)
    return a[b[pos_c] == a]


def total_friends(g: Graph, v: int, u: int) -> int:
    """|Γ(v) ∪ Γ(u)| over all-neighbors."""
    _check_pair(g, v, u)
    nv, nu = g.neighbors(v, "all"), g.neighbors(u, "all")
    return len(nv) + len(nu) - _intersect_count(nv, nu)


def common_friends(g: Graph, v: int, u: int, mode: str = "all") -> int:
    """|Γ_mode(v) ∩ Γ_mode(u)|; directional modes are directed-only."""
    _check_pair(g, v, u)
    if mode != "all" and not g.directed:
        raise ModeError(f"common_friends mode {mode!r} requires a directed graph")
    return _intersect_count(g.neighbors(v, mode), g.neighbors(u, mode))


def jaccard(g: Graph, v: int, u: int) -> float:
    """|Γ(v) ∩ Γ(u)| / |Γ(v) ∪ Γ(u)|, with 0/0 defined as 0."""
    _check_pair(g, v, u)
    nv, nu = g.neighbors(v, "all"), g.neighbors(u, "all")
    inter = _intersect_count(nv, nu)
    union = len(nv) + len(nu) - inter
    return inter / union if union else 0.0


def preferential_attachment(g: Graph, v: int, u: int) -> int:
    """|Γ(v)| · |Γ(u)|."""
    _check_pair(g, v, u)
    return g.degree(v, "all") * g.degree(u, "all")


def transitive_friends(g: Graph, v: int, u: int) -> int:
    """|Γ_out(v) ∩ Γ_in(u)| (directed only)."""
    _check_pair(g, v, u)
    if not g.directed:
        raise ModeError("transitive_friends requires a directed graph")
    return _intersect_count(g.neighbors(v, "out"), g.neighbors(u, "in"))


def opposite_direction_friends(g: Graph, v: int, u: int) -> int:
    """1 iff the reciprocal edge (u, v) exists (directed only)."""
    _check_pair(g, v, u)
    if not g.directed:
        raise ModeError("opposite_direction_friends requires a directed graph")
    return 1 if g.has_edge(u, v) else 0


def adamic_adar(g: Graph, v: int, u: int) -> float:
    """Σ 1/ln|Γ(w)| over shared neighbors w (undirected only).

    Shared neighbors with |Γ(w)| <= 1 are skipped: ln 1 = 0 has no finite
    reciprocal and a degree-0 vertex cannot be a shared neighbor anyway.
    The terms are summed by `np.sum` in ascending w, as the batch kernel
    sums them, so both give the same bits (numpy adds 8 or more terms
    pairwise, not left to right).
    """
    _check_pair(g, v, u)
    if g.directed:
        raise ModeError("adamic_adar is defined for undirected graphs")
    shared = _intersect(g.neighbors(v, "all"), g.neighbors(u, "all"))
    degs = np.array([g.degree(int(w), "all") for w in shared], dtype=np.int64)
    return float(np.sum(1.0 / np.log(degs[degs > 1])))


def _w(deg: int) -> float:
    return 1.0 / math.sqrt(1.0 + deg)


def knn_weights(g: Graph, v: int, u: int) -> np.ndarray:
    """The degree-discount weight combinations: 8 directed, 2 undirected.

    Directed, with w_in(x) = 1/sqrt(1+|Γ_in(x)|) and w_out analogous:
      (a) w_in(v)+w_in(u)   (b) w_in(v)+w_out(u)  (c) w_out(v)+w_in(u)
      (d) w_out(v)+w_out(u) (e) w_in(v)·w_in(u)   (f) w_in(v)·w_out(u)
      (g) w_out(v)·w_in(u)  (h) w_out(v)·w_out(u)
    Undirected, with w(x) = 1/sqrt(1+|Γ(x)|): w(v)+w(u) and w(v)·w(u).
    """
    _check_pair(g, v, u)
    if g.directed:
        wiv, wov = _w(g.degree(v, "in")), _w(g.degree(v, "out"))
        wiu, wou = _w(g.degree(u, "in")), _w(g.degree(u, "out"))
        return np.array([
            wiv + wiu, wiv + wou, wov + wiu, wov + wou,
            wiv * wiu, wiv * wou, wov * wiu, wov * wou,
        ])
    wv, wu = _w(g.degree(v, "all")), _w(g.degree(u, "all"))
    return np.array([wv + wu, wv * wu])


def extract_edge_features(g: Graph, v: int, u: int) -> EdgeFeatureVector:
    """The full feature vector for the ordered pair (v, u)."""
    _check_pair(g, v, u)
    if g.directed:
        values = np.empty(16)
        values[0] = total_friends(g, v, u)
        values[1] = common_friends(g, v, u, "in")
        values[2] = common_friends(g, v, u, "out")
        values[3] = common_friends(g, v, u, "bi")
        values[4] = jaccard(g, v, u)
        values[5] = preferential_attachment(g, v, u)
        values[6] = transitive_friends(g, v, u)
        values[7] = opposite_direction_friends(g, v, u)
        values[8:] = knn_weights(g, v, u)
        return EdgeFeatureVector(FEATURE_NAMES_DIRECTED, values)
    values = np.empty(7)
    values[0] = total_friends(g, v, u)
    values[1] = common_friends(g, v, u)
    values[2] = jaccard(g, v, u)
    values[3] = preferential_attachment(g, v, u)
    values[4] = adamic_adar(g, v, u)
    values[5:] = knn_weights(g, v, u)
    return EdgeFeatureVector(FEATURE_NAMES_UNDIRECTED, values)


def _shared(g: Graph, degrees: dict, mode_v: str, mode_u: str,
            v: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pair index, w) for every w in Γ_mode_v(v[i]) ∩ Γ_mode_u(u[i]).

    Each pair gathers the smaller of its two neighbor slices (gathering both
    would cost the hubs' degrees on hub-heavy pair sets) and asks the graph
    whether each w is adjacent to the other endpoint in the other view.
    Within a pair the w ascend.  `degrees` maps a mode to its degree array.
    """
    from_v = degrees[mode_v][v] <= degrees[mode_u][u]
    pid, shared = [], []
    for take, mode, rows, other, other_mode in ((from_v, mode_v, v, u, mode_u),
                                                (~from_v, mode_u, u, v, mode_v)):
        idx = np.flatnonzero(take)
        counts, w = g.gather_neighbors(rows[idx], mode)
        p = np.repeat(idx, counts)
        hit = g.adjacent(other[p], w, other_mode)
        pid.append(p[hit])
        shared.append(w[hit])
    return np.concatenate(pid), np.concatenate(shared)


def _adamic_adar_sums(degs: np.ndarray, pid: np.ndarray, w: np.ndarray,
                      inter: np.ndarray) -> np.ndarray:
    """Σ 1/ln|Γ(w)| per pair, with the bits of `np.sum` over its ascending w."""
    inv_log = np.zeros(len(degs))
    big = degs > 1
    inv_log[big] = 1.0 / np.log(degs[big])
    # bincount adds left to right, which is what np.sum does below 8 terms;
    # numpy sums 8 or more terms pairwise, so those pairs are summed alone
    out = np.bincount(pid, weights=inv_log[w], minlength=len(inter))
    many = np.flatnonzero(inter >= 8)
    if len(many):
        w_by_pair = w[np.argsort(pid, kind="stable")]
        ends = np.cumsum(inter)
        for i in many.tolist():
            out[i] = inv_log[w_by_pair[ends[i] - inter[i]:ends[i]]].sum()
    return out


def extract_feature_matrix(g: Graph, pairs: Sequence[tuple[int, int]] | np.ndarray
                           ) -> np.ndarray:
    """(n_pairs, n_features) matrix; row i is extract_edge_features(pairs[i]).

    `pairs` is a sequence of (v, u) pairs or an (n, 2) id array.  All pairs
    are computed together: each common-neighbor count is one batched
    :meth:`Graph.adjacent` lookup of gathered neighbor ids (see `_shared`).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    v, u = pairs[:, 0], pairs[:, 1]
    n, m = g.vertex_count, len(pairs)
    bad = (v < 0) | (v >= n) | (u < 0) | (u >= n) | (v == u)
    if bad.any():
        i = int(np.argmax(bad))
        _check_pair(g, int(v[i]), int(u[i]))
    if m == 0:
        return np.empty((0, len(feature_names(g.directed))))

    modes = ("all", "in", "out", "bi") if g.directed else ("all",)
    degrees = {mode: g.degrees(mode) for mode in modes}

    def count(mode_v: str, mode_u: str) -> np.ndarray:
        return np.bincount(_shared(g, degrees, mode_v, mode_u, v, u)[0], minlength=m)

    degs = degrees["all"]
    pid, w = _shared(g, degrees, "all", "all", v, u)
    inter = np.bincount(pid, minlength=m)
    union = degs[v] + degs[u] - inter
    jaccard = np.divide(inter, union, out=np.zeros(m), where=union > 0)
    pref = degs[v] * degs[u]
    if not g.directed:
        inv_sqrt = 1.0 / np.sqrt(1.0 + degs)
        wv, wu = inv_sqrt[v], inv_sqrt[u]
        return np.column_stack([union, inter, jaccard, pref,
                                _adamic_adar_sums(degs, pid, w, inter),
                                wv + wu, wv * wu])

    opposite = g.adjacent(u, v, "out")
    w_in = 1.0 / np.sqrt(1.0 + degrees["in"])
    w_out = 1.0 / np.sqrt(1.0 + degrees["out"])
    wiv, wov, wiu, wou = w_in[v], w_out[v], w_in[u], w_out[u]
    return np.column_stack([
        union, count("in", "in"), count("out", "out"), count("bi", "bi"),
        jaccard, pref, count("out", "in"), opposite,
        wiv + wiu, wiv + wou, wov + wiu, wov + wou,
        wiv * wiu, wiv * wou, wov * wiu, wov * wou,
    ])
