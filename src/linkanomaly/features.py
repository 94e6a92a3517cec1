"""Topological features of a vertex pair, for existing and non-existing edges.

16 features for directed graphs, 7 for undirected; the order is fixed per
mode (see FEATURE_NAMES_DIRECTED / FEATURE_NAMES_UNDIRECTED) and must be
identical at train and predict time; `extract_edge_features` defines each
one.  It computes one pair from the sorted neighbor slices of its two
vertices and is the reference; `extract_feature_matrix`, which every
pipeline stage calls, computes a whole batch with array operations and
gives the same bits, row for row.  The batch finds each pair's shared
neighbors once, in the all-view, and takes the directed counts (in/in,
out/out, bi/bi, out/in) from that set: Γ_in and Γ_out are subsets of Γ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidPairError
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


def _check_pair(g: Graph, v: int, u: int) -> None:
    g._check_vertex(v)
    g._check_vertex(u)
    if v == u:
        raise InvalidPairError(f"pair features need two distinct vertices, got ({v}, {u})")


def _intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a ∩ b for sorted unique arrays."""
    if len(a) > len(b):
        a, b = b, a
    pos = np.minimum(np.searchsorted(b, a), len(b) - 1)  # a is empty when b is
    return a[b[pos] == a]


def _w(deg: int) -> float:
    return 1.0 / math.sqrt(1.0 + deg)


def extract_edge_features(g: Graph, v: int, u: int) -> EdgeFeatureVector:
    """The full feature vector for the ordered pair (v, u): the pairwise reference.

    Γ(x) is x's all-neighbors set (either direction when directed); Γ_in
    and Γ_out are the directed views, and Γ_bi = Γ_in ∩ Γ_out (joined both ways).
      total_friends               |Γ(v) ∪ Γ(u)|
      common_friends              |Γ(v) ∩ Γ(u)| (undirected)
      common_friends_in/out/bi    |Γ_mode(v) ∩ Γ_mode(u)| (directed)
      jaccard                     |Γ(v) ∩ Γ(u)| / |Γ(v) ∪ Γ(u)|, with 0/0 = 0
      preferential_attachment     |Γ(v)| · |Γ(u)|
      transitive_friends          |Γ_out(v) ∩ Γ_in(u)| (directed)
      opposite_direction_friends  1 iff the reciprocal edge (u, v) exists (directed)
      adamic_adar                 Σ 1/ln|Γ(w)| over shared neighbors w (undirected)
      knnw1..knnw8 (directed), with w_in(x) = 1/sqrt(1+|Γ_in(x)|) and w_out alike:
        (a) w_in(v)+w_in(u)   (b) w_in(v)+w_out(u)  (c) w_out(v)+w_in(u)
        (d) w_out(v)+w_out(u) (e) w_in(v)·w_in(u)   (f) w_in(v)·w_out(u)
        (g) w_out(v)·w_in(u)  (h) w_out(v)·w_out(u)
      knnw9, knnw10 (undirected)  w(v)+w(u), w(v)·w(u), with w(x) = 1/sqrt(1+|Γ(x)|)
    An undirected pair is unordered: (u, v) gives the same values.

    Adamic–Adar skips shared neighbors with |Γ(w)| <= 1 (ln 1 = 0 has no
    finite reciprocal) and sums its terms by `np.sum` in ascending w, as the
    batch kernel does, so both give the same bits: numpy adds 8 or more
    terms pairwise, not left to right.  `extract_feature_matrix` is checked
    against this function, so it reads the graph only through `neighbors`,
    never through the batch queries `degrees`, `adjacent` and `gather_neighbors`.
    """
    _check_pair(g, v, u)
    nv, nu = g.neighbors(v, "all"), g.neighbors(u, "all")
    shared = _intersect(nv, nu)
    union = len(nv) + len(nu) - len(shared)
    jaccard = len(shared) / union if union else 0.0
    pref = len(nv) * len(nu)
    if g.directed:
        def common(mode_v: str, mode_u: str) -> int:
            return len(_intersect(g.neighbors(v, mode_v), g.neighbors(u, mode_u)))

        def bi(x: int) -> np.ndarray:
            return _intersect(g.neighbors(x, "in"), g.neighbors(x, "out"))

        wiv, wov = _w(len(g.neighbors(v, "in"))), _w(len(g.neighbors(v, "out")))
        wiu, wou = _w(len(g.neighbors(u, "in"))), _w(len(g.neighbors(u, "out")))
        return EdgeFeatureVector(FEATURE_NAMES_DIRECTED, np.array([
            union, common("in", "in"), common("out", "out"), len(_intersect(bi(v), bi(u))),
            jaccard, pref, common("out", "in"), int(v in g.neighbors(u, "out")),
            wiv + wiu, wiv + wou, wov + wiu, wov + wou,
            wiv * wiu, wiv * wou, wov * wiu, wov * wou,
        ], dtype=np.float64))
    degs = np.array([len(g.neighbors(int(w), "all")) for w in shared], dtype=np.int64)
    adamic_adar = float(np.sum(1.0 / np.log(degs[degs > 1])))
    wv, wu = _w(len(nv)), _w(len(nu))
    return EdgeFeatureVector(FEATURE_NAMES_UNDIRECTED, np.array([
        union, len(shared), jaccard, pref, adamic_adar, wv + wu, wv * wu,
    ], dtype=np.float64))


def _shared(g: Graph, degs: np.ndarray, v: np.ndarray, u: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """(pair index, w) for every w in Γ(v[i]) ∩ Γ(u[i]), the all-view shared set.

    Each pair gathers the smaller of its two neighbor slices (gathering both
    would cost the hubs' degrees on hub-heavy pair sets) and asks the graph
    whether each w is adjacent to the other endpoint.  Within a pair the w
    ascend.  `degs` is the all-view degree array.
    """
    from_v = degs[v] <= degs[u]
    pid, shared = [], []
    for take, rows, other in ((from_v, v, u), (~from_v, u, v)):
        idx = np.flatnonzero(take)
        counts, w = g.gather_neighbors(rows[idx], "all")
        p = np.repeat(idx, counts)
        hit = g.adjacent(other[p], w, "all")
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
    are computed together from their all-view shared neighbors, found by one
    batched :meth:`Graph.adjacent` lookup of gathered neighbor ids (see
    `_shared`).  Γ_in and Γ_out are subsets of Γ, so every directed common
    neighbor is among them: the four directed counts come from four lookups
    of the shared w, whether w is in Γ_in and Γ_out of v and of u.
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

    degs = g.degrees("all")
    pid, w = _shared(g, degs, v, u)
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

    pv, pu = v[pid], u[pid]
    in_v, out_v = g.adjacent(pv, w, "in"), g.adjacent(pv, w, "out")
    in_u, out_u = g.adjacent(pu, w, "in"), g.adjacent(pu, w, "out")

    def count(mask: np.ndarray) -> np.ndarray:
        return np.bincount(pid[mask], minlength=m)

    both_in, both_out = in_v & in_u, out_v & out_u
    opposite = g.adjacent(u, v, "out")
    w_in = 1.0 / np.sqrt(1.0 + g.degrees("in"))
    w_out = 1.0 / np.sqrt(1.0 + g.degrees("out"))
    wiv, wov, wiu, wou = w_in[v], w_out[v], w_in[u], w_out[u]
    return np.column_stack([
        union, count(both_in), count(both_out), count(both_in & both_out),
        jaccard, pref, count(out_v & in_u), opposite,
        wiv + wiu, wiv + wou, wov + wiu, wov + wou,
        wiv * wiu, wiv * wou, wov * wiu, wov * wou,
    ])
