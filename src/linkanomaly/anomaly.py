"""Per-vertex anomaly meta-features aggregated from edge scores.

The link classifier gives each edge of an inspected vertex a probability
of not existing; this module collapses those per-edge scores into seven
per-vertex statistics and ranks vertices by any of them.  A vertex with
many improbable edges floats to the top.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .errors import EmptyNeighborhoodError, ParameterError, ShapeError
from .features import extract_feature_matrix, feature_names
from .forest import LinkForest
from .graph import Graph

RANK_ORDERS = ("desc", "asc")


@dataclass(frozen=True)
class VertexAnomalyProfile:
    """A vertex and its seven meta-features, in the paper's order."""

    vertex: int
    abnormality_probability: float
    edges_probability_stdv: float
    sum_edge_label: int
    mean_predicted_link_label: float
    predicted_label_stdv: float
    edges_probability_median: float
    edge_count: int

    def value(self, name: str) -> float:
        _check_meta_feature(name)
        return float(getattr(self, name))

    def as_row(self) -> np.ndarray:
        return np.array(_meta_values(self), dtype=np.float64)


META_FEATURE_NAMES = tuple(f.name for f in fields(VertexAnomalyProfile)[1:])
# the int fields are the whole-number meta-features
META_FEATURE_TYPES = tuple(get_type_hints(VertexAnomalyProfile)[name] for name in META_FEATURE_NAMES)
_meta_values = attrgetter(*META_FEATURE_NAMES)


def _check_meta_feature(name: str) -> None:
    if name not in META_FEATURE_NAMES:
        raise ParameterError(f"unknown meta-feature {name!r}; expected one of {META_FEATURE_NAMES}")


def _score_edges(forest: LinkForest, g: Graph, vertices: Sequence[int], mode: str
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edge counts, neighbors, non-existence probabilities) of `vertices`.

    The edges of all vertices are featurized and scored in one batch; the
    neighbors and probabilities are concatenated in vertex order.
    """
    if forest.feature_names != feature_names(g.directed):
        raise ShapeError(
            "forest was trained on a different feature set than this graph mode provides")
    vertices = np.asarray(vertices, dtype=np.int64)
    counts, nbrs = g.gather_neighbors(vertices, mode)
    if len(nbrs) == 0:
        return counts, nbrs, np.empty(0)
    pairs = np.column_stack((np.repeat(vertices, counts), nbrs))
    return counts, nbrs, forest.predict_proba_many(extract_feature_matrix(g, pairs))


def edge_probabilities(forest: LinkForest, g: Graph, v: int,
                       mode: str = "out") -> list[tuple[int, float]]:
    """(neighbor, non-existence probability) for each edge of `v`.

    Directed graphs are scored on the inspected vertex's outbound edges by
    default (the attacker model creates outbound links); `mode` can widen
    that to inbound or all edges.  On an undirected graph every mode gives Γ(v).
    """
    counts, nbrs, probs = _score_edges(forest, g, [v], mode)
    if counts[0] == 0:
        raise EmptyNeighborhoodError(f"vertex {v} has no edges to score in mode {mode!r}")
    return list(zip(nbrs.tolist(), probs.tolist()))


def _check_threshold(threshold: float) -> None:
    if not 0 < threshold < 1:
        raise ParameterError(f"threshold must be in (0, 1), got {threshold}")


def vertex_profile(ep: Sequence[float], threshold: float, v: int,
                   edge_count: int | None = None) -> VertexAnomalyProfile:
    """All seven meta-features from a vertex's edge-score list.

    An edge is labeled anomalous when its score reaches the threshold
    (boundary inclusive).  Standard deviations are population ones: the
    edge list is the whole population for this vertex, and a single edge
    must yield 0, not an undefined value.
    """
    values = np.asarray(ep, dtype=np.float64)
    if values.size == 0:
        raise EmptyNeighborhoodError(f"vertex {v} has an empty edge-probability set")
    _check_threshold(threshold)
    if edge_count is None:
        edge_count = values.size
    labels = (values >= threshold).astype(np.float64)
    sum_label = int(labels.sum())
    return VertexAnomalyProfile(
        vertex=v,
        abnormality_probability=float(values.mean()),
        edges_probability_stdv=float(values.std()),
        sum_edge_label=sum_label,
        mean_predicted_link_label=sum_label / edge_count,
        predicted_label_stdv=float(labels.std()),
        edges_probability_median=float(np.median(values)),
        edge_count=int(edge_count),
    )


def profile_vertices(forest: LinkForest, g: Graph, vertices: Iterable[int],
                     threshold: float = 0.8, mode: str = "out"
                     ) -> tuple[list[VertexAnomalyProfile], list[int]]:
    """Profiles for each vertex, in the given order.

    Vertices with no edges in the chosen mode cannot be profiled; they are
    returned in the second list instead of failing the batch.  The edges of
    all other vertices are scored in one batch, and the statistics of all
    vertices with d edges come from one (vertices, d) block along axis 1.
    Each row of a C-contiguous block is reduced in the same pairwise order
    as a 1-D call on that slice, so every value equals `vertex_profile`'s.
    """
    _check_threshold(threshold)
    ids = np.array([int(v) for v in vertices], dtype=np.int64)
    counts, _, probs = _score_edges(forest, g, ids, mode)
    has_edges = counts > 0
    kept, counts, skipped = ids[has_edges], counts[has_edges], ids[~has_edges].tolist()
    starts = np.cumsum(counts) - counts
    stats = np.empty((len(kept), len(META_FEATURE_NAMES)))
    for d in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == d)
        block = probs[starts[rows, None] + np.arange(d)]
        labels = (block >= threshold).astype(np.float64)
        label_sums = labels.sum(axis=1)
        ordered = np.sort(block, axis=1)  # np.median's mean of the middle one or two
        stats[rows] = np.column_stack((
            block.mean(axis=1), block.std(axis=1), label_sums, label_sums / d,
            labels.std(axis=1), (ordered[:, (d - 1) // 2] + ordered[:, d // 2]) / 2,
            np.full(len(rows), d)))
    columns = [column.astype(kind).tolist() for kind, column in zip(META_FEATURE_TYPES, stats.T)]
    profiles = list(map(VertexAnomalyProfile, kept.tolist(), *columns))
    return profiles, skipped


def rank_vertices(profiles: Sequence[VertexAnomalyProfile], by: str,
                  order: str = "desc") -> list[int]:
    """Vertex ids sorted by one meta-feature; ties break by id ascending.

    Descending order puts the most anomalous first for probability-like
    features.  A NaN value has no place in this order; profiles read from
    a file cannot hold one (`io.load_profiles_csv` rejects it).
    """
    _check_meta_feature(by)
    if order not in RANK_ORDERS:
        raise ParameterError(f"order must be one of {RANK_ORDERS}, got {order!r}")
    sign = -1.0 if order == "desc" else 1.0
    ids = np.array([p.vertex for p in profiles], dtype=np.int64)
    values = np.array([getattr(p, by) for p in profiles], dtype=np.float64)
    return ids[np.lexsort((ids, sign * values))].tolist()
