"""Metrics and the repeated-experiment harness.

AUC is the rank statistic (tie pairs get half credit), so it matches the
probability that a random anomalous vertex outscores a random normal one.
`run_experiment` wires the whole pipeline end to end and averages a
stratified k-fold cross-validation of the meta-classifier over several
repetitions with derived seeds.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import io
from .anomaly import (META_FEATURE_NAMES, VertexAnomalyProfile, profile_vertices,
                      rank_vertices)
from .config import PRECISION_KS, ExperimentConfig
from .errors import (ParameterError, PipelineError, ShapeError,
                     StratificationError, UndefinedMetricError)
from .features import feature_names
from .forest import ForestParams, train_forest
from .graph import ANOMALOUS, NORMAL, Graph
from .rng import generator, seed_key
from .sampling import (build_link_training_set, generate_ba, inject_anomalies,
                       sample_test_vertices)

REPORT_SCHEMA_VERSION = 1

# substream indices; repetition seeds themselves are master_seed + run_index
_S_GENERATE = 0
_S_INJECT = 1
_S_RANDOM_LABELS = 2
_S_TEST_POS = 3
_S_TEST_NEG = 4
_S_LINK_TRAIN = 5
_S_FOREST = 6
_S_CV = 7

METRIC_NAMES = ("auc", "tpr", "fpr", "precision")


@dataclass
class EvaluationReport:
    """Per-fold and averaged metrics plus the per-run extras."""

    folds: list[dict] = field(default_factory=list)
    averaged: dict = field(default_factory=dict)
    precision_at_k: dict = field(default_factory=dict)
    info_gain: dict = field(default_factory=dict)
    run_count: int = 1
    seeds: list[int] = field(default_factory=list)
    test_composition: dict = field(default_factory=dict)
    link_auc: dict | None = None
    config: dict | None = None
    skipped_vertices: int = 0

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "config": self.config,
            "run_count": self.run_count,
            "seeds": self.seeds,
            "test_composition": self.test_composition,
            "skipped_vertices": self.skipped_vertices,
            "link_auc": self.link_auc,
            "folds": self.folds,
            "averaged": self.averaged,
            "precision_at_k": {str(k): v for k, v in self.precision_at_k.items()},
            "info_gain": self.info_gain,
        }


# -- scalar metrics ----------------------------------------------------------


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean rank of their block."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    mean_rank = (upper - counts + 1 + upper) / 2.0
    return mean_rank[inverse]


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based AUC with half credit for ties."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ShapeError(f"scores and labels must be equal-length vectors, got {s.shape} vs {y.shape}")
    n1 = int(np.count_nonzero(y == 1))
    n0 = len(y) - n1
    if n1 == 0 or n0 == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    ranks = _average_ranks(s)
    return (float(ranks[y == 1].sum()) - n1 * (n1 + 1) / 2.0) / (n1 * n0)


def confusion_metrics(predicted: Sequence[int], labels: Sequence[int]) -> dict:
    """{tpr, fpr, precision}; precision of an all-negative prediction is 0."""
    p = np.asarray(predicted)
    y = np.asarray(labels)
    if p.shape != y.shape or p.ndim != 1:
        raise ShapeError(f"predicted and labels must be equal-length vectors, got {p.shape} vs {y.shape}")
    pos = y == 1
    if not pos.any() or pos.all():
        raise UndefinedMetricError("confusion metrics need both classes present")
    pred_pos = p == 1
    tp = int(np.count_nonzero(pred_pos & pos))
    fp = int(np.count_nonzero(pred_pos & ~pos))
    fn = int(np.count_nonzero(~pred_pos & pos))
    tn = int(np.count_nonzero(~pred_pos & ~pos))
    return {
        "tpr": tp / (tp + fn),
        "fpr": fp / (fp + tn),
        "precision": tp / (tp + fp) if tp + fp else 0.0,
    }


def precision_at_k(ranked: Sequence[int], labels: Mapping[int, int], k: int) -> float:
    """Fraction of the k highest-ranked vertices that are anomalous."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k > len(ranked):
        raise ParameterError(f"k={k} exceeds ranking length {len(ranked)}")
    return sum(int(labels[v]) for v in ranked[:k]) / k


def _entropy_bits(y: np.ndarray) -> float:
    counts = np.bincount(y)
    probs = counts[counts > 0] / len(y)
    return float(-(probs * np.log2(probs)).sum())


def info_gain(feature_values: Sequence[float], labels: Sequence[int],
              bins: int = 10) -> float:
    """Entropy reduction (bits) from equal-frequency discretization."""
    if bins < 2:
        raise ParameterError(f"bins must be >= 2, got {bins}")
    x = np.asarray(feature_values, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"values and labels must be equal-length vectors, got {x.shape} vs {y.shape}")
    if len(np.unique(y)) < 2:
        raise UndefinedMetricError("info gain is undefined for constant labels")
    edges = np.quantile(x, np.arange(1, bins) / bins)
    assignment = np.searchsorted(edges, x, side="right")
    h = _entropy_bits(y)
    conditional = 0.0
    for b in np.unique(assignment):
        member = assignment == b
        conditional += (int(member.sum()) / len(y)) * _entropy_bits(y[member])
    return float(max(0.0, h - conditional))


# -- cross-validation --------------------------------------------------------


def k_fold_cv(X: np.ndarray, labels: Sequence[int], folds: int, seed,
              params=None) -> EvaluationReport:
    """Stratified k-fold CV of the meta-classifier over a profile matrix.

    Row i of X is one vertex's meta-features (`VertexAnomalyProfile.as_row`).
    The confusion matrix uses a 0.5 vote-fraction operating point.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(labels, dtype=np.uint8)
    if len(X) != len(y):
        raise ShapeError(f"{len(X)} profiles vs {len(y)} labels")
    if folds < 2:
        raise ParameterError(f"folds must be >= 2, got {folds}")
    params = params or ForestParams()

    rng = generator(seed, 0)
    fold_of = np.empty(len(y), dtype=np.int64)
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if len(idx) < folds:
            raise StratificationError(
                f"class {cls} has {len(idx)} examples, fewer than {folds} folds")
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % folds

    key = seed_key(seed)
    report = EvaluationReport(run_count=1, seeds=[])
    for f in range(folds):
        test = fold_of == f
        forest = train_forest(None, params, key + (1, f), X=X[~test], y=y[~test],
                              feature_names=META_FEATURE_NAMES)
        scores = forest.predict_proba_many(X[test])
        entry = {"run": 0, "fold": f, "auc": auc(scores, y[test])}
        entry.update(confusion_metrics((scores >= 0.5).astype(int), y[test]))
        report.folds.append(entry)
    report.averaged = _fold_means(report.folds)
    return report


def _fold_means(folds: list[dict]) -> dict:
    """Each metric in METRIC_NAMES averaged over the fold entries."""
    return {name: sum(e[name] for e in folds) / len(folds) for name in METRIC_NAMES}


# -- end-to-end harness -------------------------------------------------------


@contextmanager
def _stage(name: str):
    """Re-raise an error from the block as a PipelineError naming the stage.

    Only `Exception` is wrapped: an interrupt or exit passes through as is.
    """
    try:
        yield
    except PipelineError:
        raise
    except Exception as e:
        raise PipelineError(name, e) from e


def injection_count(vertex_count: int, fraction: float) -> int:
    """Vertices to inject so the final graph is `fraction` anomalous, 0 < fraction < 1."""
    if not 0 < fraction < 1:
        raise ParameterError(f"anomaly fraction must be in (0, 1), got {fraction}")
    return max(1, round(vertex_count * fraction / (1.0 - fraction)))


def _prepare_graph(config: ExperimentConfig) -> Graph:
    if config.graph_path is not None:
        g = io.load_edge_list(config.graph_path, config.directed)
    else:
        g = generate_ba(config.ba_n, config.ba_m, (config.master_seed, _S_GENERATE))

    source = config.anomaly_source
    if source == "inject":
        n = injection_count(g.vertex_count, config.anomaly_fraction)
        g, _ = inject_anomalies(g, n, (config.master_seed, _S_INJECT))
    elif source == "random":
        rng = generator(config.master_seed, _S_RANDOM_LABELS)
        n = max(1, round(g.vertex_count * config.anomaly_fraction))
        chosen = rng.choice(g.vertex_count, size=n, replace=False)
        labels = np.zeros(g.vertex_count, dtype=np.int8)
        labels[chosen] = ANOMALOUS
        g = Graph(g.names, g.edges, g.directed, labels=labels)
    else:  # provided
        g = g.with_labels(io.load_labels(config.labels_path))
    return g


def run_experiment(config: ExperimentConfig, audit_dir=None) -> EvaluationReport:
    """The full pipeline, repeated `run_count` times and averaged.

    Per repetition r (seeded master_seed + r): sample anomalous and normal
    test vertices, train the link classifier on edges untouched by them,
    profile the test vertices, cross-validate the meta-classifier, rank
    for precision@k, and score the meta-features by info gain.
    """
    config.validate()
    with _stage("prepare-graph"):
        g = _prepare_graph(config)

    params = config.forest_params()
    report = EvaluationReport(run_count=config.run_count, config=config.resolved())
    report.seeds = [config.master_seed + r for r in range(config.run_count)]
    pk_sums: dict[int, float] = {}
    pk_counts: dict[int, int] = {}
    ig_sums: dict[str, float] = {name: 0.0 for name in META_FEATURE_NAMES}
    link_aucs: list[float] = []

    for r, run_seed in enumerate(report.seeds):
        with _stage("sample-test-set"):
            pos = sample_test_vertices(g, config.test_positive_count, ANOMALOUS,
                                       config.min_friends, (run_seed, _S_TEST_POS))
            neg = sample_test_vertices(g, config.test_negative_count, NORMAL,
                                       config.min_friends, (run_seed, _S_TEST_NEG))
        if audit_dir is not None:
            io.write_test_set_csv(pos, neg, g, f"{audit_dir}/run{r}_test_set.csv")

        with _stage("build-link-training-set"):
            # "selected" keeps only the inspected vertices out of training
            # (hub neighbors stay trainable); "endpoints" is the stricter
            # variant that also drops every neighbor seen in the test edges
            if config.exclusion_mode == "endpoints":
                excluded = pos.vertices | neg.vertices
            else:
                excluded = set(pos.selected) | set(neg.selected)
            per_class = config.link_train_size_per_class + config.link_holdout_per_class
            examples = build_link_training_set(g, excluded, per_class,
                                               (run_seed, _S_LINK_TRAIN))
        size = config.link_train_size_per_class
        negatives, positives = examples[:per_class], examples[per_class:]
        train = negatives[:size] + positives[:size]
        holdout = negatives[size:] + positives[size:]

        with _stage("train-link-forest"):
            forest = train_forest(train, params, (run_seed, _S_FOREST),
                                  feature_names=feature_names(g.directed))
        if holdout:
            with _stage("link-holdout-auc"):
                hx = np.array([ex.features for ex in holdout])
                hy = [ex.label for ex in holdout]
                link_aucs.append(auc(forest.predict_proba_many(hx), hy))

        with _stage("profile-test-vertices"):
            vertices = list(pos.selected) + list(neg.selected)
            truth = {**pos.labels, **neg.labels}
            profiles, skipped = profile_vertices(forest, g, vertices,
                                                 config.threshold,
                                                 config.direction_mode)
            report.skipped_vertices += len(skipped)
            y = [truth[p.vertex] for p in profiles]
            matrix = np.array([p.as_row() for p in profiles])

        with _stage("cross-validate"):
            cv = k_fold_cv(matrix, y, config.folds, (run_seed, _S_CV),
                           config.meta_forest_params())
        for entry in cv.folds:
            report.folds.append({**entry, "run": r})

        with _stage("rank-and-score"):
            ranked = rank_vertices(profiles, "abnormality_probability", "desc")
            labels_by_vertex = {p.vertex: truth[p.vertex] for p in profiles}
            for k in PRECISION_KS:
                if k <= len(ranked):
                    pk_sums[k] = pk_sums.get(k, 0.0) + precision_at_k(
                        ranked, labels_by_vertex, k)
                    pk_counts[k] = pk_counts.get(k, 0) + 1
            for j, name in enumerate(META_FEATURE_NAMES):
                ig_sums[name] += info_gain(matrix[:, j], y)

    runs = config.run_count
    report.test_composition = {
        "anomalous": config.test_positive_count,
        "normal": config.test_negative_count,
    }
    report.averaged = _fold_means(report.folds)
    report.precision_at_k = {k: v / pk_counts[k] for k, v in sorted(pk_sums.items())}
    report.info_gain = {name: v / runs for name, v in ig_sums.items()}
    if link_aucs:
        report.link_auc = {"per_run": link_aucs, "mean": sum(link_aucs) / len(link_aucs)}
    return report
