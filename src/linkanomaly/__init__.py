"""Anomalous-vertex detection for complex networks, from topology alone.

Train a link classifier on sampled edges, aggregate each vertex's
per-edge "should this edge exist?" scores into meta-features, and rank
or classify vertices as anomalous.
"""

from .anomaly import (META_FEATURE_NAMES, VertexAnomalyProfile,
                      edge_probabilities, profile_vertices, rank_vertices,
                      vertex_profile)
from .config import ExperimentConfig, load_config
from .evaluation import (EvaluationReport, auc, confusion_metrics, info_gain,
                         k_fold_cv, precision_at_k, run_experiment)
from .features import (EdgeFeatureVector, FEATURE_NAMES_DIRECTED,
                       FEATURE_NAMES_UNDIRECTED, extract_edge_features,
                       extract_feature_matrix, feature_names)
from .forest import ForestParams, LinkForest, TrainingExample, train_forest, train_forests
from .graph import ANOMALOUS, NORMAL, Graph, build_graph
from .sampling import (InjectionRecord, TestSet, build_link_training_set,
                       generate_ba, inject_anomalies, sample_test_vertices)

__version__ = "0.1.0"

__all__ = [
    "ANOMALOUS",
    "NORMAL",
    "META_FEATURE_NAMES",
    "FEATURE_NAMES_DIRECTED",
    "FEATURE_NAMES_UNDIRECTED",
    "EdgeFeatureVector",
    "EvaluationReport",
    "ExperimentConfig",
    "ForestParams",
    "Graph",
    "InjectionRecord",
    "LinkForest",
    "TestSet",
    "TrainingExample",
    "VertexAnomalyProfile",
    "auc",
    "build_graph",
    "build_link_training_set",
    "confusion_metrics",
    "edge_probabilities",
    "extract_edge_features",
    "extract_feature_matrix",
    "feature_names",
    "generate_ba",
    "info_gain",
    "inject_anomalies",
    "k_fold_cv",
    "load_config",
    "precision_at_k",
    "profile_vertices",
    "rank_vertices",
    "run_experiment",
    "sample_test_vertices",
    "train_forest",
    "train_forests",
    "vertex_profile",
]
