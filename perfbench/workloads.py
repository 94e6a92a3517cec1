"""The benchmark's three workloads, each driven through the package's API.

Every workload has the same shape:

* ``prepare()`` makes inputs the program does not make itself (untimed);
* ``setup()`` returns the state the timed phase reads; its time is what a
  user pays before the measured work (``setup_s``);
* ``run(state)`` is the timed phase, one user-level operation;
* ``check(state, output, reference)`` lists what is wrong with an output,
  given the first run's output as reference (``None`` for the first run);
* ``quality(state, output)`` gives the accuracy metrics, and
  ``digests(output)`` hashes the bytes a user would keep.

Each workload has three scales: ``paper`` is the size of the acceptance
experiments (their hosts, forests and sample counts; evaluate-ba30k with
seed 1234 reproduces repetition 0 of the 30k experiment), ``tiny`` the
smoke-test size, and ``bench`` the size the benchmark measures.  At
``bench`` the hosts and test-vertex counts are the paper ones, but the
forests are smaller (10 link and 10 meta trees for evaluate-ba30k, which
also trains on 5,000 pairs per class instead of 15,000; 10 trees for
score-directed; 30 for train-link-ba50k), so that one operation takes a
few seconds and a run repeats it several times within its time budget.

Seeds reuse ``run_experiment``'s substream layout ((seed, 0) generate,
(seed, 1) inject, (seed, 3) and (seed, 4) test vertices, (seed, 5) link
training pairs, (seed, 6) link forest), so the train-link workload with
seed 4321 at paper scale fits repetition 0's link forest of
``configs/fully_simulated_50k.cfg``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from linkanomaly import (anomaly, config, evaluation, features, forest, graph, io,
                         sampling)

MIN_FRIENDS = 3
THRESHOLD = 0.8
# profiles recomputed one pair at a time must match the batch ones this closely
PROFILE_TOLERANCE = 1e-9
RECOMPUTED_VERTICES = 20


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _split(examples, size: int):
    """run_experiment's train/holdout split of a build_link_training_set list."""
    per_class = len(examples) // 2
    negatives, positives = examples[:per_class], examples[per_class:]
    return negatives[:size] + positives[:size], negatives[size:] + positives[size:]


def _test_vertices(g, positives: int, negatives: int, seed: int):
    pos = sampling.sample_test_vertices(g, positives, graph.ANOMALOUS, MIN_FRIENDS, (seed, 3))
    neg = sampling.sample_test_vertices(g, negatives, graph.NORMAL, MIN_FRIENDS, (seed, 4))
    return pos, neg


# -- evaluate-ba30k -----------------------------------------------------------


@dataclass
class Report:
    report: evaluation.EvaluationReport
    text: str


class EvaluateBA30k:
    """``linkanomaly evaluate --set run_count=1`` on the 30k config, in process."""

    name = "evaluate-ba30k"
    CONFIG = "configs/fully_simulated_30k.cfg"
    OVERRIDES = {
        "paper": {},
        "bench": {"tree_count": "10", "meta_tree_count": "10",
                  "link_train_size_per_class": "5000"},
        "tiny": {"ba_n": "2000", "ba_m": "4", "test_positive_count": "20",
                 "test_negative_count": "120", "link_train_size_per_class": "300",
                 "link_holdout_per_class": "100", "tree_count": "5",
                 "meta_tree_count": "5", "folds": "5"},
    }

    def __init__(self, root: Path, workdir: Path, seed: int, scale: str):
        self.path = root / self.CONFIG
        self.overrides = {"run_count": "1", "master_seed": str(seed),
                          **self.OVERRIDES[scale]}

    def prepare(self) -> None:
        pass

    def setup(self):
        return config.load_config(self.path, self.overrides)

    def run(self, cfg) -> Report:
        report = evaluation.run_experiment(cfg)
        return Report(report, io.report_json(report))

    def check(self, cfg, out: Report, reference: Report | None) -> list[str]:
        if reference is not None and out.text != reference.text:
            return ["report JSON differs from the first run's"]
        return []

    def quality(self, cfg, out: Report) -> dict:
        r = out.report
        return {"auc": r.averaged["auc"], "link_auc": r.link_auc["mean"],
                "precision_at_100": r.precision_at_k.get(100)}

    def digests(self, out: Report) -> dict:
        return {"report_json": sha256(out.text)}


# -- score-directed ---------------------------------------------------------


def directed_host(n: int, out_degree: int, exponent: float, reciprocal: float,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge arrays of a directed host with power-law in-degrees.

    Every vertex draws ``out_degree`` targets with probability proportional
    to (i + 10) ** -exponent (duplicates and self-loops dropped), and a
    ``reciprocal`` share of edges gets its reverse edge as well.
    """
    rng = np.random.default_rng((seed, 100))
    weights = (np.arange(n) + 10.0) ** -exponent
    src = np.repeat(np.arange(n), out_degree)
    dst = rng.choice(n, size=len(src), p=weights / weights.sum())
    keep = src != dst
    src, dst = src[keep], dst[keep]
    back = rng.random(len(src)) < reciprocal
    key = np.unique(np.concatenate([src * n + dst, dst[back] * n + src[back]]))
    return key // n, key % n


@dataclass
class ScoreState:
    g: graph.Graph
    model: forest.LinkForest
    vertices: list[int]
    labels: dict[int, int]
    holdout_X: np.ndarray
    holdout_y: list[int]


@dataclass
class Scores:
    profiles: list
    skipped: list
    ranked: list[int]
    csv: bytes


class ScoreDirected:
    """``linkanomaly score`` then ``rank`` on a directed host and a trained model."""

    name = "score-directed"
    SIZES = {
        # vertices, out-degree, trees, training pairs per class, holdout
        # pairs per class, anomalous and normal test vertices
        "paper": dict(n=20000, out_degree=10, trees=150, train=5000, holdout=1000,
                      positives=100, negatives=900),
        "bench": dict(n=20000, out_degree=10, trees=10, train=5000, holdout=1000,
                      positives=100, negatives=900),
        "tiny": dict(n=1500, out_degree=6, trees=5, train=300, holdout=100,
                     positives=10, negatives=40),
    }

    def __init__(self, root: Path, workdir: Path, seed: int, scale: str):
        self.size = self.SIZES[scale]
        self.seed = seed
        self.edge_list = workdir / f"{self.name}-{scale}-{seed}.edges"
        self.profiles_csv = workdir / f"{self.name}-{scale}-{seed}.profiles.csv"

    def prepare(self) -> None:
        n = self.size["n"]
        src, dst = directed_host(n, self.size["out_degree"], 0.8, 0.3, self.seed)
        width = len(str(n - 1))
        names = [f"u{i:0{width}d}" for i in range(n)]
        self.edge_list.write_text("".join(f"{names[a]},{names[b]}\n"
                                          for a, b in zip(src.tolist(), dst.tolist())))

    def setup(self) -> ScoreState:
        s, seed = self.size, self.seed
        g = io.load_edge_list(self.edge_list, directed=True)
        g, _ = sampling.inject_anomalies(
            g, evaluation.injection_count(g.vertex_count, 0.10), (seed, 1))
        pos, neg = _test_vertices(g, s["positives"], s["negatives"], seed)
        excluded = set(pos.selected) | set(neg.selected)
        examples = sampling.build_link_training_set(g, excluded, s["train"] + s["holdout"],
                                                    (seed, 5))
        train, holdout = _split(examples, s["train"])
        model = forest.train_forest(train, forest.ForestParams(tree_count=s["trees"],
                                                               min_leaf_size=25),
                                    (seed, 6), feature_names=features.feature_names(True))
        return ScoreState(g, model, list(pos.selected) + list(neg.selected),
                          {**pos.labels, **neg.labels},
                          np.array([ex.features for ex in holdout]),
                          [ex.label for ex in holdout])

    def run(self, st: ScoreState) -> Scores:
        profiles, skipped = anomaly.profile_vertices(st.model, st.g, st.vertices,
                                                     THRESHOLD, "out")
        ranked = anomaly.rank_vertices(profiles, "abnormality_probability", "desc")
        io.write_profiles_csv(self.profiles_csv, profiles, st.g)
        return Scores(profiles, skipped, ranked, self.profiles_csv.read_bytes())

    def check(self, st: ScoreState, out: Scores, reference: Scores | None) -> list[str]:
        if reference is not None:
            return [] if out.csv == reference.csv else ["profiles differ from the first run's"]
        problems = [f"vertex {v} skipped" for v in out.skipped]
        by_vertex = {p.vertex: p for p in out.profiles}
        rng = np.random.default_rng((self.seed, 101))
        sample = rng.choice(sorted(by_vertex), size=min(RECOMPUTED_VERTICES, len(by_vertex)),
                            replace=False)
        for v in sample.tolist():
            scores = []
            for u in st.g.neighbors(v, "out").tolist():
                row = features.extract_edge_features(st.g, v, u).values.reshape(1, -1)
                scores.append(float(st.model.predict_proba_many(row)[0]))
            expected = anomaly.vertex_profile(scores, THRESHOLD, v, len(scores))
            got = by_vertex[v]
            for name in anomaly.META_FEATURE_NAMES:
                if abs(got.value(name) - expected.value(name)) > PROFILE_TOLERANCE:
                    problems.append(f"vertex {v} {name}: batch {got.value(name)!r} "
                                    f"vs pairwise {expected.value(name)!r}")
        return problems

    def quality(self, st: ScoreState, out: Scores) -> dict:
        truth = [st.labels[p.vertex] for p in out.profiles]
        link_scores = st.model.predict_proba_many(st.holdout_X)
        return {"auc": evaluation.auc([p.abnormality_probability for p in out.profiles], truth),
                "link_auc": evaluation.auc(link_scores, st.holdout_y),
                "precision_at_100": evaluation.precision_at_k(out.ranked, st.labels, 100)
                if len(out.ranked) >= 100 else None}

    def digests(self, out: Scores) -> dict:
        return {"profiles_csv": sha256(out.csv)}


# -- train-link-ba50k ---------------------------------------------------------


@dataclass
class HostState:
    g: graph.Graph
    excluded: set[int]


@dataclass
class LinkModel:
    model: forest.LinkForest
    holdout_scores: np.ndarray
    holdout_y: list[int]
    link_auc: float
    json: bytes


class TrainLinkBA50k:
    """``linkanomaly train-link`` on the 50k config's host, plus its holdout AUC."""

    name = "train-link-ba50k"
    SIZES = {
        "paper": dict(n=50000, m=4, trees=150, train=15000, holdout=1000,
                      positives=100, negatives=900),
        "bench": dict(n=50000, m=4, trees=30, train=15000, holdout=1000,
                      positives=100, negatives=900),
        "tiny": dict(n=2000, m=4, trees=5, train=500, holdout=100,
                     positives=10, negatives=40),
    }

    def __init__(self, root: Path, workdir: Path, seed: int, scale: str):
        self.size = self.SIZES[scale]
        self.seed = seed
        self.forest_json = workdir / f"{self.name}-{scale}-{seed}.forest.json"

    def prepare(self) -> None:
        pass

    def setup(self) -> HostState:
        s, seed = self.size, self.seed
        g = sampling.generate_ba(s["n"], s["m"], (seed, 0))
        g, _ = sampling.inject_anomalies(
            g, evaluation.injection_count(g.vertex_count, 0.10), (seed, 1))
        pos, neg = _test_vertices(g, s["positives"], s["negatives"], seed)
        return HostState(g, set(pos.selected) | set(neg.selected))

    def run(self, st: HostState) -> LinkModel:
        s, seed = self.size, self.seed
        examples = sampling.build_link_training_set(st.g, st.excluded,
                                                    s["train"] + s["holdout"], (seed, 5))
        train, holdout = _split(examples, s["train"])
        model = forest.train_forest(train, forest.ForestParams(tree_count=s["trees"],
                                                               min_leaf_size=25),
                                    (seed, 6), feature_names=features.feature_names(False))
        scores = model.predict_proba_many(np.array([ex.features for ex in holdout]))
        y = [ex.label for ex in holdout]
        link_auc = evaluation.auc(scores, y)
        model.save(self.forest_json)
        return LinkModel(model, scores, y, link_auc, self.forest_json.read_bytes())

    def check(self, st: HostState, out: LinkModel, reference: LinkModel | None) -> list[str]:
        problems = []
        s = out.holdout_scores
        if not (np.all(np.isfinite(s)) and np.all((s >= 0) & (s <= 1))):
            problems.append("holdout scores outside [0, 1]")
        if reference is None:
            return problems
        if len(out.model.trees) != len(reference.model.trees):
            problems.append("tree count differs from the first run's")
        for i, (a, b) in enumerate(zip(out.model.trees, reference.model.trees)):
            for part in ("feature", "threshold", "left", "right", "count0", "count1"):
                if not np.array_equal(getattr(a, part), getattr(b, part)):
                    problems.append(f"tree {i} {part} differs from the first run's")
        return problems

    def quality(self, st: HostState, out: LinkModel) -> dict:
        return {"auc": out.link_auc, "link_auc": out.link_auc, "precision_at_100": None}

    def digests(self, out: LinkModel) -> dict:
        return {"forest_json": sha256(out.json)}


WORKLOADS = {w.name: w for w in (EvaluateBA30k, ScoreDirected, TrainLinkBA50k)}
