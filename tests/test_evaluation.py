import csv
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from linkanomaly import (ANOMALOUS, NORMAL, ExperimentConfig, ForestParams, auc,
                         confusion_metrics, info_gain, k_fold_cv, precision_at_k,
                         run_experiment)
from linkanomaly import evaluation, forest
from linkanomaly.cli import main
from linkanomaly.errors import (ParameterError, PipelineError, ShapeError, StratificationError,
                                UndefinedMetricError)
from linkanomaly.evaluation import REPORT_SCHEMA_VERSION, EvaluationReport, injection_count
from linkanomaly.graph import Graph
from linkanomaly.io import report_json
from linkanomaly.rng import generator

from _oracles import auc_pair_counting, inspected_vertices_loop, k_fold_cv_loop


# -- auc ----------------------------------------------------------------------


def test_auc_perfect_and_inverted():
    assert auc([0.9, 0.1], [1, 0]) == 1.0
    assert auc([0.1, 0.9], [1, 0]) == 0.0


def test_auc_all_ties_half():
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        auc([0.1, 0.9], [1, 1])


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # discrete score grid makes ties common
        scores = rng.integers(0, 4, n) / 3.0
        assert abs(auc(scores, labels) - auc_pair_counting(scores, labels)) <= 1e-12


# -- confusion_metrics ----------------------------------------------------------


def test_confusion_perfect():
    m = confusion_metrics([1, 0, 1, 0], [1, 0, 1, 0])
    assert m == {"tpr": 1.0, "fpr": 0.0, "precision": 1.0}


def test_confusion_all_positive():
    m = confusion_metrics([1, 1, 1, 1], [1, 0, 1, 0])
    assert m["tpr"] == 1.0 and m["fpr"] == 1.0 and m["precision"] == 0.5


def test_confusion_all_negative_guarded():
    m = confusion_metrics([0, 0, 0, 0], [1, 0, 1, 0])
    assert m == {"tpr": 0.0, "fpr": 0.0, "precision": 0.0}


def test_confusion_shape_error():
    with pytest.raises(ShapeError):
        confusion_metrics([1, 0], [1, 0, 1])


# -- precision_at_k ---------------------------------------------------------------


def test_precision_at_k_values():
    labels = {i: 1 for i in range(10)}
    assert precision_at_k(list(range(10)), labels, 10) == 1.0
    labels = {i: 0 for i in range(10)}
    assert precision_at_k(list(range(10)), labels, 10) == 0.0
    labels = {0: 1, 1: 0, 2: 1, 3: 1, 4: 0}
    assert precision_at_k([0, 1, 2, 3, 4], labels, 4) == 0.75


def test_precision_at_k_parameter_errors():
    with pytest.raises(ParameterError):
        precision_at_k([1, 2], {1: 0, 2: 0}, 0)
    with pytest.raises(ParameterError):
        precision_at_k([1, 2], {1: 0, 2: 0}, 3)


def test_precision_at_k_prepend_monotonicity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        ranked = list(range(1, n + 1))
        labels = {v: int(rng.random() < 0.4) for v in ranked}
        labels[0] = 1
        k = int(rng.integers(1, n))
        before = precision_at_k(ranked, labels, k)
        after = precision_at_k([0] + ranked, labels, k + 1)
        assert after >= k * before / (k + 1) - 1e-12


# -- info_gain ---------------------------------------------------------------------


def test_info_gain_perfect_predictor():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 400)
    h = -(labels.mean() * np.log2(labels.mean())
          + (1 - labels.mean()) * np.log2(1 - labels.mean()))
    assert info_gain(labels.astype(float), labels, bins=5) == pytest.approx(h, abs=1e-12)


def test_info_gain_independent_feature_near_zero():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 2, 10_000)
    values = rng.random(10_000)
    assert info_gain(values, labels) <= 0.01


def test_info_gain_bounded_by_label_entropy():
    rng = np.random.default_rng(3)
    labels = np.array([0, 1] * 500)
    values = rng.random(1000)
    assert 0.0 <= info_gain(values, labels) <= 1.0


def test_info_gain_constant_labels_undefined():
    with pytest.raises(UndefinedMetricError):
        info_gain([1.0, 2.0], [1, 1])


# -- k_fold_cv --------------------------------------------------------------------


def _toy_profiles(n_pos, n_neg, seed=0):
    rng = np.random.default_rng(seed)
    X = np.zeros((n_pos + n_neg, 7))
    X[:n_pos, 0] = 1.0  # abnormality probability column separates
    X[:, 1:] = rng.random((n_pos + n_neg, 6))
    y = np.array([1] * n_pos + [0] * n_neg)
    return X, y


def test_cv_separable_is_perfect():
    X, y = _toy_profiles(30, 60)
    report = k_fold_cv(X, y, 10, seed=5)
    assert report.averaged["auc"] == 1.0
    assert report.averaged["fpr"] == 0.0


def test_cv_random_labels_near_half():
    rng = np.random.default_rng(4)
    X = rng.random((1000, 7))
    y = np.array([1] * 500 + [0] * 500)
    report = k_fold_cv(X, y, 10, seed=6)
    assert 0.4 <= report.averaged["auc"] <= 0.6


def test_cv_leave_one_out_separable():
    X, y = _toy_profiles(10, 10)
    report = k_fold_cv(X, y, 10, seed=7)
    assert report.averaged["tpr"] == 1.0


def test_cv_folds_partition_and_stratify():
    X, y = _toy_profiles(40, 80)
    report = k_fold_cv(X, y, 8, seed=8)
    assert len(report.folds) == 8
    # averaged equals the arithmetic mean of folds, exactly
    for name in ("auc", "tpr", "fpr", "precision"):
        mean = sum(e[name] for e in report.folds) / 8
        assert report.averaged[name] == mean


@pytest.mark.parametrize("seed, folds, params", [
    (11, 10, ForestParams(tree_count=10)),
    ((3, 7), 5, ForestParams(tree_count=7, min_leaf_size=3)),
    (12, 4, ForestParams(tree_count=3, features_per_split=2, max_depth=4)),
    (13, 2, ForestParams(tree_count=1)),
])
def test_cv_equals_per_fold_loop(seed, folds, params):
    rng = np.random.default_rng(folds)
    X = np.round(rng.normal(size=(300, 7)), 1)
    y = (X[:, 0] + rng.normal(size=300) > 1.0).astype(int)
    report = k_fold_cv(X, y, folds, seed, params)
    reference = k_fold_cv_loop(X, y, folds, seed, params)
    assert len(report.folds) == folds
    for field in fields(report):
        assert getattr(report, field.name) == getattr(reference, field.name), field.name


def _cv_forks(monkeypatch, rows, folds, tree_count):
    """os.fork calls one k_fold_cv makes, with 3 CPUs in the affinity set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    X, y = _toy_profiles(rows // 3, rows - rows // 3)
    k_fold_cv(X, y, folds, 5, ForestParams(tree_count=tree_count))
    monkeypatch.undo()
    return len(forks)


def test_cv_forks_once_per_extra_worker_above_the_floor(monkeypatch):
    # 5 folds of 160 training rows x 10 trees: each fold alone is under the
    # 5,000 rows x trees floor, the batch of all five is over it
    assert 160 * 10 < forest._MIN_PARALLEL_WORK <= 5 * 160 * 10
    assert _cv_forks(monkeypatch, 200, 5, 10) == 2
    with pytest.raises(ChildProcessError):  # every worker was waited for
        os.waitpid(-1, os.WNOHANG)
    # 4 folds of 30 training rows x 10 trees: the batch is under the floor
    assert 4 * 30 * 10 < forest._MIN_PARALLEL_WORK
    assert _cv_forks(monkeypatch, 40, 4, 10) == 0


def test_cv_stratification_error():
    X, y = _toy_profiles(3, 50)
    with pytest.raises(StratificationError):
        k_fold_cv(X, y, 10, seed=0)


def test_cv_fold_assignment_covers_everything():
    from linkanomaly.rng import generator

    y = np.array([0] * 55 + [1] * 33)
    folds = 7
    rng = generator((9, 0))
    fold_of = np.empty(len(y), dtype=np.int64)
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % folds
    # partition: every example in exactly one fold; ratios within 1
    for f in range(folds):
        members = fold_of == f
        pos = int((y[members] == 1).sum())
        assert abs(pos - 33 / folds) <= 1


# -- run_experiment ----------------------------------------------------------------


def _tiny_config(**overrides):
    base = dict(ba_n=1500, ba_m=4, master_seed=5, anomaly_fraction=0.10,
                test_positive_count=20, test_negative_count=120,
                link_train_size_per_class=300, link_holdout_per_class=100,
                tree_count=20, meta_tree_count=30, run_count=2, folds=5,
                min_leaf_size=5)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_composition_and_shape():
    report = run_experiment(_tiny_config())
    assert report.test_composition == {"anomalous": 20, "normal": 120}
    assert report.run_count == 2
    assert report.seeds == [5, 6]
    assert len(report.folds) == 10
    assert set(report.averaged) == {"auc", "tpr", "fpr", "precision"}
    assert report.link_auc is not None and 0 <= report.link_auc["mean"] <= 1
    assert set(report.info_gain) == set(
        ("abnormality_probability", "edges_probability_stdv", "sum_edge_label",
         "mean_predicted_link_label", "predicted_label_stdv",
         "edges_probability_median", "edge_count"))
    assert all(k <= 140 for k in report.precision_at_k)


def test_run_experiment_deterministic():
    from linkanomaly.io import report_json

    a = run_experiment(_tiny_config())
    b = run_experiment(_tiny_config())
    assert report_json(a) == report_json(b)


def test_run_experiment_null_band():
    config = _tiny_config(anomaly_source="random", ba_n=2500,
                          test_positive_count=30, test_negative_count=270,
                          run_count=2)
    report = run_experiment(config)
    assert 0.4 <= report.averaged["auc"] <= 0.6


@pytest.mark.parametrize("mode", ["selected", "endpoints"])
def test_exclusion_mode_decides_what_link_training_avoids(monkeypatch, mode):
    test_sets, excluded = [], []
    real_sample, real_build = evaluation.sample_test_vertices, evaluation.build_link_training_set

    def sample(*args):
        test_sets.append(real_sample(*args))
        return test_sets[-1]

    def build(g, avoid, *args):
        excluded.append(set(avoid))
        return real_build(g, avoid, *args)

    monkeypatch.setattr(evaluation, "sample_test_vertices", sample)
    monkeypatch.setattr(evaluation, "build_link_training_set", build)
    run_experiment(_tiny_config(exclusion_mode=mode, run_count=1, tree_count=5,
                                meta_tree_count=5, link_train_size_per_class=100))
    pos, neg = test_sets
    selected = set(pos.selected) | set(neg.selected)
    involved = set(pos.vertices.tolist()) | set(neg.vertices.tolist())
    assert excluded == [involved if mode == "endpoints" else selected]
    assert len(involved) > len(selected)


def test_audit_csv_lists_selected_vertices_and_their_qualifying_neighbors(tmp_path):
    # min_friends = ba_m: a neighbor of the least degree does not qualify
    config = _tiny_config(run_count=1, tree_count=5, meta_tree_count=5,
                          link_train_size_per_class=100, min_friends=4)
    run_experiment(config, audit_dir=tmp_path)
    g = evaluation._prepare_graph(config)
    selected, involved = set(), set()
    for count, label, stream in ((config.test_positive_count, ANOMALOUS, evaluation._S_TEST_POS),
                                  (config.test_negative_count, NORMAL, evaluation._S_TEST_NEG)):
        chosen, edges, _ = inspected_vertices_loop(g, count, label, config.min_friends,
                                                   generator((config.master_seed, stream)))
        selected.update(chosen)
        involved.update(chosen, *edges)  # an edge adds both its endpoints
    expected = [["vertex", "label", "selected"]] + [
        [g.name_of(v), str(g.label_of(v)), str(int(v in selected))] for v in sorted(involved)]
    with open(tmp_path / "run0_test_set.csv", encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == expected


# an output file that is an existing directory cannot be written either
@pytest.mark.parametrize("flag, kind", [
    *(pytest.param(flag, "missing", id=flag) for flag in ("--audit-dir", "--report-out", "--pk-out")),
    *(pytest.param(flag, "directory", id=f"{flag}-is-a-directory")
      for flag in ("--report-out", "--pk-out"))])
def test_evaluate_rejects_a_missing_output_directory_before_any_work(monkeypatch, tmp_path,
                                                                     capsys, flag, kind):
    prepared = []

    def prepare(config):
        prepared.append(config)
        raise RuntimeError("the experiment started")

    monkeypatch.setattr(evaluation, "_prepare_graph", prepare)
    config = tmp_path / "exp.cfg"
    config.write_text("ba_n = 1500\nba_m = 4\n")
    missing = tmp_path / "missing"
    paths = {"--audit-dir": tmp_path, "--report-out": tmp_path / "r.json",
             "--pk-out": tmp_path / "pk.csv"}
    paths[flag] = missing if flag == "--audit-dir" else missing / "out"
    if kind == "directory":
        missing.mkdir()
        paths[flag] = missing
    argv = ["-q", "evaluate", "--config", str(config)]
    assert main(argv + [str(x) for item in paths.items() for x in item]) == 1
    err = capsys.readouterr().err
    assert prepared == []
    assert err.startswith("usage error") and flag in err and str(missing) in err
    assert ("is a directory" in err) == (kind == "directory")


def test_random_labels_are_attached_to_the_host_without_building_it_again(monkeypatch):
    built = []
    real_init = Graph.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", init)
    config = _tiny_config(anomaly_source="random")
    g = evaluation._prepare_graph(config)
    assert len(built) == 1
    host = built[0]
    assert host.labels is None and g.edges is host.edges
    for mode in ("all", "in", "out"):
        assert all(a is b for a, b in zip(g._view(mode), host._view(mode)))
    # stream 2 of the master seed picks the anomalous vertices
    n = host.vertex_count
    chosen = generator(config.master_seed, 2).choice(
        n, size=round(n * config.anomaly_fraction), replace=False)
    expected = np.zeros(n, dtype=np.int8)
    expected[chosen] = ANOMALOUS
    assert g.labels.dtype == np.int8 and g.labels.tolist() == expected.tolist()


def test_report_holds_every_field_and_the_schema_version():
    names = {f.name for f in fields(EvaluationReport)}
    assert set(EvaluationReport().to_dict()) == {"schema_version"} | names
    # a new field changes the report bytes, so it has to be added here too
    assert names == {"folds", "averaged", "precision_at_k", "info_gain", "run_count", "seeds",
                     "test_composition", "link_auc", "config", "skipped_vertices"}
    data = json.loads(report_json(EvaluationReport(precision_at_k={10: 0.5, 100: 0.25})))
    assert data["precision_at_k"] == {"10": 0.5, "100": 0.25}
    assert data["schema_version"] == REPORT_SCHEMA_VERSION


def test_run_experiment_validates_config():
    with pytest.raises(ParameterError):
        run_experiment(ExperimentConfig())  # no graph source


def test_stage_names_errors_but_lets_interrupts_through(monkeypatch, tmp_path, capsys):
    def fail(*args):
        raise fail.error

    monkeypatch.setattr(evaluation, "generate_ba", fail)
    fail.error = ValueError("no host")
    with pytest.raises(PipelineError, match="stage 'prepare-graph': no host"):
        run_experiment(_tiny_config())
    # Ctrl-C during evaluate is an interrupt, not a "data error" with exit 2
    fail.error = KeyboardInterrupt()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(_tiny_config())
    config = tmp_path / "exp.cfg"
    config.write_text("ba_n = 1500\nba_m = 4\n")
    with pytest.raises(KeyboardInterrupt):
        main(["-q", "evaluate", "--config", str(config),
              "--report-out", str(tmp_path / "r.json"), "--pk-out", str(tmp_path / "pk.csv")])
    assert "error" not in capsys.readouterr().err


# -- injection_count -----------------------------------------------------------------


def test_injection_count_final_share():
    assert injection_count(30000, 0.10) == 3333
    assert injection_count(5, 0.01) == 1


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5, float("nan"), float("inf")])
def test_injection_count_rejects_fraction_outside_open_unit_interval(fraction):
    with pytest.raises(ParameterError, match=r"anomaly fraction must be in \(0, 1\)"):
        injection_count(100, fraction)
