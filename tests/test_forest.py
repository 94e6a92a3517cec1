import os
import signal

import numpy as np
import pytest

from linkanomaly import ForestParams, LinkForest, TrainingExample, forest, train_forest
from linkanomaly.errors import DegenerateTrainingError, ParameterError, ShapeError
from linkanomaly.rng import generator

from _oracles import grow_tree_reference


def _examples(X, y):
    return [TrainingExample(np.asarray(r, dtype=float), int(l)) for r, l in zip(X, y)]


def test_separable_single_feature():
    ex = _examples([[0.0]] * 100 + [[1.0]] * 100, [0] * 100 + [1] * 100)
    f = train_forest(ex, ForestParams(tree_count=10), seed=1)
    assert f.predict_proba_many([[0.0], [1.0]]).tolist() == [0.0, 1.0]
    # every tree must have split on the only feature
    assert all(t.feature[0] == 0 for t in f.trees)


def test_held_out_midpoint_goes_positive():
    ex = _examples([[0.0]] * 100 + [[1.0]] * 100, [0] * 100 + [1] * 100)
    f = train_forest(ex, ForestParams(tree_count=10), seed=1)
    assert f.predict_proba_many([[0.9]])[0] > 0.5


def test_unsplittable_point_votes_near_half():
    ex = _examples([[3.0], [3.0]], [0, 1])
    for seed in range(5):
        f = train_forest(ex, ForestParams(tree_count=100), seed=seed)
        assert 0.4 <= f.predict_proba_many([[3.0]])[0] <= 0.6


def test_same_seed_identical_predictions():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    probe = rng.normal(size=(50, 4))
    f1 = train_forest(None, ForestParams(tree_count=20), seed=7, X=X, y=y)
    f2 = train_forest(None, ForestParams(tree_count=20), seed=7, X=X, y=y)
    assert np.array_equal(f1.predict_proba_many(probe), f2.predict_proba_many(probe))


def test_training_order_invariance():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(150, 3))
    y = (X[:, 2] > 0.2).astype(int)
    probe = rng.normal(size=(20, 3))
    perm = rng.permutation(len(X))
    f1 = train_forest(None, ForestParams(tree_count=15), seed=3, X=X, y=y)
    f2 = train_forest(None, ForestParams(tree_count=15), seed=3, X=X[perm], y=y[perm])
    assert np.array_equal(f1.predict_proba_many(probe), f2.predict_proba_many(probe))


def test_single_class_rejected():
    ex = _examples([[0.0], [1.0]], [1, 1])
    with pytest.raises(DegenerateTrainingError):
        train_forest(ex, ForestParams(), seed=0)


def test_ragged_features_rejected():
    ex = [TrainingExample(np.array([1.0]), 0), TrainingExample(np.array([1.0, 2.0]), 1)]
    with pytest.raises(ShapeError):
        train_forest(ex, ForestParams(), seed=0)


def test_predict_shape_mismatch():
    ex = _examples([[0.0], [1.0]], [0, 1])
    f = train_forest(ex, ForestParams(tree_count=5), seed=0)
    with pytest.raises(ShapeError):
        f.predict_proba_many([[0.0, 1.0]])


def test_probabilities_bounded():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, 5))
    y = rng.integers(0, 2, 300)
    f = train_forest(None, ForestParams(tree_count=30), seed=1, X=X, y=y)
    p = f.predict_proba_many(rng.normal(size=(100, 5)))
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_pure_leaf_probabilities():
    # a forest of one stump over a clean split gives exact 0/1
    ex = _examples([[0.0]] * 50 + [[1.0]] * 50, [0] * 50 + [1] * 50)
    f = train_forest(ex, ForestParams(tree_count=1), seed=2)
    assert f.predict_proba_many([[1.0], [0.0]]).tolist() == [1.0, 0.0]


def _separable_benchmark(n=500, seed=0):
    # linearly separable with a real margin around the boundary
    rng = np.random.default_rng(seed)
    X, y = [], []
    while len(X) < n:
        row = rng.normal(size=2)
        margin = row[0] + 0.5 * row[1]
        if abs(margin) > 0.2:
            X.append(row)
            y.append(int(margin > 0))
    return np.array(X), np.array(y)


def test_linearly_separable_accuracy():
    X, y = _separable_benchmark()
    f = train_forest(None, ForestParams(tree_count=100), seed=1, X=X[:400], y=y[:400])
    pred = f.predict_proba_many(X[400:]) >= 0.5
    assert (pred == y[400:]).mean() >= 0.95


def test_tree_count_stability_log_loss():
    X, y = _separable_benchmark(seed=3)
    losses = {}
    for count in (10, 100):
        f = train_forest(None, ForestParams(tree_count=count), seed=5, X=X[:400], y=y[:400])
        p = np.clip(f.predict_proba_many(X[400:]), 1e-6, 1 - 1e-6)
        losses[count] = -np.mean(y[400:] * np.log(p) + (1 - y[400:]) * np.log(1 - p))
    assert losses[100] <= losses[10] + 0.05


def test_node_invariants():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 4))
    y = rng.integers(0, 2, 120)
    f = train_forest(None, ForestParams(tree_count=10), seed=9, X=X, y=y)
    for t in f.trees:
        internal = t.feature >= 0
        assert np.all(t.feature[internal] < 4)
        leaves = ~internal
        assert np.all((t.count0[leaves] + t.count1[leaves]) > 0)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] > 0).astype(int)
    f = train_forest(None, ForestParams(tree_count=12), seed=4, X=X, y=y,
                     feature_names=("a", "b", "c"))
    path = tmp_path / "forest.json"
    f.save(path)
    g = LinkForest.load(path)
    probe = rng.normal(size=(40, 3))
    assert np.array_equal(f.predict_proba_many(probe), g.predict_proba_many(probe))
    assert g.feature_names == ("a", "b", "c")
    assert g.params == f.params


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "not_forest.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ShapeError):
        LinkForest.load(path)


def test_bad_params_rejected():
    with pytest.raises(ParameterError):
        ForestParams(tree_count=0).validate()
    with pytest.raises(ParameterError):
        ForestParams(min_leaf_size=0).validate()


# -- trees grown by forked workers ---------------------------------------------


def _parallel_data():
    rng = np.random.default_rng(12)
    X = np.round(rng.normal(size=(400, 5)), 1)  # rounded: tied values at every node
    y = (X[:, 0] + X[:, 1] + rng.normal(size=400) > 0).astype(int)
    return X, y


def _serial_grow_trees(XT, y, params, mtry, key):
    return [forest._grow_tree(XT, y, params, mtry, generator(key, t))
            for t in range(params.tree_count)]


def _fit(monkeypatch, tmp_path, params, workers):
    """(trees, saved bytes): serial loop when workers is None, else forked."""
    if workers is None:
        monkeypatch.setattr(forest, "_grow_trees", _serial_grow_trees)
    else:
        monkeypatch.setattr(forest, "_worker_count", lambda trees, rows: min(workers, trees))
    X, y = _parallel_data()
    f = train_forest(None, params, seed=(5, 6), X=X, y=y)
    monkeypatch.undo()
    path = tmp_path / f"forest-{workers}.json"
    f.save(path)
    return f.trees, path.read_bytes()


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("tree_count", [1, 2, 3, 7, 30])
@pytest.mark.parametrize("variant", [{}, {"max_depth": 3}, {"features_per_split": 1},
                                     {"min_leaf_size": 7, "features_per_split": 5}],
                         ids=["default", "max_depth", "features_per_split", "min_leaf_size"])
def test_forked_workers_grow_the_serial_forest(monkeypatch, tmp_path, tree_count, variant):
    params = ForestParams(tree_count=tree_count, **variant)
    serial_trees, serial_bytes = _fit(monkeypatch, tmp_path, params, None)
    for workers in (2, 3):
        trees, data = _fit(monkeypatch, tmp_path, params, workers)
        _assert_no_children_left()
        assert data == serial_bytes
        assert len(trees) == tree_count
        for ours, theirs in zip(trees, serial_trees):
            for name, dtype in forest._NODE_ARRAYS:
                a, b = getattr(ours, name), getattr(theirs, name)
                assert a.dtype == dtype and np.array_equal(a, b)


@pytest.mark.parametrize("variant", [{}, {"max_depth": 3}, {"features_per_split": 1},
                                     {"min_leaf_size": 7, "features_per_split": 5},
                                     {"min_leaf_size": 25}],
                         ids=["default", "max_depth", "features_per_split", "min_leaf_size",
                              "min_leaf_25"])
def test_grow_tree_equals_per_feature_argsort_engine(variant):
    X, y = _parallel_data()
    y = y.astype(np.uint8)
    order = np.lexsort((y,) + tuple(X.T[::-1]))
    X, y = np.ascontiguousarray(X[order]), y[order]
    XT = X.T.copy()
    params = ForestParams(tree_count=1, **variant)
    mtry = params.features_per_split or 3
    for t in range(6):
        tree = forest._grow_tree(XT, y.astype(bool), params, mtry, generator((3, 4), t))
        reference = grow_tree_reference(X, y, params, mtry, generator((3, 4), t))
        ours = tuple(getattr(tree, name).tolist() for name, _ in forest._NODE_ARRAYS)
        assert ours == reference


def _failing_grow_tree(fail_tree, action):
    grow = forest._grow_tree

    def grow_or_fail(XT, y, params, mtry, rng):
        if rng.bit_generator.seed_seq.entropy[-1] == fail_tree:
            action()
        return grow(XT, y, params, mtry, rng)
    return grow_or_fail


class _TreeFailure(Exception):
    pass


def _raise():
    raise _TreeFailure("tree failed")


@pytest.mark.parametrize("fail_tree", [0, 1, 5])  # the parent's chunk and both workers'
def test_tree_error_raises_its_own_type_in_the_parent(monkeypatch, fail_tree):
    X, y = _parallel_data()
    monkeypatch.setattr(forest, "_worker_count", lambda trees, rows: 3)
    monkeypatch.setattr(forest, "_grow_tree", _failing_grow_tree(fail_tree, _raise))
    with pytest.raises(_TreeFailure, match="tree failed"):
        train_forest(None, ForestParams(tree_count=9), seed=1, X=X, y=y)
    _assert_no_children_left()


@pytest.mark.parametrize("fail_tree", [1, 2])
def test_killed_worker_chunk_is_regrown(monkeypatch, tmp_path, fail_tree):
    params = ForestParams(tree_count=8)
    _, serial_bytes = _fit(monkeypatch, tmp_path, params, None)
    parent = os.getpid()

    def die_in_worker():
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(forest, "_grow_tree", _failing_grow_tree(fail_tree, die_in_worker))
    monkeypatch.setattr(forest, "_worker_count", lambda trees, rows: 3)
    X, y = _parallel_data()
    f = train_forest(None, params, seed=(5, 6), X=X, y=y)
    _assert_no_children_left()
    path = tmp_path / "regrown.json"
    f.save(path)
    assert path.read_bytes() == serial_bytes


def test_worker_count_bounds():
    cpus = len(os.sched_getaffinity(0))
    assert forest._worker_count(1, 10**6) == 1
    assert forest._worker_count(30, 10) == 1  # below the fit-size floor
    assert forest._worker_count(30, 30000) == min(cpus, 30)
    assert forest._worker_count(2, 30000) == min(cpus, 2)


def test_labels_other_than_0_and_1_rejected():
    with pytest.raises(ParameterError, match="labels must be 0 or 1"):
        train_forest(None, ForestParams(tree_count=2), seed=0,
                     X=[[0.0], [1.0], [2.0]], y=[0, 1, 2])
