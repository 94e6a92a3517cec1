import json
import os
import pickle
import signal

import numpy as np
import pytest

from linkanomaly import (ForestParams, LinkForest, TrainingExample, forest, train_forest,
                         train_forests)
from linkanomaly.errors import DegenerateTrainingError, ParameterError, ShapeError
from linkanomaly.rng import generator

from _oracles import grow_tree_reference, predict_proba_loop


def _examples(X, y):
    return [TrainingExample(np.asarray(r, dtype=float), int(l)) for r, l in zip(X, y)]


def _names(d):
    return tuple(f"f{i}" for i in range(d))


def _fit_examples(ex, params, seed):
    return train_forest(ex, params, seed, feature_names=_names(len(ex[0].features)))


def _fit_arrays(X, y, params, seed):
    """The forest a lone array fit gives."""
    return train_forests([(X, y, seed)], params, _names(np.shape(X)[1]))[0]


def test_separable_single_feature():
    ex = _examples([[0.0]] * 100 + [[1.0]] * 100, [0] * 100 + [1] * 100)
    f = _fit_examples(ex, ForestParams(tree_count=10), 1)
    assert f.predict_proba_many([[0.0], [1.0]]).tolist() == [0.0, 1.0]
    # every tree must have split on the only feature
    assert all(t.feature[0] == 0 for t in f.trees)


def test_held_out_midpoint_goes_positive():
    ex = _examples([[0.0]] * 100 + [[1.0]] * 100, [0] * 100 + [1] * 100)
    f = _fit_examples(ex, ForestParams(tree_count=10), 1)
    assert f.predict_proba_many([[0.9]])[0] > 0.5


def test_unsplittable_point_votes_near_half():
    ex = _examples([[3.0], [3.0]], [0, 1])
    for seed in range(5):
        f = _fit_examples(ex, ForestParams(tree_count=100), seed)
        assert 0.4 <= f.predict_proba_many([[3.0]])[0] <= 0.6


def test_same_seed_identical_predictions():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    probe = rng.normal(size=(50, 4))
    f1 = _fit_arrays(X, y, ForestParams(tree_count=20), 7)
    f2 = _fit_arrays(X, y, ForestParams(tree_count=20), 7)
    assert np.array_equal(f1.predict_proba_many(probe), f2.predict_proba_many(probe))


def test_training_order_invariance():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(150, 3))
    y = (X[:, 2] > 0.2).astype(int)
    probe = rng.normal(size=(20, 3))
    perm = rng.permutation(len(X))
    f1 = _fit_arrays(X, y, ForestParams(tree_count=15), 3)
    f2 = _fit_arrays(X[perm], y[perm], ForestParams(tree_count=15), 3)
    assert np.array_equal(f1.predict_proba_many(probe), f2.predict_proba_many(probe))


def test_single_class_rejected():
    ex = _examples([[0.0], [1.0]], [1, 1])
    with pytest.raises(DegenerateTrainingError):
        _fit_examples(ex, ForestParams(), 0)


def test_ragged_features_rejected():
    ex = [TrainingExample(np.array([1.0]), 0), TrainingExample(np.array([1.0, 2.0]), 1)]
    with pytest.raises(ShapeError):
        _fit_examples(ex, ForestParams(), 0)


def test_predict_shape_mismatch():
    ex = _examples([[0.0], [1.0]], [0, 1])
    f = _fit_examples(ex, ForestParams(tree_count=5), 0)
    with pytest.raises(ShapeError):
        f.predict_proba_many([[0.0, 1.0]])


def test_probabilities_bounded():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, 5))
    y = rng.integers(0, 2, 300)
    f = _fit_arrays(X, y, ForestParams(tree_count=30), 1)
    p = f.predict_proba_many(rng.normal(size=(100, 5)))
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_pure_leaf_probabilities():
    # a forest of one stump over a clean split gives exact 0/1
    ex = _examples([[0.0]] * 50 + [[1.0]] * 50, [0] * 50 + [1] * 50)
    f = _fit_examples(ex, ForestParams(tree_count=1), 2)
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
    f = _fit_arrays(X[:400], y[:400], ForestParams(tree_count=100), 1)
    pred = f.predict_proba_many(X[400:]) >= 0.5
    assert (pred == y[400:]).mean() >= 0.95


def test_tree_count_stability_log_loss():
    X, y = _separable_benchmark(seed=3)
    losses = {}
    for count in (10, 100):
        f = _fit_arrays(X[:400], y[:400], ForestParams(tree_count=count), 5)
        p = np.clip(f.predict_proba_many(X[400:]), 1e-6, 1 - 1e-6)
        losses[count] = -np.mean(y[400:] * np.log(p) + (1 - y[400:]) * np.log(1 - p))
    assert losses[100] <= losses[10] + 0.05


def test_node_invariants():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 4))
    y = rng.integers(0, 2, 120)
    f = _fit_arrays(X, y, ForestParams(tree_count=10), 9)
    for t in f.trees:
        internal = t.feature >= 0
        assert np.all(t.feature[internal] < 4)
        leaves = ~internal
        assert np.all((t.count0[leaves] + t.count1[leaves]) > 0)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] > 0).astype(int)
    f = train_forests([(X, y, 4)], ForestParams(tree_count=12), ("a", "b", "c"))[0]
    path = tmp_path / "forest.json"
    f.save(path)
    g = LinkForest.load(path)
    probe = rng.normal(size=(40, 3))
    assert np.array_equal(f.predict_proba_many(probe), g.predict_proba_many(probe))
    assert g.feature_names == ("a", "b", "c")
    assert g.params == f.params


@pytest.mark.parametrize("columns, names, message", [
    (0, (), r"bad training shapes X=\(10, 0\)"),
    (3, _names(5), "must list 3 strings"),
    (3, (0, 1, 2), "must list 3 strings"),
], ids=["no_columns", "more_names_than_columns", "names_not_strings"])
def test_fit_refuses_what_load_refuses(monkeypatch, tmp_path, columns, names, message):
    # each fit used to grow a forest whose saved file its own loader rejects
    X = np.random.default_rng(0).normal(size=(10, columns))
    y = np.arange(10) % 2
    monkeypatch.setattr(forest, "_grow_trees", lambda fits, params: pytest.fail("grew trees"))
    with pytest.raises(ShapeError, match=message):
        f = train_forests([(X, y, 1)], ForestParams(tree_count=2), names)[0]
        f.save(tmp_path / "forest.json")
        LinkForest.load(tmp_path / "forest.json")


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


def _batch():
    """Three fits with different row counts, seeds and column orders."""
    X, y = _parallel_data()
    return [(X, y, (5, 6)), (X[:250], y[:250], (5, 7)), (X[:120, ::-1], y[:120], 8)]


def _serial_grow_trees(fits, params):
    return [[forest._grow_weighted_tree(forest._distinct_rows(XT, y), params, generator(key, t))
             for t in range(params.tree_count)] for XT, y, key in fits]


def _saved(f, path):
    f.save(path)
    return path.read_bytes()


def _fit(monkeypatch, tmp_path, params, workers, fits=None):
    """Each fit's (trees, saved bytes): serial loop when workers is None, else forked.

    The fits default to the first of `_batch()` alone.
    """
    if workers is None:
        monkeypatch.setattr(forest, "_grow_trees", _serial_grow_trees)
    else:
        monkeypatch.setattr(forest, "_worker_count", lambda jobs, work: min(workers, jobs))
    fits = fits or _batch()[:1]
    forests = train_forests(fits, params, _names(np.shape(fits[0][0])[1]))
    monkeypatch.undo()
    return [(f.trees, _saved(f, tmp_path / f"forest-{workers}-{i}.json"))
            for i, f in enumerate(forests)]


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("tree_count", [1, 2, 3, 7, 30])
@pytest.mark.parametrize("variant", [{}, {"max_depth": 3}, {"features_per_split": 1},
                                     {"min_leaf_size": 7, "features_per_split": 5}],
                         ids=["default", "max_depth", "features_per_split", "min_leaf_size"])
def test_forked_workers_grow_the_serial_forest(monkeypatch, tmp_path, tree_count, variant):
    params = ForestParams(tree_count=tree_count, **variant)
    [(serial_trees, serial_bytes)] = _fit(monkeypatch, tmp_path, params, None)
    for workers in (2, 3):
        [(trees, data)] = _fit(monkeypatch, tmp_path, params, workers)
        _assert_no_children_left()
        assert data == serial_bytes
        assert len(trees) == tree_count
        for ours, theirs in zip(trees, serial_trees):
            for name, dtype in forest._NODE_ARRAYS:
                a, b = getattr(ours, name), getattr(theirs, name)
                assert a.dtype == dtype and np.array_equal(a, b)


@pytest.mark.parametrize("workers", [None, 1, 2, 3])
def test_batched_fits_equal_lone_fits(monkeypatch, tmp_path, workers):
    # 7 trees a fit: with 2 or 3 workers a chunk's jobs straddle the fits
    params = ForestParams(tree_count=7)
    lone = [_saved(_fit_arrays(X, y, params, seed), tmp_path / f"lone-{i}.json")
            for i, (X, y, seed) in enumerate(_batch())]
    batch = _fit(monkeypatch, tmp_path, params, workers, _batch())
    _assert_no_children_left()
    assert [data for _, data in batch] == lone


def test_batch_checks_every_fit_before_growing(monkeypatch):
    X, y = _parallel_data()
    monkeypatch.setattr(forest, "_grow_trees", lambda fits, params: pytest.fail("grew trees"))
    with pytest.raises(DegenerateTrainingError, match="single class"):
        train_forests([(X, y, 1), (X, np.zeros_like(y), 2)], ForestParams(tree_count=3),
                      _names(5))


# -- trees grown on distinct rows, weighted -----------------------------------------


def _reference_fits():
    """Fits whose rows repeat, and fits whose rows are all or nearly all distinct."""
    from linkanomaly import (Graph, build_link_training_set, generate_ba, inject_anomalies,
                             vertex_profile)

    g = generate_ba(300, 3, (1, 0))
    g, _ = inject_anomalies(g, 30, (1, 1))
    examples = build_link_training_set(g, set(), 500, (1, 2))
    rng = np.random.default_rng(27)
    integers = np.column_stack([rng.integers(0, k, 700) for k in (2, 3, 4, 5)]).astype(float)
    half = integers[:350, 1:]
    zeros = rng.choice([-0.0, 0.0, -1.0, 1.0, 2.0], size=(900, 4))
    directed = Graph([f"v{i:03d}" for i in range(300)], rng.integers(0, 300, (1500, 2)), True)
    directed, _ = inject_anomalies(directed, 30, (2, 1))
    directed_examples = build_link_training_set(directed, set(), 500, (2, 2))
    # a vertex's edge scores: anomalous ones lean higher, as the link forest's do
    meta_y = (rng.random(600) < 0.3).astype(int)
    profiles = [vertex_profile(rng.beta(2.0 + 2.0 * label, 4.0, rng.integers(1, 40)), 0.5, v)
                for v, label in enumerate(meta_y)]
    return {
        # a link row is almost a function of its unordered degree pair
        "link_features": (np.array([ex.features for ex in examples]),
                          np.array([ex.label for ex in examples])),
        "integer_columns": (integers, (integers[:, 0] + integers[:, 3] + rng.integers(0, 3, 700)
                                       > 4).astype(int)),
        # every row twice, once with each label, and some a third time
        "rows_differing_only_in_label": (np.vstack([half, half, half[:100]]),
                                         np.r_[np.zeros(350), np.ones(350),
                                               rng.integers(0, 2, 100)].astype(int)),
        "rows_differing_only_in_zero_sign": (zeros, ((zeros[:, 0] > 0) ^ (zeros[:, 1] < 0)
                                                     ^ (rng.random(900) < 0.2)).astype(int)),
        # nearly every row distinct: rounded normals, a directed host's 16 link
        # features, and the seven meta-features of a profile batch
        "parallel_data": _parallel_data(),
        "directed_link_features": (np.array([ex.features for ex in directed_examples]),
                                   np.array([ex.label for ex in directed_examples])),
        "meta_profiles": (np.array([p.as_row() for p in profiles]), meta_y),
    }


_VARIANTS = {"default": {}, "max_depth": {"max_depth": 3}, "features_per_split": {
    "features_per_split": 1}, "min_leaf_size": {"min_leaf_size": 7, "features_per_split": 5},
    "min_leaf_25": {"min_leaf_size": 25}}


def _assert_same_trees(ours, theirs):
    for a, b in zip(ours, theirs, strict=True):
        for name, dtype in forest._NODE_ARRAYS:
            x, z = getattr(a, name), getattr(b, name)
            assert x.dtype == z.dtype == dtype and x.tobytes() == z.tobytes(), name


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
@pytest.mark.parametrize("name", ["directed_link_features", "integer_columns", "link_features",
                                  "meta_profiles", "parallel_data",
                                  "rows_differing_only_in_label",
                                  "rows_differing_only_in_zero_sign"])
def test_weighted_tree_equals_per_row_engines(monkeypatch, tmp_path, name, variant):
    # node for node against the per-row `grow_tree_reference`, then the forest's
    # bytes serial against forked
    X, y = _reference_fits()[name]
    params = ForestParams(tree_count=6, **_VARIANTS[variant])
    XT, yb = forest._canonical(X, y, _names(X.shape[1]))
    rows = forest._distinct_rows(XT, yb)
    calls = {"_weighted_scan": 0, "_weighted_split": 0}
    for search in calls:
        def counted(*args, search=search, found=getattr(forest, search)):
            calls[search] += 1
            return found(*args)
        monkeypatch.setattr(forest, search, counted)
    mtry = min(params.features_per_split or int(np.ceil(np.sqrt(X.shape[1]))), X.shape[1])
    ours = [forest._grow_weighted_tree(rows, params, generator((4, 5), t)) for t in range(6)]
    monkeypatch.undo()
    sorted_X, sorted_y = XT.T.copy(), yb.astype(np.uint8)
    for t, tree in enumerate(ours):
        reference = grow_tree_reference(sorted_X, sorted_y, params, mtry, generator((4, 5), t))
        assert tuple(getattr(tree, a).tolist() for a, _ in forest._NODE_ARRAYS) == reference
    # the whole-forest bytes, serial and forked
    [(_, serial_bytes)] = _fit(monkeypatch, tmp_path, params, None, [(X, y, (4, 5))])
    for workers in (1, 2, 3):
        [(trees, data)] = _fit(monkeypatch, tmp_path, params, workers, [(X, y, (4, 5))])
        _assert_no_children_left()
        _assert_same_trees(trees, ours)
        assert data == serial_bytes
    assert calls["_weighted_scan"] > 0 and calls["_weighted_split"] > 0, calls


def test_distinct_rows_hold_one_float_per_distinct_bit_pattern():
    adjacent = np.nextafter(1.0, 2.0) + np.arange(3) * np.spacing(1.0)
    values = np.r_[-0.0, 0.0, 5e-324, -5e-324, adjacent, 7.0]
    XT = np.random.default_rng(8).choice(values, size=(2, 400))
    XT = XT.take(np.lexsort(XT[::-1]), axis=1)
    y = np.zeros(400, dtype=bool)
    _, GT, _, cols = forest._distinct_rows(XT, y)
    for col, lst in zip(GT, cols):
        assert [x.hex() for x in lst] == [x.hex() for x in col.tolist()]  # -0.0 stays -0.0
        assert len({id(x) for x in lst}) == len(np.unique(col.view(np.int64)))


def _split_columns(rng, size):
    """Columns with heavy ties, signed zeros, runs of adjacent floats, and none of these."""
    adjacent = np.nextafter(1.0, 2.0) + np.arange(4) * np.spacing(1.0)  # odd mantissa first
    return {
        "ties": rng.integers(0, 4, size) * 0.5,
        "signed_zeros": rng.choice([-0.0, 0.0, -1.0, 1.0], size),
        "adjacent": rng.choice(adjacent, size),
        "adjacent_zeros": rng.choice([-0.0, 0.0, 5e-324, 1e-323, -5e-324], size),
        "continuous": rng.normal(size=size),
    }


def _split_bits(found):
    return None if found is None else (found[0].hex(), found[1].hex(), found[2])


@pytest.mark.parametrize("min_leaf", [1, 3, 25])
def test_weighted_scan_equals_numpy_split(min_leaf):
    rng = np.random.default_rng(min_leaf + 100)
    checked = found = 0
    for _ in range(40):
        labels = rng.random(90) < rng.random()
        for name, column in _split_columns(rng, 90).items():
            idx = np.flatnonzero(rng.random(90) < 0.6)  # a node's distinct rows
            w = rng.integers(0, 4, 90) * (rng.random(90) < 0.9)  # drawn 0 to 3 times
            idx = idx[w[idx] > 0]
            w1 = w * labels
            n, n1 = int(w[idx].sum()), int(w1[idx].sum())
            for parent_score in (1.0 - ((n - n1) ** 2 + n1 ** 2) / (n * n), 1.0):
                scan = forest._weighted_scan(column.tolist(), idx.tolist(), w.tolist(),
                                             w1.tolist(), n, n1, min_leaf, parent_score)
                split = forest._weighted_split(column, idx, w, w1, n, n1, min_leaf,
                                               parent_score)
                assert _split_bits(scan) == _split_bits(split), name
                checked += 1
                found += scan is not None
    assert found > checked // 4


# -- predict -------------------------------------------------------------------------


def _layouts(X):
    """X as 0 rows, 1 row, C order, Fortran order and two strided slices."""
    wide = np.repeat(X, 2, axis=1)
    return [X[:0], X[:1], X, np.asfortranarray(X), X[::3], wide[:, ::2]]


@pytest.mark.parametrize("d", [7, 16])
@pytest.mark.parametrize("tree_count", [1, 30])
def test_predict_equals_per_tree_walk_over_row_major_X(d, tree_count):
    rng = np.random.default_rng(d)
    X = np.round(rng.normal(size=(500, d)), 1)
    y = (X[:, 0] + X[:, 1] * X[:, d - 1] + rng.normal(size=500) > 0).astype(int)
    f = _fit_arrays(X, y, ForestParams(tree_count=tree_count), (d, tree_count))
    # rows on the thresholds themselves check that ties go left
    thresholds = np.concatenate([t.threshold[t.feature >= 0] for t in f.trees])
    probe = np.vstack([X[:200], rng.normal(size=(100, d)),
                       rng.choice(thresholds, size=(100, d))])
    for layout in _layouts(probe):
        got = f.predict_proba_many(layout)
        assert got.shape == (len(layout),)
        assert got.tobytes() == predict_proba_loop(f, layout).tobytes()


@pytest.mark.parametrize("directed", [False, True])
def test_predict_reads_the_feature_buffer_without_a_copy(monkeypatch, directed):
    from linkanomaly import Graph, build_link_training_set, extract_feature_matrix, feature_names

    rows = np.random.default_rng(9).integers(0, 300, (1500, 2))
    g = Graph([f"v{i:03d}" for i in range(300)], rows, directed)
    examples = build_link_training_set(g, set(), 200, (1, 2))
    f = train_forest(examples, ForestParams(tree_count=3), 5,
                     feature_names=feature_names(directed))
    X = extract_feature_matrix(g, g.edges[:150])
    assert X.flags.f_contiguous and X.T.flags.c_contiguous
    walked = []
    leaf_fraction = forest._Tree.leaf_fraction

    def spy(tree, XT):
        walked.append(XT)
        return leaf_fraction(tree, XT)

    monkeypatch.setattr(forest._Tree, "leaf_fraction", spy)
    got = f.predict_proba_many(X)
    assert len(walked) == 3 and all(np.shares_memory(XT, X) for XT in walked)
    assert got.tobytes() == f.predict_proba_many(np.ascontiguousarray(X)).tobytes()


def test_predict_loaded_forest_with_scattered_children(tmp_path):
    # right child before left, unreached nodes between; a one-leaf second tree
    tree = {"feature": [1, -1, 0, -1, 0, -1, -1, 1, -1, -1],
            "threshold": [0.5, 0.0, -1.0, 0.0, 2.0, 0.0, 0.0, -0.25, 0.0, 0.0],
            "left": [4, -1, 6, -1, 7, -1, -1, 9, -1, -1],
            "right": [2, -1, 3, -1, 5, -1, -1, 8, -1, -1],
            "count0": [9, 1, 6, 1, 5, 2, 5, 3, 0, 3],
            "count1": [6, 1, 3, 3, 7, 2, 0, 5, 4, 1]}
    leaf = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
            "count0": [2], "count1": [3]}
    path = tmp_path / "forest.json"
    path.write_text(json.dumps({
        "format": forest.FOREST_FORMAT, "version": forest.FOREST_VERSION, "n_features": 2,
        "feature_names": ["a", "b"], "seed": [1], "trees": [tree, leaf],
        "params": {"tree_count": 2, "features_per_split": None, "min_leaf_size": 1,
                   "max_depth": None}}))
    f = LinkForest.load(path)
    X = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [-1.0, 1.0], [0.0, -0.25],
                  [2.0, -0.25]])
    # leaves reached: 8, 3, 5, 6, 9 and 9 (ties go left), each averaged with 3/5
    assert f.predict_proba_many(X).tolist() == pytest.approx(
        [(1.0 + 0.6) / 2, (0.75 + 0.6) / 2, (0.5 + 0.6) / 2, (0.0 + 0.6) / 2,
         (0.25 + 0.6) / 2, (0.25 + 0.6) / 2])
    for layout in _layouts(X):
        assert f.predict_proba_many(layout).tobytes() == predict_proba_loop(f, layout).tobytes()


def _failing_grow_tree(fail_tree, action):
    """(`_grow_weighted_tree` that first runs `action` for the tree whose stream is
    `fail_tree`, the list of trees it ran `action` for in this process)."""
    grow, fired = forest._grow_weighted_tree, []

    def grow_or_fail(rows, params, rng):
        key = tuple(rng.bit_generator.seed_seq.entropy)
        if key == fail_tree:
            fired.append(key)
            action()
        return grow(rows, params, rng)
    return grow_or_fail, fired


class _TreeFailure(Exception):
    pass


def _raise():
    raise _TreeFailure("tree failed")


# a fit's key and tree index; with 3 workers, job j of the batch is in chunk j % 3
@pytest.mark.parametrize("fail_tree", [(1, 0), (1, 1), (1, 5), (2, 0), (2, 1), (2, 5)],
                         ids=["fit0-parent", "fit0-worker1", "fit0-worker2",
                              "fit1-parent", "fit1-worker1", "fit1-worker2"])
def test_tree_error_raises_its_own_type_in_the_parent(monkeypatch, fail_tree):
    X, y = _parallel_data()
    grow_or_fail, fired = _failing_grow_tree(fail_tree, _raise)
    monkeypatch.setattr(forest, "_worker_count", lambda jobs, work: 3)
    monkeypatch.setattr(forest, "_grow_weighted_tree", grow_or_fail)
    with pytest.raises(_TreeFailure, match="tree failed"):
        train_forests([(X, y, 1), (X[:250], y[:250], 2)], ForestParams(tree_count=9),
                      _names(5))
    _assert_no_children_left()
    assert fired == [fail_tree]  # in the parent: grown there, or regrown after its worker failed


# the batch's 8-tree fits make (5, 7, 2) job 10 and (5, 7, 3) job 11
@pytest.mark.parametrize("fail_tree", [(5, 6, 1), (5, 6, 2), (5, 7, 2), (5, 7, 3)],
                         ids=["fit0-worker1", "fit0-worker2", "fit1-worker1", "fit1-worker2"])
def test_killed_worker_chunk_is_regrown(monkeypatch, tmp_path, fail_tree):
    params = ForestParams(tree_count=8)
    fits = _batch()[:2]
    serial_bytes = [data for _, data in _fit(monkeypatch, tmp_path, params, None, fits)]
    parent = os.getpid()

    def die_in_worker():
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    grow_or_fail, fired = _failing_grow_tree(fail_tree, die_in_worker)
    monkeypatch.setattr(forest, "_grow_weighted_tree", grow_or_fail)
    regrown = _fit(monkeypatch, tmp_path, params, 3, fits)
    _assert_no_children_left()
    assert fired == [fail_tree]  # the tree's worker died on it, and the parent regrew it
    assert [data for _, data in regrown] == serial_bytes


def test_worker_killed_mid_write_is_regrown(monkeypatch, tmp_path):
    params = ForestParams(tree_count=8)
    fits = _batch()[:2]
    serial_bytes = [data for _, data in _fit(monkeypatch, tmp_path, params, None, fits)]
    dumps = pickle.dumps

    def dump_half_then_die(obj, out, protocol):  # runs only in a worker
        data = dumps(obj, protocol)
        out.write(data[:len(data) // 2])
        out.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(pickle, "dump", dump_half_then_die)
    regrown = _fit(monkeypatch, tmp_path, params, 3, fits)
    _assert_no_children_left()
    assert [data for _, data in regrown] == serial_bytes


# (CPUs in the affinity set, the os.fork calls that fail)
@pytest.mark.parametrize("cpus, failing", [(2, {1}), (3, {1}), (3, {2})],
                         ids=["2cpus-first", "3cpus-first", "3cpus-second"])
def test_fork_failure_leaves_the_rest_to_the_parent(monkeypatch, tmp_path, cpus, failing):
    params = ForestParams(tree_count=8)
    fits = _batch()[:2]
    serial_bytes = [data for _, data in _fit(monkeypatch, tmp_path, params, None, fits)]
    real_fork, calls = os.fork, []

    def fork():
        calls.append(len(calls) + 1)
        if calls[-1] in failing:
            raise OSError("no process to be had")
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", fork)
    forests = train_forests(fits, params, _names(5))
    monkeypatch.undo()
    _assert_no_children_left()
    assert calls == list(range(1, max(failing) + 1))  # no fork after the one that failed
    assert [_saved(f, tmp_path / f"fallback-{i}.json") for i, f in enumerate(forests)] == serial_bytes


def test_worker_count_bounds():
    cpus = len(os.sched_getaffinity(0))
    floor = forest._MIN_PARALLEL_WORK
    assert forest._worker_count(1, 10**6) == 1
    assert forest._worker_count(30, 30 * 10) == 1  # below the fit-size floor
    assert forest._worker_count(30, 30 * 30000) == min(cpus, 30)
    assert forest._worker_count(2, 2 * 30000) == min(cpus, 2)
    # the floor counts the whole batch's rows x trees
    assert forest._worker_count(100, floor - 1) == 1
    assert forest._worker_count(100, floor) == min(cpus, 100)


def test_labels_other_than_0_and_1_rejected():
    with pytest.raises(ParameterError, match="labels must be 0 or 1"):
        _fit_arrays([[0.0], [1.0], [2.0]], [0, 1, 2], ForestParams(tree_count=2), 0)
