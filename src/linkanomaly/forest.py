"""Seeded random-forest classifier over edge feature vectors.

Scores are vote fractions: the mean over trees of the positive-class
fraction in the reached leaf, where positive (label 1) means "this edge
should not exist".  Training is reproducible by construction:

* examples are canonically sorted before any sampling, so the forest is
  independent of input order;
* every random draw comes from a generator keyed on (seed, tree index),
  so the trees do not depend on which process grows them: a fit grows
  them in parallel on every CPU in the process's affinity set (the caller
  and one forked worker per further CPU), and `taskset -c 0` makes it
  serial;
* split ties are broken by lowest feature index, then lowest threshold.

Splits use Gini impurity with midpoint thresholds between sorted distinct
values.  Like the usual reference implementations, the search keeps
scanning features beyond `features_per_split` if the drawn subset yields
no impurity-reducing split, and gives up (leaf) only when no feature does.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateTrainingError, ParameterError, ShapeError, named_decode_error
from .rng import generator, seed_key

FOREST_FORMAT = "linkanomaly-forest"
FOREST_VERSION = 1

# gains below this are treated as no improvement (guards float noise)
_MIN_GAIN = 1e-12

# rows x trees below which a fit grows its trees in one process: forking
# and piping the trees back cost a few ms, as much as such a fit saves
_MIN_PARALLEL_WORK = 5_000


@dataclass(frozen=True)
class TrainingExample:
    """One labeled pair: label 1 = edge does not exist (anomaly direction)."""

    features: np.ndarray
    label: int


@dataclass(frozen=True)
class ForestParams:
    tree_count: int = 100
    features_per_split: int | None = None  # None -> ceil(sqrt(n_features))
    min_leaf_size: int = 1
    max_depth: int | None = None

    def validate(self) -> None:
        if self.tree_count < 1:
            raise ParameterError("tree_count must be >= 1")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ParameterError("features_per_split must be >= 1")
        if self.min_leaf_size < 1:
            raise ParameterError("min_leaf_size must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ParameterError("max_depth must be >= 0")


# a tree's node arrays as saved, with their dtypes
_NODE_ARRAYS = (("feature", np.int32), ("threshold", np.float64), ("left", np.int32),
                ("right", np.int32), ("count0", np.int64), ("count1", np.int64))


@dataclass
class _Tree:
    """Flat node arrays; `feature[i] == -1` marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    count0: np.ndarray
    count1: np.ndarray

    def leaf_fraction(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(len(X), dtype=np.int64)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            cur = node[idx]
            go_left = X[idx, self.feature[cur]] <= self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[node[idx]] >= 0
        c0 = self.count0[node].astype(np.float64)
        c1 = self.count1[node].astype(np.float64)
        return c1 / (c0 + c1)


def _best_split_on_feature(column: np.ndarray, idx: np.ndarray, pos: np.ndarray, n1: int,
                           min_leaf: int, parent_score: float):
    """(weighted child gini, threshold, left positives) of the best cut, or None.

    The cut is of `column[idx]`; `pos` lists the `n1` positive rows of `idx`.
    """
    xs = column.take(idx)
    xs.sort()
    n = len(xs)
    # cut after position i, leaving at least min_leaf rows on each side
    lo, hi = min_leaf - 1, n - min_leaf
    cuts = (xs[lo:hi] < xs[lo + 1:hi + 1]).nonzero()[0] + lo
    if len(cuts) == 0:
        return None
    # positives at or below each cut's value: a cut never splits tied values
    xp = column.take(pos)
    xp.sort()
    left1 = xp.searchsorted(xs[cuts], "right").astype(np.float64)
    left_n = cuts + 1.0
    left0 = left_n - left1
    right1 = n1 - left1
    right_n = n - left_n
    right0 = right_n - right1
    score = (left_n - (left0 * left0 + left1 * left1) / left_n
             + right_n - (right0 * right0 + right1 * right1) / right_n) / n
    best = int(score.argmin())  # first minimum -> lowest threshold on ties
    if score[best] >= parent_score - _MIN_GAIN:
        return None
    i = cuts[best]
    thr = (xs[i] + xs[i + 1]) / 2.0
    if thr >= xs[i + 1]:  # midpoint rounded up to the right value
        thr = xs[i]
    return float(score[best]), float(thr), int(left1[best])


def _grow_tree(XT: np.ndarray, y: np.ndarray, params: ForestParams,
               mtry: int, rng: np.random.Generator) -> _Tree:
    """One tree on `XT`, the (features, rows) transpose of X, and boolean labels `y`."""
    d, n = XT.shape
    boot = rng.integers(0, n, n)
    feature, threshold = [], []
    left, right = [], []
    count0, count1 = [], []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        count0.append(0)
        count1.append(0)
        return len(feature) - 1

    # a node's positive count comes from its parent's chosen cut
    stack = [(new_node(), boot, int(y[boot].sum()), 0)]
    while stack:
        node, idx, n1, depth = stack.pop()
        n0 = len(idx) - n1
        count0[node], count1[node] = n0, n1
        if (n0 == 0 or n1 == 0 or len(idx) < 2 * params.min_leaf_size
                or (params.max_depth is not None and depth >= params.max_depth)):
            continue
        parent_score = 1.0 - (n0 * n0 + n1 * n1) / (len(idx) * len(idx))

        pos = idx[y[idx]]
        best = None  # (score, feature, threshold)
        for rank, f in enumerate(rng.permutation(d)):
            found = _best_split_on_feature(XT[f], idx, pos, n1, params.min_leaf_size,
                                           parent_score)
            if found is not None:
                cand = (found[0], int(f), found[1])
                if best is None or cand < best:
                    best, left1 = cand, found[2]
            if rank + 1 >= mtry and best is not None:
                break
        if best is None:
            continue
        _, f, thr = best
        go_left = XT[f].take(idx) <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = lid = new_node()
        right[node] = rid = new_node()
        stack.append((rid, idx[~go_left], n1 - left1, depth + 1))
        stack.append((lid, idx[go_left], left1, depth + 1))

    return _Tree(np.array(feature, dtype=np.int32), np.array(threshold),
                 np.array(left, dtype=np.int32), np.array(right, dtype=np.int32),
                 np.array(count0, dtype=np.int64), np.array(count1, dtype=np.int64))


class LinkForest:
    """A trained forest; immutable and safe to share across threads."""

    def __init__(self, trees: list[_Tree], params: ForestParams, seed,
                 n_features: int, feature_names: Sequence[str] | None = None):
        self.trees = trees
        self.params = params
        self.seed = seed
        self.n_features = n_features
        self.feature_names = tuple(feature_names) if feature_names else None

    def predict_proba_many(self, X: np.ndarray) -> np.ndarray:
        """Vote fraction in [0, 1] per row; 1 = certainly non-existing."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ShapeError(f"expected (n, {self.n_features}) feature matrix, got {X.shape}")
        acc = np.zeros(len(X))
        for tree in self.trees:
            acc += tree.leaf_fraction(X)
        return acc / len(self.trees)

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        doc = {
            "format": FOREST_FORMAT,
            "version": FOREST_VERSION,
            "n_features": self.n_features,
            "feature_names": list(self.feature_names) if self.feature_names else None,
            "seed": list(seed_key(self.seed)),
            "params": {
                "tree_count": self.params.tree_count,
                "features_per_split": self.params.features_per_split,
                "min_leaf_size": self.params.min_leaf_size,
                "max_depth": self.params.max_depth,
            },
            "trees": [{name: getattr(t, name).tolist() for name, _ in _NODE_ARRAYS}
                      for t in self.trees],
        }
        Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path) -> "LinkForest":
        """Read a forest file, checking every tree before any predict can use it."""
        try:
            with named_decode_error(path):
                doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ShapeError(f"{path}: not a forest file ({e})") from None
        if not isinstance(doc, dict) or doc.get("format") != FOREST_FORMAT:
            raise ShapeError(f"{path}: not a {FOREST_FORMAT} file")
        if doc.get("version") != FOREST_VERSION:
            raise ShapeError(f"{path}: unsupported forest version {doc.get('version')}")
        try:
            n_features, names, trees = doc["n_features"], doc["feature_names"], doc["trees"]
            params = ForestParams(**doc["params"])
            seed = tuple(doc["seed"])
        except (KeyError, TypeError) as e:
            raise ShapeError(f"{path}: malformed forest header ({e!r})") from None
        if type(n_features) is not int or n_features < 1:
            raise ShapeError(f"{path}: n_features must be a positive integer, got {n_features!r}")
        if names is not None and (not isinstance(names, list) or len(names) != n_features):
            raise ShapeError(f"{path}: feature_names must list {n_features} names")
        if not isinstance(trees, list) or not trees:
            raise ShapeError(f"{path}: a forest needs at least one tree")
        return cls([_load_tree(t, n_features, f"{path}: tree {i}") for i, t in enumerate(trees)],
                   params, seed, n_features, names)


def _load_tree(doc, n_features: int, where: str) -> _Tree:
    """A tree from its saved node arrays, checked so every descent ends at a leaf.

    Children must come after their parent, so a descent cannot cycle, and
    every leaf must hold examples, so its vote fraction is defined.
    """
    try:
        arrays = {name: np.array(doc[name], dtype=dtype) for name, dtype in _NODE_ARRAYS}
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ShapeError(f"{where}: bad node arrays ({e!r})") from None
    shapes = {a.shape for a in arrays.values()}
    if len(shapes) != 1 or len(shapes.pop()) != 1 or len(arrays["feature"]) == 0:
        raise ShapeError(f"{where}: node arrays must be non-empty, flat and of equal length")
    t = _Tree(**arrays)
    node = np.arange(len(t.feature))
    internal = t.feature >= 0
    if np.any((t.feature < -1) | (t.feature >= n_features)):
        raise ShapeError(f"{where}: split feature out of range [-1, {n_features})")
    for child in (t.left, t.right):
        if np.any(internal & ((child <= node) | (child >= len(node)))):
            raise ShapeError(f"{where}: a child index must lie after its parent and in range")
    if not np.isfinite(t.threshold).all():
        raise ShapeError(f"{where}: thresholds must be finite")
    if np.any(t.count0 < 0) or np.any(t.count1 < 0) or np.any((t.count0 + t.count1)[~internal] == 0):
        raise ShapeError(f"{where}: counts must be >= 0, and > 0 in sum at every leaf")
    return t


def train_forest(examples: Sequence[TrainingExample] | None, params: ForestParams,
                 seed, *, X: np.ndarray | None = None, y: np.ndarray | None = None,
                 feature_names: Sequence[str] | None = None) -> LinkForest:
    """Fit a forest on TrainingExamples (or a prebuilt X, y pair) labeled 0 or 1."""
    params.validate()
    if examples is not None:
        try:
            X = np.array([ex.features for ex in examples], dtype=np.float64)
        except ValueError:
            raise ShapeError("ragged feature vectors: the examples' rows differ in length") from None
        y = np.array([ex.label for ex in examples], dtype=np.uint8)
    elif X is None or y is None:
        raise ParameterError("train_forest needs examples or an (X, y) pair")
    else:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.uint8)

    if X.ndim != 2 or len(X) != len(y):
        raise ShapeError(f"bad training shapes X={X.shape}, y={y.shape}")
    if len(X) < 2:
        raise DegenerateTrainingError("need at least 2 training examples")
    if not np.isfinite(X).all():
        raise ShapeError("training features contain NaN or infinity")
    classes = np.unique(y)
    if len(classes) < 2:
        raise DegenerateTrainingError(f"training set contains a single class ({classes[0]})")
    if classes.tolist() != [0, 1]:
        raise ParameterError(f"labels must be 0 or 1, got {classes.tolist()}")

    # canonical order: by feature tuple, then label
    order = np.lexsort((y,) + tuple(X.T[::-1]))
    XT, y = X.T.take(order, axis=1), y[order].astype(bool)

    d = X.shape[1]
    mtry = params.features_per_split or int(np.ceil(np.sqrt(d)))
    mtry = min(mtry, d)
    trees = _grow_trees(XT, y, params, mtry, seed_key(seed))
    return LinkForest(trees, params, seed, d, feature_names)


def _worker_count(tree_count: int, rows: int) -> int:
    """Processes to grow a fit's trees on: 1 where forking cannot pay."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or rows * tree_count < _MIN_PARALLEL_WORK):
        return 1
    return min(len(os.sched_getaffinity(0)), tree_count)


def _grow_trees(XT: np.ndarray, y: np.ndarray, params: ForestParams, mtry: int,
                key: tuple[int, ...]) -> list[_Tree]:
    """The fit's trees in tree order, grown by forked workers sharing XT and y.

    Worker i grows trees i, i + w, i + 2w, ... and pipes them back pickled;
    the parent grows chunk 0.  Each tree draws only from its own (key, tree)
    stream, so the trees do not depend on the worker count.  A chunk whose
    worker fails is regrown in the parent, where a real error then raises.
    """
    workers = _worker_count(params.tree_count, len(y))

    def grow(chunk: int) -> list[_Tree]:
        return [_grow_tree(XT, y, params, mtry, generator(key, t))
                for t in range(chunk, params.tree_count, workers)]

    chunks = {}
    pipes = {}  # pid -> (chunk, read end of its pipe)
    try:
        for chunk in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: the parent grows the rest
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    with open(w, "wb") as out:
                        pickle.dump(grow(chunk), out, protocol=pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            pipes[pid] = (chunk, open(r, "rb"))
        chunks[0] = grow(0)
        for pid, (chunk, pipe) in list(pipes.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del pipes[pid]
            if os.waitstatus_to_exitcode(status) == 0:
                chunks[chunk] = pickle.loads(data)
    finally:
        if pipes:  # left only when unwinding
            import signal  # here, not at import: about 1 ms of every start
        for pid, (_, pipe) in pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    trees = [None] * params.tree_count
    for chunk in range(workers):
        trees[chunk::workers] = chunks[chunk] if chunk in chunks else grow(chunk)
    return trees

