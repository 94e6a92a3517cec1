"""Seeded random-forest classifier over edge feature vectors.

Scores are vote fractions: the mean over trees of the positive-class
fraction in the reached leaf, where positive (label 1) means "this edge
should not exist".  Training is reproducible by construction:

* examples are canonically sorted before any sampling, so the forest is
  independent of input order;
* every random draw comes from a generator keyed on (seed, tree index),
  so the trees do not depend on which process grows them: a fit, or a
  batch of fits (`train_forests`), grows them in parallel on every CPU in
  the process's affinity set (the caller and one forked worker per
  further CPU), and `taskset -c 0` makes it serial;
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
from dataclasses import asdict, dataclass
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

# nodes of at most this many rows search their cuts in plain Python.  On the
# meta fits 32 and 64 time alike; 64 also serves the link fit, whose
# min_leaf_size of 25 leaves such a node few cuts to scan
_SMALL_NODE = 64


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

    def leaf_fraction(self, XT: np.ndarray) -> np.ndarray:
        """Positive fraction of the leaf that each row reaches.

        `XT` is the C-contiguous (features, rows) transpose of X.  The walk
        keeps only the rows still at an internal node: it reads each one's
        split value at the flat offset `feature * rows + row`, and its next
        node at `2 * node + go_left` of the interleaved (right, left) pairs.
        """
        n = XT.shape[1]
        flat = XT.reshape(-1)
        feature = self.feature.astype(np.intp)
        offset = feature * n
        child = np.column_stack([self.right, self.left]).astype(np.intp).ravel()
        node = np.zeros(n, dtype=np.intp)
        idx = np.arange(n) if feature[0] >= 0 else node[:0]
        cur = node[idx]
        while len(idx):
            go_left = flat.take(offset.take(cur) + idx) <= self.threshold.take(cur)
            nxt = child.take(2 * cur + go_left)
            node[idx] = nxt
            keep = np.flatnonzero(feature.take(nxt) >= 0)
            idx, cur = idx.take(keep), nxt.take(keep)
        c0 = self.count0[node].astype(np.float64)
        c1 = self.count1[node].astype(np.float64)
        return c1 / (c0 + c1)


def _best_split_on_feature(column: np.ndarray, idx: np.ndarray, pos: np.ndarray, n1: int,
                           min_leaf: int, parent_score: float):
    """(weighted child gini, threshold, left positives) of the best cut, or None.

    The cut is of `column[idx]`; `pos` lists the `n1` positive rows of `idx`.
    Nodes of up to `_SMALL_NODE` rows take a plain-Python scan, where a
    numpy call costs more than its arithmetic; it evaluates the same float
    expression in the same order, so both paths give the same bits.
    """
    n = len(idx)
    # cut after position i, leaving at least min_leaf rows on each side
    lo, hi = min_leaf - 1, n - min_leaf
    if n <= _SMALL_NODE:
        xs = sorted(column.take(idx).tolist())
        xp = sorted(column.take(pos).tolist())
        # counts stay ints, which a float operation converts exactly; only a
        # score below the bar can win, and the first minimum is kept
        bar, best, j = parent_score - _MIN_GAIN, None, 0  # j: positives <= the cut's value
        for i in range(lo, hi):
            x = xs[i]
            if x < xs[i + 1]:  # a cut never splits tied values
                while j < n1 and xp[j] <= x:
                    j += 1
                left_n = i + 1.0
                left0 = left_n - j
                right1 = n1 - j
                right_n = n - left_n
                right0 = right_n - right1
                score = (left_n - (left0 * left0 + j * j) / left_n
                         + right_n - (right0 * right0 + right1 * right1) / right_n) / n
                if score < bar:
                    bar, best = score, (i, j)
        if best is None:
            return None
        i, j = best
        return bar, _threshold(xs[i], xs[i + 1]), j
    xs = column.take(idx)
    xs.sort()
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
    return float(score[best]), _threshold(float(xs[i]), float(xs[i + 1])), int(left1[best])


def _threshold(below: float, above: float) -> float:
    """The midpoint of a cut's two values, or the lower one if it rounds up to the upper."""
    thr = (below + above) / 2.0
    return below if thr >= above else thr


def _grow_tree(XT: np.ndarray, y: np.ndarray, params: ForestParams,
               rng: np.random.Generator) -> _Tree:
    """One tree on `XT`, the (features, rows) transpose of X, and boolean labels `y`."""
    d, n = XT.shape
    mtry = min(params.features_per_split or int(np.ceil(np.sqrt(d))), d)
    boot = rng.integers(0, n, n)
    # one row per node in `_NODE_ARRAYS` order, a leaf's until the node
    # splits; a node's positive count comes from its parent's chosen cut
    nodes = [[-1, 0.0, -1, -1, 0, 0]]
    stack = [(0, boot, int(y[boot].sum()), 0)]
    while stack:
        node, idx, n1, depth = stack.pop()
        n0 = len(idx) - n1
        nodes[node][4:] = n0, n1
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
        lid = len(nodes)  # the left child, then the right at lid + 1
        nodes[node][:4] = f, thr, lid, lid + 1
        nodes += [-1, 0.0, -1, -1, 0, 0], [-1, 0.0, -1, -1, 0, 0]
        stack.append((lid + 1, idx[~go_left], n1 - left1, depth + 1))
        stack.append((lid, idx[go_left], left1, depth + 1))

    return _Tree(*(np.array(column, dtype=dtype)
                   for column, (_, dtype) in zip(zip(*nodes), _NODE_ARRAYS)))


class LinkForest:
    """A trained forest; immutable and safe to share across threads."""

    def __init__(self, trees: list[_Tree], params: ForestParams, seed,
                 feature_names: Sequence[str]):
        self.trees = trees
        self.params = params
        self.seed = seed
        self.feature_names = tuple(feature_names)
        self.n_features = len(self.feature_names)

    def predict_proba_many(self, X: np.ndarray) -> np.ndarray:
        """Vote fraction in [0, 1] per row; 1 = certainly non-existing."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ShapeError(f"expected (n, {self.n_features}) feature matrix, got {X.shape}")
        XT = np.ascontiguousarray(X.T)
        acc = np.zeros(len(X))
        for tree in self.trees:
            acc += tree.leaf_fraction(XT)
        return acc / len(self.trees)

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        doc = {
            "format": FOREST_FORMAT,
            "version": FOREST_VERSION,
            "n_features": self.n_features,
            "feature_names": list(self.feature_names),
            "seed": list(seed_key(self.seed)),
            "params": asdict(self.params),
            "trees": [{name: getattr(t, name).tolist() for name, _ in _NODE_ARRAYS}
                      for t in self.trees],
        }
        Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path) -> "LinkForest":
        """Read a forest file, checking every tree before any predict can use it."""
        try:
            with named_decode_error(path):
                doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except (ValueError, RecursionError) as e:  # bad JSON, an over-long number, deep nesting
            raise ShapeError(f"{path}: not a forest file ({e})") from None
        if not isinstance(doc, dict) or doc.get("format") != FOREST_FORMAT:
            raise ShapeError(f"{path}: not a {FOREST_FORMAT} file")
        if doc.get("version") != FOREST_VERSION:
            raise ShapeError(f"{path}: unsupported forest version {doc.get('version')}")
        try:
            n_features, names, trees = doc["n_features"], doc["feature_names"], doc["trees"]
            params = ForestParams(**doc["params"])
            seed = seed_key(doc["seed"])
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ShapeError(f"{path}: malformed forest header ({e!r})") from None
        if type(n_features) is not int or n_features < 1:
            raise ShapeError(f"{path}: n_features must be a positive integer, got {n_features!r}")
        _check_names(names, n_features, str(path))
        if not isinstance(trees, list) or not trees:
            raise ShapeError(f"{path}: a forest needs at least one tree")
        return cls([_load_tree(t, n_features, f"{path}: tree {i}") for i, t in enumerate(trees)],
                   params, seed, names)


def _check_names(names, n_features: int, where: str) -> None:
    """Raise ShapeError unless `names` is a list or tuple of `n_features` strings."""
    if (not isinstance(names, (list, tuple)) or len(names) != n_features
            or not all(isinstance(name, str) for name in names)):
        raise ShapeError(f"{where}: feature_names must list {n_features} strings")


def _load_tree(doc, n_features: int, where: str) -> _Tree:
    """A tree from its saved node arrays, checked so every descent ends at a leaf.

    Children must come after their parent, so a descent cannot cycle, and
    every leaf must hold examples, so its vote fraction is defined.
    """
    try:
        for name, dtype in _NODE_ARRAYS:
            # the typed build truncates 0.9 and casts True; read alone, they are not integers
            if dtype is not np.float64 and not np.issubdtype(np.array(doc[name]).dtype, np.integer):
                raise ShapeError(f"{where}: node array {name!r} must hold integers")
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


def train_forest(examples: Sequence[TrainingExample], params: ForestParams, seed, *,
                 feature_names: Sequence[str]) -> LinkForest:
    """Fit a forest on TrainingExamples labeled 0 or 1, one name per feature."""
    try:
        X = np.array([ex.features for ex in examples], dtype=np.float64)
    except ValueError:
        raise ShapeError("ragged feature vectors: the examples' rows differ in length") from None
    y = np.array([ex.label for ex in examples], dtype=np.uint8)
    return train_forests([(X, y, seed)], params, feature_names)[0]


def train_forests(fits: Sequence[tuple], params: ForestParams,
                  feature_names: Sequence[str]) -> list[LinkForest]:
    """One forest per `(X, y, seed)` fit, labeled 0 or 1, all grown in one batch.

    Every fit is checked and put in canonical order before any tree grows:
    X needs one column per name in `feature_names`, and at least one.  The
    trees of all fits then share one set of workers, and each forest is the
    one a lone fit of its own gives.
    """
    params.validate()
    names = tuple(feature_names)
    prepared = [(*_canonical(X, y, names), seed_key(seed)) for X, y, seed in fits]
    return [LinkForest(trees, params, key, names)
            for trees, (_, _, key) in zip(_grow_trees(prepared, params), prepared)]


def _canonical(X, y, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A checked fit's (features, rows) transpose and boolean labels, in canonical order."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.uint8)
    if X.ndim != 2 or len(X) != len(y) or X.shape[1] == 0:
        raise ShapeError(f"bad training shapes X={X.shape}, y={y.shape}")
    _check_names(names, X.shape[1], f"training features of shape {X.shape}")
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
    return X.T.take(order, axis=1), y[order].astype(bool)


def _worker_count(jobs: int, work: int) -> int:
    """Processes to grow `jobs` trees, of `work` rows x trees in all: 1 where forking cannot pay."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or work < _MIN_PARALLEL_WORK):
        return 1
    return min(len(os.sched_getaffinity(0)), jobs)


def _grow_trees(fits: list[tuple[np.ndarray, np.ndarray, tuple[int, ...]]],
                params: ForestParams) -> list[list[_Tree]]:
    """Each `(XT, y, key)` fit's trees in tree order, grown by forked workers.

    The jobs are every fit's trees, fit after fit.  Worker i grows jobs i,
    i + w, i + 2w, ... and pipes them back pickled; the parent grows chunk
    0.  Each tree draws only from its own (key, tree) stream, so the trees
    depend neither on the worker count nor on the other fits of the batch.
    A chunk whose worker fails is regrown in the parent, where a real error
    then raises.
    """
    count = params.tree_count
    jobs = [(fit, t) for fit in fits for t in range(count)]
    workers = _worker_count(len(jobs), count * sum(len(y) for _, y, _ in fits))

    def grow(chunk: int) -> list[_Tree]:
        return [_grow_tree(XT, y, params, generator(key, t))
                for (XT, y, key), t in jobs[chunk::workers]]

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
            # unpickled as they arrive: a batch's pickled trees can run to
            # megabytes, and the parent never holds them whole
            with pipe:
                try:
                    grown = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # the worker stopped short
                    grown = None
            _, status = os.waitpid(pid, 0)
            del pipes[pid]
            if grown is not None and os.waitstatus_to_exitcode(status) == 0:
                chunks[chunk] = grown
    finally:
        if pipes:  # left only when unwinding
            import signal  # here, not at import: about 1 ms of every start
        for pid, (_, pipe) in pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    trees = [None] * len(jobs)
    for chunk in range(workers):
        trees[chunk::workers] = chunks[chunk] if chunk in chunks else grow(chunk)
    return [trees[k:k + count] for k in range(0, len(trees), count)]
