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

Every tree grows on the distinct (x, y) rows its bootstrap draws, each
weighted by its draw count: a row drawn k times is one row of weight k.
A node's counts, its stopping rule and each cut's left counts are weighted
sums, and a cut still lies only between two distinct values, so every
score is the same float expression of the same integers as on the
bootstrap's rows one by one, and every tree is the per-row tree.  Where
rows repeat (on BA hosts a link row is almost a function of the unordered
degree pair) a node holds far fewer rows to sort.

Predict walks each tree over all rows at once, level by level, with
absorbing leaves: a leaf is its own left and right child, so a level is
the same few gathers for every row, and the rows that sit at a leaf
leave the walk only every `_COMPACT` levels.  A row still meets exactly
the comparisons of its path, so every score keeps its bits.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import asdict, dataclass, fields
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

# nodes of at most this many distinct rows search their cuts in plain
# Python.  On the meta fits 32 and 64 time alike; 64 also serves the link
# fit, whose min_leaf_size of 25 leaves such a node few cuts to scan
_SMALL_NODE = 64

# predict's walk drops the rows that sit at a leaf every this many levels;
# a finished row rides along for at most this many levels less one
_COMPACT = 3


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
        has absorbing leaves: a leaf's left and right child is the leaf
        itself, so a row that reaches one stays there, and the rows need
        no leaf test at each level.  Node i is walked as id 2i, so a row's
        next id is `child[id + go_left]` of the interleaved (right, left)
        pairs, and its split value lies at the flat offset
        `feature * rows + row`.  Every `_COMPACT` levels the rows at a leaf
        take its fraction and leave the walk.  A row meets the same
        comparisons on its path as in a leaf-by-leaf walk, and each leaf's
        fraction is the same float expression, so every bit is kept.
        """
        n = XT.shape[1]
        flat = XT.reshape(-1)
        internal = self.feature >= 0
        offset = np.where(internal, self.feature, 0).astype(np.intp) * n
        node = np.arange(len(internal))
        child = 2 * np.column_stack([np.where(internal, self.right, node),
                                     np.where(internal, self.left, node)]).astype(np.intp).ravel()
        fraction = np.zeros(len(internal))
        c0 = self.count0[~internal].astype(np.float64)
        c1 = self.count1[~internal].astype(np.float64)
        fraction[~internal] = c1 / (c0 + c1)
        offset, threshold, internal, fraction = (
            a.repeat(2) for a in (offset, self.threshold, internal, fraction))
        out = np.empty(n)
        idx = np.arange(n)
        cur = np.zeros(n, dtype=np.intp)
        while len(idx):
            for _ in range(_COMPACT):
                at = offset.take(cur)
                at += idx
                cur = child.take(cur + (flat.take(at) <= threshold.take(cur)))
            out[idx] = fraction.take(cur)  # final for the rows at a leaf
            keep = internal.take(cur).nonzero()[0]
            idx, cur = idx.take(keep), cur.take(keep)
        return out


def _threshold(below: float, above: float) -> float:
    """The midpoint of a cut's two values, or the lower one if it rounds up to the upper."""
    thr = (below + above) / 2.0
    return below if thr >= above else thr


def _tree_from_nodes(nodes: list) -> _Tree:
    """The `_Tree` of node rows in `_NODE_ARRAYS` order."""
    return _Tree(*(np.array(column, dtype=dtype)
                   for column, (_, dtype) in zip(zip(*nodes), _NODE_ARRAYS)))


def _distinct_rows(XT: np.ndarray, y: np.ndarray):
    """(group of each row, groups' XT, groups' labels, groups' XT as lists).

    A group is a run of equal (x, y) rows, which canonical order puts side
    by side.
    """
    first = np.ones(len(y), dtype=bool)
    first[1:] = (XT[:, 1:] != XT[:, :-1]).any(axis=0) | (y[1:] != y[:-1])
    GT = XT.compress(first, axis=1)
    return first.cumsum() - 1, GT, y[first], [_interned(col) for col in GT]


def _interned(col: np.ndarray) -> list:
    """`col.tolist()`, with one float object per distinct value.

    Values are told apart by their bits, so -0.0 and 0.0 stay two objects.
    Most link feature columns hold few distinct values (degrees, counts).
    """
    values, inverse = np.unique(col.view(np.int64), return_inverse=True)
    floats = values.view(np.float64).tolist()
    return [floats[i] for i in inverse.tolist()]


def _grow_weighted_tree(rows: tuple, params: ForestParams, rng: np.random.Generator) -> _Tree:
    """One tree, grown on the `_distinct_rows` that its bootstrap draws.

    Each node holds distinct rows, each weighted by its draws; a node of at
    most `_SMALL_NODE` of them, and its whole subtree, runs on Python lists.
    """
    group, GT, lab, cols = rows
    d, n = len(GT), len(group)
    mtry = min(params.features_per_split or int(np.ceil(np.sqrt(d))), d)
    w = np.bincount(group.take(rng.integers(0, n, n)), minlength=GT.shape[1])
    w1 = w * lab
    arrays, lists = (GT, w, w1), (cols, w.tolist(), w1.tolist())
    nodes = [[-1, 0.0, -1, -1, 0, 0]]
    stack = [(0, w.nonzero()[0], n, int(w1.sum()), 0)]
    while stack:
        node, idx, n, n1, depth = stack.pop()
        n0 = n - n1
        nodes[node][4:] = n0, n1
        if (n0 == 0 or n1 == 0 or n < 2 * params.min_leaf_size
                or (params.max_depth is not None and depth >= params.max_depth)):
            continue
        parent_score = 1.0 - (n0 * n0 + n1 * n1) / (n * n)
        small = len(idx) <= _SMALL_NODE
        if small and not isinstance(idx, list):
            idx = idx.tolist()
        search, (columns, *weights) = ((_weighted_scan, lists) if small
                                       else (_weighted_split, arrays))
        best = None  # (score, feature, threshold)
        for rank, f in enumerate(rng.permutation(d)):
            found = search(columns[f], idx, *weights, n, n1, params.min_leaf_size, parent_score)
            if found is not None:
                cand = (found[0], int(f), found[1])
                if best is None or cand < best:
                    best, left = cand, found[2]
            if rank + 1 >= mtry and best is not None:
                break
        if best is None:
            continue
        _, f, thr = best
        col = columns[f]
        if small:
            left_idx, right_idx = [g for g in idx if col[g] <= thr], [g for g in idx if col[g] > thr]
        else:
            go_left = col.take(idx) <= thr
            left_idx, right_idx = idx[go_left], idx[~go_left]
        lid = len(nodes)
        nodes[node][:4] = f, thr, lid, lid + 1
        nodes += [-1, 0.0, -1, -1, 0, 0], [-1, 0.0, -1, -1, 0, 0]
        stack.append((lid + 1, right_idx, n - left[0], n1 - left[1], depth + 1))
        stack.append((lid, left_idx, *left, depth + 1))
    return _tree_from_nodes(nodes)


def _weighted_scan(col: list, idx: list, w: list, w1: list, n: int, n1: int, min_leaf: int,
                   parent_score: float):
    """`_weighted_split` in plain Python, on lists."""
    bar, best = parent_score - _MIN_GAIN, None
    left_n, j = 0.0, 0  # the weight and the positive weight below x
    order = sorted(idx, key=col.__getitem__)
    below = col[order[0]]
    for g in order:
        x = col[g]
        if below < x and left_n >= min_leaf:  # a cut never splits tied values
            if left_n > n - min_leaf:
                break
            left0 = left_n - j
            right1 = n1 - j
            right_n = n - left_n
            right0 = right_n - right1
            score = (left_n - (left0 * left0 + j * j) / left_n
                     + right_n - (right0 * right0 + right1 * right1) / right_n) / n
            if score < bar:
                bar, best = score, (below, x, int(left_n), j)
        below = x
        left_n += w[g]
        j += w1[g]
    if best is None:
        return None
    return bar, _threshold(best[0], best[1]), best[2:]


def _weighted_split(column: np.ndarray, idx: np.ndarray, w: np.ndarray, w1: np.ndarray, n: int,
                    n1: int, min_leaf: int, parent_score: float):
    """(weighted child gini, threshold, (left weight, left positive weight)) of the best cut, or None.

    The cut is of the distinct rows `idx`, weighted by `w`, of which `w1`
    is positive.  Below a cut between two distinct values lie exactly the
    bootstrap rows that a per-row search puts left, so the score has its bits.
    """
    xs = column.take(idx)
    order = xs.argsort()  # any order of tied values gives the same sums at a cut
    xs = xs.take(order)
    idx = idx.take(order)
    cum_n = w.take(idx).cumsum()
    cum_1 = w1.take(idx).cumsum()
    # cut after position i, leaving at least min_leaf weight on each side
    lo, hi = cum_n.searchsorted(min_leaf), cum_n.searchsorted(n - min_leaf, "right")
    cuts = (xs[lo:hi] < xs[lo + 1:hi + 1]).nonzero()[0] + lo
    if len(cuts) == 0:
        return None
    left_n = cum_n.take(cuts).astype(np.float64)
    left1 = cum_1.take(cuts).astype(np.float64)
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
    return (float(score[best]), _threshold(float(xs[i]), float(xs[i + 1])),
            (int(cum_n[i]), int(cum_1[i])))


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
        XT = np.ascontiguousarray(X.T)  # no copy of an `extract_feature_matrix` result
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
        _check_params(params, len(trees), str(path))
        return cls([_load_tree(t, n_features, f"{path}: tree {i}") for i, t in enumerate(trees)],
                   params, seed, names)


def _check_params(params: ForestParams, tree_count: int, where: str) -> None:
    """Raise ShapeError unless `params` could have grown `tree_count` trees.

    Each field holds an int, or null where its default is None, and
    passes `validate`.
    """
    for field in fields(ForestParams):
        value = getattr(params, field.name)
        if type(value) is not int and (value is not None or field.default is not None):
            raise ShapeError(f"{where}: params field {field.name!r} must be an integer"
                             f"{' or null' if field.default is None else ''}, got {value!r}")
    try:
        params.validate()
    except ParameterError as e:
        raise ShapeError(f"{where}: params {e}") from None
    if params.tree_count != tree_count:
        raise ShapeError(f"{where}: params field 'tree_count' is {params.tree_count}, "
                         f"but the file holds {tree_count} trees")


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
    grouped = [(_distinct_rows(XT, y), key) for XT, y, key in fits]  # once per fit, before any fork
    jobs = [(rows, key, t) for rows, key in grouped for t in range(count)]
    workers = _worker_count(len(jobs), count * sum(len(y) for _, y, _ in fits))

    def grow(chunk: int) -> list[_Tree]:
        return [_grow_weighted_tree(rows, params, generator(key, t))
                for rows, key, t in jobs[chunk::workers]]

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
