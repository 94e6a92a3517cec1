"""Independent brute-force implementations used as test oracles.

Everything here is deliberately naive (python sets, O(n^2) loops):
the implementations under test must agree with these, not share code
with them.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from fractions import Fraction


def neighbor_sets(edges, directed, n):
    """Per-vertex {all, in, out, bi} neighbor sets from a raw edge list."""
    nin = {v: set() for v in range(n)}
    nout = {v: set() for v in range(n)}
    for a, b in edges:
        if a == b:
            continue
        nout[a].add(b)
        nin[b].add(a)
        if not directed:
            nout[b].add(a)
            nin[a].add(b)
    sets = {}
    for v in range(n):
        sets[v] = {
            "all": nin[v] | nout[v],
            "in": nin[v],
            "out": nout[v],
            "bi": nin[v] & nout[v],
        }
    return sets


def edge_features(edges, directed, n, v, u):
    """Feature name -> value for the pair (v, u), by literal set algebra."""
    sets = neighbor_sets(edges, directed, n)
    g_v, g_u = sets[v]["all"], sets[u]["all"]
    edge_set = set()
    for a, b in edges:
        if a == b:
            continue
        edge_set.add((a, b))
        if not directed:
            edge_set.add((b, a))

    def w(deg):
        return 1.0 / math.sqrt(1.0 + deg)

    out = {
        "total_friends": len(g_v | g_u),
        "jaccard": (len(g_v & g_u) / len(g_v | g_u)) if (g_v | g_u) else 0.0,
        "preferential_attachment": len(g_v) * len(g_u),
    }
    if directed:
        out["common_friends_in"] = len(sets[v]["in"] & sets[u]["in"])
        out["common_friends_out"] = len(sets[v]["out"] & sets[u]["out"])
        out["common_friends_bi"] = len(sets[v]["bi"] & sets[u]["bi"])
        out["common_friends"] = len(g_v & g_u)
        out["transitive_friends"] = len(sets[v]["out"] & sets[u]["in"])
        out["opposite_direction_friends"] = 1 if (u, v) in edge_set else 0
        wiv, wov = w(len(sets[v]["in"])), w(len(sets[v]["out"]))
        wiu, wou = w(len(sets[u]["in"])), w(len(sets[u]["out"]))
        out.update({
            "knnw1": wiv + wiu, "knnw2": wiv + wou,
            "knnw3": wov + wiu, "knnw4": wov + wou,
            "knnw5": wiv * wiu, "knnw6": wiv * wou,
            "knnw7": wov * wiu, "knnw8": wov * wou,
        })
    else:
        out["common_friends"] = len(g_v & g_u)
        out["adamic_adar"] = sum(
            1.0 / math.log(len(sets[wv]["all"]))
            for wv in g_v & g_u if len(sets[wv]["all"]) > 1)
        wv_, wu_ = w(len(g_v)), w(len(g_u))
        out["knnw9"] = wv_ + wu_
        out["knnw10"] = wv_ * wu_
    return out


def auc_pair_counting(scores, labels):
    """Fraction of correctly ordered (positive, negative) pairs, ties half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def meta_features(ep, threshold):
    """The seven per-vertex statistics via the statistics module."""
    ep = list(ep)
    labels = [0 if p < threshold else 1 for p in ep]
    return {
        "abnormality_probability": statistics.mean(ep),
        "edges_probability_stdv": statistics.pstdev(ep),
        "sum_edge_label": sum(labels),
        "mean_predicted_link_label": sum(labels) / len(ep),
        "predicted_label_stdv": statistics.pstdev(labels),
        "edges_probability_median": statistics.median(ep),
        "edge_count": len(ep),
    }


def all_graphs(n, directed):
    """Every labeled graph on exactly n vertices (edge subsets)."""
    if directed:
        slots = [(a, b) for a in range(n) for b in range(n) if a != b]
    else:
        slots = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for mask in range(1 << len(slots)):
        yield [slots[i] for i in range(len(slots)) if mask >> i & 1]


# -- degree-pair ceiling ---------------------------------------------------------
#
# On a graph without clustering every undirected pair feature is a function
# of the unordered degree pair of its endpoints.  The link classifier tells an
# existing edge (label 0) from a uniformly drawn non-edge (label 1), both
# avoiding a set of excluded vertices, so the best any scoring of those
# features can do is the likelihood ratio of the degree pair.  Counts below
# are exact over every vertex pair; nothing is sampled.


def degree_pair_counts(edges, n, excluded=()):
    """(degrees, {(d_low, d_high): [edges, non-edges]}) of an undirected graph.

    Degrees are taken on the whole graph; only pairs with both endpoints
    outside `excluded` are counted, as in link-training sampling.
    """
    excluded = set(excluded)
    edge_set = {(min(a, b), max(a, b)) for a, b in edges if a != b}
    degree = [0] * n
    for a, b in edge_set:
        degree[a] += 1
        degree[b] += 1
    per_degree = Counter(degree[v] for v in range(n) if v not in excluded)
    counts = {}
    for da, na in per_degree.items():
        for db, nb in per_degree.items():
            if da < db:
                counts[(da, db)] = [0, na * nb]
            elif da == db:
                counts[(da, db)] = [0, na * (na - 1) // 2]
    for a, b in edge_set:
        if a in excluded or b in excluded:
            continue
        cell = counts[tuple(sorted((degree[a], degree[b])))]
        cell[0] += 1
        cell[1] -= 1
    return degree, counts


def degree_pair_posteriors(counts):
    """{cell: P(non-edge | degree pair)} under a balanced class prior, exactly.

    Balanced as in link training: each class is weighted by the inverse of
    its total, so the posterior is a monotone map of the likelihood ratio.
    Cells holding no pair are left out.
    """
    total_e = sum(e for e, _ in counts.values())
    total_ne = sum(ne for _, ne in counts.values())
    return {cell: Fraction(ne * total_e, ne * total_e + e * total_ne)
            for cell, (e, ne) in counts.items() if e + ne}


def degree_pair_ceiling_auc(edges, n, excluded=()):
    """Bayes-optimal AUC of non-edge vs edge from the unordered degree pair.

    Cells are sorted by their posterior; each non-edge then beats every edge
    of a lower cell and ties half the edges of its own.  Cells with equal
    likelihood ratios contribute the same in either order, so the sum is
    exact in integers.
    """
    _, counts = degree_pair_counts(edges, n, excluded)
    posterior = degree_pair_posteriors(counts)
    total_e = sum(e for e, _ in counts.values())
    total_ne = sum(ne for _, ne in counts.values())
    below, twice_wins = 0, 0
    for cell in sorted(posterior, key=posterior.get):
        e, ne = counts[cell]
        twice_wins += ne * (2 * below + e)
        below += e
    return float(Fraction(twice_wins, 2 * total_e * total_ne))


def label_free_scores(g, vertices):
    """{name: scores of `vertices`} for three anomaly scores that need no
    labels and no training, higher meaning more anomalous, from the degrees
    d_u of each vertex's k neighbours u in an undirected graph:

    * "naive LLR", k log(2E/n) - sum log d_u: the log likelihood ratio of
      neighbours drawn uniformly (as the injection draws them) over
      neighbours drawn in proportion to degree (as preferential attachment
      draws them);
    * "mean -log neighbour degree";
    * "own degree", k.

    They are references to compare the pipeline with, not bounds on it.
    """
    degrees = g.degrees("all").tolist()
    log_rate = math.log(2 * g.edge_count / g.vertex_count)
    scores = {"naive LLR": [], "mean -log neighbour degree": [], "own degree": []}
    for v in vertices:
        logs = [math.log(degrees[u]) for u in g.neighbors(v, "all").tolist()]
        scores["naive LLR"].append(len(logs) * log_rate - sum(logs))
        scores["mean -log neighbour degree"].append(-sum(logs) / len(logs))
        scores["own degree"].append(float(len(logs)))
    return scores


def ceiling_margin(a, per_class, runs=1):
    """Three standard errors of the mean of `runs` holdout AUCs near `a`.

    Each holdout has `per_class` pairs of each class; the standard error of
    one AUC is Hanley & McNeil's, "The meaning and use of the area under a
    receiver operating characteristic (ROC) curve", Radiology 143 (1982).
    """
    q1 = a / (2 - a)
    q2 = 2 * a * a / (1 + a)
    n = per_class
    var = (a * (1 - a) + (n - 1) * (q1 - a * a) + (n - 1) * (q2 - a * a)) / (n * n)
    return 3 * math.sqrt(var / runs)


# -- host construction and pair sampling ----------------------------------------------
#
# The per-draw and per-line loops that `generate_ba`, `inject_anomalies`,
# `load_edge_list`, `sample_test_vertices` and `sample_training_pairs`
# replaced.  Each takes a path or the Generator that `rng.generator` makes
# from the stage's seed key, and returns plain Python values, so a test can
# compare the array-built outputs against them.


def ba_loop(n, m, rng):
    """(names, sorted edge list) of a BA graph drawn one target at a time."""
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    repeated = []
    for u, v in edges:
        repeated.append(u)
        repeated.append(v)
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in sorted(targets):
            edges.append((t, source))
            repeated.append(t)
            repeated.append(source)
    width = len(str(n - 1))
    return [f"v{i:0{width}d}" for i in range(n)], sorted(edges)


def inject_loop(g, n, rng):
    """(names, sorted edge list, labels, edge_counts, targets) of an injection.

    Reads the host `g` only through its names, edges, labels and degrees,
    and wires each fake vertex one edge at a time.
    """
    host_n = g.vertex_count
    host_degrees = g.degrees("out" if g.directed else "all")
    new_edges, edge_counts, target_lists = [], [], []
    for i in range(n):
        vid = host_n + i
        k = 0
        while k == 0:
            k = int(host_degrees[int(rng.integers(host_n))])
        targets = rng.choice(host_n, size=k, replace=False)
        edge_counts.append(k)
        target_lists.append(tuple(int(t) for t in targets))
        for t in targets:
            e = (vid, int(t))
            new_edges.append(e if g.directed else (min(e), max(e)))

    taken = set(g.names)
    fresh, i = [], 0
    width = len(str(max(n - 1, 1)))
    while len(fresh) < n:
        cand = f"fake{i:0{width}d}"
        if cand not in taken:
            fresh.append(cand)
        i += 1
    host_labels = g.labels.tolist()
    edges = sorted({(int(a), int(b)) for a, b in g.edges} | set(new_edges))
    return (g.names + fresh, edges, host_labels + [1] * n,
            tuple(edge_counts), tuple(target_lists))


def edge_list_loop(path, directed):
    """(names, sorted edge list, self-loops dropped, duplicates dropped) of a file.

    Reads line by line with universal newlines, skipping a leading byte-order
    mark, and interns names through a dict; raises the loader's ParseError
    for the first malformed line.
    """
    from linkanomaly.errors import ParseError

    pairs = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.replace(",", " ").split()
            if len(fields) != 2:
                raise ParseError(f"{path}:{lineno}: expected two vertex names, got {line!r}")
            pairs.append((fields[0], fields[1]))
    if not pairs:
        raise ParseError(f"{path}: no edges found")
    names = sorted({name for pair in pairs for name in pair})
    index = {name: i for i, name in enumerate(names)}
    kept = [(index[a], index[b]) for a, b in pairs if a != b]
    edge_set = {e if directed else (min(e), max(e)) for e in kept}
    return names, sorted(edge_set), len(pairs) - len(kept), len(kept) - len(edge_set)


def inspected_vertices_loop(g, n, label_filter, min_friends, rng):
    """(selected, edges, labels) of a test set drawn one vertex at a time.

    Raises the sampler's ExhaustionError, with its message, when the
    attempt budget runs out.
    """
    from linkanomaly.errors import ExhaustionError

    budget = 100 * n
    degrees = g.degrees("all")
    selected, chosen, edges, seen_edges, labels = [], set(), [], set(), {}
    attempts = 0
    while len(selected) < n:
        if attempts >= budget:
            raise ExhaustionError(
                f"accepted {len(selected)}/{n} vertices after the {budget}-attempt "
                f"budget (100 x requested); constraints too strict for this graph")
        attempts += 1
        v = int(rng.integers(g.vertex_count))
        if v in chosen:
            continue
        if label_filter is not None and g.labels[v] != label_filter:
            continue
        if degrees[v] <= min_friends:
            continue
        qualified = [int(u) for u in g.neighbors(v, "all") if degrees[u] > min_friends]
        if len(qualified) <= min_friends:
            continue
        selected.append(v)
        chosen.add(v)
        labels[v] = int(g.labels[v])
        for u in qualified:
            e = (v, u) if g.directed else (min(v, u), max(v, u))
            if e not in seen_edges:
                seen_edges.add(e)
                edges.append(e)
    return tuple(selected), tuple(edges), labels


def training_pairs_loop(g, excluded, size_per_class, rng):
    """(existing edges, non-existing pairs), the non-edges drawn one pair at a time.

    Raises the sampler's ExhaustionError, with its message, when either
    side cannot be filled.
    """
    import numpy as np

    from linkanomaly.errors import ExhaustionError

    excluded = frozenset(excluded)
    eligible = [i for i, (a, b) in enumerate(g.edges.tolist())
                if a not in excluded and b not in excluded]
    if len(eligible) < size_per_class:
        raise ExhaustionError(
            f"only {len(eligible)} existing edges avoid the {len(excluded)} "
            f"excluded vertices; need {size_per_class}")
    picked = np.array(eligible, dtype=np.int64)[
        rng.choice(len(eligible), size=size_per_class, replace=False)]
    negative_pairs = [(int(a), int(b)) for a, b in g.edges[picked]]

    budget = 100 * size_per_class
    positive_pairs = []
    seen = set()
    attempts = 0
    while len(positive_pairs) < size_per_class:
        if attempts >= budget:
            raise ExhaustionError(
                f"found {len(positive_pairs)}/{size_per_class} non-existing pairs "
                f"after the {budget}-attempt budget (100 x requested)")
        attempts += 1
        v = int(rng.integers(g.vertex_count))
        u = int(rng.integers(g.vertex_count))
        if v == u or v in excluded or u in excluded:
            continue
        pair = (v, u) if g.directed else (min(v, u), max(v, u))
        if pair in seen or u in g.neighbors(v, "out"):
            continue
        seen.add(pair)
        positive_pairs.append(pair)
    return negative_pairs, positive_pairs


# -- forest growing ----------------------------------------------------------------
#
# The per-node engine `forest._grow_tree` replaced: every drawn feature's
# rows gathered from row-major X, argsorted, and their labels cumulated.


def _split_reference(x, y, min_leaf, parent_score):
    import numpy as np

    n = len(x)
    order = np.argsort(x)
    xs = x[order]
    cuts = np.flatnonzero(xs[:-1] < xs[1:])
    if min_leaf > 1:
        cuts = cuts[(cuts + 1 >= min_leaf) & (n - cuts - 1 >= min_leaf)]
    if len(cuts) == 0:
        return None
    left1 = np.cumsum(y[order])[cuts].astype(np.float64)
    left_n = (cuts + 1).astype(np.float64)
    left0 = left_n - left1
    right1 = float(y.sum()) - left1
    right_n = n - left_n
    right0 = right_n - right1
    score = (left_n - (left0 * left0 + left1 * left1) / left_n
             + right_n - (right0 * right0 + right1 * right1) / right_n) / n
    best = int(np.argmin(score))
    if score[best] >= parent_score - 1e-12:
        return None
    i = cuts[best]
    thr = (xs[i] + xs[i + 1]) / 2.0
    if thr >= xs[i + 1]:
        thr = xs[i]
    return float(score[best]), float(thr)


def grow_tree_reference(X, y, params, mtry, rng):
    """(feature, threshold, left, right, count0, count1) lists of one tree.

    X is the canonically sorted row-major matrix and y its 0/1 labels.
    """
    n = len(X)
    boot = rng.integers(0, n, n)
    nodes = []  # [feature, threshold, left, right, count0, count1]

    def new_node():
        nodes.append([-1, 0.0, -1, -1, 0, 0])
        return len(nodes) - 1

    stack = [(new_node(), boot, 0)]
    while stack:
        node, idx, depth = stack.pop()
        yn = y[idx]
        n1 = int(yn.sum())
        n0 = len(idx) - n1
        nodes[node][4:] = [n0, n1]
        if (n0 == 0 or n1 == 0 or len(idx) < 2 * params.min_leaf_size
                or (params.max_depth is not None and depth >= params.max_depth)):
            continue
        parent_score = 1.0 - (n0 * n0 + n1 * n1) / (len(idx) * len(idx))
        best = None
        for rank, f in enumerate(rng.permutation(X.shape[1])):
            found = _split_reference(X[idx, f], yn, params.min_leaf_size, parent_score)
            if found is not None:
                cand = (found[0], int(f), found[1])
                if best is None or cand < best:
                    best = cand
            if rank + 1 >= mtry and best is not None:
                break
        if best is None:
            continue
        _, f, thr = best
        go_left = X[idx, f] <= thr
        lid, rid = new_node(), new_node()
        nodes[node][:4] = [f, thr, lid, rid]
        stack.append((rid, idx[~go_left], depth + 1))
        stack.append((lid, idx[go_left], depth + 1))
    return tuple(list(column) for column in zip(*nodes))


def profile_vertices_loop(forest, g, vertices, threshold, mode):
    """(profiles, skipped) with one `vertex_profile` call per vertex."""
    import numpy as np

    from linkanomaly.anomaly import _score_edges, vertex_profile

    view = mode if g.directed else "all"
    kept, skipped = [], []
    for v in vertices:
        v = int(v)
        (kept if len(g.neighbors(v, view)) else skipped).append(v)
    if not kept:
        return [], skipped
    counts, _, probs = _score_edges(forest, g, kept, mode)
    ends = np.cumsum(counts).tolist()
    profiles = [vertex_profile(probs[end - deg:end], threshold, v, deg)
                for v, deg, end in zip(kept, counts.tolist(), ends)]
    return profiles, skipped


def rank_vertices_sorted(profiles, by, order):
    """Vertex ids by one meta-feature through `sorted`, ties by id ascending."""
    sign = -1.0 if order == "desc" else 1.0
    return [p.vertex for p in sorted(profiles, key=lambda p: (sign * p.value(by), p.vertex))]


# -- forest predict --------------------------------------------------------------
#
# The walk `_Tree.leaf_fraction` replaced: a full-length active mask, and a
# 2-D fancy index of row-major X at every level.


def predict_proba_loop(forest, X):
    """Vote fraction per row: each tree walked over row-major X, summed in tree order."""
    import numpy as np

    X = np.asarray(X, dtype=np.float64)
    acc = np.zeros(len(X))
    for tree in forest.trees:
        node = np.zeros(len(X), dtype=np.int64)
        active = tree.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            cur = node[idx]
            go_left = X[idx, tree.feature[cur]] <= tree.threshold[cur]
            node[idx] = np.where(go_left, tree.left[cur], tree.right[cur])
            active[idx] = tree.feature[node[idx]] >= 0
        c0 = tree.count0[node].astype(np.float64)
        c1 = tree.count1[node].astype(np.float64)
        acc += c1 / (c0 + c1)
    return acc / len(forest.trees)


# -- meta-classifier cross-validation ----------------------------------------------------
#
# The fold loop `evaluation.k_fold_cv` replaced: one `train_forest` call,
# and so one set of forked workers, per fold.


def k_fold_cv_loop(X, labels, folds, seed, params=None):
    """`k_fold_cv`'s EvaluationReport, each fold's forest fit on its own."""
    import numpy as np

    from linkanomaly.anomaly import META_FEATURE_NAMES
    from linkanomaly.evaluation import (EvaluationReport, _fold_means, auc,
                                        confusion_metrics)
    from linkanomaly.forest import ForestParams, train_forest
    from linkanomaly.rng import generator, seed_key

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(labels, dtype=np.uint8)
    params = params or ForestParams()
    rng = generator(seed, 0)
    fold_of = np.empty(len(y), dtype=np.int64)
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
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
