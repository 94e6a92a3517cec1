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


# -- host construction -------------------------------------------------------------
#
# The per-draw and per-line loops that `generate_ba`, `inject_anomalies` and
# `load_edge_list` replaced.  Each takes a live Generator (or a path) and
# returns plain Python values, so a test can compare the array-built
# outputs, and the stream position a Generator is left at, against them.


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
    host_labels = [0] * host_n if g.labels is None else [int(x) for x in g.labels]
    edges = sorted({(int(a), int(b)) for a, b in g.edges} | set(new_edges))
    return (g.names + fresh, edges, host_labels + [1] * n,
            tuple(edge_counts), tuple(target_lists))


def edge_list_loop(path, directed):
    """(names, sorted edge list, self-loops dropped, duplicates dropped) of a file.

    Reads line by line with universal newlines and interns names through a
    dict; raises the loader's ParseError for the first malformed line.
    """
    from linkanomaly.errors import ParseError

    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
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
