"""The degree-pair ceiling oracle, and that the bound built on it can fail.

The oracle in `_oracles.py` counts degree-pair cells by histogram
arithmetic; here every unordered vertex pair is enumerated instead, scored
by its cell's likelihood ratio, and compared by pair counting.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from linkanomaly import (ForestParams, auc, build_link_training_set, feature_names,
                         generate_ba, inject_anomalies, train_forests)
from linkanomaly.evaluation import injection_count

from _oracles import (auc_pair_counting, ceiling_margin, degree_pair_ceiling_auc,
                      degree_pair_counts, degree_pair_posteriors, neighbor_sets)
from conftest import random_graph


def _enumerate_pairs(edges, n, excluded):
    """Labels (0 edge, 1 non-edge) and degree-pair cells of every kept pair."""
    sets = neighbor_sets(edges, False, n)
    degree = {v: len(sets[v]["all"]) for v in range(n)}
    keep = [v for v in range(n) if v not in excluded]
    pairs = [(a, b) for i, a in enumerate(keep) for b in keep[i + 1:]]
    labels = [0 if b in sets[a]["all"] else 1 for a, b in pairs]
    cells = [tuple(sorted((degree[a], degree[b]))) for a, b in pairs]
    return labels, cells


def _check_against_brute_force(edges, n, excluded, rng):
    labels, cells = _enumerate_pairs(edges, n, excluded)
    if len(set(labels)) < 2:
        return False
    n_edge = Counter(c for c, y in zip(cells, labels) if y == 0)
    n_non = Counter(c for c, y in zip(cells, labels) if y == 1)
    total_e, total_ne = labels.count(0), labels.count(1)
    # likelihood ratio P(cell | non-edge) / P(cell | edge); no edges -> +inf
    ratio = {c: Fraction(n_non[c] * total_e, n_edge[c] * total_ne) if n_edge[c]
             else math.inf for c in set(cells)}
    ceiling = degree_pair_ceiling_auc(edges, n, excluded)
    assert abs(auc_pair_counting([ratio[c] for c in cells], labels) - ceiling) <= 1e-12

    _, counts = degree_pair_counts(edges, n, excluded)
    posterior = degree_pair_posteriors(counts)
    assert set(posterior) == set(cells)
    for c in set(cells):
        assert counts[c] == [n_edge[c], n_non[c]]
        assert posterior[c] == Fraction(n_non[c] * total_e,
                                        n_non[c] * total_e + n_edge[c] * total_ne)
    # Neyman-Pearson: no other score of the degree pair beats the ceiling
    other = {c: float(rng.random()) for c in set(cells)}
    assert auc_pair_counting([other[c] for c in cells], labels) <= ceiling + 1e-12
    assert auc_pair_counting([c[0] * c[1] for c in cells], labels) <= ceiling + 1e-12
    return True


def test_ceiling_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(2718)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        _, edges = random_graph(rng, n, directed=False, p=float(rng.uniform(0.1, 0.6)))
        excluded = {int(v) for v in rng.choice(n, size=int(rng.integers(0, 3)), replace=False)}
        checked += _check_against_brute_force(edges, n, excluded, rng)
    assert checked >= 150


def test_ceiling_matches_brute_force_on_small_ba_graph():
    rng = np.random.default_rng(31)
    g = generate_ba(40, 3, seed=5)
    g, _ = inject_anomalies(g, injection_count(40, 0.10), seed=6)
    edges = [tuple(e) for e in g.edges.tolist()]
    assert _check_against_brute_force(edges, g.vertex_count, set(), rng)
    assert _check_against_brute_force(edges, g.vertex_count, {0, 7, 41}, rng)


def test_ceiling_margin_is_three_hanley_mcneil_errors():
    # A = 0.75, 1000 pairs per class: Q1 = 0.6, Q2 = 9/14, variance
    # (0.1875 + 999 * 0.0375 + 999 * (9/14 - 0.5625)) / 1e6
    se = math.sqrt((0.1875 + 999 * 0.0375 + 999 * (9 / 14 - 0.5625)) / 1e6)
    assert abs(ceiling_margin(0.75, 1000) - 3 * se) <= 1e-15
    assert abs(ceiling_margin(0.75, 1000, runs=3) - 3 * se / math.sqrt(3)) <= 1e-15


def test_shuffled_label_forest_fails_the_ceiling_bound():
    """The criterion 5 bound passes a fitted link forest and fails a blind one."""
    per_train, per_holdout = 2000, 1000
    g = generate_ba(3000, 4, seed=11)
    g, _ = inject_anomalies(g, injection_count(3000, 0.10), seed=12)
    examples = build_link_training_set(g, set(), per_train + per_holdout, seed=13)
    X = np.array([ex.features for ex in examples])
    y = np.array([ex.label for ex in examples], dtype=np.uint8)
    # the set holds all negatives, then all positives
    per_class = per_train + per_holdout
    in_train = np.zeros(len(y), dtype=bool)
    in_train[:per_train] = True
    in_train[per_class:per_class + per_train] = True

    ceiling = degree_pair_ceiling_auc([tuple(e) for e in g.edges.tolist()], g.vertex_count)
    bound = ceiling - ceiling_margin(ceiling, per_holdout)
    params = ForestParams(tree_count=30, min_leaf_size=25)
    shuffled = np.random.default_rng(14).permutation(y[in_train])
    names = feature_names(g.directed)
    fitted = train_forests([(X[in_train], y[in_train], 15)], params, names)[0]
    blind = train_forests([(X[in_train], shuffled, 15)], params, names)[0]

    fitted_auc = auc(fitted.predict_proba_many(X[~in_train]), y[~in_train])
    blind_auc = auc(blind.predict_proba_many(X[~in_train]), y[~in_train])
    print(f"ceiling {ceiling:.4f}, bound {bound:.4f}, fitted {fitted_auc:.4f}, "
          f"shuffled labels {blind_auc:.4f}")
    assert fitted_auc >= bound, (fitted_auc, ceiling, bound)
    assert blind_auc < bound, (blind_auc, ceiling, bound)
