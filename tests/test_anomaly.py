import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkanomaly import (ForestParams, build_graph, edge_probabilities,
                         profile_vertices, rank_vertices, vertex_profile)
from linkanomaly.anomaly import META_FEATURE_NAMES
from linkanomaly.errors import (EmptyNeighborhoodError, ParameterError,
                                ShapeError)
from linkanomaly.features import FEATURE_NAMES_DIRECTED, FEATURE_NAMES_UNDIRECTED

from _oracles import meta_features, profile_vertices_loop, rank_vertices_sorted


def _constant_forest(value=0.5, names=FEATURE_NAMES_UNDIRECTED):
    """A single-leaf forest emitting a constant vote fraction."""
    from linkanomaly.forest import LinkForest, _Tree

    c1 = int(round(value * 100))
    tree = _Tree(np.array([-1], dtype=np.int32), np.array([0.0]),
                 np.array([-1], dtype=np.int32), np.array([-1], dtype=np.int32),
                 np.array([100 - c1]), np.array([c1]))
    return LinkForest([tree], ForestParams(tree_count=1), seed=0, feature_names=names)


def test_edge_probabilities_cardinality(triangle):
    f = _constant_forest()
    v = triangle.id_of("v")
    pairs = edge_probabilities(f, triangle, v)
    assert len(pairs) == len(triangle.neighbors(v))
    assert {u for u, _ in pairs} == set(int(x) for x in triangle.neighbors(v))


def test_edge_probabilities_constant_half(triangle):
    f = _constant_forest()
    for _, p in edge_probabilities(f, triangle, triangle.id_of("u")):
        assert p == 0.5


def test_edge_probabilities_isolated_vertex_errors():
    from linkanomaly.graph import Graph

    g = Graph(["a", "b", "z"], np.array([(0, 1)]), directed=False)
    f = _constant_forest()
    with pytest.raises(EmptyNeighborhoodError):
        edge_probabilities(f, g, g.id_of("z"))


def test_edge_probabilities_feature_mode_guard():
    g = build_graph([("a", "b"), ("b", "c")], directed=True)
    f = _constant_forest(names=FEATURE_NAMES_UNDIRECTED)  # undirected forest, directed graph
    with pytest.raises(ShapeError):
        edge_probabilities(f, g, 0)


def test_edge_probabilities_stub_table_lookup():
    # forest stub mapping each edge to a preset table
    class Stub:
        n_features = 7
        feature_names = FEATURE_NAMES_UNDIRECTED

        def __init__(self, table):
            self.table = table

        def predict_proba_many(self, X):
            return np.array([self.table[int(row[1])] for row in X])

    g = build_graph([("a", "b"), ("a", "c"), ("a", "d")], directed=False)
    a = g.id_of("a")
    # common_friends (column 1) is 0 for every pair here; use per-neighbor
    # order instead: the stub keys on call order via a queue
    queue = [0.9, 0.1, 0.4]

    class SeqStub:
        n_features = 7
        feature_names = FEATURE_NAMES_UNDIRECTED

        def predict_proba_many(self, X):
            return np.array(queue[:len(X)])

    pairs = edge_probabilities(SeqStub(), g, a)
    assert [p for _, p in pairs] == [0.9, 0.1, 0.4]


def test_vertex_profile_basic():
    p = vertex_profile([0.2, 0.4, 0.6], 0.8, v=1)
    assert p.abnormality_probability == pytest.approx(0.4)
    assert p.edges_probability_median == pytest.approx(0.4)
    assert p.sum_edge_label == 0
    assert p.mean_predicted_link_label == 0.0
    assert p.predicted_label_stdv == 0.0
    assert p.edges_probability_stdv == pytest.approx(0.16329931618554522)
    assert p.edge_count == 3


def test_vertex_profile_boundary_inclusive():
    p = vertex_profile([0.8], 0.8, v=0)
    assert p.sum_edge_label == 1
    assert p.mean_predicted_link_label == 1.0


def test_vertex_profile_even_median_and_labels():
    p = vertex_profile([0.79, 0.81, 0.95, 0.10], 0.8, v=0)
    assert p.sum_edge_label == 2
    assert p.mean_predicted_link_label == 0.5
    assert p.predicted_label_stdv == 0.5
    assert p.edges_probability_median == pytest.approx(0.80)


def test_vertex_profile_empty_errors():
    with pytest.raises(EmptyNeighborhoodError):
        vertex_profile([], 0.8, v=0)


def test_vertex_profile_threshold_range():
    with pytest.raises(ParameterError):
        vertex_profile([0.5], 1.5, v=0)


def test_meta_oracle_1000_random_sets():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        ep = rng.random(n).tolist()
        threshold = float(rng.uniform(0.05, 0.95))
        p = vertex_profile(ep, threshold, v=0)
        ref = meta_features(ep, threshold)
        for name in META_FEATURE_NAMES:
            assert p.value(name) == pytest.approx(ref[name], abs=1e-12), name


def test_rank_vertices_desc():
    profiles = [vertex_profile([x], 0.8, v=i)
                for i, x in enumerate([0.9, 0.1, 0.5])]
    assert rank_vertices(profiles, "abnormality_probability", "desc") == [0, 2, 1]


def test_rank_ties_break_by_vertex_id():
    profiles = [vertex_profile([0.4], 0.8, v=i) for i in (5, 3, 9)]
    assert rank_vertices(profiles, "abnormality_probability", "desc") == [3, 5, 9]
    assert rank_vertices(profiles, "abnormality_probability", "asc") == [3, 5, 9]


def test_rank_asc_reverses_desc_for_distinct():
    profiles = [vertex_profile([x], 0.8, v=i)
                for i, x in enumerate([0.9, 0.1, 0.5, 0.7])]
    d = rank_vertices(profiles, "abnormality_probability", "desc")
    a = rank_vertices(profiles, "abnormality_probability", "asc")
    assert a == list(reversed(d))


def test_rank_unknown_feature():
    with pytest.raises(ParameterError):
        rank_vertices([], "nope")


def test_profile_vertices_skips_empty():
    from linkanomaly.graph import Graph

    g = Graph(["a", "b", "z"], np.array([(0, 1)]), directed=False)
    f = _constant_forest()
    profiles, skipped = profile_vertices(f, g, [0, 2], threshold=0.8)
    assert [p.vertex for p in profiles] == [0]
    assert skipped == [2]


def test_profile_vertices_directed_modes():
    g = build_graph([("a", "b"), ("c", "a"), ("a", "d")], directed=True)
    f = _constant_forest(names=FEATURE_NAMES_DIRECTED)
    a = g.id_of("a")
    out_p, _ = profile_vertices(f, g, [a], mode="out")
    in_p, _ = profile_vertices(f, g, [a], mode="in")
    all_p, _ = profile_vertices(f, g, [a], mode="all")
    assert out_p[0].edge_count == 2
    assert in_p[0].edge_count == 1
    assert all_p[0].edge_count == 3


@settings(max_examples=100, deadline=None)
@given(ep=st.lists(st.floats(0, 1), min_size=1, max_size=30),
       t1=st.floats(0.05, 0.95), t2=st.floats(0.05, 0.95))
def test_threshold_monotonicity(ep, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert vertex_profile(ep, hi, 0).sum_edge_label <= vertex_profile(ep, lo, 0).sum_edge_label


@settings(max_examples=100, deadline=None)
@given(ep=st.lists(st.floats(0, 1), min_size=1, max_size=30),
       t=st.floats(0.05, 0.95))
def test_profile_invariants(ep, t):
    p = vertex_profile(ep, t, 0)
    assert p.sum_edge_label <= p.edge_count
    assert p.mean_predicted_link_label * p.edge_count == pytest.approx(p.sum_edge_label, abs=1e-9)
    assert 0.0 <= p.predicted_label_stdv <= 0.5
    eps = 1e-12
    assert min(ep) - eps <= p.abnormality_probability <= max(ep) + eps
    assert min(ep) - eps <= p.edges_probability_median <= max(ep) + eps


def test_dominating_ep_ranks_higher():
    rng = np.random.default_rng(2)
    low = vertex_profile(rng.uniform(0.0, 0.4, 10).tolist(), 0.8, v=1)
    high = vertex_profile(rng.uniform(0.6, 1.0, 10).tolist(), 0.8, v=2)
    assert rank_vertices([low, high], "abnormality_probability", "desc") == [2, 1]


def _trained_host(directed):
    """A random host with isolated vertices and a small forest trained on it."""
    from linkanomaly import build_link_training_set, feature_names, train_forest
    from linkanomaly.graph import Graph

    rng = np.random.default_rng(31 + directed)
    n = 120
    src = rng.integers(0, 100, 700)  # ids 100..119 get no out-edges
    dst = rng.integers(0, 110, 700)  # ids 110..119 get no edges at all
    keep = src != dst
    key = np.unique(src[keep] * n + dst[keep]) if directed else np.unique(
        np.minimum(src, dst)[keep] * n + np.maximum(src, dst)[keep])
    g = Graph([f"v{i:03d}" for i in range(n)], np.column_stack([key // n, key % n]), directed)
    examples = build_link_training_set(g, set(), 200, seed=5)
    forest = train_forest(examples, ForestParams(tree_count=7, min_leaf_size=3), seed=6,
                          feature_names=feature_names(directed))
    return g, forest


@pytest.mark.parametrize("directed, mode", [(False, "out"), (True, "out"), (True, "in"),
                                            (True, "all")])
def test_profile_vertices_batch_equals_per_vertex(directed, mode):
    g, forest = _trained_host(directed)
    vertices = [115, 3, 104, 3, 50, 119, 7, 7, 112] + list(range(0, 120, 9))
    profiles, skipped = profile_vertices(forest, g, vertices, threshold=0.6, mode=mode)
    view = mode if directed else "all"
    assert skipped == [v for v in vertices if len(g.neighbors(v, view)) == 0]
    assert len(skipped) >= 2
    kept = [v for v in vertices if len(g.neighbors(v, view)) > 0]
    assert [p.vertex for p in profiles] == kept
    for p in profiles:
        ep = [s for _, s in edge_probabilities(forest, g, p.vertex, mode)]
        expected = vertex_profile(ep, 0.6, p.vertex)
        for name in META_FEATURE_NAMES:
            assert p.value(name) == expected.value(name), (p.vertex, name)
    assert len({p.abnormality_probability for p in profiles}) > 3


# hub degrees spanning numpy's pairwise-sum regimes: under 8 terms, one
# unrolled block of up to 128, one split, and several levels of splits
HUB_DEGREES = (1, 2, 5, 7, 8, 9, 16, 17, 100, 127, 128, 129, 130, 200, 255, 256, 257,
               300, 1000, 1100)
DEGREE_RANGES = ((1, 7), (8, 128), (129, 256), (257, 10**6))


def _hub_host(directed):
    """Hubs with out- and in-degrees from HUB_DEGREES over random leaves.

    The last ten ids have no edges at all; in directed graphs, leaves that
    only receive edges have no out-edges.
    """
    from linkanomaly.graph import Graph

    rng = np.random.default_rng(41 + directed)
    hubs, leaves, n = len(HUB_DEGREES), 1200, len(HUB_DEGREES) + 1200 + 10
    src, dst = [], []
    for h, (d_out, d_in) in enumerate(zip(HUB_DEGREES, reversed(HUB_DEGREES))):
        src += [h] * d_out
        dst += (hubs + rng.choice(leaves, d_out, replace=False)).tolist()
        src += (hubs + rng.choice(leaves, d_in, replace=False)).tolist()
        dst += [h] * d_in
    src += (hubs + rng.integers(0, leaves // 2, 1500)).tolist()
    dst += (hubs + rng.integers(0, leaves, 1500)).tolist()
    src, dst = np.array(src), np.array(dst)
    keep = src != dst
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    key = np.unique(src[keep] * n + dst[keep])
    return Graph([f"v{i:04d}" for i in range(n)], np.column_stack([key // n, key % n]),
                 directed)


class _RandomScores:
    """Forest stand-in: seeded uniform scores, or quarters when `coarse`.

    Scores follow the edge's position in the batch, so quarters tie many
    vertices' statistics and ranked values.
    """

    def __init__(self, coarse, directed):
        self.coarse = coarse
        self.feature_names = FEATURE_NAMES_DIRECTED if directed else FEATURE_NAMES_UNDIRECTED

    def predict_proba_many(self, X):
        p = np.random.default_rng(len(X)).random(len(X))
        return np.round(p * 4) / 4 if self.coarse else p


@pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
@pytest.mark.parametrize("directed, mode", [(False, "out"), (True, "out"), (True, "in"),
                                            (True, "all")])
def test_profile_vertices_and_ranking_are_bit_identical_to_loops(directed, mode, coarse):
    g = _hub_host(directed)
    forest = _RandomScores(coarse, directed)
    rng = np.random.default_rng(7)
    n = g.vertex_count
    hubs = list(range(len(HUB_DEGREES)))
    vertices = hubs + rng.integers(0, n, 400).tolist() + [n - 1, n - 2, hubs[-1], hubs[3]]
    rng.shuffle(vertices)
    profiles, skipped = profile_vertices(forest, g, vertices, threshold=0.6, mode=mode)
    expected, expected_skipped = profile_vertices_loop(forest, g, vertices, 0.6, mode)
    assert skipped == expected_skipped and n - 1 in skipped
    assert profiles == expected  # dataclass ==: every field, float values by ==
    counts = {p.edge_count for p in profiles}
    assert all(any(lo <= d <= hi for d in counts) for lo, hi in DEGREE_RANGES)
    means = [p.abnormality_probability for p in profiles]
    assert len(set(means)) < len(means) if coarse else len(set(means)) > 100
    for by in META_FEATURE_NAMES:
        for order in ("desc", "asc"):
            assert (rank_vertices(profiles, by, order)
                    == rank_vertices_sorted(profiles, by, order)), (by, order)


@pytest.mark.parametrize("kwargs, message", [
    ({"threshold": 1.5}, "threshold must be in"),
    ({"threshold": float("nan")}, "threshold must be in"),
    ({"mode": "bogus"}, "direction mode must be one of"),
])
def test_profile_vertices_checks_arguments_without_edges(kwargs, message):
    g = build_graph([("a", "b")], directed=True)
    f = _constant_forest(names=FEATURE_NAMES_DIRECTED)
    assert profile_vertices(f, g, [g.id_of("b")]) == ([], [g.id_of("b")])
    with pytest.raises(ParameterError, match=message):
        profile_vertices(f, g, [g.id_of("b")], **kwargs)
    with pytest.raises(ParameterError, match=message):
        profile_vertices(f, g, [], **kwargs)
