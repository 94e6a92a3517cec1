import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkanomaly import build_graph, extract_edge_features, extract_feature_matrix, features
from linkanomaly.errors import InvalidPairError, UnknownVertexError
from linkanomaly.features import FEATURE_NAMES_DIRECTED, FEATURE_NAMES_UNDIRECTED
from linkanomaly.graph import Graph

from _oracles import all_graphs, edge_features
from conftest import random_graph


def _graph_from_ids(edges, directed, n):
    names = [f"n{i}" for i in range(n)]
    pairs = [(names[a], names[b]) for a, b in edges]
    # keep isolated vertices by adding and ignoring nothing: build needs edges only;
    # pad with a marker edge when a vertex would vanish
    g = build_graph(pairs, directed) if pairs else None
    return g


def _features(g, v, u):
    return extract_edge_features(g, g.id_of(v), g.id_of(u))


def test_total_friends_examples():
    g = build_graph([("v", "a"), ("v", "b"), ("u", "b"), ("u", "c")], directed=False)
    assert _features(g, "v", "u")["total_friends"] == 3


def test_total_friends_shared_single():
    g = build_graph([("v", "a"), ("u", "a")], directed=False)
    assert _features(g, "v", "u")["total_friends"] == 1


def test_common_friends_modes():
    g = build_graph([("v", "a"), ("u", "a")], directed=True)
    fv = _features(g, "v", "u")
    assert fv["common_friends_out"] == 1
    assert fv["common_friends_in"] == 0


def test_jaccard_values():
    g = build_graph([("v", "a"), ("v", "b"), ("u", "b"), ("u", "c")], directed=False)
    assert _features(g, "v", "u")["jaccard"] == pytest.approx(1 / 3)


def test_jaccard_empty_union_is_zero():
    # isolated vertices can only exist in directly constructed graphs
    g = Graph(["a", "b", "v", "u"], np.array([(0, 1)]), directed=False)
    assert _features(g, "v", "u")["jaccard"] == 0.0


def test_preferential_attachment():
    g = build_graph([("v", "a"), ("v", "b"), ("u", "a"), ("u", "b"), ("u", "c")],
                    directed=False)
    assert _features(g, "v", "u")["preferential_attachment"] == 6


def test_transitive_friends_two_paths():
    g = build_graph([("v", "a"), ("v", "b"), ("a", "u"), ("b", "u")], directed=True)
    assert _features(g, "v", "u")["transitive_friends"] == 2


def test_transitive_friends_direction_matters():
    g = build_graph([("a", "v"), ("u", "a")], directed=True)
    assert _features(g, "v", "u")["transitive_friends"] == 0


def test_opposite_direction_friends():
    g = build_graph([("v", "u"), ("u", "v"), ("v", "w")], directed=True)
    assert _features(g, "v", "u")["opposite_direction_friends"] == 1
    assert _features(g, "v", "w")["opposite_direction_friends"] == 0
    assert _features(g, "u", "w")["opposite_direction_friends"] == 0


def test_adamic_adar_single_shared():
    g = build_graph([("v", "w"), ("u", "w")], directed=False)
    assert _features(g, "v", "u")["adamic_adar"] == pytest.approx(1 / math.log(2))


def test_adamic_adar_two_shared():
    # shared neighbors w (degree 2) and x (degree 3)
    g = build_graph([("v", "w"), ("u", "w"), ("v", "x"), ("u", "x"), ("x", "z")],
                    directed=False)
    expected = 1 / math.log(2) + 1 / math.log(3)
    assert _features(g, "v", "u")["adamic_adar"] == pytest.approx(expected)


def test_knn_weights_directed_values():
    # |Γ_in(v)|=3, |Γ_in(u)|=0 -> knnw1 = 1/2 + 1 = 1.5
    g = build_graph([("a", "v"), ("b", "v"), ("c", "v"), ("u", "x")], directed=True)
    assert _features(g, "v", "u")["knnw1"] == pytest.approx(1.5)
    # |Γ_out(v)|=|Γ_out(u)|=3 -> knnw8 = 1/4
    g2 = build_graph([("v", "a"), ("v", "b"), ("v", "c"),
                      ("u", "a"), ("u", "b"), ("u", "c")], directed=True)
    assert _features(g2, "v", "u")["knnw8"] == pytest.approx(0.25)


def test_extract_triangle_matches_hand_computation():
    g = build_graph([("v", "u"), ("u", "w"), ("v", "w")], directed=False)
    fv = extract_edge_features(g, g.id_of("v"), g.id_of("u"))
    assert fv.names == FEATURE_NAMES_UNDIRECTED
    expected = [3, 1, 1 / 3, 4, 1 / math.log(2), 2 / math.sqrt(3), 1 / 3]
    assert fv.values == pytest.approx(expected)


def test_extract_isolated_pair():
    g = Graph(["a", "b", "v", "u"], np.array([(0, 1)]), directed=False)
    fv = extract_edge_features(g, g.id_of("v"), g.id_of("u"))
    assert fv.values == pytest.approx([0, 0, 0, 0, 0, 2, 1])


def test_extract_directed_single_edge_odf_zero():
    g = build_graph([("v", "u"), ("u", "w")], directed=True)
    fv = extract_edge_features(g, g.id_of("v"), g.id_of("u"))
    assert fv.names == FEATURE_NAMES_DIRECTED
    assert fv["opposite_direction_friends"] == 0


def test_invalid_pair():
    g = build_graph([("a", "b")], directed=False)
    with pytest.raises(InvalidPairError):
        extract_edge_features(g, 0, 0)


def test_exhaustive_oracle_small_undirected():
    # every undirected graph on 4 vertices, every ordered pair
    n = 4
    names = [f"n{i}" for i in range(n)]
    for edges in all_graphs(n, directed=False):
        if not edges:
            continue
        g = build_graph([(names[a], names[b]) for a, b in edges], directed=False)
        present = {g.id_of(names[i]): i for i in range(n) if names[i] in set(g.names)}
        for gid, oid in present.items():
            for gid2, oid2 in present.items():
                if gid == gid2:
                    continue
                fv = extract_edge_features(g, gid, gid2)
                ref = edge_features(edges, False, n, oid, oid2)
                for name, value in fv:
                    assert value == pytest.approx(ref[name], abs=1e-12), (edges, name)


def test_exhaustive_oracle_small_directed():
    n = 3
    names = [f"n{i}" for i in range(n)]
    for edges in all_graphs(n, directed=True):
        if not edges:
            continue
        g = build_graph([(names[a], names[b]) for a, b in edges], directed=True)
        present = {g.id_of(names[i]): i for i in range(n) if names[i] in set(g.names)}
        for gid, oid in present.items():
            for gid2, oid2 in present.items():
                if gid == gid2:
                    continue
                fv = extract_edge_features(g, gid, gid2)
                ref = edge_features(edges, True, n, oid, oid2)
                for name, value in fv:
                    assert value == pytest.approx(ref[name], abs=1e-12), (edges, name)


@pytest.mark.parametrize("directed", [False, True])
def test_random_graphs_vs_oracle(directed):
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(5, 9))
        pairs, edges = random_graph(rng, n, directed)
        g = build_graph(pairs, directed)
        for v_name in g.names:
            for u_name in g.names:
                if v_name == u_name:
                    continue
                v, u = g.id_of(v_name), g.id_of(u_name)
                ov, ou = int(v_name[1:]), int(u_name[1:])
                fv = extract_edge_features(g, v, u)
                ref = edge_features(edges, directed, n, ov, ou)
                for name, value in fv:
                    assert value == pytest.approx(ref[name], abs=1e-12)


def test_feature_matrix_matches_per_pair():
    rng = np.random.default_rng(9)
    pairs, _ = random_graph(rng, 15, directed=False, p=0.25)
    g = build_graph(pairs, directed=False)
    query = []
    while len(query) < 200:
        v, u = rng.integers(g.vertex_count, size=2)
        if v != u:
            query.append((int(v), int(u)))
    X = extract_feature_matrix(g, query)
    for row, (v, u) in zip(X, query):
        assert row == pytest.approx(extract_edge_features(g, v, u).values, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_symmetry_on_undirected(data):
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    pairs, _ = random_graph(rng, 7, directed=False)
    g = build_graph(pairs, directed=False)
    v = data.draw(st.integers(0, g.vertex_count - 1))
    u = data.draw(st.integers(0, g.vertex_count - 1))
    if v == u:
        return
    fv = extract_edge_features(g, v, u)
    fu = extract_edge_features(g, u, v)
    assert fv.values == pytest.approx(fu.values, abs=0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bounds_properties(data):
    seed = data.draw(st.integers(0, 10_000))
    directed = data.draw(st.booleans())
    rng = np.random.default_rng(seed)
    pairs, _ = random_graph(rng, 8, directed)
    g = build_graph(pairs, directed)
    v = data.draw(st.integers(0, g.vertex_count - 1))
    u = data.draw(st.integers(0, g.vertex_count - 1))
    if v == u:
        return
    fv = extract_edge_features(g, v, u)
    assert 0.0 <= fv["jaccard"] <= 1.0
    assert fv["total_friends"] <= g.vertex_count
    assert np.isfinite(fv.values).all()
    kn = np.array([value for name, value in fv if name.startswith("knnw")])
    half = len(kn) // 2
    assert np.all(kn[:half] > 0) and np.all(kn[:half] <= 2.0)
    assert np.all(kn[half:] > 0) and np.all(kn[half:] <= 1.0)
    if directed:
        # |Γ(v) ∩ Γ(u)| over all-neighbors, from the union
        common_all = g.degree(v) + g.degree(u) - fv["total_friends"]
        assert common_all >= fv["common_friends_bi"]


# -- batch kernel against the pairwise reference, bit for bit ----------------------


def _stacked(g, pairs):
    return np.array([extract_edge_features(g, v, u).values for v, u in pairs])


def _all_ordered_pairs(g):
    n = g.vertex_count
    return [(v, u) for v in range(n) for u in range(n) if v != u]


@pytest.mark.parametrize("directed", [False, True])
def test_feature_matrix_bitwise_on_random_graphs(directed):
    rng = np.random.default_rng(21)
    for _ in range(40):
        pairs, _ = random_graph(rng, int(rng.integers(3, 12)), directed, p=0.4)
        g = build_graph(pairs, directed)
        query = _all_ordered_pairs(g)
        assert extract_feature_matrix(g, query).tobytes() == _stacked(g, query).tobytes()


def test_feature_matrix_bitwise_on_directed_host_with_reciprocal_edges():
    rng = np.random.default_rng(4)
    n = 300
    src = rng.integers(0, n, 3000)
    dst = (src + rng.geometric(0.05, 3000)) % n
    back = rng.random(3000) < 0.3
    edges = list(zip(src.tolist(), dst.tolist())) + list(zip(dst[back].tolist(), src[back].tolist()))
    g = build_graph([(f"v{a}", f"v{b}") for a, b in edges], directed=True)
    query = [(v, u) for v, u in rng.integers(0, g.vertex_count, (3000, 2)).tolist() if v != u]
    query += [(int(a), int(b)) for a, b in g.edges[:1000]]
    query += [(int(b), int(a)) for a, b in g.edges[:1000]]
    X = extract_feature_matrix(g, query)
    assert X[:, FEATURE_NAMES_DIRECTED.index("opposite_direction_friends")].any()
    assert X[:, FEATURE_NAMES_DIRECTED.index("common_friends_bi")].any()
    assert X.tobytes() == _stacked(g, query).tobytes()


def _hub_host(directed):
    """Hubs h0..h3 share 140, 60, 20, 9 and 8 leaves with h0, each leaf
    with its own degree, so Adamic-Adar sums 8 to 140 distinct terms."""
    rng = np.random.default_rng(8)
    edges = []
    for leaf in range(140):
        edges.append(("h0", f"w{leaf}"))
        edges += [(f"w{leaf}", f"x{leaf}_{k}") for k in range(int(rng.integers(0, 30)))]
    for hub, shared in (("h1", 140), ("h2", 60), ("h3", 20), ("h4", 9), ("h5", 8)):
        edges += [(hub, f"w{leaf}") for leaf in range(shared)]
    if directed:  # leaves point back to some hubs, so in/out/bi sets differ
        edges += [(f"w{leaf}", "h1") for leaf in range(0, 140, 3)]
    return build_graph(edges, directed)


@pytest.mark.parametrize("directed", [False, True])
def test_feature_matrix_bitwise_with_many_shared_neighbors(directed):
    g = _hub_host(directed)
    hubs = [g.id_of(f"h{i}") for i in range(6)]
    query = [(a, b) for a in hubs for b in hubs if a != b]
    rng = np.random.default_rng(2)
    query += [(v, u) for v, u in rng.integers(0, g.vertex_count, (500, 2)).tolist() if v != u]
    X = extract_feature_matrix(g, query)
    assert X.tobytes() == _stacked(g, query).tobytes()
    names = FEATURE_NAMES_DIRECTED if directed else FEATURE_NAMES_UNDIRECTED
    shared = X[:, names.index("common_friends_out" if directed else "common_friends")]
    assert shared.max() >= 130 and ((shared >= 8) & (shared < 130)).sum() >= 8
    if not directed:
        # the trap: left-to-right addition of the same terms gives other bits
        aa = FEATURE_NAMES_UNDIRECTED.index("adamic_adar")
        sequential = [sum(1.0 / math.log(g.degree(int(w)))
                          for w in np.intersect1d(g.neighbors(v), g.neighbors(u)))
                      for v, u in query]
        assert (X[:, aa] != np.array(sequential)).any()


@pytest.mark.parametrize("directed", [False, True])
def test_pairwise_reference_does_not_use_the_batch_lookups(monkeypatch, directed):
    g = _hub_host(directed)
    hubs = [g.id_of(f"h{i}") for i in range(6)]
    query = [(a, b) for a in hubs for b in hubs if a != b]
    query += [(int(a), int(b)) for a, b in g.edges[:300]]
    expected = extract_feature_matrix(g, query).tobytes()

    def batch_only(*args, **kwargs):
        raise AssertionError("the pairwise reference reached a batch-kernel lookup")

    monkeypatch.setattr(Graph, "adjacent", batch_only)
    monkeypatch.setattr(Graph, "gather_neighbors", batch_only)
    monkeypatch.setattr(features, "extract_feature_matrix", batch_only)
    monkeypatch.setattr(features, "_shared", batch_only)
    assert _stacked(g, query).tobytes() == expected


@pytest.mark.parametrize("directed", [False, True])
def test_feature_matrix_empty_pair_list(directed):
    g = build_graph([("a", "b"), ("b", "c")], directed)
    d = len(FEATURE_NAMES_DIRECTED if directed else FEATURE_NAMES_UNDIRECTED)
    assert extract_feature_matrix(g, []).shape == (0, d)
    assert extract_feature_matrix(g, np.empty((0, 2), dtype=np.int64)).shape == (0, d)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("bad, error", [((1, 1), InvalidPairError),
                                        ((0, 3), UnknownVertexError),
                                        ((-1, 0), UnknownVertexError),
                                        ((7, 7), UnknownVertexError)])
def test_feature_matrix_rejects_bad_pairs_like_the_pairwise_path(directed, bad, error):
    g = build_graph([("a", "b"), ("b", "c")], directed)
    with pytest.raises(error):
        extract_edge_features(g, *bad)
    with pytest.raises(error):
        extract_feature_matrix(g, [(0, 1), bad, (1, 2)])
