import numpy as np
import pytest

from linkanomaly import build_graph
from linkanomaly.errors import ParameterError, ParseError, UnknownVertexError
from linkanomaly.graph import Graph


def test_build_undirected_counts():
    g = build_graph([("a", "b"), ("b", "c")], directed=False)
    assert g.vertex_count == 3
    assert g.edge_count == 2


def test_directed_keeps_both_directions():
    g = build_graph([("a", "b"), ("b", "a")], directed=True)
    assert g.edge_count == 2


def test_undirected_canonical_dedup():
    g = build_graph([("a", "b"), ("b", "a")], directed=False)
    assert g.edge_count == 1
    assert g.dropped_duplicates == 1


def test_self_loops_dropped_and_counted():
    g = build_graph([("a", "a"), ("a", "b")], directed=False)
    assert g.edge_count == 1
    assert g.dropped_self_loops == 1


def test_malformed_pair_names_entry():
    with pytest.raises(ParseError, match="entry 2"):
        build_graph([("a", "b"), ("c",)], directed=False)


def test_empty_edge_list_rejected():
    with pytest.raises(ParameterError):
        build_graph([], directed=False)


def test_neighbor_modes_directed():
    g = build_graph([("v", "u")], directed=True)
    v, u = g.id_of("v"), g.id_of("u")
    assert set(g.neighbors(v, "out")) == {u}
    assert set(g.neighbors(v, "in")) == set()
    assert set(g.neighbors(v, "all")) == {u}
    assert set(g.neighbors(v, "bi")) == set()


def test_bidirectional_neighbors():
    g = build_graph([("v", "u"), ("u", "v")], directed=True)
    v, u = g.id_of("v"), g.id_of("u")
    assert set(g.neighbors(v, "bi")) == {u}
    assert set(g.neighbors(u, "bi")) == {v}


def test_undirected_modes_coincide():
    g = build_graph([("v", "u")], directed=False)
    v, u = g.id_of("v"), g.id_of("u")
    for mode in ("all", "in", "out", "bi"):
        assert set(g.neighbors(v, mode)) == {u}


def test_unknown_vertex_raises():
    g = build_graph([("a", "b")], directed=False)
    with pytest.raises(UnknownVertexError):
        g.neighbors(99)
    with pytest.raises(UnknownVertexError):
        g.id_of("zzz")


def test_no_self_in_neighbors():
    g = build_graph([("a", "b"), ("b", "c"), ("a", "c"), ("a", "a")], directed=False)
    for v in range(g.vertex_count):
        assert v not in set(g.neighbors(v))


def test_bi_bounded_by_in_and_out():
    rng = np.random.default_rng(5)
    names = [f"n{i}" for i in range(8)]
    edges = [(names[a], names[b])
             for a in range(8) for b in range(8)
             if a != b and rng.random() < 0.4]
    g = build_graph(edges, directed=True)
    for v in range(g.vertex_count):
        assert g.degree(v, "bi") <= min(g.degree(v, "in"), g.degree(v, "out"))
        assert set(g.neighbors(v, "bi")) == set(g.neighbors(v, "in")) & set(g.neighbors(v, "out"))
        assert set(g.neighbors(v, "all")) == set(g.neighbors(v, "in")) | set(g.neighbors(v, "out"))


def test_permutation_invariance():
    edges = [("a", "b"), ("c", "d"), ("b", "c"), ("a", "d"), ("b", "d")]
    g1 = build_graph(edges, directed=False)
    g2 = build_graph(list(reversed(edges)), directed=False)
    assert g1 == g2
    assert g1.names == g2.names
    assert np.array_equal(g1.edges, g2.edges)


def test_labels_roundtrip():
    g = build_graph([("a", "b"), ("b", "c")], directed=False)
    labeled = g.with_labels({"b": 1})
    assert labeled.label_of(labeled.id_of("b")) == 1
    assert labeled.label_of(labeled.id_of("a")) == 0
    assert g.labels is None


def test_neighbors_read_only():
    g = build_graph([("a", "b")], directed=False)
    with pytest.raises(ValueError):
        g.neighbors(0)[0] = 5


@pytest.mark.parametrize("directed", [False, True])
def test_gather_neighbors_concatenates_in_vertex_order(directed):
    g = build_graph([("a", "b"), ("a", "c"), ("c", "b"), ("d", "a")], directed)
    for mode in ("all", "in", "out", "bi"):
        vs = [2, 0, 2, 3, 1]
        counts, flat = g.gather_neighbors(vs, mode)
        assert counts.tolist() == [g.degree(v, mode) for v in vs]
        assert flat.tolist() == [int(u) for v in vs for u in g.neighbors(v, mode)]
    counts, flat = g.gather_neighbors([], "all")
    assert len(counts) == 0 and len(flat) == 0
    with pytest.raises(UnknownVertexError):
        g.gather_neighbors([0, 4], "all")
    with pytest.raises(UnknownVertexError):
        g.gather_neighbors([-1], "all")


def _reference(n: int, edges: set, directed: bool) -> dict:
    """Each view's neighbor sets, built from plain Python sets."""
    out = [set() for _ in range(n)]
    into = [set() for _ in range(n)]
    for a, b in edges:
        out[a].add(b)
        into[b].add(a)
    if not directed:
        both = [o | i for o, i in zip(out, into)]
        return dict.fromkeys(("all", "in", "out", "bi"), both)
    return {"out": out, "in": into, "all": [o | i for o, i in zip(out, into)],
            "bi": [o & i for o, i in zip(out, into)]}


@pytest.mark.parametrize("directed", [False, True])
def test_views_match_set_reference_on_random_multigraphs(directed):
    rng = np.random.default_rng(17 + directed)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 3 * n))
        pairs = [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(m)]
        # repeat some edges and add some reciprocals, so every kind of input occurs
        pairs += [pairs[int(i)] for i in rng.integers(0, m, m // 3)]
        pairs += [(b, a) for a, b in pairs[: m // 2]]
        names = [f"x{i:02d}" for i in range(n)]
        g = build_graph([(names[a], names[b]) for a, b in pairs], directed)

        ids = {name: g.id_of(name) for name in g.names}
        loops = sum(a == b for a, b in pairs)
        kept = [(ids[names[a]], ids[names[b]]) for a, b in pairs if a != b]
        canon = set(kept) if directed else {(min(e), max(e)) for e in kept}
        assert g.edges.tolist() == sorted(map(list, canon))
        assert g.dropped_self_loops == loops
        assert g.dropped_duplicates == len(kept) - len(canon)

        # the same edges with two isolated vertices appended
        iso = Graph(g.names + ["~iso0", "~iso1"], g.edges, directed)
        for h in (g, iso):
            k = h.vertex_count
            ref = _reference(k, canon, directed)
            rows, cols = np.divmod(np.arange(k * k), k)
            for mode, sets in ref.items():
                keys, indptr, indices = h._view(mode)
                assert indptr.tolist() == np.cumsum([0] + [len(s) for s in sets]).tolist()
                assert indices.tolist() == [c for s in sets for c in sorted(s)]
                assert keys.tolist() == [r * k + c for r, s in enumerate(sets) for c in sorted(s)]
                assert indices.dtype == np.int32
                assert h.adjacent(rows, cols, mode).tolist() == [
                    int(c) in set(h.neighbors(int(r), mode).tolist()) for r, c in zip(rows, cols)]


def test_adjacent_rejects_ids_out_of_range():
    g = build_graph([("a", "b"), ("b", "c")], directed=True)
    assert g.adjacent([0, 1], [1, 0], "out").tolist() == [True, False]
    assert g.adjacent([], [], "all").tolist() == []
    # (0, 3) would be the key of (1, 0) without the check
    for rows, cols in (([0], [3]), ([3], [0]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(UnknownVertexError):
            g.adjacent(rows, cols, "all")
    with pytest.raises(ParameterError):
        g.adjacent([0], [1], "sideways")


def test_edges_must_be_vertex_ids():
    with pytest.raises(ParameterError):
        Graph(["a", "b"], np.array([[0, 2]]), directed=True)
    with pytest.raises(ParameterError):
        Graph(["a", "b"], np.array([[-1, 1]]), directed=False)
