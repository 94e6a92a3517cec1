import numpy as np
import pytest

from linkanomaly import build_graph, generate_ba, inject_anomalies
from linkanomaly.errors import ParameterError, ParseError, UnknownVertexError
from linkanomaly.graph import Graph, _slot, _View
from linkanomaly.io import load_edge_list


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


@pytest.mark.parametrize("directed", [False, True])
def test_graph_equality_is_by_name(directed):
    names = ["a", "b", "c", "d"]
    edges = np.array([[0, 1], [1, 2], [2, 0], [0, 3]])
    labels = np.array([0, 1, 0, 0])
    g = Graph(names, edges, directed, labels=labels)
    new_id = np.array([2, 0, 3, 1])  # vertex i gets id new_id[i]
    permuted = [names[i] for i in np.argsort(new_id)]
    assert Graph(permuted, new_id[edges], directed, labels=labels[np.argsort(new_id)]) == g

    assert Graph(names, edges, directed) != g  # b is anomalous only in g
    assert Graph(names, edges, directed, labels=[1, 1, 0, 0]) != g
    reversed_edge = edges.copy()
    reversed_edge[0] = [1, 0]
    assert (Graph(names, reversed_edge, directed, labels=labels) == g) is not directed
    assert Graph(names + ["e"], edges, directed, labels=[*labels, 0]) != g
    isolated = Graph(names + ["e"], edges, directed)
    assert Graph(names + ["f"], edges, directed) != isolated
    assert Graph(names + ["e"], edges, directed) == isolated


def test_neighbor_modes_directed():
    g = build_graph([("v", "u")], directed=True)
    v, u = g.id_of("v"), g.id_of("u")
    assert set(g.neighbors(v, "out")) == {u}
    assert set(g.neighbors(v, "in")) == set()
    assert set(g.neighbors(v, "all")) == {u}
    # the reciprocal set is Γ_in ∩ Γ_out, derived where it is used, not a view
    with pytest.raises(ParameterError):
        g.neighbors(v, "bi")


def test_undirected_modes_coincide():
    g = build_graph([("v", "u")], directed=False)
    v, u = g.id_of("v"), g.id_of("u")
    for mode in ("all", "in", "out"):
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


def test_all_is_union_of_in_and_out():
    rng = np.random.default_rng(5)
    names = [f"n{i}" for i in range(8)]
    edges = [(names[a], names[b])
             for a in range(8) for b in range(8)
             if a != b and rng.random() < 0.4]
    g = build_graph(edges, directed=True)
    for v in range(g.vertex_count):
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
    assert labeled.labels[labeled.id_of("b")] == 1
    assert labeled.labels[labeled.id_of("a")] == 0
    assert g.labels.tolist() == [0, 0, 0]  # a graph built without labels is all normal
    assert g.labels.dtype == np.int8 and not g.labels.flags.writeable


@pytest.mark.parametrize("directed", [False, True])
def test_with_labels_keeps_drop_counts_and_shares_edges_and_views(directed):
    g = build_graph([("a", "b"), ("b", "c"), ("c", "b"), ("b", "c"), ("a", "a")], directed)
    labeled = g.with_labels({"b": 1})
    assert labeled.labels.tolist() == [0, 1, 0] and g.labels.tolist() == [0, 0, 0]
    assert (labeled.dropped_self_loops, labeled.dropped_duplicates) == (1, 2 - directed)
    assert labeled.edges is g.edges
    for mode in ("all", "in", "out"):
        assert all(a is b for a, b in zip(labeled._view(mode), g._view(mode)))


def test_with_labels_names_the_labelled_names_that_are_not_vertices():
    g = build_graph([("a", "b"), ("b", "c")], directed=False)
    with pytest.raises(UnknownVertexError, match=r"^2 labelled name\(s\) are not vertices "
                                                 r"of the graph, the first 'x'$"):
        g.with_labels({"b": 1, "x": 1, "a": 0, "y": 0})


def test_names_must_be_unique_and_labels_one_per_vertex():
    for names in (["a", "b", "a"], ["a", "a"]):
        with pytest.raises(ParameterError, match="not unique"):
            Graph(names, np.empty((0, 2), dtype=np.int64), directed=False)
    with pytest.raises(ParameterError, match="one entry per vertex"):
        Graph(["a", "b", "c"], [[1, 0]], directed=False, labels=[1, 1])
    # the graph's labels are a read-only copy; the caller's array stays writable
    labels = np.array([0, 1, 0], dtype=np.int8)
    g = Graph(["a", "b", "c"], [[1, 0]], directed=False, labels=labels)
    assert not g.labels.flags.writeable and labels.flags.writeable
    assert g.labels.tolist() == [0, 1, 0]


@pytest.mark.parametrize("host_from", ["generate_ba", "load_edge_list"])
def test_a_replaced_host_builds_no_views(tmp_path, monkeypatch, host_from):
    builds = []
    of = _View.of.__func__

    def counted_of(cls, keys, n):
        builds.append(n)
        return of(cls, keys, n)

    monkeypatch.setattr(_View, "of", classmethod(counted_of))
    if host_from == "generate_ba":
        host = generate_ba(300, 3, seed=1)
    else:
        ends = np.random.default_rng(1).integers(0, 300, (1500, 2)).tolist()
        path = tmp_path / "g.txt"
        path.write_text("".join(f"u{a},u{b}\n" for a, b in ends))
        host = load_edge_list(path, directed=True)
    g, _ = inject_anomalies(host, 30, seed=2)
    before = g.with_labels({})
    # the degrees that the edge rows give build nothing either
    for h in (host, g):
        for mode in ("in", "out") if h.directed else ("all", "in", "out"):
            h.degrees(mode)
    assert builds == []

    g.neighbors(0)
    assert len(builds) == (3 if g.directed else 1)
    after = g.with_labels({})
    for h in (g, before, after):
        for mode in ("all", "in", "out"):
            h.neighbors(1, mode)
            h.degrees(mode)
    assert len(builds) == (3 if g.directed else 1)
    assert host._views == {}


def test_neighbors_read_only():
    g = build_graph([("a", "b")], directed=False)
    with pytest.raises(ValueError):
        g.neighbors(0)[0] = 5


@pytest.mark.parametrize("directed", [False, True])
def test_gather_neighbors_concatenates_in_vertex_order(directed):
    g = build_graph([("a", "b"), ("a", "c"), ("c", "b"), ("d", "a")], directed)
    for mode in ("all", "in", "out"):
        vs = [2, 0, 2, 3, 1]
        counts, flat = g.gather_neighbors(vs, mode)
        assert counts.tolist() == [len(g.neighbors(v, mode)) for v in vs]
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
        return dict.fromkeys(("all", "in", "out"), both)
    return {"out": out, "in": into, "all": [o | i for o, i in zip(out, into)]}


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

        # the same rows as ids, self-loops, repeats and reversals included,
        # straight into the constructor: it cleans them as build_graph does
        direct = Graph(g.names, [(ids[names[a]], ids[names[b]]) for a, b in pairs], directed)
        assert direct.edges.tobytes() == g.edges.tobytes()
        assert (direct.dropped_self_loops, direct.dropped_duplicates) == \
            (g.dropped_self_loops, g.dropped_duplicates)
        # the same edges with two isolated vertices appended
        iso = Graph(g.names + ["~iso0", "~iso1"], g.edges, directed)
        for h in (g, direct, iso):
            assert not h.edges.flags.writeable and not h.degrees("out").flags.writeable
            k = h.vertex_count
            assert [h.id_of(name) for name in h.names] == list(range(k))
            ref = _reference(k, canon, directed)
            rows, cols = np.divmod(np.arange(k * k), k)
            for mode, sets in ref.items():
                view = h._view(mode)
                keys, indptr, indices = view.keys, view.indptr, view.indices
                assert indptr.tolist() == np.cumsum([0] + [len(s) for s in sets]).tolist()
                assert indices.tolist() == [c for s in sets for c in sorted(s)]
                assert keys.tolist() == [r * k + c for r, s in enumerate(sets) for c in sorted(s)]
                assert indices.dtype == np.int32
                assert np.array_equal(h.degrees(mode), np.diff(indptr))
                assert h.adjacent(rows, cols, mode).tolist() == [
                    int(c) in set(h.neighbors(int(r), mode).tolist()) for r, c in zip(rows, cols)]


def _table_bit(view, keys):
    byte, bit = _slot(keys, view.shift)
    return byte * 8 + bit


def test_adjacent_turns_away_misses_whose_bit_an_edge_set():
    rng = np.random.default_rng(23)
    n = 400
    g = Graph([f"v{i:03d}" for i in range(n)], rng.integers(0, n, (3000, 2)), directed=True)
    for mode in ("all", "in", "out"):
        view = g._view(mode)
        assert len(view.bits) * 8 >= 8 * len(view.keys) > len(view.bits) * 4  # the table's size
        # every non-edge key that shares an edge's bit: only the search can turn these away
        others = np.setdiff1d(np.arange(n * n), view.keys)
        colliding = others[np.isin(_table_bit(view, others), _table_bit(view, view.keys))]
        assert len(colliding) > 100
        assert not g.adjacent(*np.divmod(colliding, n), mode).any()
        assert g.adjacent(*np.divmod(view.keys, n), mode).all()


@pytest.mark.parametrize("directed", [False, True])
def test_adjacent_matches_a_set_of_edges(directed):
    rng = np.random.default_rng(31 + directed)
    for n, m in ((2, 1), (50, 100), (300, 2000), (1000, 20000)):
        g = Graph([f"v{i:04d}" for i in range(n)], rng.integers(0, n, (m, 2)), directed)
        out = set(map(tuple, g.edges.tolist()))
        into = {(b, a) for a, b in out}
        sets = ({"out": out, "in": into, "all": out | into} if directed
                else dict.fromkeys(("out", "in", "all"), out | into))
        # random pairs, every edge and its reverse, the largest key, (n-1) * n + (n-1),
        # and the largest key an edge can have, (n-1) * n + (n-2)
        rows = np.r_[rng.integers(0, n, 5000), g.edges[:, 0], g.edges[:, 1], n - 1, n - 1]
        cols = np.r_[rng.integers(0, n, 5000), g.edges[:, 1], g.edges[:, 0], n - 1, n - 2]
        for mode, edges in sets.items():
            assert g.adjacent(rows, cols, mode).tolist() == [
                (r, c) in edges for r, c in zip(rows.tolist(), cols.tolist())]


@pytest.mark.parametrize("directed", [False, True])
def test_adjacent_on_an_edgeless_graph(directed):
    n = 30
    g = Graph([f"v{i:02d}" for i in range(n)], np.empty((0, 2), dtype=np.int64), directed)
    rows, cols = np.divmod(np.arange(n * n), n)
    for mode in ("all", "in", "out"):
        assert len(g._view(mode).bits) == 1 and not g._view(mode).bits.any()
        assert not g.adjacent(rows, cols, mode).any()


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
    with pytest.raises(ParameterError, match=r"\[0, 2\)"):
        Graph(["a", "b"], np.array([[0, 2]]), directed=True)
    with pytest.raises(ParameterError, match=r"\[0, 2\)"):
        Graph(["a", "b"], np.array([[-1, 1]]), directed=False)
