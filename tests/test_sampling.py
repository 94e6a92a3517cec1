import faulthandler

import numpy as np
import pytest

from linkanomaly import (ANOMALOUS, NORMAL, build_graph, build_link_training_set,
                         generate_ba, inject_anomalies, sample_test_vertices)
from linkanomaly.errors import ExhaustionError, ParameterError
from linkanomaly.graph import Graph
from linkanomaly.rng import generator
from linkanomaly.sampling import sample_training_pairs

from _oracles import ba_loop, inject_loop, inspected_vertices_loop, training_pairs_loop


def complete_graph(n):
    names = [f"k{i}" for i in range(n)]
    return build_graph([(names[a], names[b]) for a in range(n) for b in range(a + 1, n)],
                       directed=False)


# -- generate_ba -------------------------------------------------------------


def test_ba_small_tree():
    g = generate_ba(5, 1, seed=0)
    assert g.vertex_count == 5
    assert g.edge_count == 4


def test_ba_edge_count_formula():
    g = generate_ba(200, 3, seed=1)
    assert g.edge_count == 3 * 2 + (200 - 4) * 3  # C(4,2) + (n-m-1)*m


def test_ba_determinism():
    a = generate_ba(300, 2, seed=9)
    b = generate_ba(300, 2, seed=9)
    assert np.array_equal(a.edges, b.edges)
    assert not np.array_equal(a.edges, generate_ba(300, 2, seed=10).edges)


def test_ba_min_degree():
    g = generate_ba(500, 4, seed=2)
    assert g.degrees("all").min() >= 4


def test_ba_power_law_tail():
    g = generate_ba(10_000, 5, seed=3)
    degs = g.degrees("all")
    values, counts = np.unique(degs, return_counts=True)
    keep = counts >= 10
    slope = np.polyfit(np.log10(values[keep]), np.log10(counts[keep]), 1)[0]
    assert -3.5 <= slope <= -2.5


def test_integers_with_array_bounds_draws_as_scalar_calls():
    # generate_ba draws a block of targets with one integers(0, highs) call
    # and replays a prefix of it; both rest on this numpy property
    for seed in range(4):
        highs = np.random.default_rng(seed + 100).integers(1, 2**20, size=1000)
        highs[::9] = np.random.default_rng(seed).integers(2**32, 2**40, size=len(highs[::9]))
        highs[::13] = 1
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:  # a generator holding half of a 64-bit draw in its buffer
            batched.random(dtype=np.float32)
            scalar.random(dtype=np.float32)
        assert np.array_equal(batched.integers(0, highs), [scalar.integers(h) for h in highs])
        assert batched.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("n, m, seed", [
    (2, 1, 0), (60, 1, 1),            # m = 1: one draw never repeats
    (4, 3, 2), (9, 8, 3),             # n = m + 1: no vertex arrives
    (12, 10, 4), (30, 25, 5), (600, 30, 6),  # m near n: replays in most blocks
    (3000, 4, 7), (3000, 4, 8), (3000, 4, 9), (3000, 4, 10),
])
def test_ba_equals_scalar_draw_loop(n, m, seed):
    for key in (seed, (seed, 0)):
        g = generate_ba(n, m, key)
        names, edges = ba_loop(n, m, generator(key))
        assert g.edges.tobytes() == np.array(edges, dtype=np.int64).tobytes()
        assert g.names == names


def test_ba_bad_params():
    with pytest.raises(ParameterError):
        generate_ba(3, 3, seed=0)
    with pytest.raises(ParameterError):
        generate_ba(10, 0, seed=0)


# -- inject_anomalies ---------------------------------------------------------


def test_inject_count_conservation():
    g = generate_ba(100, 2, seed=0)
    out, record = inject_anomalies(g, 1, seed=5)
    k = record.edge_counts[0]
    assert out.vertex_count == g.vertex_count + 1
    assert out.edge_count == g.edge_count + k
    assert out.labels[record.injected[0]] == ANOMALOUS


def test_inject_regular_graph_degenerate_distribution():
    # 3-regular graph: every drawn degree is 3
    g = build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                     ("a", "c"), ("b", "d")], directed=False)
    out, record = inject_anomalies(g, 1, seed=1)
    assert record.edge_counts == (3,)
    assert len(out.neighbors(record.injected[0])) == 3


def test_inject_targets_only_original_vertices():
    g = generate_ba(50, 2, seed=0)
    out, record = inject_anomalies(g, 10, seed=2)
    first_injected = record.injected[0]
    assert (record.targets < g.vertex_count).all()
    # no edge between two injected vertices
    for v in record.injected:
        assert all(u < first_injected for u in out.neighbors(v))


def test_inject_labels_preserved():
    g = generate_ba(30, 2, seed=0).with_labels({"v00": 1})
    out, record = inject_anomalies(g, 2, seed=3)
    assert out.labels[out.id_of("v00")] == ANOMALOUS
    assert all(out.labels[v] == ANOMALOUS for v in record.injected)


def test_inject_directed_outbound():
    g = build_graph([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")], directed=True)
    out, record = inject_anomalies(g, 1, seed=4)
    v = record.injected[0]
    assert len(out.neighbors(v, "out")) == record.edge_counts[0]
    assert len(out.neighbors(v, "in")) == 0


def test_inject_degree_fidelity_10k():
    g = generate_ba(10_000, 5, seed=11)
    host_mean = g.degrees("all").mean()
    means = []
    for seed in range(10):
        _, record = inject_anomalies(g, 1000, seed=seed)
        means.append(np.mean(record.edge_counts))
    assert abs(np.mean(means) - host_mean) / host_mean <= 0.10


def _hosts_with_isolated_vertices():
    ba = generate_ba(300, 3, seed=1)
    labels = np.zeros(ba.vertex_count + 2, dtype=np.int8)
    labels[::7] = ANOMALOUS
    yield Graph(ba.names + ["iso0", "iso1"], ba.edges, directed=False, labels=labels)
    rng = np.random.default_rng(2)
    pairs = {(f"d{a:03d}", f"d{b:03d}") for a, b in rng.integers(0, 150, (400, 2)) if a != b}
    directed = build_graph(sorted(pairs), directed=True)
    # sinks (no out-edges) and isolated vertices draw zero edge counts
    yield Graph(directed.names + ["iso0", "iso1", "iso2"], directed.edges, directed=True)


@pytest.mark.parametrize("host", list(_hosts_with_isolated_vertices()),
                         ids=["undirected", "directed"])
def test_inject_equals_per_edge_loop(host):
    for n, seed in [(1, 0), (25, 1), (host.vertex_count, 2)]:
        out, record = inject_anomalies(host, n, seed)
        names, edges, labels, edge_counts, targets = inject_loop(host, n, generator(seed))
        assert out.names == names
        assert out.edges.tobytes() == np.array(edges, dtype=np.int64).tobytes()
        assert out.labels.tolist() == labels
        assert out.directed == host.directed
        assert record.injected == tuple(range(host.vertex_count, host.vertex_count + n))
        assert record.edge_counts == edge_counts
        assert record.targets.dtype == np.int64
        assert record.targets.tolist() == [t for ts in targets for t in ts]


@pytest.mark.parametrize("directed", [False, True])
def test_inject_into_edgeless_host_raises_before_drawing(directed):
    g = build_graph([("a", "a"), ("b", "b")], directed=directed)
    assert g.vertex_count == 2 and g.edge_count == 0
    # a regression redraws zero edge counts forever: end the run loudly instead
    faulthandler.dump_traceback_later(30, exit=True)
    try:
        with pytest.raises(ExhaustionError, match="no host vertex has"):
            inject_anomalies(g, 1, seed=0)
    finally:
        faulthandler.cancel_dump_traceback_later()


def test_inject_parameter_errors():
    g = generate_ba(20, 2, seed=0)
    with pytest.raises(ParameterError):
        inject_anomalies(g, 0, seed=0)
    with pytest.raises(ParameterError):
        inject_anomalies(g, 21, seed=0)


def test_inject_fresh_names_unique():
    g = generate_ba(25, 2, seed=0)
    out, record = inject_anomalies(g, 5, seed=1)
    assert len(set(out.names)) == out.vertex_count


def test_inject_deterministic():
    g = generate_ba(120, 3, seed=0)
    a_graph, a_rec = inject_anomalies(g, 12, seed=6)
    b_graph, b_rec = inject_anomalies(g, 12, seed=6)
    assert a_rec.injected == b_rec.injected and a_rec.edge_counts == b_rec.edge_counts
    assert np.array_equal(a_rec.targets, b_rec.targets)
    assert np.array_equal(a_graph.edges, b_graph.edges)


# -- sample_test_vertices -------------------------------------------------------


def test_sample_complete_graph():
    g = complete_graph(6)
    ts = sample_test_vertices(g, 2, None, 3, seed=0)
    assert len(ts.selected) == 2
    # every selected vertex contributed its 5 neighbors: the whole clique
    assert ts.vertices.tolist() == list(range(6))


def test_sample_star_exhausts():
    names = [("c", f"l{i}") for i in range(9)]
    g = build_graph(names, directed=False)
    with pytest.raises(ExhaustionError, match="budget"):
        sample_test_vertices(g, 1, None, 3, seed=0)


def test_sample_path_exhausts():
    g = build_graph([(f"p{i}", f"p{i+1}") for i in range(9)], directed=False)
    with pytest.raises(ExhaustionError):
        sample_test_vertices(g, 1, None, 3, seed=0)


def test_sample_label_filter():
    g = generate_ba(200, 3, seed=0)
    g2, record = inject_anomalies(g, 40, seed=1)
    ts = sample_test_vertices(g2, 10, ANOMALOUS, 2, seed=2)
    assert all(g2.labels[v] == ANOMALOUS for v in ts.selected)
    ts_n = sample_test_vertices(g2, 10, NORMAL, 2, seed=3)
    assert all(g2.labels[v] == NORMAL for v in ts_n.selected)


def test_sample_label_filter_on_an_unlabeled_graph():
    # a graph built without labels is all normal: the anomalous filter
    # matches no vertex, the normal one every vertex
    g = generate_ba(200, 3, seed=0)
    with pytest.raises(ExhaustionError, match="accepted 0/1 vertices"):
        sample_test_vertices(g, 1, ANOMALOUS, 2, seed=2)
    normal, unfiltered = (sample_test_vertices(g, 10, f, 2, seed=2) for f in (NORMAL, None))
    assert normal.selected == unfiltered.selected and normal.labels == unfiltered.labels


def test_sample_vertices_distinct_and_qualified():
    g = generate_ba(500, 4, seed=5)
    ts = sample_test_vertices(g, 50, None, 3, seed=6)
    assert len(set(ts.selected)) == 50
    degs = g.degrees("all")
    assert (degs[ts.vertices] > 3).all()


def test_sample_deterministic():
    g = generate_ba(300, 3, seed=1)
    a = sample_test_vertices(g, 20, None, 3, seed=4)
    b = sample_test_vertices(g, 20, None, 3, seed=4)
    assert a.selected == b.selected and np.array_equal(a.vertices, b.vertices)


def _test_set_or_error(sample, *args):
    """(selected, involved vertices, labels), or the ExhaustionError's message."""
    try:
        ts = sample(*args)
    except ExhaustionError as e:
        return str(e)
    if isinstance(ts, tuple):  # the loop's (selected, edges, labels)
        selected, edges, labels = ts
        return selected, sorted({*selected, *(w for e in edges for w in e)}), labels
    assert ts.vertices.dtype == np.int64
    return ts.selected, ts.vertices.tolist(), ts.labels


def _test_set_hosts():
    undirected, directed = _hosts_with_isolated_vertices()
    yield "undirected-labelled", undirected
    yield "undirected", Graph(undirected.names, undirected.edges, directed=False)
    labels = np.zeros(directed.vertex_count, dtype=np.int8)
    labels[1::4] = ANOMALOUS
    yield "directed-labelled", Graph(directed.names, directed.edges, True, labels=labels)
    yield "directed", directed


@pytest.mark.parametrize("host", [pytest.param(g, id=name) for name, g in _test_set_hosts()])
@pytest.mark.parametrize("label_filter", [None, NORMAL, ANOMALOUS])
def test_sample_vertices_equal_vertex_at_a_time_loop(host, label_filter):
    n = host.vertex_count
    # the last two requests run out of budget: more vertices than qualify,
    # and a bar no vertex clears
    for min_friends, size, seed in [(0, 1, 0), (1, 40, 1), (2, 25, 2), (3, 10, 3),
                                    (3, n, 4), (n, 2, 5)]:
        got = _test_set_or_error(sample_test_vertices, host, size, label_filter,
                                 min_friends, seed)
        assert got == _test_set_or_error(inspected_vertices_loop, host, size, label_filter,
                                         min_friends, generator(seed))
        if not isinstance(got, str):  # plain ints, as the loop's are
            selected, _, labels = got
            assert {type(x) for x in [*selected, *labels.values()]} == {int}


# -- build_link_training_set -----------------------------------------------------


def test_training_set_empty_request():
    g = generate_ba(50, 2, seed=0)
    assert build_link_training_set(g, set(), 0, seed=0) == []


def test_training_set_all_excluded():
    g = generate_ba(50, 2, seed=0)
    with pytest.raises(ExhaustionError):
        build_link_training_set(g, set(range(g.vertex_count)), 5, seed=0)


def test_training_set_clique_has_no_nonedges():
    g = complete_graph(10)
    with pytest.raises(ExhaustionError):
        build_link_training_set(g, set(), 5, seed=0)


def test_training_set_balance_and_exclusion():
    g = generate_ba(400, 3, seed=2)
    excluded = set(range(40))
    examples = build_link_training_set(g, excluded, 30, seed=3)
    assert len(examples) == 60
    assert sum(ex.label for ex in examples) == 30

    neg, pos = sample_training_pairs(g, excluded, 30, seed=3)
    for v, u in neg:
        assert u in g.neighbors(v)
        assert v not in excluded and u not in excluded
    for v, u in pos:
        assert u not in g.neighbors(v) and v != u
        assert v not in excluded and u not in excluded


def test_training_set_deterministic():
    g = generate_ba(400, 3, seed=2)
    a = build_link_training_set(g, {1, 2}, 25, seed=3)
    b = build_link_training_set(g, {1, 2}, 25, seed=3)
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features) and x.label == y.label


def test_training_set_respects_exclusion_by_construction():
    g = generate_ba(100, 3, seed=7)
    # exclude everything except a tiny island: sampling must fail
    keep = {0, 1, 2}
    excluded = set(range(g.vertex_count)) - keep
    with pytest.raises(ExhaustionError):
        build_link_training_set(g, excluded, 50, seed=0)


def _pair_lists(sides):
    """(existing, non-existing) pairs, each side a list of (v, u) int tuples."""
    if isinstance(sides[0], np.ndarray):  # the sampler's (k, 2) int64 arrays
        assert all(a.dtype == np.int64 and a.ndim == 2 and a.shape[1] == 2 for a in sides)
        return tuple(list(map(tuple, a.tolist())) for a in sides)
    return sides


def _pairs_or_error(sample, *args):
    try:
        return _pair_lists(sample(*args))
    except ExhaustionError as e:
        return str(e)


def _nearly_complete_graph(n, missing):
    names = [f"k{i:02d}" for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return build_graph([(names[a], names[b]) for a, b in pairs[missing:]], directed=False)


@pytest.mark.parametrize("host", list(_hosts_with_isolated_vertices()),
                         ids=["undirected", "directed"])
def test_training_pairs_equal_pair_at_a_time_loop(host):
    n = host.vertex_count
    for excluded, size, seed in [(set(), 1, 0), (set(range(0, n, 5)), 40, 1),
                                 ({-1, 3, n + 3}, 150, 2), (set(range(n // 2)), 60, 3)]:
        for key in (seed, (seed, 5)):
            assert _pair_lists(sample_training_pairs(host, excluded, size, key)) == \
                training_pairs_loop(host, excluded, size, generator(key))


@pytest.mark.parametrize("missing, size", [(3, 5), (12, 10), (40, 30), (2, 2), (1, 1)])
def test_training_pairs_budget_on_nearly_complete_host(missing, size):
    # a clique of 30 vertices missing its first `missing` pairs: too few
    # non-edges for some requests, so the budget runs out part-way through
    # a block of draws; the error must name the same count
    g = _nearly_complete_graph(30, missing)
    for seed in range(3):
        got = _pairs_or_error(sample_training_pairs, g, {29}, size, seed)
        assert got == _pairs_or_error(training_pairs_loop, g, {29}, size, generator(seed))
    with pytest.raises(ExhaustionError, match=r"found \d+/50 non-existing pairs after the "
                                              r"5000-attempt budget \(100 x requested\)"):
        sample_training_pairs(g, set(), 50, seed=0)


def test_every_sampling_stage_refuses_a_live_generator():
    # a stage is a function of its seed key; a Generator's position is not a key
    g = generate_ba(60, 2, seed=0)
    stages = [lambda rng: generate_ba(60, 2, rng),
              lambda rng: inject_anomalies(g, 3, rng),
              lambda rng: sample_test_vertices(g, 2, None, 1, rng),
              lambda rng: sample_training_pairs(g, set(), 5, rng)]
    for stage in stages:
        with pytest.raises(TypeError):
            stage(np.random.default_rng(0))
