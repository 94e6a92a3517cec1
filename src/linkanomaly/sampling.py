"""Data generation: scale-free synthesis, anomaly injection, and sampling.

Four pieces feed the pipeline:

* `generate_ba` grows an undirected preferential-attachment network from a
  seed clique;
* `inject_anomalies` plants labeled fake vertices whose edge counts follow
  the host's empirical degree distribution and whose targets are uniform
  over the pre-injection vertex set;
* `sample_test_vertices` draws the inspected vertices and their edges,
  keeping only vertices observed well enough to judge (> min_friends
  qualifying neighbors, each itself with > min_friends neighbors);
* `build_link_training_set` pairs existing edges (label 0) with uniformly
  drawn non-existing pairs (label 1), never touching the test vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExhaustionError, ParameterError
from .features import extract_feature_matrix
from .forest import TrainingExample
from .graph import ANOMALOUS, Graph
from .rng import generator

# rejection loops give up after ATTEMPT_FACTOR * requested draws
ATTEMPT_FACTOR = 100

# vertices whose first m target draws `generate_ba` makes in one call
_BA_BLOCK = 256


@dataclass(frozen=True)
class TestSet:
    """Vertices selected for inspection plus the edges that qualified them."""

    selected: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    labels: dict[int, int]

    @property
    def vertices(self) -> frozenset[int]:
        """Selected vertices and every endpoint of their returned edges."""
        endpoints = {w for e in self.edges for w in e}
        return frozenset(endpoints | set(self.selected))


@dataclass(frozen=True)
class InjectionRecord:
    """Audit trail of one `inject_anomalies` call."""

    injected: tuple[int, ...]
    edge_counts: tuple[int, ...]
    targets: tuple[tuple[int, ...], ...]


def generate_ba(n: int, m: int, seed) -> Graph:
    """Undirected preferential-attachment graph on `n` vertices.

    Starts from a clique of m+1 vertices; each arriving vertex attaches m
    edges to distinct existing vertices with probability proportional to
    current degree.
    """
    if m < 1:
        raise ParameterError(f"edges-per-new-vertex m must be >= 1, got {m}")
    if n <= m:
        raise ParameterError(f"need n > m, got n={n}, m={m}")
    rng = generator(seed)

    # every edge (u, v) in order, flattened: each vertex appears once per
    # unit of degree, so sampling an index is sampling a vertex with
    # probability proportional to degree
    repeated = [w for i in range(m + 1) for j in range(i + 1, m + 1) for w in (i, j)]
    source = m + 1
    while source < n:
        # Vertex s draws from the first m(m+1) + 2m(s-m-1) entries, so a
        # block's first m draws per vertex come from one array-bound call,
        # which consumes the stream exactly as the same scalar calls would.
        block = range(source, min(source + _BA_BLOCK, n))
        highs = np.repeat(m * (m + 1) + 2 * m * (np.arange(block.start, block.stop) - m - 1), m)
        state = rng.bit_generator.state
        draws = rng.integers(0, highs).tolist()
        for i, s in enumerate(block):
            targets = {repeated[d] for d in draws[i * m:(i + 1) * m]}
            short = len(targets) < m
            if short:
                # a repeat: put the stream where the scalar draws through
                # this vertex leave it, redraw from there, and end the block
                rng.bit_generator.state = state
                rng.integers(0, highs[:(i + 1) * m])
                while len(targets) < m:
                    targets.add(repeated[int(rng.integers(len(repeated)))])
            for t in sorted(targets):
                repeated.append(t)
                repeated.append(s)
            if short:
                source = s + 1
                break
        else:
            source = block.stop

    width = len(str(n - 1))
    names = [f"v{i:0{width}d}" for i in range(n)]
    return Graph(names, np.array(repeated, dtype=np.int64).reshape(-1, 2), directed=False)


def _fresh_names(g: Graph, count: int, prefix: str = "fake") -> list[str]:
    taken = set(g.names)
    names, i = [], 0
    width = len(str(max(count - 1, 1)))
    while len(names) < count:
        cand = f"{prefix}{i:0{width}d}"
        if cand not in taken:
            names.append(cand)
        i += 1
    return names


def inject_anomalies(g: Graph, n: int, seed) -> tuple[Graph, InjectionRecord]:
    """Add `n` anomalous vertices wired per the random-attacker model.

    Each new vertex draws its edge count from the host's empirical degree
    distribution (redrawing zeros: a zero-edge anomaly is invisible to any
    edge-aggregation score) and connects to that many distinct vertices
    sampled uniformly from the pre-injection vertex set.  Directed hosts
    get outbound edges from the fake vertex.  A host without edges (out-edges
    when directed) raises :class:`ExhaustionError`: every draw would be zero.
    """
    if g.vertex_count == 0:
        raise ParameterError("cannot inject into an empty graph")
    if n < 1:
        raise ParameterError(f"injection count must be >= 1, got {n}")
    if n > g.vertex_count:
        raise ParameterError(f"injection count {n} exceeds vertex count {g.vertex_count}")
    host_n = g.vertex_count
    host_degrees = g.degrees("out" if g.directed else "all")
    if not host_degrees.any():
        raise ExhaustionError(
            f"no host vertex has {'an outbound' if g.directed else 'an'} edge, so no "
            f"nonzero edge count can be drawn for an injected vertex")
    rng = generator(seed)

    edge_counts = []
    target_arrays = []
    for _ in range(n):
        k = 0
        while k == 0:
            k = int(host_degrees[int(rng.integers(host_n))])
        edge_counts.append(k)
        target_arrays.append(rng.choice(host_n, size=k, replace=False))

    names = g.names + _fresh_names(g, n)
    labels = np.zeros(host_n + n, dtype=np.int8)
    if g.labels is not None:
        labels[:host_n] = g.labels
    labels[host_n:] = ANOMALOUS

    sources = np.repeat(np.arange(host_n, host_n + n, dtype=np.int64), edge_counts)
    targets = np.concatenate(target_arrays)
    # targets are host ids, below every new id: (target, source) is the
    # canonical (min, max) row of an undirected edge
    pairs = (sources, targets) if g.directed else (targets, sources)
    edges = np.concatenate([g.edges, np.column_stack(pairs)])
    out = Graph(names, edges, g.directed, labels=labels)
    record = InjectionRecord(tuple(range(host_n, host_n + n)), tuple(edge_counts),
                             tuple(tuple(t.tolist()) for t in target_arrays))
    return out, record


def sample_test_vertices(g: Graph, n: int, label_filter: int | None,
                         min_friends: int, seed) -> TestSet:
    """Accept `n` distinct vertices by rejection sampling.

    A uniformly drawn vertex is accepted when it matches `label_filter`
    (if given and the graph is labeled), has more than `min_friends`
    neighbors, and more than `min_friends` of those neighbors themselves
    have more than `min_friends` neighbors.  The edges to those qualifying
    neighbors are returned alongside the vertices.
    """
    if n < 1:
        raise ParameterError(f"requested vertex count must be >= 1, got {n}")
    rng = generator(seed)
    budget = ATTEMPT_FACTOR * n
    degrees = g.degrees("all")

    selected: list[int] = []
    chosen: set[int] = set()
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    labels: dict[int, int] = {}

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
        if label_filter is not None and g.labels is not None and g.label_of(v) != label_filter:
            continue
        if degrees[v] <= min_friends:
            continue
        qualified = [int(u) for u in g.neighbors(v, "all") if degrees[u] > min_friends]
        if len(qualified) <= min_friends:
            continue
        selected.append(v)
        chosen.add(v)
        labels[v] = g.label_of(v)
        for u in qualified:
            e = (v, u) if g.directed else (min(v, u), max(v, u))
            if e not in seen_edges:
                seen_edges.add(e)
                edges.append(e)

    return TestSet(tuple(selected), tuple(edges), labels)


def sample_training_pairs(g: Graph, excluded, size_per_class: int, seed
                          ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(existing edges, non-existing pairs) for the link training set.

    Existing edges are drawn uniformly without replacement from E, which
    biases endpoints toward high degree.  Non-existing pairs are distinct
    and both endpoints are drawn uniformly.  Neither side touches a vertex
    in `excluded`.
    """
    if size_per_class < 0:
        raise ParameterError("size_per_class must be >= 0")
    if size_per_class == 0:
        return [], []
    rng = generator(seed)
    excluded = frozenset(excluded)

    mask = np.ones(len(g.edges), dtype=bool)
    if excluded:
        ex = np.fromiter(excluded, dtype=np.int64)
        mask = ~(np.isin(g.edges[:, 0], ex) | np.isin(g.edges[:, 1], ex))
    eligible = np.flatnonzero(mask)
    if len(eligible) < size_per_class:
        raise ExhaustionError(
            f"only {len(eligible)} existing edges avoid the {len(excluded)} "
            f"excluded vertices; need {size_per_class}")
    picked = eligible[rng.choice(len(eligible), size=size_per_class, replace=False)]
    negative_pairs = list(map(tuple, g.edges[picked].tolist()))

    # Attempt i is the stream's draws 2i (v) and 2i + 1 (u).  Every test
    # below is a function of the canonical pair, so a pair is kept iff it
    # passes them and is its first passing occurrence in the stream.
    n = g.vertex_count
    budget = ATTEMPT_FACTOR * size_per_class
    kept = np.empty(0, dtype=np.int64)  # keys v * n + u, in stream order
    attempts = 0
    while len(kept) < size_per_class:
        if attempts >= budget:
            raise ExhaustionError(
                f"found {len(kept)}/{size_per_class} non-existing pairs "
                f"after the {budget}-attempt budget (100 x requested)")
        block = min(budget - attempts, 2 * (size_per_class - len(kept)) + 64)
        state = rng.bit_generator.state
        v, u = rng.integers(0, n, size=2 * block).reshape(-1, 2).T
        ok = v != u
        if excluded:
            ok &= ~(np.isin(v, ex) | np.isin(u, ex))
        if not g.directed:
            v, u = np.minimum(v, u), np.maximum(v, u)
        ok[ok] = ~g.adjacent(v[ok], u[ok], "out" if g.directed else "all")
        keys = v * n + u
        ok[ok] = ~np.isin(keys[ok], kept)
        first = np.zeros(block, dtype=bool)
        first[np.flatnonzero(ok)[np.unique(keys[ok], return_index=True)[1]]] = True
        taken = np.flatnonzero(first)[:size_per_class - len(kept)]
        kept = np.concatenate([kept, keys[taken]])
        if len(kept) < size_per_class:
            attempts += block
        elif taken[-1] + 1 < block:
            # leave a caller's Generator where the pair-at-a-time draws would
            rng.bit_generator.state = state
            rng.integers(0, n, size=2 * (taken[-1] + 1))
    positive_pairs = list(zip((kept // n).tolist(), (kept % n).tolist()))

    return negative_pairs, positive_pairs


def build_link_training_set(g: Graph, excluded, size_per_class: int, seed
                            ) -> list[TrainingExample]:
    """Balanced link-classifier training set avoiding the excluded vertices.

    Label 0: existing edges ("negative": a real connection).  Label 1:
    non-existing pairs ("positive": the anomaly direction).  The returned
    list holds all negatives, then all positives; see
    :func:`sample_training_pairs` for the sampling rules.
    """
    negative_pairs, positive_pairs = sample_training_pairs(g, excluded,
                                                           size_per_class, seed)
    neg_X = extract_feature_matrix(g, negative_pairs)
    pos_X = extract_feature_matrix(g, positive_pairs)
    examples = [TrainingExample(row, 0) for row in neg_X]
    examples += [TrainingExample(row, 1) for row in pos_X]
    return examples
