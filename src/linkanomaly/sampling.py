"""Data generation: scale-free synthesis, anomaly injection, and sampling.

Four pieces feed the pipeline:

* `generate_ba` grows an undirected preferential-attachment network from a
  seed clique;
* `inject_anomalies` plants labeled fake vertices whose edge counts follow
  the host's empirical degree distribution and whose targets are uniform
  over the pre-injection vertex set;
* `sample_test_vertices` draws the inspected vertices, keeping only
  vertices observed well enough to judge (> min_friends qualifying
  neighbors, each itself with > min_friends neighbors);
* `build_link_training_set` pairs existing edges (label 0) with uniformly
  drawn non-existing pairs (label 1), never touching the test vertices.

Both rejection samplers, of test vertices and of non-edges, share one loop.
"""

from __future__ import annotations

import itertools
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
    """Vertices selected for inspection; `vertices` is the ascending id array
    of them and the neighbors that qualified them."""

    selected: tuple[int, ...]
    vertices: np.ndarray
    labels: dict[int, int]


@dataclass(frozen=True)
class InjectionRecord:
    """Audit trail of one `inject_anomalies` call; `targets` is one id array
    of every injected vertex's targets in turn, `edge_counts` of them each."""

    injected: tuple[int, ...]
    edge_counts: tuple[int, ...]
    targets: np.ndarray


def generate_ba(n: int, m: int, seed) -> Graph:
    """Undirected preferential-attachment graph on `n` vertices.

    Starts from a clique of m+1 vertices; each arriving vertex attaches m
    edges to distinct existing vertices with probability proportional to
    current degree: a uniform index into the flattened edge rows, where each
    vertex appears once per unit of degree (Batagelj & Brandes 2005). The
    draws come a block of vertices at a time, and each pass over a block
    resolves every row before the first one that reads a target slot not
    yet resolved (-1) or that holds a repeat.
    """
    if m < 1:
        raise ParameterError(f"edges-per-new-vertex m must be >= 1, got {m}")
    if n <= m:
        raise ParameterError(f"need n > m, got n={n}, m={m}")
    rng = generator(seed)

    # the clique's rows and every arriving vertex's source slots are known
    # up front; arriving vertex m + 1 + a owns rows[a]
    clique = m * (m + 1) // 2
    repeated = np.full(2 * (clique + m * (n - m - 1)), -1, dtype=np.int64)
    repeated[:2 * clique] = np.column_stack(np.triu_indices(m + 1, 1)).ravel()
    rows = repeated[2 * clique:].reshape(-1, m, 2)
    rows[:, :, 1] = np.arange(m + 1, n)[:, None]
    a = 0
    while a < len(rows):
        # rows[a] draws from the m(m+1) + 2ma slots before it, so a block's
        # first m draws per vertex come from one array-bound call, which
        # consumes the stream exactly as the same scalar calls would
        highs = np.repeat(2 * clique + 2 * m * np.arange(a, min(a + _BA_BLOCK, len(rows))), m)
        state = rng.bit_generator.state
        draws = rng.integers(0, highs).reshape(-1, m)
        done = 0
        while done < len(draws):
            # a -1 is a target of an earlier vertex in this block, which this
            # pass resolves; row `done` reads none, so argmax 0 means no row does
            got = repeated[draws[done:]]
            ready = np.sort(got[:(got < 0).any(axis=1).argmax() or len(got)], axis=1)
            repeat = (ready[:, 1:] == ready[:, :-1]).any(axis=1)
            ok = int(repeat.argmax()) if repeat.any() else len(ready)
            rows[a + done:a + done + ok, :, 0] = ready[:ok]
            done += ok
            if ok < len(ready):
                # a repeat: put the stream where the scalar draws through
                # this vertex leave it, redraw from there, and end the block
                rng.bit_generator.state = state
                rng.integers(0, highs[:(done + 1) * m])
                targets = set(ready[ok].tolist())
                while len(targets) < m:
                    targets.add(int(repeated[int(rng.integers(highs[done * m]))]))
                rows[a + done, :, 0] = sorted(targets)
                done += 1
                break
        a += done

    width = len(str(n - 1))
    names = list(map(f"v%0{width}d".__mod__, range(n)))
    return Graph(names, repeated.reshape(-1, 2), directed=False)


def _fresh_names(g: Graph, count: int) -> list[str]:
    width = len(str(max(count - 1, 1)))
    fresh = map(f"fake%0{width}d".__mod__, itertools.count())
    return list(itertools.islice(itertools.filterfalse(set(g.names).__contains__, fresh), count))


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
    host_degrees = g.degrees("out")
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
    labels = np.concatenate([g.labels, np.full(n, ANOMALOUS, np.int8)])

    sources = np.repeat(np.arange(host_n, host_n + n, dtype=np.int64), edge_counts)
    targets = np.concatenate(target_arrays)
    edges = np.concatenate([g.edges, np.column_stack([sources, targets])])
    out = Graph(names, edges, g.directed, labels=labels)
    record = InjectionRecord(tuple(range(host_n, host_n + n)), tuple(edge_counts), targets)
    return out, record


def _first_accepted(rng, high: int, width: int, need: int, accept) -> np.ndarray:
    """The first `need` distinct accepted keys among ATTEMPT_FACTOR * need attempts.

    Attempt i is draws width*i .. width*i + width - 1 of the stream, in [0, high).
    `accept` maps a (k, width) block to (keys, ok): each attempt's int64 key, a
    function of the attempt alone, and a fresh mask of the accepted ones.
    """
    budget = ATTEMPT_FACTOR * need
    kept = np.empty(0, dtype=np.int64)
    attempts = 0
    while len(kept) < need and attempts < budget:
        block = min(budget - attempts, 2 * (need - len(kept)) + 64)
        keys, ok = accept(rng.integers(0, high, size=(block, width)))
        ok[ok] = ~np.isin(keys[ok], kept)
        hits = np.flatnonzero(ok)
        taken = np.sort(hits[np.unique(keys[hits], return_index=True)[1]])[:need - len(kept)]
        kept = np.concatenate([kept, keys[taken]])
        attempts += block
    return kept


def sample_test_vertices(g: Graph, n: int, label_filter: int,
                         min_friends: int, seed) -> TestSet:
    """Accept `n` distinct vertices by rejection sampling.

    A uniformly drawn vertex is accepted when it matches `label_filter`
    (an unlabeled graph is all normal), has more than `min_friends`
    neighbors, and more than `min_friends` of those neighbors themselves
    have more than `min_friends` neighbors.  Those qualifying neighbors are
    returned with the vertices, in `TestSet.vertices`.
    """
    if n < 1:
        raise ParameterError(f"requested vertex count must be >= 1, got {n}")
    matches = g.labels == label_filter
    if not matches.any():
        raise ExhaustionError(f"no vertex has label {label_filter}, so none can be drawn")
    rng = generator(seed)
    rich = g.degrees("all") > min_friends

    def accept(draws):
        v = draws[:, 0]
        ok = rich[v] & matches[v]
        counts, nbrs = g.gather_neighbors(v[ok], "all")
        ends = np.cumsum(counts)
        rich_seen = np.concatenate(([0], np.cumsum(rich[nbrs])))
        ok[ok] = rich_seen[ends] - rich_seen[ends - counts] > min_friends
        return v, ok

    chosen = _first_accepted(rng, g.vertex_count, 1, n, accept)
    if len(chosen) < n:
        raise ExhaustionError(
            f"accepted {len(chosen)}/{n} vertices after the {ATTEMPT_FACTOR * n}-attempt "
            f"budget (100 x requested); constraints too strict for this graph")

    _, nbrs = g.gather_neighbors(chosen, "all")
    selected = tuple(chosen.tolist())
    return TestSet(selected, np.union1d(chosen, nbrs[rich[nbrs]]),
                   dict(zip(selected, g.labels[chosen].tolist())))


def sample_training_pairs(g: Graph, excluded, size_per_class: int, seed
                          ) -> tuple[np.ndarray, np.ndarray]:
    """(existing edges, non-existing pairs) for the link training set.

    Each side is a (size_per_class, 2) int64 id array.  Existing edges are
    drawn uniformly without replacement from E, which biases endpoints
    toward high degree.  Non-existing pairs are distinct and both endpoints
    are drawn uniformly; undirected ones are (min, max) rows.  Neither side
    touches a vertex in `excluded`.
    """
    if size_per_class < 0:
        raise ParameterError("size_per_class must be >= 0")
    rng = generator(seed)
    ex = np.unique(np.fromiter(excluded, dtype=np.int64))

    eligible = np.flatnonzero(~(np.isin(g.edges[:, 0], ex) | np.isin(g.edges[:, 1], ex)))
    if len(eligible) < size_per_class:
        raise ExhaustionError(
            f"only {len(eligible)} existing edges avoid the {len(ex)} "
            f"excluded vertices; need {size_per_class}")
    picked = eligible[rng.choice(len(eligible), size=size_per_class, replace=False)]
    negative_pairs = g.edges[picked]

    n = g.vertex_count

    def accept(draws):
        v, u = draws.T
        ok = (v != u) & ~(np.isin(v, ex) | np.isin(u, ex))
        if not g.directed:
            v, u = np.minimum(v, u), np.maximum(v, u)
        ok[ok] = ~g.adjacent(v[ok], u[ok], "out")
        return v * n + u, ok

    kept = _first_accepted(rng, n, 2, size_per_class, accept)
    if len(kept) < size_per_class:
        raise ExhaustionError(
            f"found {len(kept)}/{size_per_class} non-existing pairs after the "
            f"{ATTEMPT_FACTOR * size_per_class}-attempt budget (100 x requested)")
    positive_pairs = np.column_stack([kept // n, kept % n])

    return negative_pairs, positive_pairs


def build_link_training_set(g: Graph, excluded, size_per_class: int, seed
                            ) -> list[TrainingExample]:
    """Balanced link-classifier training set avoiding the excluded vertices.

    Label 0: existing edges ("negative": a real connection).  Label 1:
    non-existing pairs ("positive": the anomaly direction).  The returned
    list holds all negatives, then all positives; see
    :func:`sample_training_pairs` for the sampling rules.
    """
    pairs = sample_training_pairs(g, excluded, size_per_class, seed)
    return [TrainingExample(row, label) for label, side in enumerate(pairs)
            for row in extract_feature_matrix(g, side)]
