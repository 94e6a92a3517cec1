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

# 32-bit words that one block of `inject_anomalies` draws at most, unless
# one fake vertex takes more
_INJECT_WORDS = 1 << 16

# picks above which a `choice` call's shuffle runs step by step: the batched
# shuffle takes one round per position of its longest row
_SHUFFLE_ROWS = 64


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
    return list(itertools.islice(itertools.filterfalse(g.has_name, fresh), count))


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
    edge_counts, targets = _injection_draws(generator(seed), host_degrees, n)

    sources = np.repeat(np.arange(host_n, host_n + n, dtype=np.int64), edge_counts)
    out = g.with_vertices(_fresh_names(g, n), np.column_stack([sources, targets]),
                          np.full(n, ANOMALOUS, dtype=np.int8))
    record = InjectionRecord(tuple(range(host_n, host_n + n)), tuple(edge_counts.tolist()), targets)
    return out, record


def _injection_draws(rng, degrees: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(edge counts, targets) of `n` fake vertices, drawn as the loop

        k = 0
        while k == 0:
            k = degrees[rng.integers(host_n)]
        targets = rng.choice(host_n, size=k, replace=False)

    draws them, and leaving `rng` where that loop leaves it.  Every draw of
    the loop is bounded by Lemire's method, which takes one 32-bit word
    unless it rejects one (at most once in 2**32 / host_n draws).  So one
    speculative `integers(host_n)` call per block shows where each step of
    the loop starts, a zero degree being a step of its own, and its value
    there is that step's first draw.  The block is then drawn exactly, with
    one array-bound call, and kept up to the first step whose exact first
    draw gives another degree than the guessed one.
    """
    host_n = len(degrees)
    # draws a step takes, by the degree its first draw gives
    cost = np.where(degrees == 0, 1, np.where(_choice_tail(degrees, host_n), degrees + 1, 2 * degrees))
    nonzero = np.count_nonzero(degrees)
    per_vertex = (host_n - nonzero) / nonzero + cost[degrees > 0].mean()
    counts, chunks = [], []
    left = n
    while left:
        words = max(min(int(left * per_vertex * 1.05) + 64, _INJECT_WORDS), int(cost.max()))
        state = rng.bit_generator.state
        first = rng.integers(host_n, size=words)
        # each step starts where the one before it ends
        steps = cost[first].tolist()
        starts, p = [], 0
        while p < words and p + steps[p] <= words:
            starts.append(p)
            p += steps[p]
        starts = np.array(starts, dtype=np.int64)
        ks = degrees[first[starts]]
        # through the step that finds the last vertex still to draw
        end = int(np.searchsorted(np.cumsum(ks > 0), left)) + 1
        starts, ks = starts[:end], ks[:end]
        highs = _step_highs(ks, cost[first[starts]], host_n)

        rng.bit_generator.state = state
        draws = rng.integers(0, highs)
        wrong = degrees[draws[starts]] != ks
        if wrong.any():
            # a rejected word moved the steps from here on: keep those before
            # it, and put the stream where their draws leave it
            end = int(wrong.argmax())
            rng.bit_generator.state = state
            rng.integers(0, highs[:starts[end]])
            starts, ks = starts[:end], ks[:end]
        keep = ks > 0
        counts.append(ks[keep])
        chunks.append(_choice_targets(draws, starts[keep] + 1, ks[keep], host_n))
        left -= len(counts[-1])
    return np.concatenate(counts), np.concatenate(chunks)


def _choice_tail(k, host_n: int):
    """Whether `Generator.choice(host_n, size=k, replace=False)` shuffles the
    tail of a whole `arange(host_n)` instead of running Floyd's algorithm."""
    return (k > host_n // 50) & (host_n > 10_000)


def _step_highs(ks: np.ndarray, cost: np.ndarray, host_n: int) -> np.ndarray:
    """The exclusive bound of every draw of the steps that give edge counts
    `ks` (0 for a redrawn zero) and take `cost` draws each, in stream order.

    A step draws its edge count below host_n, then `choice`'s draws: below
    j + 1 for Floyd's j = host_n - k .. host_n - 1 and i + 1 for the shuffle's
    i = k - 1 .. 1, or, on the tail branch, below host_n .. host_n - k + 1.
    """
    r = np.arange(cost.sum()) - np.repeat(np.cumsum(cost) - cost, cost)
    k = np.repeat(ks, cost)
    return np.where(r == 0, host_n,
                    np.where(np.repeat(_choice_tail(ks, host_n), cost), host_n + 1 - r,
                             np.where(r <= k, host_n - k + r, 2 * k + 1 - r)))


def _choice_targets(draws: np.ndarray, at: np.ndarray, ks: np.ndarray, host_n: int) -> np.ndarray:
    """The samples of the `choice(host_n, size=k, replace=False)` calls whose
    draws start at `at` in `draws`, one per k in `ks`, concatenated.

    Floyd's algorithm picks the draw below j + 1 unless an earlier pick holds
    it, and then j, so a row whose draws do not repeat picks them all.  The
    Fisher-Yates shuffle after it swaps position i with the draw below i + 1,
    for i = k - 1 .. 1; with the rows ordered by k, descending, the rows with
    k > i are a prefix, so one swap per i serves every row.  A row with a
    repeat, a row on the tail branch and a row of more than `_SHUFFLE_ROWS`
    picks are run step by step.
    """
    starts = np.cumsum(ks) - ks
    out = draws[np.repeat(at - starts, ks) + np.arange(ks.sum())]
    key = np.sort(np.repeat(np.arange(len(ks)), ks) * host_n + out)
    slow = _choice_tail(ks, host_n) | (ks > _SHUFFLE_ROWS)
    slow[key[1:][key[1:] == key[:-1]] // host_n] = True

    fast = np.flatnonzero(~slow)
    fast = fast[np.argsort(-ks[fast], kind="stable")]
    row, swap = starts[fast], at[fast] + 2 * ks[fast] - 1  # draw i is at swap - i
    prefix = np.searchsorted(-ks[fast], -np.arange(ks[fast[0]] if len(fast) else 0))
    for i in range(len(prefix) - 1, 0, -1):
        a = row[:prefix[i]] + i
        b = row[:prefix[i]] + draws[swap[:prefix[i]] - i]
        out[a], out[b] = out[b], out[a]
    for r in np.flatnonzero(slow).tolist():
        out[starts[r]:starts[r] + ks[r]] = _choice_steps(draws, int(at[r]), int(ks[r]), host_n)
    return out


def _choice_steps(draws: np.ndarray, at: int, k: int, host_n: int) -> list[int]:
    """One `choice(host_n, size=k, replace=False)` call run step by step on
    its draws at `at` in `draws`."""
    if _choice_tail(k, host_n):
        # swap position i of arange(host_n) with the draw below i + 1, for
        # i = host_n - 1 .. host_n - k, and take the last k positions
        moved = {}
        picks = []
        for i, j in zip(range(host_n - 1, host_n - k - 1, -1), draws[at:at + k].tolist()):
            picks.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return picks[::-1]
    taken, picks = set(), []
    for j, x in enumerate(draws[at:at + k].tolist(), host_n - k):
        x = j if x in taken else x
        taken.add(x)
        picks.append(x)
    for i, j in zip(range(k - 1, 0, -1), draws[at + k:at + 2 * k - 1].tolist()):
        picks[i], picks[j] = picks[j], picks[i]
    return picks


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
