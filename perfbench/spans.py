"""Spans around the package's public functions, recorded from outside.

A :class:`Tracer` replaces each traced function or method with a wrapper
that records one span per call: name, start, end, parent span and a few
counts read from the arguments or the result.  The wrappers are installed
in every ``linkanomaly`` module namespace that holds the function (the
modules import each other's functions by name) and removed again when the
traced block ends, so untraced runs execute the unmodified program.

Spans stay in memory; :func:`layer_times` turns them into self times (a
span's duration minus its children's) per bucket and per phase.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _forest_counts(args, kwargs, forest):
    root = forest.trees[0]
    return {"rows": int(root.count0[0] + root.count1[0]),
            "trees": len(forest.trees),
            "nodes": sum(len(t.feature) for t in forest.trees)}


def _predict_counts(args, kwargs, result):
    return {"rows": len(result)}


def _feature_counts(args, kwargs, result):
    return {"pairs": len(result)}


def _profile_counts(args, kwargs, result):
    profiles, skipped = result
    return {"vertices": len(profiles) + len(skipped),
            "edges": sum(p.edge_count for p in profiles)}


# (module, attribute) -> (bucket, counter).  Attributes with a dot are
# methods, patched on their class.  A bucket is the per-layer metric the
# span's self time is added to.
TRACED = {
    ("io", "load_edge_list"): ("io", None),
    ("io", "report_json"): ("io", None),
    ("io", "write_profiles_csv"): ("io", None),
    ("forest", "LinkForest.save"): ("io", None),
    ("graph", "build_graph"): ("graph.build", None),
    ("graph", "Graph.__init__"): ("graph.build", None),
    ("sampling", "generate_ba"): ("sampling.host", None),
    ("sampling", "inject_anomalies"): ("sampling.host", None),
    ("sampling", "sample_test_vertices"): ("sampling.test_vertices", None),
    ("sampling", "sample_training_pairs"): ("sampling.training_pairs", None),
    ("sampling", "build_link_training_set"): ("sampling.training_set", None),
    ("features", "extract_feature_matrix"): ("features.extract", _feature_counts),
    ("forest", "train_forest"): ("forest.fit", _forest_counts),
    ("forest", "LinkForest.predict_proba_many"): ("forest.predict", _predict_counts),
    ("anomaly", "profile_vertices"): ("anomaly", _profile_counts),
    ("anomaly", "edge_probabilities"): ("anomaly", None),
    ("anomaly", "vertex_profile"): ("anomaly", None),
    ("anomaly", "rank_vertices"): ("anomaly", None),
    ("evaluation", "run_experiment"): ("evaluation", None),
    ("evaluation", "k_fold_cv"): ("evaluation", None),
    ("evaluation", "auc"): ("evaluation", None),
    ("evaluation", "info_gain"): ("evaluation", None),
    ("evaluation", "precision_at_k"): ("evaluation", None),
}

# Buckets in the order the layer-share table lists them.  "phase" is the
# self time of the phase spans themselves: benchmark code and any package
# code outside a traced function.
BUCKETS = ("forest.fit", "forest.predict", "features.extract", "sampling.host",
           "sampling.test_vertices", "sampling.training_pairs",
           "sampling.training_set", "graph.build", "io", "anomaly",
           "evaluation", "phase")


@dataclass
class Span:
    name: str
    bucket: str
    start: float
    parent: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded traced block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, bucket: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, bucket, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        self._stack.pop()
        span.end = time.perf_counter()

    @contextmanager
    def phase(self, name: str):
        """A root span that groups the calls made inside it."""
        span = self._open(f"phase.{name}", "phase")
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, bucket: str, fn, counter):
        def traced(*args, **kwargs):
            span = self._open(name, bucket)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every traced function through this tracer inside the block."""
        package = importlib.import_module("linkanomaly")
        modules = [package] + [importlib.import_module(f"linkanomaly.{m.name}")
                               for m in pkgutil.iter_modules(package.__path__)]
        undo = []
        try:
            for (module, attr), (bucket, counter) in TRACED.items():
                owner = importlib.import_module(f"linkanomaly.{module}")
                name = f"{module}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    undo.append((cls, method, original))
                    setattr(cls, method, self.wrap(name, bucket, original, counter))
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(name, bucket, original, counter)
                for mod in modules:
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    i = spans[i].parent
    while i >= 0:
        if spans[i].name == name:
            return True
        i = spans[i].parent
    return False


def _phase_of(spans: list[Span], i: int) -> str:
    while spans[i].parent >= 0:
        i = spans[i].parent
    return spans[i].name.removeprefix("phase.")


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """{phase: {bucket: self time in seconds}} for every bucket in BUCKETS."""
    table: dict[str, dict[str, float]] = {}
    for i, own in enumerate(self_times(spans)):
        row = table.setdefault(_phase_of(spans, i), dict.fromkeys(BUCKETS, 0.0))
        row[spans[i].bucket] += own
    return table


def phase_seconds(spans: list[Span]) -> dict[str, float]:
    return {s.name.removeprefix("phase."): s.duration for s in spans if s.parent < 0}


def counters(spans: list[Span]) -> dict[str, float]:
    """Work counts over all traced calls, read at the layer boundaries."""
    c = dict.fromkeys(("fit_calls", "fit_meta_calls", "fit_rows", "trees", "nodes",
                       "predict_calls", "predict_rows", "profile_predict_calls",
                       "feature_calls", "pairs", "graph_builds", "vertices",
                       "edges"), 0)
    for i, span in enumerate(spans):
        if span.name == "forest.train_forest":
            c["fit_calls"] += 1
            c["fit_meta_calls"] += _has_ancestor(spans, i, "evaluation.k_fold_cv")
            c["fit_rows"] += span.counts["rows"]
            c["trees"] += span.counts["trees"]
            c["nodes"] += span.counts["nodes"]
        elif span.name == "forest.LinkForest.predict_proba_many":
            c["predict_calls"] += 1
            c["predict_rows"] += span.counts["rows"]
            c["profile_predict_calls"] += _has_ancestor(spans, i, "anomaly.profile_vertices")
        elif span.name == "features.extract_feature_matrix":
            c["feature_calls"] += 1
            c["pairs"] += span.counts["pairs"]
        elif span.name == "graph.Graph.__init__":
            c["graph_builds"] += 1
        elif span.name == "anomaly.profile_vertices":
            c["vertices"] += span.counts["vertices"]
            c["edges"] += span.counts["edges"]
    return c
