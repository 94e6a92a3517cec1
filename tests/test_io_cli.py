import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linkanomaly import build_graph, forest, generate_ba, io as edge_io, sampling
from linkanomaly.anomaly import META_FEATURE_NAMES, RANK_ORDERS, VertexAnomalyProfile
from linkanomaly.cli import main
from linkanomaly.config import ExperimentConfig, load_config, parse_config_text
from linkanomaly.errors import LinkAnomalyError, ParameterError, ParseError, ShapeError
from linkanomaly.evaluation import injection_count
from linkanomaly.graph import Graph
from linkanomaly.io import (load_edge_list, load_labels, load_profiles_csv, write_edge_list,
                            write_injection_record_csv, write_labels,
                            write_precision_at_k_csv, write_profiles_csv, write_test_set_csv)
from linkanomaly.rng import generator

import _cli_chain
from _oracles import edge_list_loop, inject_loop


# -- edge lists ---------------------------------------------------------------


def test_load_edge_list_comma_and_whitespace(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("a,b\nb c\n# comment\n\nc\td\n")
    g = load_edge_list(path, directed=False)
    assert g.vertex_count == 4
    assert g.edge_count == 3


def test_load_edge_list_malformed_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("a\n")
    with pytest.raises(ParseError, match=":1"):
        load_edge_list(path, directed=False)


EDGE_LIST_TEXTS = {
    "crlf": "a,b\r\nb,c\r\nc,a\r\n",
    "lone_cr": "a,b\rb,c\r",
    "no_trailing_newline": "a,b\nb c",
    "blank_lines": "\n\na,b\n\n \t \nb,c\n\n",
    "indented_comments": "  # comment\n\t#x y\na,b\n # a,b\nb,c\n",
    "comma_before_hash": ",#a b\n",
    "self_loops_and_duplicates": "a,b\nb,a\na,b\na,a\nb,c\nc,b\n",
    "only_self_loops": "a,a\nb,b\n",
    "bom": "\ufeffa,b\nb,c\n",
    "comma_and_space": "a, b\nb ,c\n",
    "one_field": "a,b\nc\n",
    "one_field_crlf": "a,b\r\nc\r\nd,e\r\n",
    "one_field_last_line": "a,b\nc",
    "three_fields": "a,b\n\nc d e\n",
    "three_fields_commas": "a,b,c\n",
    "only_commas": "a,b\n,,\n",
    "form_feed_inside": "a\x0cb\nb,c\n",
    "next_line_inside": "a\x85b,c\n",
    "line_separator_inside": "a\u2028b\nb,c\n",
    "file_separator_inside": "a\x1cb\nc\x1dd e\n",
    "only_comments": "# nothing\n\n",
    "empty": "",
}


# slices of one line, of a few lines, and the whole of any text here
CHUNKS = pytest.mark.parametrize("chunk", [1, 7, edge_io._CHUNK], ids=["1", "7", "default"])


@CHUNKS
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("case", sorted(EDGE_LIST_TEXTS))
def test_load_edge_list_equals_line_loop(tmp_path, monkeypatch, case, directed, chunk):
    monkeypatch.setattr(edge_io, "_CHUNK", chunk)
    path = tmp_path / "g.txt"
    path.write_bytes(EDGE_LIST_TEXTS[case].encode("utf-8"))
    try:
        expected = edge_list_loop(path, directed)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            load_edge_list(path, directed)
        assert str(got.value) == str(e)
        return
    g = load_edge_list(path, directed)
    names, edges, loops, dups = expected
    assert g.names == names
    assert g.edges.tobytes() == np.array(edges, dtype=np.int64).reshape(-1, 2).tobytes()
    assert (g.dropped_self_loops, g.dropped_duplicates) == (loops, dups)
    assert g.directed == directed


_GAP = st.lists(st.sampled_from([" ", "\t", ","]), max_size=2).map("".join)
_SEPARATOR = st.lists(st.sampled_from([" ", "\t", ","]), min_size=1, max_size=2).map("".join)
_EDGE_LINE = st.tuples(_GAP, st.sampled_from(["a", "b", "c", "ab", "#a"]), _SEPARATOR,
                       st.sampled_from(["a", "b", "c", "ab", "#a"]), _GAP).map("".join)
_ANY_LINE = st.lists(st.sampled_from(["a", "b", ",", " ", "\t", "#"]), max_size=6).map("".join)


def _lines(line):
    """Text of up to 9 lines, each but the last ended by LF, CRLF or CR."""
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    return st.tuples(st.lists(st.tuples(line, endings).map("".join), max_size=8),
                     line).map(lambda parts: "".join(parts[0]) + parts[1])


# half the texts hold only edge lines (with self-loops and repeats among
# them); the other half mix in any line over the same characters
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@CHUNKS
@given(text=st.one_of(_lines(_EDGE_LINE), _lines(st.one_of(_EDGE_LINE, _ANY_LINE))),
       directed=st.booleans())
def test_load_edge_list_equals_line_loop_on_any_small_text(tmp_path, monkeypatch, chunk, text,
                                                           directed):
    monkeypatch.setattr(edge_io, "_CHUNK", chunk)
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        names, edges, loops, dups = edge_list_loop(path, directed)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            load_edge_list(path, directed)
        assert str(got.value) == str(e)
        return
    g = load_edge_list(path, directed)
    assert g.names == names
    assert g.edges.tolist() == [list(e) for e in edges]
    assert (g.dropped_self_loops, g.dropped_duplicates) == (loops, dups)


def test_load_edge_list_holds_a_slice_of_names_at_a_time(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    ends = rng.integers(0, 20000, (60000, 2))
    path = tmp_path / "g.txt"
    path.write_text("".join(f"u{a:05d},u{b:05d}\n" for a, b in ends.tolist()))
    monkeypatch.setattr(edge_io, "_CHUNK", 1 << 16)
    tracemalloc.start()
    try:
        g = load_edge_list(path, directed=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.vertex_count == len(np.unique(ends))
    # the whole file's names held as strings at once come to about 19 times its size
    assert peak < 10 * path.stat().st_size


def test_write_edge_list_bytes(tmp_path):
    g = build_graph([("b", "a"), ("c", "a"), ("a", "b")], directed=True)
    path = tmp_path / "g.csv"
    write_edge_list(g, path, comment="two\nlines")
    assert path.read_bytes() == b"# two\n# lines\na,b\nb,a\nc,a\n"


def test_edge_list_roundtrip(tmp_path):
    g = generate_ba(60, 3, seed=2)
    path = tmp_path / "g.csv"
    write_edge_list(g, path, comment="round trip")
    back = load_edge_list(path, directed=False)
    assert back == g


def test_edge_list_roundtrip_directed(tmp_path):
    rng = np.random.default_rng(0)
    lines = {(f"v{a}", f"v{b}") for a, b in rng.integers(0, 20, (60, 2)) if a != b}
    g = build_graph(sorted(lines), directed=True)
    path = tmp_path / "g.csv"
    write_edge_list(g, path)
    assert load_edge_list(path, directed=True) == g


# -- labels ---------------------------------------------------------------------


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels(path, {"v1": 1, "v2": 0})
    assert load_labels(path) == {"v1": 1, "v2": 0}


def test_labels_tokens(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("vertex,label\nv1,anomalous\nv2,normal\n")
    assert load_labels(path) == {"v1": 1, "v2": 0}


def test_labels_empty_body(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("vertex,label\n")
    assert load_labels(path) == {}


# the line named is the file line the row ends on, past a quoted line break
@pytest.mark.parametrize("text, line", [("vertex,label\nv1,maybe\n", 2),
                                        ('vertex,label\n"a\nb",1\nc,maybe\n', 4)])
def test_labels_unknown_token(tmp_path, text, line):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f":{line}: unknown label token 'maybe'"):
        load_labels(path)


# rows of a name and a label token, or of 0 to 3 fields of either kind or
# a lone quote; names hold a comma, a line break or NUL in quotes
_LABELS_NAME = st.sampled_from(["a", "b", "zz", '"a,b"', '"b\r\nzz"', '"zz\x00"', "", "\x00"])
_LABELS_TOKEN = st.sampled_from(["0", "1", "normal", " Anomalous", '"1"', "NORMAL\x00"])
_LABELS_ROW = st.one_of(
    st.tuples(_LABELS_NAME, _LABELS_TOKEN).map(",".join),
    st.lists(st.one_of(_LABELS_NAME, _LABELS_TOKEN, st.just('"')), max_size=3).map(",".join))
_LABELS_BODY = st.lists(st.tuples(_LABELS_ROW, st.sampled_from(["\r\n", "\n", ""])).map("".join),
                        max_size=5).map("".join)


# two texts in three start with the header, so most of those get past it
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.sampled_from(["", "vertex,label\r\n", "vertex,label\n"]), body=_LABELS_BODY)
def test_load_labels_on_any_small_text_fails_by_name_or_gives_0_1_labels(tmp_path, header, body):
    path = tmp_path / "labels.csv"
    path.write_bytes((header + body).encode("utf-8"))
    try:
        labels = load_labels(path)
    except ParseError:
        return
    g = build_graph([("a", "b"), ("b", "zz")], directed=False).with_labels(labels)
    assert g.labels.dtype == np.int8 and g.labels.shape == (3,)
    assert set(g.labels.tolist()) <= {0, 1}


# -- CLI ---------------------------------------------------------------------------


def test_cli_generate_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["-q", "generate", "--n", "100", "--m", "2", "--seed", "7",
                 "--out", str(out1)]) == 0
    assert main(["-q", "generate", "--n", "100", "--m", "2", "--seed", "7",
                 "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_cli_usage_errors(tmp_path):
    assert main(["generate", "--n", "10"]) == 1  # missing required flags
    assert main(["-q", "evaluate", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_cli_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("only_one_token\n")
    assert main(["-q", "train-link", "--graph", str(bad), "--size", "5",
                 "--model-out", str(tmp_path / "m.json")]) == 2


def test_cli_full_pipeline(tmp_path):
    graph = tmp_path / "graph.csv"
    injected = tmp_path / "injected.csv"
    labels = tmp_path / "labels.csv"
    record = tmp_path / "record.csv"
    model = tmp_path / "model.json"
    vertices = tmp_path / "vertices.txt"
    profiles = tmp_path / "profiles.csv"

    assert main(["-q", "generate", "--n", "400", "--m", "3", "--seed", "1",
                 "--out", str(graph)]) == 0
    assert main(["-q", "inject", "--graph", str(graph), "--fraction", "0.1",
                 "--seed", "2", "--out", str(injected),
                 "--labels-out", str(labels), "--record-out", str(record)]) == 0
    assert load_labels(labels)  # non-empty anomalous map

    g = load_edge_list(injected, directed=False)
    vertices.write_text("\n".join(g.names[:50]) + "\n")
    assert main(["-q", "train-link", "--graph", str(injected),
                 "--exclude", str(vertices), "--size", "100", "--seed", "3",
                 "--trees", "20", "--model-out", str(model)]) == 0
    assert main(["-q", "score", "--graph", str(injected), "--model", str(model),
                 "--vertices", str(vertices), "--out", str(profiles)]) == 0
    entries = load_profiles_csv(profiles)
    assert 0 < len(entries) <= 50

    assert main(["-q", "rank", "--profiles", str(profiles), "--top", "5"]) == 0


@pytest.mark.parametrize("directed", [False, True])
def test_cli_inject_record_lists_each_vertex_and_its_targets(tmp_path, directed):
    graph, injected = tmp_path / "graph.csv", tmp_path / "injected.csv"
    record = tmp_path / "record.csv"
    rng = np.random.default_rng(4)
    graph.write_text("".join(f"n{a},n{b}\n" for a, b in rng.integers(0, 60, (200, 2))))
    flags = ["--directed"] if directed else []
    assert main(["-q", "inject", "--graph", str(graph), *flags, "--fraction", "0.2",
                 "--seed", "7", "--out", str(injected), "--labels-out", str(tmp_path / "l.csv"),
                 "--record-out", str(record)]) == 0
    host = load_edge_list(graph, directed)
    n = injection_count(host.vertex_count, 0.2)
    names, _, _, edge_counts, targets = inject_loop(host, n, generator(7))
    expected = [["vertex", "edge_count", "targets"]] + [
        [names[host.vertex_count + i], str(k), " ".join(names[t] for t in ts)]
        for i, (k, ts) in enumerate(zip(edge_counts, targets))]
    with open(record, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == expected


def test_cli_evaluate_emits_valid_json(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "ba_n = 1000\nba_m = 3\nmaster_seed = 3\n"
        "test_positive_count = 15\ntest_negative_count = 85\n"
        "link_train_size_per_class = 200\nlink_holdout_per_class = 50\n"
        "tree_count = 15\nmeta_tree_count = 20\nrun_count = 1\nfolds = 5\n")
    report_path = tmp_path / "report.json"
    pk_path = tmp_path / "pk.csv"
    assert main(["-q", "evaluate", "--config", str(config),
                 "--report-out", str(report_path), "--pk-out", str(pk_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["schema_version"] == 1
    assert doc["test_composition"] == {"anomalous": 15, "normal": 85}
    assert doc["config"]["ba_n"] == 1000  # resolved config embedded
    assert doc["config"]["threshold"] == 0.8  # defaults included
    lines = pk_path.read_text().strip().splitlines()
    assert lines[0] == "k,precision"
    assert len(lines) >= 2


def test_cli_evaluate_set_override(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("ba_n = 1000\nba_m = 3\n")
    report_path = tmp_path / "report.json"
    assert main(["-q", "evaluate", "--config", str(config),
                 "--set", "run_count=1", "--set", "folds=4",
                 "--set", "test_positive_count=15",
                 "--set", "test_negative_count=85",
                 "--set", "link_train_size_per_class=150",
                 "--set", "link_holdout_per_class=0",
                 "--set", "tree_count=10", "--set", "meta_tree_count=10",
                 "--report-out", str(report_path),
                 "--pk-out", str(tmp_path / "pk.csv")]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["config"]["folds"] == 4
    assert doc["link_auc"] is None  # holdout disabled


def test_cli_bad_config_value(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("ba_n = 1000\nba_m = 3\nthreshold = 2.0\n")
    assert main(["-q", "evaluate", "--config", str(config)]) == 1


_CONFIG_VALUE = st.one_of(
    st.sampled_from(["", "none", "true", "no", "-1", "0", "1", "3", "0.5", "nan", "-inf", "1e400",
                     "9" * 5000, str(10 ** 4000), "out", "inject", "random", "provided"]),
    st.text(max_size=6))
_CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(sorted(asdict(ExperimentConfig())) + ["unknown"]),
              st.sampled_from(["=", " = ", "=="]), _CONFIG_VALUE).map("".join),
    st.text(max_size=10))


# ForestParams owns the forest's count rules; the config check defers to it
@pytest.mark.parametrize("key", ["tree_count", "min_leaf_size"])
def test_config_forest_counts_are_checked_by_forest_params(key):
    with pytest.raises(ParameterError, match=f"^{key} must be >= 1$"):
        ExperimentConfig(ba_n=100, ba_m=2, **{key: 0}).validate()


# huge values (ba_n, tree_count) meet only validation here: nothing is run
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.lists(_CONFIG_LINE, max_size=8).map("\n".join))
def test_config_text_gives_a_config_or_a_named_error(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_bytes(text.encode("utf-8"))
    for parse in (lambda: parse_config_text(text), lambda: load_config(path)):
        try:
            config = parse()
        except LinkAnomalyError:
            continue
        assert isinstance(config, ExperimentConfig)


# -- damaged forest files ------------------------------------------------------------


@pytest.fixture(scope="module")
def score_inputs(tmp_path_factory):
    """A host, its vertex list and a forest file whose first root is a split."""
    d = tmp_path_factory.mktemp("score")
    graph, model, vertices = d / "g.csv", d / "model.json", d / "vertices.txt"
    assert main(["-q", "generate", "--n", "200", "--m", "3", "--seed", "1",
                 "--out", str(graph)]) == 0
    assert main(["-q", "train-link", "--graph", str(graph), "--size", "100", "--seed", "2",
                 "--trees", "3", "--min-leaf", "5", "--model-out", str(model)]) == 0
    vertices.write_text("\n".join(load_edge_list(graph, directed=False).names[:20]) + "\n")
    doc = json.loads(model.read_text())
    assert doc["trees"][0]["feature"][0] >= 0
    return graph, vertices, doc


def _leaf(tree):
    return tree["feature"].index(-1)


def _child_before_parent(tree):
    node = next(i for i, f in enumerate(tree["feature"]) if i > 0 and f >= 0)
    tree["left"][node] = node - 1


def _one_node(tree):
    tree.update(feature=[0], threshold=[0.5], left=[5], right=[5], count0=[1], count1=[1])


DAMAGE = {
    # an internal root pointing at itself made every descent loop forever
    "child_cycles_to_itself": lambda doc, t: t["right"].__setitem__(0, 0),
    # a child past the last node raised IndexError, an internal error
    "child_out_of_range": lambda doc, t: _one_node(t),
    "child_before_parent": lambda doc, t: _child_before_parent(t),
    "unequal_array_lengths": lambda doc, t: t["count1"].pop(),
    "feature_past_n_features": lambda doc, t: t["feature"].__setitem__(0, doc["n_features"]),
    "feature_below_leaf_marker": lambda doc, t: t["feature"].__setitem__(0, -2),
    "threshold_not_finite": lambda doc, t: t["threshold"].__setitem__(0, float("nan")),
    "negative_count": lambda doc, t: t["count0"].__setitem__(_leaf(t), -1),
    "empty_leaf": lambda doc, t: (t["count0"].__setitem__(_leaf(t), 0),
                                  t["count1"].__setitem__(_leaf(t), 0)),
    "feature_names_too_short": lambda doc, t: doc["feature_names"].pop(),
    "node_array_not_numbers": lambda doc, t: t.__setitem__("threshold", ["x"] * len(t["feature"])),
    "no_trees": lambda doc, t: doc.__setitem__("trees", []),
    # a seed that is not a list of non-negative integers loaded as it was
    "seed_not_integers": lambda doc, t: doc.__setitem__("seed", ["x"]),
    "negative_seed": lambda doc, t: doc.__setitem__("seed", [-1]),
}


def _cli_subprocess(*argv):
    """The CLI run in a fresh interpreter, killed (failing the test) after 30 s."""
    import linkanomaly

    src = str(Path(linkanomaly.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "linkanomaly.cli", "-q", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=30)


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_cli_score_rejects_damaged_forest(tmp_path, score_inputs, damage):
    graph, vertices, doc = score_inputs
    doc = json.loads(json.dumps(doc))
    DAMAGE[damage](doc, doc["trees"][0])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    done = _cli_subprocess("score", "--graph", graph, "--model", model,
                           "--vertices", vertices, "--out", tmp_path / "p.csv")
    assert done.returncode == 2, done.stderr
    assert "data error" in done.stderr


# the json module raises RecursionError on deep nesting and ValueError on a
# number of over 4,300 digits, neither of them a JSONDecodeError
@pytest.mark.parametrize("text", ["[" * 200_000, '{"a":' * 200_000, "9" * 5000],
                         ids=["nested_arrays", "nested_objects", "long_number"])
def test_cli_score_on_unparsable_forest_is_a_data_error(tmp_path, score_inputs, text, capsys):
    graph, vertices, _ = score_inputs
    model = tmp_path / "model.json"
    model.write_text(text)
    assert main(["-q", "score", "--graph", str(graph), "--model", str(model),
                 "--vertices", str(vertices), "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"{model}: not a forest file" in err


_JSON_VALUES = st.sampled_from([None, True, -2, -1, 0, 1, 2 ** 31, 2 ** 63, 2 ** 70, 0.5, -0.0,
                                float("nan"), float("inf"), "", "x", [], [0], [[0]], {}])
# a value's JSON text -> the text put in its place
_REWRITES = st.one_of(
    st.sampled_from([2, 60, 990, 100_000]).map(lambda k: lambda t: "[" * k + t + "]" * k),
    st.sampled_from([2, 60, 990, 100_000]).map(lambda k: lambda t: '{"a":' * k + t + "}" * k),
    st.sampled_from(["9" * 5000, "1e999", "NaN", "-Infinity", "01", '"\\ud800"']).map(
        lambda text: lambda t: text))
_STAND_IN = "\x00mutated\x00"


def _mutated_forest_text(data, doc) -> str:
    """The JSON text of `doc` after one drawn mutation, at a drawn value or text offset."""
    box = [doc]
    container, key = box, 0  # the value to mutate is container[key]
    while isinstance(value := container[key], (dict, list)) and value and data.draw(st.booleans()):
        keys = list(value) if isinstance(value, dict) else range(len(value))
        container, key = value, data.draw(st.sampled_from(keys))
    kind = data.draw(st.sampled_from(["set", "delete", "rewrite", "cut", "insert"]))
    if kind == "set":
        container[key] = data.draw(_JSON_VALUES)
    elif kind == "delete":
        del container[key]
    elif kind == "rewrite":
        value, container[key] = json.dumps(container[key]), _STAND_IN
        return json.dumps(box[0]).replace(json.dumps(_STAND_IN), data.draw(_REWRITES)(value), 1)
    text = json.dumps(box[0]) if box else ""
    at = data.draw(st.integers(0, len(text)))
    if kind == "cut":
        return text[:at]
    if kind == "insert":
        return text[:at] + data.draw(st.sampled_from('[]{}",:-.0e ')) + text[at:]
    return text


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_forest_file_after_any_small_mutation_loads_or_raises_shape_error(tmp_path, score_inputs,
                                                                         data):
    doc = json.loads(json.dumps(score_inputs[2]))
    path = tmp_path / "model.json"
    path.write_text(_mutated_forest_text(data, doc), encoding="utf-8")
    try:
        f = forest.LinkForest.load(path)
    except ShapeError:
        return
    if f.n_features <= 16:  # a huge n_features is checked, never run
        p = f.predict_proba_many(np.zeros((2, f.n_features)))
        assert ((p >= 0) & (p <= 1)).all()


# -- undecodable and out-of-range input ---------------------------------------------


NON_UTF8_INPUTS = {
    # input kind: argv reading the bad file `b`, given a host graph `g`, its
    # vertex list `v`, a forest file `f` and an output directory `o`
    "edge_list_train_link": lambda b, g, v, f, o: [
        "train-link", "--graph", b, "--size", "5", "--model-out", f"{o}/m.json"],
    "edge_list_inject": lambda b, g, v, f, o: [
        "inject", "--graph", b, "--out", f"{o}/g.csv", "--labels-out", f"{o}/l.csv"],
    "vertex_list_exclude": lambda b, g, v, f, o: [
        "train-link", "--graph", g, "--exclude", b, "--size", "5",
        "--model-out", f"{o}/m.json"],
    "vertex_list_vertices": lambda b, g, v, f, o: [
        "score", "--graph", g, "--model", f, "--vertices", b, "--out", f"{o}/p.csv"],
    "profiles_csv": lambda b, g, v, f, o: ["rank", "--profiles", b],
    "config": lambda b, g, v, f, o: ["evaluate", "--config", b],
    "forest_json": lambda b, g, v, f, o: [
        "score", "--graph", g, "--model", b, "--vertices", v, "--out", f"{o}/p.csv"],
}


@pytest.mark.parametrize("kind", sorted(NON_UTF8_INPUTS) + ["labels"])
def test_cli_non_utf8_input_is_a_data_error(tmp_path, score_inputs, kind, capsys):
    graph, vertices, doc = score_inputs
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff")
    if kind == "labels":
        config = tmp_path / "exp.cfg"
        config.write_text(f"graph_path = {graph}\nanomaly_source = provided\n"
                          f"labels_path = {bad}\n")
        argv = ["evaluate", "--config", str(config)]
    else:
        argv = NON_UTF8_INPUTS[kind](str(bad), str(graph), str(vertices), str(model),
                                     str(tmp_path))
    assert main(["-q", *argv]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"{bad}: not UTF-8 text" in err


def _saved_forest(path):
    out = path.with_name(path.name + ".saved")
    forest.LinkForest.load(path).save(out)
    return out.read_bytes()


# file name -> how it is read; the triangle is compared by Graph.__eq__, which
# goes by vertex name
_LOADERS = {
    "triangle.edges": lambda p: load_edge_list(p, directed=False),
    "vertices.txt": edge_io.load_vertex_list,
    "labels.csv": load_labels,
    "profiles.csv": load_profiles_csv,
    "exp.cfg": load_config,
    "model.json": _saved_forest,
}


@pytest.fixture(scope="module")
def plain_inputs(tmp_path_factory, score_inputs):
    """One file for each of `_LOADERS`, none starting with a byte-order mark."""
    graph, vertices, doc = score_inputs
    d = tmp_path_factory.mktemp("plain_inputs")
    (d / "model.json").write_text(json.dumps(doc))
    (d / "triangle.edges").write_text("a,b\nb,c\nc,a\n")
    (d / "vertices.txt").write_bytes(vertices.read_bytes())
    write_labels(d / "labels.csv", {"v000": 1, "v001": 0})
    (d / "exp.cfg").write_text("ba_n = 50\nba_m = 2\n")
    assert main(["-q", "score", "--graph", str(graph), "--model", str(d / "model.json"),
                 "--vertices", str(vertices), "--out", str(d / "profiles.csv")]) == 0
    return d


# a leading UTF-8 byte-order mark is skipped: it neither renames the first
# vertex nor breaks a CSV header, a config key or a forest file's JSON
@pytest.mark.parametrize("name", sorted(_LOADERS))
def test_loader_reads_a_file_with_a_byte_order_mark_as_without_one(tmp_path, plain_inputs, name):
    plain, bom = plain_inputs / name, tmp_path / name
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert _LOADERS[name](bom) == _LOADERS[name](plain)


@pytest.mark.parametrize("kind", ["profiles", "labels"])
def test_cli_csv_field_over_the_csv_size_limit_is_a_data_error(tmp_path, score_inputs, kind,
                                                               capsys):
    graph, _, _ = score_inputs
    name = "v" * 200_000  # the csv module refuses fields over 131,072 characters
    bad = tmp_path / f"{kind}.csv"
    if kind == "profiles":
        bad.write_text(f"vertex,{','.join(META_FEATURE_NAMES)}\n{name},0.5,0.5,1,0.5,0.5,0.5,2\n")
        argv = ["rank", "--profiles", str(bad)]
    else:
        bad.write_text(f"vertex,label\n{name},1\n")
        config = tmp_path / "exp.cfg"
        config.write_text(f"graph_path = {graph}\nanomaly_source = provided\n"
                          f"labels_path = {bad}\n")
        argv = ["evaluate", "--config", str(config)]
    assert main(["-q", *argv]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"{bad}:2: field larger than field limit" in err


@pytest.mark.parametrize("column", ["sum_edge_label", "edge_count"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "2.5"])
def test_profiles_whole_number_columns_reject_other_values(tmp_path, column, value, capsys):
    path = tmp_path / "profiles.csv"

    def write(**fields):
        row = {**dict.fromkeys(META_FEATURE_NAMES, "0.5"),
               "sum_edge_label": "3", "edge_count": "4.0", **fields}
        path.write_text(f"vertex,{','.join(META_FEATURE_NAMES)}\n"
                        f"v1,{','.join(row[name] for name in META_FEATURE_NAMES)}\n")

    write()
    assert load_profiles_csv(path)[0][1].edge_count == 4
    write(**{column: value})
    with pytest.raises(ParseError, match=f":2: {column} must be a whole number"):
        load_profiles_csv(path)
    assert main(["-q", "rank", "--profiles", str(path)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["1.5", "0", "nan"])
def test_cli_score_checks_threshold_when_no_vertex_has_edges(tmp_path, threshold, capsys):
    graph, model = tmp_path / "g.csv", tmp_path / "model.json"
    vertices, out = tmp_path / "vertices.txt", tmp_path / "p.csv"
    assert main(["-q", "generate", "--n", "150", "--m", "2", "--seed", "4",
                 "--out", str(graph)]) == 0
    assert main(["-q", "train-link", "--graph", str(graph), "--directed", "--size", "40",
                 "--trees", "3", "--model-out", str(model)]) == 0
    g = load_edge_list(graph, directed=True)
    sinks = [name for v, name in enumerate(g.names) if len(g.neighbors(v, "out")) == 0]
    assert sinks
    vertices.write_text("\n".join(sinks) + "\n")
    argv = ["-q", "score", "--graph", str(graph), "--directed", "--model", str(model),
            "--vertices", str(vertices), "--out", str(out)]
    assert main(argv) == 0 and out.read_text().count("\n") == 1  # header only
    out.unlink()
    assert main([*argv, "--threshold", threshold]) == 1
    assert "threshold must be in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


PROBABILITY_COLUMNS = [name for name in META_FEATURE_NAMES
                       if name not in ("sum_edge_label", "edge_count")]


@pytest.mark.parametrize("column", PROBABILITY_COLUMNS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("first_name, line", [("a", 3), ('"a\nz"', 4)])
def test_profiles_probability_columns_reject_non_finite_values(tmp_path, column, value,
                                                               first_name, line, capsys):
    path = tmp_path / "profiles.csv"
    rows = [{**dict.fromkeys(META_FEATURE_NAMES, x), "sum_edge_label": "1", "edge_count": "2"}
            for x in ("0.3", "0.9", "0.5")]
    rows[1][column] = value
    path.write_text(f"vertex,{','.join(META_FEATURE_NAMES)}\n" + "".join(
        f"{name},{','.join(row[c] for c in META_FEATURE_NAMES)}\n"
        for name, row in zip([first_name, "b", "c"], rows)))
    with pytest.raises(ParseError, match=f":{line}: {column} must be finite, got '{value}'"):
        load_profiles_csv(path)
    assert main(["-q", "rank", "--profiles", str(path), "--by", column]) == 2
    assert "data error" in capsys.readouterr().err


_NAMES = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
                 min_size=1, max_size=4)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COUNT = st.integers(-2**53, 2**53)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(_NAMES, _FINITE, _FINITE, _COUNT, _FINITE, _FINITE, _FINITE,
                               _COUNT), max_size=5))
def test_profiles_csv_round_trips_every_finite_value(tmp_path, rows):
    profiles = [VertexAnomalyProfile(i, *values) for i, (_, *values) in enumerate(rows)]
    path = tmp_path / "profiles.csv"
    write_profiles_csv(path, profiles, SimpleNamespace(names=[name for name, *_ in rows]))
    loaded = load_profiles_csv(path)
    # repr tells -0.0 from 0.0 and shows every bit of a float
    assert [(name, repr(p)) for name, p in loaded] == [
        (name, repr(p)) for (name, *_), p in zip(rows, profiles)]


def test_csv_writers_write_these_bytes(tmp_path):
    """CRLF line ends, names with a comma or a quote quoted, floats as repr."""
    g = Graph(["a,b", 'say "hi"', "c"], np.array([[0, 1], [1, 2]]), directed=False,
              labels=np.array([0, 0, 1]))
    path = tmp_path / "out.csv"
    write_labels(path, {"a,b": 1, 'say "hi"': 0})
    assert path.read_bytes() == b'vertex,label\r\n"a,b",1\r\n"say ""hi""",0\r\n'
    write_profiles_csv(path, [VertexAnomalyProfile(1, 0.1, 1 / 3, 2, 0.5, 0.0, -0.0, 4),
                              VertexAnomalyProfile(0, 1.0, 0.0, 0, 0.0, 0.0, 1e-20, 1)], g)
    assert path.read_bytes() == (
        b"vertex,abnormality_probability,edges_probability_stdv,sum_edge_label,"
        b"mean_predicted_link_label,predicted_label_stdv,edges_probability_median,edge_count\r\n"
        b'"say ""hi""",0.1,0.3333333333333333,2.0,0.5,0.0,-0.0,4.0\r\n'
        b'"a,b",1.0,0.0,0.0,0.0,0.0,1e-20,1.0\r\n')
    write_precision_at_k_csv(SimpleNamespace(precision_at_k={10: 0.1, 2: 1 / 3}), path)
    assert path.read_bytes() == b"k,precision\r\n2,0.3333333333333333\r\n10,0.1\r\n"
    record = sampling.InjectionRecord((2, 0), (1, 2), np.array([1, 1, 2]))
    write_injection_record_csv(record, g, path)
    assert path.read_bytes() == (b'vertex,edge_count,targets\r\nc,1,"say ""hi"""\r\n'
                                 b'"a,b",2,"say ""hi"" c"\r\n')
    write_test_set_csv(sampling.TestSet((2,), np.array([1, 2]), {2: 1}),
                       sampling.TestSet((0,), np.array([0, 1]), {0: 0}), g, path)
    assert path.read_bytes() == (b'vertex,label,selected\r\n"a,b",0,1\r\n'
                                 b'"say ""hi""",0,0\r\nc,1,1\r\n')


_NUMBER = st.one_of(st.sampled_from(["0.5", "0.25", "1", "-0.0"]), _FINITE.map(repr))
_WHOLE = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["2.0", "1e3"]))
_ODD = st.one_of(st.sampled_from(["nan", "inf", "-inf"]),
                 st.sampled_from(["x", "", "2.5", "1e400", "0.5,"]))


@st.composite
def _rank_case(draw):
    """(profiles text, --by column): the header and rows with at most one odd
    field, often in the ranked column, or any text."""
    by = draw(st.sampled_from(META_FEATURE_NAMES))
    if draw(st.booleans()):
        return draw(st.text(max_size=40)), by
    header = draw(st.sampled_from([["vertex", *META_FEATURE_NAMES], ["vertex", "x"]]))
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 6))):
        fields = [draw(_WHOLE if name in ("sum_edge_label", "edge_count") else _NUMBER)
                  for name in META_FEATURE_NAMES]
        odd = draw(st.sampled_from(["none", "ranked", "any"]))
        if odd != "none":
            column = (META_FEATURE_NAMES.index(by) if odd == "ranked"
                      else draw(st.integers(0, len(fields) - 1)))
            fields[column] = draw(_ODD)
        lines.append(",".join([f"r{i}", *fields]))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"])), by


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_rank_case(), order=st.sampled_from(RANK_ORDERS),
       top=st.one_of(st.none(), st.integers(-1, 3)))
def test_cli_rank_on_any_profiles_text(tmp_path, case, order, top):
    text, by = case
    path = tmp_path / "profiles.csv"
    path.write_text(text, encoding="utf-8")
    argv = ["-q", "rank", "--profiles", str(path), "--by", by, "--order", order]
    argv += [] if top is None else ["--top", str(top)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 0:
        entries = load_profiles_csv(path)
        sign = -1.0 if order == "desc" else 1.0
        ranked = sorted(range(len(entries)),
                        key=lambda i: (sign * getattr(entries[i][1], by), i))
        # ordered per --order, ties in file-row order; a NaN compares false both ways
        keys = [(sign * getattr(entries[i][1], by), i) for i in ranked]
        assert all(a[0] < b[0] or (a[0] == b[0] and a[1] < b[1])
                   for a, b in zip(keys, keys[1:]))
        lines = [f"{entries[i][0]},{float(getattr(entries[i][1], by))!r}"
                 for i in ranked[:top]]
        assert out.getvalue() == "".join(f"{line}\n" for line in [f"vertex,{by}", *lines])


def test_cli_train_link_defaults_are_the_experiment_forest(tmp_path, score_inputs):
    graph, _, _ = score_inputs
    model = tmp_path / "model.json"
    assert main(["-q", "train-link", "--graph", str(graph), "--size", "30", "--seed", "1",
                 "--model-out", str(model)]) == 0
    assert json.loads(model.read_text())["params"] == asdict(ExperimentConfig().forest_params())


# -- hosts that cannot take an injection ----------------------------------------------


@pytest.mark.parametrize("directed", [False, True])
def test_cli_inject_into_edgeless_host_is_a_data_error(tmp_path, directed):
    graph = tmp_path / "loops.csv"
    graph.write_text("a,a\nb,b\n")
    done = _cli_subprocess("inject", "--graph", graph, *(["--directed"] if directed else []),
                           "--out", tmp_path / "g.csv", "--labels-out", tmp_path / "l.csv")
    assert done.returncode == 2, done.stderr
    assert "data error" in done.stderr and "no host vertex has" in done.stderr


def test_cli_evaluate_on_edgeless_host_is_a_data_error(tmp_path):
    graph, config = tmp_path / "loops.csv", tmp_path / "exp.cfg"
    graph.write_text("a,a\nb,b\n")
    config.write_text(f"graph_path = {graph}\n")
    done = _cli_subprocess("evaluate", "--config", config,
                           "--report-out", tmp_path / "r.json", "--pk-out", tmp_path / "pk.csv")
    assert done.returncode == 2, done.stderr
    assert "prepare-graph" in done.stderr and "no host vertex has" in done.stderr


@pytest.mark.parametrize("fraction", ["1.0", "nan", "-0.5", "0", "1.5", "inf"])
def test_cli_inject_fraction_outside_open_unit_interval_is_a_usage_error(tmp_path, fraction):
    graph = tmp_path / "g.csv"
    graph.write_text("a,b\nb,c\nc,d\n")
    done = _cli_subprocess("inject", "--graph", graph, "--fraction", fraction,
                           "--out", tmp_path / "out.csv", "--labels-out", tmp_path / "l.csv")
    assert done.returncode == 1, done.stderr
    assert "usage error" in done.stderr and "anomaly fraction must be in (0, 1)" in done.stderr
    assert not (tmp_path / "out.csv").exists()


# -- counts below their range ----------------------------------------------------------


@pytest.mark.parametrize("size", ["0", "-3"])
def test_cli_train_link_size_below_one_is_a_usage_error(tmp_path, score_inputs, size, capsys):
    graph, _, _ = score_inputs
    model = tmp_path / "model.json"
    assert main(["-q", "train-link", "--graph", str(graph), "--size", size,
                 "--model-out", str(model)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and f"--size must be >= 1, got {size}" in err
    assert not model.exists()


@pytest.mark.parametrize("command", ["generate", "inject", "train-link"])
def test_cli_negative_seed_is_a_usage_error(tmp_path, score_inputs, command, capsys):
    graph, _, _ = score_inputs
    out = tmp_path / "out"
    argv = {"generate": ["generate", "--n", "50", "--m", "2", "--out", str(out)],
            "inject": ["inject", "--graph", str(graph), "--out", str(out),
                       "--labels-out", str(tmp_path / "l.csv")],
            "train-link": ["train-link", "--graph", str(graph), "--size", "10",
                           "--model-out", str(out)]}[command]
    assert main(["-q", *argv, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "a seed must be >= 0, got -1" in err
    assert not out.exists()


def test_negative_master_seed_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("ba_n = 100\nba_m = 2\nmaster_seed = -1\n")
    with pytest.raises(ParameterError, match="a seed must be >= 0, got -1"):
        load_config(config)
    report = tmp_path / "r.json"
    assert main(["-q", "evaluate", "--config", str(config), "--set", "master_seed=-5",
                 "--report-out", str(report), "--pk-out", str(tmp_path / "pk.csv")]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "a seed must be >= 0, got -5" in err
    assert not report.exists()


# a bad --set is a bad flag, exit 1; the same text on a line of the config
# file is a malformed file, exit 2
@pytest.mark.parametrize("item, message", [
    ("nosuch=1", "--set: unknown configuration key 'nosuch'"),
    ("master_seed=abc", "--set: bad value for master_seed: invalid literal"),
])
def test_malformed_set_is_a_usage_error_and_the_same_config_line_a_data_error(
        tmp_path, capsys, item, message):
    config = tmp_path / "exp.cfg"
    config.write_text("ba_n = 100\nba_m = 2\n")
    report = tmp_path / "r.json"
    argv = ["-q", "evaluate", "--config", str(config),
            "--report-out", str(report), "--pk-out", str(tmp_path / "pk.csv")]
    assert main([*argv, "--set", item]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and message in err
    config.write_text(f"ba_n = 100\nba_m = 2\n{item}\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and message.replace("--set", f"{config}:3") in err
    assert not report.exists()


# inputs that only a pipeline stage reads: each used to be reported as a data
# error of stage 'prepare-graph', exit 2
EVALUATE_USAGE_ERRORS = {
    "missing_graph": ("graph_path = {d}/nonexistent.edges\n", "No such file or directory"),
    "missing_labels": ("graph_path = {d}/g.csv\nanomaly_source = provided\n"
                       "labels_path = {d}/nonexistent.csv\n", "No such file or directory"),
    "graph_is_a_directory": ("graph_path = {d}\n", "Is a directory"),
    "ba_m_not_below_ba_n": ("ba_n = 5\nba_m = 6\n", "need n > m, got n=5, m=6"),
    "ba_m_zero": ("ba_n = 100\nba_m = 0\n", "m must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(EVALUATE_USAGE_ERRORS))
def test_cli_evaluate_unusable_input_is_a_usage_error(tmp_path, case, capsys):
    text, message = EVALUATE_USAGE_ERRORS[case]
    (tmp_path / "g.csv").write_text("a,b\nb,c\nc,d\n")
    config, report = tmp_path / "exp.cfg", tmp_path / "r.json"
    config.write_text(text.format(d=tmp_path))
    assert main(["-q", "evaluate", "--config", str(config),
                 "--report-out", str(report), "--pk-out", str(tmp_path / "pk.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err and "stage" not in err
    assert not report.exists()


# the permission case (PermissionError) takes the same path; it cannot be set
# up for a test run as root, so only a path through a regular file is tested
@pytest.mark.parametrize("flag", ["generate --out", "inject --graph"])
def test_cli_path_through_a_regular_file_is_a_usage_error(tmp_path, flag, capsys):
    file = tmp_path / "file"
    file.write_text("a,b\n")
    argv = {"generate --out": ["generate", "--n", "50", "--m", "2",
                               "--out", str(file / "x.edges")],
            "inject --graph": ["inject", "--graph", str(file / "x"),
                               "--out", str(tmp_path / "o"),
                               "--labels-out", str(tmp_path / "l.csv")]}[flag]
    assert main(["-q", *argv]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "Not a directory" in err


def test_cli_rank_negative_top_is_a_usage_error(tmp_path, score_inputs, capsys):
    graph, vertices, _ = score_inputs
    model, profiles = tmp_path / "model.json", tmp_path / "profiles.csv"
    assert main(["-q", "train-link", "--graph", str(graph), "--size", "30", "--trees", "3",
                 "--model-out", str(model)]) == 0
    assert main(["-q", "score", "--graph", str(graph), "--model", str(model),
                 "--vertices", str(vertices), "--out", str(profiles)]) == 0
    capsys.readouterr()
    assert main(["-q", "rank", "--profiles", str(profiles), "--top", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "usage error" in err and "--top must be >= 0, got -1" in err
    rows = len(load_profiles_csv(profiles))
    assert main(["-q", "rank", "--profiles", str(profiles), "--top", str(rows)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == rows + 1


# -- vertex lists ----------------------------------------------------------------------


def _vertex_list_commands(graph, vertices, out_dir):
    """`score --vertices` and `train-link --exclude` argv reading one vertex list."""
    model = out_dir / "model.json"
    return [["-q", "score", "--graph", str(graph), "--model", str(model),
             "--vertices", str(vertices), "--out", str(out_dir / "p.csv")],
            ["-q", "train-link", "--graph", str(graph), "--exclude", str(vertices),
             "--size", "10", "--trees", "1", "--model-out", str(model)]]


@pytest.fixture(scope="module")
def vertex_list_inputs(score_inputs, tmp_path_factory):
    """The score host and a directory holding a forest file for it."""
    graph, _, doc = score_inputs
    d = tmp_path_factory.mktemp("vertex_lists")
    (d / "model.json").write_text(json.dumps(doc))
    return graph, d


def test_cli_unknown_vertex_is_named_unquoted(vertex_list_inputs, capsys):
    graph, d = vertex_list_inputs
    vertices = d / "vertices.txt"
    vertices.write_text("nosuch\n")
    for argv in _vertex_list_commands(graph, vertices, d):
        assert main(argv) == 2
        assert capsys.readouterr().err == "data error: unknown vertex name 'nosuch'\n"


_VERTEX_LINE = st.one_of(
    st.sampled_from(["v000", "v001", "v017", "v199", " v002\t"]).map(str.encode),
    st.sampled_from([b"nosuch", b"v200", b"v00", b"# v003", b"#", b"", b"  ", b"\t",
                     b"v00\xff", b"\xfe\xff", b"v004 v005", b"\x00"]))


# every text is read by both commands; train-link fits 10 pairs per class and
# one tree, to stay fast, into the forest file that score reads next
@settings(max_examples=60, deadline=None)
@given(lines=st.lists(st.tuples(_VERTEX_LINE, st.sampled_from([b"\n", b"\r\n", b"\r"])),
                      max_size=8))
def test_cli_vertex_list_gives_exit_0_1_or_2(vertex_list_inputs, lines):
    graph, d = vertex_list_inputs
    vertices = d / "vertices.txt"
    vertices.write_bytes(b"".join(line + end for line, end in lines))
    for argv in _vertex_list_commands(graph, vertices, d):
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


# -- pinned output bytes ------------------------------------------------------------------


# the digest of each file that _cli_chain.CHAIN writes, and of each rank's output
_CHAIN_DIGESTS = {
    "host.edges": "e2af48621c9da7de802d801ef090f367a1a33930196f3cf2795e434c81fa041f",
    "undirected.edges": "f0052fa1605f17f263f63e4af3a6dea8250af2523d18ee80daf38778ecc0169b",
    "undirected_labels.csv": "1929b0dabcbea134036d7cde505cbc0d81f7778db53853b57122db7a3473026c",
    "undirected_record.csv": "7ff621df45116d4f2aa516f695b6436dc2f0aabcc3491d4e6055de3dff198ec3",
    "directed.edges": "f9ac71be407ba7a9abf829d2ca0e9728b65d44a713547346da0117e895365ffa",
    "directed_labels.csv": "1929b0dabcbea134036d7cde505cbc0d81f7778db53853b57122db7a3473026c",
    "directed_record.csv": "1fe21a59ddbe87f481a1c672905b1ac46df3868bf8708d87a2ab3802dcf65810",
    "model.json": "266f3ccc89a05169e5ca9cdd733b92efc1f98866da5749f7955e05150c881e4a",
    "profiles.csv": "9b7ae99e1fb5a6ccc58841f3cb31b5e15a53de210dce7f3e8c6af619ec845526",
    "rank": "b8048127580f3c210ca03b717d28b2eb84008a83676bc4dfd93f537f54cea5c5",
    "undirected_model.json": "ba667220bb6791e1d898b1a56929279d7cd8e9a9847472178661b8a6f052e8dd",
    "undirected_profiles.csv": "8592892206497b362d6bb8bb5d352a3b1c7a15274c1355a1bff61f70f4612b10",
    "undirected_rank": "94c27b217fa9572461a2f33416c84e3fb38730513ed6c933082e3fb3e388b802",
    "undirected_report.json": "fec82877e6ba38e6d6e818038e565d0f2f7c36610e03b384770b5e7598df3a0d",
    "undirected_pk.csv": "41dd0b68624950cdc6f2cf0c678caf1672abca80b8fe33d1d41fe85a23a4d037",
    "run0_test_set.csv": "113525dc69df2e6d0dc51ecfcdb9080b1a2acf641d44af1895525acf2919d68f",
}


def test_cli_chain_writes_these_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _cli_chain.run(_cli_chain.CHAIN) == _CHAIN_DIGESTS


def test_cli_chain_digests_see_a_threshold_one_ulp_up(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    threshold = forest._threshold
    monkeypatch.setattr(forest, "_threshold",
                        lambda below, above: float(np.nextafter(threshold(below, above), np.inf)))
    digests = _cli_chain.run(_cli_chain.HOST + _cli_chain.DIRECTED)
    assert digests["model.json"] != _CHAIN_DIGESTS["model.json"]


# np.log and np.log2 take other SIMD paths with these CPU features off, and
# some of their outputs change; the chain's must not
def test_undirected_chain_bytes_do_not_depend_on_simd_dispatch(tmp_path):
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__ as dispatch
    except ImportError:
        pytest.skip("this numpy does not list its dispatched CPU features")
    import linkanomaly

    src = str(Path(linkanomaly.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": ",".join(dispatch),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, _cli_chain.__file__], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout)
    assert digests == {name: _CHAIN_DIGESTS[name] for name in digests}
    assert "undirected_report.json" in digests and "undirected_rank" in digests


# evaluate on a directed host: its features have no Adamic-Adar and info gain
# goes only into the report, so these two files never pass through np.log
_DIRECTED_HOST = (
    ("generate", "--n", "2000", "--m", "3", "--seed", "7", "--out", "host.edges"),
    ("inject", "--graph", "host.edges", "--directed", "--seed", "8", "--out", "directed.edges",
     "--labels-out", "directed_labels.csv"),
)

_DIRECTED_EVALUATE_FILES = ("precision_at_k.csv", "audit/run0_test_set.csv", "report.json")
_DIRECTED_EVALUATE_DIGESTS = {  # anomaly_source: the digest of each of those files
    "inject": ("e03a8257ee56d902c7cc89d944ea8845d98eaa01e6ffa164b005d6add3c12135",
               "b021d00b031826c8e4e3bba8be4aac86b43d33360c4a1e2956cb79a11ca70089",
               "5635a8c1ae4f1dc84d0645d9223814a37c1c4ad04f40efcd7f59cf689a51bb20"),
    "random": ("4cb5dd5e6193983c24beade82105928330ae5e6c95554ab95b3fe8bfd5e85f16",
               "9d76e7db0d0c639286fe1841c17662a30290f69223fb3fca5a14ded6fc941726",
               "71f5b3d80c121e2efc1047a8db0a5d8ca8bd8721f1ac51bf7ebfdc942f9c678a"),
    "provided": ("040c111c4f97fb8b5b9c660e7070bbac4a6cc2160f50c5d2a244bb3cc1c48ec0",
                 "a430e989ed6a0863a7c3269e575fc68638cf763940f6607c83f55fbcd68a69f4",
                 "1feb76a1a155302cd4722878f1470ad1bf66c7eca5be752ca8a09e5f4c2041c7"),
}


@pytest.fixture(scope="module")
def directed_host(tmp_path_factory):
    d = tmp_path_factory.mktemp("directed_host")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        for step in _DIRECTED_HOST:
            assert main(["-q", *step]) == 0
    return d / "directed.edges", d / "directed_labels.csv"


# one audit directory per source: every run writes run0_test_set.csv; the
# report embeds the input paths, so the host files are copied under relative names
@pytest.mark.parametrize("source", sorted(_DIRECTED_EVALUATE_DIGESTS))
def test_directed_evaluate_writes_these_bytes(tmp_path, monkeypatch, directed_host, source):
    monkeypatch.chdir(tmp_path)
    for path in directed_host:
        shutil.copy(path, path.name)
    Path("exp.cfg").write_text(
        "graph_path = directed.edges\nlabels_path = directed_labels.csv\ndirected = true\n"
        f"anomaly_source = {source}\ntest_positive_count = 20\ntest_negative_count = 80\n"
        "link_train_size_per_class = 300\nlink_holdout_per_class = 50\n"
        "tree_count = 20\nmeta_tree_count = 50\nfolds = 5\nrun_count = 1\n")
    Path("audit").mkdir()
    assert main(["-q", "evaluate", "--config", "exp.cfg", "--report-out", "report.json",
                 "--pk-out", "precision_at_k.csv", "--audit-dir", "audit"]) == 0
    digests = tuple(hashlib.sha256(Path(name).read_bytes()).hexdigest()
                    for name in _DIRECTED_EVALUATE_FILES)
    assert digests == _DIRECTED_EVALUATE_DIGESTS[source]
