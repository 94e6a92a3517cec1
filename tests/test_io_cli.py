import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linkanomaly import generate_ba
from linkanomaly.anomaly import META_FEATURE_NAMES, RANK_ORDERS, VertexAnomalyProfile
from linkanomaly.cli import main
from linkanomaly.config import ExperimentConfig
from linkanomaly.errors import ParseError
from linkanomaly.io import (load_edge_list, load_labels, load_profiles_csv,
                            write_edge_list, write_labels, write_profiles_csv)

from _oracles import edge_list_loop


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


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("case", sorted(EDGE_LIST_TEXTS))
def test_load_edge_list_equals_line_loop(tmp_path, case, directed):
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


def test_edge_list_roundtrip(tmp_path):
    g = generate_ba(60, 3, seed=2)
    path = tmp_path / "g.csv"
    write_edge_list(g, path, comment="round trip")
    back = load_edge_list(path, directed=False)
    assert back == g


def test_edge_list_roundtrip_directed(tmp_path):
    rng = np.random.default_rng(0)
    lines = {(f"v{a}", f"v{b}") for a, b in rng.integers(0, 20, (60, 2)) if a != b}
    from linkanomaly import build_graph

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


def test_labels_unknown_token(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("vertex,label\nv1,maybe\n")
    with pytest.raises(ParseError):
        load_labels(path)


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
    sinks = [name for v, name in enumerate(g.names) if g.degree(v, "out") == 0]
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
def test_profiles_probability_columns_reject_non_finite_values(tmp_path, column, value, capsys):
    path = tmp_path / "profiles.csv"
    rows = [{**dict.fromkeys(META_FEATURE_NAMES, x), "sum_edge_label": "1", "edge_count": "2"}
            for x in ("0.3", "0.9", "0.5")]
    rows[1][column] = value
    path.write_text(f"vertex,{','.join(META_FEATURE_NAMES)}\n" + "".join(
        f"{name},{','.join(row[c] for c in META_FEATURE_NAMES)}\n"
        for name, row in zip("abc", rows)))
    with pytest.raises(ParseError, match=f":3: {column} must be finite, got '{value}'"):
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
