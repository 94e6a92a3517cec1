"""The CLI chain whose output bytes `test_io_cli` pins.

Run as a script, it runs the undirected steps in the working directory and
prints their digests as JSON, so a test can compare them from a process with
other environment variables:

    PYTHONPATH=src python tests/_cli_chain.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from linkanomaly.cli import main
from linkanomaly.io import load_edge_list

HOST = (
    ("generate", "--n", "2000", "--m", "3", "--seed", "1", "--out", "host.edges"),
    ("inject", "--graph", "host.edges", "--seed", "2", "--out", "undirected.edges",
     "--labels-out", "undirected_labels.csv", "--record-out", "undirected_record.csv"),
)

# the link fit's 600 rows x 20 trees are over the fork floor
DIRECTED = (
    ("inject", "--graph", "host.edges", "--directed", "--seed", "3", "--out", "directed.edges",
     "--labels-out", "directed_labels.csv", "--record-out", "directed_record.csv"),
    ("train-link", "--graph", "directed.edges", "--directed", "--size", "300", "--trees", "20",
     "--seed", "4", "--model-out", "model.json"),
    ("score", "--graph", "directed.edges", "--directed", "--model", "model.json",
     "--vertices", "vertices.txt", "--out", "profiles.csv"),
    ("rank", "--profiles", "profiles.csv", "--top", "20"),
)

# Adamic-Adar (train-link, score) and info gain (the report) go through
# np.log and np.log2, whose SIMD paths numpy picks by CPU
UNDIRECTED = (
    ("train-link", "--graph", "undirected.edges", "--size", "300", "--trees", "20",
     "--seed", "5", "--model-out", "undirected_model.json"),
    ("score", "--graph", "undirected.edges", "--model", "undirected_model.json",
     "--vertices", "undirected_vertices.txt", "--out", "undirected_profiles.csv"),
    ("rank", "--profiles", "undirected_profiles.csv", "--top", "20"),
    ("evaluate", "--config", "undirected.cfg", "--report-out", "undirected_report.json",
     "--pk-out", "undirected_pk.csv", "--audit-dir", "."),
)

CHAIN = HOST + DIRECTED + UNDIRECTED

# `evaluate`'s config: the injected labels, with the CLI chain's link forest
EVALUATE_CONFIG = (
    "graph_path = undirected.edges\nlabels_path = undirected_labels.csv\n"
    "anomaly_source = provided\ntest_positive_count = 20\ntest_negative_count = 80\n"
    "link_train_size_per_class = 300\nlink_holdout_per_class = 50\n"
    "tree_count = 20\nmeta_tree_count = 50\nfolds = 5\nrun_count = 1\n")


def _value(step, flag):
    return step[step.index(flag) + 1]


def run(steps) -> dict[str, str]:
    """sha256 of each file the steps write, by name, and of each `rank`'s
    output, named after its profiles file (profiles.csv gives "rank").

    Run in an empty directory: paths are relative because `inject` writes
    its input path into its edge list.  Each `score` reads every tenth
    vertex of its graph.
    """
    inputs, ranks = set(), {}
    for step in steps:
        if step[0] == "score":
            names = load_edge_list(_value(step, "--graph"), "--directed" in step).names[::10]
            inputs.add(_value(step, "--vertices"))
            Path(_value(step, "--vertices")).write_text("".join(f"{n}\n" for n in names))
        if step[0] == "evaluate":
            inputs.add(_value(step, "--config"))
            Path(_value(step, "--config")).write_text(EVALUATE_CONFIG)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["-q", *step])
        assert code == 0, f"{step} exited {code}"
        if step[0] == "rank":
            key = Path(_value(step, "--profiles")).stem.replace("profiles", "rank")
            ranks[key] = out.getvalue()
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
               for name in sorted(os.listdir()) if name not in inputs}
    digests.update((key, hashlib.sha256(text.encode()).hexdigest()) for key, text in ranks.items())
    return digests


if __name__ == "__main__":
    print(json.dumps(run(HOST + UNDIRECTED)))
