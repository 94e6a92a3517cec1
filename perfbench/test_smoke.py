"""Smoke test of the benchmark at its tiny scale, in seconds.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload's code path and output checks through ``run.py``,
asserts that every metric ``BENCHMARK.json`` names is emitted with its
unit, and that the checks catch a corrupted output.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_every_metric_with_its_unit(workload, trace, kind):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    *_, info_line, result_line = done.stdout.splitlines()
    result, details = json.loads(result_line), json.loads(info_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert details["digests"] and details["env"]["numpy"]
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layers = [v for name, v in values.items()
                  if units[name] == "s" and not name.startswith("trace.")]
        assert sum(layers) + values["trace.other_s"] == pytest.approx(
            values["trace.setup_s"] + values["trace.run_s"], abs=1e-9)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _first_output(cls, tmp_path):
    w = cls(ROOT, tmp_path, 5, "tiny")
    w.prepare()
    state = w.setup()
    out = w.run(state)
    assert w.check(state, out, None) == []
    assert w.check(state, w.run(state), out) == []
    return w, state, out


def test_evaluate_check_catches_changed_report(tmp_path):
    w, state, out = _first_output(workloads.EvaluateBA30k, tmp_path)
    assert w.check(state, dataclasses.replace(out, text=out.text + " "), out)


def test_score_check_catches_wrong_profile(tmp_path):
    w, state, out = _first_output(workloads.ScoreDirected, tmp_path)
    wrong = [dataclasses.replace(p, abnormality_probability=p.abnormality_probability + 1e-6)
             for p in out.profiles]
    assert w.check(state, dataclasses.replace(out, profiles=wrong), None)
    assert w.check(state, dataclasses.replace(out, csv=out.csv + b"\n"), out)


def test_train_link_check_catches_changed_forest(tmp_path):
    w, state, out = _first_output(workloads.TrainLinkBA50k, tmp_path)
    bad_scores = dataclasses.replace(out, holdout_scores=out.holdout_scores + 2.0)
    assert w.check(state, bad_scores, None)
    tree = out.model.trees[0]
    changed = dataclasses.replace(tree, threshold=tree.threshold + 1.0)
    out.model.trees[0] = changed
    assert w.check(state, out, w.run(state))
