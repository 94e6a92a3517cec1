"""Benchmark for linkanomaly: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload evaluate-ba30k|score-directed|train-link-ba50k|all
                             --seed N --seconds S --trace 0|1 [--scale bench|paper|tiny]

One run of a workload, in one process and one thread:

1. import numpy and the package from ``src/``;
2. make the workload's own inputs from ``--seed`` (untimed);
3. set up ``SETUP_REPS`` times; ``setup_s`` is the median set-up plus the
   median time a fresh interpreter takes to import numpy and the package;
4. repeat the timed operation while the next repetition is expected to
   end within ``--seconds`` (at least ``MIN_RUNS`` times); ``run_s`` is
   the mean repetition time.  On a shared host the machine runs at two
   speeds in stretches of several seconds; the mean weighs the stretches
   by their length, where the median jumps between the two speeds, so it
   varies less from run to run.  Every repetition is checked, against the
   first one's output too, and counts as attempted; one that raises or
   fails a check counts as failed;
5. with ``--trace 1``, one more set-up and operation run with spans
   around the package's public functions (see ``spans.py``).  That run's
   output is checked like the others, and its spans give the per-layer
   metrics: self time per layer over its set-up and timed phase, the
   remainder as ``trace.other_s``, and ``trace.overhead_s``, its timed
   phase minus the untraced ``run_s``.

End-to-end metrics (``--trace 0``): ``setup_s``, ``run_s``,
``peak_rss_mb`` (the process's resident-set high-water mark), ``auc``
(the workload's output against the injected labels: the meta-classifier's
cross-validated AUC for evaluate-ba30k, the ``abnormality_probability``
ranking's AUC for score-directed, the link forest's holdout AUC for
train-link-ba50k) and ``link_auc`` (the link forest's holdout AUC).  The
AUCs depend only on the seed and scale.

The last line of standard output is the result object; the line before it
holds the environment, the output digests, the per-repetition times, the
check failures and, when traced, the layer table per phase.  The exit code
is 0 when every check passed and 1 when one failed; when the benchmark
cannot run (no package under ``src/``, or the operation keeps raising) it
prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("evaluate-ba30k", "score-directed", "train-link-ba50k")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 3
MIN_RUNS = 2

# per-layer time metric -> span bucket.  Only layers that run on every
# workload get a time metric, since a bypassed layer would read 0 s on every
# run; the self time of the others (anomaly, evaluation) is in trace.other_s
# and in the layer table.
LAYER_METRICS = {
    "forest.fit_s": "forest.fit",
    "forest.predict_s": "forest.predict",
    "features.extract_s": "features.extract",
    "sampling.host_s": "sampling.host",
    "sampling.test_vertices_s": "sampling.test_vertices",
    "sampling.training_pairs_s": "sampling.training_pairs",
    "sampling.training_set_s": "sampling.training_set",
    "graph.build_s": "graph.build",
    "io_s": "io",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("bench", "paper", "tiny"), default="bench")
    return p.parse_args(argv)


def import_package() -> None:
    """Import the checkout's package, refusing any other copy."""
    if not (ROOT / "src" / "linkanomaly" / "__init__.py").is_file():
        raise BenchmarkError(f"no src/linkanomaly under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import linkanomaly
    if Path(linkanomaly.__file__).resolve().parent != ROOT / "src" / "linkanomaly":
        raise BenchmarkError(f"imported linkanomaly from {linkanomaly.__file__}, not {ROOT}/src")


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, linkanomaly; "
                 "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import numpy and the package."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def _git(*args: str) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_pools": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def _timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def layer_metrics(recorded: list, run_s: float) -> tuple[dict, dict]:
    """(per-layer metrics, layer table per phase) from one traced pass."""
    table = spans.layer_times(recorded)
    phases = spans.phase_seconds(recorded)
    totals = {b: sum(row[b] for row in table.values()) for b in spans.BUCKETS}
    c = spans.counters(recorded)
    metrics = {name: (totals[bucket], "s") for name, bucket in LAYER_METRICS.items()}
    attributed = sum(totals[bucket] for bucket in LAYER_METRICS.values())
    metrics.update({
        "trace.setup_s": (phases["setup"], "s"),
        "trace.run_s": (phases["run"], "s"),
        "trace.other_s": (sum(phases.values()) - attributed, "s"),
        "trace.overhead_s": (phases["run"] - run_s, "s"),
        "features.us_per_pair": (1e6 * totals["features.extract"] / max(c["pairs"], 1), "us"),
        "features.calls": (c["feature_calls"], "count"),
        "features.pairs": (c["pairs"], "count"),
        "forest.fit_calls": (c["fit_calls"], "count"),
        "forest.fit_meta_calls": (c["fit_meta_calls"], "count"),
        "forest.fit_rows": (c["fit_rows"], "count"),
        "forest.trees_grown": (c["trees"], "count"),
        "forest.nodes_grown": (c["nodes"], "count"),
        "forest.predict_calls": (c["predict_calls"], "count"),
        "forest.predict_rows": (c["predict_rows"], "count"),
        "graph.builds": (c["graph_builds"], "count"),
        "anomaly.vertices": (c["vertices"], "count"),
        "anomaly.edges_scored": (c["edges"], "count"),
        "anomaly.predict_calls_per_vertex": (
            c["profile_predict_calls"] / c["vertices"] if c["vertices"] else 0.0, "ratio"),
    })
    layers = {phase: {"wall_s": phases[phase], **row} for phase, row in table.items()}
    return metrics, layers


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: str
                 ) -> tuple[dict, dict]:
    """(result object, run details) for one run of one workload."""
    import_package()
    import_s = import_seconds()
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        w = workloads.WORKLOADS[name](ROOT, Path(tmp), seed, scale)
        w.prepare()

        setup_times = []
        for _ in range(SETUP_REPS):
            state = None
            state, dt = _timed(w.setup)
            setup_times.append(dt)

        problems: list[str] = []
        run_times: list[float] = []
        reference = None
        attempted = failed = 0

        def attempt(out, label: str) -> None:
            nonlocal failed, reference
            found = w.check(state, out, reference)
            problems.extend(f"{label}: {p}" for p in found)
            failed += bool(found)
            if reference is None:
                reference = out

        started = time.perf_counter()
        while len(run_times) < MIN_RUNS or (
                time.perf_counter() - started + statistics.median(run_times) <= seconds):
            attempted += 1
            try:
                out, dt = _timed(w.run, state)
            except Exception as e:  # a failed operation counts against error_rate
                problems.append(f"run {attempted}: {type(e).__name__}: {e}")
                failed += 1
                if len(run_times) < MIN_RUNS and attempted >= 2 * MIN_RUNS:
                    break
                continue
            run_times.append(dt)
            attempt(out, f"run {attempted}")
        if len(run_times) < MIN_RUNS:
            raise BenchmarkError("; ".join(problems))
        run_s = statistics.mean(run_times)

        details = {"workload": name, "seed": seed, "scale": scale,
                   "setup_times_s": setup_times, "run_times_s": run_times,
                   "import_s": import_s}
        if traced:
            state = None
            gc.collect()
            tracer = spans.Tracer()
            with tracer.installed():
                with tracer.phase("setup"):
                    state = w.setup()
                with tracer.phase("run"):
                    out = w.run(state)
            attempted += 1
            attempt(out, "traced run")
            metrics, details["layers"] = layer_metrics(tracer.spans, run_s)
            spans_path = WORKDIR / f"{name}-{scale}-{seed}.spans.json"
            spans_path.write_text(json.dumps(
                [[s.name, s.start, s.end, s.parent, s.counts] for s in tracer.spans]))
        else:
            quality = w.quality(state, reference)
            metrics = {
                "setup_s": (import_s + statistics.median(setup_times), "s"),
                "run_s": (run_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "auc": (quality["auc"], "1"),
                "link_auc": (quality["link_auc"], "1"),
            }
            details["quality"] = quality
        details.update(digests=w.digests(reference), problems=problems,
                       error_rate=failed / attempted, env=environment())

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace), "--scale", args.scale]
                                ).returncode
                 for name in WORKLOAD_NAMES]
        return max(codes)

    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    try:
        result, details = run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace), args.scale)
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(f"{args.workload} seed={args.seed} scale={args.scale} trace={args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':36s} {details['error_rate']:.6g} "
          f"({result['failed']} of {result['attempted']} failed)")
    for problem in details["problems"]:
        print(f"  CHECK FAILED {problem}")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
