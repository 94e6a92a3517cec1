"""Command-line surface.

Subcommands cover the whole pipeline: `generate` a scale-free graph,
`inject` labeled anomalies, `train-link` the edge classifier, `score`
vertices into profile CSVs, `rank` profiles, and `evaluate` an
experiment config end to end.  Exit codes: 0 success, 1 usage error,
2 data error, 3 internal error; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import io
from .anomaly import META_FEATURE_NAMES, RANK_ORDERS, profile_vertices, rank_vertices
from .config import ExperimentConfig, load_config
from .errors import LinkAnomalyError, ParameterError
from .evaluation import injection_count, run_experiment
from .features import feature_names
from .forest import ForestParams, LinkForest, train_forest
from .graph import ANOMALOUS, DIRECTION_MODES
from .sampling import build_link_training_set, generate_ba, inject_anomalies

log = logging.getLogger("linkanomaly")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _log_params(command: str, args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    log.info("%s %s", command, " ".join(f"{k}={v}" for k, v in resolved.items()))


def _cmd_generate(args) -> int:
    g = generate_ba(args.n, args.m, args.seed)
    io.write_edge_list(g, args.out, comment=f"generate n={args.n} m={args.m} seed={args.seed}")
    log.info("wrote %s: %d vertices, %d edges", args.out, g.vertex_count, g.edge_count)
    return EXIT_OK


def _cmd_inject(args) -> int:
    g = io.load_edge_list(args.graph, args.directed)
    n = injection_count(g.vertex_count, args.fraction)
    injected, record = inject_anomalies(g, n, args.seed)
    io.write_edge_list(injected, args.out,
                       comment=f"inject graph={args.graph} fraction={args.fraction} seed={args.seed}")
    labels = {injected.name_of(v): ANOMALOUS for v in record.injected}
    io.write_labels(args.labels_out, labels)
    if args.record_out:
        io.write_injection_record_csv(record, injected, args.record_out)
    log.info("injected %d anomalous vertices (%d edges) into %s",
             n, sum(record.edge_counts), args.out)
    return EXIT_OK


def _forest_params(args) -> ForestParams:
    return ForestParams(tree_count=args.trees, features_per_split=args.features_per_split,
                        min_leaf_size=args.min_leaf, max_depth=args.max_depth)


def _cmd_train_link(args) -> int:
    if args.size < 1:
        raise _UsageError(f"--size must be >= 1, got {args.size}")
    g = io.load_edge_list(args.graph, args.directed)
    excluded = set()
    if args.exclude:
        excluded = {g.id_of(name) for name in io.load_vertex_list(args.exclude)}
    examples = build_link_training_set(g, excluded, args.size, args.seed)
    forest = train_forest(examples, _forest_params(args), args.seed,
                          feature_names=feature_names(g.directed))
    forest.save(args.model_out)
    log.info("trained %d trees on %d examples -> %s",
             args.trees, len(examples), args.model_out)
    return EXIT_OK


def _cmd_score(args) -> int:
    g = io.load_edge_list(args.graph, args.directed)
    forest = LinkForest.load(args.model)
    vertices = [g.id_of(name) for name in io.load_vertex_list(args.vertices)]
    profiles, skipped = profile_vertices(forest, g, vertices,
                                         threshold=args.threshold, mode=args.direction)
    io.write_profiles_csv(args.out, profiles, g)
    if skipped:
        log.warning("skipped %d vertices with no edges to score", len(skipped))
    log.info("wrote %d profiles -> %s", len(profiles), args.out)
    return EXIT_OK


def _cmd_rank(args) -> int:
    if args.top is not None and args.top < 0:
        raise _UsageError(f"--top must be >= 0, got {args.top}")
    entries = io.load_profiles_csv(args.profiles)  # profile i has vertex id i
    print(f"vertex,{args.by}")
    for v in rank_vertices([p for _, p in entries], args.by, args.order)[:args.top]:
        name, profile = entries[v]
        print(f"{name},{profile.value(args.by)!r}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    # an output path that cannot be written fails now, not after minutes of experiment
    for flag, directory, file in (("--report-out", Path(args.report_out).parent, args.report_out),
                                  ("--pk-out", Path(args.pk_out).parent, args.pk_out),
                                  ("--audit-dir", Path(args.audit_dir or "."), None)):
        if not directory.is_dir():
            raise _UsageError(f"{flag}: no directory {str(directory)!r}")
        if file is not None and Path(file).is_dir():
            raise _UsageError(f"{flag}: {file!r} is a directory")
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise _UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    config = load_config(args.config, overrides)
    log.info("resolved config: %s",
             " ".join(f"{k}={v}" for k, v in sorted(config.resolved().items())))
    report = run_experiment(config, audit_dir=args.audit_dir)
    io.write_report(report, args.report_out)
    io.write_precision_at_k_csv(report, args.pk_out)
    log.info("averaged: %s", " ".join(f"{k}={v:.4f}" for k, v in report.averaged.items()))
    log.info("wrote %s and %s", args.report_out, args.pk_out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="linkanomaly",
                     description="Detect anomalous vertices in complex networks from topology alone.")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a preferential-attachment graph")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--m", type=int, required=True, help="edges per arriving vertex")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="edge-list output path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("inject", help="inject labeled anomalous vertices")
    p.add_argument("--graph", required=True, help="edge-list input path")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--fraction", type=float, default=0.10,
                   help="anomalous share of the final graph (default 0.10)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="edge-list output path")
    p.add_argument("--labels-out", required=True, help="labels CSV output path")
    p.add_argument("--record-out", help="optional injection audit CSV")
    p.set_defaults(func=_cmd_inject)

    # the link forest an experiment trains, so a CLI model matches a report's
    defaults = ExperimentConfig().forest_params()

    def forest_flags(p):
        p.add_argument("--trees", type=int, default=defaults.tree_count)
        p.add_argument("--features-per-split", type=int, default=defaults.features_per_split)
        p.add_argument("--min-leaf", type=int, default=defaults.min_leaf_size)
        p.add_argument("--max-depth", type=int, default=defaults.max_depth)

    p = sub.add_parser("train-link", help="train the link classifier")
    p.add_argument("--graph", required=True)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--exclude", help="file of vertex names to keep out of training")
    p.add_argument("--size", type=int, required=True, help="examples per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-out", required=True)
    forest_flags(p)
    p.set_defaults(func=_cmd_train_link)

    p = sub.add_parser("score", help="profile vertices with a trained model")
    p.add_argument("--graph", required=True)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--model", required=True)
    p.add_argument("--vertices", required=True, help="file of vertex names to profile")
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--direction", choices=DIRECTION_MODES, default="out")
    p.add_argument("--out", required=True, help="profile CSV output path")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("rank", help="rank a profile CSV by one meta-feature")
    p.add_argument("--profiles", required=True)
    p.add_argument("--by", choices=META_FEATURE_NAMES, default="abnormality_probability")
    p.add_argument("--order", choices=RANK_ORDERS, default="desc")
    p.add_argument("--top", type=int, default=None)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("evaluate", help="run a configured experiment end to end")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--report-out", default="report.json")
    p.add_argument("--pk-out", default="precision_at_k.csv")
    p.add_argument("--audit-dir", help="directory for per-run test-set audit CSVs")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(stream=sys.stderr,
                            level=logging.WARNING if args.quiet else logging.INFO,
                            format="%(levelname)s %(message)s")
        _log_params(args.command, args)
        return args.func(args)
    except (_UsageError, ParameterError, OSError) as e:  # OSError: a path that cannot be used
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except LinkAnomalyError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
