"""Experiment configuration: a flat key=value file plus overrides.

The format is deliberately trivial (one `key = value` per line, `#`
comments) so experiment records stay diffable and need no parser
dependency.  Every field has a default; `resolved()` returns the full
effective configuration for embedding into reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ParameterError, ParseError, named_decode_error
from .forest import ForestParams
from .graph import DIRECTION_MODES
from .rng import seed_key

ANOMALY_SOURCES = ("inject", "random", "provided")
PRECISION_KS = (10, 50, 100, 200, 500)


def _bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _opt_int(s: str):
    return None if s.lower() == "none" else int(s)


def _opt_str(s: str):
    return None if s.lower() == "none" else s


@dataclass
class ExperimentConfig:
    """Everything `run_experiment` needs, with the published defaults."""

    graph_path: str | None = None
    labels_path: str | None = None
    directed: bool = False
    ba_n: int | None = None
    ba_m: int | None = None
    master_seed: int = 42
    anomaly_source: str = "inject"
    anomaly_fraction: float = 0.10
    test_positive_count: int = 100
    test_negative_count: int = 900
    min_friends: int = 3
    threshold: float = 0.8
    link_train_size_per_class: int = 15000
    link_holdout_per_class: int = 1000
    tree_count: int = 150
    features_per_split: int | None = None
    min_leaf_size: int = 25
    max_depth: int | None = None
    meta_tree_count: int = 200
    run_count: int = 10
    folds: int = 10
    direction_mode: str = "out"
    exclusion_mode: str = "selected"

    def validate(self) -> None:
        has_file = self.graph_path is not None
        has_gen = self.ba_n is not None or self.ba_m is not None
        if has_file == has_gen:
            raise ParameterError("configure exactly one graph source: graph_path, or ba_n + ba_m")
        if has_gen and (self.ba_n is None or self.ba_m is None):
            raise ParameterError("generator needs both ba_n and ba_m")
        if self.anomaly_source not in ANOMALY_SOURCES:
            raise ParameterError(f"anomaly_source must be one of {ANOMALY_SOURCES}")
        if self.anomaly_source == "provided" and self.labels_path is None:
            raise ParameterError("anomaly_source=provided needs labels_path")
        if not 0 < self.anomaly_fraction < 1:
            raise ParameterError("anomaly_fraction must be in (0, 1)")
        if not 0 < self.threshold < 1:
            raise ParameterError("threshold must be in (0, 1)")
        for key in ("test_positive_count", "test_negative_count",
                    "link_train_size_per_class", "run_count"):
            if getattr(self, key) < 1:
                raise ParameterError(f"{key} must be positive")
        seed_key(self.master_seed)  # raises on a negative seed
        if self.min_friends < 0:
            raise ParameterError("min_friends must be >= 0")
        if self.link_holdout_per_class < 0:
            raise ParameterError("link_holdout_per_class must be >= 0")
        if self.folds < 2:
            raise ParameterError("folds must be >= 2")
        if self.meta_tree_count < 1:
            raise ParameterError("meta_tree_count must be positive")
        if self.direction_mode not in DIRECTION_MODES:
            raise ParameterError(f"direction_mode must be one of {DIRECTION_MODES}")
        if self.exclusion_mode not in ("selected", "endpoints"):
            raise ParameterError("exclusion_mode must be 'selected' or 'endpoints'")
        self.forest_params().validate()

    def forest_params(self) -> ForestParams:
        return ForestParams(tree_count=self.tree_count,
                            features_per_split=self.features_per_split,
                            min_leaf_size=self.min_leaf_size,
                            max_depth=self.max_depth)

    def meta_forest_params(self) -> ForestParams:
        return ForestParams(tree_count=self.meta_tree_count)

    def resolved(self) -> dict:
        """Full effective configuration, defaults included."""
        return asdict(self)


# the parser for each key, from its field's annotation (a string under
# `from __future__ import annotations`); a field of any other type fails
# at import
_PARSERS = {"int | None": _opt_int, "str | None": _opt_str, "bool": _bool,
            "int": int, "float": float, "str": str}
_COERCE = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def apply_kv(config: ExperimentConfig, key: str, raw: str, where: str, error=ParseError) -> None:
    """Set one key from its text; an unknown key or a bad value raises `error`."""
    if key not in _COERCE:
        raise error(f"{where}: unknown configuration key {key!r}")
    try:
        setattr(config, key, _COERCE[key](raw))
    except ValueError as e:
        raise error(f"{where}: bad value for {key}: {e}") from None


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    config = ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        apply_kv(config, key.strip(), raw.strip(), f"{source}:{lineno}")
    return config


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse a config file, apply key=value overrides, and validate; a bad
    override is a ParameterError, a bad line of the file a ParseError."""
    p = Path(path)
    with named_decode_error(p):
        text = p.read_text(encoding="utf-8-sig")
    config = parse_config_text(text, str(p))
    for key, raw in (overrides or {}).items():
        apply_kv(config, key, raw, "--set", ParameterError)
    config.validate()
    return config

