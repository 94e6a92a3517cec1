"""Exception hierarchy shared by all modules.

Everything raised on purpose derives from :class:`LinkAnomalyError` so the
CLI can translate failures into exit codes without enumerating modules.
"""

from contextlib import contextmanager


class LinkAnomalyError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LinkAnomalyError):
    """A file or record could not be parsed; message names the offending line."""


@contextmanager
def named_decode_error(path):
    """Re-raise a UnicodeDecodeError from reading `path` as a ParseError naming it."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None


class UnknownVertexError(LinkAnomalyError, KeyError):
    """Lookup of a vertex id or name that is not in the graph."""

    def __str__(self):  # KeyError's would quote the message
        return Exception.__str__(self)


class InvalidPairError(LinkAnomalyError):
    """A pair feature was requested for v == u."""


class ShapeError(LinkAnomalyError):
    """Ragged feature vectors or a length mismatch between inputs."""


class DegenerateTrainingError(LinkAnomalyError):
    """Training data contains a single class."""


class ExhaustionError(LinkAnomalyError):
    """A rejection-sampling loop ran out of attempts; message names the budget."""


class ParameterError(LinkAnomalyError, ValueError):
    """An argument or configuration value is out of its documented range."""


class StratificationError(LinkAnomalyError):
    """A class is too small to stratify across the requested folds."""


class UndefinedMetricError(LinkAnomalyError):
    """A metric is undefined for the given labels (e.g. single-class AUC)."""


class EmptyNeighborhoodError(LinkAnomalyError):
    """A per-vertex aggregate was requested for a vertex with no edges."""


class PipelineError(LinkAnomalyError):
    """Wraps an error raised inside `run_experiment` with stage attribution."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
