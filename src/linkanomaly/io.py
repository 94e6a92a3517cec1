"""File formats: edge lists, label/profile/audit CSVs, and report JSON.

Edge lists are one edge per line, the two vertex names separated by a
comma or whitespace; `#` starts a comment line.  All CSVs carry a header
row.  A file read may start with a UTF-8 byte-order mark, which is
skipped.  Reports serialize with sorted keys so identical results are
byte-identical on disk.
"""

from __future__ import annotations

import csv
import json
import math
import re
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .anomaly import META_FEATURE_NAMES, META_FEATURE_TYPES, VertexAnomalyProfile
from .errors import ParseError, named_decode_error
from .graph import Graph, graph_from_names
from .sampling import InjectionRecord, TestSet

_LABEL_TOKENS = {"0": 0, "1": 1, "normal": 0, "anomalous": 1}


# A file's text is tokenized in slices of about this many characters, each
# cut at a line end, so only one slice's names are held as strings at once.
_CHUNK = 1 << 20

# Matches the newline before each line that is not plainly one edge (two
# fields once commas are blanked, the first not starting with "#"): blank,
# comment and malformed lines are the only ones looked at one by one.  The
# literal newline lets the search skip from line end to line end.
_OTHER_LINE = re.compile(r"\n(?![^\S\n]*[^\s#]\S*[^\S\n]+\S+[^\S\n]*(?:\n|\Z))")


def load_edge_list(path, directed: bool) -> Graph:
    """Parse an edge-list file into a graph, one slice of lines at a time."""
    return graph_from_names(_edge_list_slices(path), directed)


def _edge_list_slices(path):
    """An edge-list file's vertex names, one slice of lines at a time; the
    file's text is freed once the last slice is out."""
    with named_decode_error(path), open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    start = names_before = lines_before = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK - 1)
        end = len(text) if end < 0 else end + 1
        lines = text[start:end]
        names = _edge_list_names(lines, path, lines_before)
        names_before += len(names)
        yield names
        del names  # freed before the next slice is split
        lines_before += lines.count("\n")
        start = end
    if not names_before:
        raise ParseError(f"{path}: no edges found")


def _edge_list_names(text: str, path, lines_before: int) -> list[str]:
    """The vertex names of whole edge-list lines, in order; a malformed line
    raises, numbered as line `lines_before` + its line in `text`."""
    blanked = text.replace(",", " ")  # same offsets as `text`
    pieces, pos = [], 0
    # a match at i of the newline-prefixed text is the line starting at i
    for match in _OTHER_LINE.finditer("\n" + blanked):
        start = match.start()
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        stripped = text[start:end].strip()
        if stripped and stripped[0] != "#":
            if len(blanked[start:end].split()) != 2:
                lineno = lines_before + text.count("\n", 0, start) + 1
                line = text[start:end + 1]
                raise ParseError(f"{path}:{lineno}: expected two vertex names, got {line!r}")
            continue  # an edge line starting ",#": its first name starts with "#"
        pieces.append(blanked[pos:start])
        pos = end
    pieces.append(blanked[pos:])
    return "".join(pieces).split()


def write_edge_list(g: Graph, path, comment: str | None = None) -> None:
    names = g.names
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.writelines(f"{names[a]},{names[b]}\n" for a, b in g.edges.tolist())


def _csv_rows(path):
    """A CSV file's header row (None if empty), then `(line, row)` per non-blank
    row, `line` being the file line the row ends on; a `csv.Error` (such as a
    field over the csv module's size limit) becomes a ParseError naming it."""
    with named_decode_error(path), open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = csv.reader(fh)
        try:
            yield next(rows, None)
            for row in rows:
                if row:
                    yield rows.line_num, row
        except csv.Error as e:
            raise ParseError(f"{path}:{rows.line_num}: {e}") from None


def _write_csv(path, header: list[str], rows: Iterable) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


def load_labels(path) -> dict[str, int]:
    """Parse a `vertex,label` CSV; vertices absent from it default to normal."""
    labels: dict[str, int] = {}
    rows = _csv_rows(path)
    header = next(rows)
    if header is None or [h.strip().lower() for h in header] != ["vertex", "label"]:
        raise ParseError(f"{path}: expected header 'vertex,label', got {header}")
    for line, row in rows:
        if len(row) != 2:
            raise ParseError(f"{path}:{line}: expected two fields, got {row}")
        name, token = row[0].strip(), row[1].strip().lower()
        if token not in _LABEL_TOKENS:
            raise ParseError(f"{path}:{line}: unknown label token {row[1]!r}")
        labels[name] = _LABEL_TOKENS[token]
    return labels


def write_labels(path, labels: Mapping[str, int]) -> None:
    _write_csv(path, ["vertex", "label"], ([name, int(labels[name])] for name in labels))


def load_vertex_list(path) -> list[str]:
    """One vertex name per line; `#` comments and blank lines skipped."""
    names = []
    with named_decode_error(path), open(path, "r", encoding="utf-8-sig") as fh:
        for line in fh:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                names.append(stripped)
    return names


# -- profiles ------------------------------------------------------------


def write_profiles_csv(path, profiles: Iterable[VertexAnomalyProfile], g: Graph) -> None:
    names = g.names
    fields = attrgetter("vertex", *META_FEATURE_NAMES)
    _write_csv(path, ["vertex", *META_FEATURE_NAMES],
               ([names[v], *(repr(float(x)) for x in values)]
                for v, *values in map(fields, profiles)))


def load_profiles_csv(path) -> list[tuple[str, VertexAnomalyProfile]]:
    """Read profiles back in file order; profile i has vertex id i.

    Every value must be finite, and the two count columns whole numbers.
    """
    expected = ["vertex", *META_FEATURE_NAMES]
    entries = []
    rows = _csv_rows(path)
    if next(rows) != expected:
        raise ParseError(f"{path}: expected header {','.join(expected)!r}")
    for line, row in rows:
        if len(row) != len(expected):
            raise ParseError(f"{path}:{line}: expected {len(expected)} fields, got {len(row)}")
        try:
            values = [float(x) for x in row[1:]]
        except ValueError as e:
            raise ParseError(f"{path}:{line}: {e}") from None
        for name, kind, x, text in zip(META_FEATURE_NAMES, META_FEATURE_TYPES, values, row[1:]):
            if not (x.is_integer() if kind is int else math.isfinite(x)):
                must = "a whole number" if kind is int else "finite"
                raise ParseError(f"{path}:{line}: {name} must be {must}, got {text!r}")
        entries.append((row[0], VertexAnomalyProfile(
            len(entries), *(kind(x) for kind, x in zip(META_FEATURE_TYPES, values)))))
    return entries


# -- reports ---------------------------------------------------------------


def report_json(report) -> str:
    """Canonical serialization; identical reports give identical bytes."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def write_report(report, path) -> None:
    Path(path).write_text(report_json(report), encoding="utf-8")


def write_precision_at_k_csv(report, path) -> None:
    """Plot-ready two-column CSV of the averaged precision@k curve."""
    curve = report.precision_at_k
    _write_csv(path, ["k", "precision"], ([int(k), repr(curve[k])] for k in sorted(curve)))


# -- audit trails -----------------------------------------------------------


def write_injection_record_csv(record: InjectionRecord, g: Graph, path) -> None:
    names = g.names
    targets = record.targets.tolist()
    ends = np.cumsum(record.edge_counts).tolist()
    _write_csv(path, ["vertex", "edge_count", "targets"],
               ([names[v], k, " ".join(names[t] for t in targets[end - k:end])]
                for v, k, end in zip(record.injected, record.edge_counts, ends)))


def write_test_set_csv(pos: TestSet, neg: TestSet, g: Graph, path) -> None:
    """Membership audit: every vertex involved in the test sets and its role."""
    names, labels = g.names, g.labels.tolist()
    selected = set(pos.selected) | set(neg.selected)
    _write_csv(path, ["vertex", "label", "selected"],
               ([names[v], labels[v], int(v in selected)]
                for v in np.union1d(pos.vertices, neg.vertices).tolist()))
