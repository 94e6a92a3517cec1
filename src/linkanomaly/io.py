"""File formats: edge lists, label/profile/audit CSVs, and report JSON.

Edge lists are one edge per line, the two vertex names separated by a
comma or whitespace; `#` starts a comment line.  All CSVs carry a header
row.  Reports serialize with sorted keys so identical results are
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

from .anomaly import META_FEATURE_NAMES, VertexAnomalyProfile
from .errors import ParseError, named_decode_error
from .graph import Graph, graph_from_endpoints
from .sampling import InjectionRecord, TestSet

_LABEL_TOKENS = {"0": 0, "1": 1, "normal": 0, "anomalous": 1}


# Matches at the start of each line that is not plainly one edge (two
# fields once commas are blanked, the first not starting with "#"): blank,
# comment and malformed lines are the only ones looked at one by one.
_OTHER_LINE = re.compile(r"^(?![^\S\n]*[^\s#]\S*[^\S\n]+\S+[^\S\n]*$)", re.MULTILINE)


def load_edge_list(path, directed: bool) -> Graph:
    """Parse an edge-list file into a graph."""
    with named_decode_error(path), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    blanked = text.replace(",", " ")  # same offsets as `text`
    pieces, pos = [], 0
    for match in _OTHER_LINE.finditer(blanked):
        start = match.start()
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        stripped = text[start:end].strip()
        if stripped and stripped[0] != "#":
            if len(blanked[start:end].split()) != 2:
                lineno = text.count("\n", 0, start) + 1
                line = text[start:end + 1]
                raise ParseError(f"{path}:{lineno}: expected two vertex names, got {line!r}")
            continue  # an edge line starting ",#": its first name starts with "#"
        pieces.append(blanked[pos:start])
        pos = end
    pieces.append(blanked[pos:])
    endpoints = "".join(pieces).split()
    if not endpoints:
        raise ParseError(f"{path}: no edges found")
    return graph_from_endpoints(endpoints, directed)


def write_edge_list(g: Graph, path, comment: str | None = None) -> None:
    names = g.names
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for a, b in g.edges:
            fh.write(f"{names[a]},{names[b]}\n")


def load_labels(path) -> dict[str, int]:
    """Parse a `vertex,label` CSV; vertices absent from it default to normal."""
    labels: dict[str, int] = {}
    with named_decode_error(path), open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None or [h.strip().lower() for h in header] != ["vertex", "label"]:
            raise ParseError(f"{path}: expected header 'vertex,label', got {header}")
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{path}:{lineno}: expected two fields, got {row}")
            name, token = row[0].strip(), row[1].strip().lower()
            if token not in _LABEL_TOKENS:
                raise ParseError(f"{path}:{lineno}: unknown label token {row[1]!r}")
            labels[name] = _LABEL_TOKENS[token]
    return labels


def write_labels(path, labels: Mapping[str, int]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["vertex", "label"])
        for name in labels:
            out.writerow([name, int(labels[name])])


def load_vertex_list(path) -> list[str]:
    """One vertex name per line; `#` comments and blank lines skipped."""
    names = []
    with named_decode_error(path), open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                names.append(stripped)
    return names


# -- profiles ------------------------------------------------------------


def write_profiles_csv(path, profiles: Iterable[VertexAnomalyProfile], g: Graph) -> None:
    names = g.names
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["vertex", *META_FEATURE_NAMES])
        fields = attrgetter("vertex", *META_FEATURE_NAMES)
        out.writerows([names[v], *(repr(float(x)) for x in values)]
                      for v, *values in map(fields, profiles))


def load_profiles_csv(path) -> list[tuple[str, VertexAnomalyProfile]]:
    """Read profiles back; vertex ids become row indices (file order).

    Every value must be finite, and the two count columns whole numbers.
    """
    expected = ["vertex", *META_FEATURE_NAMES]
    entries = []
    with named_decode_error(path), open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header != expected:
            raise ParseError(f"{path}: expected header {','.join(expected)!r}")
        for i, row in enumerate(rows):
            if not row:
                continue
            if len(row) != len(expected):
                raise ParseError(f"{path}:{i + 2}: expected {len(expected)} fields, got {len(row)}")
            try:
                values = [float(x) for x in row[1:]]
            except ValueError as e:
                raise ParseError(f"{path}:{i + 2}: {e}") from None
            for j, x in enumerate(values):
                whole = j in (2, 6)
                if not (x.is_integer() if whole else math.isfinite(x)):
                    kind = "a whole number" if whole else "finite"
                    raise ParseError(f"{path}:{i + 2}: {META_FEATURE_NAMES[j]} must be {kind},"
                                     f" got {row[j + 1]!r}")
            entries.append((row[0], VertexAnomalyProfile(
                vertex=i,
                abnormality_probability=values[0],
                edges_probability_stdv=values[1],
                sum_edge_label=int(values[2]),
                mean_predicted_link_label=values[3],
                predicted_label_stdv=values[4],
                edges_probability_median=values[5],
                edge_count=int(values[6]),
            )))
    return entries


# -- reports ---------------------------------------------------------------


def report_json(report) -> str:
    """Canonical serialization; identical reports give identical bytes."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def write_report(report, path) -> None:
    Path(path).write_text(report_json(report), encoding="utf-8")


def write_precision_at_k_csv(report, path) -> None:
    """Plot-ready two-column CSV of the averaged precision@k curve."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["k", "precision"])
        for k in sorted(report.precision_at_k):
            out.writerow([int(k), repr(report.precision_at_k[k])])


# -- audit trails -----------------------------------------------------------


def write_injection_record_csv(record: InjectionRecord, g: Graph, path) -> None:
    names = g.names
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["vertex", "edge_count", "targets"])
        for v, k, targets in zip(record.injected, record.edge_counts, record.targets):
            out.writerow([names[v], k, " ".join(names[t] for t in targets)])


def write_test_set_csv(pos: TestSet, neg: TestSet, g: Graph, path) -> None:
    """Membership audit: every vertex involved in the test sets and its role."""
    names = g.names
    selected = set(pos.selected) | set(neg.selected)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["vertex", "label", "selected"])
        for v in sorted(pos.vertices | neg.vertices):
            out.writerow([names[v], g.label_of(v), int(v in selected)])
