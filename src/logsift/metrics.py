"""Grouping and parsing accuracy metrics over template-annotated datasets.

All four metrics follow the Loghub-2.0 benchmark conventions:

* GA  — fraction of logs whose predicted group's member set equals its
        ground-truth group's member set.
* FGA — harmonic mean of precision/recall over exactly-matching groups,
        counted at template (group) level.
* PA  — fraction of logs whose predicted template tokens (whitespace split)
        equal the ground-truth tokens.
* FTA — like FGA but a template is correct only if its group matches AND
        its tokens match.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import SchemaError

# the Loghub-2.0 structured-log schema
CONTENT_COLUMN = "Content"
TEMPLATE_COLUMN = "EventTemplate"


@dataclass(frozen=True)
class LabeledDataset:
    contents: tuple[str, ...]
    templates: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.contents)


def load_dataset(path: str) -> LabeledDataset:
    """Read a Loghub-2.0 structured log CSV: its Content and EventTemplate
    columns, a byte that is not UTF-8 read as a lone surrogate."""
    contents: list[str] = []
    templates: list[str] = []
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.DictReader(fh)
        try:
            if not {CONTENT_COLUMN, TEMPLATE_COLUMN} <= set(reader.fieldnames or ()):
                raise SchemaError(
                    f"{path}: expected columns {CONTENT_COLUMN!r} and "
                    f"{TEMPLATE_COLUMN!r}, found {reader.fieldnames}"
                )
            for row in reader:
                content = row[CONTENT_COLUMN]
                template = row[TEMPLATE_COLUMN]
                if content is None or template is None:
                    raise SchemaError(f"{path}:{reader.line_num}: short row")
                if not template.strip():
                    raise SchemaError(f"{path}:{reader.line_num}: empty template")
                contents.append(content)
                templates.append(template)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            # DictReader counts a line once it is read whole; its csv.reader
            # has counted the line it failed on
            raise SchemaError(f"{path}:{reader.reader.line_num}: {exc}") from exc
    return LabeledDataset(tuple(contents), tuple(templates))


def _groups(labels: Sequence[Hashable]) -> dict[Hashable, frozenset[int]]:
    members = defaultdict(set)
    for i, label in enumerate(labels):
        members[label].add(i)
    return {label: frozenset(ids) for label, ids in members.items()}


def _check_aligned(predicted: Sequence, truth: Sequence):
    if len(predicted) != len(truth):
        raise ValueError(
            f"partition mismatch: {len(predicted)} predicted labels "
            f"vs {len(truth)} ground-truth labels"
        )


def grouping_accuracy(predicted: Sequence[Hashable],
                      truth: Sequence[Hashable]) -> float:
    """GA: a log counts iff its predicted group has exactly the same member
    set as its ground-truth group."""
    _check_aligned(predicted, truth)
    if not truth:
        return 0.0
    pred_groups = _groups(predicted)
    true_groups = _groups(truth)
    correct = sum(
        1 for i in range(len(truth))
        if pred_groups[predicted[i]] == true_groups[truth[i]]
    )
    return correct / len(truth)


def fga(predicted: Sequence[Hashable],
        truth: Sequence[Hashable]) -> tuple[float, int, int, int]:
    """FGA plus the (N_g, N_p, N_c) counts it derives from."""
    _check_aligned(predicted, truth)
    pred_sets = set(_groups(predicted).values())
    true_sets = set(_groups(truth).values())
    n_g = len(true_sets)
    n_p = len(pred_sets)
    n_c = len(pred_sets & true_sets)
    if n_c == 0 or n_p == 0 or n_g == 0:
        return 0.0, n_g, n_p, n_c
    pga = n_c / n_p
    rga = n_c / n_g
    return 2 * pga * rga / (pga + rga), n_g, n_p, n_c


def _tokens(template: str) -> tuple[str, ...]:
    return tuple(template.split())


def parsing_accuracy(predicted_templates: Sequence[str],
                     truth_templates: Sequence[str]) -> float:
    """PA: per-log whitespace-token equality of templates."""
    _check_aligned(predicted_templates, truth_templates)
    if not truth_templates:
        return 0.0
    correct = sum(
        1 for p, t in zip(predicted_templates, truth_templates)
        if _tokens(p) == _tokens(t)
    )
    return correct / len(truth_templates)


def fta(predicted_templates: Sequence[str],
        truth_templates: Sequence[str]) -> float:
    """FTA: template correct iff its log group matches a ground-truth group
    and the token sequences agree; harmonic mean of precision and recall."""
    _check_aligned(predicted_templates, truth_templates)
    pred_groups = _groups(predicted_templates)
    true_groups = _groups(truth_templates)
    true_by_set = {ids: tmpl for tmpl, ids in true_groups.items()}
    correct = 0
    for tmpl, ids in pred_groups.items():
        match = true_by_set.get(ids)
        if match is not None and _tokens(tmpl) == _tokens(match):
            correct += 1
    if correct == 0:
        return 0.0
    precision = correct / len(pred_groups)
    recall = correct / len(true_groups)
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class MetricsReport:
    ga: float
    fga: float
    pa: float
    fta: float
    n_g: int
    n_p: int
    n_c: int

    def to_dict(self) -> dict:
        return {"GA": self.ga, "FGA": self.fga, "PA": self.pa, "FTA": self.fta,
                "N_g": self.n_g, "N_p": self.n_p, "N_c": self.n_c}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_table(self) -> str:
        rows = [("GA", self.ga), ("FGA", self.fga),
                ("PA", self.pa), ("FTA", self.fta)]
        lines = [f"{name:<4} {value:.3f}" for name, value in rows]
        lines.append(f"N_g={self.n_g} N_p={self.n_p} N_c={self.n_c}")
        return "\n".join(lines)


def evaluate(predicted_templates: Sequence[str],
             truth_templates: Sequence[str]) -> MetricsReport:
    """All four metrics for one dataset. Logs are grouped by predicted
    template: clusters sharing a template count as one group."""
    ga = grouping_accuracy(predicted_templates, truth_templates)
    fga_value, n_g, n_p, n_c = fga(predicted_templates, truth_templates)
    return MetricsReport(
        ga=ga,
        fga=fga_value,
        pa=parsing_accuracy(predicted_templates, truth_templates),
        fta=fta(predicted_templates, truth_templates),
        n_g=n_g, n_p=n_p, n_c=n_c,
    )
