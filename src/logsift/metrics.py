"""Grouping and parsing accuracy metrics over template-annotated datasets.

All four metrics follow the Loghub-2.0 benchmark conventions:

* GA  — share of logs whose predicted group equals a ground-truth group;
        like FGA and FTA it counts each (predicted, true) label pair once,
        so scoring is linear in the number of logs.
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
from collections import Counter
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


def _check_aligned(predicted: Sequence, truth: Sequence):
    if len(predicted) != len(truth):
        raise ValueError(
            f"partition mismatch: {len(predicted)} predicted labels "
            f"vs {len(truth)} ground-truth labels"
        )


def _matched_groups(predicted: Sequence[Hashable],
                    truth: Sequence[Hashable]) -> tuple[list, int, int]:
    """(predicted label, true label, size) for each predicted group equal to
    a ground-truth group, then the numbers of predicted and of ground-truth
    groups. Two groups are equal iff the logs they share are all of each:
    their labels' pair count equals both labels' counts."""
    _check_aligned(predicted, truth)
    pred_sizes = Counter(predicted)
    true_sizes = Counter(truth)
    matched = [(label, true_label, shared)
               for (label, true_label), shared in Counter(zip(predicted, truth)).items()
               if shared == pred_sizes[label] == true_sizes[true_label]]
    return matched, len(pred_sizes), len(true_sizes)


def _f1(correct: int, n_predicted: int, n_true: int) -> float:
    if correct == 0:
        return 0.0
    p = correct / n_predicted
    r = correct / n_true
    return 2 * p * r / (p + r)


def grouping_accuracy(predicted: Sequence[Hashable],
                      truth: Sequence[Hashable]) -> float:
    """GA: a log counts iff its predicted group has exactly the same member
    set as its ground-truth group."""
    _check_aligned(predicted, truth)
    if not truth:
        return 0.0
    matched, _, _ = _matched_groups(predicted, truth)
    return sum(size for _, _, size in matched) / len(truth)


def fga(predicted: Sequence[Hashable],
        truth: Sequence[Hashable]) -> tuple[float, int, int, int]:
    """FGA plus the (N_g, N_p, N_c) counts it derives from."""
    matched, n_p, n_g = _matched_groups(predicted, truth)
    return _f1(len(matched), n_p, n_g), n_g, n_p, len(matched)


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
    matched, n_p, n_g = _matched_groups(predicted_templates, truth_templates)
    # a None ground-truth template (not a str) is never correct
    correct = sum(1 for tmpl, match, _ in matched
                  if match is not None and _tokens(tmpl) == _tokens(match))
    return _f1(correct, n_p, n_g)


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
