"""Grouping and parsing accuracy metrics over template-annotated datasets.

All four metrics follow the Loghub-2.0 benchmark conventions, and each is
read from one count of the (predicted, true) label pairs, so scoring is
linear in the number of logs:

* GA  — share of logs whose predicted group equals a ground-truth group.
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


def _f1(correct: int, n_predicted: int, n_true: int) -> float:
    if correct == 0:
        return 0.0
    p = correct / n_predicted
    r = correct / n_true
    return 2 * p * r / (p + r)


class _Tally:
    """One count each of the predicted labels, the true labels and the
    (predicted, true) label pairs, which every metric reads. Two groups are
    equal iff their pair's count equals both labels' counts."""

    def __init__(self, predicted: Sequence[Hashable], truth: Sequence[Hashable]):
        if len(predicted) != len(truth):
            raise ValueError(f"partition mismatch: {len(predicted)} predicted labels "
                             f"vs {len(truth)} ground-truth labels")
        self.n = len(truth)
        pred_sizes = Counter(predicted)
        true_sizes = Counter(truth)
        self.pairs = Counter(zip(predicted, truth))
        self.n_p, self.n_g = len(pred_sizes), len(true_sizes)
        # (predicted label, true label, size) of each predicted group that is also a true group
        self.matched = [(label, true_label, shared)
                        for (label, true_label), shared in self.pairs.items()
                        if shared == pred_sizes[label] == true_sizes[true_label]]

    def ga(self) -> float:
        return sum(size for _, _, size in self.matched) / self.n if self.n else 0.0

    def fga(self) -> tuple[float, int, int, int]:
        n_c = len(self.matched)
        return _f1(n_c, self.n_p, self.n_g), self.n_g, self.n_p, n_c

    def pa(self) -> float:
        # each distinct pair is split once, however many logs it labels
        correct = sum(count for (tmpl, true_tmpl), count in self.pairs.items()
                      if tmpl.split() == true_tmpl.split())
        return correct / self.n if self.n else 0.0

    def fta(self) -> float:
        # a None ground-truth template (not a str) is never correct
        correct = sum(1 for tmpl, match, _ in self.matched
                      if match is not None and tmpl.split() == match.split())
        return _f1(correct, self.n_p, self.n_g)


def grouping_accuracy(predicted: Sequence[Hashable],
                      truth: Sequence[Hashable]) -> float:
    """GA: a log counts iff its predicted group has exactly the same member
    set as its ground-truth group."""
    return _Tally(predicted, truth).ga()


def fga(predicted: Sequence[Hashable],
        truth: Sequence[Hashable]) -> tuple[float, int, int, int]:
    """FGA plus the (N_g, N_p, N_c) counts it derives from."""
    return _Tally(predicted, truth).fga()


def parsing_accuracy(predicted_templates: Sequence[str],
                     truth_templates: Sequence[str]) -> float:
    """PA: per-log whitespace-token equality of templates."""
    return _Tally(predicted_templates, truth_templates).pa()


def fta(predicted_templates: Sequence[str],
        truth_templates: Sequence[str]) -> float:
    """FTA: template correct iff its log group matches a ground-truth group
    and the token sequences agree; harmonic mean of precision and recall."""
    return _Tally(predicted_templates, truth_templates).fta()


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
    tally = _Tally(predicted_templates, truth_templates)
    fga_value, n_g, n_p, n_c = tally.fga()
    return MetricsReport(ga=tally.ga(), fga=fga_value, pa=tally.pa(), fta=tally.fta(),
                         n_g=n_g, n_p=n_p, n_c=n_c)
