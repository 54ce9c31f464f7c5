"""Synthetic log corpus with known templates, for offline pipeline runs.

Templates are built from disjoint constant-token vocabularies with one
parameter slot, so under the hashing provider two logs of the same template
share almost all token mass (similarity well above 0.9) while logs of
different templates share none (similarity near 0). similarity_margins
measures both margins so a pipeline test can check the separation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingProvider, EncoderWeights, embed_log
from .records import LogRecord

# 12 constant tokens + 1 parameter: within-template similarity ~= 12/13
_CONSTANT_TOKENS_PER_TEMPLATE = 12


@dataclass(frozen=True)
class SyntheticCorpus:
    records: tuple[LogRecord, ...]
    template_ids: tuple[int, ...]  # ground-truth template per record
    template_texts: tuple[str, ...]  # with <*> in the parameter slot

    def __len__(self) -> int:
        return len(self.records)


def _letters(n: int) -> str:
    digits = []
    while True:
        digits.append(chr(ord("a") + n % 26))
        n //= 26
        if n == 0:
            return "".join(reversed(digits))


def _template_tokens(template_idx: int) -> list[str]:
    # letters only: the rule-based mock parser treats digit-bearing tokens
    # as parameters, and these must survive as constants
    return [
        f"w{_letters(template_idx * _CONSTANT_TOKENS_PER_TEMPLATE + k)}"
        for k in range(_CONSTANT_TOKENS_PER_TEMPLATE)
    ]


def generate_corpus(n_templates: int = 10, logs_per_template: int = 100,
                    seed: int = 7) -> SyntheticCorpus:
    rng = np.random.default_rng(seed)
    records: list[LogRecord] = []
    template_ids: list[int] = []
    texts: list[str] = []
    for t in range(n_templates):
        constants = _template_tokens(t)
        texts.append(" ".join(constants + ["<*>"]))
        for i in range(logs_per_template):
            param = f"p{t}x{int(rng.integers(10**6)):06d}n{i}"
            records.append(LogRecord(source_id=f"svc-{t}",
                                     content=" ".join(constants + [param])))
            template_ids.append(t)
    return SyntheticCorpus(tuple(records), tuple(template_ids), tuple(texts))


def similarity_margins(corpus: SyntheticCorpus, provider: EmbeddingProvider,
                       weights: EncoderWeights) -> tuple[float, float]:
    """(min within-template similarity, max cross-template similarity)."""
    vectors = np.stack([embed_log(record, provider, weights) for record in corpus.records])
    labels = np.asarray(corpus.template_ids)
    sims = vectors @ vectors.T
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(labels), dtype=bool)
    min_within = float(sims[same & off_diag].min())
    max_cross = float(sims[~same].max())
    return min_within, max_cross
