"""Seeded log corpora for the benchmark workloads.

A corpus is a shuffled stream of log lines with a ground-truth template per
line. The knobs are the ones the pipeline's behaviour depends on: template
count, template frequency skew, tokens shared between templates, the
number of parameters per template, template pairs whose similarity sits
next to the clustering threshold, and the size of each parameter's value
pool, which sets the share of exact-duplicate lines.

Similarities below are for the hashing provider with the identity encoder,
where the cosine of two lines is their shared token count over the product
of their token-count norms. A template with p parameters gets
k = c p + 2 (+0..2) constant tokens, so two of its lines with fresh
parameters are k / (k + p) similar before hash collisions: at least 0.9 for
c = 9, where hash collisions can push a pair under the threshold, and at
least 0.95 for c = 19, where they cannot.

Frequencies, near-pair layout, parameter counts and the arrival order of
templates depend only on the spec, so every seed has the same structure
and runs on different seeds are comparable; the seed picks the tokens,
where parameters sit in each template, and the parameter values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

THRESHOLD = 0.9
NEAR_MARGIN = 0.02
# fixed generator for the structure that must not vary with the seed
_STRUCTURE_SEED = 20240815


@dataclass(frozen=True)
class CorpusSpec:
    templates: int
    logs: int  # target size; the one-log floor of the rarest templates can add a few
    zipf: float  # frequency of rank r is proportional to 1 / (r + 1) ** zipf
    shared_pool: int  # constant tokens that every template may draw from
    shared_per_template: int  # constants each template draws from the pool
    max_params: int  # each template draws 1..max_params parameters
    constants_per_param: int  # c above: 9 sits near the threshold, 19 clear of it
    param_pool: int  # distinct values per parameter slot; 0 draws a fresh value per line
    near_pairs: int  # template pairs one token apart, half just above, half just below


@dataclass(frozen=True)
class Template:
    tokens: tuple[str, ...]  # constants, with "<*>" at parameter slots
    params: tuple[int, ...]  # positions of parameter slots in tokens

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class Corpus:
    lines: tuple[str, ...]
    truth: tuple[str, ...]  # ground-truth template text per line
    template_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.lines)

    def duplicate_share(self) -> float:
        """Share of lines that repeat an earlier line exactly."""
        return 1.0 - len(set(self.lines)) / len(self.lines)


def _letters(n: int) -> str:
    out = []
    while True:
        out.append(chr(ord("a") + n % 26))
        n //= 26
        if n == 0:
            return "".join(reversed(out))


def template_counts(spec: CorpusSpec) -> list[int]:
    """Lines per template rank: Zipf shares of `logs`, at least one each,
    rounded by largest remainder so the profile is exact and seed-free."""
    weights = 1.0 / np.arange(1, spec.templates + 1) ** spec.zipf
    raw = weights / weights.sum() * spec.logs
    counts = np.maximum(1, np.floor(raw)).astype(int)
    short = spec.logs - int(counts.sum())
    if short > 0:
        order = np.argsort(-(raw - np.floor(raw)), kind="stable")
        counts[order[:short]] += 1
    return counts.tolist()


def near_pair_constants(params: int, above: bool) -> int:
    """Constant count k for a template whose sibling differs in one constant.

    A mature centroid of one sibling is close to its constants' direction,
    so a line of the other sibling scores about (k - 1) / sqrt(k (k + p))
    against it. Pick the smallest k that lands at or above the threshold,
    or the largest that stays below it.
    """
    k = 9 * params + 2
    while (k - 1) / math.sqrt(k * (k + params)) < THRESHOLD:
        k += 1
    return k if above else k - 1


def _build_templates(spec: CorpusSpec, rng: np.random.Generator,
                     structure: np.random.Generator) -> list[Template]:
    shared = [f"s{_letters(i)}" for i in range(spec.shared_pool)]
    own_counter = 0

    def own(n: int) -> list[str]:
        nonlocal own_counter
        # per-seed letters keep different seeds' vocabularies apart
        prefix = _letters(int(rng.integers(26 ** 2)))
        tokens = [f"w{prefix}{_letters(own_counter + i)}" for i in range(n)]
        own_counter += n
        return tokens

    def layout(constants: list[str], params: int) -> Template:
        slots = sorted(rng.choice(len(constants) + params, size=params, replace=False))
        tokens, it = [], iter(constants)
        for pos in range(len(constants) + params):
            tokens.append("<*>" if pos in slots else next(it))
        return Template(tuple(tokens), tuple(int(s) for s in slots))

    templates: list[Template] = []
    for pair in range(min(spec.near_pairs, spec.templates // 2)):
        k = near_pair_constants(1, above=pair % 2 == 0)
        n_shared = min(spec.shared_per_template, k - 1, len(shared))
        constants = list(rng.choice(shared, size=n_shared, replace=False)) + own(k - n_shared)
        rng.shuffle(constants)
        base = layout(constants, 1)
        sibling_constants = constants.copy()
        sibling_constants[int(rng.integers(k))] = own(1)[0]
        it = iter(sibling_constants)
        sibling = Template(tuple("<*>" if t == "<*>" else next(it) for t in base.tokens),
                           base.params)
        templates += [base, sibling]
    while len(templates) < spec.templates:
        params = int(structure.integers(1, spec.max_params + 1))
        k = spec.constants_per_param * params + 2 + int(structure.integers(0, 3))
        n_shared = min(spec.shared_per_template, len(shared))
        constants = list(rng.choice(shared, size=n_shared, replace=False)) + own(k - n_shared)
        rng.shuffle(constants)
        templates.append(layout(constants, params))
    # spread the near pairs over the frequency ranks with a seed-free order
    order = structure.permutation(len(templates))
    return [templates[i] for i in order]


def _param_value(rng: np.random.Generator, slot_kind: int, line: int) -> str:
    # every value carries a digit or a leading slash, as real parameters
    # mostly do, so the rule-based completion mock masks it
    value = int(rng.integers(10 ** 6))
    kind = slot_kind % 4
    if kind == 0:
        return f"{line}{value:06d}"
    if kind == 1:
        return f"10.{value % 256}.{value // 256 % 256}.{line % 256}"
    if kind == 2:
        return f"/var/lib/d{value}"
    return f"id{value}x{line}"


def generate(spec: CorpusSpec, seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    structure = np.random.default_rng(_STRUCTURE_SEED)
    templates = _build_templates(spec, rng, structure)
    counts = template_counts(spec)
    pools: list[list[list[str]]] = []
    for t, template in enumerate(templates):
        pools.append([[_param_value(rng, t + s, v) for v in range(spec.param_pool)]
                      for s in range(len(template.params))])
    ids = np.repeat(np.arange(len(templates)), counts)
    ids = ids[structure.permutation(len(ids))]
    lines, truth = [], []
    for line_no, t in enumerate(ids.tolist()):
        template = templates[t]
        tokens = list(template.tokens)
        for s, pos in enumerate(template.params):
            if spec.param_pool:
                tokens[pos] = pools[t][s][int(rng.integers(spec.param_pool))]
            else:
                tokens[pos] = _param_value(rng, t + s, line_no)
        lines.append(" ".join(tokens))
        truth.append(template.text)
    return Corpus(tuple(lines), tuple(truth), tuple(ids.tolist()))
