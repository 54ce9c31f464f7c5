"""Template extraction for a cluster's representative log.

Builds a five-part prompt (task instructions, parameter examples, output
constraints, chain-of-thought demonstrations, queried log), sends it to a
completion client at temperature 0, and post-processes the response: the
backticked string behind a "LogTemplate" marker is taken, every brace-
delimited parameter is replaced by the placeholder ``<*>`` and adjacent
placeholders are collapsed. A parse sets the state, template id and text
of the cluster's centroid together; the parser keeps only the text -> id
table.
"""

from __future__ import annotations

import importlib.resources
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError, MalformedResponseError, ProviderError
from .index import CentroidIndex, ParseState
from .remote import RemoteClient

TASK_INSTRUCTIONS = (
    "You are an expert in log analysis. A log message consists of a fixed "
    "template written by a developer and dynamic parameters filled in at "
    "runtime. Your task is to identify the dynamic parameters in the log "
    "below and abstract them into a log template. Replace every dynamic "
    "value with a named placeholder in curly braces, e.g. {user_id}. Keep "
    "all fixed text exactly as written."
)

PARAMETER_EXAMPLES = (
    "Common dynamic parameters include: ip addresses and ports such as "
    "192.168.0.1:8008, booleans such as true, numeric counts and durations "
    "such as 2 or 12.47, identifiers such as org_bff943b3ca or "
    "blk_-1608999687919862906, file paths such as /var/data/current, and "
    "timestamps. Fixed elements include verbs, field names, and punctuation "
    "written by the developer."
)

OUTPUT_CONSTRAINTS = (
    "Reply with the log template prepended by \"LogTemplate[idx]\" where idx "
    "matches the queried Log[idx], and delimit the template itself with "
    "backticks, e.g. LogTemplate[1]: `fixed text {param} fixed text`. Think "
    "step by step inside <Inner Monologue></Inner Monologue> tags before "
    "giving the template."
)

PLACEHOLDER = "<*>"


@dataclass(frozen=True)
class Demonstration:
    log: str
    reasoning: str
    template: str


@dataclass(frozen=True)
class Prompt:
    system_instructions: str
    parameter_examples: str
    output_constraints: str
    demonstrations: tuple[Demonstration, ...]
    queried_log: str
    query_index: int = 1

    def render(self) -> str:
        parts = [self.system_instructions, self.parameter_examples,
                 self.output_constraints]
        for i, demo in enumerate(self.demonstrations, start=1):
            parts.append(
                f"Log[{i}]: {demo.log}\n"
                f"<Inner Monologue>{demo.reasoning}</Inner Monologue>\n"
                f"LogTemplate[{i}]: `{demo.template}`"
            )
        parts.append(f"Log[{self.query_index}]: {self.queried_log}")
        return "\n\n".join(parts)


def load_demonstrations(path: Optional[str] = None) -> tuple[Demonstration, ...]:
    """Demo bundle: a data file next to the package, overridable by path.
    The file must be a non-empty JSON list of objects whose fields are the
    three strings of a `Demonstration`."""
    ref = importlib.resources.files("logsift.data") / "demonstrations.json" \
        if path is None else Path(path)
    with ref.open(encoding="utf-8") as fh:
        try:
            entries = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"cannot parse demonstrations file {ref}: {exc}") from exc
    fields = set(Demonstration.__dataclass_fields__)
    if not (isinstance(entries, list) and entries and all(
            isinstance(e, dict) and set(e) == fields
            and all(isinstance(v, str) for v in e.values()) for e in entries)):
        raise ConfigError(f"demonstrations file {ref} is not a non-empty list of "
                          f"objects with string fields {', '.join(sorted(fields))}")
    return tuple(Demonstration(**e) for e in entries)


def build_prompt(log: str, demos: tuple[Demonstration, ...]) -> Prompt:
    """The prompt that asks for the template of the log content `log`."""
    if not demos:
        raise ValueError("at least one demonstration is required")
    return Prompt(
        system_instructions=TASK_INSTRUCTIONS,
        parameter_examples=PARAMETER_EXAMPLES,
        output_constraints=OUTPUT_CONSTRAINTS,
        demonstrations=demos,
        queried_log=log,
        query_index=len(demos) + 1,
    )


_SEGMENT_RE = re.compile(r"LogTemplate\[(\d+)\][^`]*`([^`]+)`")
_BRACE_RE = re.compile(r"\{[^{}]*\}")
_ADJACENT_RE = re.compile(r"(?:<\*>){2,}")


def normalize_template(text: str) -> str:
    """Replace brace parameters with <*> and collapse adjacent placeholders."""
    while _BRACE_RE.search(text):
        text = _BRACE_RE.sub(PLACEHOLDER, text)
    text = text.replace("{", "").replace("}", "")
    while _ADJACENT_RE.search(text):
        text = _ADJACENT_RE.sub(PLACEHOLDER, text)
    return text.strip()


def extract_template(response: str, query_index: int = 1) -> str:
    """Pull the template out of a completion response.

    Prefers the LogTemplate segment whose index matches the queried log;
    otherwise takes the first. Raises MalformedResponseError when no marked
    backticked segment exists.
    """
    segments = _SEGMENT_RE.findall(response)
    if not segments:
        raise MalformedResponseError("no backticked LogTemplate segment in response")
    chosen = segments[0][1]
    for idx, body in segments:
        if int(idx) == query_index:
            chosen = body
            break
    template = normalize_template(chosen)
    if not template:
        raise MalformedResponseError("extracted template is empty")
    return template


class CompletionClient:
    """Interface: prompt text in, completion text out (temperature 0)."""

    def complete(self, system: str, user: str) -> str:
        raise NotImplementedError


_NUMERIC_RE = re.compile(r"^[0-9]+(\.[0-9]+)?$")
_HEXISH_RE = re.compile(r"^(0x)?[0-9a-fA-F]{6,}$")
_HAS_DIGIT_RE = re.compile(r"[0-9]")


class MockCompletionClient(CompletionClient):
    """Deterministic rule-based masker used for offline tests and demos.

    Masks whitespace tokens that are numbers, long hex strings, paths, or
    contain digits; everything else is treated as fixed text.
    """

    def __init__(self):
        self.query_count = 0

    @staticmethod
    def _mask(token: str) -> str:
        if _NUMERIC_RE.match(token):
            return "{num}"
        if _HEXISH_RE.match(token):
            return "{hex}"
        if token.startswith("/") and len(token) > 1:
            return "{path}"
        if _HAS_DIGIT_RE.search(token):
            return "{id}"
        return token

    def complete(self, system: str, user: str) -> str:
        self.query_count += 1
        queries = re.findall(r"Log\[(\d+)\]: (.*)", user)
        idx, log = queries[-1] if queries else ("1", user)
        masked = " ".join(self._mask(tok) for tok in log.split())
        return (
            "<Inner Monologue>Masked numeric, hex, and path tokens as "
            f"dynamic parameters.</Inner Monologue>\nLogTemplate[{idx}]: `{masked}`"
        )


class RemoteCompletionClient(RemoteClient, CompletionClient):
    """HTTP JSON completion client; key from an environment variable."""

    TIMEOUT_S = 60.0
    KEY_ENV = "COMPLETION_API_KEY"

    def __init__(self, url: str, model: str, api_key_env: str = KEY_ENV):
        super().__init__(url, model, api_key_env)
        self.query_count = 0

    def complete(self, system: str, user: str) -> str:
        self.query_count += 1
        return self._post({
            "model": self.model,
            "temperature": 0,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }, "content")


class TemplateStore:
    """A benchmark shim: `save` writes the templates view
    (`CentroidIndex.save_templates`) of the index `Pipeline` hands it."""

    index: Optional[CentroidIndex] = None

    def save(self, path: str) -> None:
        self.index.save_templates(path)


@dataclass
class ClusterParser:
    """Queues a completion query per cluster and applies the result.
    Identical texts share one template id without their centroids being
    merged; a FAILED cluster's raw-log fallback is no template, with none."""

    client: CompletionClient
    demos: tuple[Demonstration, ...] = field(default_factory=load_demonstrations)
    store: TemplateStore = field(default_factory=TemplateStore)
    _ids: dict[str, int] = field(default_factory=dict, init=False, repr=False)
    _next_id: int = field(default=0, init=False, repr=False)

    def seed(self, index: CentroidIndex) -> None:
        """Take the template ids of `index`'s parsed clusters, so their
        texts keep them, and number new texts above all of them."""
        for c in index.centroids():
            if c.parse_state is ParseState.PARSED:
                self._ids.setdefault(c.template, c.template_id)
                self._next_id = max(self._next_id, c.template_id + 1)

    def parse_cluster(self, index: CentroidIndex, cluster_id: int) -> str:
        """Parse the representative log of an unparsed or failed cluster.

        On a malformed response the query is retried once. After a second
        malformed response, or a call that fails after the retries of
        `post_json`, the representative becomes the template and the
        cluster is marked Failed so the next rebalance can queue a re-parse.
        """
        centroid = index.get(cluster_id)
        if centroid.parse_state == ParseState.PARSED:
            raise ValueError(f"cluster {cluster_id} is already parsed")
        if centroid.representative is None:  # inserted without one
            raise ValueError(f"cluster {cluster_id} has no representative log")
        prompt = build_prompt(centroid.representative, self.demos)
        template = None
        for _ in range(2):
            try:
                response = self.client.complete(prompt.system_instructions,
                                                prompt.render())
            except ProviderError:
                break
            try:
                template = extract_template(response, prompt.query_index)
                break
            except MalformedResponseError:
                continue
        if template is None:
            centroid.parse_state, centroid.template_id, centroid.template = \
                ParseState.FAILED, None, None
            return centroid.representative
        if template not in self._ids:
            self._ids[template] = self._next_id
            self._next_id += 1
        centroid.parse_state, centroid.template_id, centroid.template = \
            ParseState.PARSED, self._ids[template], template
        return template
