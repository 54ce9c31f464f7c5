"""Template extraction for a cluster's representative log.

Builds a five-part prompt (task instructions, parameter examples, output
constraints, chain-of-thought demonstrations, queried log), sends it to a
completion client at temperature 0, and post-processes the response: the
backticked string behind a "LogTemplate" marker is taken, every brace-
delimited parameter is replaced by the placeholder ``<*>`` and adjacent
placeholders are collapsed.
"""

from __future__ import annotations

import importlib.resources
import json
import os
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import MalformedResponseError, ProviderError
from .index import CentroidIndex, ParseState
from .records import LogRecord

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
    """Demo bundle: a data file next to the package, overridable by path."""
    if path is not None:
        with open(path) as fh:
            entries = json.load(fh)
    else:
        ref = importlib.resources.files("logsift.data") / "demonstrations.json"
        entries = json.loads(ref.read_text())
    demos = tuple(Demonstration(**e) for e in entries)
    if not demos:
        raise ValueError("demonstration set is empty")
    return demos


def build_prompt(record: LogRecord,
                 demos: tuple[Demonstration, ...]) -> Prompt:
    if not demos:
        raise ValueError("at least one demonstration is required")
    return Prompt(
        system_instructions=TASK_INSTRUCTIONS,
        parameter_examples=PARAMETER_EXAMPLES,
        output_constraints=OUTPUT_CONSTRAINTS,
        demonstrations=demos,
        queried_log=record.content,
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


class RemoteCompletionClient(CompletionClient):
    """HTTP JSON completion client; key from an environment variable."""

    def __init__(self, url: str, model: str,
                 api_key_env: str = "COMPLETION_API_KEY",
                 timeout: float = 60.0):
        from .errors import ConfigError

        if api_key_env not in os.environ:
            raise ConfigError(f"credentials env var {api_key_env!r} not set")
        self.url = url
        self.model = model
        self._key = os.environ[api_key_env]
        self.timeout = timeout
        self.query_count = 0

    def complete(self, system: str, user: str) -> str:
        import requests

        self.query_count += 1
        try:
            resp = requests.post(
                self.url,
                json={
                    "model": self.model,
                    "temperature": 0,
                    "messages": [
                        {"role": "system", "content": system},
                        {"role": "user", "content": user},
                    ],
                },
                headers={"Authorization": f"Bearer {self._key}"},
                timeout=self.timeout,
            )
            resp.raise_for_status()
            return resp.json()["content"]
        except Exception as exc:
            raise ProviderError(f"completion request failed: {exc}") from exc


class TemplateStore:
    """Reporting-level map: template text -> template_id, cluster -> entry.

    Clusters whose extracted templates are textually identical share one
    template_id without their centroids being merged.
    """

    def __init__(self):
        self._by_text: dict[str, int] = {}
        self._entries: dict[int, dict] = {}

    def template_id_for(self, text: str) -> int:
        if text not in self._by_text:
            self._by_text[text] = len(self._by_text)
        return self._by_text[text]

    def record(self, cluster_id: int, template: str, parse_state: ParseState,
               source_log: str) -> int:
        tid = self.template_id_for(template)
        self._entries[cluster_id] = {
            "template": template,
            "template_id": tid,
            "parse_state": parse_state.value,
            "source_log": source_log,
        }
        return tid

    def template_for(self, cluster_id: int) -> Optional[str]:
        entry = self._entries.get(cluster_id)
        return entry["template"] if entry else None

    def merge(self, absorbed_ids: tuple[int, int], winner_id: int,
              surviving_id: int) -> None:
        """Re-key the entries of two merged clusters. A merge of two parsed
        clusters is parsed with the winner's template, so the winner's entry
        moves to the survivor; any other survivor is parsed afresh."""
        entries = {cid: self._entries.pop(cid, None) for cid in absorbed_ids}
        if all(e is not None and e["parse_state"] == ParseState.PARSED.value
               for e in entries.values()):
            self._entries[surviving_id] = entries[winner_id]

    def save(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self._entries, fh, indent=2)
        os.replace(tmp, path)


@dataclass
class ClusterParser:
    """Queues a completion query per cluster and applies the result."""

    client: CompletionClient
    demos: tuple[Demonstration, ...] = field(default_factory=load_demonstrations)
    store: TemplateStore = field(default_factory=TemplateStore)

    def parse_cluster(self, index: CentroidIndex, cluster_id: int,
                      representative: LogRecord) -> str:
        """Parse the representative (first) log of an unparsed cluster.

        On a malformed response the query is retried once; after a second
        failure the raw log content becomes the template and the cluster is
        marked Failed so the next rebalance can queue a re-parse.
        """
        centroid = index.get(cluster_id)
        if centroid.parse_state == ParseState.PARSED:
            raise ValueError(f"cluster {cluster_id} is already parsed")
        prompt = build_prompt(representative, self.demos)
        template = None
        for _ in range(2):
            response = self.client.complete(prompt.system_instructions,
                                            prompt.render())
            try:
                template = extract_template(response, prompt.query_index)
                break
            except MalformedResponseError:
                continue
        if template is None:
            centroid.parse_state = ParseState.FAILED
            template = representative.content
        else:
            centroid.parse_state = ParseState.PARSED
        centroid.template_id = self.store.record(
            cluster_id, template, centroid.parse_state, representative.content
        )
        return template
