import json

import numpy as np
import pytest

from logsift import (
    CentroidIndex,
    ClusterParser,
    EncoderWeights,
    HashingProvider,
    MockCompletionClient,
    ParseState,
    Pipeline,
    build_prompt,
    extract_template,
    load_demonstrations,
)
from logsift.errors import MalformedResponseError, ProviderError
from logsift.parsing import normalize_template


DEMOS = load_demonstrations()


class TestBuildPrompt:
    def test_deterministic(self):
        log = "session opened for user root"
        assert build_prompt(log, DEMOS).render() == build_prompt(log, DEMOS).render()

    def test_contains_output_format_instructions(self):
        text = build_prompt("a b", DEMOS).render()
        assert "LogTemplate[idx]" in text
        assert "backticks" in text

    def test_queried_log_appears_once_with_prefix(self):
        content = "session opened for user root"
        prompt = build_prompt(content, DEMOS)
        text = prompt.render()
        assert text.count(f"Log[{prompt.query_index}]: {content}") == 1

    def test_five_parts_in_order(self):
        prompt = build_prompt("x y", DEMOS)
        text = prompt.render()
        positions = [
            text.index(prompt.system_instructions),
            text.index(prompt.parameter_examples),
            text.index(prompt.output_constraints),
            text.index(DEMOS[0].log),
            text.index(f"Log[{prompt.query_index}]: x y"),
        ]
        assert positions == sorted(positions)

    def test_demonstrations_wrapped_in_monologue_tags(self):
        text = build_prompt("x y", DEMOS).render()
        for demo in DEMOS:
            assert f"<Inner Monologue>{demo.reasoning}</Inner Monologue>" in text

    def test_requires_demos(self):
        with pytest.raises(ValueError):
            build_prompt("x", ())


# canned completion responses: (response, expected template or None=malformed)
CANNED_RESPONSES = [
    # plain valid responses
    ("LogTemplate[1]: `start processing {count} alerts for org {org_id}`",
     "start processing <*> alerts for org <*>"),
    ("LogTemplate[1]: `session opened for user {user}`",
     "session opened for user <*>"),
    ("Sure! LogTemplate[1]: `Took {duration} seconds`", "Took <*> seconds"),
    ("<Inner Monologue>thinking...</Inner Monologue>\nLogTemplate[1]: `a {x} b`",
     "a <*> b"),
    ("LogTemplate[1]:`no space before backtick {v}`",
     "no space before backtick <*>"),
    # adjacent placeholder merging
    ("LogTemplate[1]: `<*><*> done`", "<*> done"),
    ("LogTemplate[1]: `{a}{b} done`", "<*> done"),
    ("LogTemplate[1]: `x {a}{b}{c} y`", "x <*> y"),
    ("LogTemplate[1]: `<*><*><*>`", "<*>"),
    # brace-heavy cases
    ("LogTemplate[1]: `cfg={key: {nested}} loaded`", "cfg=<*> loaded"),
    ("LogTemplate[1]: `{only}`", "<*>"),
    ("LogTemplate[1]: `stray } brace { kept out`", "stray  brace  kept out"),
    ("LogTemplate[1]: `mix {a} and <*> markers`", "mix <*> and <*> markers"),
    # multiple template segments: index match wins
    ("LogTemplate[2]: `wrong {x}`\nLogTemplate[1]: `right {y}`", "right <*>"),
    ("LogTemplate[3]: `first {x}`\nLogTemplate[4]: `second {y}`", "first <*>"),
    # already-normalized template is a fixed point
    ("LogTemplate[1]: `start processing <*> alerts for org <*>`",
     "start processing <*> alerts for org <*>"),
    # square brackets untouched
    ("LogTemplate[1]: `queue [high] has {n} items`", "queue [high] has <*> items"),
    # malformed responses
    ("no template here at all", None),
    ("LogTemplate[1]: missing backticks {x}", None),
    ("`backticked but no marker {x}`", None),
    ("LogTemplate[1]: ``", None),
    ("LogTemplate[1]: `{}`", "<*>"),  # empty braces are still a parameter
    ("LogTemplate[1]: `   `", None),
]


class TestExtractTemplate:
    @pytest.mark.parametrize("response,expected", CANNED_RESPONSES)
    def test_canned_corpus(self, response, expected):
        if expected is None:
            with pytest.raises(MalformedResponseError):
                extract_template(response, query_index=1)
        else:
            template = extract_template(response, query_index=1)
            assert template == expected
            assert "{" not in template and "}" not in template
            assert "<*><*>" not in template

    def test_idempotent_on_normalized_output(self):
        for response, expected in CANNED_RESPONSES:
            if expected is None:
                continue
            again = extract_template(f"LogTemplate[1]: `{expected}`")
            assert again == expected

    def test_normalize_collapses_repeatedly(self):
        assert normalize_template("{a}<*>{b}") == "<*>"


class TestParseCluster:
    def _setup(self, client, log="session opened for user root"):
        index = CentroidIndex()
        cid = index.insert(np.array([1.0, 0.0]), representative=log)
        parser = ClusterParser(client=client, demos=DEMOS)
        return index, cid, parser

    def test_happy_path(self):
        class CannedClient:
            def complete(self, system, user):
                return "LogTemplate[5]: `session opened for user {user}`"

        index, cid, parser = self._setup(CannedClient())
        template = parser.parse_cluster(index, cid)
        assert template == "session opened for user <*>"
        c = index.get(cid)
        assert (c.parse_state, c.template_id, c.template) == (ParseState.PARSED, 0, template)
        assert c.row_template() == template

    def test_garbage_twice_falls_back_to_raw_log(self):
        class GarbageClient:
            calls = 0

            def complete(self, system, user):
                self.calls += 1
                return "cannot help with that"

        client = GarbageClient()
        index, cid, parser = self._setup(client)
        template = parser.parse_cluster(index, cid)
        assert client.calls == 2  # one retry
        assert template == "session opened for user root"
        assert index.get(cid).parse_state == ParseState.FAILED

    def test_failed_call_falls_back_to_raw_log(self):
        class DownClient:
            calls = 0

            def complete(self, system, user):
                self.calls += 1
                raise ProviderError("POST http://llm failed 3 times, last: HTTP 503")

        client = DownClient()
        index, cid, parser = self._setup(client)
        template = parser.parse_cluster(index, cid)
        assert client.calls == 1  # the helper has retried already
        assert template == "session opened for user root"
        c = index.get(cid)
        assert (c.parse_state, c.template_id, c.template) == (ParseState.FAILED, None, None)
        assert c.row_template() == template

    def test_mock_client_end_to_end(self):
        index, cid, parser = self._setup(
            MockCompletionClient(), "start processing 2 alerts for org org_bff943b3ca")
        template = parser.parse_cluster(index, cid)
        assert template == "start processing <*> alerts for org <*>"

    def test_identical_templates_share_template_id(self):
        index = CentroidIndex()
        a = index.insert(np.array([1.0, 0.0]), representative="took 5 seconds")
        b = index.insert(np.array([0.0, 1.0]), representative="took 9 seconds")
        parser = ClusterParser(client=MockCompletionClient(), demos=DEMOS)
        parser.parse_cluster(index, a)
        parser.parse_cluster(index, b)
        # same template text -> same reporting-level id, centroids unmerged
        assert index.get(a).template_id == index.get(b).template_id
        assert len(index) == 2

    def test_already_parsed_rejected(self):
        index, cid, parser = self._setup(MockCompletionClient(), "plain fixed text")
        parser.parse_cluster(index, cid)
        with pytest.raises(ValueError, match="already parsed"):
            parser.parse_cluster(index, cid)

    def test_a_cluster_without_a_representative_is_rejected(self):
        index, _, parser = self._setup(MockCompletionClient())
        bare = index.insert(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="no representative"):
            parser.parse_cluster(index, bare)

    def test_a_seeded_text_keeps_its_id_and_new_ids_start_above(self):
        index = CentroidIndex()
        index.insert(np.array([1.0, 0.0]), template_id=4, parse_state=ParseState.PARSED,
                     representative="took 5 seconds", template="took <*> seconds")
        index.insert(np.array([0.0, 1.0]), template_id=2, parse_state=ParseState.PARSED,
                     representative="disk full", template="disk full")
        parser = ClusterParser(client=MockCompletionClient(), demos=DEMOS)
        parser.seed(index)
        again = index.insert(np.array([0.6, 0.8]), representative="took 9 seconds")
        new = index.insert(np.array([0.8, 0.6]), representative="fan failed")
        parser.parse_cluster(index, new)
        parser.parse_cluster(index, again)
        assert [index.get(cid).template_id for cid in (again, new)] == [4, 5]


def test_template_store_save(tmp_path):
    # one entry per parsed or failed cluster, in id order; none for an
    # unparsed one
    index = CentroidIndex()
    ids = [index.insert(np.array([1.0, 0.0]), representative=log)
           for log in ("a 1", "b 2", "c 3", "a 4")]
    parser = ClusterParser(client=MockCompletionClient(), demos=DEMOS)
    for cid in (ids[3], ids[0]):
        parser.parse_cluster(index, cid)
    index.get(ids[1]).parse_state = ParseState.FAILED
    path = tmp_path / "templates.json"
    index.save_templates(str(path))
    assert list(json.loads(path.read_text())) == ["0", "1", "3"]  # not parse order
    assert json.loads(path.read_text()) == {
        "0": {"template": "a <*>", "template_id": 0, "parse_state": "parsed",
              "source_log": "a 1"},
        "1": {"template": "b 2", "template_id": None, "parse_state": "failed",
              "source_log": "b 2"},
        "3": {"template": "a <*>", "template_id": 0, "parse_state": "parsed",
              "source_log": "a 4"},
    }
    # the benchmark's shim: a pipeline hands its parser's store the index,
    # and the store saves through the index's writer
    Pipeline(HashingProvider(2), EncoderWeights.identity_init(2), index, parser)
    parser.store.save(str(tmp_path / "shim.json"))
    assert (tmp_path / "shim.json").read_bytes() == path.read_bytes()
