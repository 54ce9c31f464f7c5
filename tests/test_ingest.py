import json
from collections import Counter

import numpy as np
import pytest

from logsift import (
    CentroidIndex,
    ClusterParser,
    HashingProvider,
    IngestConfig,
    LogRecord,
    MockCompletionClient,
    ParseState,
    Pipeline,
    extract_template,
    grouping_accuracy,
)
from logsift import ingest as ingest_module
from logsift.embedding import EmbeddingProvider
from logsift.errors import (
    ConfigError,
    DegenerateEmbeddingError,
    DimensionMismatchError,
    ProviderError,
)
from logsift.index import SearchHit
from logsift.ingest import ClusterAssignment, final_rows
from logsift.rebalance import MergeEvent, MergeReport
from logsift.synthetic import generate_corpus


def make_pipeline(provider, weights, batch_mode=False, rebalance_every=1000):
    index = CentroidIndex()
    parser = ClusterParser(client=MockCompletionClient())
    config = IngestConfig(batch_mode=batch_mode, rebalance_every_n=rebalance_every)
    return Pipeline(provider, weights, index, parser, config)


def final_partition(pipeline, assignments, report):
    """Map each assignment's cluster id through the rebalance merges."""
    remap = {}
    for event in report.merges:
        for absorbed in event.absorbed_ids:
            remap[absorbed] = event.surviving_id

    def resolve(cid):
        while cid in remap:
            cid = remap[cid]
        return cid

    return [resolve(a.cluster_id) for a in assignments]


class TestRecords:
    @pytest.mark.parametrize("assignment, text", [
        (ClusterAssignment(0, 3, True, 1.0),
         '{"log_index": 0, "cluster_id": 3, "created_new": true, '
         '"similarity": 1.0, "template": null}'),
        (ClusterAssignment(log_index=7, cluster_id=2, created_new=False,
                           similarity=0.9371234567890123, template="user <*> logged in"),
         '{"log_index": 7, "cluster_id": 2, "created_new": false, '
         '"similarity": 0.9371234567890123, "template": "user <*> logged in"}'),
    ])
    def test_an_assignment_writes_the_json_of_its_fields_in_order(self, assignment, text):
        assert assignment.to_json() == text

    @pytest.mark.parametrize("record, field", [
        (ClusterAssignment(0, 3, True, 1.0), "cluster_id"),
        (SearchHit(3, 0.95), "similarity"),
    ])
    def test_records_are_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)


def test_final_rows_follow_every_merge():
    first = MergeReport(3, 2, [MergeEvent((0, 1), 3, 0.95, kept_from=0)])
    second = MergeReport(2, 1, [MergeEvent((2, 3), 4, 0.93, kept_from=None)])
    assignments = [ClusterAssignment(0, 0, True, 1.0), ClusterAssignment(1, 1, True, 1.0),
                   ClusterAssignment(2, 2, True, 1.0),
                   ClusterAssignment(3, 0, False, 0.97, template="stale"),
                   ClusterAssignment(4, 5, True, 1.0)]
    rows = final_rows(assignments, [None, first, None, second], {4: "a <*>", 5: None}.get)
    assert rows == [a._replace(cluster_id=cid, template=template) for a, (cid, template)
                    in zip(assignments, [(4, "a <*>")] * 4 + [(5, None)])]


def test_encoder_width_is_checked_at_construction(identity_weights):
    # the map takes the provider's D floats and the word count: D + 1
    for dim in (8, 16, identity_weights.input_dim):
        with pytest.raises(DimensionMismatchError, match=f"provider dim {dim}"):
            make_pipeline(HashingProvider(dim), identity_weights)
    make_pipeline(HashingProvider(identity_weights.input_dim - 1), identity_weights)


class TestSequentialIngest:
    def test_first_log_creates_cluster(self, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights)
        a = pipe.ingest(LogRecord("s", "alpha beta gamma"))
        assert a.created_new
        assert pipe.index.get(a.cluster_id).weight == 1

    def test_identical_log_joins(self, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights)
        first = pipe.ingest(LogRecord("s", "alpha beta gamma"))
        second = pipe.ingest(LogRecord("s", "alpha beta gamma"))
        assert not second.created_new
        assert second.cluster_id == first.cluster_id
        assert second.similarity == pytest.approx(1.0, abs=1e-6)
        assert pipe.index.get(first.cluster_id).weight == 2

    def test_fixture_corpus_cluster_count(self, corpus, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights)
        for record in corpus.records:
            pipe.ingest(record)
        assert len(pipe.index) == 10
        assert pipe.index.total_weight() == len(corpus)

    def test_new_cluster_parsed_at_creation(self, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights)
        a = pipe.ingest(LogRecord("s", "alpha beta gamma"))
        assert a.template == "alpha beta gamma"
        assert pipe.parser.client.query_count == 1

    def test_deterministic_assignment_sequence(self, corpus, provider,
                                                identity_weights):
        def run():
            pipe = make_pipeline(provider, identity_weights)
            return [(a.cluster_id, a.created_new, a.similarity)
                    for a in map(pipe.ingest, corpus.records[:200])]

        assert run() == run()

    def test_threshold_semantics(self, corpus, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights)
        for record in corpus.records[:300]:
            a = pipe.ingest(record)
            if not a.created_new:
                assert a.similarity >= pipe.config.similarity_threshold


class TestBatchIngest:
    def test_requires_batch_mode(self, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights)
        with pytest.raises(ConfigError):
            pipe.ingest_batch([LogRecord("s", "a b")])

    def test_empty_batch(self, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights, batch_mode=True)
        assignments, errors = pipe.ingest_batch([])
        assert assignments == []
        assert errors == []

    def test_duplicate_pattern_resolved_by_rebalance(self, provider,
                                                     identity_weights):
        record = LogRecord("s", "alpha beta gamma delta")
        for seed in range(10):
            pipe = make_pipeline(provider, identity_weights, batch_mode=True)
            rng = np.random.default_rng(seed)
            k = 6
            assignments, _ = pipe.ingest_batch([record] * k, rng=rng)
            created = sum(a.created_new for a in assignments)
            assert 1 <= created <= k
            assert len(pipe.index) == created
            pipe.force_rebalance()
            assert len(pipe.index) == 1
            assert next(pipe.index.centroids()).weight == k

    def test_partition_matches_sequential(self, corpus, provider,
                                          identity_weights):
        seq = make_pipeline(provider, identity_weights)
        seq_assignments = [seq.ingest(r) for r in corpus.records]
        seq_partition = [a.cluster_id for a in seq_assignments]

        pipe = make_pipeline(provider, identity_weights, batch_mode=True)
        rng = np.random.default_rng(3)
        assignments, errors = pipe.ingest_batch(list(corpus.records), rng=rng)
        assert errors == []
        report = pipe.force_rebalance()
        batch_partition = final_partition(pipe, assignments, report)
        assert len(pipe.index) == len(seq.index) == 10
        assert grouping_accuracy(batch_partition, seq_partition) == 1.0

    def test_weight_conservation(self, corpus, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights, batch_mode=True)
        rng = np.random.default_rng(5)
        pipe.ingest_batch(list(corpus.records[:400]), rng=rng)
        assert pipe.index.total_weight() == 400
        pipe.force_rebalance()
        assert pipe.index.total_weight() == 400

    def test_representatives_follow_merges(self, corpus, provider,
                                           identity_weights):
        pipe = make_pipeline(provider, identity_weights, batch_mode=True)
        records = list(corpus.records[:200])
        assignments, _ = pipe.ingest_batch(records)
        report = pipe.force_rebalance()
        assert report.merges
        logs = {}  # final cluster id -> contents of its rows
        for record, row in zip(records, final_rows(assignments, [report],
                                                   pipe.parser.store.template_for)):
            logs.setdefault(row.cluster_id, set()).add(record.content)
        assert all(c.representative in logs[c.cluster_id] for c in pipe.index.centroids())

    def test_clusters_loaded_from_a_snapshot_have_no_template(self, provider,
                                                              identity_weights, tmp_path):
        # a snapshot keeps no representative log and no template text: a
        # loaded cluster is never parsed and has no template or entry
        disk, fan, link = (LogRecord("s", text) for text in (
            "disk full on volume 7", "fan failed on rack 9", "network link down on port 3"))
        pipe = make_pipeline(provider, identity_weights, batch_mode=True)
        pipe.ingest_batch([disk])
        pipe.force_rebalance()
        pipe.ingest_batch([fan])
        path = str(tmp_path / "index.npz")
        pipe.index.snapshot(path)
        pipe = Pipeline(provider, identity_weights, CentroidIndex.load(path),
                        ClusterParser(client=MockCompletionClient()),
                        IngestConfig(batch_mode=True))
        assignments, _ = pipe.ingest_batch([disk, link])
        assert [(a.cluster_id, a.created_new, a.template) for a in assignments] == [
            (0, False, None), (2, True, None)]
        pipe.force_rebalance()
        # the new template's id is above every loaded cluster's
        assert [(c.parse_state, c.template_id, pipe.parser.store.template_for(c.cluster_id))
                for c in pipe.index.centroids()] == [
            (ParseState.PARSED, 0, None), (ParseState.UNPARSED, None, None),
            (ParseState.PARSED, 1, "network link down on port <*>")]
        assert pipe.parser.client.query_count == 1
        pipe.parser.store.save(str(tmp_path / "templates.json"))
        assert list(json.loads((tmp_path / "templates.json").read_text())) == ["2"]

    def test_parsing_deferred_until_rebalance(self, corpus, provider,
                                              identity_weights):
        pipe = make_pipeline(provider, identity_weights, batch_mode=True)
        pipe.ingest_batch(list(corpus.records[:100]))
        assert pipe.parser.client.query_count == 0
        pipe.force_rebalance()
        assert pipe.parser.client.query_count == len(pipe.index)


class TestRebalanceCadence:
    def test_not_triggered_below_cadence(self, corpus, provider,
                                         identity_weights):
        pipe = make_pipeline(provider, identity_weights, rebalance_every=1000)
        for record in corpus.records[:999]:
            pipe.ingest(record)
        assert pipe.maybe_rebalance() is None

    def test_triggered_at_cadence(self, corpus, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights, rebalance_every=1000)
        for record in corpus.records[:999]:
            pipe.ingest(record)
            assert pipe.maybe_rebalance() is None
        pipe.ingest(corpus.records[999])
        report = pipe.maybe_rebalance()
        assert report is not None

    def test_noop_report(self, corpus, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights, rebalance_every=10)
        for record in corpus.records[:10]:
            pipe.ingest(record)
        report = pipe.maybe_rebalance()
        assert report.merges == []


class TestMergedTemplates:
    @staticmethod
    def merge_two_parsed(provider, weights, tmp_path, first_joins):
        """Parse two clusters, drift the second onto the first with 20 joins,
        give the first `first_joins` joins, and merge them. Checks that the
        next hit and the saved templates carry the template of the event's
        kept_from; returns the assignment kept_from names and the first one."""
        pipe = make_pipeline(provider, weights)
        first = pipe.ingest(LogRecord("s", "disk full on volume 7"))
        second = pipe.ingest(LogRecord("s", "network link down on port 3"))
        target = pipe.index.get(first.cluster_id).vector
        for _ in range(20):
            pipe.index.update_moving_average(second.cluster_id, target)
        for _ in range(first_joins):
            pipe.index.update_moving_average(first.cluster_id, target)
        [event] = pipe.force_rebalance().merges
        assert pipe.index.get(event.surviving_id).parse_state == ParseState.PARSED
        kept = {first.cluster_id: first, second.cluster_id: second}[event.kept_from]
        again = pipe.ingest(LogRecord("s", "disk full on volume 7"))
        assert again.cluster_id == event.surviving_id
        assert again.template == kept.template
        path = tmp_path / "templates.json"
        pipe.parser.store.save(str(path))
        entries = json.loads(path.read_text())
        assert list(entries) == [str(event.surviving_id)]
        assert entries[str(event.surviving_id)]["template"] == kept.template
        return kept, first

    def test_merge_of_parsed_clusters_keeps_the_winner_template(
            self, provider, identity_weights, tmp_path):
        # the second cluster is heavier
        kept, first = self.merge_two_parsed(provider, identity_weights,
                                            tmp_path, first_joins=0)
        assert kept.cluster_id != first.cluster_id

    def test_merge_of_equal_weights_keeps_the_older_template(
            self, provider, identity_weights, tmp_path):
        kept, first = self.merge_two_parsed(provider, identity_weights,
                                            tmp_path, first_joins=20)
        assert kept is first

    def test_a_kept_template_keeps_its_representative(self, provider,
                                                      identity_weights, tmp_path):
        # a survivor that kept the template of its second constituent, merged
        # again with an unparsed cluster, is parsed again from the log that
        # template came from, not from its first constituent's log
        pipe = make_pipeline(provider, identity_weights, batch_mode=True)
        disk, link, fan = (LogRecord("s", text) for text in (
            "disk full on volume 7", "network link down on port 3", "fan failed on rack 9"))
        (first, second), _ = pipe.ingest_batch([disk, link])
        pipe.force_rebalance()
        target = pipe.index.get(first.cluster_id).vector
        for _ in range(20):
            pipe.index.update_moving_average(second.cluster_id, target)
        [event] = pipe.force_rebalance().merges
        assert event.absorbed_ids == (first.cluster_id, second.cluster_id)
        assert event.kept_from == second.cluster_id
        survivor = pipe.index.get(event.surviving_id)
        assert survivor.representative == link.content
        [third], _ = pipe.ingest_batch([fan])
        for _ in range(40):
            pipe.index.update_moving_average(third.cluster_id, survivor.vector)
        [event] = pipe.force_rebalance().merges
        assert event.absorbed_ids == (survivor.cluster_id, third.cluster_id)
        assert event.kept_from is None
        path = tmp_path / "templates.json"
        pipe.parser.store.save(str(path))
        assert json.loads(path.read_text()) == {str(event.surviving_id): {
            "template": "network link down on port <*>", "template_id": 1,
            "parse_state": "parsed", "source_log": link.content}}


class TestDeadLetters:
    def test_embedding_failure_routed_to_dead_letters(self, identity_weights,
                                                      provider):
        from logsift.embedding import EmbeddingProvider
        from logsift.errors import ProviderError

        class FailingProvider(EmbeddingProvider):
            dim = provider.dim

            def embed(self, text):
                raise ProviderError("down")

        pipe = make_pipeline(FailingProvider(), identity_weights)
        with pytest.raises(ProviderError):
            pipe.ingest(LogRecord("s", "a b"))
        assert len(pipe.dead_letters) == 1

    def test_batch_isolates_per_record_errors(self, provider, identity_weights):
        from logsift.embedding import EmbeddingProvider
        from logsift.errors import ProviderError

        class FlakyProvider(EmbeddingProvider):
            dim = provider.dim

            def embed(self, text):
                if "bad" in text:
                    raise ProviderError("down")
                return provider.embed(text)

        pipe = make_pipeline(FlakyProvider(), identity_weights, batch_mode=True)
        records = [LogRecord("s", "alpha beta"), LogRecord("s", "bad log"),
                   LogRecord("s", "alpha beta")]
        assignments, errors = pipe.ingest_batch(records)
        assert len(assignments) == 2
        assert len(errors) == 1
        assert pipe.index.total_weight() == 2


    def test_an_embedding_too_large_to_scale_is_a_dead_letter(self, provider,
                                                              identity_weights):
        class Scaled(EmbeddingProvider):  # one line's finite vector times 1e308
            dim = provider.dim

            def embed(self, text):
                return provider.embed(text) * (1e308 if "huge" in text else 1.0)

        records = [LogRecord("s", "alpha beta"), LogRecord("s", "huge log"),
                   LogRecord("s", "alpha beta")]
        pipe = make_pipeline(Scaled(), identity_weights, batch_mode=True)
        assignments, errors = pipe.ingest_batch(records)
        assert len(assignments) == 2 and pipe.index.total_weight() == 2
        assert [(r.content, type(e)) for r, e in errors] == \
            [("huge log", DegenerateEmbeddingError)]
        pipe = make_pipeline(Scaled(), identity_weights)
        with pytest.raises(DegenerateEmbeddingError):
            pipe.ingest(records[1])
        assert len(pipe.dead_letters) == 1 and len(pipe.index) == 0


class FailsFirstCompletion(MockCompletionClient):
    """A completion client whose first call has spent its retries."""

    def complete(self, system, user):
        self.query_count += 1
        if self.query_count == 1:
            raise ProviderError("POST http://llm failed 3 times, last: HTTP 503")
        return super().complete(system, user)


class TestCompletionFailure:
    """A completion call that fails after its retries leaves its cluster
    FAILED, templated by its raw log, and the next rebalance parses it."""

    def test_sequential(self, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights)
        pipe.parser.client = FailsFirstCompletion()
        first = pipe.ingest(LogRecord("s", "disk full on volume 7"))
        assert first.template == "disk full on volume 7"
        assert pipe.index.get(first.cluster_id).parse_state == ParseState.FAILED
        second = pipe.ingest(LogRecord("s", "network link down on port 3"))
        assert second.template == "network link down on port <*>"
        pipe.force_rebalance()
        assert pipe.index.get(first.cluster_id).parse_state == ParseState.PARSED
        assert pipe.parser.store.template_for(first.cluster_id) == "disk full on volume <*>"

    def test_raw_log_fallback_takes_no_template_id(self, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights)
        pipe.parser.client = FailsFirstCompletion()
        first = pipe.ingest(LogRecord("s", "disk full on volume 7"))
        second = pipe.ingest(LogRecord("s", "network link down on port 3"))
        assert pipe.index.get(first.cluster_id).template_id is None
        pipe.force_rebalance()
        # the raw text was never a template: ids stay dense, and a later
        # template equal to it could not share its id
        assert pipe.parser.store._by_text == {"network link down on port <*>": 0,
                                              "disk full on volume <*>": 1}
        assert [pipe.index.get(a.cluster_id).template_id for a in (first, second)] == [1, 0]

    def test_batch(self, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights, batch_mode=True)
        pipe.parser.client = FailsFirstCompletion()
        assignments, _ = pipe.ingest_batch([LogRecord("s", "disk full on volume 7"),
                                            LogRecord("s", "network link down on port 3")])
        pipe.force_rebalance()
        states = [pipe.index.get(a.cluster_id).parse_state for a in assignments]
        assert states == [ParseState.FAILED, ParseState.PARSED]
        pipe.force_rebalance()
        assert [pipe.parser.store.template_for(a.cluster_id) for a in assignments] == [
            "disk full on volume <*>", "network link down on port <*>"]


class CountingProvider(EmbeddingProvider):
    """Counts the calls per text; the first `failures` calls raise."""

    def __init__(self, inner, failures=0):
        self.inner = inner
        self.dim = inner.dim
        self.failures = failures
        self.calls = Counter()

    def embed(self, text):
        self.calls[text] += 1
        if self.failures:
            self.failures -= 1
            raise ProviderError("down")
        return self.inner.embed(text)


class TestEmbeddingCache:
    def test_each_distinct_line_is_embedded_once(self, provider, identity_weights):
        counting = CountingProvider(provider)
        pipe = make_pipeline(counting, identity_weights, batch_mode=True)
        a, b, c = (LogRecord("s", text) for text in ("alpha beta", "gamma delta",
                                                     "epsilon zeta"))
        pipe.ingest(a)
        pipe.ingest_batch([a, b, b, c, b])
        pipe.ingest(c)
        assert counting.calls == {"alpha beta": 1, "gamma delta": 1, "epsilon zeta": 1}
        assert pipe.index.total_weight() == 7

    def test_least_recently_used_line_is_evicted(self, provider, identity_weights,
                                                 monkeypatch):
        monkeypatch.setattr(ingest_module, "EMBED_CACHE_ENTRIES", 2)
        counting = CountingProvider(provider)
        pipe = make_pipeline(counting, identity_weights)
        for text in ("a x", "b x", "a x", "c x", "b x", "a x"):
            pipe.ingest(LogRecord("s", text))
        # "a x" was used after "b x", so "c x" evicts "b x", which evicts "a x"
        assert counting.calls == {"a x": 2, "b x": 2, "c x": 1}

    def test_batch_leaves_the_order_of_one_record_at_a_time(self, provider,
                                                            identity_weights,
                                                            monkeypatch):
        monkeypatch.setattr(ingest_module, "EMBED_CACHE_ENTRIES", 3)
        texts = ["a x", "b x", "a x", "c x", "d x", "b x", "a x", "e x", "e x",
                 "c x", "f x", "a x", "g x", "h x", "a x"]
        records = [LogRecord("s", t) for t in texts]
        one_by_one = make_pipeline(provider, identity_weights)
        for record in records:
            one_by_one.ingest(record)
        batch = make_pipeline(provider, identity_weights, batch_mode=True)
        batch.ingest_batch(records[:4])
        batch.ingest_batch(records[4:])
        # "b x" and "a x" are evicted and seen again inside the second batch
        assert list(batch._vectors) == list(one_by_one._vectors)

    def test_batch_embeds_a_failing_line_once(self, provider, identity_weights):
        counting = CountingProvider(provider, failures=1)
        pipe = make_pipeline(counting, identity_weights, batch_mode=True)
        bad, good = LogRecord("s", "alpha beta"), LogRecord("s", "gamma delta")
        assignments, errors = pipe.ingest_batch([bad, good, bad])
        assert counting.calls == {"alpha beta": 1, "gamma delta": 1}
        assert [(r, type(e)) for r, e in errors] == [(bad, ProviderError)] * 2
        assert pipe.dead_letters == errors
        assert len(assignments) == 1

    def test_failed_embedding_is_not_cached(self, provider, identity_weights):
        counting = CountingProvider(provider, failures=1)
        pipe = make_pipeline(counting, identity_weights)
        record = LogRecord("s", "alpha beta")
        with pytest.raises(ProviderError):
            pipe.ingest(record)
        pipe.ingest(record)
        pipe.ingest(record)
        assert counting.calls["alpha beta"] == 2
        assert pipe.index.total_weight() == 2

    def test_pipelines_share_no_entries(self, provider, identity_weights):
        counting = CountingProvider(provider)
        record = LogRecord("s", "alpha beta")
        for _ in range(2):
            make_pipeline(counting, identity_weights).ingest(record)
        assert counting.calls["alpha beta"] == 2

    def test_cached_vectors_are_read_only(self, corpus, provider, identity_weights):
        pipe = make_pipeline(provider, identity_weights)
        first, near = corpus.records[:2]
        created = pipe.ingest(first)
        cached = pipe.index.get(created.cluster_id).vector  # kept by insert
        before = cached.copy()
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 1.0
        joined = pipe.ingest(near)
        again = pipe.ingest(first)
        assert joined.cluster_id == again.cluster_id == created.cluster_id
        assert again.similarity < 1.0  # the centroid moved: the join wrote elsewhere
        assert np.array_equal(cached, before)


class FlakyCompletion(MockCompletionClient):
    """A completion client whose calls each fail, after their retries, with
    a seeded probability, leaving some clusters FAILED."""

    def __init__(self, rng, failure_rate):
        super().__init__()
        self.rng = rng
        self.failure_rate = failure_rate

    def complete(self, system, user):
        if self.rng.random() < self.failure_rate:
            self.query_count += 1
            raise ProviderError("POST http://llm failed 3 times, last: HTTP 503")
        return super().complete(system, user)


def mock_template(log):
    """The template the mock client extracts from `log`."""
    return extract_template(MockCompletionClient().complete("", f"Log[1]: {log}"))


class TestClusterRecordAgreement:
    """Random runs of ingest, drift and rebalance, in both modes and under
    both batch schedules, leave `templates.json` and `template_for` in
    agreement with the index: one entry per live parsed or failed cluster,
    none for any other, each naming the cluster's template id and state, and
    each row's template the entry of the cluster its log ended in."""

    @staticmethod
    def run(provider, weights, mode, seed):
        rng = np.random.default_rng(seed)
        corpus = generate_corpus(n_templates=10, logs_per_template=8, seed=seed)
        records = [corpus.records[i] for i in rng.permutation(len(corpus))]
        pipe = make_pipeline(provider, weights, batch_mode=mode != "sequential")
        pipe.parser.client = FlakyCompletion(rng, failure_rate=0.4)
        assignments, reports = [], []
        start = 0
        while start < len(records):
            stop = start + int(rng.integers(1, 16))
            chunk = records[start:stop]
            start = stop
            if mode == "sequential":
                out = [pipe.ingest(record) for record in chunk]
            else:
                schedule = np.random.default_rng(seed * 1000 + start) \
                    if mode == "rng" else None
                out, errors = pipe.ingest_batch(chunk, rng=schedule)
                assert errors == []
            assignments += zip(chunk, out)
            if len(pipe.index) > 1 and rng.random() < 0.4:
                # move one cluster onto another, so the next pass merges them
                a, b = rng.choice(pipe.index.ids(), size=2, replace=False).tolist()
                for _ in range(40):
                    pipe.index.update_moving_average(b, pipe.index.get(a).vector)
            if rng.random() < 0.4:
                reports.append(pipe.force_rebalance())
        return pipe, assignments, reports  # assignments: (record, assignment)

    @pytest.mark.parametrize("mode", ["sequential", "batch", "rng"])
    @pytest.mark.parametrize("seed", range(6))
    def test_templates_agree_with_the_index(self, provider, identity_weights,
                                            tmp_path, mode, seed):
        pipe, assignments, reports = self.run(provider, identity_weights, mode, seed)
        store = pipe.parser.store
        path = tmp_path / "templates.json"
        store.save(str(path))
        entries = {int(cid): entry for cid, entry in json.loads(path.read_text()).items()}
        texts = {tid: text for text, tid in store._by_text.items()}
        centroids = {c.cluster_id: c for c in pipe.index.centroids()}
        listed = {cid for cid, c in centroids.items()
                  if c.parse_state in (ParseState.PARSED, ParseState.FAILED)}
        assert set(entries) == listed  # so no entry names a removed cluster

        survivor = {absorbed: event.surviving_id for report in reports
                    for event in report.merges for absorbed in event.absorbed_ids}
        logs = {}  # final cluster id -> contents of its rows
        for record, assignment in assignments:
            cid = assignment.cluster_id
            while cid in survivor:
                cid = survivor[cid]
            assert cid in centroids
            logs.setdefault(cid, set()).add(record.content)
            entry = entries.get(cid)
            assert store.template_for(cid) == (entry and entry["template"])

        for cid, entry in entries.items():
            centroid = centroids[cid]
            assert entry["template_id"] == centroid.template_id
            assert entry["parse_state"] == centroid.parse_state.value
            assert entry["source_log"] in logs[cid]
            if centroid.parse_state == ParseState.PARSED:
                assert entry["template"] == texts[centroid.template_id] \
                    == mock_template(entry["source_log"])
            else:
                assert centroid.template_id is None
                assert entry["template"] == entry["source_log"]
