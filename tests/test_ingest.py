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
    grouping_accuracy,
)
from logsift import ingest as ingest_module
from logsift.embedding import EmbeddingProvider
from logsift.errors import ConfigError, DimensionMismatchError, ProviderError


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
        pipe.ingest_batch(list(corpus.records[:200]))
        assert pipe.force_rebalance().merges
        assert set(pipe.first_log) == set(pipe.index.ids())

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
