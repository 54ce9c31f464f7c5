import json

import numpy as np
import pytest

from logsift import (
    CentroidIndex,
    ClusterParser,
    IngestConfig,
    LogRecord,
    MockCompletionClient,
    ParseState,
    Pipeline,
    grouping_accuracy,
)
from logsift.errors import ConfigError


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
