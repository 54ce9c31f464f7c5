"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured numbers."""

import os
import time

import numpy as np
import pytest

from logsift import (
    CentroidIndex,
    ClusterParser,
    EncoderLayers,
    EncoderWeights,
    IngestConfig,
    MockCompletionClient,
    Pipeline,
    TrainConfig,
    TrainingPair,
    build_pair_dataset,
    evaluate,
    extract_template,
    fga,
    fta,
    gradient_check,
    grouping_accuracy,
    merge_pair,
    parsing_accuracy,
    rebalance,
    train,
)
from logsift.synthetic import generate_corpus, similarity_margins

import conftest
from conftest import make_two_family_pairs, random_unit
from oracles import (
    oracle_fga,
    oracle_fta,
    oracle_grouping_accuracy,
    oracle_merge,
    oracle_moving_average,
    oracle_parsing_accuracy,
    oracle_scan_nearest,
    OraclePipeline,
)
from test_parsing import CANNED_RESPONSES


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"{name}: {detail}"


def test_criterion_1_metric_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1234)
    token_pool = ["up", "down", "<*>", "left", "right", "stop"]
    checked = 0
    for _ in range(60):
        n_templates = int(rng.integers(1, 6))
        templates = list({
            " ".join(rng.choice(token_pool, size=rng.integers(1, 4)))
            for _ in range(n_templates)
        })
        n_logs = int(rng.integers(1, 13))
        truth = [templates[rng.integers(len(templates))] for _ in range(n_logs)]
        predicted = [templates[rng.integers(len(templates))] for _ in range(n_logs)]

        assert grouping_accuracy(predicted, truth) == \
            oracle_grouping_accuracy(predicted, truth)
        got, n_g, n_p, n_c = fga(predicted, truth)
        want, wg, wp, wc = oracle_fga(predicted, truth)
        assert (n_g, n_p, n_c) == (wg, wp, wc)
        assert abs(got - want) <= 1e-12
        assert parsing_accuracy(predicted, truth) == \
            oracle_parsing_accuracy(predicted, truth)
        assert abs(fta(predicted, truth) - oracle_fta(predicted, truth)) <= 1e-12
        checked += 1

    # worked case
    truth = ["t1", "t1", "t2", "t2"]
    predicted = ["p1", "p2", "p3", "p3"]
    assert grouping_accuracy(predicted, truth) == 0.5
    got, *_ = fga(predicted, truth)
    assert abs(got - 0.4) <= 1e-12

    elapsed = time.monotonic() - start
    _report("criterion 1: metric oracle equivalence", elapsed < 10,
            f"{checked} randomized datasets + worked case in {elapsed:.2f}s")


def test_criterion_2_index_exactness():
    # E up to 512, where the float32 screen's margin is widest; every hit
    # and similarity must equal the full einsum scan's exactly
    start = time.monotonic()
    rng = np.random.default_rng(77)
    batch_rng = np.random.default_rng(78)  # leaves rng's draws as they were
    mismatches = queries = large_queries = batch_mismatches = batch_queries = 0
    for _ in range(200):
        dim = int(rng.integers(2, 513))
        n = int(rng.integers(1, 300))
        index = CentroidIndex()
        for _ in range(n):
            ids = index.ids()
            if ids and rng.random() < 0.15:
                # an exact duplicate, so ties on similarity occur
                index.insert(index.get(ids[int(rng.integers(len(ids)))]).vector)
            else:
                index.insert(random_unit(rng, dim))
        # updates and removals; a removal moves another centroid's row
        for _ in range(n // 2):
            ids = index.ids()
            cid = ids[int(rng.integers(len(ids)))]
            if len(ids) > 1 and rng.random() < 0.5:
                index.remove(cid)
            else:
                index.update_moving_average(cid, random_unit(rng, dim))
        stored = {c.cluster_id: c.vector for c in index.centroids()}
        ids = index.ids()
        # a batch of queries, some of them stored centroids (exact ties
        # with their duplicates), scored at once as ingest_batch routes
        batch = np.stack([stored[ids[int(batch_rng.integers(len(ids)))]]
                          if batch_rng.random() < 0.5 else random_unit(batch_rng, dim)
                          for _ in range(20)])
        for query, hit in zip(batch, index.nearest_batch(batch)):
            batch_queries += 1
            batch_mismatches += (hit.cluster_id, hit.similarity) != \
                oracle_scan_nearest(stored, query)
        for _ in range(50):
            exclude = None
            if rng.random() < 0.5:
                q = random_unit(rng, dim)
            else:
                # a stored centroid, as rebalance queries; often excluded
                q = stored[ids[int(rng.integers(len(ids)))]]
                if rng.random() < 0.5:
                    exclude = ids[int(rng.integers(len(ids)))]
            want = oracle_scan_nearest(stored, q, exclude=exclude)
            hit = index.nearest(q, exclude=exclude)
            queries += 1
            large_queries += len(index) > 64
            mismatches += (None, None) != want if hit is None else \
                (hit.cluster_id, hit.similarity) != want
    elapsed = time.monotonic() - start
    _report("criterion 2: index exactness at every size",
            mismatches == 0 and batch_mismatches == 0 and elapsed < 30,
            f"200 indices x 50 queries at E <= 512 ({large_queries} at N > 64), "
            f"{mismatches} differ from the einsum scan; {batch_queries} "
            f"batch-scored queries, {batch_mismatches} differ; {elapsed:.2f}s")


def test_criterion_3_centroid_algebra():
    rng = np.random.default_rng(55)
    worst_update = 0.0
    for _ in range(50):
        index = CentroidIndex()
        expected = random_unit(rng, 6)
        cid = index.insert(expected)
        weight = 1
        for _ in range(12):
            incoming = random_unit(rng, 6)
            expected = oracle_moving_average(expected, incoming, weight)
            weight += 1
            c = index.update_moving_average(cid, incoming)
            worst_update = max(worst_update,
                               float(np.abs(c.vector - expected).max()))
            assert c.weight == weight

    # fixed point holds exactly
    index = CentroidIndex()
    u = random_unit(np.random.default_rng(1), 5)
    cid = index.insert(u)
    c = index.update_moving_average(cid, u)
    fixed_ok = np.array_equal(c.vector, u) and c.weight == 2

    worst_merge = 0.0
    for _ in range(50):
        index = CentroidIndex()
        v_i, v_j = random_unit(rng, 5), random_unit(rng, 5)
        w_i, w_j = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        a = index.insert(v_i, weight=w_i)
        b = index.insert(v_j, weight=w_j)
        survivor = merge_pair(index, a, b)
        c = index.get(survivor)
        worst_merge = max(worst_merge, float(
            np.abs(c.vector - oracle_merge(v_i, w_i, v_j, w_j)).max()))
        assert c.weight == w_i + w_j  # exact conservation

    ok = worst_update <= 1e-9 and worst_merge <= 1e-9 and fixed_ok
    _report("criterion 3: centroid algebra", ok,
            f"update err {worst_update:.2e}, merge err {worst_merge:.2e}, "
            f"fixed point exact: {fixed_ok}")


def test_criterion_4_end_to_end_fixture(provider, identity_weights):
    start = time.monotonic()
    corpus = generate_corpus(n_templates=10, logs_per_template=100, seed=7)
    min_within, max_cross = similarity_margins(corpus, provider, identity_weights)
    assert min_within > 0.9 and max_cross < 0.9

    parser = ClusterParser(client=MockCompletionClient())
    pipe = Pipeline(provider, identity_weights, CentroidIndex(), parser,
                    IngestConfig(similarity_threshold=0.9))
    assignments = [pipe.ingest(r) for r in corpus.records]
    clusters = len(pipe.index)

    predicted = [parser.store.template_for(a.cluster_id) for a in assignments]
    truth = [corpus.template_texts[t] for t in corpus.template_ids]
    report = evaluate(predicted, truth)
    elapsed = time.monotonic() - start
    ok = clusters == 10 and report.ga == 1.0 and report.fga == 1.0 and elapsed < 30
    _report("criterion 4: end-to-end fixture", ok,
            f"{clusters} clusters, GA={report.ga}, FGA={report.fga}, "
            f"margins=({min_within:.3f}, {max_cross:.3f}), {elapsed:.2f}s")


def test_criterion_5_batch_rebalance_equivalence(provider, identity_weights):
    corpus = generate_corpus(n_templates=10, logs_per_template=100, seed=7)
    seq = Pipeline(provider, identity_weights, CentroidIndex(),
                   ClusterParser(client=MockCompletionClient()),
                   IngestConfig())
    seq_partition = [seq.ingest(r).cluster_id for r in corpus.records]

    schedules_ok = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pipe = Pipeline(provider, identity_weights, CentroidIndex(),
                        ClusterParser(client=MockCompletionClient()),
                        IngestConfig(batch_mode=True))
        assignments, errors = pipe.ingest_batch(list(corpus.records), rng=rng)
        assert errors == []
        assert pipe.index.total_weight() == len(corpus)  # conservation
        report = pipe.force_rebalance()
        assert pipe.index.total_weight() == len(corpus)

        remap = {}
        for event in report.merges:
            for absorbed in event.absorbed_ids:
                remap[absorbed] = event.surviving_id

        def resolve(cid):
            while cid in remap:
                cid = remap[cid]
            return cid

        batch_partition = [resolve(a.cluster_id) for a in assignments]
        if grouping_accuracy(batch_partition, seq_partition) == 1.0:
            schedules_ok += 1
    _report("criterion 5: batch/rebalance equivalence", schedules_ok == 20,
            f"{schedules_ok}/20 randomized schedules matched sequential partition")


def test_criterion_6_trainer_soundness():
    start = time.monotonic()
    rng = np.random.default_rng(9)
    w = EncoderLayers(w1=rng.normal(size=(9, 9)) * 0.5,
                      b1=rng.normal(size=9) * 0.1,
                      w2=rng.normal(size=(8, 9)) * 0.5,
                      b2=rng.normal(size=8) * 0.1)
    batch = [TrainingPair(rng.normal(size=9), rng.normal(size=9),
                          float(rng.integers(2))) for _ in range(4)]
    grad_err = gradient_check(w, batch, h=1e-5)

    pairs = make_two_family_pairs()
    cfg = TrainConfig(batch_size=16, epochs=50, rng_seed=0)
    result = train(pairs, cfg)
    first, final = result.loss_trace[0], result.loss_trace[-1]

    initial = EncoderLayers.identity_init(8)
    frozen = train(pairs, TrainConfig(learning_rate=0.0, batch_size=16,
                                      epochs=5, rng_seed=0), initial=initial)
    unchanged = all(
        np.array_equal(a, b)
        for a, b in [(frozen.layers.w1, initial.w1), (frozen.layers.b1, initial.b1),
                     (frozen.layers.w2, initial.w2), (frozen.layers.b2, initial.b2)]
    )
    elapsed = time.monotonic() - start
    ok = grad_err < 1e-4 and final < 0.1 * first and unchanged and elapsed < 60
    _report("criterion 6: trainer soundness", ok,
            f"gradcheck={grad_err:.2e}, loss {first:.4f}->{final:.4f} "
            f"({final / first:.3f}x), lr=0 bitwise unchanged: {unchanged}, "
            f"{elapsed:.1f}s")


def test_criterion_7_template_extraction_corpus():
    valid = malformed = 0
    for response, expected in CANNED_RESPONSES:
        if expected is None:
            with pytest.raises(Exception):
                extract_template(response, query_index=1)
            malformed += 1
        else:
            template = extract_template(response, query_index=1)
            assert template == expected
            assert "{" not in template and "}" not in template
            assert "<*><*>" not in template
            valid += 1
    # the two quoted cases
    t = extract_template(
        "LogTemplate[1]: `start processing {count} alerts for org {org_id}`")
    quoted_ok = t == "start processing <*> alerts for org <*>"
    merged_ok = extract_template("LogTemplate[1]: `<*><*> done`") == "<*> done"
    ok = len(CANNED_RESPONSES) >= 20 and quoted_ok and merged_ok
    _report("criterion 7: template extraction corpus", ok,
            f"{valid} valid + {malformed} malformed responses checked")


def test_criterion_8_cost_property(provider, identity_weights):
    corpus = generate_corpus(n_templates=10, logs_per_template=100, seed=7)

    client = MockCompletionClient()
    pipe = Pipeline(provider, identity_weights, CentroidIndex(),
                    ClusterParser(client=client), IngestConfig())
    created = sum(pipe.ingest(r).created_new for r in corpus.records)
    sequential_ok = client.query_count <= created

    client2 = MockCompletionClient()
    pipe2 = Pipeline(provider, identity_weights, CentroidIndex(),
                     ClusterParser(client=client2),
                     IngestConfig(batch_mode=True))
    pipe2.ingest_batch(list(corpus.records), rng=np.random.default_rng(2))
    pipe2.force_rebalance()
    batch_ok = client2.query_count <= len(pipe2.index)

    _report("criterion 8: query cost bounded by cluster count",
            sequential_ok and batch_ok,
            f"sequential {client.query_count}<=created {created}; "
            f"batch {client2.query_count}<=surviving {len(pipe2.index)}")


def _ingest_all(pipeline_cls, provider, weights, records, mode):
    """Ingest `records` as `logsift ingest` does, sequentially or in batches
    of 64 (with a seeded rng for "batch-rng"), rebalancing every 128 logs;
    returns the assignments, the final centroids and their templates."""
    batch = mode != "sequential"
    pipe = pipeline_cls(provider, weights, CentroidIndex(),
                        ClusterParser(client=MockCompletionClient()),
                        IngestConfig(batch_mode=batch, rebalance_every_n=128))
    rng = np.random.default_rng(5) if mode == "batch-rng" else None
    assignments = []
    if batch:
        for start in range(0, len(records), 64):
            out, errors = pipe.ingest_batch(records[start:start + 64], rng=rng)
            assert errors == []
            assignments += out
            pipe.maybe_rebalance()
        pipe.force_rebalance()
    else:
        for record in records:
            assignments.append(pipe.ingest(record))
            pipe.maybe_rebalance()
    centroids = list(pipe.index.centroids())
    templates = [pipe.parser.store.template_for(c.cluster_id) for c in centroids]
    return assignments, centroids, templates


def test_criterion_10_embedding_cache_equivalence(provider, identity_weights):
    """The content cache and the batch encoder change no output: the
    pipeline and an oracle that embeds every line afresh with two layers
    agree exactly at identity weights and on partitions at trained ones,
    sequentially and in batches."""
    corpus = generate_corpus(n_templates=8, logs_per_template=5, seed=7)
    rng = np.random.default_rng(11)
    records = [corpus.records[i] for i in rng.integers(len(corpus), size=600)]
    duplicate_share = 1 - len({r.content for r in records}) / len(records)

    identity_layers = EncoderLayers.identity_init(provider.dim)
    for mode in ("sequential", "batch", "batch-rng"):
        got = _ingest_all(Pipeline, provider, identity_weights, records, mode)
        want = _ingest_all(OraclePipeline, provider, identity_layers, records, mode)
        assert got[0] == want[0], mode  # ids, creations, similarities, templates
        assert [(c.cluster_id, c.weight, c.parse_state, c.template_id, c.vector.tobytes())
                for c in got[1]] == \
            [(c.cluster_id, c.weight, c.parse_state, c.template_id, c.vector.tobytes())
             for c in want[1]], mode
        assert got[2] == want[2], mode

    labeled = list(zip(corpus.records, corpus.template_ids))
    trained = train(build_pair_dataset(labeled, TrainConfig(pairs_per_dataset=600),
                                       provider),
                    TrainConfig(batch_size=128, epochs=2)).layers
    same, worst = {}, {}
    for mode in ("sequential", "batch"):
        got, *_ = _ingest_all(Pipeline, provider, trained.collapse(), records, mode)
        want, *_ = _ingest_all(OraclePipeline, provider, trained, records, mode)
        same[mode] = ([(a.cluster_id, a.created_new) for a in got]
                      == [(a.cluster_id, a.created_new) for a in want])
        worst[mode] = max(abs(a.similarity - b.similarity) for a, b in zip(got, want))
    _report("criterion 10: embedding cache equivalence",
            all(same.values()) and max(worst.values()) < 1e-9,
            f"{len(records)} logs, {duplicate_share:.0%} repeats: identity weights "
            f"exact in 3 modes; trained weights, partition identical / largest "
            f"similarity change: " + ", ".join(
                f"{mode} {same[mode]} / {worst[mode]:.1e}" for mode in same))


@pytest.mark.skipif(
    not (os.environ.get("EMBEDDING_API_KEY") and os.environ.get("COMPLETION_API_KEY")
         and os.environ.get("LIVE_SMOKE_DATASET")),
    reason="live smoke needs EMBEDDING_API_KEY, COMPLETION_API_KEY, "
           "LIVE_SMOKE_DATASET (path to a structured dataset slice)",
)
def test_criterion_9_optional_live_smoke():
    from logsift import RemoteProvider, load_dataset
    from logsift.parsing import RemoteCompletionClient
    from logsift.records import LogRecord

    provider = RemoteProvider(
        url=os.environ["EMBEDDING_URL"], model=os.environ["EMBEDDING_MODEL"],
        dim=int(os.environ.get("EMBEDDING_DIM", "1536")))
    client = RemoteCompletionClient(
        url=os.environ["COMPLETION_URL"], model=os.environ["COMPLETION_MODEL"])
    dataset = load_dataset(os.environ["LIVE_SMOKE_DATASET"])
    rows = list(zip(dataset.contents, dataset.templates))[:2000]
    weights = EncoderWeights.identity_init(provider.dim)
    parser = ClusterParser(client=client)
    pipe = Pipeline(provider, weights, CentroidIndex(), parser, IngestConfig())
    assignments = [pipe.ingest(LogRecord("live", c)) for c, _ in rows]
    predicted = [parser.store.template_for(a.cluster_id) for a in assignments]
    value, *_ = fga(predicted, [t for _, t in rows])
    _report("criterion 9: live smoke", value >= 0.7, f"FGA={value:.3f}")
