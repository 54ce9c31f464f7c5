import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from logsift import (
    EncoderWeights,
    HashingProvider,
    LogRecord,
    PairDataset,
    TrainConfig,
    build_pair_dataset,
    gradient_check,
    mse_loss,
    predict_similarity,
    train,
)
from logsift import training
from logsift.embedding import _fuse
from logsift.errors import ConfigError, ProviderError
from logsift.synthetic import generate_corpus

from conftest import layers_map, make_two_family_pairs, random_layers, stack_pairs


def labeled_corpus(corpus):
    return list(zip(corpus.records, corpus.template_ids))


class TestBuildPairDataset:
    def test_ratio_split(self, corpus, provider):
        cfg = TrainConfig(pairs_per_dataset=2400, rng_seed=1)
        dataset = build_pair_dataset([labeled_corpus(corpus)], cfg, provider)
        assert len(dataset) == 2400
        n_similar = int(np.sum(dataset.labels == 1.0))
        assert n_similar == 400  # 1:5 of 2400
        assert len(dataset) - n_similar == 2000

    def test_single_template_errors(self, provider):
        logs = [(LogRecord("s", f"aa bb cc {i}"), "t0") for i in range(5)]
        with pytest.raises(ConfigError):
            build_pair_dataset([logs], TrainConfig(), provider)

    def test_seeded_reproducibility(self, corpus, provider):
        cfg = TrainConfig(pairs_per_dataset=200, rng_seed=7)
        labeled = labeled_corpus(corpus)
        first = build_pair_dataset([labeled], cfg, provider)
        second = build_pair_dataset([labeled], cfg, provider)
        assert np.array_equal(first.features, second.features)
        assert np.array_equal(first.pairs, second.pairs)
        assert np.array_equal(first.labels, second.labels)

    def test_labels_match_templates(self, corpus, provider):
        cfg = TrainConfig(pairs_per_dataset=100, rng_seed=3)
        dataset = build_pair_dataset([labeled_corpus(corpus)], cfg, provider)
        for (i, j), label in zip(dataset.pairs, dataset.labels):
            assert label == float(corpus.template_ids[i] == corpus.template_ids[j])

    def test_features_are_the_rows_ingest_fuses(self, corpus, provider):
        dataset = build_pair_dataset([labeled_corpus(corpus)],
                                     TrainConfig(pairs_per_dataset=50), provider)
        fused = np.stack([_fuse(record, provider) for record in corpus.records])
        assert np.array_equal(dataset.features, fused)

    def test_each_dataset_pairs_its_own_rows(self, provider):
        corpora = [generate_corpus(n_templates=4, logs_per_template=10, seed=1),
                   generate_corpus(n_templates=6, logs_per_template=5, seed=2)]
        cfg = TrainConfig(pairs_per_dataset=300, rng_seed=5)
        joined = build_pair_dataset([labeled_corpus(c) for c in corpora], cfg, provider)
        assert len(joined) == 600
        offset = 0
        for k, corpus in enumerate(corpora):
            alone = build_pair_dataset([labeled_corpus(corpus)], cfg, provider)
            block = slice(k * 300, (k + 1) * 300)
            assert np.array_equal(joined.pairs[block], alone.pairs + offset)
            assert np.array_equal(joined.labels[block], alone.labels)
            rows = joined.pairs[block]
            assert offset <= rows.min() and rows.max() < offset + len(corpus)
            assert np.array_equal(joined.features[rows], alone.features[alone.pairs])
            same = [corpus.template_ids[i - offset] == corpus.template_ids[j - offset]
                    for i, j in rows]
            assert np.array_equal(joined.labels[block], np.array(same, dtype=float))
            offset += len(corpus)

    @pytest.mark.parametrize("failure", ["raises", "nan"])
    def test_the_first_record_that_cannot_be_embedded_raises(self, corpus, failure):
        class Failing(HashingProvider):
            calls = 0

            def embed(self, text):
                self.calls += 1
                if text in bad:
                    if failure == "raises":
                        raise ProviderError(f"no vector for {text!r}")
                    return np.full(self.dim, np.nan)
                return super().embed(text)

        labeled = labeled_corpus(corpus)
        bad = {labeled[3][0].content, labeled[7][0].content}
        first = min(i for i, (record, _) in enumerate(labeled) if record.content in bad)
        expected = (f"no vector for {labeled[first][0].content!r}" if failure == "raises"
                    else "provider returned non-finite values")
        provider = Failing(32)
        with pytest.raises(ProviderError, match=re.escape(expected)):
            build_pair_dataset([labeled], TrainConfig(pairs_per_dataset=20), provider)
        assert provider.calls == first + 1  # no line after the first failure

    def test_dissimilar_heavy_ratio_enforced(self):
        with pytest.raises(ConfigError):
            TrainConfig(similar_to_dissimilar_ratio=Fraction(5, 1))


class TestPairDataset:
    def test_gathers_each_pairs_rows(self):
        features = np.arange(12.0).reshape(4, 3)
        dataset = PairDataset(features, np.array([[3, 0], [1, 1]]), np.array([0.0, 1.0]))
        left, right, labels = dataset.gather(slice(None))
        assert np.array_equal(left, features[[3, 1]])
        assert np.array_equal(right, features[[0, 1]])
        assert np.array_equal(labels, [0.0, 1.0])
        left, right, labels = dataset.gather(np.array([1]))
        assert np.array_equal(left, features[[1]]) and labels.tolist() == [1.0]

    @pytest.mark.parametrize("pairs, labels", [
        ([[0, 4]], [1.0]),          # a row past the end
        ([[-1, 0]], [1.0]),         # would wrap to the last row
        ([[0, 1]], [1.0, 0.0]),     # a label without a pair
        ([0, 1], [1.0]),            # not (m, 2)
    ], ids=["past-end", "negative", "count", "shape"])
    def test_rejects_pairs_that_do_not_index_the_features(self, pairs, labels):
        with pytest.raises(ValueError):
            PairDataset(np.zeros((4, 3)), np.array(pairs), np.array(labels))


class TestPredictSimilarity:
    def test_self_similarity(self):
        w = EncoderWeights.identity_init(3)
        v = np.array([1.0, 2.0, 3.0, 0.04])
        assert predict_similarity(v, v, w) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal(self):
        w = EncoderWeights.identity_init(3)
        left = np.array([1.0, 0.0, 0.0, 0.0])
        right = np.array([0.0, 1.0, 0.0, 0.0])
        assert predict_similarity(left, right, w) == pytest.approx(0.0, abs=1e-6)

    def test_antipodal(self):
        w = EncoderWeights.identity_init(3)
        left = np.array([1.0, 0.0, 0.0, 0.0])
        assert predict_similarity(left, -left, w) == pytest.approx(-1.0)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        w = layers_map(*random_layers(rng, 4, 5, 3))
        for _ in range(100):
            assert -1.0 <= predict_similarity(rng.normal(size=5), rng.normal(size=5),
                                              w) <= 1.0


class TestMseLoss:
    def test_perfect_fit_is_zero(self):
        w = EncoderWeights.identity_init(3)
        v = np.array([1.0, 2.0, 3.0, 0.04])
        assert mse_loss(stack_pairs([(v, v, 1.0)]), w) == pytest.approx(0.0, abs=1e-12)

    def test_unit_error(self):
        w = EncoderWeights.identity_init(3)
        left = np.array([1.0, 0.0, 0.0, 0.0])
        right = np.array([0.0, 1.0, 0.0, 0.0])
        assert mse_loss(stack_pairs([(left, right, 1.0)]), w) == pytest.approx(1.0)

    def test_mean_of_squared_errors(self):
        w = EncoderWeights.identity_init(3)
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        pairs = stack_pairs([
            (e1, e2, 0.5),   # prediction 0, error 0.5
            (e1, e1, 0.5),   # prediction 1, error -0.5
        ])
        assert mse_loss(pairs, w) == pytest.approx(0.25)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            mse_loss(PairDataset(np.zeros((0, 3)), np.zeros((0, 2), int), np.zeros(0)),
                     EncoderWeights.identity_init(2))

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        w = layers_map(*random_layers(rng, 4, 4, 4))
        pairs = stack_pairs([(rng.normal(size=4), rng.normal(size=4),
                              float(rng.integers(2))) for _ in range(16)])
        assert mse_loss(pairs, w) >= 0.0


    def test_chunks_sum_to_the_per_pair_mean(self, monkeypatch):
        rng = np.random.default_rng(6)
        w = layers_map(*random_layers(rng, 5, 6, 4))
        pairs = stack_pairs([(rng.normal(size=6), rng.normal(size=6),
                              float(rng.integers(2))) for _ in range(37)])
        reference = np.mean([(label - predict_similarity(left, right, w)) ** 2
                             for left, right, label in zip(*pairs.gather(slice(None)))])
        for rows in (1, 5, 37, 100):
            monkeypatch.setattr(training, "LOSS_CHUNK_ROWS", rows)
            assert mse_loss(pairs, w) == pytest.approx(reference, rel=1e-12)

def split_dataset(n_templates=10, logs_per_template=20, seed=3, dim=16, **cfg):
    corpus = generate_corpus(n_templates=n_templates, logs_per_template=logs_per_template,
                             seed=seed)
    cfg = TrainConfig(**{"pairs_per_dataset": 600, "rng_seed": 2, **cfg})
    return corpus, build_pair_dataset([labeled_corpus(corpus)], cfg, HashingProvider(dim))


def held_out_part(dataset):
    held = dataset.held_out
    return PairDataset(dataset.features, dataset.pairs[held], dataset.labels[held])


class TestHeldOutTemplates:
    def test_a_fifth_of_the_templates_and_of_each_kind_of_pair(self):
        corpus, dataset = split_dataset()
        ids = np.array(corpus.template_ids)[dataset.pairs]
        held = dataset.held_out
        assert held.dtype == bool and held.shape == (600,)
        held_templates = set(ids[held].ravel().tolist())
        assert len(held_templates) == 2  # 10 templates // 5
        # every pair lies within one part: both rows held out, or neither
        in_part = np.isin(ids, list(held_templates))
        assert np.array_equal(in_part[:, 0], held) and np.array_equal(in_part[:, 1], held)
        # of 100 similar and 500 dissimilar pairs, a fifth of each
        assert held.sum() == 120 and dataset.labels[held].sum() == 20
        assert len(dataset) == 600 and dataset.labels.sum() == 100

    @pytest.mark.parametrize("lone, split", [(1, False), (2, True)])
    def test_ten_templates_with_two_logs_or_more_are_needed(self, lone, split):
        # 9 templates of 3 logs, and one of `lone` logs: 9 or 10 templates
        # can form similar pairs, and only 10 // 5 = 2 can be held out
        labeled = [(LogRecord("s", f"t{t} w{t}x{i} common"), t)
                   for t in range(10) for i in range(3 if t < 9 else lone)]
        dataset = build_pair_dataset([labeled], TrainConfig(pairs_per_dataset=300),
                                     HashingProvider(16))
        assert dataset.held_out.any() == split

    def test_hand_built_pairs_hold_out_none(self):
        dataset = make_two_family_pairs()
        assert dataset.held_out.dtype == bool and not dataset.held_out.any()

    @pytest.mark.parametrize("mask", [[True], [1, 0], [True, False, True]],
                             ids=["short", "not-bool", "long"])
    def test_rejects_a_mask_that_is_not_one_bool_per_pair(self, mask):
        with pytest.raises(ValueError):
            PairDataset(np.zeros((4, 3)), np.array([[0, 1], [2, 3]]), np.array([1.0, 0.0]),
                        held_out=np.array(mask))


class TestStopRule:
    def test_returns_the_map_of_least_held_out_loss(self):
        _, dataset = split_dataset()
        cfg = TrainConfig(learning_rate=0.05, batch_size=64, epochs=12, rng_seed=0)
        result = train(dataset, cfg)
        trace = result.held_out_loss_trace
        assert len(result.loss_trace) == len(trace) == 13
        assert result.epoch == int(np.argmin(trace))
        assert 0 < result.epoch < cfg.epochs  # the case this test is about
        assert trace[result.epoch] == mse_loss(held_out_part(dataset), result.weights)
        # the same map as a run that stops at that epoch
        stopped = train(dataset, TrainConfig(learning_rate=0.05, batch_size=64,
                                             epochs=result.epoch, rng_seed=0))
        assert stopped.loss_trace == result.loss_trace[:result.epoch + 1]
        assert stopped.weights.matrix.tobytes() == result.weights.matrix.tobytes()
        assert stopped.weights.bias.tobytes() == result.weights.bias.tobytes()

    def test_fits_only_the_pairs_not_held_out(self):
        _, dataset = split_dataset()
        held = dataset.held_out
        fit = PairDataset(dataset.features, dataset.pairs[~held], dataset.labels[~held])
        cfg = TrainConfig(batch_size=64, epochs=3, rng_seed=0)
        assert train(dataset, cfg).loss_trace == train(fit, cfg).loss_trace

    def test_the_starting_map_is_a_candidate(self):
        # the held-out pairs are the fitted cross-family ones, labeled
        # similar: every epoch of training raises their loss
        fitted = make_two_family_pairs()
        cross = fitted.pairs[fitted.labels == 0]
        dataset = PairDataset(fitted.features, np.concatenate([fitted.pairs, cross]),
                              np.concatenate([fitted.labels, np.ones(len(cross))]),
                              held_out=np.arange(len(fitted) + len(cross)) >= len(fitted))
        initial = EncoderWeights.identity_init(8)
        result = train(dataset, TrainConfig(batch_size=16, epochs=5, rng_seed=0),
                       initial=initial)
        assert result.epoch == 0
        assert result.loss_trace[-1] < result.loss_trace[0]
        assert result.weights.matrix.tobytes() == initial.matrix.tobytes()
        assert result.weights.bias.tobytes() == initial.bias.tobytes()

    def test_the_default_start_trains_as_a_dense_identity_does(self):
        # the identity is held as an O(E) view, not as eye(E, E+1) itself
        pairs = make_two_family_pairs()
        cfg = TrainConfig(batch_size=16, epochs=3, rng_seed=0)
        built = train(pairs, cfg)
        dense = train(pairs, cfg, initial=SimpleNamespace(matrix=np.eye(8, 9), bias=np.zeros(8)))
        assert built.loss_trace == dense.loss_trace
        assert built.weights.matrix.tobytes() == dense.weights.matrix.tobytes()
        assert built.weights.bias.tobytes() == dense.weights.bias.tobytes()

    def test_without_held_out_pairs_returns_the_last_epoch(self):
        result = train(make_two_family_pairs(), TrainConfig(batch_size=16, epochs=4))
        assert result.epoch == 4 and result.held_out_loss_trace == []

    def test_all_pairs_held_out_is_no_training_pairs(self):
        fitted = make_two_family_pairs()
        dataset = PairDataset(fitted.features, fitted.pairs, fitted.labels,
                              held_out=np.ones(len(fitted), dtype=bool))
        with pytest.raises(ValueError, match="no training pairs"):
            train(dataset, TrainConfig())


class TestLearningRate:
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1e-3])
    def test_must_be_finite_and_not_negative(self, rate):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    def test_a_loss_that_stops_being_finite_is_a_config_error(self):
        # no RuntimeWarning either: pytest turns them into errors
        with pytest.raises(ConfigError, match="non-finite loss after epoch 1"):
            train(make_two_family_pairs(), TrainConfig(learning_rate=1e300, batch_size=16,
                                                       epochs=3))


class TestTrain:
    def test_loss_decreases_on_separable_families(self):
        pairs = make_two_family_pairs()
        cfg = TrainConfig(batch_size=16, epochs=50, rng_seed=0)
        result = train(pairs, cfg)
        assert result.loss_trace[-1] < result.loss_trace[0]

    def test_zero_learning_rate_is_noop(self):
        pairs = make_two_family_pairs()
        initial = EncoderWeights.identity_init(8)
        cfg = TrainConfig(learning_rate=0.0, batch_size=16, epochs=5, rng_seed=0)
        result = train(pairs, cfg, initial=initial)
        assert np.array_equal(result.weights.matrix, initial.matrix)
        assert np.array_equal(result.weights.bias, initial.bias)
        assert len(set(result.loss_trace)) == 1

    def test_trace_ends_at_the_loss_of_the_returned_weights(self):
        pairs = make_two_family_pairs()
        result = train(pairs, TrainConfig(batch_size=16, epochs=5, rng_seed=0))
        assert result.loss_trace[-1] == mse_loss(pairs, result.weights)

    def test_seeded_trace_reproducible(self):
        pairs = make_two_family_pairs()
        cfg = TrainConfig(batch_size=16, epochs=5, rng_seed=12)
        assert train(pairs, cfg).loss_trace == train(pairs, cfg).loss_trace

    def test_identical_pairs_converge(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=6)
        pairs = stack_pairs([(v, v, 1.0)] * 8)
        cfg = TrainConfig(batch_size=8, epochs=50, rng_seed=0)
        result = train(pairs, cfg)
        assert result.loss_trace[-1] < 1e-3


class TestGradientCheck:
    def test_random_init_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        w = EncoderWeights(rng.normal(size=(6, 7)) * 0.5, rng.normal(size=6) * 0.1)
        batch = stack_pairs([(rng.normal(size=7), rng.normal(size=7),
                              float(rng.integers(2))) for _ in range(4)])
        assert gradient_check(w, batch, h=1e-5) < 1e-4

    def test_stationary_point(self):
        # identical pairs labeled 1 with prediction exactly 1: zero gradient
        w = EncoderWeights.identity_init(3)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        batch = stack_pairs([(v, v, 1.0)])
        from logsift.training import _gradients

        grads = _gradients(*batch.gather(slice(None)), w.matrix, w.bias)
        for g in grads:
            assert np.allclose(g, 0.0, atol=1e-12)

    def test_error_stays_bounded_when_h_doubles(self):
        rng = np.random.default_rng(23)
        w = EncoderWeights(rng.normal(size=(4, 5)) * 0.5, rng.normal(size=4) * 0.1)
        batch = stack_pairs([(rng.normal(size=5), rng.normal(size=5), 1.0)
                             for _ in range(4)])
        err_small = gradient_check(w, batch, h=1e-5)
        err_large = gradient_check(w, batch, h=2e-5)
        # O(h^2) truncation: doubling h must not explode the error
        assert err_large < max(8 * err_small, 1e-6)

    def test_rejects_oversized_batch(self):
        w = EncoderWeights.identity_init(2)
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            gradient_check(w, stack_pairs([(v, v, 1.0)] * 9))


def test_pairs_hold_indices_not_copies_of_fused_rows():
    # 2000 lines, 24000 pairs at D = 64: the fused matrix is 1.04 MB.
    # Measured 13.3x: the matrix, the pairs, and one loss chunk's gathered
    # rows and activations at a time. Pairs that each held copies of their
    # two rows, stacked into two (pairs, D+1) arrays, peaked at 37.5x
    corpus = generate_corpus(n_templates=20, logs_per_template=100, seed=7)
    labeled = labeled_corpus(corpus)
    provider = HashingProvider(64)
    tracemalloc.start()
    try:
        dataset = build_pair_dataset([labeled], TrainConfig(), provider)
        train(dataset, TrainConfig(epochs=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fused = dataset.features.nbytes
    assert len(dataset) == 24000 and fused == 2000 * 65 * 8
    assert peak < 16 * fused, peak / fused
