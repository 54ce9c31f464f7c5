from fractions import Fraction

import numpy as np
import pytest

from logsift import (
    EncoderLayers,
    LogRecord,
    TrainConfig,
    TrainingPair,
    build_pair_dataset,
    gradient_check,
    mse_loss,
    predict_similarity,
    train,
)
from logsift import training
from logsift.errors import ConfigError

from conftest import make_two_family_pairs


def labeled_corpus(corpus):
    return list(zip(corpus.records, corpus.template_ids))


class TestEncoderLayers:
    def test_dim_consistency_checked(self):
        with pytest.raises(ConfigError):
            EncoderLayers(w1=np.zeros((3, 2)), b1=np.zeros(2),
                          w2=np.zeros((2, 3)), b2=np.zeros(2))

    def test_rejects_nonfinite(self):
        w1 = np.zeros((2, 2))
        w1[0, 0] = np.nan
        with pytest.raises(ConfigError):
            EncoderLayers(w1=w1, b1=np.zeros(2),
                          w2=np.zeros((2, 2)), b2=np.zeros(2))


class TestBuildPairDataset:
    def test_ratio_split(self, corpus, provider):
        cfg = TrainConfig(pairs_per_dataset=2400, rng_seed=1)
        pairs = build_pair_dataset(labeled_corpus(corpus), cfg, provider)
        assert len(pairs) == 2400
        n_similar = sum(1 for p in pairs if p.label == 1.0)
        assert n_similar == 400  # 1:5 of 2400
        assert len(pairs) - n_similar == 2000

    def test_single_template_errors(self, provider):
        logs = [(LogRecord("s", f"aa bb cc {i}"), "t0") for i in range(5)]
        with pytest.raises(ConfigError):
            build_pair_dataset(logs, TrainConfig(), provider)

    def test_seeded_reproducibility(self, corpus, provider):
        cfg = TrainConfig(pairs_per_dataset=200, rng_seed=7)
        labeled = labeled_corpus(corpus)
        first = build_pair_dataset(labeled, cfg, provider)
        second = build_pair_dataset(labeled, cfg, provider)
        for a, b in zip(first, second):
            assert np.array_equal(a.left, b.left)
            assert np.array_equal(a.right, b.right)
            assert a.label == b.label

    def test_labels_match_templates(self, corpus, provider):
        cfg = TrainConfig(pairs_per_dataset=100, rng_seed=3)
        for pair in build_pair_dataset(labeled_corpus(corpus), cfg, provider):
            assert pair.label in (0.0, 1.0)

    def test_dissimilar_heavy_ratio_enforced(self):
        with pytest.raises(ConfigError):
            TrainConfig(similar_to_dissimilar_ratio=Fraction(5, 1))


class TestPredictSimilarity:
    def test_self_similarity(self):
        w = EncoderLayers.identity_init(3)
        v = np.array([1.0, 2.0, 3.0, 0.04])
        assert predict_similarity(TrainingPair(v, v, 1.0), w) == \
            pytest.approx(1.0, abs=1e-6)

    def test_orthogonal(self):
        w = EncoderLayers.identity_init(3)
        left = np.array([1.0, 0.0, 0.0, 0.0])
        right = np.array([0.0, 1.0, 0.0, 0.0])
        assert predict_similarity(TrainingPair(left, right, 0.0), w) == \
            pytest.approx(0.0, abs=1e-6)

    def test_antipodal(self):
        w = EncoderLayers.identity_init(3)
        left = np.array([1.0, 0.0, 0.0, 0.0])
        assert predict_similarity(TrainingPair(left, -left, 0.0), w) == \
            pytest.approx(-1.0)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        w = EncoderLayers(w1=rng.normal(size=(4, 5)), b1=rng.normal(size=4),
                           w2=rng.normal(size=(3, 4)), b2=rng.normal(size=3))
        for _ in range(100):
            pair = TrainingPair(rng.normal(size=5), rng.normal(size=5), 0.0)
            assert -1.0 <= predict_similarity(pair, w) <= 1.0


class TestMseLoss:
    def test_perfect_fit_is_zero(self):
        w = EncoderLayers.identity_init(3)
        v = np.array([1.0, 2.0, 3.0, 0.04])
        assert mse_loss([TrainingPair(v, v, 1.0)], w) == pytest.approx(0.0, abs=1e-12)

    def test_unit_error(self):
        w = EncoderLayers.identity_init(3)
        left = np.array([1.0, 0.0, 0.0, 0.0])
        right = np.array([0.0, 1.0, 0.0, 0.0])
        assert mse_loss([TrainingPair(left, right, 1.0)], w) == pytest.approx(1.0)

    def test_mean_of_squared_errors(self):
        w = EncoderLayers.identity_init(3)
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        pairs = [
            TrainingPair(e1, e2, 0.5),   # prediction 0, error 0.5
            TrainingPair(e1, e1, 0.5),   # prediction 1, error -0.5
        ]
        assert mse_loss(pairs, w) == pytest.approx(0.25)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            mse_loss([], EncoderLayers.identity_init(2))

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        w = EncoderLayers(w1=rng.normal(size=(4, 4)), b1=rng.normal(size=4),
                           w2=rng.normal(size=(4, 4)), b2=rng.normal(size=4))
        pairs = [TrainingPair(rng.normal(size=4), rng.normal(size=4),
                              float(rng.integers(2))) for _ in range(16)]
        assert mse_loss(pairs, w) >= 0.0


    def test_chunks_sum_to_the_per_pair_mean(self, monkeypatch):
        rng = np.random.default_rng(6)
        w = EncoderLayers(w1=rng.normal(size=(5, 6)), b1=rng.normal(size=5),
                           w2=rng.normal(size=(4, 5)), b2=rng.normal(size=4))
        pairs = [TrainingPair(rng.normal(size=6), rng.normal(size=6),
                              float(rng.integers(2))) for _ in range(37)]
        reference = np.mean([(p.label - predict_similarity(p, w)) ** 2 for p in pairs])
        for rows in (1, 5, 37, 100):
            monkeypatch.setattr(training, "LOSS_CHUNK_ROWS", rows)
            assert mse_loss(pairs, w) == pytest.approx(reference, rel=1e-12)

class TestTrain:
    def test_loss_decreases_on_separable_families(self):
        pairs = make_two_family_pairs()
        cfg = TrainConfig(batch_size=16, epochs=50, rng_seed=0)
        result = train(pairs, cfg)
        assert result.loss_trace[-1] < result.loss_trace[0]

    def test_zero_learning_rate_is_noop(self):
        pairs = make_two_family_pairs()
        initial = EncoderLayers.identity_init(8)
        cfg = TrainConfig(learning_rate=0.0, batch_size=16, epochs=5, rng_seed=0)
        result = train(pairs, cfg, initial=initial)
        assert np.array_equal(result.layers.w1, initial.w1)
        assert np.array_equal(result.layers.b1, initial.b1)
        assert np.array_equal(result.layers.w2, initial.w2)
        assert np.array_equal(result.layers.b2, initial.b2)
        assert len(set(result.loss_trace)) == 1

    def test_trace_ends_at_the_loss_of_the_returned_weights(self):
        pairs = make_two_family_pairs()
        result = train(pairs, TrainConfig(batch_size=16, epochs=5, rng_seed=0))
        assert result.loss_trace[-1] == mse_loss(pairs, result.layers)

    def test_seeded_trace_reproducible(self):
        pairs = make_two_family_pairs()
        cfg = TrainConfig(batch_size=16, epochs=5, rng_seed=12)
        assert train(pairs, cfg).loss_trace == train(pairs, cfg).loss_trace

    def test_identical_pairs_converge(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=6)
        pairs = [TrainingPair(v, v, 1.0) for _ in range(8)]
        cfg = TrainConfig(batch_size=8, epochs=50, rng_seed=0)
        result = train(pairs, cfg)
        assert result.loss_trace[-1] < 1e-3


class TestGradientCheck:
    def test_random_init_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        w = EncoderLayers(w1=rng.normal(size=(7, 7)) * 0.5,
                           b1=rng.normal(size=7) * 0.1,
                           w2=rng.normal(size=(6, 7)) * 0.5,
                           b2=rng.normal(size=6) * 0.1)
        batch = [TrainingPair(rng.normal(size=7), rng.normal(size=7),
                              float(rng.integers(2))) for _ in range(4)]
        assert gradient_check(w, batch, h=1e-5) < 1e-4

    def test_stationary_point(self):
        # identical pairs labeled 1 with prediction exactly 1: zero gradient
        w = EncoderLayers.identity_init(3)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        batch = [TrainingPair(v, v, 1.0)]
        from logsift.training import _gradients, _stack

        left, right, labels = _stack(batch)
        grads = _gradients(left, right, labels, w)
        for g in grads:
            assert np.allclose(g, 0.0, atol=1e-12)

    def test_error_stays_bounded_when_h_doubles(self):
        rng = np.random.default_rng(23)
        w = EncoderLayers(w1=rng.normal(size=(5, 5)) * 0.5,
                           b1=rng.normal(size=5) * 0.1,
                           w2=rng.normal(size=(4, 5)) * 0.5,
                           b2=rng.normal(size=4) * 0.1)
        batch = [TrainingPair(rng.normal(size=5), rng.normal(size=5), 1.0)
                 for _ in range(4)]
        err_small = gradient_check(w, batch, h=1e-5)
        err_large = gradient_check(w, batch, h=2e-5)
        # O(h^2) truncation: doubling h must not explode the error
        assert err_large < max(8 * err_small, 1e-6)

    def test_rejects_oversized_batch(self):
        w = EncoderLayers.identity_init(2)
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            gradient_check(w, [TrainingPair(v, v, 1.0)] * 9)
