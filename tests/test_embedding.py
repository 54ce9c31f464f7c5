import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from logsift import (
    EncoderLayers,
    EncoderWeights,
    HashingProvider,
    LogRecord,
    embed_log,
    embed_raw,
    fuse_word_count,
)
from logsift import embedding
from logsift.errors import ConfigError, DegenerateEmbeddingError, ProviderError

from conftest import (
    MALFORMED_V1_WEIGHTS,
    MALFORMED_V2_WEIGHTS,
    PROVIDER_DIM,
    write_v1_weights,
)
from oracles import oracle_embed


class TestLogRecord:
    def test_word_count(self):
        assert LogRecord("s", "a b  a").word_count == 3

    def test_empty_after_trim_rejected(self):
        with pytest.raises(ValueError):
            LogRecord("s", "   ")


class TestEmbedRaw:
    def test_deterministic(self, provider):
        r = LogRecord("s", "a b a")
        assert np.array_equal(embed_raw(r, provider), embed_raw(r, provider))

    def test_realistic_log_line(self, provider):
        r = LogRecord("s", "start processing 2 alerts for org org_bff943b3ca")
        v = embed_raw(r, provider)
        assert v.shape == (provider.dim,)
        assert np.all(np.isfinite(v))

    def test_unit_norm(self, provider):
        v = embed_raw(LogRecord("s", "x y z"), provider)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    @staticmethod
    def hashed_counts(text, dim):
        counts = np.zeros(dim)
        for token in text.split():
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            counts[int.from_bytes(digest, "big") % dim] += 1.0
        return counts / np.linalg.norm(counts)

    def test_bucket_counts_match_a_token_by_token_count(self, corpus, provider):
        texts = [r.content for r in corpus.records[::25]] + ["a b a", "x x x x"]
        for text in texts + texts:  # the second time from the memo
            assert np.array_equal(provider.embed(text),
                                  self.hashed_counts(text, provider.dim))

    def test_memo_that_starts_afresh_within_a_line_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(embedding, "BUCKET_MEMO_ENTRIES", 2)
        provider = HashingProvider(64)
        for text in ["a b c d a b", "c a e a f", "a a a a"]:
            assert np.array_equal(provider.embed(text), self.hashed_counts(text, 64))
            assert len(provider._buckets) <= 2

    def test_vectors_are_pinned(self):
        # any change to the bucketing changes every partition, so fail here
        provider = HashingProvider(512)
        pinned = {
            "start processing 2 alerts for org org_bff943b3ca":
                "bc14d7a785b50b4887a317ebce195e727569dc08cf0bb6916618e228ee18408d",
            "Receiving block blk_-1608999687919862906 src: /10.250.19.102:54106 "
            "dest: /10.250.19.102:50010":
                "777ae87d7688fb23e7b802ef2049c223d385469a21d6b3e362a3c0fcf1853c27",
        }
        for text, sha in pinned.items():
            raw = provider.embed(text).astype("<f8").tobytes()
            assert hashlib.sha256(raw).hexdigest() == sha

    def test_token_overlap_drives_similarity(self, provider):
        a = embed_raw(LogRecord("s", "alpha beta gamma delta"), provider)
        b = embed_raw(LogRecord("s", "alpha beta gamma epsilon"), provider)
        c = embed_raw(LogRecord("s", "one two three four"), provider)
        assert a @ b > a @ c


class TestFuseWordCount:
    def test_definition(self):
        fused = fuse_word_count(np.zeros(3), 5)
        assert np.array_equal(fused, [0, 0, 0, 0.05])

    def test_wc_100_scales_to_one(self):
        assert fuse_word_count(np.zeros(3), 100)[-1] == 1.0

    def test_wc_difference_only_in_last_component(self):
        raw = np.array([0.3, 0.4, 0.5])
        a = fuse_word_count(raw, 3)
        b = fuse_word_count(raw, 30)
        assert np.array_equal(a[:3], b[:3])
        assert b[-1] - a[-1] == pytest.approx(0.27)

    def test_preserves_first_components(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=17)
        assert np.array_equal(fuse_word_count(raw, 9)[:17], raw)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fuse_word_count(np.zeros(3), 0)


class Table:
    """A provider that looks each line's vector up in a table."""

    def __init__(self, vectors):
        self.vectors = {text: np.asarray(v, dtype=float) for text, v in vectors.items()}
        self.dim = len(next(iter(self.vectors.values())))

    def embed(self, text):
        if text == "bad":
            raise ProviderError("HTTP 503")
        return self.vectors[text]


def words(n, tag="w"):
    """A line of n words, so its fused word-count feature is n / 100."""
    return " ".join(f"{tag}{k}" for k in range(n))


def embed_rows(raw, word_counts, weights):
    """embed_log of one record per row of `raw`, with the given word counts."""
    lines = [words(n, f"r{i}x") for i, n in enumerate(word_counts)]
    provider = Table(dict(zip(lines, raw)))
    return embed_log([LogRecord("s", t) for t in lines], provider, weights)


class TestEncode:
    def test_identity_on_unit_input(self):
        w = EncoderWeights.identity_init(3)
        [v] = embed_rows([[1.0, 0.0, 0.0]], [7], w)
        assert np.allclose(v, [1.0, 0.0, 0.0])

    def test_identity_normalizes(self):
        w = EncoderWeights.identity_init(3)
        out = embed_rows([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]], [2, 50], w)
        assert np.allclose(out, [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])

    def test_unit_norm_over_random_draws(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            d_in, h, e = rng.integers(2, 8, size=3)
            w = EncoderLayers(
                w1=rng.normal(size=(h, d_in)), b1=rng.normal(size=h),
                w2=rng.normal(size=(e, h)), b2=rng.normal(size=e),
            ).collapse()
            out = embed_rows(rng.normal(size=(3, d_in - 1)), rng.integers(1, 9, size=3), w)
            assert np.all(np.abs(np.linalg.norm(out, axis=1) - 1.0) <= 1e-6)

    def test_degenerate_norm_rejected(self):
        w = EncoderWeights(np.zeros((2, 2)), np.zeros(2))
        for n in (1, 3):
            out = embed_rows(np.ones((n, 1)), [1] * n, w)
            assert all(isinstance(v, DegenerateEmbeddingError) for v in out)

    def test_only_the_degenerate_rows_fail(self):
        # the map keeps the first component only, so rows 1 and 3 vanish
        w = EncoderWeights(np.array([[1.0, 0.0]]), np.zeros(1))
        out = embed_rows([[2.0], [0.0], [-3.0], [0.0]], [1, 1, 1, 1], w)
        assert np.array_equal(out[0], [1.0]) and np.array_equal(out[2], [-1.0])
        assert isinstance(out[1], DegenerateEmbeddingError)
        assert isinstance(out[3], DegenerateEmbeddingError)

    def test_rows_normalized_as_single_vectors(self):
        # each row's norm as np.linalg.norm takes it, so identity-weight
        # rows equal the one-vector formula bit for bit at any batch size
        rng = np.random.default_rng(8)
        w = EncoderWeights.identity_init(40)
        raw = np.abs(rng.normal(size=(37, 40)))
        counts = rng.integers(1, 30, size=37)
        out = embed_rows(raw, counts, w)
        for k, (row, r) in enumerate(zip(out, raw)):
            assert np.array_equal(row, r / np.linalg.norm(r))
            assert np.array_equal(row, embed_rows(raw[k:k + 1], counts[k:k + 1], w)[0])


class TestCollapsedEncoder:
    def test_matches_the_two_layers_on_random_weights(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(200):
            d_in, h, e = rng.integers(2, 40, size=3)
            w = EncoderLayers(
                w1=rng.normal(size=(h, d_in)), b1=rng.normal(size=h),
                w2=rng.normal(size=(e, h)), b2=rng.normal(size=e),
            )
            lines = [words(int(n), f"r{i}x")
                     for i, n in enumerate(rng.integers(1, 20, size=rng.integers(1, 6)))]
            provider = Table({t: rng.normal(size=d_in - 1) for t in lines})
            out = embed_log([LogRecord("s", t) for t in lines], provider, w.collapse())
            worst = max(worst, max(np.abs(v - oracle_embed(t, provider, w)).max()
                                   for t, v in zip(lines, out)))
        assert worst <= 1e-12

    def test_bit_exact_on_identity_weights(self, corpus, provider, identity_weights):
        records = corpus.records[::50]
        layers = EncoderLayers.identity_init(PROVIDER_DIM)
        for record, v in zip(records, embed_log(records, provider, identity_weights)):
            assert np.array_equal(v, oracle_embed(record.content, provider, layers))

    def test_identity_map_is_the_identity_layers_collapsed(self):
        for d in (1, 3, 40):
            layers = EncoderLayers.identity_init(d).collapse()
            direct = EncoderWeights.identity_init(d)
            assert layers.matrix.tobytes() == direct.matrix.tobytes()
            assert layers.bias.tobytes() == direct.bias.tobytes()

    def test_is_a_frozen_copy(self):
        w = EncoderLayers.identity_init(3)
        collapsed = w.collapse()
        w.w2 += 1.0  # training updates the layers in place
        assert np.array_equal(collapsed.matrix, np.eye(3, 4))
        assert not collapsed.matrix.flags.writeable
        assert not collapsed.bias.flags.writeable


class TestEmbedLog:
    def test_pure_function(self, provider, identity_weights):
        r = LogRecord("s", "alpha beta gamma")
        [a] = embed_log([r], provider, identity_weights)
        [b] = embed_log([r], provider, identity_weights)
        assert np.array_equal(a, b)

    def test_unit_norm(self, provider, identity_weights):
        [v] = embed_log([LogRecord("s", "x y")], provider, identity_weights)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-6

    def test_empty_list(self, provider, identity_weights):
        assert embed_log([], provider, identity_weights) == []

    def test_batch_equals_one_at_a_time(self, corpus, provider, identity_weights):
        records = corpus.records[::7]
        batch = embed_log(records, provider, identity_weights)
        for record, vector in zip(records, batch):
            [alone] = embed_log([record], provider, identity_weights)
            assert np.array_equal(vector, alone)
            assert vector.base is None  # its own array, not a view of the batch

    def test_failures_are_returned_in_place(self):
        # the map keeps the first provider component only: "b" has no direction
        w = EncoderWeights(np.array([[1.0, 0.0, 0.0]]), np.zeros(1))
        provider = Table({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [3.0, 4.0]})
        records = [LogRecord("s", t) for t in ("a", "bad", "b", "c")]
        a, bad, b, c = embed_log(records, provider, w)
        assert np.array_equal(a, [1.0]) and np.array_equal(c, [1.0])
        assert isinstance(bad, ProviderError)
        assert isinstance(b, DegenerateEmbeddingError)

    def test_a_mixed_batch_fails_only_its_bad_records(self, corpus, provider,
                                                      identity_weights):
        # identity weights drop the word count: a zero provider vector has
        # no direction
        class Mixed:
            dim = provider.dim

            def embed(self, text):
                if text.startswith("nan"):
                    return np.full(self.dim, np.nan)
                return provider.embed(text) * (text != "zero")

        records = list(corpus.records[:20:3])
        records[2:2] = [LogRecord("s", "nan here")]
        records[5:5] = [LogRecord("s", "zero")]
        outcomes = embed_log(records, Mixed(), identity_weights)
        assert [type(o) for o in outcomes if isinstance(o, Exception)] == \
            [ProviderError, DegenerateEmbeddingError]
        assert isinstance(outcomes[2], ProviderError)
        assert isinstance(outcomes[5], DegenerateEmbeddingError)
        for record, vector in zip(records, outcomes):
            if not isinstance(vector, Exception):
                [alone] = embed_log([record], provider, identity_weights)
                assert vector.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("row", [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
                             ids=["norm-overflows", "row-overflows"])
    def test_a_row_too_large_to_scale_fails_its_record(self, row):
        # finite provider values above about 1e154 square past the float
        # range: the row's norm is inf, and scaling by it leaves no direction
        w = EncoderWeights(np.array([row, [0.0, 1.0, 0.0]]), np.zeros(2))
        provider = Table({"a": [1.0, 0.0], "huge": [1e308, 1e308], "c": [0.0, 4.0]})
        records = [LogRecord("s", t) for t in ("a", "huge", "c")]
        a, huge, c = embed_log(records, provider, w)
        assert isinstance(huge, DegenerateEmbeddingError)
        assert np.array_equal(a, [1.0, 0.0])
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-12

    def test_fixture_corpus_separation(self, corpus, provider, identity_weights):
        from logsift.synthetic import similarity_margins

        min_within, max_cross = similarity_margins(corpus, provider, identity_weights)
        assert min_within > 0.9
        assert max_cross < 0.9


class TestEncoderWeights:
    def test_dim_consistency_checked(self):
        for matrix, bias in [(np.zeros((3, 2)), np.zeros(2)), (np.zeros(3), np.zeros(3)),
                             (np.zeros((2, 3)), np.zeros((2, 1)))]:
            with pytest.raises(ConfigError):
                EncoderWeights(matrix, bias)

    def test_rejects_nonfinite(self):
        matrix = np.zeros((2, 2))
        matrix[0, 0] = np.nan
        with pytest.raises(ConfigError):
            EncoderWeights(matrix, np.zeros(2))
        with pytest.raises(ConfigError):
            EncoderWeights(np.zeros((2, 2)), [0.0, np.inf])

    def test_holds_a_read_only_copy(self):
        matrix, bias = np.eye(2, 3), np.zeros(2)
        w = EncoderWeights(matrix, bias)
        matrix[0, 0] = bias[0] = 5.0
        assert np.array_equal(w.matrix, np.eye(2, 3)) and np.array_equal(w.bias, [0, 0])
        assert matrix.flags.writeable
        assert not w.matrix.flags.writeable and not w.bias.flags.writeable

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        w = EncoderLayers(w1=rng.normal(size=(5, 4)), b1=rng.normal(size=5),
                          w2=rng.normal(size=(3, 5)), b2=rng.normal(size=3)).collapse()
        path = tmp_path / "weights.json"
        w.save(str(path))
        doc = json.loads(path.read_text())
        assert (doc["version"], doc["input_dim"], doc["output_dim"]) == (2, 4, 3)
        assert isinstance(doc["matrix"], str) and isinstance(doc["bias"], str)
        loaded = EncoderWeights.load(str(path))
        assert loaded.matrix.shape == (3, 4)
        assert loaded.matrix.tobytes() == w.matrix.tobytes()
        assert loaded.bias.tobytes() == w.bias.tobytes()
        assert not loaded.matrix.flags.writeable and not loaded.bias.flags.writeable

    def test_version_1_loads_to_the_two_layers_multiplied_out(self, tmp_path):
        rng = np.random.default_rng(5)
        for h, d_in, e in [(5, 4, 3), (48, 33, 64), (1, 2, 1)]:
            layers = EncoderLayers(w1=rng.normal(size=(h, d_in)), b1=rng.normal(size=h),
                                   w2=rng.normal(size=(e, h)), b2=rng.normal(size=e))
            path = str(tmp_path / "v1.json")
            write_v1_weights(layers, path)
            loaded = EncoderWeights.load(path)
            # the order the factors were multiplied out in before version 2
            assert loaded.matrix.tobytes() == (layers.w2 @ layers.w1).tobytes()
            assert loaded.bias.tobytes() == (layers.w2 @ layers.b1 + layers.b2).tobytes()
            assert not loaded.matrix.flags.writeable and not loaded.bias.flags.writeable
            resaved = str(tmp_path / "v2.json")
            loaded.save(resaved)
            again = EncoderWeights.load(resaved)
            assert again.matrix.tobytes() == loaded.matrix.tobytes()
            assert again.bias.tobytes() == loaded.bias.tobytes()


@pytest.mark.parametrize("doc", [
    "[1, 2]",
    "not json",
    '{"version": 3, "input_dim": 2, "output_dim": 1, "matrix": "", "bias": ""}',
    '{"version": 1, "w1": [[1.0]], "b1": [0.0], "w2": [[1.0]]}',
    '{"version": 1, "w1": [1.0, 2.0], "b1": [0.0], "w2": [[1.0]], "b2": [0.0]}',
    '{"version": 1, "w1": [["x"]], "b1": [0.0], "w2": [[1.0]], "b2": [0.0]}',
    *(json.dumps(doc) for doc in MALFORMED_V2_WEIGHTS.values()),
    *(json.dumps(doc) for doc in MALFORMED_V1_WEIGHTS.values()),
], ids=["not-an-object", "not-json", "version-3", "missing-b2", "1d-w1", "not-numbers",
        *(f"v2-{name}" for name in MALFORMED_V2_WEIGHTS),
        *(f"v1-{name}" for name in MALFORMED_V1_WEIGHTS)])
def test_malformed_weights_file_is_a_config_error(tmp_path, doc):
    path = tmp_path / "weights.json"
    path.write_text(doc)
    with pytest.raises(ConfigError):
        EncoderWeights.load(str(path))


def test_loading_a_512_d_map_takes_a_small_multiple_of_its_floats(tmp_path):
    path = str(tmp_path / "weights.json")
    weights = EncoderWeights.identity_init(PROVIDER_DIM)
    weights.save(path)
    floats = weights.matrix.nbytes + weights.bias.nbytes  # 2.1 MB
    tracemalloc.start()
    try:
        EncoderWeights.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured 3.7x: the file's text, its base64 strings, their bytes and
    # the map's own copy; a version 1 file of this map parses at 12.2x
    assert peak < 5 * floats, peak / floats
