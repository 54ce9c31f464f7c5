import hashlib
import io
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from logsift import (
    EncoderWeights,
    HashingProvider,
    LogRecord,
    embed_log,
)
from logsift import embedding
from logsift.errors import ConfigError, DegenerateEmbeddingError, ProviderError

from conftest import (
    MALFORMED_NPY_WEIGHTS,
    PROVIDER_DIM,
    identity_layers,
    layers_map,
    npy_bytes,
    npy_header,
    random_layers,
)
from oracles import oracle_embed, oracle_encode


class TestLogRecord:
    def test_word_count(self):
        assert LogRecord("s", "a b  a").word_count == 3

    def test_empty_after_trim_rejected(self):
        with pytest.raises(ValueError):
            LogRecord("s", "   ")


class TestEmbedRaw:
    def test_deterministic(self, provider):
        assert np.array_equal(provider.embed("a b a"), provider.embed("a b a"))

    def test_realistic_log_line(self, provider, identity_weights):
        r = LogRecord("s", "start processing 2 alerts for org org_bff943b3ca")
        v = embed_log(r, provider, identity_weights)
        assert v.shape == (provider.dim,)
        assert np.all(np.isfinite(v))

    def test_unit_norm(self, provider):
        v = provider.embed("x y z")
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

    @pytest.mark.parametrize("dim", [2, 512, 1000])
    def test_a_bucket_is_the_tokens_blake2b_modulo_dim(self, monkeypatch, dim):
        monkeypatch.setattr(embedding, "BUCKET_MEMO_ENTRIES", 3)
        # a lone surrogate (as a byte that is not UTF-8 reads, or any other)
        # hashes as its three "surrogatepass" bytes
        tokens = ["ERROR", "blk_-1608999687919862906", "héllo", "日志", "x" * 300,
                  "/10.250.19.102:54106", "ERROR", "on\udcffdisk", "\ud800"]
        memo = embedding._BucketMemo(dim)
        for token in tokens + tokens:  # the memo starts afresh every 3 tokens
            digest = hashlib.blake2b(token.encode("utf-8", "surrogatepass"),
                                     digest_size=8).digest()
            assert memo[token] == int.from_bytes(digest, "big") % dim
            assert len(memo) <= 3

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
        a = provider.embed("alpha beta gamma delta")
        b = provider.embed("alpha beta gamma epsilon")
        c = provider.embed("one two three four")
        assert a @ b > a @ c


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


def outcome(record, provider, weights):
    """embed_log's vector for `record`, or the RECORD_ERRORS instance it raised."""
    try:
        return embed_log(record, provider, weights)
    except embedding.RECORD_ERRORS as exc:
        return exc


def embed_rows(raw, word_counts, weights):
    """The outcome of one record per row of `raw`, with the given word
    counts, each embedded alone."""
    lines = [words(n, f"r{i}x") for i, n in enumerate(word_counts)]
    provider = Table(dict(zip(lines, raw)))
    return [outcome(LogRecord("s", t), provider, weights) for t in lines]


def fuse_one(raw, word_count):
    """The fused row of one line of `word_count` words whose provider vector
    is `raw`."""
    line = words(word_count)
    return embedding._fuse(LogRecord("s", line), Table({line: raw}))


class TestFuseWordCount:
    def test_definition(self):
        fused = fuse_one(np.zeros(3), 5)
        assert np.array_equal(fused, [0, 0, 0, 0.05])

    def test_wc_100_scales_to_one(self):
        assert fuse_one(np.zeros(3), 100)[-1] == 1.0

    def test_wc_difference_only_in_last_component(self):
        raw = np.array([0.3, 0.4, 0.5])
        a = fuse_one(raw, 3)
        b = fuse_one(raw, 30)
        assert np.array_equal(a[:3], b[:3])
        assert b[-1] - a[-1] == pytest.approx(0.27)

    def test_preserves_first_components(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=17)
        assert np.array_equal(fuse_one(raw, 9)[:17], raw)


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
            w = layers_map(*random_layers(rng, h, d_in, e))
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
        # each vector's norm as np.linalg.norm takes it, so identity-weight
        # vectors equal the one-vector formula bit for bit
        rng = np.random.default_rng(8)
        w = EncoderWeights.identity_init(40)
        raw = np.abs(rng.normal(size=(37, 40)))
        counts = rng.integers(1, 30, size=37)
        for row, r in zip(embed_rows(raw, counts, w), raw, strict=True):
            assert np.array_equal(row, r / np.linalg.norm(r))


def provider_rows(rng, n, dim):
    """n provider rows of mixed signs with -0.0, +0.0 and subnormal entries;
    every third row holds a value near 1e300, too large to scale, and every
    fifth one near 1e150, which still scales."""
    raw = rng.normal(size=(n, dim))
    pick = rng.random((n, dim))
    raw[pick < 0.3] = -0.0
    raw[(0.3 <= pick) & (pick < 0.4)] = 0.0
    tiny = (0.4 <= pick) & (pick < 0.55)
    raw[tiny] = rng.choice([5e-324, -5e-324, 2.5e-310, -1e-315], size=tiny.sum())
    raw[4::5] *= 1e150
    raw[2::3, -1] = rng.choice([1e300, -1.7e300], size=len(raw[2::3]))
    return raw


def assert_is_the_product(out, raw, word_counts, weights):
    fused = np.column_stack([raw, np.asarray(word_counts) / 100.0])
    for got, row in zip(out, fused, strict=True):
        want = oracle_encode(row, weights.matrix, weights.bias)
        if want is None:
            assert isinstance(got, DegenerateEmbeddingError)
        else:
            assert got.tobytes() == want.tobytes()


IDENTITY_KINDS = ["identity_init", "constructed", "npy-file", "fortran-npy-file"]


def identity_map(kind, dim, tmp_path):
    """The identity for a dim-d provider, built, constructed from eye(E, E+1)
    and zeros, or read back from a C-order or a Fortran-order file, as
    `kind` says."""
    path = tmp_path / f"{kind}.weights"
    if kind == "constructed":
        return EncoderWeights(np.eye(dim, dim + 1), np.zeros(dim))
    if kind == "npy-file":
        EncoderWeights.identity_init(dim).save(str(path))
    elif kind == "fortran-npy-file":
        path.write_bytes(npy_bytes(np.asfortranarray(np.eye(dim, dim + 2))))
    else:
        return EncoderWeights.identity_init(dim)
    return EncoderWeights.load(str(path))


# maps one entry away from the identity, as (array, index, value) set on
# eye(E, E+1) and a +0.0 bias; a provider row starting [-0.0, 1.0] makes a
# copy of the provider columns differ from the product
NEAR_IDENTITY = {
    "off-diagonal-5e-324": ("matrix", (0, 1), 5e-324),
    "diagonal-below-1": ("matrix", (1, 1), np.nextafter(1.0, 0.0)),
    "bias-minus-zero": ("bias", 0, -0.0),
    "plus-word-count": ("matrix", (-1, -1), 1.0),
    "diagonal-above-1": ("matrix", (1, 1), np.nextafter(1.0, 2.0)),
    # in the last row, which `load` reads in its last block
    "last-row-5e-324": ("matrix", (-1, 1), 5e-324),
}


class TestIdentityCopy:
    """embed_log adds the +0.0 bias to the provider columns for the identity
    map and takes the 1-row product for any other map: either way, the
    product's bytes."""

    @pytest.mark.parametrize("dim", [2, 8, 512])
    @pytest.mark.parametrize("kind", IDENTITY_KINDS)
    def test_identity_maps_give_the_product_byte_for_byte(self, kind, dim, tmp_path):
        weights = identity_map(kind, dim, tmp_path)
        assert weights._identity
        rng = np.random.default_rng(dim)
        for n in (1, 7, 256):
            raw, counts = provider_rows(rng, n, dim), rng.integers(1, 40, size=n)
            assert_is_the_product(embed_rows(raw, counts, weights), raw, counts, weights)

    @pytest.mark.parametrize("dim", [1, 8, 512])
    @pytest.mark.parametrize("kind", IDENTITY_KINDS)
    def test_identity_maps_are_held_as_their_bias(self, kind, dim, tmp_path):
        weights = identity_map(kind, dim, tmp_path)
        assert weights._identity and weights._packed is None
        assert weights.matrix.tobytes() == np.eye(dim, dim + 1).tobytes()
        assert weights.bias.tobytes() == np.zeros(dim).tobytes()
        assert not weights.bias.flags.writeable
        assert_held_read_only(weights)
        weights.save(str(tmp_path / "saved.npy"))
        assert (tmp_path / "saved.npy").read_bytes() == npy_bytes(np.eye(dim, dim + 2))

    @pytest.mark.parametrize("dim", [8, 512])
    @pytest.mark.parametrize("case", [*NEAR_IDENTITY, "square-eye", "shifted-eye",
                                      *(f"{name}-npy-file" for name in NEAR_IDENTITY)])
    def test_near_identity_maps_take_the_product(self, case, dim, tmp_path):
        if case == "square-eye":
            weights = EncoderWeights(np.eye(dim + 1), np.zeros(dim + 1))
        elif case == "shifted-eye":  # keeps the word-count column, drops x_0
            weights = EncoderWeights(np.eye(dim, dim + 1, k=1), np.zeros(dim))
        else:
            arrays = {"matrix": np.eye(dim, dim + 1), "bias": np.zeros(dim)}
            name, at, value = NEAR_IDENTITY[case.removesuffix("-npy-file")]
            arrays[name][at] = value
            weights = EncoderWeights(**arrays)
            if case.endswith("-npy-file"):
                weights.save(str(tmp_path / "w.npy"))
                weights = EncoderWeights.load(str(tmp_path / "w.npy"))
        assert not weights._identity
        rng = np.random.default_rng(dim)
        for n in (1, 7):
            raw, counts = rng.normal(size=(n, dim)), rng.integers(1, 40, size=n)
            raw[0, :3] = [-0.0, 1.0, 0.5]
            raw[0, 3:] = 0.0  # a norm below 2 keeps 5e-324 from rounding away
            out = embed_rows(raw, counts, weights)
            assert_is_the_product(out, raw, counts, weights)
            # where a copy of the provider columns gives other bytes
            copied = raw + weights.bias[:dim]
            assert any(v.tobytes() != (c / np.linalg.norm(c)).tobytes()
                       for v, c in zip(out, copied))


def near_identity_file(case, dim):
    """The bytes of a .npy file of eye(dim, dim+2) one entry away (a
    NEAR_IDENTITY case, or its last float 5e-324), cut short, followed by
    more bytes, or under a version 2.0 header, as `case` says."""
    packed = np.eye(dim, dim + 2)
    if case in NEAR_IDENTITY:
        name, at, value = NEAR_IDENTITY[case]
        (packed[:, :-1] if name == "matrix" else packed[:, -1])[at] = value
    elif case == "last-float-5e-324":
        packed[-1, -1] = 5e-324
    elif case == "version-2.0":
        buf = io.BytesIO()
        np.lib.format.write_array(buf, packed, version=(2, 0))
        return buf.getvalue()
    data = npy_bytes(packed)
    return {"4-bytes-short": data[:-4], "trailing-bytes": data + bytes(8)}.get(case, data)


@pytest.mark.parametrize("dim", [2, 512])
@pytest.mark.parametrize("case", [*NEAR_IDENTITY, "last-float-5e-324", "4-bytes-short",
                                  "trailing-bytes", "version-2.0"])
def test_a_file_near_the_identity_loads_as_np_load_reads_it(case, dim, tmp_path):
    """Each loads to the map np.load reads, dense unless it is eye(E, E+2) to
    the bit, or to the ConfigError of np.load's error."""
    path = tmp_path / "w.npy"
    path.write_bytes(near_identity_file(case, dim))
    try:
        packed = np.load(path, allow_pickle=False)
    except ValueError as exc:
        with pytest.raises(ConfigError, match=re.escape(str(exc))):
            EncoderWeights.load(str(path))
        return
    loaded = EncoderWeights.load(str(path))
    identity = packed.tobytes() == np.eye(dim, dim + 2).tobytes()
    assert identity == (case in ("trailing-bytes", "version-2.0"))
    assert loaded._identity == identity == (loaded._packed is None)
    assert loaded.matrix.tobytes() == packed[:, :-1].tobytes()
    assert loaded.bias.tobytes() == packed[:, -1].tobytes()
    if not identity:
        assert loaded._packed.tobytes() == packed.tobytes()


class TestCollapsedEncoder:
    def test_matches_the_two_layers_on_random_weights(self):
        # a version 1 file's two layers, applied in turn to each line alone
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(200):
            d_in, h, e = rng.integers(2, 40, size=3)
            w1, b1, w2, b2 = random_layers(rng, h, d_in, e)
            lines = [words(int(n), f"r{i}x")
                     for i, n in enumerate(rng.integers(1, 20, size=rng.integers(1, 6)))]
            provider = Table({t: rng.normal(size=d_in - 1) for t in lines})
            weights = layers_map(w1, b1, w2, b2)
            for t in lines:
                v = embed_log(LogRecord("s", t), provider, weights)
                fused = np.append(provider.embed(t), len(t.split()) / 100.0)
                want = w2 @ (w1 @ fused + b1) + b2
                worst = max(worst, np.abs(v - want / np.linalg.norm(want)).max())
        assert worst <= 1e-12

    def test_bit_exact_on_identity_weights(self, corpus, provider, identity_weights):
        for record in corpus.records[::50]:
            assert np.array_equal(embed_log(record, provider, identity_weights),
                                  oracle_embed(record.content, provider, identity_weights))

    def test_identity_map_is_the_identity_layers_collapsed(self):
        for d in (1, 3, 40):
            layers = layers_map(*identity_layers(d))
            direct = EncoderWeights.identity_init(d)
            assert layers.matrix.tobytes() == direct.matrix.tobytes()
            assert layers.bias.tobytes() == direct.bias.tobytes()


class TestEmbedLog:
    def test_pure_function(self, provider, identity_weights):
        r = LogRecord("s", "alpha beta gamma")
        a = embed_log(r, provider, identity_weights)
        b = embed_log(r, provider, identity_weights)
        assert np.array_equal(a, b)
        assert a.base is None and b.base is None  # arrays of their own

    def test_batch_equals_one_at_a_time(self, corpus, provider):
        # a run of records leaves nothing behind that changes a later
        # record's vector: each has the bytes it gets alone, from a fresh
        # provider, in the reverse order, at the identity map and a dense one
        rng = np.random.default_rng(5)
        dense = EncoderWeights(rng.normal(size=(provider.dim, provider.dim + 1)) * 0.1,
                               rng.normal(size=provider.dim) * 0.01)
        records = corpus.records[::7]
        for weights in (EncoderWeights.identity_init(provider.dim), dense):
            in_a_run = [embed_log(r, provider, weights) for r in records]
            alone = [embed_log(r, HashingProvider(dim=provider.dim), weights)
                     for r in reversed(records)][::-1]
            assert [v.tobytes() for v in in_a_run] == [v.tobytes() for v in alone]

    def test_unit_norm(self, provider, identity_weights):
        v = embed_log(LogRecord("s", "x y"), provider, identity_weights)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-6

    def test_failures_are_raised_per_record(self):
        # the map keeps the first provider component only: "b" has no direction
        w = EncoderWeights(np.array([[1.0, 0.0, 0.0]]), np.zeros(1))
        provider = Table({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [3.0, 4.0]})
        assert np.array_equal(embed_log(LogRecord("s", "a"), provider, w), [1.0])
        with pytest.raises(ProviderError):
            embed_log(LogRecord("s", "bad"), provider, w)
        with pytest.raises(DegenerateEmbeddingError):
            embed_log(LogRecord("s", "b"), provider, w)
        assert np.array_equal(embed_log(LogRecord("s", "c"), provider, w), [1.0])

    @pytest.mark.parametrize("kind", ["identity", "dense"])
    def test_only_the_bad_records_fail(self, corpus, provider, kind):
        # the identity map finds a non-finite provider vector from the
        # output's norm, a dense map checks the fused row before its product
        # (an inf - inf in the product would warn, and warnings fail here)
        if kind == "identity":
            weights = EncoderWeights.identity_init(provider.dim)
        else:
            rng = np.random.default_rng(11)
            weights = EncoderWeights(rng.normal(size=(provider.dim, provider.dim + 1)) * 0.1,
                                     rng.normal(size=provider.dim) * 0.01)
        non_finite = (ProviderError, "provider returned non-finite values")
        overflows = (DegenerateEmbeddingError,
                     "encoder output norm inf cannot be scaled to unit length")
        # line -> the values its provider row holds from its fourth entry
        # on, and the error it fails with (None: it embeds). In a product,
        # +inf and -inf in one row would make inf - inf; the identity map
        # drops the word count, so a zero provider row has no direction there
        bad = {"nan": ([np.nan], non_finite), "+inf": ([np.inf], non_finite),
               "-inf": ([-np.inf], non_finite), "+-inf": ([np.inf, -np.inf], non_finite),
               "1e300": ([1e300], overflows),
               "zero": (0.0, (DegenerateEmbeddingError, "encoder output norm 0 "
                              "cannot be scaled to unit length")
                        if kind == "identity" else None),
               "down": (None, (ProviderError, "HTTP 503"))}

        class Mixed:
            dim = provider.dim

            def embed(self, text):
                if text == "down":
                    raise ProviderError("HTTP 503")
                values = provider.embed(text)
                if text == "zero":
                    return values * 0.0
                if text in bad:
                    values = values.copy()
                    values[3:3 + len(bad[text][0])] = bad[text][0]
                return values

        records = [*corpus.records[:20:3], *(LogRecord("s", text) for text in bad)]
        good = 0
        for record in records:
            got = outcome(record, Mixed(), weights)
            want = bad.get(record.content, (None, None))[1]
            if want is None:
                assert got.tobytes() == oracle_embed(record.content, Mixed(), weights).tobytes()
                good += 1
            else:
                assert (type(got), str(got)) == want
        assert good == len(records) - (7 if kind == "identity" else 6)

    @pytest.mark.parametrize("row", [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
                             ids=["norm-overflows", "row-overflows"])
    def test_a_row_too_large_to_scale_fails_its_record(self, row):
        # finite provider values above about 1e154 square past the float
        # range: the row's norm is inf, and scaling by it leaves no direction
        w = EncoderWeights(np.array([row, [0.0, 1.0, 0.0]]), np.zeros(2))
        provider = Table({"a": [1.0, 0.0], "huge": [1e308, 1e308], "c": [0.0, 4.0]})
        with pytest.raises(DegenerateEmbeddingError, match="norm inf cannot be scaled"):
            embed_log(LogRecord("s", "huge"), provider, w)
        assert np.array_equal(embed_log(LogRecord("s", "a"), provider, w), [1.0, 0.0])
        c = embed_log(LogRecord("s", "c"), provider, w)
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-12

    def test_fixture_corpus_separation(self, corpus, provider, identity_weights):
        from logsift.synthetic import similarity_margins

        min_within, max_cross = similarity_margins(corpus, provider, identity_weights)
        assert min_within > 0.9
        assert max_cross < 0.9


def assert_held_read_only(w):
    """Neither the map's array nor its attributes can be changed."""
    with pytest.raises(ValueError, match="WRITEABLE"):
        w.matrix.flags.writeable = True
    with pytest.raises(AttributeError):
        w.matrix = np.eye(2, 3)


class TestEncoderWeights:
    def test_dim_consistency_checked(self):
        for matrix, bias in [(np.zeros((3, 2)), np.zeros(2)), (np.zeros(3), np.zeros(3)),
                             (np.zeros((2, 3)), np.zeros((2, 1)))]:
            with pytest.raises(ConfigError):
                EncoderWeights(matrix, bias)

    def test_rejects_nonfinite(self):
        for at in ((0, 0), (1, -1)):  # a provider column and the word-count column
            matrix = np.zeros((2, 2))
            matrix[at] = np.nan
            with pytest.raises(ConfigError):
                EncoderWeights(matrix, np.zeros(2))
        with pytest.raises(ConfigError):
            EncoderWeights(np.zeros((2, 2)), [0.0, np.inf])

    def test_compared_and_hashed_by_identity(self):
        a, b = EncoderWeights.identity_init(2), EncoderWeights.identity_init(2)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_holds_a_read_only_copy(self):
        matrix, bias = np.eye(2, 3), np.zeros(2)
        w = EncoderWeights(matrix, bias)
        matrix[0, 0] = bias[0] = 5.0
        assert np.array_equal(w.matrix, np.eye(2, 3)) and np.array_equal(w.bias, [0, 0])
        assert matrix.flags.writeable
        assert not w.matrix.flags.writeable and not w.bias.flags.writeable
        assert_held_read_only(w)

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        w = layers_map(*random_layers(rng, 5, 4, 3))
        path = tmp_path / "weights.npy"
        w.save(str(path))
        assert path.read_bytes().startswith(b"\x93NUMPY")
        packed = np.load(path, allow_pickle=False)
        assert (packed.dtype.str, packed.shape) == ("<f8", (3, 5))
        assert packed[:, :-1].tobytes() == w.matrix.tobytes()
        assert packed[:, -1].tobytes() == w.bias.tobytes()
        loaded = EncoderWeights.load(str(path))
        assert loaded.matrix.shape == (3, 4)
        assert loaded.matrix.tobytes() == w.matrix.tobytes()
        assert loaded.bias.tobytes() == w.bias.tobytes()
        assert not loaded.matrix.flags.writeable and not loaded.bias.flags.writeable
        assert_held_read_only(loaded)


@pytest.mark.parametrize("doc", [
    "[1, 2]",
    "not json",
    '{"version": 3, "input_dim": 2, "output_dim": 1, "matrix": "", "bias": ""}',
    '{"version": 1, "w1": [[1.0]], "b1": [0.0], "w2": [[1.0]]}',
    '{"version": 1, "w1": [1.0, 2.0], "b1": [0.0], "w2": [[1.0]], "b2": [0.0]}',
    '{"version": 1, "w1": [["x"]], "b1": [0.0], "w2": [[1.0]], "b2": [0.0]}',
    *MALFORMED_NPY_WEIGHTS.values(),
], ids=["not-an-object", "not-json", "version-3", "missing-b2", "1d-w1", "not-numbers",
        *(f"npy-{name}" for name in MALFORMED_NPY_WEIGHTS)])
def test_malformed_weights_file_is_a_config_error(tmp_path, doc):
    path = tmp_path / "weights.json"
    path.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    # a text file, such as the JSON weights of earlier versions, is told how to convert
    convert = None if isinstance(doc, bytes) else re.escape("EncoderWeights.load(path).save(path)")
    with pytest.raises(ConfigError, match=convert):
        EncoderWeights.load(str(path))


def extreme_map():
    """-0.0, subnormals and +-1e308 among the matrix and bias entries."""
    matrix = np.array([[-0.0, 5e-324, 1e308, 1.0],
                       [-1e308, -2.2250738585072014e-308 / 3, 0.0, np.nextafter(1e308, 0)]])
    return EncoderWeights(matrix, np.array([-0.0, -5e-324]))


WEIGHT_MAPS = {
    "identity": lambda: EncoderWeights.identity_init(PROVIDER_DIM),
    "dense": lambda: EncoderWeights(np.random.default_rng(7).normal(size=(64, 33)),
                                    np.random.default_rng(8).normal(size=64)),
    "extremes": extreme_map,
    "overflowing-sum": lambda: EncoderWeights(np.full((3, 4), 1.7e308), np.full(3, 1.7e308)),
}


@pytest.mark.parametrize("name", WEIGHT_MAPS)
def test_npy_round_trip_is_bit_exact(tmp_path, name):
    w = WEIGHT_MAPS[name]()
    path = str(tmp_path / "weights.npy")
    w.save(path)
    loaded = EncoderWeights.load(path)
    assert loaded.matrix.tobytes() == w.matrix.tobytes()
    assert loaded.bias.tobytes() == w.bias.tobytes()
    assert loaded._identity == w._identity == (name == "identity")


@pytest.mark.parametrize("shape", [(64, 65), (512, 513)])
def test_a_loaded_dense_map_gives_the_product_of_a_contiguous_copy(tmp_path, shape):
    rng = np.random.default_rng(shape[0])
    path = str(tmp_path / "weights.npy")
    EncoderWeights(rng.normal(size=shape), rng.normal(size=shape[0])).save(path)
    loaded = EncoderWeights.load(path)
    assert not loaded.matrix.flags.c_contiguous  # a view of the file's one array
    dense = SimpleNamespace(matrix=np.ascontiguousarray(loaded.matrix), bias=loaded.bias)
    for n in (1, 7, 256):
        raw, counts = rng.normal(size=(n, shape[1] - 1)), rng.integers(1, 40, size=n)
        assert_is_the_product(embed_rows(raw, counts, loaded), raw, counts, dense)


def test_a_fortran_order_npy_file_loads_to_the_same_bits(tmp_path):
    w = WEIGHT_MAPS["dense"]()
    packed = np.asfortranarray(np.column_stack((w.matrix, w.bias)))
    path = tmp_path / "fortran.npy"
    path.write_bytes(npy_bytes(packed))
    assert b"'fortran_order': True" in path.read_bytes()[:128]
    loaded = EncoderWeights.load(str(path))
    assert loaded.matrix.tobytes() == w.matrix.tobytes()
    assert loaded.bias.tobytes() == w.bias.tobytes()
    assert loaded._packed.flags.c_contiguous


def test_a_fortran_order_matrix_is_held_and_saved_in_c_order(tmp_path):
    w = WEIGHT_MAPS["dense"]()
    built = EncoderWeights(np.asfortranarray(w.matrix), w.bias)
    assert built._packed.flags.c_contiguous
    built.save(str(tmp_path / "built.npy"))
    w.save(str(tmp_path / "dense.npy"))
    assert (tmp_path / "built.npy").read_bytes() == (tmp_path / "dense.npy").read_bytes()


UNPICKLED = []


def record_unpickling(what):
    UNPICKLED.append(what)


class RunsCodeWhenUnpickled:
    def __reduce__(self):
        return record_unpickling, ("unpickled",)


def test_an_npy_file_of_objects_is_never_unpickled(tmp_path):
    path = tmp_path / "weights.npy"
    path.write_bytes(npy_bytes(np.array([[RunsCodeWhenUnpickled(), 0.0, 0.0]], dtype=object),
                               allow_pickle=True))
    with pytest.raises(ConfigError, match="Object arrays"):
        EncoderWeights.load(str(path))
    assert UNPICKLED == []
    np.load(path, allow_pickle=True)  # the file does run code when unpickled
    assert UNPICKLED == ["unpickled"]
    UNPICKLED.clear()


# the bytes of a 512-d map's floats, E x (E+2) of them: 2.1 MB
MAP_512_BYTES = PROVIDER_DIM * (PROVIDER_DIM + 2) * 8


def traced(build):
    """What `build()` returns, with the bytes it held when it returned and at
    its peak (tracemalloc)."""
    tracemalloc.start()
    try:
        out = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current, peak


def test_loading_a_512_d_map_takes_a_small_multiple_of_its_floats(tmp_path):
    rng = np.random.default_rng(5)
    for weights in (EncoderWeights.identity_init(PROVIDER_DIM),
                    EncoderWeights(rng.normal(size=(PROVIDER_DIM, PROVIDER_DIM + 1)),
                                   rng.normal(size=PROVIDER_DIM))):
        path = str(tmp_path / "weights.json")
        weights.save(path)
        loaded, _, peak = traced(lambda: EncoderWeights.load(path))
        assert loaded._identity == weights._identity
        # measured 1.0x for the dense map: the array np.load reads is the map's own
        assert peak < 1.2 * MAP_512_BYTES, peak / MAP_512_BYTES


def test_saving_a_512_d_identity_map_holds_one_copy_of_its_floats(tmp_path):
    # measured 1.003x: np.save of the one eye(E, E+2) that save builds
    _, _, peak = traced(lambda: EncoderWeights.identity_init(PROVIDER_DIM).save(
        str(tmp_path / "weights.npy")))
    assert peak < 1.2 * MAP_512_BYTES, peak / MAP_512_BYTES


def test_an_identity_header_is_checked_against_the_file_before_a_row_is_read(tmp_path):
    # one row of the map this header claims would take 8 MB
    path = tmp_path / "weights.npy"
    path.write_bytes(npy_header((10 ** 6, 10 ** 6 + 2)) + npy_bytes(np.eye(2, 4))[-64:])
    with open(path, "rb") as fh:
        dim, _, peak = traced(lambda: embedding._identity_dim(fh))
    assert dim == 0 and peak < 100_000, peak


@pytest.mark.parametrize("dim, bound", [(PROVIDER_DIM, 64 * 1024), (1536, 100_000)])
def test_the_identity_is_held_in_o_of_e_memory(tmp_path, dim, bound):
    # measured 8.7 KB built and 9.8 KB loaded at E = 512, 25 and 26 KB at
    # 1536; an E x (E+2) array would hold 2.1 MB and 18.9 MB
    weights, held, _ = traced(lambda: EncoderWeights.identity_init(dim))
    assert held < bound, held
    path = tmp_path / "weights.npy"
    weights.save(str(path))
    loaded, held, peak = traced(lambda: EncoderWeights.load(str(path)))
    assert loaded._identity and held < bound, held
    # measured 0.13x at E = 512: one buffer of rows, read over and over
    assert peak < 0.25 * path.stat().st_size, peak / path.stat().st_size


def test_building_a_512_d_map_holds_little_beyond_its_copy():
    # measured 1.0x: the map's own copy; neither telling the identity apart
    # nor the finiteness check builds another E x (E+2) array (a
    # comparison with np.eye peaks past 2x)
    rng = np.random.default_rng(6)
    for matrix in (np.eye(PROVIDER_DIM, PROVIDER_DIM + 1),
                   rng.normal(size=(PROVIDER_DIM, PROVIDER_DIM + 1))):
        bias = np.zeros(PROVIDER_DIM)
        tracemalloc.start()
        try:
            EncoderWeights(matrix, bias)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * matrix.nbytes, peak / matrix.nbytes
