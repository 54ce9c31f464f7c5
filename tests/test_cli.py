import base64
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from logsift import cli
from logsift.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_PROVIDER,
    build_arg_parser,
    main,
    parse_args,
)
from logsift.embedding import EncoderWeights
from logsift.errors import ProviderError
from logsift.index import CentroidIndex
from logsift.rebalance import rebalance
from logsift.synthetic import generate_corpus

from conftest import (
    MALFORMED_NPY_WEIGHTS,
    MALFORMED_V1_WEIGHTS,
    MALFORMED_V2_WEIGHTS,
    identity_layers,
    layers_map,
    random_layers,
    write_v1_snapshot,
    write_v1_weights,
    write_v2_weights,
)


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory):
    corpus = generate_corpus(n_templates=5, logs_per_template=20, seed=7)
    path = tmp_path_factory.mktemp("data") / "corpus.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["LineId", "Content", "EventTemplate"])
        for i, (record, tid) in enumerate(zip(corpus.records, corpus.template_ids)):
            writer.writerow([i, record.content, corpus.template_texts[tid]])
    return str(path)


@pytest.fixture
def zero_weights(tmp_path):
    """A weights file for an 8-d provider that maps every log to zero."""
    path = str(tmp_path / "zero.npy")
    EncoderWeights(np.zeros((8, 9)), np.zeros(8)).save(path)
    return path


class TestIngestCommand:
    def test_fixture_run_produces_expected_clusters(self, corpus_csv, tmp_path):
        snap = str(tmp_path / "snap.json")
        assigns = str(tmp_path / "assign.jsonl")
        templates = str(tmp_path / "templates.json")
        rc = main(["ingest", "--input", corpus_csv, "--snapshot-out", snap,
                   "--assignments-out", assigns, "--templates-out", templates])
        assert rc == EXIT_OK
        index = CentroidIndex.load(snap)
        assert len(index) == 5
        assert index.total_weight() == 100
        lines = Path(assigns).read_text().splitlines()
        assert len(lines) == 100
        assert json.loads(lines[0])["created_new"] is True

    def test_missing_credentials_is_config_error(self, corpus_csv, tmp_path,
                                                 monkeypatch):
        monkeypatch.delenv("EMBEDDING_API_KEY", raising=False)
        rc = main(["ingest", "--input", corpus_csv,
                   "--snapshot-out", str(tmp_path / "s.json"),
                   "--provider", "remote",
                   "--provider-url", "http://example.invalid",
                   "--provider-model", "m", "--provider-dim", "8"])
        assert rc == EXIT_CONFIG

    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.log"
        empty.write_text("")
        snap = str(tmp_path / "snap.json")
        rc = main(["ingest", "--input", str(empty), "--snapshot-out", snap])
        assert rc == EXIT_OK
        assert len(CentroidIndex.load(snap)) == 0

    def test_batch_mode_matches_sequential_partition(self, corpus_csv, tmp_path):
        snap = str(tmp_path / "snap.json")
        rc = main(["ingest", "--input", corpus_csv, "--snapshot-out", snap,
                   "--batch-mode", "--batch-size", "25"])
        assert rc == EXIT_OK
        assert len(CentroidIndex.load(snap)) == 5

    def test_batch_mode_rows_carry_final_clusters(self, corpus_csv, tmp_path):
        # rows are written after the last rebalance, so they name the
        # clusters that survived it and the templates parsed for them
        snap = str(tmp_path / "snap.json")
        assigns = str(tmp_path / "assign.jsonl")
        report = str(tmp_path / "report.json")
        rc = main(["ingest", "--input", corpus_csv, "--snapshot-out", snap,
                   "--assignments-out", assigns,
                   "--batch-mode", "--batch-size", "25"])
        assert rc == EXIT_OK
        live = set(CentroidIndex.load(snap).ids())
        rows = [json.loads(line) for line in Path(assigns).read_text().splitlines()]
        assert len(rows) == 100
        assert {row["cluster_id"] for row in rows} <= live
        rc = main(["evaluate", "--dataset", corpus_csv,
                   "--assignments", assigns, "--report-out", report])
        assert rc == EXIT_OK
        doc = json.loads(Path(report).read_text())
        assert [doc[k] for k in ("GA", "FGA", "PA", "FTA")] == [1.0] * 4


    @pytest.mark.parametrize("mode", [[], ["--batch-mode"]], ids=["sequential", "batch"])
    def test_identity_weights_from_either_file_version_write_the_same_bytes(
            self, corpus_csv, tmp_path, mode):
        # the default identity and the identity read back from a .npy, a
        # version 2 or a version 1 file are all applied as an add to the
        # provider columns
        npy, v2, v1 = (str(tmp_path / name) for name in ("w.npy", "v2.json", "v1.json"))
        EncoderWeights.identity_init(512).save(npy)
        write_v2_weights(EncoderWeights.identity_init(512), v2)
        write_v1_weights(*identity_layers(512), v1)
        outputs = []
        for weights in ([], ["--weights", npy], ["--weights", v2], ["--weights", v1]):
            outs = [tmp_path / name for name in ("snap.json", "assign.jsonl", "tpl.json")]
            assert main(["ingest", "--input", corpus_csv, *mode, *weights,
                         "--snapshot-out", str(outs[0]), "--assignments-out", str(outs[1]),
                         "--templates-out", str(outs[2])]) == EXIT_OK
            outputs.append([out.read_bytes() for out in outs])
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]

    @pytest.mark.parametrize("mode", [[], ["--batch-mode"]], ids=["sequential", "batch"])
    def test_degenerate_embeddings_are_dead_letters(self, tmp_path, capsys, mode,
                                                    zero_weights):
        logs = tmp_path / "app.log"
        logs.write_text("disk full on sda1\nfan failed on rack7\n")
        snap = str(tmp_path / "snap.json")
        assigns = tmp_path / "assign.jsonl"
        rc = main(["ingest", "--input", str(logs), *mode, "--snapshot-out", snap,
                   "--assignments-out", str(assigns), "--weights", zero_weights,
                   "--provider-dim", "8"])
        assert rc == EXIT_PROVIDER
        assert len(CentroidIndex.load(snap)) == 0
        assert assigns.read_text() == ""
        err = capsys.readouterr().err
        assert "'disk full on sda1'" in err and "'fan failed on rack7'" in err
        assert "ingested 0 of 2 logs" in err


class TestEvaluateCommand:
    def _run_ingest(self, corpus_csv, tmp_path):
        snap = str(tmp_path / "snap.json")
        assigns = str(tmp_path / "assign.jsonl")
        main(["ingest", "--input", corpus_csv, "--snapshot-out", snap,
              "--assignments-out", assigns])
        return assigns

    def test_perfect_fixture_run(self, corpus_csv, tmp_path, capsys):
        assigns = self._run_ingest(corpus_csv, tmp_path)
        report = str(tmp_path / "report.json")
        rc = main(["evaluate", "--dataset", corpus_csv,
                   "--assignments", assigns, "--report-out", report])
        assert rc == EXIT_OK
        doc = json.loads(Path(report).read_text())
        assert doc["GA"] == 1.0
        assert doc["FGA"] == 1.0
        assert doc["PA"] == 1.0
        assert doc["FTA"] == 1.0

    def test_row_count_mismatch(self, corpus_csv, tmp_path):
        assigns = self._run_ingest(corpus_csv, tmp_path)
        truncated = tmp_path / "short.jsonl"
        truncated.write_text("\n".join(Path(assigns).read_text().splitlines()[:10]))
        rc = main(["evaluate", "--dataset", corpus_csv,
                   "--assignments", str(truncated)])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("row", ['["a template"]', '"a template"', "7",
                                     '{"log_index": 3}', '{"template": null}'],
                             ids=["list", "string", "number", "no-template-or-id",
                                  "null-template-no-id"])
    def test_bad_row_is_a_data_error(self, corpus_csv, tmp_path, capsys, row):
        assigns = self._run_ingest(corpus_csv, tmp_path)
        lines = Path(assigns).read_text().splitlines()
        lines[4] = row
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--dataset", corpus_csv, "--assignments", str(bad)])
        assert rc == EXIT_DATA
        assert "assignment row 5" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    "not json",
    "{}",
    "[]",
    '["a log"]',
    '[{"log": "a b 1", "template": "a b <*>"}]',
    '[{"log": "a b 1", "reasoning": "r", "template": 3}]',
    '[{"log": "a b 1", "reasoning": "r", "template": "a b <*>", "extra": "x"}]',
], ids=["not-json", "object", "empty", "not-objects", "no-reasoning",
        "number-template", "extra-field"])
def test_bad_demos_file_exits_2(corpus_csv, tmp_path, capsys, doc):
    demos = tmp_path / "demos.json"
    demos.write_text(doc)
    rc = main(["ingest", "--input", corpus_csv, "--demos", str(demos),
               "--snapshot-out", str(tmp_path / "snap.json")])
    assert rc == EXIT_CONFIG
    assert "config error: " in capsys.readouterr().err


class TestTrainEncoderCommand:
    def test_writes_weights_and_trace(self, corpus_csv, tmp_path):
        weights = str(tmp_path / "weights.json")
        trace = str(tmp_path / "trace.json")
        rc = main(["train-encoder", "--datasets", corpus_csv,
                   "--weights-out", weights, "--loss-trace-out", trace,
                   "--pairs-per-dataset", "600", "--epochs", "3",
                   "--batch-size", "64", "--provider-dim", "64"])
        assert rc == EXIT_OK
        from logsift import EncoderWeights

        w = EncoderWeights.load(weights)
        assert w.input_dim == 65
        packed = np.load(weights, allow_pickle=False)  # a .npy file, whatever its name
        assert (packed.dtype.str, packed.shape) == ("<f8", (64, 66))
        assert packed[:, :-1].tobytes() == w.matrix.tobytes()
        assert packed[:, -1].tobytes() == w.bias.tobytes()
        doc = json.loads(Path(trace).read_text())
        assert len(doc["loss_trace"]) == 4  # initial + 3 epochs
        # five templates: none is held out, so the last epoch is returned
        assert doc["held_out_loss_trace"] == [] and doc["epoch"] == 3

    def test_returns_and_reports_the_epoch_of_least_held_out_loss(self, tmp_path, capsys):
        corpus = generate_corpus(n_templates=10, logs_per_template=20, seed=3)
        data = tmp_path / "corpus.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["Content", "EventTemplate"])
            for record, tid in zip(corpus.records, corpus.template_ids):
                writer.writerow([record.content, corpus.template_texts[tid]])
        trace = tmp_path / "trace.json"
        rc = main(["train-encoder", "--datasets", str(data), "--weights-out",
                   str(tmp_path / "w.npy"), "--loss-trace-out", str(trace),
                   "--pairs-per-dataset", "600", "--epochs", "12", "--batch-size", "64",
                   "--learning-rate", "0.02", "--provider-dim", "16", "--seed", "2"])
        assert rc == EXIT_OK
        doc = json.loads(trace.read_text())
        assert len(doc["loss_trace"]) == len(doc["held_out_loss_trace"]) == 13
        epoch = doc["epoch"]
        assert epoch == int(np.argmin(doc["held_out_loss_trace"]))
        assert f"epoch {epoch} of 12" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "inf", "1e300"])
    def test_a_learning_rate_that_cannot_train_exits_2(self, corpus_csv, tmp_path, capsys,
                                                       rate):
        weights = tmp_path / "weights.npy"
        rc = main(["train-encoder", "--datasets", corpus_csv, "--weights-out",
                   str(weights), "--pairs-per-dataset", "60", "--epochs", "3",
                   "--provider-dim", "16", "--learning-rate", rate])
        assert rc == EXIT_CONFIG
        assert not weights.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_zero_epochs_keeps_initialization(self, corpus_csv, tmp_path):
        import numpy as np

        from logsift import EncoderWeights

        weights = str(tmp_path / "weights.json")
        rc = main(["train-encoder", "--datasets", corpus_csv,
                   "--weights-out", weights, "--pairs-per-dataset", "60",
                   "--epochs", "0", "--provider-dim", "32"])
        assert rc == EXIT_OK
        w = EncoderWeights.load(weights)
        assert np.array_equal(w.matrix, EncoderWeights.identity_init(32).matrix)
        assert np.array_equal(w.bias, EncoderWeights.identity_init(32).bias)

    @pytest.mark.parametrize("failure", ["raises", "nan"])
    def test_a_line_the_provider_fails_on_exits_4_and_writes_no_weights(
            self, corpus_csv, tmp_path, capsys, monkeypatch, failure):
        with open(corpus_csv, newline="") as fh:
            bad = list(csv.DictReader(fh))[17]["Content"]

        class Failing(cli.HashingProvider):
            def embed(self, text):
                if text != bad:
                    return super().embed(text)
                if failure == "raises":
                    raise ProviderError("HTTP 503")
                return np.full(self.dim, np.nan)

        monkeypatch.setattr(cli, "HashingProvider", Failing)
        weights = tmp_path / "weights.json"
        rc = main(["train-encoder", "--datasets", corpus_csv, "--weights-out",
                   str(weights), "--pairs-per-dataset", "60", "--provider-dim", "32"])
        assert rc == EXIT_PROVIDER
        assert not weights.exists()
        assert ("HTTP 503" if failure == "raises" else "non-finite") in \
            capsys.readouterr().err

    def test_invalid_ratio(self, corpus_csv, tmp_path):
        rc = main(["train-encoder", "--datasets", corpus_csv,
                   "--weights-out", str(tmp_path / "w.json"),
                   "--ratio", "nonsense"])
        assert rc == EXIT_CONFIG


@pytest.mark.parametrize("doc", [
    "[1, 2]",
    '{"version": 1, "w1": [[1.0]], "b1": [0.0]}',
    '{"version": 1, "w1": [1.0], "b1": [0.0], "w2": [[1.0]], "b2": [0.0]}',
    *(json.dumps(doc) for doc in MALFORMED_V2_WEIGHTS.values()),
    *(json.dumps(doc) for doc in MALFORMED_V1_WEIGHTS.values()),
    *MALFORMED_NPY_WEIGHTS.values(),
], ids=["not-an-object", "missing-keys", "1d-w1",
        *(f"v2-{name}" for name in MALFORMED_V2_WEIGHTS),
        *(f"v1-{name}" for name in MALFORMED_V1_WEIGHTS),
        *(f"npy-{name}" for name in MALFORMED_NPY_WEIGHTS)])
def test_malformed_weights_file_exits_2(corpus_csv, tmp_path, capsys, doc):
    weights = tmp_path / "weights.json"
    weights.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    rc = main(["ingest", "--input", corpus_csv, "--weights", str(weights),
               "--snapshot-out", str(tmp_path / "snap.json")])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def random_index(seed, n=40, dim=6):
    rng = np.random.default_rng(seed)
    index = CentroidIndex()
    for _ in range(n):
        v = rng.normal(size=dim)
        index.insert(v / np.linalg.norm(v), weight=int(rng.integers(1, 9)))
    return index


class TestRebalanceCommand:
    def test_duplicate_snapshot_collapses(self, tmp_path):
        import numpy as np

        index = CentroidIndex()
        u = np.array([0.6, 0.8])
        for _ in range(4):
            index.insert(u)
        snap = str(tmp_path / "dups.json")
        index.snapshot(snap)
        out = str(tmp_path / "merged.json")
        rc = main(["rebalance", "--snapshot", snap, "--snapshot-out", out])
        assert rc == EXIT_OK
        merged = CentroidIndex.load(out)
        assert len(merged) == 1
        assert next(merged.centroids()).weight == 4

    def test_no_merge_snapshot(self, tmp_path, capsys):
        import numpy as np

        index = CentroidIndex()
        index.insert(np.array([1.0, 0.0]))
        index.insert(np.array([0.0, 1.0]))
        snap = str(tmp_path / "snap.json")
        index.snapshot(snap)
        rc = main(["rebalance", "--snapshot", snap])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["merges"] == []

    def test_corrupted_snapshot(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not a snapshot")
        rc = main(["rebalance", "--snapshot", str(bad)])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("raw", [None, np.array([0.6, 0.8]).tobytes(),
                                     np.array([1.0]).tobytes() + b"\0" * 4],
                             ids=["bad-base64", "two-floats-not-one", "not-whole-floats"])
    def test_malformed_version_2_vector(self, tmp_path, capsys, raw):
        snap = tmp_path / "snap.json"
        random_index(1, n=3, dim=1).snapshot(str(snap))
        doc = json.loads(snap.read_text())
        doc["centroids"][1]["vector"] = "AAAA!AAA" if raw is None else \
            base64.b64encode(raw).decode()
        snap.write_text(json.dumps(doc))
        assert main(["rebalance", "--snapshot", str(snap)]) == EXIT_DATA
        assert "malformed snapshot" in capsys.readouterr().err

    def test_negative_weight_exits_5_and_writes_nothing(self, tmp_path, capsys):
        # a weight of -1 would merge into a weight-0 centroid, a 0/0 NaN vector
        index = CentroidIndex()
        index.insert(np.array([0.6, 0.8]))
        index.insert(np.array([0.6, 0.8]))
        snap = tmp_path / "snap.json"
        index.snapshot(str(snap))
        doc = json.loads(snap.read_text())
        doc["centroids"][1]["weight"] = -1
        snap.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        assert main(["rebalance", "--snapshot", str(snap),
                     "--snapshot-out", str(out)]) == EXIT_DATA
        assert "weight -1" in capsys.readouterr().err
        assert not out.exists()

    def test_next_id_that_reuses_an_id_exits_5(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        random_index(1, n=3, dim=4).snapshot(str(snap))
        doc = json.loads(snap.read_text())
        doc["next_id"] = 1
        snap.write_text(json.dumps(doc))
        assert main(["rebalance", "--snapshot", str(snap)]) == EXIT_DATA
        assert "next_id 1" in capsys.readouterr().err

    @pytest.mark.parametrize("template_id,message", [
        ([1, 2], "template_id [1, 2]"), (None, "parsed with no template"),
    ], ids=["list", "null"])
    def test_a_parsed_cluster_without_an_integer_template_exits_5(
            self, tmp_path, capsys, template_id, message):
        snap = tmp_path / "snap.json"
        random_index(1, n=3, dim=4).snapshot(str(snap))
        doc = json.loads(snap.read_text())
        doc["centroids"][1].update(parse_state="parsed", template_id=template_id)
        snap.write_text(json.dumps(doc))
        assert main(["rebalance", "--snapshot", str(snap)]) == EXIT_DATA
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["7", "1", "0", "-0.5", "nan"])
    def test_threshold_outside_0_1_exits_2_as_ingest_does(self, tmp_path, capsys,
                                                          corpus_csv, threshold):
        snap = tmp_path / "snap.json"
        random_index(1, n=3, dim=4).snapshot(str(snap))
        before = snap.read_bytes()
        assert main(["rebalance", "--snapshot", str(snap),
                     f"--threshold={threshold}"]) == EXIT_CONFIG
        assert snap.read_bytes() == before  # not rewritten in place
        assert main(["ingest", "--input", corpus_csv, f"--threshold={threshold}",
                     "--snapshot-out", str(tmp_path / "ingest.json")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("config error: similarity_threshold must be in (0, 1)") == 2

    def test_a_snapshot_ingest_rebalanced_is_rewritten_without_a_lookup(
            self, tmp_path, monkeypatch):
        corpus = generate_corpus(n_templates=30, logs_per_template=10, seed=3)
        logs = tmp_path / "app.log"
        logs.write_text("".join(r.content + "\n" for r in corpus.records))
        snap, out = tmp_path / "snap.json", tmp_path / "out.json"
        assert main(["ingest", "--input", str(logs), "--snapshot-out", str(snap),
                     "--batch-mode"]) == EXIT_OK
        assert len(CentroidIndex.load(str(snap))) == 30
        calls, nearest = [], CentroidIndex.nearest

        def counted(self, *args, **kwargs):
            calls.append(args)
            return nearest(self, *args, **kwargs)

        monkeypatch.setattr(CentroidIndex, "nearest", counted)
        assert main(["rebalance", "--snapshot", str(snap),
                     "--snapshot-out", str(out)]) == EXIT_OK
        assert calls == []
        assert out.read_bytes() == snap.read_bytes()

    def test_rewrites_version_1_as_version_2(self, tmp_path):
        v1 = str(tmp_path / "v1.json")
        write_v1_snapshot(random_index(2), v1)
        out = tmp_path / "out.json"
        assert main(["rebalance", "--snapshot", v1, "--snapshot-out", str(out),
                     "--threshold", "0.5"]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["version"] == 2
        assert all(isinstance(c["vector"], str) for c in doc["centroids"])
        expected = random_index(2)
        rebalance(expected, 0.5)
        loaded = CentroidIndex.load(str(out))
        assert [(c.cluster_id, c.weight, c.vector.tobytes()) for c in loaded.centroids()] \
            == [(c.cluster_id, c.weight, c.vector.tobytes()) for c in expected.centroids()]


class TestExportEmbeddingsCommand:
    def test_snapshot_export_shape(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(2)
        index = CentroidIndex()
        for _ in range(100):
            v = rng.normal(size=6)
            index.insert(v / np.linalg.norm(v))
        snap = str(tmp_path / "snap.json")
        index.snapshot(snap)
        out = str(tmp_path / "vectors.csv")
        rc = main(["export-embeddings", "--snapshot", snap, "--output", out])
        assert rc == EXIT_OK
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "id,weight," + ",".join(f"v{k}" for k in range(6))
        assert len(lines) == 101

    def test_same_bytes_from_either_snapshot_version(self, tmp_path):
        index = random_index(3, n=60, dim=16)
        v1, v2 = str(tmp_path / "v1.json"), str(tmp_path / "v2.json")
        write_v1_snapshot(index, v1)
        index.snapshot(v2)
        outputs = []
        for snap in (v1, v2):
            out = tmp_path / "vectors.csv"
            assert main(["export-embeddings", "--snapshot", snap, "--output", str(out)]) \
                == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_same_corpus_bytes_from_either_weights_version(self, tmp_path):
        rng = np.random.default_rng(12)
        v1, v2, npy = (str(tmp_path / name) for name in ("v1.json", "v2.json", "w.npy"))
        write_v1_weights(*random_layers(rng, 48, 33, 64), v1)
        write_v2_weights(EncoderWeights.load(v1), v2)
        EncoderWeights.load(v2).save(npy)
        corpus = tmp_path / "corpus.log"
        corpus.write_text("\n".join(r.content for r in generate_corpus(
            n_templates=4, logs_per_template=5, seed=3).records) + "\n")
        outputs = []
        for weights in (v1, v2, npy):
            out = tmp_path / "vectors.csv"
            assert main(["export-embeddings", "--corpus", str(corpus), "--weights", weights,
                         "--provider-dim", "32", "--output", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_empty_index_header_only(self, tmp_path):
        index = CentroidIndex()
        snap = str(tmp_path / "snap.json")
        index.snapshot(snap)
        out = str(tmp_path / "vectors.csv")
        rc = main(["export-embeddings", "--snapshot", snap, "--output", out])
        assert rc == EXIT_OK
        # no vectors, so no vector columns: no empty third column either
        assert Path(out).read_text() == "id,weight\n"

    def test_roundtrip_readable(self, tmp_path):
        import numpy as np

        index = CentroidIndex()
        v = np.array([0.6, 0.8])
        index.insert(v)
        snap = str(tmp_path / "snap.json")
        index.snapshot(snap)
        out = str(tmp_path / "vectors.csv")
        main(["export-embeddings", "--snapshot", snap, "--output", out])
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["v0"]) == 0.6
        assert int(rows[0]["weight"]) == 1

    @pytest.mark.parametrize("mode", [[], ["--batch-mode"]], ids=["sequential", "batch"])
    def test_corpus_vectors_are_the_ones_ingest_commits(self, tmp_path, mode):
        # random weights, whose product rounds where the identity's copy
        # cannot: each line, ingested alone, creates a cluster
        # whose centroid is its vector, and the export writes that vector
        rng = np.random.default_rng(11)
        weights = str(tmp_path / "weights.json")
        layers_map(*random_layers(rng, 48, 33, 64)).save(weights)
        corpus = generate_corpus(n_templates=4, logs_per_template=5, seed=3)
        lines = [r.content for r in corpus.records]
        settings = ["--weights", weights, "--provider-dim", "32"]
        exported = tmp_path / "corpus.csv"
        (tmp_path / "corpus.log").write_text("\n".join(lines) + "\n")
        assert main(["export-embeddings", "--corpus", str(tmp_path / "corpus.log"),
                     *settings, "--output", str(exported)]) == EXIT_OK
        rows = exported.read_text().splitlines()[1:]
        assert len(rows) == len(lines)
        for i, line in enumerate(lines):
            log, snap = tmp_path / "one.log", str(tmp_path / "one.json")
            log.write_text(line + "\n")
            assert main(["ingest", "--input", str(log), *mode, *settings,
                         "--snapshot-out", snap, "--assignments-out",
                         str(tmp_path / "one.jsonl")]) == EXIT_OK
            [centroid] = CentroidIndex.load(snap).centroids()
            assert rows[i].split(",")[2:] == [repr(float(x)) for x in centroid.vector]

    def test_degenerate_embedding_is_a_provider_error(self, tmp_path, capsys,
                                                      zero_weights):
        corpus = tmp_path / "app.log"
        corpus.write_text("disk full on sda1\n")
        rc = main(["export-embeddings", "--corpus", str(corpus), "--weights",
                   zero_weights, "--provider-dim", "8",
                   "--output", str(tmp_path / "vectors.csv")])
        assert rc == EXIT_PROVIDER
        assert "provider error: encoder output norm" in capsys.readouterr().err


def test_config_file_flag_override(tmp_path, corpus_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold": 0.5, "provider_dim": 512}))
    snap = str(tmp_path / "snap.json")
    rc = main(["ingest", "--config", str(cfg), "--input", corpus_csv,
               "--snapshot-out", snap, "--threshold", "0.9"])
    assert rc == EXIT_OK
    assert len(CentroidIndex.load(snap)) == 5  # flag 0.9 won over file 0.5


def test_unknown_config_key(tmp_path, corpus_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tresh": 0.5}))
    rc = main(["ingest", "--config", str(cfg), "--input", corpus_csv,
               "--snapshot-out", str(tmp_path / "s.json")])
    assert rc == EXIT_CONFIG


def test_removed_index_keys_rejected(tmp_path, corpus_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ann_ef_search": 64}))
    rc = main(["ingest", "--config", str(cfg), "--input", corpus_csv,
               "--snapshot-out", str(tmp_path / "s.json")])
    assert rc == EXIT_CONFIG


def test_removed_pair_order_key_rejected(tmp_path, corpus_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair_order": "concatenated"}))
    rc = main(["train-encoder", "--config", str(cfg), "--datasets", corpus_csv,
               "--weights-out", str(tmp_path / "w.json"), "--provider-dim", "8",
               "--pairs-per-dataset", "10", "--epochs", "0"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("flags, config", [
    (["--batch-mode", "--batch-size", "-5"], None),
    (["--batch-mode", "--batch-size", "0"], None),
    ([], {"threshold": "abc"}),
    ([], {"batch_mode": "false"}),
    ([], {"provider_url": True}),
])
def test_bad_setting_value_is_config_error(tmp_path, corpus_csv, flags, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        flags = [*flags, "--config", str(cfg)]
    rc = main(["ingest", "--input", corpus_csv,
               "--snapshot-out", str(tmp_path / "s.json"), *flags])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["ingest", "--input", "x.log", "--snapshot-out", "s.json", "--seed", "1"],
    ["export-embeddings", "--corpus", "x.log", "--output", "o.csv", "--seed", "1"],
    ["train-encoder", "--datasets", "x.csv", "--weights-out", "w.json",
     "--weights", "w0.json"],
    ["train-encoder", "--datasets", "x.csv", "--weights-out", "w.json",
     "--pair-order", "interleaved"],
])
def test_flag_the_command_ignores_is_rejected(argv):
    assert main(argv) == EXIT_CONFIG


# The commands that read --config, each with the operands it requires.
CONFIG_COMMANDS = {
    "ingest": ["--input", "x.log", "--snapshot-out", "s.json"],
    "train-encoder": ["--datasets", "x.csv", "--weights-out", "w.json"],
    "export-embeddings": ["--corpus", "x.log", "--output", "o.csv"],
}
PARSER = build_arg_parser()
SETTINGS = {key: action for command in CONFIG_COMMANDS
            for key, action in PARSER.commands[command].settings.items()}
# two valid values per setting type: one for the file, one for the flag
SAMPLES = {"float": (0.25, "0.75"), "int": (3, "7"), "str": ("a", "b"),
           "_ratio": ("1:3", "1:4")}


@pytest.mark.parametrize("key", sorted(SETTINGS))
def test_config_key_is_shared_and_the_flag_wins(tmp_path, key):
    action = SETTINGS[key]
    flag = action.option_strings[0]
    if action.nargs == 0:  # a switch, which a flag can only turn on
        file_value, flag_args, from_file, from_flag = True, [flag], True, True
    else:
        file_value, flag_text = (
            (action.choices[-1], action.choices[0]) if action.choices
            else SAMPLES[getattr(action.type, "__name__", "str")])
        flag_args = [flag, flag_text]
        convert = action.type or str
        from_file, from_flag = convert(str(file_value)), convert(flag_text)
    assert from_file != action.default
    assert action.nargs == 0 or from_flag != from_file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: file_value}))
    for command, operands in CONFIG_COMMANDS.items():
        args = parse_args([command, "--config", str(cfg), *operands])
        if key not in PARSER.commands[command].settings:
            assert not hasattr(args, key)
            continue
        assert getattr(args, key) == from_file
        args = parse_args([command, "--config", str(cfg), *operands, *flag_args])
        assert getattr(args, key) == from_flag


def test_null_config_value_leaves_the_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict.fromkeys(SETTINGS)))
    for command, operands in CONFIG_COMMANDS.items():
        args = parse_args([command, "--config", str(cfg), *operands])
        for key, action in PARSER.commands[command].settings.items():
            assert getattr(args, key) == action.default


def test_train_encoder_reads_batch_size_from_config(tmp_path, corpus_csv):
    def train(name, *extra):
        rc = main(["train-encoder", "--datasets", corpus_csv,
                   "--weights-out", str(tmp_path / f"{name}.npy"),
                   "--pairs-per-dataset", "60", "--epochs", "2",
                   "--provider-dim", "16", *extra])
        assert rc == EXIT_OK
        return (tmp_path / f"{name}.npy").read_bytes()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch_size": 4}))
    from_file = train("file", "--config", str(cfg))
    assert from_file == train("flag", "--batch-size", "4")
    assert from_file != train("default")
