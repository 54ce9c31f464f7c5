import csv
import json

import pytest

from logsift.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    main,
)
from logsift.index import CentroidIndex
from logsift.synthetic import generate_corpus


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
        lines = open(assigns).read().splitlines()
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
        doc = json.loads(open(report).read())
        assert doc["GA"] == 1.0
        assert doc["FGA"] == 1.0
        assert doc["PA"] == 1.0
        assert doc["FTA"] == 1.0

    def test_row_count_mismatch(self, corpus_csv, tmp_path):
        assigns = self._run_ingest(corpus_csv, tmp_path)
        truncated = tmp_path / "short.jsonl"
        truncated.write_text("\n".join(open(assigns).read().splitlines()[:10]))
        rc = main(["evaluate", "--dataset", corpus_csv,
                   "--assignments", str(truncated)])
        assert rc == EXIT_DATA


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
        doc = json.loads(open(trace).read())
        assert len(doc["loss_trace"]) == 4  # initial + 3 epochs

    def test_zero_epochs_keeps_initialization(self, corpus_csv, tmp_path):
        import numpy as np

        from logsift import EncoderWeights

        weights = str(tmp_path / "weights.json")
        rc = main(["train-encoder", "--datasets", corpus_csv,
                   "--weights-out", weights, "--pairs-per-dataset", "60",
                   "--epochs", "0", "--provider-dim", "32"])
        assert rc == EXIT_OK
        w = EncoderWeights.load(weights)
        assert np.array_equal(w.w1, EncoderWeights.identity_init(32).w1)

    def test_invalid_ratio(self, corpus_csv, tmp_path):
        rc = main(["train-encoder", "--datasets", corpus_csv,
                   "--weights-out", str(tmp_path / "w.json"),
                   "--ratio", "nonsense"])
        assert rc == EXIT_CONFIG


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
        lines = open(out).read().splitlines()
        assert lines[0] == "id,weight," + ",".join(f"v{k}" for k in range(6))
        assert len(lines) == 101

    def test_empty_index_header_only(self, tmp_path):
        index = CentroidIndex()
        snap = str(tmp_path / "snap.json")
        index.snapshot(snap)
        out = str(tmp_path / "vectors.csv")
        rc = main(["export-embeddings", "--snapshot", snap, "--output", out])
        assert rc == EXIT_OK
        assert len(open(out).read().splitlines()) == 1

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
