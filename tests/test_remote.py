"""The shared HTTP helper and the two remote clients built on it, run
against a scripted stand-in for `requests.Session` (there is no network)."""

import numpy as np
import pytest
import requests

from logsift import remote
from logsift.cli import EXIT_PROVIDER, main
from logsift.embedding import EncoderWeights, RemoteProvider, embed_log
from logsift.errors import DimensionMismatchError, ProviderError
from logsift.index import CentroidIndex, ParseState
from logsift.parsing import ClusterParser, RemoteCompletionClient
from logsift.records import LogRecord


class FakeResponse:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body

    def json(self):
        return self._body


class ScriptedPost:
    """Stands in for `Session.post`: each call takes the next outcome,
    raising it if it is an exception and answering it otherwise (an int is
    an empty reply with that status); the last outcome repeats. The calls
    of every session share one script."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.calls = []
        self.sessions = []

    def __call__(self, url, json, headers, timeout):
        self.calls.append({"url": url, "json": json, "headers": headers,
                           "timeout": timeout})
        outcome = self.outcomes[min(len(self.calls), len(self.outcomes)) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return FakeResponse(outcome) if isinstance(outcome, int) else outcome


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(remote, "sleep", slept.append)
    return slept


class FakeSession:
    """Stands in for `requests.Session`: posts through the script, and
    records the URL of each of its posts and whether it was closed."""

    def __init__(self, post):
        self._post = post
        self.urls = []
        self.closed = False
        post.sessions.append(self)

    def post(self, url, **kwargs):
        self.urls.append(url)
        return self._post(url, **kwargs)

    def close(self):
        self.closed = True


def script(monkeypatch, *outcomes):
    post = ScriptedPost(*outcomes)
    monkeypatch.setattr(requests, "Session", lambda: FakeSession(post))
    return post


OK = FakeResponse(200, {"ok": True})


@pytest.mark.parametrize("first", [requests.ConnectionError("refused"),
                                   requests.Timeout("slow"), 503, 429])
def test_transient_failure_then_success(monkeypatch, sleeps, first):
    post = script(monkeypatch, first, OK)
    assert remote.post_json(requests.Session(), "http://svc", "k", {"q": 1}, 7.0, "ok") is True
    assert len(post.calls) == 2 and len(sleeps) == 1
    assert post.calls[1] == {"url": "http://svc", "json": {"q": 1},
                             "headers": {"Authorization": "Bearer k"},
                             "timeout": 7.0}


@pytest.mark.parametrize("status", [400, 401, 404])
def test_client_error_is_not_retried(monkeypatch, sleeps, status):
    post = script(monkeypatch, status, OK)
    with pytest.raises(ProviderError, match=f"HTTP {status}"):
        remote.post_json(requests.Session(), "http://svc", "k", {}, 1.0, "ok")
    assert len(post.calls) == 1 and sleeps == []


@pytest.mark.parametrize("failure", [503, requests.ConnectionError("refused")])
def test_exhausted_budget_raises(monkeypatch, sleeps, failure):
    post = script(monkeypatch, failure)
    with pytest.raises(ProviderError, match="3 times"):
        remote.post_json(requests.Session(), "http://svc", "k", {}, 1.0, "ok")
    assert len(post.calls) == remote.ATTEMPTS
    assert len(sleeps) == remote.ATTEMPTS - 1


@pytest.mark.parametrize("body", [{"other": 1}, ["ok"]])
def test_reply_without_the_field_is_not_retried(monkeypatch, sleeps, body):
    post = script(monkeypatch, FakeResponse(200, body))
    with pytest.raises(ProviderError, match="no 'ok' in reply"):
        remote.post_json(requests.Session(), "http://svc", "k", {}, 1.0, "ok")
    assert len(post.calls) == 1 and sleeps == []


def test_delays_grow_and_stay_under_the_cap(monkeypatch, sleeps):
    # every draw at the top of its jitter range
    monkeypatch.setattr(remote.random, "uniform", lambda low, high: high)
    ceilings = [remote.backoff(retry) for retry in range(10)]
    assert ceilings == sorted(ceilings)
    assert ceilings[0] > 0 and max(ceilings) == remote.BACKOFF_CAP_S
    script(monkeypatch, 503)
    with pytest.raises(ProviderError):
        remote.post_json(requests.Session(), "http://svc", "k", {}, 1.0, "ok")
    assert sleeps == ceilings[:remote.ATTEMPTS - 1]
    assert sleeps[0] < sleeps[1]


def test_jittered_delay_is_within_its_ceiling():
    for retry in range(6):
        ceiling = min(remote.BACKOFF_CAP_S, remote.BACKOFF_S * 2 ** retry)
        assert all(0.0 <= remote.backoff(retry) <= ceiling for _ in range(50))


def test_wrong_dimension_is_not_retried(monkeypatch, sleeps):
    monkeypatch.setenv("EMBEDDING_API_KEY", "k")
    post = script(monkeypatch, FakeResponse(200, {"embedding": [0.1, 0.2, 0.3]}))
    provider = RemoteProvider(url="http://emb", model="m", dim=4)
    with pytest.raises(DimensionMismatchError):
        embed_log(LogRecord("t", "disk full on /dev/sda1"), provider,
                  EncoderWeights.identity_init(4))
    assert len(post.calls) == 1 and sleeps == []
    assert post.calls[0]["timeout"] == RemoteProvider.TIMEOUT_S == 30.0
    assert post.calls[0]["json"] == {"model": "m", "input": "disk full on /dev/sda1"}


def test_completion_survives_one_503(monkeypatch, sleeps):
    monkeypatch.setenv("COMPLETION_API_KEY", "k")
    reply = FakeResponse(200, {"content": "LogTemplate[2]: `disk full on {dev}`"})
    post = script(monkeypatch, 503, reply)
    client = RemoteCompletionClient(url="http://llm", model="m")
    index = CentroidIndex()
    cid = index.insert(np.array([1.0, 0.0]), representative="disk full on /dev/sda1")
    parser = ClusterParser(client=client)
    template = parser.parse_cluster(index, cid)
    assert template == "disk full on <*>"
    assert index.get(cid).parse_state == ParseState.PARSED
    assert len(post.calls) == 2 and len(sleeps) == 1
    assert post.calls[0]["timeout"] == RemoteCompletionClient.TIMEOUT_S == 60.0


def test_ingest_exits_4_when_the_budget_runs_out(monkeypatch, sleeps, tmp_path):
    monkeypatch.setenv("EMBEDDING_API_KEY", "k")
    post = script(monkeypatch, 503)
    logs = tmp_path / "app.log"
    logs.write_text("disk full on /dev/sda1\n")
    rc = main(["ingest", "--input", str(logs),
               "--snapshot-out", str(tmp_path / "s.json"),
               "--provider", "remote", "--provider-url", "http://emb",
               "--provider-model", "m", "--provider-dim", "8"])
    assert rc == EXIT_PROVIDER
    assert len(post.calls) == remote.ATTEMPTS
    assert [session.closed for session in post.sessions] == [True]


def test_each_client_posts_through_one_session(monkeypatch, sleeps):
    monkeypatch.setenv("EMBEDDING_API_KEY", "k")
    post = script(monkeypatch, 503, FakeResponse(200, {"embedding": [1.0, 0.0]}))
    provider = RemoteProvider(url="http://emb", model="m", dim=2)
    assert post.sessions == []  # opened at the first call
    for text in ("disk full", "fan failed", "disk full"):
        provider.embed(text)
    [session] = post.sessions
    assert session.urls == ["http://emb"] * 4 and not session.closed  # one retry
    provider.close()
    provider.close()
    assert session.closed and len(post.sessions) == 1


def test_ingest_closes_the_sessions_of_both_clients(monkeypatch, sleeps, tmp_path):
    monkeypatch.setenv("EMBEDDING_API_KEY", "k")
    monkeypatch.setenv("COMPLETION_API_KEY", "k")
    # one reply for either client: every line embeds alike, so one cluster
    post = script(monkeypatch, FakeResponse(200, {
        "embedding": [1.0] + [0.0] * 7, "content": "LogTemplate[6]: `disk full on {dev}`"}))
    assert ingest_remote(tmp_path, "--completion", "remote", "--completion-url",
                         "http://llm", "--completion-model", "m") == 0
    assert [(session.urls, session.closed) for session in post.sessions] == [
        (["http://emb"] * 3, True), (["http://llm"], True)]


def ingest_remote(tmp_path, *flags):
    """`logsift ingest` of three lines with the remote provider (dim 8)."""
    logs = tmp_path / "app.log"
    logs.write_text("disk full on sda1\nfan failed on rack7\ndisk full on sdb2\n")
    return main(["ingest", "--input", str(logs), *flags,
                 "--snapshot-out", str(tmp_path / "s.json"),
                 "--assignments-out", str(tmp_path / "assign.jsonl"),
                 "--templates-out", str(tmp_path / "t.json"),
                 "--provider", "remote", "--provider-url", "http://emb",
                 "--provider-model", "m", "--provider-dim", "8"])


def check_one_dead_letter(monkeypatch, tmp_path, capsys, *mode):
    monkeypatch.setenv("EMBEDDING_API_KEY", "k")
    ok = FakeResponse(200, {"embedding": [1.0] + [0.0] * 7})
    # the second line's embedding call fails every attempt
    script(monkeypatch, ok, *[503] * remote.ATTEMPTS, ok)
    assert ingest_remote(tmp_path, *mode) == EXIT_PROVIDER
    assert len((tmp_path / "assign.jsonl").read_text().splitlines()) == 2
    assert CentroidIndex.load(str(tmp_path / "s.json")).total_weight() == 2
    assert (tmp_path / "t.json").exists()
    err = capsys.readouterr().err
    assert "'fan failed on rack7'" in err and "HTTP 503" in err
    assert "disk full" not in err


def test_batch_ingest_reports_its_dead_letters(monkeypatch, sleeps, tmp_path, capsys):
    check_one_dead_letter(monkeypatch, tmp_path, capsys, "--batch-mode")


def test_sequential_ingest_reports_its_dead_letters(monkeypatch, sleeps, tmp_path,
                                                    capsys):
    check_one_dead_letter(monkeypatch, tmp_path, capsys)


@pytest.mark.parametrize("mode", [[], ["--batch-mode"]], ids=["sequential", "batch"])
def test_wrong_dimension_stops_the_run(monkeypatch, sleeps, tmp_path, capsys, mode):
    # a configuration fault that every record would hit: no dead letters
    monkeypatch.setenv("EMBEDDING_API_KEY", "k")
    post = script(monkeypatch, FakeResponse(200, {"embedding": [0.1, 0.2, 0.3]}))
    assert ingest_remote(tmp_path, *mode) == EXIT_PROVIDER
    assert len(post.calls) == 1
    assert not (tmp_path / "s.json").exists()
    err = capsys.readouterr().err
    assert "provider error" in err and "dead letter" not in err


def test_export_embeddings_stops_at_the_first_failing_line(monkeypatch, sleeps, tmp_path):
    # a provider that refuses every call is asked once, not once per line
    monkeypatch.setenv("EMBEDDING_API_KEY", "k")
    post = script(monkeypatch, 401)
    corpus = tmp_path / "app.log"
    corpus.write_text("disk full on sda1\nfan failed on rack7\ndisk full on sdb2\n")
    rc = main(["export-embeddings", "--corpus", str(corpus),
               "--output", str(tmp_path / "v.csv"),
               "--provider", "remote", "--provider-url", "http://emb",
               "--provider-model", "m", "--provider-dim", "8"])
    assert rc == EXIT_PROVIDER
    assert len(post.calls) == 1
    assert not (tmp_path / "v.csv").exists()


def test_train_encoder_stops_at_the_first_failing_line(monkeypatch, sleeps, tmp_path):
    # a provider that is down spends one line's retries, not every line's
    monkeypatch.setenv("EMBEDDING_API_KEY", "k")
    post = script(monkeypatch, 503)
    dataset = tmp_path / "labeled.csv"
    dataset.write_text("LineId,Content,EventTemplate\n1,disk full on sda1,disk full on <*>\n"
                       "2,disk full on sdb2,disk full on <*>\n3,fan failed,fan failed\n")
    rc = main(["train-encoder", "--datasets", str(dataset),
               "--weights-out", str(tmp_path / "w.json"),
               "--provider", "remote", "--provider-url", "http://emb",
               "--provider-model", "m", "--provider-dim", "8"])
    assert rc == EXIT_PROVIDER
    assert len(post.calls) == remote.ATTEMPTS
    assert not (tmp_path / "w.json").exists()
