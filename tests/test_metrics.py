import time

import numpy as np
import pytest

from logsift.errors import SchemaError
from logsift.metrics import (
    evaluate,
    fga,
    fta,
    grouping_accuracy,
    load_dataset,
    parsing_accuracy,
)

from oracles import (
    oracle_fga,
    oracle_fta,
    oracle_grouping_accuracy,
    oracle_parsing_accuracy,
)


class TestGroupingAccuracy:
    def test_identity(self):
        labels = ["a", "a", "b", "b", "c"]
        assert grouping_accuracy(labels, labels) == 1.0

    def test_worked_split_case(self):
        # GT {L1,L2},{L3,L4}; predicted {L1},{L2},{L3,L4}
        truth = ["t1", "t1", "t2", "t2"]
        predicted = ["p1", "p2", "p3", "p3"]
        assert grouping_accuracy(predicted, truth) == 0.5

    def test_all_singletons_vs_one_group(self):
        truth = ["t"] * 4
        predicted = ["p1", "p2", "p3", "p4"]
        assert grouping_accuracy(predicted, truth) == 0.0

    def test_partition_mismatch(self):
        with pytest.raises(ValueError):
            grouping_accuracy(["a"], ["a", "b"])

    def test_invariant_under_renaming(self):
        truth = ["x", "x", "y", "z", "z"]
        predicted = [0, 0, 1, 2, 2]
        renamed = ["q", "q", "r", "s", "s"]
        assert grouping_accuracy(predicted, truth) == grouping_accuracy(renamed, truth)


class TestFga:
    def test_identity_three_groups(self):
        labels = ["a", "b", "b", "c"]
        value, n_g, n_p, n_c = fga(labels, labels)
        assert (value, n_g, n_p, n_c) == (1.0, 3, 3, 3)

    def test_worked_split_case(self):
        truth = ["t1", "t1", "t2", "t2"]
        predicted = ["p1", "p2", "p3", "p3"]
        value, n_g, n_p, n_c = fga(predicted, truth)
        assert (n_g, n_p, n_c) == (2, 3, 1)
        assert value == pytest.approx(0.4)

    def test_no_matching_groups(self):
        truth = ["t1", "t1", "t2", "t2"]
        predicted = ["p1", "p1", "p1", "p2"]
        value, *_ = fga(predicted, truth)
        assert value == 0.0


class TestParsingAccuracy:
    def test_identity(self):
        templates = ["a <*> b", "c d"]
        assert parsing_accuracy(templates, templates) == 1.0

    def test_one_of_two_wrong(self):
        assert parsing_accuracy(["a b", "c x"], ["a b", "c d"]) == 0.5

    def test_trailing_whitespace_equal_after_tokenization(self):
        assert parsing_accuracy(["<*> "], ["<*>"]) == 1.0


class TestFta:
    def test_identity(self):
        templates = ["a <*>", "a <*>", "b c"]
        assert fta(templates, templates) == 1.0

    def test_one_token_wrong(self):
        truth = ["a b", "a b", "c d", "c d"]
        predicted = ["a b", "a b", "c x", "c x"]
        # grouping correct for both, tokens wrong for one of two templates
        assert fta(predicted, truth) == pytest.approx(0.5)

    def test_correct_tokens_split_grouping(self):
        truth = ["a b", "a b", "c d"]
        predicted = ["a b", "x y", "c d"]
        # "a b" predicted group is a strict subset -> not correct
        assert fta(predicted, truth) == pytest.approx(2 * (1 / 3) * (1 / 2) / (1 / 3 + 1 / 2))


class TestOracleEquivalence:
    # the 200 tiny draws, and draws whose matching groups hold hundreds of logs
    @pytest.mark.parametrize("draws, max_templates, max_logs",
                             [(200, 5, 12), (20, 6, 400)], ids=["tiny", "hundreds"])
    def test_randomized_tiny_datasets(self, draws, max_templates, max_logs):
        rng = np.random.default_rng(42)
        token_pool = ["alpha", "beta", "<*>", "gamma", "delta"]
        for _ in range(draws):
            n_templates = int(rng.integers(1, max_templates + 1))
            templates = [
                " ".join(rng.choice(token_pool, size=rng.integers(1, 4)))
                for _ in range(n_templates)
            ]
            n_logs = int(rng.integers(1, max_logs + 1))
            truth = [templates[rng.integers(n_templates)] for _ in range(n_logs)]
            predicted = [templates[rng.integers(n_templates)] for _ in range(n_logs)]
            assert grouping_accuracy(predicted, truth) == \
                oracle_grouping_accuracy(predicted, truth)
            got, n_g, n_p, n_c = fga(predicted, truth)
            want, wg, wp, wc = oracle_fga(predicted, truth)
            assert (n_g, n_p, n_c) == (wg, wp, wc)
            assert got == pytest.approx(want, abs=1e-12)
            assert parsing_accuracy(predicted, truth) == \
                oracle_parsing_accuracy(predicted, truth)
            assert fta(predicted, truth) == \
                pytest.approx(oracle_fta(predicted, truth), abs=1e-12)
            # evaluate scores from its own tally, not through the functions above
            report = evaluate(predicted, truth)
            assert report.ga == oracle_grouping_accuracy(predicted, truth)
            assert (report.n_g, report.n_p, report.n_c) == (wg, wp, wc)
            assert report.fga == pytest.approx(want, abs=1e-12)
            assert report.pa == oracle_parsing_accuracy(predicted, truth)
            assert report.fta == pytest.approx(oracle_fta(predicted, truth), abs=1e-12)

    def test_duplication_leaves_ga_pa_unchanged(self):
        truth = ["t1", "t1", "t2"]
        predicted = ["p1", "p2", "p3"]
        ga = grouping_accuracy(predicted, truth)
        pa = parsing_accuracy(predicted, truth)
        assert grouping_accuracy(predicted * 2, truth * 2) == ga
        assert parsing_accuracy(predicted * 2, truth * 2) == pa


class CountedSplits(str):
    splits = 0

    def split(self, *args):
        CountedSplits.splits += 1
        return super().split(*args)


@pytest.mark.parametrize("score, most", [(parsing_accuracy, 2), (evaluate, 4)])
def test_each_distinct_pair_is_split_once(score, most):
    # PA over 1,000 logs of one (predicted, true) pair; FTA splits the
    # matched pair once more
    CountedSplits.splits = 0
    score([CountedSplits("a <*> b")] * 1000, [CountedSplits("a <*>  b")] * 1000)
    assert CountedSplits.splits <= most


@pytest.mark.parametrize("case", ["one group", "distinct against one group", "singletons"])
def test_scoring_200k_logs_takes_linear_time(case):
    # each (predicted, true) label pair is counted once: comparing each
    # log's group would take minutes on one group of 200,000 logs
    n = 200_000
    one = ["t"] * n
    distinct = [f"l{i}" for i in range(n)]
    predicted, truth, want, counts = {
        "one group": (one, one, 1.0, (1, 1, 1)),
        "distinct against one group": (distinct, one, 0.0, (1, n, 0)),
        "singletons": (distinct, distinct, 1.0, (n, n, n)),
    }[case]

    def timed(score):
        start = time.perf_counter()
        value = score(predicted, truth)
        assert time.perf_counter() - start < 2.0, score.__name__
        return value

    assert timed(grouping_accuracy) == want
    assert timed(fga) == (want, *counts)
    assert timed(parsing_accuracy) == want
    assert timed(fta) == want
    report = timed(evaluate)
    assert (report.ga, report.fga, report.pa, report.fta) == (want,) * 4
    assert (report.n_g, report.n_p, report.n_c) == counts


class TestLoadDataset:
    def test_smoke(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("LineId,Content,EventTemplate\n"
                        "1,hello world,hello <*>\n"
                        "2,bye now,bye <*>\n")
        ds = load_dataset(str(path))
        assert ds.contents == ("hello world", "bye now")
        assert ds.templates == ("hello <*>", "bye <*>")

    def test_quoted_comma(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('Content,EventTemplate\n"a, b",t\n')
        ds = load_dataset(str(path))
        assert ds.contents == ("a, b",)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Content,Other\nx,y\n")
        with pytest.raises(SchemaError):
            load_dataset(str(path))


def test_evaluate_report_fields():
    truth = ["t1", "t1", "t2", "t2"]
    predicted = ["p1", "p2", "p3", "p3"]
    report = evaluate(predicted, truth)
    assert report.ga == 0.5
    assert report.fga == pytest.approx(0.4)
    assert (report.n_g, report.n_p, report.n_c) == (2, 3, 1)
    assert "FGA" in report.to_json()
    assert "N_g=2" in report.to_table()
