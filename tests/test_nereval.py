import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outbreakminer import errors
from outbreakminer.corpus import LabeledToken
from outbreakminer.crf import FeatureConfig
from outbreakminer.nereval import (
    ConfusionCounts,
    cross_validate,
    k_fold_split,
    precision_recall_f1,
    score_labels,
    sweep_ngram,
)


class TestScoreLabels:
    def test_perfect_prediction(self):
        gold = [["O", "B-DEATHS", "I-DEATHS"], ["O", "B-INFECTIONS"]]
        counts = score_labels(gold, gold)
        for label, c in counts.items():
            assert c.fp == 0 and c.fn == 0, label

    def test_missed_entity_is_fn(self):
        gold = [["O", "B-DEATHS"]]
        predicted = [["O", "O"]]
        counts = score_labels(gold, predicted)
        assert counts["B-DEATHS"].fn == 1
        assert counts["B-DEATHS"].tp == 0

    def test_hand_tally_substitutions(self):
        # Hand tally over 3 sentences, 8 tokens total:
        # sent1 tok2: gold B-DEATHS, pred B-INFECTIONS (fn DEATHS, fp INFECTIONS)
        # sent3 tok1: gold B-INFECTIONS, pred O        (fn INFECTIONS)
        gold = [
            ["O", "B-DEATHS", "O"],
            ["O", "O"],
            ["B-INFECTIONS", "O", "O"],
        ]
        predicted = [
            ["O", "B-INFECTIONS", "O"],
            ["O", "O"],
            ["O", "O", "O"],
        ]
        counts = score_labels(gold, predicted)
        assert counts["B-DEATHS"].fn == 1 and counts["B-DEATHS"].fp == 0
        assert counts["B-INFECTIONS"].fp == 1 and counts["B-INFECTIONS"].fn == 1
        assert counts["B-INFECTIONS"].tp == 0
        total = 8
        for c in counts.values():
            assert c.tp + c.fp + c.fn + c.tn == total

    def test_shape_mismatch_names_sentence(self):
        with pytest.raises(ValueError) as err:
            score_labels([["O", "O"], ["O"]], [["O", "O"], ["O", "O"]])
        assert "sentence 1" in str(err.value)


class TestPrecisionRecallF1:
    def test_worked_example(self):
        p, r, f1 = precision_recall_f1(ConfusionCounts(tp=8, fp=2, fn=4))
        assert p == pytest.approx(0.800, abs=1e-9)
        assert r == pytest.approx(2 / 3, abs=1e-9)
        assert f1 == pytest.approx(8 / 11, abs=1e-9)

    def test_perfect(self):
        assert precision_recall_f1(ConfusionCounts(tp=5)) == (1.0, 1.0, 1.0)

    def test_zero_convention(self):
        assert precision_recall_f1(ConfusionCounts()) == (0.0, 0.0, 0.0)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_mean_property(self, tp, fp, fn):
        p, r, f1 = precision_recall_f1(ConfusionCounts(tp=tp, fp=fp, fn=fn))
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
        if p > 0 and r > 0:
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12
        else:
            assert f1 == 0.0


class TestKFold:
    def test_singleton_folds(self):
        folds = k_fold_split(list(range(10)), 10, seed=1)
        assert sorted(len(f) for f in folds) == [1] * 10

    def test_deterministic(self):
        corpus = list(range(23))
        assert k_fold_split(corpus, 5, seed=42) == k_fold_split(corpus, 5, seed=42)

    def test_fold_sizes(self):
        folds = k_fold_split(list(range(23)), 10, seed=0)
        sizes = sorted((len(f) for f in folds), reverse=True)
        assert sizes == [3, 3, 3] + [2] * 7

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            k_fold_split([1, 2, 3], 4, seed=0)

    @given(st.lists(st.integers(), min_size=2, max_size=40), st.integers(2, 6),
           st.integers(0, 99))
    @settings(max_examples=150, deadline=None)
    def test_partition(self, corpus, k, seed):
        if k > len(corpus):
            return
        folds = k_fold_split(corpus, k, seed)
        merged = [item for fold in folds for item in fold]
        assert sorted(merged) == sorted(corpus)
        assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1


def separable_corpus(n=30):
    corpus = []
    for i in range(n):
        corpus.append([
            LabeledToken(str(10 + i), "NUM", "B-DEATHS"),
            LabeledToken("deaths", "NOUN", "I-DEATHS"),
            LabeledToken("occurred", "VERB", "O"),
        ])
        corpus.append([
            LabeledToken("teams", "NOUN", "O"),
            LabeledToken("arrived", "VERB", "O"),
        ])
    return corpus


FAST_CONFIG = FeatureConfig(max_ngram_len=2, window=1, l2_lambda=0.1)


class TestCrossValidate:
    def test_separable_corpus_perfect_f1(self):
        report = cross_validate(separable_corpus(), FAST_CONFIG, k=3, seed=0,
                                max_iter=60)
        assert report.aggregate[2] == pytest.approx(1.0)
        assert report.folds == 3

    def test_all_o_corpus_zero_by_convention(self):
        corpus = [[LabeledToken("plain", "OTHER", "O")]] * 6
        report = cross_validate(corpus, FAST_CONFIG, k=3, seed=0, max_iter=30)
        assert report.aggregate == (0.0, 0.0, 0.0)
        for metrics in report.per_label.values():
            assert metrics.support == 0
            assert metrics.f1 == 0.0

    def test_deterministic_given_seed(self):
        corpus = separable_corpus(9)
        a = cross_validate(corpus, FAST_CONFIG, k=3, seed=7, max_iter=40)
        b = cross_validate(corpus, FAST_CONFIG, k=3, seed=7, max_iter=40)
        assert a == b

    def test_parallel_folds_give_the_sequential_report(self):
        corpus = separable_corpus(12)
        sequential = cross_validate(corpus, FAST_CONFIG, k=3, seed=7, max_iter=40, n_jobs=1)
        assert cross_validate(corpus, FAST_CONFIG, k=3, seed=7, max_iter=40,
                              n_jobs=2) == sequential

    def test_training_error_carries_fold_index(self, monkeypatch):
        from outbreakminer import nereval
        from outbreakminer.errors import TrainingError

        def explode(*args, **kwargs):
            raise TrainingError("objective became non-finite at evaluation 3")

        # The pool forks on Linux, so its workers see the patched train too.
        monkeypatch.setattr(nereval, "train", explode)
        for n_jobs in (1, 2):
            with pytest.raises(TrainingError) as err:
                cross_validate(separable_corpus(6), FAST_CONFIG, k=2, seed=0,
                               n_jobs=n_jobs)
            assert str(err.value) == "fold 0: objective became non-finite at evaluation 3"

    @pytest.mark.parametrize("cls", [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.OutbreakError)
    ], ids=lambda cls: cls.__name__)
    def test_every_error_survives_the_process_pool(self, cls):
        # A fold's error reaches the parent pickled.
        copy = pickle.loads(pickle.dumps(cls("fold 0: line 4: bad weight 'abc'")))
        assert type(copy) is cls
        assert str(copy) == "fold 0: line 4: bad weight 'abc'"

    def test_report_dict_shape(self):
        report = cross_validate(separable_corpus(6), FAST_CONFIG, k=2, seed=0,
                                max_iter=30)
        data = report.to_dict()
        assert data["kind"] == "metrics_report"
        assert set(data["aggregate"]) == {"precision", "recall", "f1"}
        assert len(data["per_label"]) == 6


class TestSweep:
    def test_single_value_matches_cross_validate(self):
        corpus = separable_corpus(8)
        [row] = sweep_ngram(corpus, k=2, seed=3, ngram_values=[2],
                            config=FAST_CONFIG, max_iter=40)
        report = cross_validate(
            corpus, FeatureConfig(max_ngram_len=2, window=1, l2_lambda=0.1),
            k=2, seed=3, max_iter=40,
        )
        assert row.max_ngram_len == 2
        assert (row.precision, row.recall, row.f1) == report.aggregate

    def test_row_per_cap(self):
        rows = sweep_ngram(separable_corpus(6), k=2, seed=0, ngram_values=range(1, 4),
                           config=FAST_CONFIG, max_iter=25)
        assert [r.max_ngram_len for r in rows] == [1, 2, 3]
        for row in rows:
            for value in (row.precision, row.recall, row.f1):
                assert 0.0 <= value <= 1.0
