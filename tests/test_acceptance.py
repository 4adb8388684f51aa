"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The network-gated live
reproduction (criterion 7) lives in test_live_network.py and is skipped
unless OUTBREAK_LIVE_TESTS=1.
"""

import itertools
import math
import random
import string
import time

import numpy as np

from outbreakminer.corpus import (
    LABELS,
    AgreementTable,
    LabeledToken,
    cohen_kappa,
    dedup_sentences,
    read_iob_tsv,
    trigram_jaccard,
    write_iob_tsv,
)
from outbreakminer.crf import (
    CrfModel,
    FeatureConfig,
    extract_features,
    load_model,
    log_forward_backward,
    nll_and_gradient,
    save_model,
    viterbi,
)
from outbreakminer.nereval import ConfusionCounts, cross_validate, precision_recall_f1, sweep_ngram
from outbreakminer.synthcorpus import generate_labeled_corpus
from outbreakminer.timeseries import (
    AlignedPair,
    TimeSeries,
    dedup_series,
    extract_revision_series,
    interpolate_daily,
    load_ground_truth,
    rmse,
    rmse_report,
)


class BareToken:
    def __init__(self, token, pos, label):
        self.token = token
        self.pos = pos
        self.label = label


def optimal_path_set(paths, scores):
    """Indices of all paths within float tolerance of the brute max."""
    top = scores.max()
    near = np.where(scores >= top - 1e-9 * max(1.0, abs(top)))[0]
    return near, float(top)


def small_random_instance(pyrng, rng, max_labels=5, max_len=6):
    """Random model over a two-letter vocabulary; at most 8 features."""
    n_labels = pyrng.randint(2, max_labels)
    seq_len = pyrng.randint(1, max_len)
    labels = tuple(f"L{i}" for i in range(n_labels))
    config = FeatureConfig(max_ngram_len=1, window=pyrng.choice([0, 1]),
                           use_pos=False, use_shape=False,
                           l2_lambda=pyrng.choice([0.0, 0.2]))
    tokens = [pyrng.choice("ab") for _ in range(seq_len)]
    names: dict = {}
    for t in range(seq_len):
        for name in extract_features(tokens, ["OTHER"] * seq_len, t, config):
            names.setdefault(name)
    feature_names = tuple(names)
    assert len(feature_names) <= 8
    weights = rng.normal(0.0, 1.0, len(feature_names) * n_labels + n_labels ** 2)
    model = CrfModel(labels=labels, feature_names=feature_names,
                     weights=weights, config=config)
    return model, tokens


def test_criterion_1_gradient_correctness():
    """100 random instances: analytic gradient vs central differences."""
    started = time.monotonic()
    pyrng = random.Random(101)
    rng = np.random.default_rng(101)
    h = 1e-5
    for _ in range(100):
        model, tokens = small_random_instance(pyrng, rng)
        gold = [pyrng.choice(model.labels) for _ in tokens]
        dataset = [[BareToken(t, "OTHER", lab) for t, lab in zip(tokens, gold)]]
        _, gradient = nll_and_gradient(model, dataset)
        numeric = np.empty_like(gradient)
        for i in range(len(gradient)):
            w_plus = model.weights.copy()
            w_plus[i] += h
            w_minus = model.weights.copy()
            w_minus[i] -= h
            f_plus, _ = nll_and_gradient(
                CrfModel(model.labels, model.feature_names, w_plus, model.config),
                dataset)
            f_minus, _ = nll_and_gradient(
                CrfModel(model.labels, model.feature_names, w_minus, model.config),
                dataset)
            numeric[i] = (f_plus - f_minus) / (2 * h)
        scale = np.maximum(1.0, np.maximum(np.abs(gradient), np.abs(numeric)))
        worst = float(np.max(np.abs(gradient - numeric) / scale))
        assert worst <= 1e-6, f"gradient mismatch: relative error {worst}"
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s (budget 60s)"
    print(f"\nACCEPTANCE 1 PASS - gradient matches central differences on 100 "
          f"instances ({elapsed:.1f}s)")


def test_criterion_2_inference_oracles():
    """500 random instances: Viterbi and partition vs exhaustive enumeration."""
    started = time.monotonic()
    pyrng = random.Random(202)
    rng = np.random.default_rng(202)
    for _ in range(500):
        model, tokens = small_random_instance(pyrng, rng)
        n = len(tokens)
        from outbreakminer.crf import _emissions
        emis = _emissions(model, tokens, ["OTHER"] * n)
        trans = model.transition_weights
        paths = np.array(list(itertools.product(range(model.n_labels), repeat=n)))
        scores = emis[np.arange(n), paths].sum(axis=1)
        if n > 1:
            scores += trans[paths[:, :-1], paths[:, 1:]].sum(axis=1)
        top = scores.max()
        brute_log_z = float(np.log(np.exp(scores - top).sum()) + top)
        optimal, best_score = optimal_path_set(paths, scores)

        result = viterbi(model, tokens, ["OTHER"] * n)
        decoded = [model.labels.index(lab) for lab in result.labels]
        assert abs(result.path_score - best_score) <= 1e-9 * max(1.0, abs(best_score))
        if len(optimal) == 1:
            # Unique optimum: the label sequence must match exactly.
            assert decoded == list(paths[optimal[0]])
        else:
            # Exact ties (identical summand multisets from repeated tokens):
            # the decode must be one of the optimal paths, chosen
            # deterministically.
            assert any(decoded == list(paths[i]) for i in optimal)
            repeat = viterbi(model, tokens, ["OTHER"] * n)
            assert repeat.labels == result.labels

        log_z, unary, pairwise = log_forward_backward(model, tokens, ["OTHER"] * n)
        assert abs(log_z - brute_log_z) <= 1e-9 * max(1.0, abs(brute_log_z))
        assert np.all(np.abs(unary.sum(axis=1) - 1.0) <= 1e-9)
        for t in range(n - 1):
            assert np.all(np.abs(pairwise[t].sum(axis=1) - unary[t]) <= 1e-9)

    # Deterministic tie-break contract: all-zero weights decode to all-O.
    zero = CrfModel(LABELS, ("w[0]=x",), np.zeros(7 + 49),
                    FeatureConfig(max_ngram_len=1, window=0, use_pos=False,
                                  use_shape=False, l2_lambda=0.0))
    assert viterbi(zero, ["x", "x", "x"], ["OTHER"] * 3).labels == ["O"] * 3
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s (budget 60s)"
    print(f"\nACCEPTANCE 2 PASS - Viterbi/partition/marginals match brute force "
          f"on 500 instances ({elapsed:.1f}s)")


def test_criterion_3_synthetic_ner_end_to_end():
    """~500 planted sentences, 10-fold CV F1 >= 0.90, plus 12-row sweep shape."""
    started = time.monotonic()
    corpus = generate_labeled_corpus(500, seed=7)
    assert len(corpus) == 500
    report = cross_validate(corpus, FeatureConfig(), k=10, seed=0, max_iter=100)
    f1 = report.aggregate[2]
    assert f1 >= 0.90, f"aggregate F1 {f1:.4f} below 0.90"

    # Sweep harness shape: 12 rows for caps 1..12 (reduced corpus keeps the
    # full-criterion runtime inside its budget; this checks report shape).
    small = generate_labeled_corpus(98, seed=11)
    rows = sweep_ngram(small, k=3, seed=0, ngram_values=range(1, 13), max_iter=40)
    assert [r.max_ngram_len for r in rows] == list(range(1, 13))
    for row in rows:
        for value in (row.precision, row.recall, row.f1):
            assert 0.0 <= value <= 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"criterion 3 took {elapsed:.1f}s (budget 600s)"
    print(f"\nACCEPTANCE 3 PASS - synthetic 10-fold F1 {f1:.4f} >= 0.90; sweep "
          f"emitted 12 rows ({elapsed:.1f}s)")


def test_criterion_4_dedup_math():
    """Exact Jaccard on the canonical pair; retained-set property on 1,000 lists."""
    # {abc,bcd,cde,def} vs {abc,bcd,cde,def,ef!}: 4/5 exactly.
    assert trigram_jaccard("abcdef", "abcdef!") == 0.8
    assert dedup_sentences(["abcdef", "abcdef!"], 0.75) == ["abcdef"]

    pyrng = random.Random(404)
    words = ["cases", "deaths", "guinea", "liberia", "reported", "on",
             "july", "new", "confirmed", "the", "officials", "45", "56"]
    checked_pairs = 0
    for _ in range(1000):
        n = pyrng.randint(0, 12)
        sentences = [
            " ".join(pyrng.choice(words) for _ in range(pyrng.randint(1, 8)))
            for _ in range(n)
        ]
        retained = dedup_sentences(sentences, 0.75)
        for i, a in enumerate(retained):
            for b in retained[:i]:
                assert trigram_jaccard(a, b) <= 0.75
                checked_pairs += 1
    print(f"\nACCEPTANCE 4 PASS - Jaccard 0.8 exact; retained-set property held "
          f"over 1,000 lists ({checked_pairs} pairs)")


def test_criterion_5_metric_formulas():
    """P/R/F1, kappa, RMSE and interpolation worked examples at stated tolerances."""
    p, r, f1 = precision_recall_f1(ConfusionCounts(tp=8, fp=2, fn=4))
    assert abs(p - 0.800) <= 1e-9
    assert abs(r - 2 / 3) <= 1e-9
    assert abs(f1 - 8 / 11) <= 1e-9

    kappa = cohen_kappa(AgreementTable(labels=("O", "X"), counts=((5, 1), (0, 4))))
    assert abs(kappa - 0.8) <= 1e-12

    from datetime import date
    pair = AlignedPair([date(2014, 7, 1), date(2014, 7, 2), date(2014, 7, 3)],
                       [1.0, 2.0, 3.0], [1.0, 2.0, 5.0])
    assert abs(rmse(pair) - math.sqrt(4 / 3)) <= 1e-12

    series = TimeSeries(country="G", metric="cases",
                        points={date(2014, 7, 1): 10.0, date(2014, 7, 3): 20.0})
    filled = interpolate_daily(series)
    assert filled.points[date(2014, 7, 2)] == 15.0
    print("\nACCEPTANCE 5 PASS - metric formulas exact at stated tolerances")


def test_criterion_6_tabular_fixture_pipeline(fixture_revisions, ground_truth_path):
    """Bundled 10-revision fixture: spike at the corrupted revision, exact means."""
    started = time.monotonic()
    sets = extract_revision_series(fixture_revisions)
    assert len(sets) == 10
    unique = dedup_series(sets)
    assert [r.revision_id for r in unique] == [101, 103, 105, 106, 107, 108]

    truth = load_ground_truth(ground_truth_path)
    report = rmse_report(unique, truth)

    # Hand computation: the swapped-column revision puts Liberia's values in
    # Guinea's columns and vice versa over the 7 aligned daily dates
    # 2014-07-01..07. Cases diffs 50,45,40,35,30,25,20 -> sum sq 9275 -> /7 =
    # 1325; deaths diffs 30,27,24,21,18,15,12 -> sum sq 3339 -> /7 = 477.
    spike_cases = math.sqrt(1325)
    spike_deaths = math.sqrt(477)
    order = [101, 103, 105, 106, 107, 108]
    for country in ("Guinea", "Liberia"):
        cases = [report.per_revision[(rid, country, "cases")] for rid in order]
        deaths = [report.per_revision[(rid, country, "deaths")] for rid in order]
        assert cases == [0.0, 0.0, 0.0, spike_cases, 0.0, 0.0]
        assert deaths == [0.0, 0.0, 0.0, spike_deaths, 0.0, 0.0]
        assert report.mean_per_country[(country, "cases")] == spike_cases / 6
        assert report.mean_per_country[(country, "deaths")] == spike_deaths / 6
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"criterion 6 took {elapsed:.1f}s (budget 30s)"
    print(f"\nACCEPTANCE 6 PASS - dedup 10->6; spike sqrt(1325)/sqrt(477) at the "
          f"corrupted revision; exact means ({elapsed:.1f}s)")


def test_criterion_8_format_round_trips(tmp_path):
    """IOB TSV and model files: read(write(x)) == x on randomized instances."""
    pyrng = random.Random(808)

    for case in range(25):
        n_sent = pyrng.randint(1, 6)
        corpus = []
        for _ in range(n_sent):
            tokens = []
            prev = "O"
            for _ in range(pyrng.randint(1, 8)):
                options = ["O", "B-DEATHS", "B-INFECTIONS", "B-HOSPITALIZATIONS"]
                if prev != "O":
                    options.append("I-" + prev.split("-", 1)[1])
                label = pyrng.choice(options)
                token = "".join(pyrng.choice(string.ascii_letters + string.digits + ",.-")
                                for _ in range(pyrng.randint(1, 9)))
                tokens.append(LabeledToken(token, pyrng.choice(["NOUN", "VERB", "NUM"]),
                                           label))
                prev = label
            corpus.append(tokens)
        path = tmp_path / f"corpus{case}.tsv"
        write_iob_tsv(corpus, path)
        assert read_iob_tsv(path) == corpus

    rng = np.random.default_rng(808)
    for case in range(20):
        n_feat = pyrng.randint(1, 30)
        feature_names = tuple(
            dict.fromkeys(f"w[0]=tok{pyrng.randint(0, 99)}" for _ in range(n_feat))
        )
        config = FeatureConfig(
            max_ngram_len=pyrng.randint(1, 12),
            window=pyrng.randint(0, 3),
            use_pos=pyrng.random() < 0.5,
            use_shape=pyrng.random() < 0.5,
            l2_lambda=pyrng.choice([0.0, 0.1, 2.5e-3]),
        )
        weights = rng.normal(0, 10.0 ** pyrng.randint(-6, 6),
                             len(feature_names) * 7 + 49)
        model = CrfModel(LABELS, feature_names, weights, config)
        path = tmp_path / f"model{case}.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.labels == model.labels
        assert loaded.feature_names == model.feature_names
        assert loaded.config == model.config
        assert np.array_equal(loaded.weights, model.weights)
    print("\nACCEPTANCE 8 PASS - IOB TSV and model file round-trips are exact")
