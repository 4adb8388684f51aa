import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outbreakminer.corpus import LABELS, LabeledToken
from outbreakminer.crf import (
    CrfModel,
    FeatureConfig,
    extract_features,
    load_model,
    log_forward_backward,
    minimize_lbfgs,
    nll_and_gradient,
    save_model,
    spans_from_iob,
    train,
    viterbi,
)
from outbreakminer.errors import ModelFormatError
from outbreakminer.synthcorpus import generate_labeled_corpus


class BareToken:
    """Minimal token carrier for toy label sets outside the closed set."""

    def __init__(self, token, pos, label):
        self.token = token
        self.pos = pos
        self.label = label


def make_model(labels, feature_names, weights, **cfg):
    config = FeatureConfig(**{
        "max_ngram_len": 1, "window": 0, "use_pos": False, "use_shape": False,
        "l2_lambda": 0.0, **cfg,
    })
    return CrfModel(
        labels=tuple(labels),
        feature_names=tuple(feature_names),
        weights=np.asarray(weights, dtype=float),
        config=config,
    )


def random_instance(pyrng, rng, max_labels=5, max_len=6, window=1):
    """Small random model + token sequence over a two-letter vocabulary."""
    n_labels = pyrng.randint(2, max_labels)
    seq_len = pyrng.randint(1, max_len)
    labels = tuple(f"L{i}" for i in range(n_labels))
    cfg = FeatureConfig(max_ngram_len=1, window=window, use_pos=False,
                        use_shape=False, l2_lambda=pyrng.choice([0.0, 0.3]))
    tokens = [pyrng.choice("ab") for _ in range(seq_len)]
    names: dict[str, None] = {}
    for t in range(seq_len):
        for name in extract_features(tokens, ["OTHER"] * seq_len, t, cfg):
            names.setdefault(name)
    feature_names = tuple(names)
    n_feat = len(feature_names)
    weights = rng.normal(0.0, 1.0, n_feat * n_labels + n_labels ** 2)
    model = CrfModel(labels=labels, feature_names=feature_names,
                     weights=weights, config=cfg)
    return model, tokens


def brute_force_scores(model, tokens):
    """Score of every label path by direct enumeration."""
    from outbreakminer.crf import _emissions

    emis = _emissions(model, tokens, ["OTHER"] * len(tokens))
    trans = model.transition_weights
    n = len(tokens)
    paths = np.array(list(itertools.product(range(model.n_labels), repeat=n)))
    scores = emis[np.arange(n), paths].sum(axis=1)
    if n > 1:
        scores += trans[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    return paths, scores


def optimal_path_set(paths, scores):
    """Indices of all paths within float tolerance of the brute max."""
    top = scores.max()
    near = np.where(scores >= top - 1e-9 * max(1.0, abs(top)))[0]
    return near, float(top)


class TestExtractFeatures:
    def test_ngrams_and_identity(self):
        cfg = FeatureConfig(max_ngram_len=2, window=0, use_pos=False,
                            use_shape=False, l2_lambda=0.0)
        feats = set(extract_features(["cases"], ["NOUN"], 0, cfg))
        expected_ngrams = {f"ng={g}" for g in
                           ["c", "a", "s", "e", "ca", "as", "se", "es"]}
        assert feats == expected_ngrams | {"w[0]=cases"}

    def test_window_zero_is_local(self):
        cfg = FeatureConfig(max_ngram_len=1, window=0, use_pos=False,
                            use_shape=False, l2_lambda=0.0)
        a = extract_features(["x", "same", "y"], ["N"] * 3, 1, cfg)
        b = extract_features(["p", "same", "q"], ["N"] * 3, 1, cfg)
        assert a == b

    def test_digit_shape(self):
        cfg = FeatureConfig(max_ngram_len=1, window=0, use_pos=False,
                            use_shape=True, l2_lambda=0.0)
        assert "shape=all-digits" in extract_features(["45"], ["NUM"], 0, cfg)

    def test_pos_and_window_features(self):
        cfg = FeatureConfig(max_ngram_len=1, window=1, use_pos=True,
                            use_shape=False, l2_lambda=0.0)
        feats = extract_features(["a", "b", "c"], ["X", "Y", "Z"], 1, cfg)
        assert "w[-1]=a" in feats and "w[1]=c" in feats
        assert "p[-1]=X" in feats and "p[0]=Y" in feats

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            FeatureConfig(max_ngram_len=0)
        with pytest.raises(ValueError):
            FeatureConfig(max_ngram_len=13)
        with pytest.raises(ValueError):
            FeatureConfig(l2_lambda=-1.0)

    def test_encoded_rows_follow_extract_features(self):
        # extract_features is the reference, including which features a model
        # does not know: a position reads its token's local segment and its
        # window slots, less the zero row, and nothing else.
        from outbreakminer.crf import _encode_tokens

        corpus = generate_labeled_corpus(40, seed=6)
        for cfg in (FeatureConfig(max_ngram_len=4),
                    FeatureConfig(max_ngram_len=2, window=30, use_shape=False)):
            names: dict[str, None] = {}
            for seq in corpus[:20]:
                tokens, pos = [t.token for t in seq], [t.pos for t in seq]
                for t in range(len(seq)):
                    names.update(dict.fromkeys(extract_features(tokens, pos, t, cfg)))
            known = list(names)[::2]  # every other feature, so some are unknown
            model = make_model(LABELS, known, np.zeros(len(known) * 7 + 49), **vars(cfg))
            index, none = model.feature_index, model.n_features
            token, local, local_starts, window = _encode_tokens(
                model, [[t.token for t in seq] for seq in corpus],
                [[t.pos for t in seq] for seq in corpus])
            ends = np.append(local_starts[1:], local.size)
            position = 0
            for seq in corpus:
                tokens, pos = [t.token for t in seq], [t.pos for t in seq]
                for t in range(len(seq)):
                    v = token[position]
                    rows = local[local_starts[v]:ends[v]].tolist() + window[:, position].tolist()
                    expected = [index[n] for n in extract_features(tokens, pos, t, cfg)
                                if n in index]
                    assert sorted(r for r in rows if r != none) == sorted(expected)
                    position += 1
            assert position == token.size
            identity_known = [bool(model.local_rows(t.token)[0]) for seq in corpus for t in seq]
            assert any(identity_known) and not all(identity_known)

    def test_batch_encoding_matches_each_sentence_alone(self):
        # Sentences encoded together score bit for bit as they do alone,
        # including ones shorter than the window.
        from outbreakminer.crf import _emission_scores, _emissions, _encode_tokens

        corpus = generate_labeled_corpus(30, seed=8)
        cfg = FeatureConfig(max_ngram_len=3, window=2)
        model = train(corpus, cfg, max_iter=1)
        model.weights[:] = np.random.default_rng(8).normal(size=model.weights.size)
        sentences = [[(t.token, t.pos) for t in seq] for seq in corpus[20:]]
        sentences += [[("died", "VERB")], [("two", "NUM"), ("died", "VERB")],
                      [("unseen", "OTHER")]]
        token_seqs = [[tok for tok, _ in s] for s in sentences]
        pos_seqs = [[tag for _, tag in s] for s in sentences]
        together = _emission_scores(model.emission_weights,
                                    *_encode_tokens(model, token_seqs, pos_seqs)).T
        lengths = [len(s) for s in sentences]
        assert {1, 2} <= set(lengths) and max(lengths) > 5
        parts = np.split(together, np.cumsum(lengths)[:-1])
        for tokens, pos, part in zip(token_seqs, pos_seqs, parts):
            alone = _emissions(model, tokens, pos)
            assert alone.shape == part.shape
            assert alone.tobytes() == np.ascontiguousarray(part).tobytes()


class TestForwardBackward:
    def test_zero_weights_uniform(self):
        n_feat = 1
        weights = np.zeros(n_feat * 7 + 49)
        model = make_model(LABELS, ["w[0]=x"], weights)
        for n in (1, 2, 5):
            log_z, unary, pairwise = log_forward_backward(model, ["x"] * n, ["OTHER"] * n)
            assert log_z == pytest.approx(n * math.log(7), rel=1e-12)
            assert np.allclose(unary, 1.0 / 7)
            assert pairwise.shape == (n - 1, 7, 7)

    def test_single_token_softmax(self):
        # Closed form checked by hand: marginals = softmax of emission scores.
        labels = ("A", "B", "C")
        weights = np.zeros(1 * 3 + 9)
        weights[:3] = [0.5, -1.0, 2.0]
        model = make_model(labels, ["w[0]=t"], weights)
        _, unary, _ = log_forward_backward(model, ["t"], ["OTHER"])
        scores = np.array([0.5, -1.0, 2.0])
        expected = np.exp(scores) / np.exp(scores).sum()
        assert np.allclose(unary[0], expected, atol=1e-12)

    def test_partition_matches_brute_force(self):
        pyrng = random.Random(5)
        rng = np.random.default_rng(5)
        for _ in range(25):
            model, tokens = random_instance(pyrng, rng, max_labels=4)
            _, scores = brute_force_scores(model, tokens)
            brute = float(np.log(np.exp(scores - scores.max()).sum()) + scores.max())
            log_z, unary, pairwise = log_forward_backward(
                model, tokens, ["OTHER"] * len(tokens)
            )
            assert abs(log_z - brute) <= 1e-9 * max(1.0, abs(brute))
            assert np.allclose(unary.sum(axis=1), 1.0, atol=1e-9)
            # Pairwise tables marginalize back to the unaries.
            for t in range(len(tokens) - 1):
                assert np.allclose(pairwise[t].sum(axis=1), unary[t], atol=1e-9)
                assert np.allclose(pairwise[t].sum(axis=0), unary[t + 1], atol=1e-9)

    def test_empty_sequence_rejected(self):
        model = make_model(LABELS, ["w[0]=x"], np.zeros(7 + 49))
        with pytest.raises(ValueError):
            log_forward_backward(model, [], [])

    @pytest.mark.parametrize("pos", [["N"], ["N", "N", "N"]], ids=["short", "long"])
    def test_pos_length_mismatch_rejected(self, pos):
        model = make_model(LABELS, ["w[0]=x", "p[0]=N"], np.zeros(2 * 7 + 49), window=2,
                           use_pos=True)
        with pytest.raises(ValueError, match="one POS tag per token"):
            log_forward_backward(model, ["x", "x"], pos)
        with pytest.raises(ValueError, match="one POS tag per token"):
            viterbi(model, ["x", "x"], pos)


class TestObjective:
    def test_uniform_model_single_token(self):
        model = make_model(LABELS, ["w[0]=died"], np.zeros(7 + 49))
        seq = [LabeledToken("died", "VERB", "B-DEATHS")]
        objective, gradient = nll_and_gradient(model, [seq])
        assert objective == pytest.approx(math.log(7), rel=1e-12)
        assert gradient.shape == model.weights.shape

    def test_regularizer_only_on_empty_dataset(self):
        weights = np.arange(1.0, 57.0)
        model = make_model(LABELS, ["w[0]=x"], weights, l2_lambda=0.5)
        objective, gradient = nll_and_gradient(model, [])
        assert objective == pytest.approx(0.25 * float(weights @ weights), rel=1e-12)
        assert np.allclose(gradient, 0.5 * weights)

    def test_gradient_matches_finite_differences(self):
        pyrng = random.Random(11)
        rng = np.random.default_rng(11)
        for _ in range(10):
            model, tokens = random_instance(pyrng, rng, max_labels=4, max_len=4)
            y = [pyrng.choice(model.labels) for _ in tokens]
            dataset = [[BareToken(t, "OTHER", lab) for t, lab in zip(tokens, y)]]
            objective, gradient = nll_and_gradient(model, dataset)
            h = 1e-5
            for i in pyrng.sample(range(len(model.weights)), min(8, len(model.weights))):
                w_plus = model.weights.copy()
                w_plus[i] += h
                w_minus = model.weights.copy()
                w_minus[i] -= h
                model_p = CrfModel(model.labels, model.feature_names, w_plus, model.config)
                model_m = CrfModel(model.labels, model.feature_names, w_minus, model.config)
                f_plus, _ = nll_and_gradient(model_p, dataset)
                f_minus, _ = nll_and_gradient(model_m, dataset)
                numeric = (f_plus - f_minus) / (2 * h)
                scale = max(1.0, abs(gradient[i]), abs(numeric))
                assert abs(gradient[i] - numeric) <= 1e-6 * scale

    @pytest.mark.parametrize("weight_scale", [1.0, 10.0])
    def test_mixed_length_batch_matches_per_sequence_oracle(self, weight_scale):
        # Sequences of lengths 1-8 in one batch exercise the padding and
        # the longest-first step index.
        from outbreakminer.crf import _emissions

        pyrng = random.Random(17)
        rng = np.random.default_rng(17)
        labels = ("L0", "L1", "L2", "L3")
        cfg = FeatureConfig(max_ngram_len=2, window=1, use_pos=False,
                            use_shape=False, l2_lambda=0.3)
        sequences = [[pyrng.choice(["ab", "b", "ba", "a"]) for _ in range(n)]
                     for n in (3, 1, 8, 5, 1, 7, 2, 8, 4, 6)]
        names: dict[str, None] = {}
        for tokens in sequences:
            for t in range(len(tokens)):
                for name in extract_features(tokens, ["OTHER"] * len(tokens), t, cfg):
                    names.setdefault(name)
        size = len(names) * len(labels) + len(labels) ** 2
        model = CrfModel(labels, tuple(names), rng.normal(0.0, weight_scale, size), cfg)
        dataset = [[BareToken(tok, "OTHER", pyrng.choice(labels)) for tok in tokens]
                   for tokens in sequences]

        expected = 0.5 * cfg.l2_lambda * float(model.weights @ model.weights)
        for seq in dataset:
            tokens = [tok.token for tok in seq]
            y = [labels.index(tok.label) for tok in seq]
            log_z, _, _ = log_forward_backward(model, tokens, ["OTHER"] * len(tokens))
            emis = _emissions(model, tokens, ["OTHER"] * len(tokens))
            gold = emis[np.arange(len(y)), y].sum()
            gold += sum(model.transition_weights[a, b] for a, b in zip(y, y[1:]))
            expected += log_z - gold
        objective, gradient = nll_and_gradient(model, dataset)
        assert abs(objective - expected) <= 1e-9 * abs(expected)

        h = 1e-5
        for i in range(size):
            w_plus, w_minus = model.weights.copy(), model.weights.copy()
            w_plus[i] += h
            w_minus[i] -= h
            f_plus, _ = nll_and_gradient(CrfModel(labels, model.feature_names, w_plus, cfg),
                                         dataset)
            f_minus, _ = nll_and_gradient(CrfModel(labels, model.feature_names, w_minus, cfg),
                                          dataset)
            numeric = (f_plus - f_minus) / (2 * h)
            scale = max(1.0, abs(gradient[i]), abs(numeric))
            assert abs(gradient[i] - numeric) <= 1e-6 * scale, i


def toy_corpus(n=50):
    corpus = []
    for i in range(n):
        corpus.append([
            LabeledToken("the", "DET", "O"),
            LabeledToken(f"person{i % 7}", "OTHER", "O"),
            LabeledToken("died", "VERB", "B-DEATHS"),
        ])
        corpus.append([
            LabeledToken("a", "DET", "O"),
            LabeledToken("team", "OTHER", "O"),
            LabeledToken("arrived", "VERB", "O"),
        ])
    return corpus


class TestTrain:
    def test_learns_separable_toy(self):
        model = train(toy_corpus(), FeatureConfig(max_ngram_len=2, window=1),
                      max_iter=100)
        result = viterbi(model, ["she", "died"], ["PRON", "VERB"])
        assert result.labels == ["O", "B-DEATHS"]

    def test_all_o_corpus_decodes_o(self):
        corpus = [[LabeledToken("plain", "OTHER", "O"),
                   LabeledToken("text", "OTHER", "O")]] * 8
        model = train(corpus, FeatureConfig(), max_iter=50)
        assert viterbi(model, ["plain", "text"], ["OTHER", "OTHER"]).labels == ["O", "O"]

    def test_deterministic(self):
        corpus = toy_corpus(10)
        a = train(corpus, FeatureConfig(max_ngram_len=2, window=1), max_iter=60)
        b = train(corpus, FeatureConfig(max_ngram_len=2, window=1), max_iter=60)
        assert np.array_equal(a.weights, b.weights)
        assert a.feature_names == b.feature_names

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], FeatureConfig())

    def test_unknown_label_rejected_by_name(self):
        corpus = [[BareToken("cases", "NOUN", "O"), BareToken("rose", "VERB", "B-RECOVERIES")]]
        with pytest.raises(ValueError, match="'B-RECOVERIES'"):
            train(corpus, FeatureConfig(), max_iter=5)

    def test_objective_decreases_across_iterations(self):
        log: list = []
        train(toy_corpus(10), FeatureConfig(max_ngram_len=2, window=1),
              max_iter=60, iteration_log=log)
        assert len(log) >= 2
        assert log[0] >= 0.0
        assert all(b <= a + 1e-9 for a, b in zip(log, log[1:]))

    @staticmethod
    def trained_record(caplog, corpus, **kwargs):
        log: list = []
        with caplog.at_level("INFO", logger="outbreakminer.crf"):
            train(corpus, FeatureConfig(max_ngram_len=2, window=1), iteration_log=log,
                  **kwargs)
        record = caplog.records[-1]
        assert record.getMessage().startswith("trained CRF")
        return record, log

    def test_reports_max_iter_stop(self, caplog):
        record, log = self.trained_record(caplog, toy_corpus(10), max_iter=2)
        # args: features, sequences, evaluations, iterations, stop reason, max|g|
        evals, iterations, status, g_inf = record.args[2:6]
        assert (iterations, status) == (2, "max_iter")
        assert evals >= 3 and len(log) == 2 and g_inf > 1e-5

    def test_reports_convergence_stop(self, caplog):
        record, log = self.trained_record(caplog, toy_corpus(10), max_iter=500)
        evals, iterations, status, g_inf = record.args[2:6]
        assert status in ("gtol", "ftol")
        assert 0 < iterations < 500 and evals >= iterations == len(log)
        assert status == "ftol" or g_inf <= 1e-5

    def test_line_search_failure_warns_before_record(self, caplog, monkeypatch):
        import outbreakminer.crf as crf_module

        objective = crf_module._encoded_nll_grad

        def uphill(*args):
            value, grad = objective(*args)
            return value, -grad

        monkeypatch.setattr(crf_module, "_encoded_nll_grad", uphill)
        record, log = self.trained_record(caplog, toy_corpus(5), max_iter=50)
        assert record.args[4] == "line_search" and log == []
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and caplog.records[-2] is warnings[0]

    def test_window_beyond_longest_sentence_is_clipped(self, tmp_path):
        # Offsets past the longest sentence never land on a token, so a huge
        # window trains and tags exactly as the longest useful one does.
        import time

        corpus = toy_corpus(6)
        started = time.perf_counter()
        huge = train(corpus, FeatureConfig(max_ngram_len=2, window=10 ** 6), max_iter=40)
        assert time.perf_counter() - started < 1.0
        longest = train(corpus, FeatureConfig(max_ngram_len=2, window=2), max_iter=40)
        assert huge.feature_names == longest.feature_names
        assert np.array_equal(huge.weights, longest.weights)
        path = tmp_path / "model.tsv"
        save_model(huge, path)
        loaded = load_model(path)
        assert loaded.config.window == 10 ** 6
        for tokens, pos in ([["the", "person3", "died"], ["DET", "OTHER", "VERB"]],
                            [["died"], ["VERB"]]):
            assert viterbi(loaded, tokens, pos) == viterbi(longest, tokens, pos)

    @pytest.mark.parametrize("cfg", [
        FeatureConfig(),
        FeatureConfig(max_ngram_len=1, window=0, use_pos=False, use_shape=False),
        FeatureConfig(max_ngram_len=3, window=1, use_pos=False),
        FeatureConfig(max_ngram_len=12, window=3, use_shape=False),
    ], ids=["default", "bare", "w1-nopos", "w3-noshape"])
    def test_feature_names_in_first_appearance_order(self, cfg):
        # Model files list features in this order, so it must not change.
        corpus = generate_labeled_corpus(30, seed=4)
        names: dict[str, None] = {}
        for seq in corpus:
            tokens, pos = [t.token for t in seq], [t.pos for t in seq]
            for t in range(len(seq)):
                names.update(dict.fromkeys(extract_features(tokens, pos, t, cfg)))
        assert train(corpus, cfg, max_iter=1).feature_names == tuple(names)


class TestLbfgs:
    def test_reaches_quadratic_minimiser(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(50, 50)))
        a = (q * np.logspace(0, 3, 50)) @ q.T  # condition number 1e3
        target = rng.normal(size=50)

        def fun(x):
            r = x - target
            return 0.5 * float(r @ a @ r), a @ r

        log: list = []
        result = minimize_lbfgs(fun, np.zeros(50), max_iter=1000, callback=log.append,
                                gtol=1e-8, ftol=0.0)
        assert result.status == "gtol"
        assert np.abs(result.x - target).max() <= 1e-6
        assert result.iterations == len(log) < 1000 and result.g_inf <= 1e-8

    def test_already_stationary_start_takes_no_step(self):
        result = minimize_lbfgs(lambda x: (float(x @ x), 2 * x), np.zeros(3), max_iter=10)
        assert (result.iterations, result.status, result.f) == (0, "gtol", 0.0)

    def test_matches_scipy_lbfgsb_at_convergence(self):
        optimize = pytest.importorskip("scipy.optimize")
        from outbreakminer.crf import _encode_dataset, _encoded_nll_grad

        corpus = generate_labeled_corpus(260, seed=21)
        fit, held_out = corpus[:60], corpus[60:]
        cfg = FeatureConfig()
        model = train(fit, cfg, max_iter=500)
        encoded = _encode_dataset(model, fit)
        reference = optimize.minimize(
            lambda w: _encoded_nll_grad(w, model.n_features, model.n_labels, encoded,
                                        cfg.l2_lambda),
            np.zeros_like(model.weights), jac=True, method="L-BFGS-B",
            options={"maxiter": 500, "gtol": 1e-5, "maxcor": 10})
        assert reference.success
        assert np.abs(model.weights - reference.x).max() <= 1e-3
        other = CrfModel(model.labels, model.feature_names, reference.x, cfg)
        for seq in held_out:
            tokens, pos = [t.token for t in seq], [t.pos for t in seq]
            assert viterbi(model, tokens, pos).labels == viterbi(other, tokens, pos).labels


class TestViterbi:
    def test_zero_weights_all_o(self):
        model = make_model(LABELS, ["w[0]=x"], np.zeros(7 + 49))
        assert viterbi(model, ["x", "x", "x"], ["OTHER"] * 3).labels == ["O", "O", "O"]

    def test_single_positive_weight(self):
        # Hand comparison: only path putting B-DEATHS on "died" scores 1.5;
        # every other path scores <= 0.
        weights = np.zeros(7 + 49)
        weights[LABELS.index("B-DEATHS")] = 1.5  # feature "w[0]=died", label B-DEATHS
        model = make_model(LABELS, ["w[0]=died"], weights)
        result = viterbi(model, ["died"], ["VERB"])
        assert result.labels == ["B-DEATHS"]
        assert result.path_score == pytest.approx(1.5)
        assert result.spans == [("DEATHS", 0, 0)]

    def test_matches_brute_force(self):
        pyrng = random.Random(3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            model, tokens = random_instance(pyrng, rng)
            paths, scores = brute_force_scores(model, tokens)
            optimal, best_score = optimal_path_set(paths, scores)
            result = viterbi(model, tokens, ["OTHER"] * len(tokens))
            got = [model.labels.index(lab) for lab in result.labels]
            assert result.path_score == pytest.approx(best_score, rel=1e-9)
            if len(optimal) == 1:
                assert got == list(paths[optimal[0]])
            else:
                assert any(got == list(paths[i]) for i in optimal)

    def test_constrained_decode_is_strictly_valid(self):
        pyrng = random.Random(9)
        rng = np.random.default_rng(9)
        for _ in range(25):
            n_tokens = pyrng.randint(1, 6)
            tokens = [pyrng.choice("ab") for _ in range(n_tokens)]
            cfg = FeatureConfig(max_ngram_len=1, window=0, use_pos=False,
                                use_shape=False, l2_lambda=0.0)
            names: dict[str, None] = {}
            for t in range(n_tokens):
                for name in extract_features(tokens, ["OTHER"] * n_tokens, t, cfg):
                    names.setdefault(name)
            feature_names = tuple(names)
            weights = rng.normal(0, 2.0, len(feature_names) * 7 + 49)
            model = CrfModel(LABELS, feature_names, weights, cfg)
            result = viterbi(model, tokens, ["OTHER"] * n_tokens, constrain_iob=True)
            for prev, label in zip(["O"] + result.labels, result.labels):
                if label.startswith("I-"):
                    assert prev in (f"B-{label[2:]}", label)


class TestSpans:
    def test_all_background(self):
        assert spans_from_iob(["O", "O", "O"]) == []

    def test_basic_span(self):
        assert spans_from_iob(["B-DEATHS", "I-DEATHS", "O"]) == [("DEATHS", 0, 1)]

    def test_adjacent_begins(self):
        assert spans_from_iob(["B-INFECTIONS", "B-INFECTIONS"]) == [
            ("INFECTIONS", 0, 0), ("INFECTIONS", 1, 1),
        ]

    def test_lenient_opens_span(self):
        assert spans_from_iob(["O", "I-DEATHS"]) == [("DEATHS", 1, 1)]

    def test_type_switch_inside(self):
        assert spans_from_iob(["B-DEATHS", "I-INFECTIONS"]) == [
            ("DEATHS", 0, 0), ("INFECTIONS", 1, 1),
        ]

    @given(st.lists(st.sampled_from(LABELS + ("B-", "I-", "X", "I-FOO", "B-FOO", ""))))
    @settings(max_examples=500, deadline=None)
    def test_matches_open_span_tracker(self, labels):
        # The span tracker that spans_from_iob replaced, kept as the reference.
        spans = []
        open_type = None
        open_start = 0

        def close(end):
            nonlocal open_type
            if open_type is not None:
                spans.append((open_type, open_start, end))
                open_type = None

        for i, label in enumerate(labels):
            if label.startswith("B-"):
                close(i - 1)
                open_type = label[2:]
                open_start = i
            elif label.startswith("I-"):
                entity = label[2:]
                if open_type != entity:
                    close(i - 1)
                    open_type = entity
                    open_start = i
            else:
                close(i - 1)
        close(len(labels) - 1)
        assert spans_from_iob(labels) == spans


class TestModelIo:
    def test_round_trip(self, tmp_path):
        model = train(toy_corpus(10), FeatureConfig(max_ngram_len=2, window=1),
                      max_iter=40)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.labels == model.labels
        assert loaded.feature_names == model.feature_names
        assert loaded.config == model.config
        assert np.array_equal(loaded.weights, model.weights)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("crf-model\t99\nlabels\tO\nconfig\tmax_ngram_len=1\n", encoding="utf-8")
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert "99" in str(err.value)

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "crf-model\t1\n"
            "labels\tO\tB-DEATHS\n"
            "config\tmax_ngram_len=1\twindow=0\tuse_pos=0\tuse_shape=0\tl2_lambda=0.0\n"
            "w[0]=x\tB-CASES\t1.0\n", encoding="utf-8"
        )
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_non_finite_weight(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "crf-model\t1\n"
            "labels\tO\tB-DEATHS\n"
            "config\tmax_ngram_len=1\twindow=0\tuse_pos=0\tuse_shape=0\tl2_lambda=0.0\n"
            "w[0]=x\tO\tnan\n", encoding="utf-8"
        )
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("config_line, weight_line, message", [
        ("config\tmax_ngram_len=1\twindow\tuse_pos=0\tuse_shape=0\tl2_lambda=0.0",
         "w[0]=x\tO\t1.0", "bad config line: "),
        ("config\tmax_ngram_len=1\twindow=0\tuse_pos=0\tuse_shape=0\tl2_lambda=0.0",
         "w[0]=x\tO\tabc", "line 4: bad weight 'abc'"),
        ("config\tmax_ngram_len=1\twindow=0\tuse_pos=0\tuse_shape=0\tl2_lambda=0.0",
         "TRANS\tO\tO\tabc", "line 4: bad weight 'abc'"),
    ], ids=["config-item-without-equals", "emission-weight", "transition-weight"])
    def test_malformed_config_or_weight_named(self, tmp_path, config_line,
                                              weight_line, message):
        path = tmp_path / "bad.tsv"
        path.write_text(f"crf-model\t1\nlabels\tO\n{config_line}\n{weight_line}\n",
                        encoding="utf-8")
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("labels_line, entry_lines, message", [
        ("labels\tO\tO", [], "repeated label 'O'"),
        ("labels\tO\tB-DEATHS", ["w[0]=x\tO\t1.0", "w[0]=x\tO\t2.0"],
         "line 5: repeated entry 'w[0]=x' 'O'"),
        ("labels\tO\tB-DEATHS", ["TRANS\tO\tB-DEATHS\t1.0", "TRANS\tO\tB-DEATHS\t2.0"],
         "line 5: repeated TRANS entry 'O' 'B-DEATHS'"),
    ], ids=["label", "emission-entry", "transition-entry"])
    def test_repeated_label_or_entry_named(self, tmp_path, labels_line, entry_lines,
                                           message):
        path = tmp_path / "bad.tsv"
        path.write_text("\n".join([
            "crf-model\t1", labels_line,
            "config\tmax_ngram_len=1\twindow=0\tuse_pos=0\tuse_shape=0\tl2_lambda=0.0",
            *entry_lines,
        ]) + "\n", encoding="utf-8")
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: {message}"

    def test_hand_written_model_tags_as_computed(self, tmp_path):
        # Two features; "w[0]=died" pushes B-DEATHS by +2, everything else 0.
        # Decoding "died" must therefore pick B-DEATHS with path score 2.
        path = tmp_path / "hand.tsv"
        path.write_text(
            "crf-model\t1\n"
            "labels\tO\tB-DEATHS\n"
            "config\tmax_ngram_len=1\twindow=0\tuse_pos=0\tuse_shape=0\tl2_lambda=0.0\n"
            "w[0]=died\tO\t0.0\n"
            "w[0]=died\tB-DEATHS\t2.0\n"
            "ng=d\tO\t0.0\n"
            "ng=d\tB-DEATHS\t0.0\n"
            "TRANS\tO\tO\t0.0\n"
            "TRANS\tO\tB-DEATHS\t0.0\n"
            "TRANS\tB-DEATHS\tO\t0.0\n"
            "TRANS\tB-DEATHS\tB-DEATHS\t0.0\n", encoding="utf-8"
        )
        model = load_model(path)
        result = viterbi(model, ["died"], ["VERB"])
        assert result.labels == ["B-DEATHS"]
        assert result.path_score == pytest.approx(2.0)
