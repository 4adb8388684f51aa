"""Tagger evaluation: confusion counts, P/R/F1, k-fold CV, n-gram sweep.

Token-level scoring with B-X and I-X as distinct labels and O as background.
Cross-validation reports the unweighted mean of per-fold metrics; the fold
unit is the sentence.
"""

from __future__ import annotations

import logging
import random
from dataclasses import asdict, dataclass, replace
from functools import partial, reduce
from operator import add
from typing import Iterable, Sequence

from .corpus import LABELS, LabeledToken
from .crf import FeatureConfig, train, viterbi
from .errors import TrainingError

logger = logging.getLogger(__name__)

ENTITY_LABELS = tuple(label for label in LABELS if label != "O")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def support(self) -> int:
        return self.tp + self.fn


@dataclass(frozen=True)
class LabelMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    """Cross-validation outcome: per-label and aggregate means over folds."""

    per_label: dict[str, LabelMetrics]
    aggregate: tuple[float, float, float]
    folds: int
    config: FeatureConfig

    def to_dict(self) -> dict:
        return {
            "kind": "metrics_report",
            "folds": self.folds,
            "config": asdict(self.config),
            "aggregate": {
                "precision": self.aggregate[0],
                "recall": self.aggregate[1],
                "f1": self.aggregate[2],
            },
            "per_label": {
                label: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                }
                for label, m in self.per_label.items()
            },
        }


@dataclass(frozen=True)
class SweepRow:
    max_ngram_len: int
    precision: float
    recall: float
    f1: float


def score_labels(gold: Sequence[Sequence[str]], predicted: Sequence[Sequence[str]],
                 labels: Iterable[str] | None = None) -> dict[str, ConfusionCounts]:
    """Token-level confusion counts per non-O label.

    ``gold`` and ``predicted`` must have identical sentence/token structure.
    """
    if len(gold) != len(predicted):
        raise ValueError(
            f"gold has {len(gold)} sentences, predicted has {len(predicted)}"
        )
    for i, (g, p) in enumerate(zip(gold, predicted)):
        if len(g) != len(p):
            raise ValueError(
                f"sentence {i}: gold has {len(g)} tokens, predicted has {len(p)}"
            )
    if labels is None:
        seen = {lab for sent in gold for lab in sent}
        seen.update(lab for sent in predicted for lab in sent)
        labels = sorted(seen - {"O"})
    total = sum(len(sent) for sent in gold)
    counts = {}
    for label in labels:
        tp = fp = fn = 0
        for g_sent, p_sent in zip(gold, predicted):
            for g, p in zip(g_sent, p_sent):
                if g == label and p == label:
                    tp += 1
                elif p == label:
                    fp += 1
                elif g == label:
                    fn += 1
        counts[label] = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=total - tp - fp - fn)
    return counts


def precision_recall_f1(counts: ConfusionCounts) -> tuple[float, float, float]:
    """P = tp/(tp+fp), R = tp/(tp+fn), F1 = 2PR/(P+R); 0/0 -> 0 throughout."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return precision, recall, f1


def k_fold_split(corpus: Sequence, k: int, seed: int) -> list[list]:
    """Shuffle sentences with the given seed, then deal round-robin into k folds."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > len(corpus):
        raise ValueError(f"k={k} exceeds corpus size {len(corpus)}")
    order = list(range(len(corpus)))
    random.Random(seed).shuffle(order)
    folds: list[list] = [[] for _ in range(k)]
    for rank, idx in enumerate(order):
        folds[rank % k].append(corpus[idx])
    return folds


def _fold_counts(payload) -> dict[str, ConfusionCounts]:
    """Train on one fold's complement and score its held-out sentences."""
    train_set, test_set, config, max_iter = payload
    model = train(train_set, config, max_iter=max_iter)
    gold = [[tok.label for tok in sent] for sent in test_set]
    predicted = []
    for sent in test_set:
        tokens = [tok.token for tok in sent]
        pos = [tok.pos for tok in sent]
        predicted.append(viterbi(model, tokens, pos).labels)
    return score_labels(gold, predicted, labels=ENTITY_LABELS)


def _in_fold(index: int, compute):
    """Run one fold's work, naming the fold in any TrainingError it raises."""
    try:
        return compute()
    except TrainingError as exc:
        raise TrainingError(f"fold {index}: {exc}") from exc


def cross_validate(corpus: Sequence[Sequence[LabeledToken]], config: FeatureConfig,
                   k: int = 10, seed: int = 0, *, max_iter: int = 150,
                   n_jobs: int = 1) -> MetricsReport:
    """Mean per-fold precision/recall/F1, per label and micro-aggregated.

    Folds train independently (optionally in parallel); results reduce in
    fold-index order so repeated runs are identical.
    """
    folds = k_fold_split(corpus, k, seed)
    payloads = []
    for i in range(k):
        train_set = [sent for j in range(k) if j != i for sent in folds[j]]
        payloads.append((train_set, folds[i], config, max_iter))

    if n_jobs > 1:
        # Only a parallel run pays for loading the process pool and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [pool.submit(_fold_counts, payload) for payload in payloads]
            fold_results = [_in_fold(i, future.result) for i, future in enumerate(futures)]
    else:
        fold_results = [_in_fold(i, partial(_fold_counts, payload))
                        for i, payload in enumerate(payloads)]

    def mean(values) -> float:
        # A plain running sum in fold order (sum() compensates from Python 3.12).
        return reduce(add, values, 0.0) / k

    per_label = {}
    for label in ENTITY_LABELS:
        p, r, f1 = zip(*(precision_recall_f1(counts[label]) for counts in fold_results))
        support = sum(counts[label].support for counts in fold_results)
        per_label[label] = LabelMetrics(mean(p), mean(r), mean(f1), support)
    p, r, f1 = zip(*(
        precision_recall_f1(ConfusionCounts(
            tp=sum(c.tp for c in counts.values()),
            fp=sum(c.fp for c in counts.values()),
            fn=sum(c.fn for c in counts.values()),
        ))
        for counts in fold_results
    ))
    aggregate = (mean(p), mean(r), mean(f1))
    return MetricsReport(per_label=per_label, aggregate=aggregate, folds=k, config=config)


def sweep_ngram(corpus: Sequence[Sequence[LabeledToken]], k: int, seed: int,
                ngram_values: Iterable[int] = range(1, 13),
                config: FeatureConfig | None = None, *, max_iter: int = 150,
                n_jobs: int = 1) -> list[SweepRow]:
    """Cross-validate once per n-gram cap; one report row per cap."""
    base = config if config is not None else FeatureConfig()
    rows = []
    for value in ngram_values:
        report = cross_validate(
            corpus, replace(base, max_ngram_len=value), k, seed,
            max_iter=max_iter, n_jobs=n_jobs,
        )
        rows.append(SweepRow(
            max_ngram_len=value,
            precision=report.aggregate[0],
            recall=report.aggregate[1],
            f1=report.aggregate[2],
        ))
        logger.info(
            "sweep cap %d: P %.3f R %.3f F1 %.3f",
            value, rows[-1].precision, rows[-1].recall, rows[-1].f1,
        )
    return rows
