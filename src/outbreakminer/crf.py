"""Linear-chain conditional random field, written out in full.

Feature extraction, exact log-space forward-backward inference, L2-regularized
maximum-likelihood training (quasi-Newton on the analytic gradient), Viterbi
decoding with IOB span assembly, and a line-based model file format.

Weight layout: one flat vector, emission entries (feature x label,
row-major) followed by the label-transition matrix (from x to).
"""

from __future__ import annotations

import logging
import math
import re
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import LABELS, LabeledToken, iob_follows
from .errors import ModelFormatError, TrainingError
from .textio import open_text, read_text

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = "1"


@dataclass(frozen=True)
class FeatureConfig:
    """Feature template switches.

    ``max_ngram_len`` caps the character n-grams emitted for the current
    token (the swept option, 1..12). ``window`` is the half-width of the
    token/POS context. ``l2_lambda`` scales the quadratic penalty.
    """

    max_ngram_len: int = 6
    window: int = 2
    use_pos: bool = True
    use_shape: bool = True
    l2_lambda: float = 0.1

    def __post_init__(self):
        if not 1 <= self.max_ngram_len <= 12:
            raise ValueError(f"max_ngram_len must be in [1, 12], got {self.max_ngram_len}")
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        if self.l2_lambda < 0:
            raise ValueError(f"l2_lambda must be >= 0, got {self.l2_lambda}")


@dataclass
class CrfModel:
    """A trained tagger: label set, feature dictionary, weight vector."""

    labels: tuple[str, ...]
    feature_names: tuple[str, ...]
    weights: np.ndarray
    config: FeatureConfig
    _feature_index: dict = field(default=None, repr=False, compare=False)
    _local_rows: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        expected = len(self.feature_names) * len(self.labels) + len(self.labels) ** 2
        if self.weights.shape != (expected,):
            raise ValueError(
                f"weight vector has length {self.weights.shape}, expected ({expected},)"
            )

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def emission_weights(self) -> np.ndarray:
        return self.weights[: self.n_features * self.n_labels].reshape(
            self.n_features, self.n_labels
        )

    @property
    def transition_weights(self) -> np.ndarray:
        return self.weights[self.n_features * self.n_labels:].reshape(
            self.n_labels, self.n_labels
        )

    @property
    def feature_index(self) -> dict[str, int]:
        if self._feature_index is None:
            self._feature_index = {name: i for i, name in enumerate(self.feature_names)}
        return self._feature_index

    def local_rows(self, token: str) -> tuple[list[int], list[int]]:
        """Rows of the token's known features, memoised: ``(identity, the rest)``.

        The identity list holds the ``w[0]`` row if it is known; the rest are
        the shape and n-gram rows, in ``extract_features`` order.
        """
        rows = self._local_rows.get(token)
        if rows is None:
            index = self.feature_index
            names = _local_features(token, self.config)
            rows = ([index[n] for n in names[:1] if n in index],
                    [index[n] for n in names[1:] if n in index])
            self._local_rows[token] = rows
        return rows


@dataclass(frozen=True)
class TagResult:
    """Viterbi output: per-token labels, IOB spans, best path's raw score."""

    labels: list[str]
    spans: list[tuple[str, int, int]]
    path_score: float


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

_NUMERIC_SHAPE = re.compile(r"^[\d,.]+$")


def _word_shape(token: str) -> str:
    if token.isdigit():
        return "all-digits"
    if _NUMERIC_SHAPE.match(token) and any(ch.isdigit() for ch in token):
        return "numeric"
    if token.isupper():
        return "all-caps"
    if token[:1].isupper() and token[1:].islower():
        return "init-cap"
    if token.islower():
        return "lower"
    return "mixed"


def _local_features(token: str, config: FeatureConfig) -> list[str]:
    """Features of the token alone: identity, shape when enabled, n-grams."""
    feats = [f"w[0]={token}"]
    if config.use_shape:
        feats.append(f"shape={_word_shape(token)}")
        if any(ch.isdigit() for ch in token) and not token.isdigit():
            feats.append("shape=has-digit")
    for length in range(1, min(config.max_ngram_len, len(token)) + 1):
        for i in range(len(token) - length + 1):
            feats.append(f"ng={token[i:i + length]}")
    return list(dict.fromkeys(feats))


def _context_features(tokens: Sequence[str], pos: Sequence[str], position: int,
                      config: FeatureConfig) -> tuple[list[str], list[str]]:
    """The window features at one position, split where ``w[0]`` goes.

    ``(w[-k..-1], w[1..k] + p[-k..k])`` for the offsets inside the sentence.
    """
    lo = max(0, position - config.window)
    hi = min(len(tokens), position + config.window + 1)
    before = [f"w[{i - position}]={tokens[i]}" for i in range(lo, position)]
    after = [f"w[{i - position}]={tokens[i]}" for i in range(position + 1, hi)]
    if config.use_pos:
        after += [f"p[{i - position}]={pos[i]}" for i in range(lo, hi)]
    return before, after


def extract_features(tokens: Sequence[str], pos: Sequence[str], position: int,
                     config: FeatureConfig) -> list[str]:
    """Feature names active at one position, deduplicated, deterministic order.

    Token identities (and POS tags when enabled) for offsets within the
    window, a word-shape class when enabled, and all character n-grams of the
    current token up to ``max_ngram_len``.
    """
    before, after = _context_features(tokens, pos, position, config)
    local = _local_features(tokens[position], config)
    return before + local[:1] + after + local[1:]


def _encode_tokens(model: CrfModel, token_seqs: Sequence[Sequence[str]],
                   pos_seqs: Sequence[Sequence[str]]):
    """``(token, local, local_starts, window)`` of sequences laid end to end.

    ``token`` maps each position to its vocabulary entry. Entry v's identity,
    shape and n-gram rows, encoded once, are ``local[local_starts[v]:]`` up to
    and including the zero row ``n_features`` that ends every segment.
    ``window`` is ``(slots, positions)``: each slot is one ``w[off]`` (off != 0)
    or ``p[off]`` feature, and holds ``n_features`` where the offset leaves the
    sequence or the feature is unknown. Offsets stop at the longest sequence's
    length minus 1; larger ones never land on a token.
    """
    none, index = model.n_features, model.feature_index
    k = max(0, min(model.config.window, max(map(len, token_seqs), default=0) - 1))

    # k gap positions before, between and after the sequences hold id -1,
    # which picks the last entry, the zero row, of every slot's row table.
    def lay_out(seqs) -> tuple[dict[str, int], np.ndarray]:
        ids, out = {}, [-1] * k
        for seq in seqs:
            out += [ids.setdefault(value, len(ids)) for value in seq] + [-1] * k
        return ids, np.asarray(out, dtype=np.intp)

    (vocab, token_at), (tags, tag_at) = lay_out(token_seqs), lay_out(pos_seqs)
    at = np.flatnonzero(token_at >= 0)

    local_lists = [identity + rest + [none] for identity, rest in map(model.local_rows, vocab)]
    local = np.asarray([r for rows in local_lists for r in rows], dtype=np.intp)
    sizes = np.asarray([len(rows) for rows in local_lists], dtype=np.intp)
    local_starts = np.cumsum(sizes) - sizes

    slots = [("w", off, vocab, token_at) for off in range(-k, k + 1) if off]
    if model.config.use_pos:
        slots += [("p", off, tags, tag_at) for off in range(-k, k + 1)]
    window = np.empty((len(slots), at.size), dtype=np.intp)
    for row, (kind, off, values, ids) in zip(window, slots):
        rows = np.asarray([index.get(f"{kind}[{off}]={v}", none) for v in values] + [none])
        row[:] = rows[ids[at + off]]
    return token_at[at], local, local_starts, window


def _emission_scores(emission_w, token, local, local_starts, window) -> np.ndarray:
    """(labels x positions) scores of an ``_encode_tokens`` encoding.

    The table is label-major, so every gather and segment sum runs along a
    contiguous row; its last column is the zero row's.
    """
    table = np.zeros((emission_w.shape[1], emission_w.shape[0] + 1))
    table[:, :-1] = emission_w.T
    per_token = np.add.reduceat(table.take(local, axis=1), local_starts, axis=1)
    emis_t = per_token.take(token, axis=1)
    for slot in window:
        emis_t += table.take(slot, axis=1)
    return emis_t


def _emissions(model: CrfModel, tokens: Sequence[str], pos: Sequence[str]) -> np.ndarray:
    """One sentence's (positions x labels) scores."""
    if not tokens or len(pos) != len(tokens):
        raise ValueError("sequence must be non-empty, with one POS tag per token")
    return _emission_scores(model.emission_weights, *_encode_tokens(model, [tokens], [pos])).T


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def _logsumexp(arr: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(arr, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(arr - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def log_forward_backward(model: CrfModel, tokens: Sequence[str], pos: Sequence[str]):
    """Log partition plus per-position and per-edge label marginals.

    Exact, all in log space. Each unary row sums to 1; each pairwise table
    sums to 1 and marginalizes back to the unaries.
    """
    emis = _emissions(model, tokens, pos)
    trans = model.transition_weights
    n, n_labels = emis.shape
    alpha = np.empty(emis.shape)
    alpha[0] = emis[0]
    for t in range(1, n):
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + trans, axis=0) + emis[t]
    log_z = float(_logsumexp(alpha[-1], axis=0))

    beta = np.zeros((n, n_labels))
    for t in range(n - 2, -1, -1):
        beta[t] = _logsumexp(trans + (emis[t + 1] + beta[t + 1])[None, :], axis=1)

    unary = np.exp(alpha + beta - log_z)
    unary /= unary.sum(axis=1, keepdims=True)

    pairwise = np.empty((n - 1, n_labels, n_labels))
    for t in range(n - 1):
        scores = alpha[t][:, None] + trans + (emis[t + 1] + beta[t + 1])[None, :]
        table = np.exp(scores - log_z)
        pairwise[t] = table / table.sum()
    return log_z, unary, pairwise


# ---------------------------------------------------------------------------
# objective and gradient
# ---------------------------------------------------------------------------

class _Batch(NamedTuple):
    """``_encode_tokens``'s four arrays, then the training rest; see ``_encode_dataset``."""

    token: np.ndarray
    local: np.ndarray
    local_starts: np.ndarray
    window: np.ndarray
    grad_rows: np.ndarray
    grad_features: np.ndarray
    grad_starts: np.ndarray
    y: np.ndarray
    steps: np.ndarray


def _encode_dataset(model: CrfModel, dataset: Sequence[Sequence[LabeledToken]]) -> _Batch:
    """One training batch: ``_encode_tokens`` of the dataset plus labels and order.

    Positions run in dataset order. The emission gradient sums rows of
    ``[per-position marginals; per-token sums]``: ``grad_rows`` holds them
    grouped by feature, group g starting at ``grad_starts[g]`` for feature
    ``grad_features[g]``. ``y`` holds each position's gold label; ``steps``
    is a ``(B, L)`` index from sequence step to position, padded with -1,
    longest sequence first, so the sequences still running at any step are a
    prefix of the rows.
    """
    label_index = {lab: i for i, lab in enumerate(model.labels)}
    try:
        y = np.fromiter((label_index[t.label] for seq in dataset for t in seq), np.intp)
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} not in model label set") from None
    token, local, local_starts, window = _encode_tokens(
        model, [[t.token for t in seq] for seq in dataset],
        [[t.pos for t in seq] for seq in dataset])
    n, none = y.size, model.n_features

    in_window, in_local = window < none, local < none
    features = np.concatenate([window[in_window], local[in_local]])
    # A local entry's owner is the count of zero rows, which end segments, before it.
    sources = np.concatenate([np.broadcast_to(np.arange(n), window.shape)[in_window],
                              n + np.cumsum(~in_local)[in_local]])
    order = np.argsort(features, kind="stable")
    features, grad_rows = features[order], sources[order]
    grad_starts = np.flatnonzero(np.diff(features, prepend=-1))

    lengths = np.asarray([len(seq) for seq in dataset], dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    offsets = np.arange(lengths.max(initial=0))
    steps = np.where(offsets < lengths[order, None], starts[order, None] + offsets, -1)
    return _Batch(token, local, local_starts, window, grad_rows, features[grad_starts],
                  grad_starts, y, steps)


def _encoded_nll_grad(weights: np.ndarray, n_features: int, n_labels: int,
                      encoded: _Batch, l2_lambda: float):
    """Objective and gradient over one ``_encode_dataset`` batch.

    Forward-backward runs over the whole batch at once, in probability space
    with one normaliser per step (Rabiner 1989; Sutton & McCallum 2012,
    section 4.1). Each position's emission max and the transition max are
    taken out before exponentiating and added back into log Z, so scores
    stay finite while a step's score range is well under ~700.
    """
    b = encoded
    y, steps = b.y, b.steps
    n_emit = n_features * n_labels
    trans = weights[n_emit:].reshape(n_labels, n_labels)
    nll = 0.5 * l2_lambda * float(np.sum(weights * weights))
    grad = l2_lambda * weights
    if y.size:
        emis = _emission_scores(weights[:n_emit].reshape(n_features, n_labels), *b[:4]).T
        emis_max = emis.max(axis=1)
        trans_max = trans.max()
        expo_t = np.exp(trans - trans_max)
        # Time-major: slab t holds step t, and its first running[t] rows are
        # the sequences still running there.
        index = steps.T
        valid = index >= 0
        running = valid.sum(axis=1)
        psi = np.exp(emis - emis_max[:, None])[index]
        alpha = np.zeros_like(psi)
        beta = np.ones_like(psi)
        # ahead[t] = psi[t] * beta[t] / scale[t], shared by the backward
        # recursion and the expected transition counts.
        ahead = np.zeros_like(psi)
        scale = np.ones(index.shape)  # padding keeps 1, adding log 1 = 0
        for t, n in enumerate(running):
            a = psi[t, :n] if t == 0 else (alpha[t - 1, :n] @ expo_t) * psi[t, :n]
            scale[t, :n] = a.sum(axis=1)
            alpha[t, :n] = a / scale[t, :n, None]
        for t in range(len(running) - 1, 0, -1):
            n = running[t]
            ahead[t, :n] = psi[t, :n] * beta[t, :n] / scale[t, :n, None]
            beta[t - 1, :n] = ahead[t, :n] @ expo_t.T

        edge = valid[1:]
        prev, nxt = index[:-1][edge], index[1:][edge]
        log_z = np.log(scale).sum() + emis_max.sum() + prev.size * trans_max
        gold = emis[np.arange(y.size), y].sum() + trans[y[prev], y[nxt]].sum()
        nll += float(log_z - gold)

        marginals = np.empty_like(emis)
        marginals[index[valid]] = (alpha * beta)[valid]
        marginals[np.arange(y.size), y] -= 1.0
        marginals_t = marginals.T
        token_sums = [np.bincount(b.token, m, len(b.local_starts)) for m in marginals_t]
        rows = np.concatenate([marginals_t, token_sums], axis=1).take(b.grad_rows, axis=1)
        grad[:n_emit].reshape(n_features, n_labels)[b.grad_features] += np.add.reduceat(
            rows, b.grad_starts, axis=1).T
        grad_t = expo_t * (alpha[:-1][edge].T @ ahead[1:][edge])
        np.add.at(grad_t, (y[prev], y[nxt]), -1.0)
        grad[n_emit:] += grad_t.ravel()
    return nll, grad


def nll_and_gradient(model: CrfModel, dataset: Sequence[Sequence[LabeledToken]]):
    """L2-regularized negative log-likelihood and its exact gradient.

    objective = -sum log p(y|x; w) + (lambda/2) ||w||^2
    gradient  = (model-expected features - observed features) + lambda w
    """
    encoded = _encode_dataset(model, dataset)
    return _encoded_nll_grad(
        model.weights, model.n_features, model.n_labels, encoded,
        model.config.l2_lambda,
    )


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class LbfgsResult(NamedTuple):
    """What ``minimize_lbfgs`` stopped at; ``g_inf`` is max|g| there."""

    x: np.ndarray
    f: float
    g_inf: float
    iterations: int
    status: str  # "gtol", "ftol", "max_iter" or "line_search"


def _wolfe_step(fun, x, f0, g0, direction, step):
    """A step meeting the strong Wolfe conditions, as ``(step, f, g)``, or None.

    Nocedal & Wright (2006), Alg. 3.5 (bracketing) and 3.6 (zoom), with the
    cubic interpolation of their eq. 3.59 inside the bracket, c1 = 1e-4,
    c2 = 0.9, and at most 20 evaluations, as L-BFGS-B allows. ``lo`` is the
    lowest trial with sufficient decrease; ``hi`` the other bracket end.
    """
    c1, c2 = 1e-4, 0.9
    slope0 = float(g0 @ direction)
    lo, hi = (0.0, f0, slope0), None
    for _ in range(20):
        f, g = fun(x + step * direction)
        slope = float(g @ direction)
        if f > f0 + c1 * step * slope0 or f >= lo[1]:
            hi = (step, f, slope)
        elif abs(slope) <= -c2 * slope0:
            return step, f, g
        else:
            if slope * ((hi[0] if hi else math.inf) - lo[0]) >= 0:
                hi = lo
            lo = (step, f, slope)
        if hi is None:
            step *= 2.0
            continue
        (a_lo, f_lo, d_lo), (a_hi, f_hi, d_hi) = lo, hi
        e = d_lo + d_hi - 3.0 * (f_lo - f_hi) / (a_lo - a_hi)
        root = math.sqrt(max(e * e - d_lo * d_hi, 0.0)) * math.copysign(1.0, a_hi - a_lo)
        denom = d_hi - d_lo + 2.0 * root
        step = a_hi - (a_hi - a_lo) * (d_hi + root - e) / denom if denom else math.nan
        # Keep the trial off the bracket ends; bisect when the cubic strays.
        margin = 0.1 * abs(a_hi - a_lo)
        if not min(a_lo, a_hi) + margin <= step <= max(a_lo, a_hi) - margin:
            step = 0.5 * (a_lo + a_hi)
    return None


def minimize_lbfgs(fun, x, *, max_iter: int, callback=None, gtol: float = 1e-5,
                   ftol: float = 1e7 * np.finfo(float).eps) -> LbfgsResult:
    """Minimise ``fun(x) -> (value, gradient)`` by L-BFGS (Liu & Nocedal 1989).

    The direction comes from the two-loop recursion over the last 10
    curvature pairs (Nocedal & Wright 2006, Alg. 7.4); the first step has
    unit length. Stops as L-BFGS-B does: when ``max|g| <= gtol``, when f
    falls by no more than ``ftol * max(|f_old|, |f|, 1)``, or after
    ``max_iter`` iterations. ``callback(f)`` runs after each iteration.
    """
    f, g = fun(x)
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=10)
    iterations, f_old, status = 0, None, "gtol"
    while np.abs(g).max(initial=0.0) > gtol:
        if f_old is not None and f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            status = "ftol"
            break
        if iterations >= max_iter:
            status = "max_iter"
            break
        q, alphas = g.copy(), []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * float(s @ q))
            q -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= float(s @ y) / float(y @ y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += (a - rho * float(y @ q)) * s
        found = _wolfe_step(fun, x, f, g, -q, 1.0 if pairs else 1.0 / np.linalg.norm(g))
        if found is None:
            status = "line_search"
            break
        step, f_new, g_new = found
        s, y = -step * q, g_new - g
        sy = float(s @ y)
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        x, f_old, f, g = x + s, f, f_new, g_new
        iterations += 1
        if callback is not None:
            callback(f)
    return LbfgsResult(x, f, float(np.abs(g).max(initial=0.0)), iterations, status)


def train(dataset: Sequence[Sequence[LabeledToken]], config: FeatureConfig,
          *, max_iter: int = 200, iteration_log: list | None = None) -> CrfModel:
    """Fit a CRF over ``LABELS`` by L-BFGS from zero initialization.

    Deterministic given the dataset order and settings. A label outside
    ``LABELS`` raises ValueError naming it. Raises TrainingError (naming the
    objective-evaluation count) if the objective goes non-finite.
    """
    if not dataset:
        raise ValueError("training dataset is empty")

    # Feature rows in first-appearance order of extract_features. A token's
    # local features all first appear where the token does, so later
    # occurrences add only their window features.
    index: dict[str, int] = {}
    local: dict[str, tuple[list[int], list[int]]] = {}
    for seq in dataset:
        tokens = [t.token for t in seq]
        pos = [t.pos for t in seq]
        for t, token in enumerate(tokens):
            before, after = _context_features(tokens, pos, t, config)
            feats = [] if token in local else _local_features(token, config)
            for name in before + feats[:1] + after + feats[1:]:
                index.setdefault(name, len(index))
            if feats:
                local[token] = ([index[feats[0]]], [index[name] for name in feats[1:]])

    n_features, n_labels = len(index), len(LABELS)
    model = CrfModel(
        labels=LABELS,
        feature_names=tuple(index),
        weights=np.zeros(n_features * n_labels + n_labels ** 2),
        config=config,
        _feature_index=index,
        _local_rows=local,
    )
    encoded = _encode_dataset(model, dataset)

    evals = 0

    def objective(w):
        nonlocal evals
        evals += 1
        value, grad = _encoded_nll_grad(w, n_features, n_labels, encoded,
                                        config.l2_lambda)
        if not np.isfinite(value):
            raise TrainingError(f"objective became non-finite at evaluation {evals}")
        return value, grad

    result = minimize_lbfgs(
        objective, model.weights, max_iter=max_iter,
        callback=None if iteration_log is None else iteration_log.append,
    )
    model.weights[:] = result.x
    if not np.all(np.isfinite(model.weights)):
        raise TrainingError(f"non-finite weights after optimization ({evals} evaluations)")
    if result.status == "line_search":
        logger.warning("CRF line search found no acceptable step after %d iterations; "
                       "keeping the last iterate", result.iterations)
    logger.info(
        "trained CRF: %d features, %d sequences, %d evaluations, %d iterations, "
        "stopped on %s, max|g| %.3g, objective %.6f",
        n_features, len(dataset), evals, result.iterations, result.status,
        result.g_inf, result.f,
    )
    return model


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

@lru_cache
def _iob_forbidden(labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the starts and the (from, to) transitions that
    ``iob_follows`` forbids, computed once per label tuple."""
    start = np.array([not iob_follows(None, to) for to in labels])
    trans = np.array([[not iob_follows(prev, to) for to in labels] for prev in labels])
    start.flags.writeable = trans.flags.writeable = False  # shared by every caller
    return start, trans


def viterbi(model: CrfModel, tokens: Sequence[str], pos: Sequence[str],
            constrain_iob: bool = False) -> TagResult:
    """Maximum-score label path with deterministic tie-breaking.

    Each argmax resolves toward the lowest label index (label order: O
    first, then lexicographic), so repeated decodes of the same input are
    identical; an all-zero model decodes to all-O. With ``constrain_iob``,
    every start and transition that ``corpus.iob_follows`` forbids scores
    -inf: I-X at the start, and I-X after anything but B-X/I-X.
    """
    emis = _emissions(model, tokens, pos)
    trans = model.transition_weights
    start = emis[0]
    if constrain_iob:
        forbid_start, forbid_trans = _iob_forbidden(model.labels)
        start = np.where(forbid_start, -np.inf, start)
        trans = np.where(forbid_trans, -np.inf, trans)

    n, n_labels = emis.shape
    backptr = np.zeros((n, n_labels), dtype=np.intp)
    delta = start
    for t in range(1, n):
        scores = delta[:, None] + trans
        backptr[t] = np.argmax(scores, axis=0)
        delta = scores[backptr[t], np.arange(n_labels)] + emis[t]
    last = int(np.argmax(delta))
    path_score = float(delta[last])
    path = [last]
    for t in range(n - 1, 0, -1):
        path.append(int(backptr[t, path[-1]]))
    path.reverse()
    labels = [model.labels[i] for i in path]
    return TagResult(labels, spans_from_iob(labels), path_score)


def spans_from_iob(labels: Sequence[str]) -> list[tuple[str, int, int]]:
    """(entity_type, start, end) spans from IOB labels; end is inclusive.

    An I-X that ``corpus.iob_follows`` its predecessor extends the last
    span; any other B- or I- label, a dangling I-X included, opens one.
    Labels outside the B-/I-/O shapes are treated as background.
    """
    spans: list[tuple[str, int, int]] = []
    prev = None
    for i, label in enumerate(labels):
        if label.startswith("I-") and iob_follows(prev, label):
            spans[-1] = (spans[-1][0], spans[-1][1], i)
        elif label.startswith(("B-", "I-")):
            spans.append((label[2:], i, i))
        prev = label
    return spans


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_model(model: CrfModel, destination) -> None:
    """Versioned line-based UTF-8 model file; full float round-trip precision."""
    emission_w = model.emission_weights
    trans = model.transition_weights
    with open_text(destination, "w", newline="\n") as handle:
        handle.write(f"crf-model\t{MODEL_FORMAT_VERSION}\n")
        handle.write("labels\t" + "\t".join(model.labels) + "\n")
        cfg = model.config
        handle.write(
            "config"
            f"\tmax_ngram_len={cfg.max_ngram_len}"
            f"\twindow={cfg.window}"
            f"\tuse_pos={int(cfg.use_pos)}"
            f"\tuse_shape={int(cfg.use_shape)}"
            f"\tl2_lambda={cfg.l2_lambda!r}\n"
        )
        for f, name in enumerate(model.feature_names):
            for l, label in enumerate(model.labels):
                handle.write(f"{name}\t{label}\t{float(emission_w[f, l])!r}\n")
        for i, src in enumerate(model.labels):
            for j, dst in enumerate(model.labels):
                handle.write(f"TRANS\t{src}\t{dst}\t{float(trans[i, j])!r}\n")


def _parse_weight(value: str, line_no: int) -> float:
    try:
        weight = float(value)
    except ValueError:
        raise ModelFormatError(f"line {line_no}: bad weight {value!r}") from None
    if not math.isfinite(weight):
        raise ModelFormatError(f"line {line_no}: non-finite weight")
    return weight


def load_model(source) -> CrfModel:
    """Inverse of save_model; load(save(m)) reproduces m exactly.

    A ModelFormatError's message starts with the source it names.
    """
    try:
        return _model_from_lines(read_text(source).split("\n"))
    except ModelFormatError as exc:
        raise ModelFormatError(f"{source}: {exc}") from None


def _model_from_lines(lines: list[str]) -> CrfModel:
    if not lines[0].startswith("crf-model\t"):
        raise ModelFormatError("missing crf-model header line")
    version = lines[0].split("\t", 1)[1]
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION!r})"
        )
    if len(lines) < 3 or not lines[1].startswith("labels\t"):
        raise ModelFormatError("missing labels line")
    labels = tuple(lines[1].split("\t")[1:])
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ModelFormatError(f"repeated label {label!r}")
    if not lines[2].startswith("config\t"):
        raise ModelFormatError("missing config line")
    try:
        raw_cfg = dict(item.split("=", 1) for item in lines[2].split("\t")[1:])
        config = FeatureConfig(
            max_ngram_len=int(raw_cfg["max_ngram_len"]),
            window=int(raw_cfg["window"]),
            use_pos=bool(int(raw_cfg["use_pos"])),
            use_shape=bool(int(raw_cfg["use_shape"])),
            l2_lambda=float(raw_cfg["l2_lambda"]),
        )
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"bad config line: {exc}") from exc

    label_index = {lab: i for i, lab in enumerate(labels)}
    n_labels = len(labels)
    feature_order: dict[str, int] = {}
    # Weights keyed by flat (row-major) index into their weight matrix.
    emission_entries: dict[int, float] = {}
    trans_entries: dict[int, float] = {}
    for line_no, line in enumerate(lines[3:], start=4):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) == 4 and fields[0] == "TRANS":
            _, src, dst, value = fields
            if src not in label_index or dst not in label_index:
                raise ModelFormatError(f"line {line_no}: unknown label in TRANS entry")
            key = label_index[src] * n_labels + label_index[dst]
            if key in trans_entries:
                raise ModelFormatError(f"line {line_no}: repeated TRANS entry {src!r} {dst!r}")
            trans_entries[key] = _parse_weight(value, line_no)
        elif len(fields) == 3:
            name, label, value = fields
            if label not in label_index:
                raise ModelFormatError(f"line {line_no}: unknown label {label!r}")
            if name not in feature_order:
                feature_order[name] = len(feature_order)
            key = feature_order[name] * n_labels + label_index[label]
            if key in emission_entries:
                raise ModelFormatError(f"line {line_no}: repeated entry {name!r} {label!r}")
            emission_entries[key] = _parse_weight(value, line_no)
        else:
            raise ModelFormatError(f"line {line_no}: unparseable entry {line!r}")

    model = CrfModel(labels, tuple(feature_order),
                     np.zeros(len(feature_order) * n_labels + n_labels ** 2), config)
    emission_w, trans = model.emission_weights.flat, model.transition_weights.flat
    for key, w in emission_entries.items():
        emission_w[key] = w
    for key, w in trans_entries.items():
        trans[key] = w
    return model
