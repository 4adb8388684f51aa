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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import LABELS, LabeledToken, pos_tag
from .errors import IobStructureError, ModelFormatError, TrainingError

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


def extract_features(tokens: Sequence[str], pos: Sequence[str], position: int,
                     config: FeatureConfig) -> list[str]:
    """Feature names active at one position, deduplicated, deterministic order.

    Token identities (and POS tags when enabled) for offsets within the
    window, a word-shape class when enabled, and all character n-grams of the
    current token up to ``max_ngram_len``.
    """
    feats: list[str] = []
    n = len(tokens)
    for off in range(-config.window, config.window + 1):
        idx = position + off
        if 0 <= idx < n:
            feats.append(f"w[{off}]={tokens[idx]}")
    if config.use_pos:
        for off in range(-config.window, config.window + 1):
            idx = position + off
            if 0 <= idx < n:
                feats.append(f"p[{off}]={pos[idx]}")
    token = tokens[position]
    if config.use_shape:
        feats.append(f"shape={_word_shape(token)}")
        if any(ch.isdigit() for ch in token) and not token.isdigit():
            feats.append("shape=has-digit")
    for length in range(1, min(config.max_ngram_len, len(token)) + 1):
        for i in range(len(token) - length + 1):
            feats.append(f"ng={token[i:i + length]}")
    return list(dict.fromkeys(feats))


def _encode_positions(feature_index: dict[str, int], config: FeatureConfig,
                      tokens: Sequence[str], pos: Sequence[str]) -> list[np.ndarray]:
    """Per-position arrays of known-feature row indices."""
    rows = []
    for t in range(len(tokens)):
        idx = [
            feature_index[name]
            for name in extract_features(tokens, pos, t, config)
            if name in feature_index
        ]
        rows.append(np.asarray(idx, dtype=np.intp))
    return rows


def _emissions(model: CrfModel, tokens: Sequence[str],
               pos: Sequence[str] | None) -> np.ndarray:
    """One sentence's (positions x labels) scores; ``pos`` defaults to pos_tag."""
    if not tokens:
        raise ValueError("sequence must be non-empty")
    if pos is None:
        pos = pos_tag(tokens)
    rows_per_pos = _encode_positions(model.feature_index, model.config, tokens, pos)
    emission_w = model.emission_weights
    emis = np.zeros((len(rows_per_pos), model.n_labels))
    for t, rows in enumerate(rows_per_pos):
        if rows.size:
            emis[t] = emission_w[rows].sum(axis=0)
    return emis


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def _logsumexp(arr: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(arr, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(arr - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def log_forward_backward(model: CrfModel, tokens: Sequence[str],
                         pos: Sequence[str] | None = None):
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

def _encode_dataset(model: CrfModel, dataset: Sequence[Sequence[LabeledToken]]):
    """One training batch: ``(x, y, steps)``.

    ``x`` is a CSR position x feature indicator matrix, positions in dataset
    order; ``y`` holds each position's gold label index; ``steps`` is a
    ``(B, L)`` index from sequence step to position row, padded with -1.
    Its rows run longest sequence first, so the sequences still running at
    any step are a prefix of the rows.
    """
    from scipy.sparse import csr_array  # training only; tagging needs no scipy

    label_index = {lab: i for i, lab in enumerate(model.labels)}
    rows: list[np.ndarray] = []
    labels: list[int] = []
    for seq in dataset:
        tokens = [t.token for t in seq]
        pos = [t.pos for t in seq]
        try:
            labels.extend(label_index[t.label] for t in seq)
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]!r} not in model label set") from None
        rows.extend(_encode_positions(model.feature_index, model.config, tokens, pos))
    indptr = np.concatenate([[0], np.cumsum([r.size for r in rows], dtype=np.intp)])
    indices = np.concatenate(rows or [np.zeros(0, dtype=np.intp)])
    x = csr_array((np.ones(indices.size), indices, indptr),
                  shape=(len(rows), model.n_features))

    lengths = np.asarray([len(seq) for seq in dataset], dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    offsets = np.arange(lengths.max(initial=0))
    steps = np.where(offsets < lengths[order, None], starts[order, None] + offsets, -1)
    return x, np.asarray(labels, dtype=np.intp), steps


def _encoded_nll_grad(weights: np.ndarray, n_features: int, n_labels: int,
                      encoded, l2_lambda: float):
    """Objective and gradient over one ``_encode_dataset`` batch.

    Forward-backward runs over the whole batch at once, in probability space
    with one normaliser per step (Rabiner 1989; Sutton & McCallum 2012,
    section 4.1). Each position's emission max and the transition max are
    taken out before exponentiating and added back into log Z, so scores
    stay finite while a step's score range is well under ~700.
    """
    x, y, steps = encoded
    n_emit = n_features * n_labels
    emission_w = weights[:n_emit].reshape(n_features, n_labels)
    trans = weights[n_emit:].reshape(n_labels, n_labels)
    nll = 0.5 * l2_lambda * float(np.sum(weights * weights))
    grad = l2_lambda * weights
    if y.size:
        emis = x @ emission_w
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
        grad[:n_emit] += (x.T @ marginals).ravel()
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

def train(dataset: Sequence[Sequence[LabeledToken]], config: FeatureConfig,
          *, max_iter: int = 200, iteration_log: list | None = None) -> CrfModel:
    """Fit a CRF over ``LABELS`` by L-BFGS from zero initialization.

    Deterministic given the dataset order and settings. A label outside
    ``LABELS`` raises ValueError naming it. Raises TrainingError (naming the
    objective-evaluation count) if the objective goes non-finite.
    """
    from scipy.optimize import minimize  # training only; tagging needs no scipy

    if not dataset:
        raise ValueError("training dataset is empty")

    names: dict[str, None] = {}
    for seq in dataset:
        tokens = [t.token for t in seq]
        pos = [t.pos for t in seq]
        for t in range(len(seq)):
            for name in extract_features(tokens, pos, t, config):
                names.setdefault(name)
    feature_names = tuple(names)

    n_features, n_labels = len(feature_names), len(LABELS)
    model = CrfModel(
        labels=LABELS,
        feature_names=feature_names,
        weights=np.zeros(n_features * n_labels + n_labels ** 2),
        config=config,
    )
    encoded = _encode_dataset(model, dataset)

    state = {"evals": 0, "last_f": None}

    def objective(w):
        state["evals"] += 1
        value, grad = _encoded_nll_grad(w, n_features, n_labels, encoded,
                                        config.l2_lambda)
        if not np.isfinite(value):
            raise TrainingError(
                f"objective became non-finite at evaluation {state['evals']}",
                iteration=state["evals"],
            )
        state["last_f"] = value
        return value, grad

    callback = None
    if iteration_log is not None:
        callback = lambda xk: iteration_log.append(state["last_f"])  # noqa: E731

    result = minimize(
        objective, model.weights, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": 1e-5, "maxcor": 10},
        callback=callback,
    )
    model.weights[:] = result.x
    if not np.all(np.isfinite(model.weights)):
        raise TrainingError(
            f"non-finite weights after optimization ({state['evals']} evaluations)",
            iteration=state["evals"],
        )
    logger.info(
        "trained CRF: %d features, %d sequences, %d evaluations, objective %.6f",
        n_features, len(dataset), state["evals"], result.fun,
    )
    return model


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def viterbi(model: CrfModel, tokens: Sequence[str],
            pos: Sequence[str] | None = None,
            constrain_iob: bool = False) -> TagResult:
    """Maximum-score label path with deterministic tie-breaking.

    Each argmax resolves toward the lowest label index (label order: O
    first, then lexicographic), so repeated decodes of the same input are
    identical; an all-zero model decodes to all-O. With ``constrain_iob``,
    transitions into I-X from anything other than B-X/I-X are forbidden,
    as is I-X at the start.
    """
    emis = _emissions(model, tokens, pos)
    trans = model.transition_weights.copy()
    start = emis[0].copy()
    if constrain_iob:
        for j, lab in enumerate(model.labels):
            if lab.startswith("I-"):
                entity = lab[2:]
                allowed = {f"B-{entity}", f"I-{entity}"}
                for i, prev in enumerate(model.labels):
                    if prev not in allowed:
                        trans[i, j] = -np.inf
                start[j] = -np.inf

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
    return TagResult(labels, spans_from_iob(labels, strict=False), path_score)


def spans_from_iob(labels: Sequence[str], strict: bool = False) -> list[tuple[str, int, int]]:
    """(entity_type, start, end) spans from IOB labels; end is inclusive.

    Lenient mode opens a span at a dangling I-X; strict mode raises
    IobStructureError there. Labels outside the B-/I-/O shapes are treated
    as background.
    """
    spans: list[tuple[str, int, int]] = []
    open_type: str | None = None
    open_start = 0

    def close(end: int):
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
                if strict:
                    raise IobStructureError(
                        f"position {i}: {label} continues no open {entity} span",
                        position=i,
                    )
                close(i - 1)
                open_type = entity
                open_start = i
        else:
            close(i - 1)
    close(len(labels) - 1)
    return spans


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_model(model: CrfModel, destination) -> None:
    """Versioned line-based UTF-8 model file; full float round-trip precision."""
    emission_w = model.emission_weights
    trans = model.transition_weights
    with open(destination, "w", encoding="utf-8", newline="\n") as handle:
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
    """Inverse of save_model; load(save(m)) reproduces m exactly."""
    with open(source, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if not lines or not lines[0].startswith("crf-model\t"):
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
    if not labels:
        raise ModelFormatError("empty label list")
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
