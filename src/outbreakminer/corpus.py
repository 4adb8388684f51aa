"""Training-corpus construction and measurement.

Pipeline pieces: LCS line diff between successive revisions, exact
prefix-filtered character-trigram Jaccard dedup of near-duplicate
sentences, a deterministic coarse POS tagger, IOB TSV reading/writing, and
Cohen's kappa for annotator agreement.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import CorpusFormatError
from .textio import open_text

logger = logging.getLogger(__name__)

# Closed label set, O first then lexicographic; this order is also the
# decoder's tie-break order.
LABELS = (
    "O",
    "B-DEATHS", "B-HOSPITALIZATIONS", "B-INFECTIONS",
    "I-DEATHS", "I-HOSPITALIZATIONS", "I-INFECTIONS",
)


def iob_follows(prev: str | None, label: str) -> bool:
    """The IOB rule: an I-X may only follow B-X or I-X; any other label may
    follow anything. ``prev`` is None at a sentence start."""
    return not label.startswith("I-") or prev in ("B" + label[1:], label)


@dataclass(frozen=True)
class LabeledToken:
    """One token with its coarse POS feature and IOB label."""

    token: str
    pos: str
    label: str

    def __post_init__(self):
        if not self.token:
            raise ValueError("token must be non-empty")
        if self.label not in LABELS:
            raise ValueError(f"label {self.label!r} not in the closed label set")


@dataclass(frozen=True)
class DiffResult:
    added_lines: list[str]
    deleted_lines: list[str]


@dataclass(frozen=True)
class AgreementTable:
    """Square contingency table of label pairs from two annotators."""

    labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(sum(row) for row in self.counts)

    @classmethod
    def from_annotations(cls, a: Sequence[str], b: Sequence[str]) -> "AgreementTable":
        if len(a) != len(b):
            raise ValueError(f"annotation lengths differ: {len(a)} vs {len(b)}")
        labels = tuple(sorted(set(a) | set(b)))
        index = {lab: i for i, lab in enumerate(labels)}
        counts = [[0] * len(labels) for _ in labels]
        for x, y in zip(a, b):
            counts[index[x]][index[y]] += 1
        return cls(labels=labels, counts=tuple(tuple(row) for row in counts))


# ---------------------------------------------------------------------------
# LCS line diff (Myers O(ND), linear space)
# ---------------------------------------------------------------------------

def _middle_snake(a: Sequence[int], b: Sequence[int]):
    """Find a middle snake of an optimal edit path between a and b.

    Returns (x, y, u, v): snake from (x, y) to (u, v) in local coordinates.
    Degenerate corner hits are shifted to the pre-edit point so callers
    always recurse on strictly smaller regions.
    """
    n, m = len(a), len(b)
    delta = n - m
    vf = {1: 0}
    vb = {1: 0}
    max_d = (n + m + 1) // 2 + 1
    for d in range(max_d + 1):
        for k in range(-d, d + 1, 2):
            down = k == -d or (k != d and vf[k - 1] < vf[k + 1])
            x = vf[k + 1] if down else vf[k - 1] + 1
            y = x - k
            x0, y0 = x, y
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            vf[k] = x
            if delta % 2 != 0 and -(d - 1) <= delta - k <= d - 1:
                if vf[k] + vb[delta - k] >= n:
                    if (x0, y0) == (x, y) == (n, m):
                        # Empty snake at the corner: split before the edit.
                        return ((n, m - 1, n, m - 1) if down else (n - 1, m, n - 1, m))
                    return x0, y0, x, y
        for k in range(-d, d + 1, 2):
            down = k == -d or (k != d and vb[k - 1] < vb[k + 1])
            x = vb[k + 1] if down else vb[k - 1] + 1
            y = x - k
            x0, y0 = x, y
            while x < n and y < m and a[n - 1 - x] == b[m - 1 - y]:
                x += 1
                y += 1
            vb[k] = x
            if delta % 2 == 0 and -d <= delta - k <= d:
                if vb[k] + vf[delta - k] >= n:
                    # Translate from reverse to forward coordinates.
                    sx, sy = n - x, m - y
                    ex, ey = n - x0, m - y0
                    if (sx, sy) == (ex, ey) == (0, 0):
                        return ((0, 1, 0, 1) if down else (1, 0, 1, 0))
                    return sx, sy, ex, ey
    raise AssertionError("middle snake not found")  # unreachable


def _unmatched(a, b, a0, a1, b0, b1, deleted: list, added: list) -> None:
    """Extend deleted and added, in ascending order, with the indices of
    a[a0:a1] and b[b0:b1] that lie outside one longest common subsequence."""
    while a0 < a1 and b0 < b1 and a[a0] == b[b0]:
        a0 += 1
        b0 += 1
    while a1 > a0 and b1 > b0 and a[a1 - 1] == b[b1 - 1]:
        a1 -= 1
        b1 -= 1
    if a0 < a1 and b0 < b1:
        x, y, u, v = _middle_snake(a[a0:a1], b[b0:b1])
        _unmatched(a, b, a0, a0 + x, b0, b0 + y, deleted, added)
        _unmatched(a, b, a0 + u, a1, b0 + v, b1, deleted, added)
    else:
        deleted.extend(range(a0, a1))
        added.extend(range(b0, b1))


def line_diff(old_text: str, new_text: str) -> DiffResult:
    """LCS line diff: lines of each side not in a longest common subsequence.

    A line modified between revisions therefore shows up once in
    deleted_lines and once in added_lines.
    """
    a_lines = old_text.splitlines()
    b_lines = new_text.splitlines()
    ids: dict[str, int] = {}
    deleted, added = [], []
    _unmatched([ids.setdefault(line, len(ids)) for line in a_lines],
               [ids.setdefault(line, len(ids)) for line in b_lines],
               0, len(a_lines), 0, len(b_lines), deleted, added)
    return DiffResult(added_lines=[b_lines[j] for j in added],
                      deleted_lines=[a_lines[i] for i in deleted])


# ---------------------------------------------------------------------------
# near-duplicate detection
# ---------------------------------------------------------------------------

def char_trigrams(text: str) -> set[str]:
    """Set of character trigrams of the lowercased text."""
    lowered = text.lower()
    return {lowered[i:i + 3] for i in range(len(lowered) - 2)}


def _jaccard(common: int, n: int, m: int) -> float:
    """Jaccard similarity of an n-set and an m-set that share `common`
    elements; both empty -> 1.0, exactly one empty -> 0.0."""
    union = n + m - common
    return common / union if union else 1.0


def trigram_jaccard(a: str, b: str) -> float:
    """Jaccard similarity of the two texts' character-trigram sets.

    Both empty -> 1.0; exactly one empty -> 0.0.
    """
    grams_a, grams_b = char_trigrams(a), char_trigrams(b)
    return _jaccard(len(grams_a & grams_b), len(grams_a), len(grams_b))


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


def dedup_sentences(sentences: Sequence, threshold: float = 0.75,
                    key: Callable | None = None) -> list:
    """Greedy near-duplicate filter in input order.

    An item is retained iff its similarity to every already-retained item is
    <= threshold.

    Exact prefix filtering (All-Pairs, Bayardo et al. 2007; PPJoin, Xiao et
    al. 2008). Trigrams are ranked by how many items contain them, rarest
    first. Two sets whose Jaccard exceeds t overlap in more than t*n of an
    n-trigram set's trigrams, so their prefixes of n - floor(t*n) rarest
    trigrams share one. Each prefix keeps one trigram more, so float
    rounding of t*n cannot drop a true match, and an empty set's prefix is
    the single key -1, which meets exactly the retained empty sets. A new
    item is compared only with the retained items whose prefix shares a key
    with its own. A set is held as the bitmask of its trigrams' ranks, so a
    comparison counts the bits of one AND.

    Each distinct text's trigrams are computed once. Below threshold 1 an
    exact repeat of an earlier text is dropped without a comparison: J = 1
    with the text it repeats if that was retained, or with the retained text
    that turned it away, and the retained set only grows.
    """
    _check_threshold(threshold)
    items = list(sentences)
    texts = [key(item) for item in items] if key is not None else items
    trigrams = {text: char_trigrams(text) for text in set(texts)}
    frequency: Counter[str] = Counter()
    for text in texts:
        frequency.update(trigrams[text])
    rank = {gram: r for r, gram in
            enumerate(sorted(frequency, key=lambda g: (frequency[g], g)))}
    retained = []
    retained_masks: list[tuple[int, int]] = []  # (rank bitmask, size)
    index: dict[int, list[int]] = defaultdict(list)
    seen: set[str] = set()  # stays empty at threshold 1, where repeats are kept
    for item, text in zip(items, texts):
        if text in seen:
            continue
        if threshold < 1.0:
            seen.add(text)
        ranks = sorted(rank[gram] for gram in trigrams[text])
        n = len(ranks)
        mask = sum(1 << r for r in ranks)
        prefix = ranks[:n - math.floor(threshold * n) + 1] or [-1]
        candidates = {k for r in prefix for k in index.get(r, ())}
        if all(_jaccard((mask & other).bit_count(), n, m) <= threshold
               for other, m in (retained_masks[k] for k in candidates)):
            for r in prefix:
                index[r].append(len(retained_masks))
            retained.append(item)
            retained_masks.append((mask, n))
    return retained


# ---------------------------------------------------------------------------
# coarse POS tagging
# ---------------------------------------------------------------------------

_NUMERAL = re.compile(r"^\d[\d,.]*$")

_NUMBER_WORDS = {
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen", "seventeen", "eighteen", "nineteen", "twenty", "thirty",
    "forty", "fifty", "sixty", "seventy", "eighty", "ninety", "hundred",
    "thousand", "million", "billion", "dozen",
}

_LEXICON = {
    **{w: "DET" for w in (
        "the a an this that these those each every some any no all both "
        "either neither another such").split()},
    **{w: "PREP" for w in (
        "of in on at by with from to for into onto over under between among "
        "amid during through after before above below against within without "
        "across around near since until upon per toward towards").split()},
    **{w: "PRON" for w in (
        "i you he she it we they me him her us them who whom which what whose "
        "its his their my your our itself themselves").split()},
    **{w: "CONJ" for w in (
        "and or but nor so yet because although though while if when whereas "
        "than unless").split()},
    **{w: "VERB" for w in (
        "is are was were be been being am has have had do does did will would "
        "can could may might must shall should said says say reported report "
        "became become remain remains").split()},
    **{w: "ADV" for w in (
        "very not also however often never always already approximately "
        "currently recently now then there here more most only about "
        "respectively").split()},
    **{w: "ADJ" for w in (
        "new total confirmed suspected probable first second third last other "
        "several many few high low severe fatal same additional").split()},
    **{w: "NUM" for w in _NUMBER_WORDS},
}

_SUFFIX_RULES = (
    ("ly", "ADV"),
    ("ing", "VERB"),
    ("ed", "VERB"),
    ("tion", "NOUN"),
    ("sion", "NOUN"),
    ("ment", "NOUN"),
    ("ness", "NOUN"),
    ("ship", "NOUN"),
    ("ity", "NOUN"),
    ("ous", "ADJ"),
    ("ful", "ADJ"),
    ("ive", "ADJ"),
    ("ible", "ADJ"),
    ("able", "ADJ"),
    ("al", "ADJ"),
    ("ic", "ADJ"),
    ("er", "NOUN"),
    ("or", "NOUN"),
    ("ist", "NOUN"),
)


def _tag_word(token: str) -> str:
    if all(ch in ".,;:!?()[]{}\"'`-–—/\\|" for ch in token):
        return "PUNCT"
    if _NUMERAL.match(token):
        return "NUM"
    lowered = token.lower()
    if lowered in _LEXICON:
        return _LEXICON[lowered]
    if "-" in lowered:
        parts = [p for p in lowered.split("-") if p]
        if parts and all(p in _NUMBER_WORDS or _NUMERAL.match(p) for p in parts):
            return "NUM"
    if len(lowered) > 3:
        for suffix, tag in _SUFFIX_RULES:
            if lowered.endswith(suffix):
                return tag
        if lowered.endswith("s") and not lowered.endswith("ss"):
            return "NOUN"
    return "OTHER"


def pos_tag(tokens: Sequence[str]) -> list[str]:
    """Deterministic rule/lexicon tagger over the coarse tagset."""
    return [_tag_word(tok) for tok in tokens]


# ---------------------------------------------------------------------------
# IOB TSV format
# ---------------------------------------------------------------------------

def write_iob_tsv(sentences: Iterable[Sequence[LabeledToken]], destination) -> None:
    """Write token<TAB>pos<TAB>label lines, blank line between sentences.

    UTF-8, LF line endings, no BOM.
    """
    with open_text(destination, "w", newline="\n") as handle:
        first = True
        for sentence in sentences:
            if not first:
                handle.write("\n")
            first = False
            for tok in sentence:
                handle.write(f"{tok.token}\t{tok.pos}\t{tok.label}\n")


def read_iob_tsv(source, strict: bool = True) -> list[list[LabeledToken]]:
    """Parse an IOB TSV file back into sentences of LabeledToken.

    Rejects unknown labels and wrong column counts. An I-X token whose
    predecessor is not B-X/I-X is an error in strict mode; in lenient mode it
    is repaired to B-X and logged.
    """
    sentences: list[list[LabeledToken]] = []
    current: list[LabeledToken] = []
    with open_text(source, "r", newline="") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                if current:
                    sentences.append(current)
                    current = []
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise CorpusFormatError(
                    f"line {line_number}: expected 3 tab-separated fields, got {len(fields)}"
                )
            token, pos, label = fields
            if label not in LABELS:
                raise CorpusFormatError(f"line {line_number}: unknown label {label!r}")
            if not iob_follows(current[-1].label if current else None, label):
                entity = label[2:]
                if strict:
                    raise CorpusFormatError(
                        f"line {line_number}: {label} not preceded by B-{entity}/I-{entity}"
                    )
                logger.warning(
                    "line %d: repairing dangling %s to B-%s", line_number, label, entity
                )
                label = f"B-{entity}"
            if not token:
                raise CorpusFormatError(f"line {line_number}: empty token")
            current.append(LabeledToken(token=token, pos=pos, label=label))
        if current:
            sentences.append(current)
    return sentences


# ---------------------------------------------------------------------------
# annotator agreement
# ---------------------------------------------------------------------------

def cohen_kappa(table: AgreementTable) -> float:
    """Chance-corrected agreement: (p_o - p_e) / (1 - p_e).

    Returns exactly 1.0 for perfect agreement (all off-diagonal counts zero).
    """
    n = table.n
    if n == 0:
        raise ValueError("agreement table is empty (n = 0)")
    size = len(table.labels)
    trace = sum(table.counts[i][i] for i in range(size))
    if trace == n:
        return 1.0
    p_o = trace / n
    row_sums = [sum(row) for row in table.counts]
    col_sums = [sum(table.counts[i][j] for i in range(size)) for j in range(size)]
    p_e = sum((row_sums[k] / n) * (col_sums[k] / n) for k in range(size))
    return (p_o - p_e) / (1.0 - p_e)


# ---------------------------------------------------------------------------
# corpus assembly
# ---------------------------------------------------------------------------

def build_corpus(revisions: Sequence, threshold: float = 0.75) -> list[list[LabeledToken]]:
    """Unlabeled (all-O), POS-tagged training corpus from a revision history.

    For each successive revision pair: strip markup (tables removed), take
    the line diff's added lines, split them into sentences, then
    near-duplicate-filter the whole collection in order and POS-tag.
    Empty (blanked) revisions are skipped. A threshold outside [0, 1] (or
    NaN) is rejected before any revision is stripped.

    One ``strip_markup`` memo serves the whole call, so each distinct
    paragraph is stripped once; ``dedup_sentences`` computes each distinct
    sentence's trigrams once; each revision's lines are interned once, into
    one id dict, and diffed for their added lines alone; each distinct token
    is POS-tagged once. None of this changes the corpus.
    """
    from .wikitext import Sentence, split_sentences, strip_markup

    _check_threshold(threshold)
    sentences: list[Sentence] = []
    strip_memo: dict[str, str | None] = {}
    ids: dict[str, int] = {}
    prev: list[int] | None = None
    for rev in revisions:
        if not rev.wikitext:
            continue
        lines = strip_markup(rev.wikitext, remove_tables=True, memo=strip_memo).splitlines()
        cur = [ids.setdefault(line, len(ids)) for line in lines]
        if prev is not None:
            added: list[int] = []
            _unmatched(prev, cur, 0, len(prev), 0, len(cur), [], added)
            for j in added:
                sentences.extend(split_sentences(lines[j], source_revision=rev.revision_id))
        prev = cur
    kept = dedup_sentences(sentences, threshold, key=lambda s: s.text)
    tags = {tok: _tag_word(tok) for tok in {tok for sent in kept for tok in sent.tokens}}
    return [[LabeledToken(token=tok, pos=tags[tok], label="O") for tok in sent.tokens]
            for sent in kept]
