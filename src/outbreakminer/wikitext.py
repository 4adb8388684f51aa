"""Wikitext handling: markup stripping, table extraction, sentences, tokens.

This handles the small markup subset the pipeline needs (templates, links,
refs, comments, tables, emphasis, headings), not general MediaWiki. Nesting
is matched by ``re.finditer`` token scans over the open/close markers.
Each rule is a pattern compiled once, at import. Unclosed constructs are
logged rather than raised; most drop through to end of text.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat

logger = logging.getLogger(__name__)

# Namespaces whose [[...]] constructs are media/meta, not prose.
_DROP_LINK_NAMESPACES = ("file:", "image:", "category:")
_NAMESPACE_CHARS = max(map(len, _DROP_LINK_NAMESPACES))

# Word endings that suppress a sentence split, checked case-sensitively.
ABBREVIATIONS = frozenset({
    "Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "St.", "Gen.", "Lt.", "Col.",
    "U.S.", "U.K.", "U.N.", "D.C.", "E.U.",
    "approx.", "etc.", "e.g.", "i.e.", "vs.", "cf.", "no.", "No.", "pp.",
    "Jan.", "Feb.", "Mar.", "Apr.", "Jun.", "Jul.", "Aug.", "Sep.", "Sept.",
    "Oct.", "Nov.", "Dec.",
})

_SENTENCE_BOUNDARY = re.compile(r"[.?!](?:\[\d+\])*(?:\s+)(?=[A-Z0-9])")

_PUNCT_CHARS = re.escape("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~“”‘’«»…")
# A token is the run from the first to the last non-punctuation character of
# a whitespace-free chunk, or one punctuation character outside that run.
_TOKEN = re.compile(f"[^\\s{_PUNCT_CHARS}](?:\\S*[^\\s{_PUNCT_CHARS}])?|[{_PUNCT_CHARS}]")


@dataclass(frozen=True)
class RawTable:
    """One wiki table: a header row plus rectangular data rows.

    Cell texts are markup-free.
    """

    header: list[str]
    rows: list[list[str]]


@dataclass
class Sentence:
    """One sentence of plain text with its tokens."""

    text: str
    tokens: list[str] = field(default_factory=list)
    source_revision: int | None = None


# ---------------------------------------------------------------------------
# markup stripping
# ---------------------------------------------------------------------------

_COMMENT = re.compile(r"<!--.*?-->", re.DOTALL)

# A ref runs to the first ">" and then, unless self-closing, to the first
# "</ref" and its ">" (or end of text, the "at_end" group). Without "</ref"
# or without any ">" it drops to end of line. All three cases are logged.
# Only "ref" ignores case: a literal "<" up front lets the scan skip ahead
# to each "<". An opener past the text's last "</ref" or last ">" is matched
# by _REF_UNCLOSED or _REF_NO_GT, the branches of _REF that it can reach.
_REF = re.compile(
    r"<(?i:ref)(?:[^>]*/>"
    r"|[^>]*>.*?</(?i:ref)[^>]*(?:>|(?P<at_end>\Z))"
    r"|(?P<no_close>[^>]*>[^\n]*)"
    r"|(?P<no_gt>[^\n]*))",
    re.DOTALL,
)
_REF_UNCLOSED = re.compile(r"<(?i:ref)(?:[^>]*/>|(?P<no_close>[^>]*>[^\n]*))")
_REF_NO_GT = re.compile(r"<(?i:ref)(?P<no_gt>[^\n]*)")
_REF_OPEN = re.compile(r"<(?i:ref)")
_LAST_REF_CLOSE = re.compile(r".*</(?i:ref)", re.DOTALL)
_REF_WARNINGS = {
    "no_close": "<ref> without </ref> at offset %d; dropping rest of line",
    "no_gt": "unclosed <ref tag at offset %d; dropping rest of line",
    "at_end": "</ref without > after <ref> at offset %d; dropping to end",
}
_GALLERY = re.compile(r"<gallery\b[^>]*>.*?</gallery\s*>", re.DOTALL | re.IGNORECASE)
_GALLERY_OPEN = re.compile(r"<gallery\b", re.IGNORECASE)
_GALLERY_CLOSE = re.compile(r"</gallery\s*>", re.IGNORECASE)
_TEMPLATE_TOKEN = re.compile(r"\{\{|\}\}")


class _Spill(Exception):
    """A paragraph's markup may reach past its end, so it cannot be stripped alone."""


def _spill(*_args) -> None:
    """The ``warn`` of a paragraph stripped alone: any warning means a spill."""
    raise _Spill


def _remove_comments(text: str, warn) -> str:
    # No comment ends past the last "-->", so no opener after it rescans the tail.
    head, closer, tail = text.rpartition("-->")
    out = _COMMENT.sub("", head + closer) + tail
    # An unterminated comment swallows the rest of the text.
    idx = out.find("<!--")
    if idx != -1:
        warn("unterminated HTML comment at offset %d; dropping tail", idx)
        out = out[:idx]
    return out


def _drop_refs(text: str, warn) -> str:
    # As with comments, no ref closes past the last "</ref" and none reaches
    # past the last ">", so an opener beyond either need not rescan the tail.
    last_close = _LAST_REF_CLOSE.match(text)
    last_close = last_close.end() - 5 if last_close else -1
    last_gt = text.rfind(">")
    parts, pos = [], 0
    while opener := _REF_OPEN.search(text, pos):
        start = opener.start()
        pattern = (_REF_NO_GT if last_gt < start + 4
                   else _REF_UNCLOSED if last_close < start else _REF)
        match = pattern.match(text, start)
        if match.lastgroup:
            warn(_REF_WARNINGS[match.lastgroup], start)
        parts.append(text[pos:start])
        pos = match.end()
    parts.append(text[pos:])
    return "".join(parts)


def _drop_galleries(text: str, warn) -> str:
    """Remove each closed <gallery>...</gallery> block. An unclosed
    ``<gallery`` is left in place and passed to ``warn``."""
    if not _GALLERY_OPEN.search(text):  # most texts and cells hold no gallery
        return text
    # As with comments, no block ends past the last closer.
    end = max((match.end() for match in _GALLERY_CLOSE.finditer(text)), default=0)
    text = _GALLERY.sub("", text[:end]) + text[end:]
    unclosed = _GALLERY_OPEN.search(text)
    if unclosed:
        warn("unclosed <gallery at offset %d; left in place", unclosed.start())
    return text


def _drop_templates(text: str, warn) -> str:
    """Remove every outermost {{...}} region, nesting-aware.

    An unclosed opener drops through to end of text (passed to ``warn``);
    stray closers are left alone.
    """
    if "{{" not in text:  # most table cells carry no markup
        return text
    out = []
    pos = depth = start = 0
    for match in _TEMPLATE_TOKEN.finditer(text):
        if match.group() == "{{":
            if depth == 0:
                out.append(text[pos:match.start()])
                start = match.start()
            depth += 1
        elif depth:
            depth -= 1
            if depth == 0:
                pos = match.end()
    if depth:
        warn("unclosed template at offset %d; dropping to end", start)
    else:
        out.append(text[pos:])
    return "".join(out)


# A table opener directly after "{" or a closer directly before "}" is
# template syntax, not a table marker. Each pattern starts with its
# literal, so a scan skips ahead to the next "{|" or "|}".
_TABLE_OPEN = re.compile(r"\{\|(?<!\{\{\|)")
_TABLE_CLOSE = re.compile(r"\|\}(?!\})")


def _table_tokens(text: str) -> list[tuple[int, bool]]:
    """(offset, is_opener) of each table marker, in text order.

    These are the leftmost non-overlapping matches of either pattern. Only
    "{|}" makes an opener and a closer overlap, and there the opener, which
    starts first, is kept.
    """
    opens = [match.start() for match in _TABLE_OPEN.finditer(text)]
    overlapped = {start + 1 for start in opens}
    tokens = [(start, True) for start in opens]
    tokens += [(match.start(), False) for match in _TABLE_CLOSE.finditer(text)
               if match.start() not in overlapped]
    tokens.sort()
    return tokens


def _find_table_spans(text: str, warn=logger.warning) -> list[tuple[int, int, int | None]]:
    """Locate ``{| ... |}`` blocks as (start, end, parent), in closing order.

    ``end`` is the offset just past the closing ``|}``; ``parent`` is the
    start of the innermost enclosing block, or None for an outermost one.
    Unclosed blocks run to end of text; one warning per scan names how many
    there are.
    """
    if "{|" not in text:  # most stripped cells hold no table markup
        return []
    spans = []
    stack = []
    for offset, opens in _table_tokens(text):
        if opens:
            stack.append(offset)
        elif stack:
            start = stack.pop()
            spans.append((start, offset + 2, stack[-1] if stack else None))
    if stack:
        warn("%d unclosed table block(s), outermost at offset %d; dropping to end",
             len(stack), stack[0])
    while stack:
        start = stack.pop()
        spans.append((start, len(text), stack[-1] if stack else None))
    return spans


def _outer_table_spans(text: str, warn) -> list[tuple[int, int]]:
    """(start, end) of every outermost table block, in document order."""
    return sorted((s, e) for s, e, parent in _find_table_spans(text, warn) if parent is None)


def _splice(text: str, spans, fills, start: int = 0, end: int | None = None) -> str:
    """``text[start:end]`` with each of the sorted, disjoint ``spans`` inside it
    replaced by the next string from ``fills``, built in one join."""
    out = []
    pos = start
    for (s, e), fill in zip(spans, fills):
        out += (text[pos:s], fill)
        pos = e
    out.append(text[pos:end])
    return "".join(out)


def _link_texts(text: str, warn) -> str:
    """``text`` with each outermost [[...]] link replaced by its display text.

    A link shows what follows the last "|" of its inner text that
    ``_split_protected`` would split at, with the links in that part
    resolved the same way; a media link shows nothing. An unclosed "[["
    drops through to end of text (passed to ``warn``); stray closers are
    left alone.

    One pass over the tokens pairs each "[[" with its "]]" and finds that
    last "|" for every link; an explicit stack of frames then writes the
    output. Nesting depth therefore costs neither recursion nor rescans.
    """
    if "[[" not in text:
        return text
    openers: list[int] = []  # offset of each "[[", in order
    # "[[" offset -> (offset of its "]]", offset its display text starts at)
    links: dict[int, tuple[int, int]] = {}
    unclosed: list[int] = []
    # _split_protected's depth at offset q, counted from a link's inner
    # start, is level(q) less the least level since that start, where level
    # counts every opener up and every closer down without clamping. So a
    # "|" splits the link's text when no token since the link's "[[" starts
    # lower; ``lower`` finds the last token before it that does.
    lower: list[tuple[int, int]] = []  # (level, offset) of tokens in open links
    bars: list[tuple[int, int]] = []   # (offset, last lower offset) of "|" in open links
    level = 0
    for match in _SPLIT_TOKENS[("|",)].finditer(text):
        tok = match.group()
        at = match.start()
        if unclosed:
            while lower and lower[-1][0] >= level:
                lower.pop()
            if tok == "|":
                bars.append((at, lower[-1][1] if lower else -1))
            lower.append((level, at))
        if tok == "|":
            continue
        if tok == "[[":
            openers.append(at)
            unclosed.append(at)
            level += 1
        elif tok == "{{":
            level += 1
        else:
            level -= 1
            if tok == "]]" and unclosed:
                opener = unclosed.pop()
                # A "|" that does not split here splits no enclosing link either.
                while bars and bars[-1][0] > opener and bars[-1][1] > opener:
                    bars.pop()
                shown = bars[-1][0] + 1 if bars and bars[-1][0] > opener else opener + 2
                links[opener] = (at, shown)
                if not unclosed:
                    bars.clear()
                    lower.clear()

    out = []
    frames = [(0, len(text))]  # (start, end) of each text still to resolve
    while frames:
        pos, end = frames.pop()
        idx = bisect_left(openers, pos)
        opener = openers[idx] if idx < len(openers) else end
        if opener >= end:
            out.append(text[pos:end])
            continue
        out.append(text[pos:opener])
        if opener not in links:  # only the whole text can hold an unclosed link
            warn("unclosed [[ at offset %d; dropping to end", opener)
            continue
        close, shown = links[opener]
        frames.append((close + 2, end))
        # No namespace holds "]", so the inner text's first characters decide.
        head = text[opener + 2:min(close, opener + 2 + _NAMESPACE_CHARS)]
        if not head.lower().startswith(_DROP_LINK_NAMESPACES):
            frames.append((shown, close))
    return "".join(out)


# The separator tuples _split_protected is called with, each with its pattern.
# Separators must contain no bracket characters, so no separator can overlap
# a nesting token.
_SPLIT_TOKENS = {
    seps: re.compile(r"\[\[|\{\{|\]\]|\}\}|" + "|".join(map(re.escape, seps)))
    for seps in (("|",), ("||",), ("!!", "||"))
}


def _split_protected(text: str, seps: tuple[str, ...]) -> list[str]:
    """Split on separators occurring outside [[...]] and {{...}} nesting.

    ``seps`` must be one of the tuples in ``_SPLIT_TOKENS``.
    """
    parts = []
    depth = pos = 0
    for match in _SPLIT_TOKENS[seps].finditer(text):
        tok = match.group()
        if tok in ("[[", "{{"):
            depth += 1
        elif tok in ("]]", "}}"):
            depth = max(0, depth - 1)
        elif depth == 0:
            parts.append(text[pos:match.start()])
            pos = match.end()
    parts.append(text[pos:])
    return parts


# Neither a URL nor a tag may span a NUL, so neither can swallow a shelved table.
_EXTERNAL_LINK = re.compile(r"\[(?:https?|ftp)://[^\s\x00]*(?:[^\S\n]+([^\]\n]*))?\]")
_HEADING_LINE = re.compile(r"^[ \t]*=[^\n]*", re.MULTILINE)
_HTML_TAG = re.compile(r"</?[A-Za-z][^>\n\x00]*>")
_LIST_MARKER = re.compile(r"^[*#:;]+[^\S\n]*", re.MULTILINE)
_TABLE_MARKER = re.compile(r"\x00T(\d+)\x00")


def _heading_text(match: re.Match) -> str:
    """A heading line's title: what ``^[ \\t]*=+[ \\t]*(.*?)[ \\t]*=+[ \\t]*$``
    (multiline) would capture, found without that pattern's cubic
    backtracking. A line that pattern would not match is returned whole.

    The pattern's first choices are the whole leading "=" run and the blanks
    after it; then the title runs to the blanks before the trailing "=" run.
    When only blanks follow the leading run, the run must give up its last
    "=" to close the heading, so the title is empty.
    """
    line = match.group()
    if not line.rstrip(" \t").endswith("="):
        return line
    opening = line.lstrip(" \t")
    title = opening.lstrip("=").lstrip(" \t")
    if title:
        return title.rstrip(" \t").rstrip("=").rstrip(" \t")
    return "" if len(opening.rstrip(" \t")) > 1 else line


def _external_links(text: str) -> str:
    """``text`` with each external link replaced by its label. As in MediaWiki,
    no link spans a line, so each line is scanned only up to its last "]"."""
    if "://" not in text:
        return text
    lines = text.split("\n")
    for idx, line in enumerate(lines):
        end = line.rfind("]") + 1
        if end:
            lines[idx] = _EXTERNAL_LINK.sub(r"\1", line[:end]) + line[end:]
    return "\n".join(lines)


def _strip(text: str, remove_tables: bool, warn) -> str:
    """Apply the markup rules in order. Each unclosed construct is passed to
    ``warn``, and no other match crosses a blank line (see strip_markup)."""
    table_blocks: list[str] = []
    if not remove_tables:
        # Shelve table blocks untouched so no other rule can alter them. The
        # input loses its NULs first, so it cannot forge a placeholder.
        text = text.replace("\x00", "")
        spans = _outer_table_spans(text, warn)
        table_blocks = [text[s:e] for s, e in spans]
        text = _splice(text, spans, (f"\x00T{idx}\x00" for idx in range(len(spans))))

    text = _remove_comments(text, warn)
    text = _drop_refs(text, warn)
    text = _drop_galleries(text, warn)
    text = _drop_templates(text, warn)
    if remove_tables:
        text = _splice(text, _outer_table_spans(text, warn), repeat(""))
    text = _HEADING_LINE.sub(_heading_text, text)
    text = _link_texts(text, warn)
    text = _external_links(text)
    text = _HTML_TAG.sub("", text)
    text = _LIST_MARKER.sub("", text)
    text = text.replace("'''", "").replace("''", "")

    if table_blocks:
        text = _TABLE_MARKER.sub(lambda m: table_blocks[int(m.group(1))], text)
    return text


def strip_markup(wikitext: str, remove_tables: bool = True, *,
                 memo: dict[str, str | None] | None = None) -> str:
    r"""Reduce wikitext to plain prose.

    Templates, refs (with contents), comments, heading/emphasis/list markers
    and link syntax are removed; piped and external links keep their display
    text. With ``remove_tables`` every ``{| ... |}`` block is dropped;
    otherwise table blocks pass through verbatim and NUL characters are
    dropped. Total function: never raises on malformed input. Each unclosed
    construct is logged; an unclosed ``<gallery`` is left in place, and a
    ``</ref`` without ``>`` drops to the end. External links and list
    markers never reach past their line.

    With ``memo`` the text is split at ``"\n\n"`` and each paragraph is
    stripped alone, looked up in ``memo`` first, and the results are joined
    with ``"\n\n"``. A paragraph is self-contained exactly when stripping it
    alone logs nothing; ``memo`` maps any other paragraph to None. If any
    paragraph is not self-contained, the whole text is stripped at once, as
    without a memo, so the output and the warnings are the same either way.
    Passing one dict to every revision of a history strips each distinct
    paragraph once. A memo serves one ``remove_tables`` value.
    """
    if memo is not None:
        parts = []
        for para in wikitext.split("\n\n"):
            if para in memo:
                plain = memo[para]
            else:
                try:
                    plain = _strip(para, remove_tables, _spill)
                except _Spill:
                    plain = None
                memo[para] = plain
            if plain is None:
                break
            parts.append(plain)
        else:
            return "\n\n".join(parts)
    return _strip(wikitext, remove_tables, logger.warning)


# ---------------------------------------------------------------------------
# table parsing
# ---------------------------------------------------------------------------

_SPAN_ATTR = re.compile(r"(rowspan|colspan)\s*=\s*\"?(\d+)\"?", re.IGNORECASE)
_BRACKET = re.compile(r"[{}\[\]]")

# MediaWiki's limits; beyond them one vandal attribute could exhaust memory.
_MAX_ROWSPAN = 65534
_MAX_COLSPAN = 1000


def _span_value(digits: str, limit: int) -> int:
    # int() refuses runs past 4300 digits; over 9 significant digits is over any limit.
    digits = digits.lstrip("0") or "0"
    return limit if len(digits) > 9 else max(1, min(limit, int(digits)))


def _parse_cell(raw: str) -> tuple[str, int, int]:
    """Split an optional attribute prefix off a cell.

    Returns (clean text, rowspan, colspan).
    """
    rowspan = colspan = 1
    parts = _split_protected(raw, ("|",))
    body = raw
    if len(parts) > 1:
        prefix = parts[0]
        # MediaWiki: text before a single top-level pipe is attributes, but
        # only treat it so when it actually looks like attribute syntax.
        if "=" in prefix and not _BRACKET.search(prefix):
            body = "|".join(parts[1:])
            for name, value in _SPAN_ATTR.findall(prefix):
                if name.lower() == "rowspan":
                    rowspan = _span_value(value, _MAX_ROWSPAN)
                else:
                    colspan = _span_value(value, _MAX_COLSPAN)
    text = strip_markup(body, remove_tables=True)
    return " ".join(text.split()), rowspan, colspan


def _expand_spans(cell_rows: list[list[tuple[str, int, int]]]) -> list[list[str]]:
    """Duplicate rowspan/colspan cell values into a rectangular grid."""
    grid: list[list[str]] = []
    carry: dict[int, list] = {}  # column -> [value, rows remaining]
    for cells in cell_rows:
        row: list[str] = []
        col = idx = 0
        while idx < len(cells) or col in carry:
            if col in carry:
                value, remaining = carry[col]
                row.append(value)
                if remaining > 1:
                    carry[col][1] = remaining - 1
                else:
                    del carry[col]
                col += 1
                continue
            text, rowspan, colspan = cells[idx]
            idx += 1
            for _ in range(colspan):
                row.append(text)
                if rowspan > 1:
                    carry[col] = [text, rowspan - 1]
                col += 1
        grid.append(row)
    return grid


Cell = tuple[str, int, int]  # (clean text, rowspan, colspan)


def _line_cells(text: str, memo: dict[str, tuple[Cell, ...]]) -> tuple[Cell, ...]:
    """The parsed cells of one stripped table line, looked up in ``memo`` first.

    A ``!`` line splits at ``!!`` and ``||``, a ``|`` line at ``||``; any other
    line is one cell's continuation text. The first character fixes the kind,
    so one text always parses the same way.
    """
    cells = memo.get(text)
    if cells is None:
        if text[0] == "!":
            chunks = _split_protected(text[1:], ("!!", "||"))
        elif text[0] == "|":
            chunks = _split_protected(text[1:], ("||",))
        else:
            chunks = [text]
        cells = memo[text] = tuple(_parse_cell(chunk.strip()) for chunk in chunks)
    return cells


def _parse_table_block(block: str, memo: dict) -> RawTable | None:
    """Parse one table block (nested tables already blanked out) into its
    header and data rows.

    Rows break at ``|-`` only, matching MediaWiki semantics; ``!`` and ``|``
    lines add cells to the current row. The first grid row is the header.
    A block without rows gives None.
    """
    # Everything on the {| line is attributes.
    lines = block.rstrip().removesuffix("|}").split("\n")[1:]

    cell_rows: list[list[Cell]] = []
    current: list[Cell] | None = None
    for line in lines:
        text = line.strip()
        if not text or text.startswith("|+"):  # blank or caption
            continue
        if text.startswith("|-"):
            if current:
                cell_rows.append(current)
            current = None
        elif text[0] in "!|":
            if current is None:
                current = []
            current.extend(_line_cells(text, memo))
        elif current:
            # Continuation of the previous cell's content.
            prev_text, rs, cs = current[-1]
            extra = _line_cells(text, memo)[0][0]
            current[-1] = ((prev_text + " " + extra).strip(), rs, cs)
    if current:
        cell_rows.append(current)

    if not cell_rows:
        return None
    grid = _expand_spans(cell_rows)
    header = grid[0]  # every row holds at least one cell
    width = len(header)
    return RawTable(header, [(row + [""] * (width - len(row)))[:width] for row in grid[1:]])


def parse_tables(wikitext: str, revision_id: int | None = None, *,
                 memo: dict | None = None) -> list[RawTable]:
    """Extract every well-formed table as a RawTable, in document order.

    Nested tables yield their own RawTable; their markup is blanked out of
    the enclosing block so outer cells stay clean. Blocks without rows are
    skipped, never raised; one warning per call counts them.

    ``memo`` maps each stripped table line to its parsed cells, and each
    table block (its nested tables blanked out), keyed ``("block", text)``,
    to its RawTable, or to None for a block without rows. Passing one dict
    to every revision of a history parses each distinct block and line
    once; without it each call starts from an empty dict. A block seen
    before yields the same RawTable object, which nothing downstream
    mutates.
    """
    if memo is None:
        memo = {}
    spans = sorted(_find_table_spans(wikitext))
    # Blanking a block's direct children blanks every deeper table too.
    children: dict[int, list[tuple[int, int]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))

    tables: list[RawTable] = []
    skipped: list[int] = []
    for start, end, _ in spans:
        inner = children.get(start, ())
        block = _splice(wikitext, inner, (" " * (e - s) for s, e in inner), start, end)
        key = ("block", block)
        if key not in memo:
            memo[key] = _parse_table_block(block, memo)
        table = memo[key]
        if table is None:
            skipped.append(start)
        else:
            tables.append(table)
    if skipped:
        logger.warning("skipping %d table(s) with no rows (revision %s, first at offset %d)",
                       len(skipped), revision_id, skipped[0])
    return tables


# ---------------------------------------------------------------------------
# sentences and tokens
# ---------------------------------------------------------------------------

def _sentence_spans(text: str) -> list[tuple[int, int]]:
    """Sentence spans covering the whole input.

    Splits at ``[.?!]`` plus optional bracketed citation remnants plus
    whitespace before an uppercase letter or digit, unless the word ending
    at the punctuation is a known abbreviation.
    """
    spans = []
    prev = 0
    for match in _SENTENCE_BOUNDARY.finditer(text):
        punct_idx = match.start()
        word_start = punct_idx
        while word_start > 0 and not text[word_start - 1].isspace():
            word_start -= 1
        word = text[word_start:punct_idx + 1]
        if word in ABBREVIATIONS:
            continue
        spans.append((prev, match.end()))
        prev = match.end()
    if prev < len(text) or not spans:
        spans.append((prev, len(text)))
    return spans


def split_sentences(text: str, source_revision: int | None = None) -> list[Sentence]:
    """Split plain text into Sentence objects (tokenized, whitespace-trimmed).

    Lines are treated independently; blank output sentences are dropped.
    """
    sentences = []
    for line in text.split("\n"):
        for start, end in _sentence_spans(line):
            chunk = line[start:end].strip()
            if not chunk:
                continue
            tokens = tokenize(chunk)
            if not tokens:
                continue
            sentences.append(
                Sentence(text=chunk, tokens=tokens, source_revision=source_revision)
            )
    return sentences


def tokenize(sentence_text: str) -> list[str]:
    """Whitespace tokenizer that detaches leading/trailing punctuation.

    Internal punctuation survives, so "16,000" and "mother-to-child" stay
    single tokens while "died." becomes ["died", "."].
    """
    return _TOKEN.findall(sentence_text)
