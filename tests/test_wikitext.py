import re
import string
import time
from datetime import date, datetime

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from outbreakminer.ingest import ArticleRevision
from outbreakminer.timeseries import (
    RevisionSeries,
    extract_revision_series,
    extract_series,
    interpolate_daily,
)
from outbreakminer.wikitext import (
    _HEADING_LINE,
    _find_table_spans,
    _heading_text,
    _link_texts,
    _parse_cell,
    _sentence_spans,
    _split_protected,
    _table_tokens,
    parse_tables,
    split_sentences,
    strip_markup,
    tokenize,
)

STRIP_FIXTURES = [
    "plain prose.",
    "[[Ebola virus|the virus]] spread<ref>WHO</ref>.",
    "before {| class=x |- | 7 |} after",
    "{{Infobox\n| a = 1\n}}\nText '''bold''' and ''italic''.",
    "== Heading ==\nBody with [http://example.org a label] link.",
    "* item one\n* item two\nSee [[plain link]].",
    "Unbalanced {{template start\nnext line",
    "<!-- comment -->visible<!-- more -->",
    "A<ref name=x/>B<ref>dropped</ref>C",
]


KEPT_TABLE = "{|\n! a\n|-\n| 1\n|}"


class TestStripMarkup:
    def test_markup_free_input_is_fixed_point(self):
        assert strip_markup("plain prose.") == "plain prose."

    def test_link_and_ref(self):
        # Hand application: piped link keeps display text, ref contents drop.
        assert strip_markup("[[Ebola virus|the virus]] spread<ref>WHO</ref>.") == (
            "the virus spread."
        )

    @pytest.mark.parametrize("text, expected, warning", [
        ("A<ref name=x/>B", "AB", None),
        ("A<ref>x</ref>B", "AB", None),
        ("A<REF name=y>x</Ref >B", "AB", None),
        ("A<ref>x\nB", "A\nB", "<ref> without </ref> at offset 1"),
        ("A<ref name=x\nB", "A\nB", "unclosed <ref tag at offset 1"),
        ("A<ref>x</ref\nB", "A", "</ref without > after <ref> at offset 1"),
        # "İ".lower() is two code points; ref offsets must not shift after it.
        ("İstanbul had 5 cases.<ref>WHO</ref> Then 7 deaths.",
         "İstanbul had 5 cases. Then 7 deaths.", None),
    ], ids=["self-closing", "paired", "mixed-case", "no-closer", "no-gt", "closer-no-gt",
            "after-length-changing-lowercase"])
    def test_ref_outcomes(self, caplog, text, expected, warning):
        assert strip_markup(text) == expected
        assert [r.getMessage().split(";")[0] for r in caplog.records] == (
            [warning] if warning else []
        )

    @pytest.mark.parametrize("text, expected, warning", [
        ("x\n*\n\n  y", "x\n\n\n  y", None),
        ("[http://a b\nc]", "[http://a b\nc]", None),
        ("a<gallery>\nFile:x.png\n</gallery>b", "ab", None),
        ("a<gallery>\nFile:x.png", "a\nFile:x.png", "unclosed <gallery at offset 1"),
    ], ids=["empty-list-item", "link-across-line", "closed-gallery", "unclosed-gallery"])
    def test_line_bound_and_gallery_outcomes(self, caplog, text, expected, warning):
        assert strip_markup(text) == expected
        assert [r.getMessage().split(";")[0] for r in caplog.records] == (
            [warning] if warning else []
        )

    def test_comment_closer_inside_comment_opener(self):
        # The closed comment goes first; the "<!--" it leaves swallows the tail.
        assert strip_markup("<<!-- x -->!-->tail") == ""

    def test_table_removed(self):
        assert strip_markup("before {| class=x |- | 7 |} after") == "before  after"

    def test_table_kept_verbatim_when_asked(self):
        text = "before\n{| class=x\n|-\n| 7\n|}\nafter"
        kept = strip_markup(text, remove_tables=False)
        assert "{| class=x" in kept and "|}" in kept
        assert "before" in kept and "after" in kept

    def test_template_and_emphasis(self):
        out = strip_markup("{{Infobox\n| a = 1\n}}\nText '''bold''' and ''italic''.")
        assert "{{" not in out and "'''" not in out
        assert "Text bold and italic." in out

    def test_external_link_keeps_label(self):
        assert "a label" in strip_markup("see [http://example.org a label].")
        assert "http" not in strip_markup("see [http://example.org].")

    def test_media_links_dropped(self):
        out = strip_markup("x [[File:map.png|thumb|A [[virus]] map]] y")
        assert out == "x  y"

    def test_unbalanced_template_dropped_to_end(self):
        assert strip_markup("keep {{never closed\nrest") == "keep "

    def test_unclosed_link_dropped_to_end(self):
        assert strip_markup("see [[Ebola virus disease and more") == "see "

    def test_kept_table_survives_nul_placeholder_lookalike(self):
        text = f"a \x00T5\x00 {KEPT_TABLE}"
        assert strip_markup(text, remove_tables=False) == f"a T5 {KEPT_TABLE}"

    def test_kept_table_not_copied_by_forged_placeholder(self):
        text = f"x \x00T0\x00 {KEPT_TABLE} y"
        assert strip_markup(text, remove_tables=False) == f"x T0 {KEPT_TABLE} y"

    @pytest.mark.parametrize("text", [f"<span {KEPT_TABLE}>x", f"[http://a{KEPT_TABLE}]"],
                             ids=["tag", "url"])
    def test_kept_table_not_swallowed_by_tag_or_url(self, text):
        assert KEPT_TABLE in strip_markup(text, remove_tables=False)

    def test_many_tables_stay_fast(self):
        text = "a{||}\n" * 32000
        started = time.perf_counter()
        assert strip_markup(text) == "a\n" * 32000
        assert strip_markup(text, remove_tables=False) == text
        assert time.perf_counter() - started < 1.0

    def test_idempotent_on_fixtures(self):
        for fixture in STRIP_FIXTURES:
            once = strip_markup(fixture)
            assert strip_markup(once) == once
            kept = strip_markup(fixture, remove_tables=False)
            assert strip_markup(kept, remove_tables=False) == kept

    def test_idempotent_on_bundled_revisions(self, fixture_revisions):
        for rev in fixture_revisions:
            once = strip_markup(rev.wikitext)
            assert strip_markup(once) == once


# The link and heading rules as they were written before: a recursive
# nesting-aware replace, and one regex that backtracks cubically.
_RECURSIVE_LINK_TOKEN = re.compile(r"\[\[|\]\]")
_BACKTRACKING_HEADING = re.compile(r"^[ \t]*=+[ \t]*(.*?)[ \t]*=+[ \t]*$", re.MULTILINE)


def _recursive_links(text, warn, nested_warn):
    if "[[" not in text:
        return text
    out = []
    pos = depth = start = 0
    for match in _RECURSIVE_LINK_TOKEN.finditer(text):
        if match.group() == "[[":
            if depth == 0:
                out.append(text[pos:match.start()])
                start = match.start()
            depth += 1
        elif depth:
            depth -= 1
            if depth == 0:
                inner = text[start + 2:match.start()]
                if inner.lower().startswith(("file:", "image:", "category:")):
                    out.append("")
                else:
                    kept = _split_protected(inner, ("|",))[-1]
                    out.append(_recursive_links(kept, nested_warn, nested_warn))
                pos = match.end()
    if depth:
        warn("unclosed %s at offset %d; dropping to end" % ("[[", start))
    else:
        out.append(text[pos:])
    return "".join(out)


_LINK_PIECES = st.lists(st.sampled_from(
    ["[[", "]]", "|", "||", "{{", "}}", "[", "]", "x", "File:", "fILE:x", "Category:", "İ"]),
    max_size=40).map("".join)


class TestAdversarialMarkup:
    @given(_LINK_PIECES)
    @settings(max_examples=500, deadline=None)
    def test_links_match_recursive_resolution(self, text):
        logged, nested = [], []
        expected = _recursive_links(text, logged.append, nested.append)
        warned = []
        assert _link_texts(text, lambda fmt, *args: warned.append(fmt % args)) == expected
        assert warned == logged
        assert nested == []  # only the whole text can hold an unclosed link

    @pytest.mark.parametrize("text, shown", [
        ("[[x|[[y]]]]", "y"),
        ("[[a}}|b]]", "b"),                      # "}}" lowers the split depth to 0
        ("[[a|[[b}}|c]]]]", "c]]"),              # ...and leaves a stray closer
        ("[[File:a|[[b]]]] [[c|d]]", " d"),
        ("[[x|" * 3 + "y" + "]]" * 3, "y"),
    ])
    def test_nested_link_text(self, text, shown):
        assert strip_markup(text) == shown

    def test_deep_link_nesting_stays_fast(self, caplog):
        deep = "[[x|" * 5000 + "y" + "]]" * 5000
        started = time.perf_counter()
        assert strip_markup(deep) == "y"
        assert strip_markup("[" * 10000 + "]" * 10000) == ""
        [table] = parse_tables(f"{{|\n! Note\n|-\n| {deep}\n|}}")
        assert table.rows == [["y"]]
        assert time.perf_counter() - started < 1.0
        assert not caplog.records

    @given(st.lists(st.sampled_from(["=", " ", "\t", "x", "\r", "\n"]), max_size=30)
           .map("".join))
    @settings(max_examples=500, deadline=None)
    def test_heading_matches_backtracking_rule(self, text):
        assert (_HEADING_LINE.sub(_heading_text, text)
                == _BACKTRACKING_HEADING.sub(r"\1", text))

    @pytest.mark.parametrize("n", [2000, 8000])
    def test_long_heading_run_stays_fast(self, n):
        started = time.perf_counter()
        assert strip_markup("=" * n + "x") == "=" * n + "x"
        assert strip_markup("=" * n + " x " + "=" * n) == "x"
        assert time.perf_counter() - started < 1.0

    # Rules that could rescan the rest of the text, or of a line, from each
    # opener that has no closer after it.
    @pytest.mark.parametrize("n", [2000, 8000])
    @pytest.mark.parametrize("shape, plain, warnings", [
        (lambda n: "<!--" * n, lambda n: "", 1),
        (lambda n: "<gallery>" * n, lambda n: "", 1),
        (lambda n: "[http://a " * n, lambda n: "[http://a " * n, 0),
        (lambda n: "[http://a " * n + "\n]", lambda n: "[http://a " * n + "\n]", 0),
    ], ids=["comments", "galleries", "link-no-close", "link-closed-next-line"])
    def test_unclosed_run_stays_fast(self, caplog, n, shape, plain, warnings):
        started = time.perf_counter()
        assert strip_markup(shape(n)) == plain(n)
        assert time.perf_counter() - started < 1.0
        assert len(caplog.records) == warnings


class TestParseTables:
    def test_no_tables(self):
        assert parse_tables("no table syntax here") == []

    def test_basic_table(self):
        text = "{| \n ! Date !! Cases !! Deaths \n |- \n | 30 June 2014 || 759 || 467 \n|}"
        tables = parse_tables(text)
        assert len(tables) == 1
        assert tables[0].header == ["Date", "Cases", "Deaths"]
        assert tables[0].rows == [["30 June 2014", "759", "467"]]

    def test_rowspan_expansion(self):
        text = (
            "{|\n! A !! B\n|-\n| rowspan=2 | x || 1\n|-\n| 2\n|}"
        )
        [table] = parse_tables(text)
        # The spanning value repeats into the following row's same column.
        assert table.rows == [["x", "1"], ["x", "2"]]

    def test_colspan_expansion(self):
        text = "{|\n! A !! B !! C\n|-\n| colspan=2 | wide || z\n|}"
        [table] = parse_tables(text)
        assert table.rows == [["wide", "wide", "z"]]

    def test_cells_markup_free(self):
        text = "{|\n! H\n|-\n| [[target|shown]]<ref>gone</ref>\n|}"
        [table] = parse_tables(text)
        assert table.rows == [["shown"]]

    def test_nested_table_attaches_to_innermost(self):
        text = "{|\n! Outer\n|-\n| before {|\n! Inner\n|-\n| 5\n|} after\n|}"
        tables = parse_tables(text)
        headers = [t.header for t in tables]
        assert ["Outer"] in headers and ["Inner"] in headers
        outer = next(t for t in tables if t.header == ["Outer"])
        assert outer.rows == [["before after"]]

    def test_malformed_block_skipped_not_raised(self):
        # No rows at all: skipped with a warning, never aborts.
        assert parse_tables("{| class=broken\n|}") == []

    def test_deep_unclosed_nesting_stays_fast(self):
        started = time.perf_counter()
        assert parse_tables("{|\n" * 4000) == []
        assert time.perf_counter() - started < 1.0

    def test_one_warning_line_per_call(self, caplog):
        text = "{|\n" * 1000
        assert strip_markup(text) == ""
        assert [r.getMessage() for r in caplog.records] == [
            "1000 unclosed table block(s), outermost at offset 0; dropping to end"]
        caplog.clear()
        assert parse_tables("{|\n|}\n" + text, revision_id=4) == []
        assert [r.getMessage() for r in caplog.records] == [
            "1000 unclosed table block(s), outermost at offset 6; dropping to end",
            "skipping 1001 table(s) with no rows (revision 4, first at offset 0)",
        ]

    @given(
        n_cols=st.integers(1, 4),
        rows=st.lists(
            st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_rectangularity_under_random_spans(self, n_cols, rows):
        lines = ["{| class=wikitable", "! " + " !! ".join(f"H{i}" for i in range(n_cols))]
        value = 0
        for row in rows:
            lines.append("|-")
            cells = []
            for rowspan, colspan in row:
                cells.append(f"rowspan={rowspan} colspan={colspan} | v{value}")
                value += 1
            lines.append("| " + " || ".join(cells))
        lines.append("|}")
        for table in parse_tables("\n".join(lines)):
            width = len(table.header)
            assert width > 0
            for row in table.rows:
                assert len(row) == width


class TestScanners:
    @pytest.mark.parametrize("text, spans", [
        ("{{|}", []),                      # "{|" after "{" is template syntax
        ("{|}", [(0, 3, None)]),           # "|}" may not reuse the opener's pipe
        ("a|}}b", []),                     # "|}" before "}" is template syntax
        ("{|\n|}}", [(0, 6, None)]),
        ("{|\n{|\n|}\n|}", [(3, 8, 0), (0, 11, None)]),
        ("{| a\n|-\n| 1", [(0, 11, None)]),   # unclosed runs to end of text
        ("{|{|", [(2, 4, 0), (0, 4, None)]),
        ("{|{|{|\n|}|}{|\n|}\n|}", [(4, 9, 2), (2, 11, 0), (11, 16, 0), (0, 19, None)]),
    ])
    def test_find_table_spans(self, text, spans):
        assert _find_table_spans(text) == spans

    @given(st.lists(st.sampled_from(["{", "|", "}", "x", "{|", "|}", "\n"]), max_size=40)
           .map("".join))
    @settings(max_examples=300, deadline=None)
    def test_table_token_matches_lookbehind_first_pattern(self, text):
        oracle = re.compile(r"(?<!\{)\{\||\|\}(?!\})")
        assert ([(start, start + 2, opens) for start, opens in _table_tokens(text)]
                == [(*m.span(), m.group() == "{|") for m in oracle.finditer(text)])

    @given(st.lists(st.sampled_from(["{", "|", "}", "x", "{|", "|}", "\n"]), max_size=60)
           .map("".join))
    @settings(max_examples=300, deadline=None)
    def test_find_table_spans_matches_token_regex_scan(self, text):
        # The scan as one alternation regex, which tries both markers at each offset.
        table_token = re.compile(r"\{\|(?<!\{\{\|)|\|\}(?!\})")
        spans, stack, expected_warnings = [], [], []
        for match in table_token.finditer(text):
            if match.group() == "{|":
                stack.append(match.start())
            elif stack:
                start = stack.pop()
                spans.append((start, match.end(), stack[-1] if stack else None))
        if stack:
            expected_warnings.append((len(stack), stack[0]))
        while stack:
            start = stack.pop()
            spans.append((start, len(text), stack[-1] if stack else None))
        warnings = []
        assert _find_table_spans(text, lambda fmt, *args: warnings.append(args)) == spans
        assert warnings == expected_warnings

    @pytest.mark.parametrize("text, seps, parts", [
        ("[[a|b]]|c", ("|",), ["[[a|b]]", "c"]),
        ("{{t|x}}||y", ("||",), ["{{t|x}}", "y"]),
        ("{{t|[[a||b]]}}!!y||z", ("!!", "||"), ["{{t|[[a||b]]}}", "y", "z"]),
        ("]]|x", ("|",), ["]]", "x"]),     # a stray closer leaves depth at 0
        ("[[a||b", ("||",), ["[[a||b"]),
    ])
    def test_split_protected(self, text, seps, parts):
        assert _split_protected(text, seps) == parts


MARKUP_TOKENS = [
    "[[", "]]", "{{", "}}", "{|", "|}", "|", "||", "!", "!!", "|-", "|+", "\n", " ",
    "colspan=3", 'colspan="100000"', "rowspan=70000", "rowspan=2", "<ref>", "</ref>",
    "<ref name=x/>", "'''", "''", "<!--", "-->", "File:", "== ", "* ",
    "[http://example.org label]", "Date", "1,234", "=", "<span ", ">", "\x00", "\x00T0\x00",
    "<gallery>", "</gallery>", "İ",
]


class TestSpanLimits:
    @pytest.mark.parametrize("value", ["100000", "9" * 5000], ids=["1e5", "5000-digits"])
    def test_colspan_capped(self, value):
        text = f'{{|\n! colspan="{value}" | Date !! Cases\n|-\n| 1 || 2\n|}}'
        [table] = parse_tables(text)
        assert len(table.header) == 1001
        assert table.rows == [["1", "2"] + [""] * 999]

    def test_rowspan_capped(self):
        assert _parse_cell("rowspan=70000 | x") == ("x", 65534, 1)

    @given(st.lists(st.sampled_from(MARKUP_TOKENS), max_size=60).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_parser_total_and_bounded(self, text):
        assert len(strip_markup(text)) <= len(text)
        assert len(strip_markup(text, remove_tables=False)) <= len(text)
        raw_cells = max(1, text.count("|") + text.count("!"))
        for table in parse_tables(text):
            for row in [table.header, *table.rows]:
                assert len(row) <= 1000 * raw_cells


# Paragraph pieces for the memo tests: markup tokens, blank-line splits,
# bare list-marker lines and external links left open.
_PARAGRAPH_TOKENS = MARKUP_TOKENS + [
    "\n\n", "\n*", "\n#\n", "\n:", "\n* \n", "[http://a", "[http://a b", "]", "</ref",
    "</gallery", "ftp://",
]
_PARAGRAPH = st.lists(st.sampled_from(_PARAGRAPH_TOKENS), max_size=12).map("".join)


@st.composite
def _paragraph_texts(draw):
    """Texts joined at blank lines from one small paragraph pool, so
    paragraphs repeat within and across texts."""
    pool = draw(st.lists(_PARAGRAPH, min_size=1, max_size=5))
    return [
        "\n\n".join(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))
        for _ in range(draw(st.integers(1, 4)))
    ]


def _messages(caplog) -> list[str]:
    messages = [r.getMessage() for r in caplog.records]
    caplog.clear()
    return messages


class TestParagraphMemo:
    @given(_paragraph_texts(), st.booleans())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_shared_memo_equals_whole_text(self, caplog, texts, remove_tables):
        memo = {}
        for text in texts:
            caplog.clear()
            plain = strip_markup(text, remove_tables, memo=memo)
            logged = _messages(caplog)
            assert plain == strip_markup(text, remove_tables)
            assert logged == _messages(caplog)

    # Each first paragraph breaks one self-containedness rule, and stripping
    # the paragraphs one by one would give a different text.
    @pytest.mark.parametrize("text, remove_tables", [
        ("a <!-- x\n\nb --> c", True),
        ("A<ref>x\n\ny</ref>B", True),
        ("A<ref name=x\n\ny>z</ref>B", True),
        ("A<ref>x</ref\n\ny>B", True),
        ("<gallery>\nFile:a.png\n\nFile:b.png\n</gallery>after", True),
        ("a {{t\n\n}} b", True),
        ("a {|\n\n|} b", True),
        ("{|\n\n[[x]]|}", False),
        ("a [[x\n\ny]] b", True),
    ], ids=["comment", "ref-no-close", "ref-no-gt", "ref-closer-at-end", "gallery",
            "template", "table", "kept-table", "link"])
    def test_spilling_paragraph_strips_whole_text(self, caplog, text, remove_tables):
        whole = strip_markup(text, remove_tables)
        logged = _messages(caplog)
        paragraphs = text.split("\n\n")
        assert "\n\n".join(strip_markup(p, remove_tables) for p in paragraphs) != whole
        caplog.clear()
        memo = {}
        assert strip_markup(text, remove_tables, memo=memo) == whole
        assert _messages(caplog) == logged
        assert memo == {paragraphs[0]: None}
        assert strip_markup(text, remove_tables, memo=memo) == whole
        assert _messages(caplog) == logged

    # External links and list markers end at their line, so these paragraphs
    # strip alone to what the whole text gives.
    @pytest.mark.parametrize("text", [
        "[http://a\n\nb]", "[http://a b\n\nc]", "x\n*\n\ny", "x\n#: \t\n\ny",
        "x\n*\n \n\ny",
    ], ids=["url-at-end", "url-space-no-close", "list-marker", "list-marker-spaces",
            "list-marker-blank-line"])
    def test_line_bound_markup_strips_alone(self, caplog, text):
        paragraphs = text.split("\n\n")
        whole = strip_markup(text)
        assert "\n\n".join(strip_markup(p) for p in paragraphs) == whole
        memo = {}
        assert strip_markup(text, memo=memo) == whole
        assert memo == {p: strip_markup(p) for p in paragraphs}
        assert not caplog.records

    @given(st.lists(st.sampled_from(_PARAGRAPH_TOKENS + ["<gallery", "\n;", "[ftp://q r]", "\r"]),
                    max_size=30).map("".join), st.booleans())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_paragraph_without_warning_strips_alone(self, caplog, text, remove_tables):
        caplog.clear()
        plain = [strip_markup(p, remove_tables) for p in text.split("\n\n")]
        if caplog.records:  # some paragraph is not self-contained
            return
        assert "\n\n".join(plain) == strip_markup(text, remove_tables)
        assert not caplog.records

    def test_self_contained_paragraphs_stripped_once(self, caplog):
        paragraphs = ["== Lead ==\n[[Ebola virus|Ebola]] spread.<ref>WHO</ref>",
                      "* [http://example.org A report] said '''5''' died.\n* more",
                      "{{Infobox}}{|\n| 1\n|}<!-- note -->Tail."]
        text = "\n\n".join(paragraphs + paragraphs[:1])
        memo = {}
        assert strip_markup(text, memo=memo) == strip_markup(text)
        assert memo == {p: strip_markup(p) for p in paragraphs}
        assert not caplog.records

    @pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
    def test_spill_stays_linear(self, where):
        paragraphs = [f"Paragraph {i} with [[a link|text]] and ''emphasis''." for i in range(2000)]
        paragraphs[where] = "{{never closed " + paragraphs[where]
        text = "\n\n".join(paragraphs)
        memo = {}
        started = time.perf_counter()
        plain = strip_markup(text, memo=memo)
        assert time.perf_counter() - started < 1.0
        assert plain == strip_markup(text)
        assert len(memo) <= len(set(paragraphs))


def _revisions(texts):
    return [ArticleRevision(revision_id=idx, parent_id=None, timestamp=datetime(2014, 7, 1),
                            editor="", comment="", wikitext=text)
            for idx, text in enumerate(texts)]


_DAY = st.dates(date(2014, 3, 1), date(2014, 12, 31)).map(lambda d: f"{d.day} {d:%B} {d.year}")
_COUNT = st.integers(0, 20000).map(str)
# Row texts a revision draws from, so rows repeat across revisions: date rows,
# rowspans that carry into the next row, one cell per line, continuation
# lines, nested tables and random markup. Every pool also holds one text as
# a header, a data and a continuation line.
_ROW = st.one_of(
    st.builds("| {} || {} || {}".format, _DAY, _COUNT, _COUNT),
    st.builds("| rowspan=2 | {} || {} || {}".format, _DAY, _COUNT, _COUNT),
    st.builds("| {}\n| {}".format, _COUNT, _COUNT),
    st.builds("| {}\n| {}\n{}".format, _DAY, _COUNT, st.sampled_from(["000", "more", "[[x]]"])),
    st.builds("| {} {{|\n! Inner\n|-\n| {}\n|}}".format, _DAY, _COUNT),
    st.lists(st.sampled_from(MARKUP_TOKENS), max_size=12).map(lambda t: "| " + "".join(t)),
)


@st.composite
def _histories(draw):
    pool = draw(st.lists(_ROW, max_size=6)) + ["! 5 !! 7", "| 5 !! 7", "| 1 July 2014\n5 !! 7"]
    texts = []
    for _ in range(draw(st.integers(1, 5))):
        rows = draw(st.lists(st.sampled_from(pool), max_size=8))
        table = "{| class=wikitable\n! Date !! Guinea cases !! Guinea deaths\n|-\n"
        texts.append("lead\n" + table + "\n|-\n".join(rows) + "\n|}\ntail")
    return texts


class TestRowMemo:
    @given(_histories())
    @settings(max_examples=150, deadline=None)
    def test_shared_memo_equals_fresh_parse(self, texts):
        memo = {}
        for idx, text in enumerate(texts):
            assert (parse_tables(text, revision_id=idx, memo=memo)
                    == parse_tables(text, revision_id=idx))
        revisions = _revisions(texts)
        expected = []
        for rev in revisions:
            series = extract_series(parse_tables(rev.wikitext, revision_id=rev.revision_id),
                                    revision_id=rev.revision_id)
            if series:
                series = sorted((interpolate_daily(s) for s in series),
                                key=lambda s: (s.country, s.metric))
                expected.append(RevisionSeries(rev.revision_id, rev.timestamp, series))
        assert extract_revision_series(revisions) == expected

    def test_repeated_block_is_the_same_table(self):
        block = "{|\n! H\n|-\n| 1\n|}"
        memo = {}
        [first] = parse_tables(f"lead\n{block}\ntail", memo=memo)
        again, other = parse_tables(f"{block}\n{{|\n! H\n|-\n| 2\n|}}", memo=memo)
        assert again is first and other is not first
        assert (first.header, first.rows, other.rows) == (["H"], [["1"]], [["2"]])

    def test_repeated_malformed_cell_warns_once_per_run(self, caplog):
        table = ("{|\n! Date !! Guinea cases\n|-\n| 1 July 2014 || 5\n"
                 "|-\n| 2 July 2014 || 7 {{broken\n|}")
        revisions = _revisions([table] * 4)
        extract_revision_series(revisions)
        unclosed = [r for r in caplog.records if "unclosed template" in r.getMessage()]
        assert len(unclosed) == 1
        caplog.clear()
        for rev in revisions:
            parse_tables(rev.wikitext)
        assert sum("unclosed template" in r.getMessage() for r in caplog.records) == 4


class TestSentences:
    def test_two_sentences(self):
        assert [s.text for s in split_sentences("One. Two.")] == ["One.", "Two."]

    def test_abbreviation_suppresses_split(self):
        assert [s.text for s in split_sentences("The U.S. CDC sent a team.")] == [
            "The U.S. CDC sent a team."
        ]

    def test_citation_remnant_rides_left(self):
        got = [s.text for s in split_sentences("He died on 13 April.[35] The team left.")]
        assert got == ["He died on 13 April.[35]", "The team left."]

    def test_tokens_populated(self):
        [sentence] = split_sentences("He died.", source_revision=9)
        assert sentence.tokens == ["He", "died", "."]
        assert sentence.source_revision == 9

    @given(st.text(alphabet=string.printable, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_spans_lose_no_characters(self, text):
        line = text.replace("\n", " ")
        spans = _sentence_spans(line)
        assert "".join(line[a:b] for a, b in spans) == line


class TestTokenize:
    def test_numeral_with_comma_is_one_token(self):
        assert tokenize("more than 16,000 cases were being treated") == [
            "more", "than", "16,000", "cases", "were", "being", "treated",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_detached(self):
        assert tokenize("died.") == ["died", "."]
        assert tokenize("(45)") == ["(", "45", ")"]

    def test_hyphenated_word_intact(self):
        assert tokenize("mother-to-child transmission") == [
            "mother-to-child", "transmission",
        ]

    @given(st.text(alphabet=string.ascii_letters + string.digits + " ", max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_token_conservation_without_punctuation(self, text):
        joined = "".join(tokenize(text))
        assert joined == text.replace(" ", "")
