import io
import operator
import string
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outbreakminer import corpus as corpus_module
from outbreakminer import wikitext as wikitext_module
from outbreakminer.corpus import (
    LABELS,
    AgreementTable,
    LabeledToken,
    build_corpus,
    cohen_kappa,
    dedup_sentences,
    iob_follows,
    line_diff,
    pos_tag,
    read_iob_tsv,
    trigram_jaccard,
    write_iob_tsv,
)
from outbreakminer.errors import CorpusFormatError
from outbreakminer.ingest import ArticleRevision
from outbreakminer.wikitext import split_sentences, strip_markup


def _lcs_length(a, b):
    """Quadratic DP oracle for the LCS length."""
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            curr.append(prev[j - 1] + 1 if x == y else max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


def _pairwise_line_diff(old_text, new_text):
    """Reference line diff: lists every matched (i, j) pair of the same
    Myers recursion, then takes each side's complement."""
    a_lines = old_text.splitlines()
    b_lines = new_text.splitlines()
    ids = {}
    a = [ids.setdefault(line, len(ids)) for line in a_lines]
    b = [ids.setdefault(line, len(ids)) for line in b_lines]

    def match_pairs(a0, a1, b0, b1, out):
        while a0 < a1 and b0 < b1 and a[a0] == b[b0]:
            out.append((a0, b0))
            a0 += 1
            b0 += 1
        tail = []
        while a1 > a0 and b1 > b0 and a[a1 - 1] == b[b1 - 1]:
            a1 -= 1
            b1 -= 1
            tail.append((a1, b1))
        if a1 > a0 and b1 > b0:
            x, y, u, v = corpus_module._middle_snake(a[a0:a1], b[b0:b1])
            match_pairs(a0, a0 + x, b0, b0 + y, out)
            out.extend((a0 + x + i, b0 + y + i) for i in range(u - x))
            match_pairs(a0 + u, a1, b0 + v, b1, out)
        out.extend(reversed(tail))

    matches = []
    match_pairs(0, len(a), 0, len(b), matches)
    matched_a = {i for i, _ in matches}
    matched_b = {j for _, j in matches}
    return (
        [line for j, line in enumerate(b_lines) if j not in matched_b],
        [line for i, line in enumerate(a_lines) if i not in matched_a],
    )


EDIT_LINE = st.sampled_from(["", "", "alpha", "beta", "gamma", "The outbreak began.",
                             "45 new cases.", "  indented"])


@st.composite
def edit_histories(draw, line=EDIT_LINE, max_lines=12):
    """Successive versions of a list of lines, each one to four edits after
    the last: insert, delete, move or duplicate a line."""
    lines = draw(st.lists(line, max_size=max_lines))
    history = [lines]
    for _ in range(draw(st.integers(1, 5))):
        lines = list(lines)
        for _ in range(draw(st.integers(1, 4))):
            op = draw(st.sampled_from(["insert", "delete", "move", "duplicate"]))
            if op == "insert" or not lines:
                lines.insert(draw(st.integers(0, len(lines))), draw(line))
                continue
            i = draw(st.integers(0, len(lines) - 1))
            if op == "delete":
                del lines[i]
            elif op == "move":
                moved = lines.pop(i)
                lines.insert(draw(st.integers(0, len(lines))), moved)
            else:
                lines.insert(draw(st.integers(0, len(lines))), lines[i])
        history.append(lines)
    return history


class TestLineDiff:
    def test_identical(self):
        result = line_diff("a\nb\nc", "a\nb\nc")
        assert result.added_lines == [] and result.deleted_lines == []

    def test_insertion(self):
        # LCS by hand: a and b match; x is the only unmatched new line.
        result = line_diff("a\nb", "a\nx\nb")
        assert result.added_lines == ["x"]
        assert result.deleted_lines == []

    def test_modified_line_in_both_lists(self):
        result = line_diff("There are 45 new cases.", "There are 56 new cases.")
        assert result.added_lines == ["There are 56 new cases."]
        assert result.deleted_lines == ["There are 45 new cases."]

    @given(
        st.lists(st.integers(0, 3), max_size=14),
        st.lists(st.integers(0, 3), max_size=14),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dp_lcs_oracle(self, a_vals, b_vals):
        a = [str(v) for v in a_vals]
        b = [str(v) for v in b_vals]
        result = line_diff("\n".join(a), "\n".join(b))
        lcs = _lcs_length(a, b)
        assert len(result.deleted_lines) == len(a) - lcs
        assert len(result.added_lines) == len(b) - lcs
        # Added lines are a subsequence of the new text, in order.
        it = iter(b)
        assert all(any(line == x for x in it) for line in result.added_lines)

    @given(edit_histories())
    @settings(max_examples=500, deadline=None)
    def test_matches_pairwise_reference(self, history):
        texts = ["\n".join(lines) for lines in history]
        for old_text, new_text in zip(texts, texts[1:]):
            result = line_diff(old_text, new_text)
            assert (result.added_lines, result.deleted_lines) == \
                _pairwise_line_diff(old_text, new_text)


class TestTrigramJaccard:
    def test_identical_nonempty(self):
        assert trigram_jaccard("ebola", "ebola") == 1.0

    def test_hand_enumerated_sets(self):
        # A = {aaa}; B = {aaa, aab}; intersection 1, union 2.
        assert trigram_jaccard("aaaa", "aaab") == 0.5

    def test_disjoint(self):
        assert trigram_jaccard("abcde", "vwxyz") == 0.0

    def test_both_degenerate(self):
        assert trigram_jaccard("ab", "z") == 1.0  # both trigram sets empty
        assert trigram_jaccard("abcd", "z") == 0.0  # exactly one empty

    def test_case_folded(self):
        assert trigram_jaccard("Ebola Virus", "ebola virus") == 1.0

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        sim = trigram_jaccard(a, b)
        assert 0.0 <= sim <= 1.0
        assert sim == trigram_jaccard(b, a)

    @given(st.text(min_size=3, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_reflexive(self, a):
        assert trigram_jaccard(a, a) == 1.0


DEDUP_SENTENCE = st.lists(
    st.sampled_from(["cases", "deaths", "new", "the", "in", "Guinea", "were",
                     "reported", "12", "1,200", "a", "of"]),
    min_size=1, max_size=20,
).map(" ".join)
DEDUP_SUFFIXES = ["", "s", "!", " new", " 12 deaths"]


class TestDedup:
    def test_near_duplicate_dropped_at_default_threshold(self):
        # J(abcdef, abcdef!) = 4/5 = 0.8 > 0.75 -> second dropped.
        assert dedup_sentences(["abcdef", "abcdef!", "zzzzzz"], 0.75) == [
            "abcdef", "zzzzzz",
        ]

    def test_all_identical(self):
        assert dedup_sentences(["same thing"] * 5, 0.75) == ["same thing"]

    def test_pairwise_dissimilar_unchanged(self):
        items = ["alpha bravo", "charlie delta", "echo foxtrot"]
        assert dedup_sentences(items, 0.75) == items

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            dedup_sentences(["x"], 1.5)

    @given(st.lists(st.text(max_size=25), max_size=20), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_postcondition(self, items, threshold):
        retained = dedup_sentences(items, threshold)
        for i, a in enumerate(retained):
            for b in retained[:i]:
                assert trigram_jaccard(a, b) <= threshold
        dropped = list(items)
        for kept in retained:
            dropped.remove(kept)
        for item in dropped:
            assert any(trigram_jaccard(item, kept) > threshold for kept in retained)

    @given(st.data(), st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.7, 0.75, 1.0]),
                                st.floats(0.0, 1.0)),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_greedy_reference(self, data, threshold, keyed):
        # Word-built sentences give long prefixes, strings under 3 characters
        # give empty trigram sets, suffixed copies give near-duplicates, and
        # the empty suffix gives exact repeats.
        bases = data.draw(st.lists(st.one_of(DEDUP_SENTENCE, st.text("aB ", max_size=2)),
                                   min_size=1, max_size=6))
        texts = data.draw(st.lists(
            st.builds(operator.add, st.sampled_from(bases), st.sampled_from(DEDUP_SUFFIXES)),
            max_size=25))
        expected = []
        for i, text in enumerate(texts):
            if all(trigram_jaccard(text, texts[k]) <= threshold for k in expected):
                expected.append(i)
        if keyed:
            items = list(enumerate(texts))
            got = [i for i, _ in dedup_sentences(items, threshold, key=operator.itemgetter(1))]
        else:
            got = dedup_sentences(texts, threshold)
            expected = [texts[i] for i in expected]
        assert got == expected

    def test_exact_repeats_not_compared(self, monkeypatch):
        calls = []
        real = corpus_module._jaccard
        monkeypatch.setattr(corpus_module, "_jaccard", lambda *args: calls.append(1) or real(*args))
        texts = ["alpha bravo charlie", "alpha bravo charlies"] * 50
        assert dedup_sentences(texts, 0.75) == ["alpha bravo charlie"]
        assert len(calls) == 1
        assert dedup_sentences(texts, 1.0) == texts


class TestPosTag:
    def test_numeral(self):
        assert pos_tag(["16,000"]) == ["NUM"]

    def test_punct(self):
        assert pos_tag(["."]) == ["PUNCT"]

    def test_lexicon_and_suffix(self):
        assert pos_tag(["cases", "were", "treated"]) == ["NOUN", "VERB", "VERB"]

    def test_spelled_number(self):
        assert pos_tag(["sixty-five"]) == ["NUM"]

    def test_unknown_is_other(self):
        assert pos_tag(["ebola"]) == ["OTHER"]


VALID_TOKEN = st.text(
    alphabet=string.ascii_letters + string.digits + ",.-", min_size=1, max_size=8
)


@st.composite
def labeled_sentences(draw):
    n_sent = draw(st.integers(1, 4))
    sentences = []
    for _ in range(n_sent):
        n_tok = draw(st.integers(1, 6))
        tokens = []
        prev = "O"
        for _ in range(n_tok):
            choices = ["O", "B-DEATHS", "B-INFECTIONS", "B-HOSPITALIZATIONS"]
            if prev != "O":
                choices.append("I-" + prev.split("-", 1)[1])
            label = draw(st.sampled_from(choices))
            tokens.append(LabeledToken(draw(VALID_TOKEN), draw(st.sampled_from(["NOUN", "VERB", "NUM"])), label))
            prev = label
        sentences.append(tokens)
    return sentences


class TestIobFollows:
    def test_truth_table(self):
        starts = (None, *LABELS)
        allowed = {label: {prev for prev in starts if iob_follows(prev, label)}
                   for label in LABELS}
        assert allowed == {
            "O": set(starts),
            "B-DEATHS": set(starts),
            "B-HOSPITALIZATIONS": set(starts),
            "B-INFECTIONS": set(starts),
            "I-DEATHS": {"B-DEATHS", "I-DEATHS"},
            "I-HOSPITALIZATIONS": {"B-HOSPITALIZATIONS", "I-HOSPITALIZATIONS"},
            "I-INFECTIONS": {"B-INFECTIONS", "I-INFECTIONS"},
        }

    @pytest.mark.parametrize("prev, label, follows", [
        ("B-", "I-", True),
        ("I-", "I-", True),
        (None, "I-", False),
        ("B-FOO", "I-FOO", True),
        ("I-DEATHS", "I-FOO", False),
        ("B-DEATHS", "I-DEATHSX", False),
        ("DEATHS", "I-DEATHS", False),
        (None, "X", True),
        ("I-DEATHS", "", True),
    ])
    def test_labels_outside_the_closed_set(self, prev, label, follows):
        assert iob_follows(prev, label) is follows


class TestIobTsv:
    def test_single_token_file_content(self, tmp_path):
        path = tmp_path / "one.tsv"
        write_iob_tsv([[LabeledToken("died", "VERB", "B-DEATHS")]], path)
        assert path.read_bytes() == b"died\tVERB\tB-DEATHS\n"

    def test_round_trip_two_sentences(self, tmp_path):
        corpus = [
            [LabeledToken("45", "NUM", "B-INFECTIONS"), LabeledToken("cases", "NOUN", "I-INFECTIONS")],
            [LabeledToken("calm", "OTHER", "O")],
        ]
        path = tmp_path / "two.tsv"
        write_iob_tsv(corpus, path)
        assert read_iob_tsv(path) == corpus

    def test_unknown_label_names_line(self):
        buf = io.StringIO("x\tNOUN\tB-CASES\n")
        with pytest.raises(CorpusFormatError) as err:
            read_iob_tsv(buf)
        assert str(err.value) == "line 1: unknown label 'B-CASES'"

    def test_wrong_column_count(self):
        with pytest.raises(CorpusFormatError) as err:
            read_iob_tsv(io.StringIO("a\tNOUN\n"))
        assert str(err.value) == "line 1: expected 3 tab-separated fields, got 2"

    def test_dangling_inside_strict(self):
        with pytest.raises(CorpusFormatError):
            read_iob_tsv(io.StringIO("x\tNOUN\tI-DEATHS\n"), strict=True)

    def test_dangling_inside_lenient_repairs(self):
        [sentence] = read_iob_tsv(io.StringIO("x\tNOUN\tI-DEATHS\n"), strict=False)
        assert sentence[0].label == "B-DEATHS"

    def test_type_switch_is_dangling(self):
        text = "a\tNUM\tB-DEATHS\nb\tNOUN\tI-INFECTIONS\n"
        with pytest.raises(CorpusFormatError):
            read_iob_tsv(io.StringIO(text), strict=True)

    def test_dangling_message_and_repair_warning(self, caplog):
        text = "a\tNUM\tB-DEATHS\nb\tNOUN\tI-INFECTIONS\n"
        with pytest.raises(CorpusFormatError) as err:
            read_iob_tsv(io.StringIO(text), strict=True)
        assert str(err.value) == "line 2: I-INFECTIONS not preceded by B-INFECTIONS/I-INFECTIONS"
        [sentence] = read_iob_tsv(io.StringIO(text), strict=False)
        assert [tok.label for tok in sentence] == ["B-DEATHS", "B-INFECTIONS"]
        assert caplog.messages == ["line 2: repairing dangling I-INFECTIONS to B-INFECTIONS"]

    @given(labeled_sentences())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_identity(self, corpus):
        buf = io.StringIO()
        write_iob_tsv(corpus, buf)
        buf.seek(0)
        assert read_iob_tsv(buf) == corpus


class TestCohenKappa:
    def test_perfect_agreement(self):
        table = AgreementTable(labels=("O", "X"), counts=((7, 0), (0, 3)))
        assert cohen_kappa(table) == 1.0

    def test_binary_example(self):
        # p_o = 9/10, p_e = 0.6*0.5 + 0.4*0.5 = 0.5, kappa = 0.4/0.5 = 0.8.
        table = AgreementTable(labels=("O", "X"), counts=((5, 1), (0, 4)))
        assert cohen_kappa(table) == pytest.approx(0.8, abs=1e-12)

    def test_chance_level_is_zero(self):
        # Independent marginals: p_o = 0.5 = p_e -> kappa 0.
        table = AgreementTable(labels=("O", "X"), counts=((25, 25), (25, 25)))
        assert cohen_kappa(table) == pytest.approx(0.0, abs=1e-12)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            cohen_kappa(AgreementTable(labels=("O",), counts=((0,),)))

    def test_kappa_one_iff_diagonal(self):
        diag = AgreementTable(labels=("a", "b"), counts=((2, 0), (0, 5)))
        assert cohen_kappa(diag) == 1.0
        off = AgreementTable(labels=("a", "b"), counts=((2, 1), (0, 5)))
        assert cohen_kappa(off) < 1.0

    @given(
        st.lists(
            st.lists(st.integers(0, 9), min_size=3, max_size=3),
            min_size=3, max_size=3,
        ),
        st.permutations([0, 1, 2]),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_relabeling(self, counts, perm):
        n = sum(sum(row) for row in counts)
        if n == 0:
            return
        table = AgreementTable(labels=("a", "b", "c"), counts=tuple(map(tuple, counts)))
        permuted = tuple(
            tuple(counts[perm[i]][perm[j]] for j in range(3)) for i in range(3)
        )
        table_p = AgreementTable(labels=("a", "b", "c"), counts=permuted)
        if sum(counts[i][i] for i in range(3)) == n:
            assert cohen_kappa(table) == cohen_kappa(table_p) == 1.0
        else:
            assert cohen_kappa(table) == pytest.approx(cohen_kappa(table_p), abs=1e-12)

    def test_from_annotations(self):
        table = AgreementTable.from_annotations(["O", "O", "X"], ["O", "X", "X"])
        assert table.n == 3
        assert table.counts[0][0] == 1  # both O
        assert table.counts[1][1] == 1  # both X


def _rev(revid, text, ts="2014-07-01T10:00:00Z"):
    return ArticleRevision(
        revision_id=revid,
        parent_id=revid - 1 if revid > 1 else None,
        timestamp=datetime.strptime(ts, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc),
        editor="tester",
        comment="",
        wikitext=text,
    )


PARAGRAPH = st.sampled_from([
    "",
    "Background prose.",
    "The outbreak began in [[Guinea|southern Guinea]] in March.<ref>WHO</ref>",
    "The health ministry reported 45 new cases in the Kenema district.",
    "The health ministry reported 56 new cases in the Kenema district.",
    "== Response ==\nOfficials sent a team. The team arrived quickly.",
    "* '''May''': 12 deaths were reported.\n* June: more cases.\nBackground prose.",
    '{| class="wikitable"\n|-\n| Guinea || 12\n|}\nAfter the table.',
])


@st.composite
def revision_histories(draw):
    """Revisions whose paragraphs are inserted, deleted, moved and repeated,
    with blanked revisions and reverts to earlier texts between them."""
    texts = []
    for paragraphs in draw(edit_histories(PARAGRAPH, max_lines=6)):
        event = draw(st.sampled_from(["none", "none", "blank", "revert"]))
        if event == "blank":
            texts.append("")
        elif event == "revert" and texts:
            texts.append(draw(st.sampled_from(texts)))
        texts.append("\n\n".join(paragraphs))
    return [_rev(revid, text) for revid, text in enumerate(texts, start=1)]


def _pairwise_corpus(revisions, threshold):
    """Reference corpus: the per-pair pipeline, with each revision stripped
    without a memo, each pair diffed by the reference line diff and each
    sentence tagged by pos_tag."""
    sentences = []
    prev_plain = None
    for rev in revisions:
        if not rev.wikitext:
            continue
        plain = strip_markup(rev.wikitext, remove_tables=True)
        if prev_plain is not None:
            for line in _pairwise_line_diff(prev_plain, plain)[0]:
                sentences.extend(split_sentences(line, source_revision=rev.revision_id))
        prev_plain = plain
    kept = dedup_sentences(sentences, threshold, key=lambda s: s.text)
    return [[LabeledToken(tok, tag, "O") for tok, tag in zip(sent.tokens, pos_tag(sent.tokens))]
            for sent in kept]


class TestBuildCorpus:
    @given(revision_histories(), st.sampled_from([0.0, 0.5, 0.75, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_pipeline(self, revisions, threshold):
        assert build_corpus(revisions, threshold) == _pairwise_corpus(revisions, threshold)

    def test_identical_revisions_empty(self):
        text = "Some prose here. More prose."
        assert build_corpus([_rev(1, text), _rev(2, text)]) == []

    def test_added_paragraph_sentences(self):
        base = "== Lead ==\nThe outbreak began in March."
        added = base + "\n\nOfficials sent a team. The team arrived quickly."
        corpus = build_corpus([_rev(1, base), _rev(2, added), _rev(3, added)])
        texts = [" ".join(tok.token for tok in sent) for sent in corpus]
        assert texts == [
            "Officials sent a team .",
            "The team arrived quickly .",
        ]
        assert all(tok.label == "O" for sent in corpus for tok in sent)
        assert all(tok.pos for sent in corpus for tok in sent)

    def test_number_edit_keeps_one_variant(self):
        # Hand enumeration: the variant pair differs only in the digits "45"
        # vs "56"; 4 trigrams on each side span the changed characters, so
        # J = 55/63 = 0.873 > 0.75 and the later variant is dropped.
        s45 = "The health ministry reported 45 new cases in the Kenema district."
        s56 = s45.replace("45", "56")
        assert trigram_jaccard(s45, s56) == pytest.approx(55 / 63)
        base = "Background prose."
        corpus = build_corpus([
            _rev(1, base),
            _rev(2, base + "\n" + s45),
            _rev(3, base + "\n" + s56),
        ])
        texts = [" ".join(tok.token for tok in sent) for sent in corpus]
        assert len([t for t in texts if "new cases in the Kenema" in t.replace(" ,", ",")]) == 1
        assert any("45" in t for t in texts)
        assert not any("56" in t for t in texts)

    def test_blanked_revision_skipped(self):
        base = "Alpha prose line."
        corpus = build_corpus([_rev(1, base), _rev(2, ""), _rev(3, base)])
        assert corpus == []

    @pytest.mark.parametrize("threshold", [1.5, -0.1, float("nan")])
    def test_bad_threshold_rejected_before_stripping(self, monkeypatch, threshold):
        calls = []
        monkeypatch.setattr(wikitext_module, "strip_markup", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
            build_corpus([_rev(1, "One."), _rev(2, "One. Two.")], threshold)
        assert calls == []

    def test_fixture_corpus(self, fixture_revisions):
        corpus = build_corpus(fixture_revisions, 0.75)
        texts = [" ".join(tok.token for tok in sent) for sent in corpus]
        # The 45-variant survives; its 56 edit and the repeated WHO sentence
        # are near-duplicates and drop out.
        assert sum("new cases in Guinea" in t for t in texts) == 1
        assert any("45" in t for t in texts) and not any("56" in t for t in texts)
        assert len(corpus) == 8
