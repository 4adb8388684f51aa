"""Deterministic synthetic revision history of an outbreak article.

The history is a list of MediaWiki API revision records (``formatversion=2``
shape, content in ``slots.main``). Every revision either edits the case
table or edits the prose, on a fixed schedule set by ``table_share``; the
seed only picks contents (numbers, places, cell formatting), so sizes and
therefore the work a revision costs are nearly the same for every seed.

The case table is a multi-country table with a two-row header (``rowspan``
on the date column, ``colspan`` over each country's cases/deaths pair). It
grows by one dated row at a time; every row carries the exact values of the
ground truth, so each revision's interpolated series equals the truth on
the dates it covers. A cell is a bare number (``1234`` or ``1,234``) or, for
a ``markup_share`` of cells, a marked-up one (bold, trailing ref, style
prefix). Each table edit re-renders the share of visible cells that
``repeat_share`` does not carry over unchanged. The defaults (98% of cells
repeated per table edit, 5% marked up) are assumed, not measured from real
articles: they follow the observation that almost every cell of such a table
is a bare number repeated in every revision. One table edit swaps two
countries' columns and the next one reverts it.

Prose sentences are built as token lists and rendered with links, refs and
inline templates; ``History.authored`` holds the token tuple and plain text
of every sentence and heading the generator ever wrote, so a corpus built
from the history can be checked against it.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone

TITLE = "Synthetic outbreak"
COUNTRIES = ("Guinea", "Liberia", "Sierra Leone", "Nigeria", "Senegal", "Mali")
PLACES = (
    "Guinea", "Liberia", "Sierra Leone", "Nigeria", "Senegal", "Mali",
    "Conakry", "Monrovia", "Freetown", "Lagos", "Dakar", "Kenema", "Kailahun",
    "Gueckedou", "Lofa", "Bamako",
)
ORGS = ("the WHO", "the CDC", "UNICEF", "MSF", "the Red Cross", "the ministry")
MONTHS = ("March", "April", "May", "June", "July", "August", "September", "October")
SECTIONS = (
    "Background", "Epidemiology", "Spread", "Response", "Treatment", "Impact",
    "International response", "Research", "Prevention", "Timeline",
)

# Sentence templates: words, or slots filled per sentence. Every sentence
# starts with a capital or a digit and has no inner ". X", so the sentence
# splitter cuts exactly at the generator's boundaries.
_TEMPLATES = (
    ("On", "{date}", ",", "{org}", "reported", "{num}", "new cases in", "{place}", "."),
    ("By", "{date}", ",", "{place}", "had recorded", "{num}", "cases , including", "{num}", "deaths", "."),
    ("Officials in", "{place}", "confirmed", "{num}", "deaths on", "{date}", "."),
    ("{org_cap}", "sent", "{num}", "health workers to", "{place}", "in", "{month}", "."),
    ("Hospitals in", "{place}", "admitted", "{num}", "patients during", "{month}", "."),
    ("The outbreak in", "{place}", "caused", "{num}", "infections and", "{num}", "deaths", "."),
    ("Schools in", "{place}", "remained closed until", "{date}", "."),
    ("Contact tracing teams followed", "{num}", "people in", "{place}", "."),
    ("Border crossings between", "{place}", "and", "{place}", "were closed in", "{month}", "."),
    ("A treatment centre with", "{num}", "beds opened in", "{place}", "on", "{date}", "."),
    ("Health workers in", "{place}", "went on strike over unpaid wages", "."),
    ("Laboratory results from", "{place}", "confirmed the virus in", "{month}", "."),
)


# Cell renderings of ``_Writer._cell``: bare numbers, then marked-up ones.
_BARE = (0, 1)
_MARKED = (2, 3, 4)

_LEAD_TOKENS = ("The", "2014", "synthetic", "outbreak", "is", "an", "ongoing", "viral",
                "disease", "outbreak", "in", "West", "Africa", ".")


@dataclass(frozen=True)
class HistorySpec:
    """Knobs of one generated history."""

    revisions: int = 150
    final_kb: int = 120           # size of the final revision's wikitext
    table_share: float = 0.8      # share of edits that touch the table
    repeat_share: float = 0.98    # share of cells carried over unchanged per table edit
    markup_share: float = 0.05    # share of cell renderings that carry markup
    table_rows: int = 40          # dated rows in the final table


@dataclass
class History:
    spec: HistorySpec
    records: list[dict]
    truth_rows: list[tuple[str, str, str, int]]   # (date, country, metric, value)
    corrupted_revision: int
    swapped: tuple[str, str]
    authored: dict[tuple[str, ...], str] = field(default_factory=dict)

    def truth_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["date", "country", "metric", "value"])
        writer.writerows(self.truth_rows)
        return out.getvalue()


@dataclass
class _Sentence:
    tokens: tuple[str, ...]
    wikitext: str


def _plain(tokens) -> str:
    text = ""
    for tok in tokens:
        text += tok if (not text or tok in {",", "."}) else " " + tok
    return text


class _Writer:
    """Mutable article state plus the seeded random stream that edits it."""

    def __init__(self, spec: HistorySpec, seed: int):
        self.spec = spec
        self.rng = random.Random(seed)
        self.authored: dict[tuple[str, ...], str] = {}
        self.sections: list[tuple[str, list[list[_Sentence]]]] = []
        self.ref_counter = 0
        for fixed in (_LEAD_TOKENS, ("Case", "counts"), ("References",)):
            self.authored[fixed] = _plain(fixed)
        self._make_table()

    # -- table -------------------------------------------------------------

    def _make_table(self):
        rng, spec = self.rng, self.spec
        first_day = date(2014, 3, 22)
        gaps = (2, 3, 2, 4)
        self.dates = []
        day = first_day
        for i in range(spec.table_rows):
            self.dates.append(day)
            day += timedelta(days=gaps[i % len(gaps)])
        self.values = {}
        for c_idx, country in enumerate(COUNTRIES):
            cases = 10 * (c_idx + 1) + rng.randint(0, 9)
            deaths = rng.randint(1, 5)
            for d in self.dates:
                self.values[(d, country)] = (cases, deaths)
                cases += rng.randint(5, 400)
                deaths += rng.randint(1, 60)
        self.visible_rows = 3
        self.date_style = {d: rng.randrange(3) for d in self.dates}
        self.cell_style = {
            (d, country, m): self._pick_style()
            for d in self.dates for country in COUNTRIES for m in (0, 1)
        }

    def _pick_style(self, old: int | None = None) -> int:
        pool = _MARKED if self.rng.random() < self.spec.markup_share else _BARE
        return self.rng.choice([style for style in pool if style != old])

    def restyle_cells(self):
        rng = self.rng
        for key in self.cell_style:
            if key[0] <= self.dates[self.visible_rows - 1] and rng.random() >= self.spec.repeat_share:
                self.cell_style[key] = self._pick_style(self.cell_style[key])

    def _cell(self, value: int, style: int, key) -> str:
        text = f"{value:,}"
        if style == 0:
            return str(value)
        if style == 1:
            return text
        if style == 2:
            return f"'''{text}'''"
        if style == 3:
            return f'{text}<ref name="sitrep{key}" />'
        return f'style="background:#fee;" | {text}'

    def _date_cell(self, d: date) -> str:
        style = self.date_style[d]
        if style == 0:
            return f"{d.day} {d:%B %Y}"
        if style == 1:
            return d.isoformat()
        return f"{d:%B} {d.day}, {d.year}"

    def table(self, swap: tuple[str, str] | None = None) -> str:
        lines = [
            '{| class="wikitable sortable" style="text-align:right"',
            "|+ Cumulative cases and deaths by country",
            '! rowspan="2" | Date',
        ]
        lines += [f'! colspan="2" | [[{country}]]' for country in COUNTRIES]
        lines.append("|-")
        lines.append("! " + " !! ".join(["Cases", "Deaths"] * len(COUNTRIES)))
        column = {c: c for c in COUNTRIES}
        if swap is not None:
            column[swap[0]], column[swap[1]] = swap[1], swap[0]
        for r, d in enumerate(self.dates[:self.visible_rows]):
            cells = [self._date_cell(d)]
            for country in COUNTRIES:
                pair = self.values[(d, column[country])]
                for m in (0, 1):
                    style = self.cell_style[(d, country, m)]
                    cells.append(self._cell(pair[m], style, r % 7))
            lines.append("|-")
            lines.append("| " + " || ".join(cells))
        lines.append("|}")
        return "\n".join(lines)

    # -- prose -------------------------------------------------------------

    def sentence(self) -> _Sentence:
        rng = self.rng
        template = rng.choice(_TEMPLATES)
        tokens: list[str] = []
        wiki: list[str] = []
        for part in template:
            if part == "{num}":
                value = rng.randint(2, 900) if rng.random() < 0.7 else rng.randint(1000, 60000)
                words = [f"{value:,}"]
                marked = words
            elif part == "{date}":
                words = [str(rng.randint(1, 28)), rng.choice(MONTHS), "2014"]
                marked = words
            elif part == "{month}":
                words = [rng.choice(MONTHS)]
                marked = words
            elif part == "{place}":
                place = rng.choice(PLACES)
                words = place.split()
                marked = [f"[[{place}]]" if rng.random() < 0.5 else f"[[{place} (region)|{place}]]"]
            elif part in ("{org}", "{org_cap}"):
                org = rng.choice(ORGS)
                words = org.split()
                if part == "{org_cap}":
                    words[0] = words[0][0].upper() + words[0][1:]
                marked = list(words)
                if len(words) > 1 and rng.random() < 0.5:
                    marked = [words[0], f"[[{' '.join(words[1:])}]]"]
            else:
                words = part.split()
                marked = words
            tokens.extend(words)
            wiki.extend(marked)
        text = _plain(wiki)
        tail = ""
        roll = rng.random()
        if roll < 0.45:
            self.ref_counter += 1
            tail = (f'<ref name="r{self.ref_counter}">{{{{cite web |url=https://example.org/'
                    f'sitrep/{self.ref_counter} |title=Situation report {self.ref_counter} '
                    f'|publisher=WHO |date=2014}}}}</ref>')
        elif roll < 0.6:
            tail = "{{citation needed|date=August 2014}}"
        elif roll < 0.7:
            tail = f'<ref name="r{max(1, self.ref_counter)}" />'
        sent = _Sentence(tuple(tokens), text + tail)
        self.authored[sent.tokens] = _plain(tokens)
        return sent

    def near_duplicate(self) -> _Sentence | None:
        """An existing sentence with one number changed, re-added elsewhere."""
        pool = [s for _, paras in self.sections for para in paras for s in para]
        source = self.rng.choice(pool)
        picks = [i for i, t in enumerate(source.tokens)
                 if t[0].isdigit() and source.wikitext.count(f" {t} ") == 1]
        if not picks:
            return None
        pick = self.rng.choice(picks)
        old = source.tokens[pick]
        new = f"{int(old.replace(',', '')) + self.rng.randint(1, 40):,}"
        tokens = source.tokens[:pick] + (new,) + source.tokens[pick + 1:]
        self.authored[tokens] = _plain(tokens)
        return _Sentence(tokens, source.wikitext.replace(f" {old} ", f" {new} "))

    def add_section(self):
        name = SECTIONS[len(self.sections) % len(SECTIONS)]
        if len(self.sections) >= len(SECTIONS):
            name = f"{name} {len(self.sections) // len(SECTIONS) + 1}"
        self.authored[tuple(name.split())] = name
        self.sections.append((name, [[self.sentence(), self.sentence()]]))

    def prose_edit(self, size: int, target_size: int):
        """One kind of prose edit, repeated until the article reaches the target size."""
        rng = self.rng
        grew = False
        while not grew or size < target_size:
            grew = True
            roll = rng.random()
            _, paras = self.sections[rng.randrange(len(self.sections))]
            if roll < 0.1:
                self.add_section()
                size += sum(len(s.wikitext) for s in self.sections[-1][1][0]) + 40
                continue
            if roll < 0.5:
                sent = self.near_duplicate() or self.sentence()
            else:
                sent = self.sentence()
            if roll < 0.35 or len(paras[-1]) >= 5:
                paras.append([sent])
                size += 2
            else:
                paras[-1].append(sent)
            size += len(sent.wikitext) + 1

    def render(self, swap: tuple[str, str] | None = None) -> str:
        parts = [
            "{{Infobox outbreak\n| name = Synthetic viral outbreak\n| dates = March 2014 – present\n"
            "| image = Outbreak map.png\n}}",
            "'''The 2014 synthetic outbreak''' is an ongoing [[viral disease]] outbreak "
            "in [[West Africa]].<ref name=\"lead\">WHO situation report</ref>",
        ]
        for idx, (name, paras) in enumerate(self.sections):
            parts.append(f"== {name} ==")
            if idx == 1:
                parts.append("{{Main|Synthetic outbreak timeline}}")
                parts.append("=== Case counts ===")
                parts.append(self.table(swap))
            for para in paras:
                parts.append(" ".join(s.wikitext for s in para))
        parts.append("== References ==\n{{reflist}}\n\n[[Category:2014 disease outbreaks]]")
        return "\n\n".join(parts) + "\n"


def _schedule(count: int, share: float) -> list[bool]:
    """Evenly spread booleans: True for ``round(share * count)`` of them."""
    return [int((i + 1) * share) > int(i * share) for i in range(count)]


def generate_history(spec: HistorySpec, seed: int) -> History:
    """The revision records, ground truth and authored sentences for a seed."""
    writer = _Writer(spec, seed)
    rng = writer.rng
    writer.add_section()
    writer.add_section()

    touches_table = _schedule(spec.revisions - 1, spec.table_share)
    table_edits = [i for i, t in enumerate(touches_table) if t]
    if len(table_edits) < 3:
        raise ValueError("too few table edits for a corruption and its revert")
    # Rows still to add are spread over the table edits; the corruption sits
    # at the table edit ~60% of the way through and is reverted by the next.
    adds = _schedule(len(table_edits), min(1.0, (spec.table_rows - writer.visible_rows)
                                           / len(table_edits)))
    corrupt_at = table_edits[(len(table_edits) * 3) // 5]
    swapped = tuple(sorted(rng.sample(COUNTRIES, 2)))

    start_size = max(2000, spec.final_kb * 1024 // 6)
    writer.prose_edit(0, start_size)
    texts = [writer.render()]
    comments = ["create article with first counts"]
    corrupted_index = -1
    for step, is_table in enumerate(touches_table):
        target = start_size + (spec.final_kb * 1024 - start_size) * (step + 1) // len(touches_table)
        swap = None
        if is_table:
            edit_no = table_edits.index(step)
            if adds[edit_no] and writer.visible_rows < spec.table_rows:
                writer.visible_rows += 1
                comments.append("update table")
            else:
                comments.append("reformat table cells")
            writer.restyle_cells()
            if step == corrupt_at:
                swap = swapped
                corrupted_index = len(texts)
                comments[-1] = "update numbers"
        else:
            writer.prose_edit(len(texts[-1]), target)
            comments.append("expand prose")
        if corrupted_index == len(texts) - 1:
            comments[-1] = "correct numbers in wrong country columns"
        texts.append(writer.render(swap))

    base = datetime(2014, 3, 23, tzinfo=timezone.utc)
    records = []
    for i, (text, comment) in enumerate(zip(texts, comments)):
        stamp = base + timedelta(hours=7 * i, minutes=(i * 13) % 60)
        records.append({
            "revid": 5000 + i,
            "parentid": 5000 + i - 1 if i else 0,
            "timestamp": stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
            "user": f"Editor{rng.randrange(40)}",
            "comment": comment,
            "slots": {"main": {
                "contentmodel": "wikitext",
                "contentformat": "text/x-wiki",
                "content": text,
            }},
        })

    truth_rows = []
    for country in COUNTRIES:
        for m, metric in enumerate(("cases", "deaths")):
            for d in writer.dates:
                truth_rows.append((d.isoformat(), country, metric,
                                   writer.values[(d, country)][m]))
    return History(
        spec=spec,
        records=records,
        truth_rows=truth_rows,
        corrupted_revision=records[corrupted_index]["revid"],
        swapped=swapped,
        authored=writer.authored,
    )
