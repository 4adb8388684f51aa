"""Per-country case/death time series from parsed tables, scored by RMSE.

Extraction maps table headers to (country, metric) columns, interpolation
fills gaps to daily granularity, consecutive duplicate revision sets are
dropped, and each surviving revision's series is compared against ground
truth on the dates both cover.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass, field
from datetime import date, datetime

from .errors import AlignmentError, GroundTruthError
from .textio import open_text
from .wikitext import RawTable

logger = logging.getLogger(__name__)

METRICS = ("cases", "deaths")

# Default analysis window start: table data before this date are too
# sparse to score against daily ground truth.
DEFAULT_WINDOW_START = date(2014, 6, 30)

# Longer date gaps stay unfilled: one far-off row date (a typo or vandalism)
# would otherwise fill hundreds of thousands of days per series.
MAX_FILL_GAP_DAYS = 366


@dataclass
class TimeSeries:
    """Date-indexed non-negative values for one (country, metric) pair."""

    country: str
    metric: str
    points: dict[date, float] = field(default_factory=dict)
    interpolated_dates: set[date] = field(default_factory=set)


@dataclass
class RevisionSeries:
    """All series extracted from one article revision."""

    revision_id: int
    timestamp: datetime | None
    series: list[TimeSeries]


@dataclass(frozen=True)
class AlignedPair:
    dates: list[date]
    y_hat: list[float]
    y: list[float]

    @property
    def n(self) -> int:
        return len(self.dates)


@dataclass
class RmseReport:
    """Per-revision RMSE and per-(country, metric) means."""

    per_revision: dict[tuple[int, str, str], float]
    mean_per_country: dict[tuple[str, str], float]
    gaps: list[tuple[str, str]]
    revisions: list[tuple[int, str]]  # (revision_id, ISO timestamp or "")

    def to_dict(self) -> dict:
        return {
            "kind": "rmse_report",
            "per_revision": [
                {
                    "revision_id": rev,
                    "country": country,
                    "metric": metric,
                    "rmse": value,
                }
                for (rev, country, metric), value in sorted(self.per_revision.items())
            ],
            "mean_per_country": [
                {"country": country, "metric": metric, "mean_rmse": value}
                for (country, metric), value in sorted(self.mean_per_country.items())
            ],
            "gaps": [
                {"country": country, "metric": metric} for country, metric in self.gaps
            ],
            "revisions": [
                {"revision_id": rev, "timestamp": ts} for rev, ts in self.revisions
            ],
        }


# ---------------------------------------------------------------------------
# header matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnMapping:
    """How table headers map to the date column and (country, metric) columns."""

    # Compared against the header cell's alphabetic words, lowercased and
    # space-joined, so "Date(s)" normalizes to "date s".
    date_headers: tuple[str, ...] = (
        "date", "dates", "date s", "as of", "report date",
    )
    metric_words: tuple[tuple[str, str], ...] = (
        ("cases", "cases"), ("case", "cases"), ("infections", "cases"),
        ("deaths", "deaths"), ("death", "deaths"), ("dead", "deaths"),
        ("fatalities", "deaths"),
    )
    filler_words: tuple[str, ...] = (
        "total", "confirmed", "suspected", "probable", "reported", "and",
        "in", "of", "the", "by", "new", "cumulative", "no", "number",
    )

    def classify_header(self, cell: str) -> tuple[str, str] | None:
        """(country, metric) for a data column, ("", "date") for the date
        column, or None when the header is not recognized."""
        words = re.findall(r"[a-z]+", cell.lower())
        if " ".join(words) in self.date_headers:
            return ("", "date")
        metric = None
        rest = []
        metric_map = dict(self.metric_words)
        for word in words:
            if word in metric_map and metric is None:
                metric = metric_map[word]
            elif word not in self.filler_words:
                rest.append(word)
        if metric is None:
            return None
        country = " ".join(part.capitalize() for part in rest) if rest else "Total"
        return (country, metric)


DEFAULT_MAPPING = ColumnMapping()

_THOUSANDS_VALUE = re.compile(r"^\d{1,3}(?:,\d{3})*(?:\.\d+)?$|^\d+(?:\.\d+)?$")

_DATE_FORMATS = (
    "%Y-%m-%d", "%d %B %Y", "%d %b %Y", "%B %d, %Y", "%b %d, %Y",
    "%d/%m/%Y", "%Y/%m/%d",
)


def parse_table_date(text: str) -> date | None:
    cleaned = " ".join(text.replace(",", ", ").split()).strip()
    cleaned = cleaned.replace(" ,", ",")
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(cleaned, fmt).date()
        except ValueError:
            continue
    return None


def parse_count(text: str) -> float | None:
    cleaned = text.strip()
    if not cleaned or cleaned in {"-", "—", "–", "n/a", "N/A", "?"}:
        return None
    if not _THOUSANDS_VALUE.match(cleaned):
        return None
    return float(cleaned.replace(",", ""))


def _merge_two_row_header(table: RawTable, mapping: ColumnMapping) -> tuple[list[str], list[list[str]]]:
    """Fold a country-over-metric two-row header into single cells.

    When every non-date cell of the first data row is just a metric word,
    that row is a sub-header: combine it with the header row.
    """
    header, rows = table.header, table.rows
    if not rows:
        return header, rows
    metric_map = dict(mapping.metric_words)
    candidate = rows[0]
    merged = []
    is_subheader = False
    for head, sub in zip(header, candidate):
        sub_words = re.findall(r"[a-z]+", sub.lower())
        head_class = mapping.classify_header(head)
        if head_class == ("", "date") or not sub_words:
            merged.append(head)
            continue
        if all(w in metric_map or w in mapping.filler_words for w in sub_words):
            merged.append(f"{head} {sub}")
            is_subheader = True
        else:
            return header, rows
    if is_subheader:
        return merged, rows[1:]
    return header, rows


def _column_plan(table: RawTable, mapping: ColumnMapping):
    """(data rows to skip, date column, [(column, country, metric)]) for a
    table whose header matches the mapping, else None.

    It reads only the header and the first row, through the two-row-header
    merge and ``classify_header``.
    """
    header, rows = _merge_two_row_header(table, mapping)
    date_col = None
    series_cols: list[tuple[int, str, str]] = []
    for idx, cell in enumerate(header):
        kind = mapping.classify_header(cell)
        if kind is None:
            continue
        if kind == ("", "date"):
            if date_col is None:
                date_col = idx
        else:
            series_cols.append((idx, kind[0], kind[1]))
    if date_col is None or not series_cols:
        return None
    return len(table.rows) - len(rows), date_col, series_cols


def _memoised(memo: dict, parse, text: str):
    if text not in memo:
        memo[text] = parse(text)
    return memo[text]


def extract_series(tables: list[RawTable], mapping: ColumnMapping = DEFAULT_MAPPING,
                   revision_id: int | None = None, *, memo: dict | None = None) -> list[TimeSeries]:
    """Series from the first table whose header matches the mapping.

    A match needs a date column plus at least one (country, metric) column.
    Unparseable cells are skipped with a warning; a revision with no matching
    table yields an empty list (not an error).

    ``memo`` keeps each table's column plan, keyed by its header and first
    row (all the plan reads), and each date and count cell text's parsed
    value. Passing one dict to every revision of a history plans each
    distinct header once and parses each distinct cell text once; the
    warnings for unparseable cells are still logged on every call. A memo
    serves one mapping; without it each call starts from an empty dict.
    """
    if memo is None:
        memo = {}
    plans = memo.setdefault("plans", {})
    dates = memo.setdefault("dates", {})
    counts = memo.setdefault("counts", {})
    for table in tables:
        key = (tuple(table.header), tuple(table.rows[0]) if table.rows else None)
        if key not in plans:
            plans[key] = _column_plan(table, mapping)
        if plans[key] is None:
            continue
        skip, date_col, series_cols = plans[key]

        collected: dict[tuple[str, str], dict[date, float]] = {}
        for row_no, row in enumerate(table.rows[skip:]):
            when = _memoised(dates, parse_table_date, row[date_col])
            if when is None:
                logger.warning(
                    "revision %s: unparseable date %r in row %d; row skipped",
                    revision_id, row[date_col], row_no,
                )
                continue
            for idx, country, metric in series_cols:
                value = _memoised(counts, parse_count, row[idx])
                if value is None:
                    if row[idx].strip():
                        logger.warning(
                            "revision %s: unparseable count %r (%s, %s); cell skipped",
                            revision_id, row[idx], country, metric,
                        )
                    continue
                collected.setdefault((country, metric), {})[when] = value
        return [
            TimeSeries(country=c, metric=m, points=pts)
            for (c, m), pts in collected.items()
            if pts
        ]
    return []


# ---------------------------------------------------------------------------
# interpolation, dedup, ground truth
# ---------------------------------------------------------------------------

def interpolate_daily(series: TimeSeries) -> TimeSeries:
    """Fill interior date gaps by linear interpolation; no extrapolation.

    A gap longer than ``MAX_FILL_GAP_DAYS`` days is left unfilled; both of
    its end points stay. Original points are untouched; filled dates are
    recorded in ``interpolated_dates``. Idempotent.
    """
    if not series.points:
        raise ValueError("cannot interpolate an empty series")
    known = sorted(series.points.items())
    points: dict[date, float] = {}
    filled: set[date] = set()
    for (d0, v0), (d1, v1) in zip(known, known[1:]):
        points[d0] = v0
        span = (d1 - d0).days
        if span > MAX_FILL_GAP_DAYS:
            continue
        first = d0.toordinal()
        for step in range(1, span):
            day = date.fromordinal(first + step)
            points[day] = v0 + (v1 - v0) * step / span
            filled.add(day)
    points[known[-1][0]] = known[-1][1]
    return TimeSeries(
        country=series.country,
        metric=series.metric,
        points=points,
        interpolated_dates=series.interpolated_dates | filled,
    )


def dedup_series(per_revision: list[RevisionSeries]) -> list[RevisionSeries]:
    """Drop revisions whose (country, metric) -> points map equals the most
    recent retained one's."""
    retained: list[RevisionSeries] = []
    last = None
    for rev in per_revision:
        data = {(s.country, s.metric): s.points for s in rev.series}
        if data != last:
            retained.append(rev)
            last = data
    return retained


def _csv_rows(handle, source):
    """The rows of a CSV file; a line the csv module rejects (a field over its
    size limit, or a NUL before Python 3.11) is a GroundTruthError naming it."""
    try:
        yield from csv.reader(handle)
    except csv.Error as exc:
        raise GroundTruthError(f"{source}: {exc}") from None


def load_ground_truth(source) -> dict[tuple[str, str], TimeSeries]:
    """Canonical CSV (date,country,metric,value) into interpolated series by (country, metric).

    Duplicate (date, country, metric) keys, bad dates, unknown metrics,
    non-finite and negative values are load errors naming the 1-based data
    row.
    """
    with open_text(source, "r", newline="") as handle:
        reader = _csv_rows(handle, source)
        try:
            header = next(reader)
        except StopIteration:
            raise GroundTruthError("ground-truth CSV is empty (missing header)") from None
        expected = ["date", "country", "metric", "value"]
        if [h.strip().lower() for h in header] != expected:
            raise GroundTruthError(
                f"ground-truth header must be {','.join(expected)}, got {','.join(header)}"
            )
        truth: dict[tuple[str, str], TimeSeries] = {}
        for row_no, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise GroundTruthError(
                    f"row {row_no}: expected 4 columns, got {len(row)}", row=row_no
                )
            raw_date, country, metric, raw_value = (cell.strip() for cell in row)
            try:
                when = datetime.strptime(raw_date, "%Y-%m-%d").date()
            except ValueError:
                raise GroundTruthError(
                    f"row {row_no}: bad date {raw_date!r} (expected ISO-8601)", row=row_no
                ) from None
            if metric not in METRICS:
                raise GroundTruthError(
                    f"row {row_no}: metric must be one of {METRICS}, got {metric!r}",
                    row=row_no,
                )
            try:
                value = float(raw_value)
            except ValueError:
                raise GroundTruthError(
                    f"row {row_no}: bad value {raw_value!r}", row=row_no
                ) from None
            if not math.isfinite(value):
                raise GroundTruthError(
                    f"row {row_no}: non-finite value {raw_value!r}", row=row_no
                )
            if value < 0:
                raise GroundTruthError(
                    f"row {row_no}: negative value {value}", row=row_no
                )
            key = (country, metric)
            series = truth.setdefault(key, TimeSeries(country=country, metric=metric))
            if when in series.points:
                raise GroundTruthError(
                    f"row {row_no}: duplicate entry for ({raw_date}, {country}, {metric})",
                    row=row_no,
                )
            series.points[when] = value
    return {key: interpolate_daily(s) for key, s in truth.items()}


_RIVERS_COLUMN = re.compile(r"^(Cases|Deaths)_(.+)$")


def import_rivers_ground_truth(source, destination) -> int:
    """Normalize a Rivers-style wide CSV into the canonical long schema.

    Input columns look like Date,Day,Cases_Guinea,...,Deaths_Guinea,...;
    dates are M/D/YYYY; blank cells mean no report. Returns the number of
    rows written.
    """
    with open_text(source, "r", newline="") as handle:
        reader = _csv_rows(handle, source)
        try:
            header = next(reader)
        except StopIteration:
            raise GroundTruthError(f"{source}: CSV is empty (missing header)") from None
        columns: list[tuple[int, str, str]] = []
        date_idx = None
        for idx, name in enumerate(header):
            if name.strip().lower() == "date":
                date_idx = idx
                continue
            match = _RIVERS_COLUMN.match(name.strip())
            if match:
                metric = "cases" if match.group(1) == "Cases" else "deaths"
                country = match.group(2).replace("_", " ")
                # CamelCase column names become spaced country names so they
                # line up with wiki table headers ("SierraLeone" vs "Sierra Leone").
                country = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", country)
                columns.append((idx, country, metric))
        if date_idx is None or not columns:
            raise GroundTruthError(
                "input does not look like a Rivers-style file "
                "(need a Date column and Cases_*/Deaths_* columns)"
            )
        rows: list[tuple[date, str, str, float]] = []
        seen: set[tuple[date, str, str]] = set()
        for row in reader:
            if not row:
                continue
            raw_date = row[date_idx].strip() if date_idx < len(row) else ""
            when = None
            for fmt in ("%m/%d/%Y", "%Y-%m-%d"):
                try:
                    when = datetime.strptime(raw_date, fmt).date()
                    break
                except ValueError:
                    continue
            if when is None:
                logger.warning("skipping row with unparseable date %r", raw_date)
                continue
            for idx, country, metric in columns:
                cell = row[idx].strip() if idx < len(row) else ""
                if not cell:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                # nan, inf and negative counts would not load as ground truth.
                if not 0 <= value < math.inf:
                    logger.warning("skipping unparseable value %r (%s)", cell, country)
                    continue
                key = (when, country, metric)
                if key in seen:
                    continue
                seen.add(key)
                rows.append((when, country, metric, value))
    rows.sort(key=lambda r: (r[1], r[2], r[0]))
    with open_text(destination, "w", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["date", "country", "metric", "value"])
        for when, country, metric, value in rows:
            writer.writerow([when.isoformat(), country, metric,
                             int(value) if value == int(value) else value])
    return len(rows)


def extract_revision_series(revisions, mapping: ColumnMapping = DEFAULT_MAPPING,
                            interpolate: bool = True) -> list[RevisionSeries]:
    """Parse each revision's tables and extract its series set.

    Revisions yielding no series (no matching table) contribute nothing.
    With ``interpolate`` the series are filled to daily granularity, ready
    for dedup and scoring.

    Successive revisions mostly repeat each other's tables, so one set of
    memos serves every revision of the call: ``parse_tables`` parses each
    distinct table block and line once, ``extract_series`` plans each
    distinct header and parses each distinct cell once, and each distinct
    raw series (country, metric and points) is interpolated once into one
    TimeSeries, shared by every revision that repeats it; nothing downstream
    mutates it. A malformed table line's warning is logged once per
    call; per-cell warnings are logged per revision.
    """
    from .wikitext import parse_tables

    rows: dict = {}
    cells: dict = {}
    daily: dict[tuple, TimeSeries] = {}
    sets: list[RevisionSeries] = []
    for rev in revisions:
        tables = parse_tables(rev.wikitext, revision_id=rev.revision_id, memo=rows)
        series = extract_series(tables, mapping, revision_id=rev.revision_id, memo=cells)
        if not series:
            continue
        if interpolate:
            for idx, raw in enumerate(series):
                key = (raw.country, raw.metric, tuple(raw.points.items()))
                if key not in daily:
                    daily[key] = interpolate_daily(raw)
                series[idx] = daily[key]
        series.sort(key=lambda s: (s.country, s.metric))
        sets.append(RevisionSeries(
            revision_id=rev.revision_id,
            timestamp=rev.timestamp,
            series=series,
        ))
    return sets


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def align(y_hat: TimeSeries, y: TimeSeries, start: date | None = None) -> AlignedPair:
    """Restrict both series to their common dates, optionally clipped.

    With ``start`` set, dates earlier than it are discarded before pairing.
    """
    common = sorted(set(y_hat.points) & set(y.points))
    if start is not None:
        common = [d for d in common if d >= start]
    if not common:
        raise AlignmentError(
            f"no common dates for ({y_hat.country}, {y_hat.metric})"
        )
    return AlignedPair(
        dates=common,
        y_hat=[y_hat.points[d] for d in common],
        y=[y.points[d] for d in common],
    )


def rmse(pair: AlignedPair) -> float:
    """sqrt(mean squared difference) over the aligned dates."""
    if pair.n < 1:
        raise ValueError("aligned pair is empty")
    total = 0.0
    for a, b in zip(pair.y_hat, pair.y):
        try:
            total += (a - b) ** 2
        except OverflowError:  # a finite difference beyond about 1.3e154
            return math.inf
    return math.sqrt(total / pair.n)


def rmse_report(unique_sets: list[RevisionSeries], truth: dict[tuple[str, str], TimeSeries],
                start: date | None = None) -> RmseReport:
    """Score every retained revision's series against ground truth.

    (country, metric) pairs absent from the truth set are listed in the
    report's gap section, not treated as failures. Means weight each
    retained revision equally.
    """
    per_revision: dict[tuple[int, str, str], float] = {}
    gaps: dict[tuple[str, str], None] = {}  # in first-seen order
    by_key: dict[tuple[str, str], list[float]] = {}
    revisions = []
    for rev in unique_sets:
        ts = rev.timestamp.isoformat() if rev.timestamp is not None else ""
        revisions.append((rev.revision_id, ts))
        for series in rev.series:
            key = (series.country, series.metric)
            if key not in truth:
                gaps[key] = None
                continue
            try:
                pair = align(series, truth[key], start=start)
            except AlignmentError:
                logger.warning(
                    "revision %s: no overlap with truth for %s; skipped",
                    rev.revision_id, key,
                )
                continue
            value = rmse(pair)
            per_revision[(rev.revision_id, series.country, series.metric)] = value
            by_key.setdefault(key, []).append(value)
    mean_per_country = {
        key: sum(values) / len(values) for key, values in by_key.items()
    }
    return RmseReport(
        per_revision=per_revision,
        mean_per_country=mean_per_country,
        gaps=list(gaps),
        revisions=revisions,
    )


# ---------------------------------------------------------------------------
# serialization for the CLI pipeline
# ---------------------------------------------------------------------------

def revision_series_to_dict(rev: RevisionSeries) -> dict:
    return {
        "revision_id": rev.revision_id,
        "timestamp": rev.timestamp.isoformat() if rev.timestamp else None,
        "series": [
            {
                "country": s.country,
                "metric": s.metric,
                "points": {d.isoformat(): v for d, v in sorted(s.points.items())},
                "interpolated_dates": sorted(d.isoformat() for d in s.interpolated_dates),
            }
            for s in rev.series
        ],
    }


def revision_series_from_dict(data: dict) -> RevisionSeries:
    """Inverse of revision_series_to_dict; a malformed dict raises LookupError,
    TypeError, AttributeError, ValueError or OverflowError. A (country, metric)
    pair may appear once per revision, as extract_series writes it."""
    revision_id = data["revision_id"]
    if type(revision_id) is not int:
        raise TypeError(f"revision_id {revision_id!r} is not an integer")
    ts = datetime.fromisoformat(data["timestamp"]) if data.get("timestamp") else None
    series: dict[tuple[str, str], TimeSeries] = {}
    for item in data["series"]:
        country, metric = item["country"], item["metric"]
        if not (isinstance(country, str) and isinstance(metric, str)):
            raise TypeError(f"revision {revision_id}: country and metric must be strings")
        points = {datetime.strptime(d, "%Y-%m-%d").date(): float(v)
                  for d, v in item["points"].items()}
        if not points:  # extract_series writes no empty series
            raise ValueError(f"revision {revision_id}: {country}/{metric} has no points")
        if (country, metric) in series:
            raise ValueError(f"revision {revision_id}: {country}/{metric} appears twice")
        series[country, metric] = TimeSeries(
            country=country,
            metric=metric,
            points=points,
            interpolated_dates={
                datetime.strptime(d, "%Y-%m-%d").date()
                for d in item.get("interpolated_dates", [])
            },
        )
    return RevisionSeries(revision_id=revision_id, timestamp=ts, series=list(series.values()))
