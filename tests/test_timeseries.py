import io
import math
import re
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from outbreakminer.errors import AlignmentError, GroundTruthError
from outbreakminer.ingest import ArticleRevision
from outbreakminer.timeseries import (
    AlignedPair,
    RevisionSeries,
    TimeSeries,
    align,
    dedup_series,
    extract_revision_series,
    extract_series,
    import_rivers_ground_truth,
    interpolate_daily,
    load_ground_truth,
    parse_count,
    revision_series_from_dict,
    revision_series_to_dict,
    rmse,
    rmse_report,
)
from outbreakminer.wikitext import parse_tables

D = date


def series(country="Guinea", metric="cases", **points):
    parsed = {date.fromisoformat(k.replace("_", "-")): float(v) for k, v in points.items()}
    return TimeSeries(country=country, metric=metric, points=parsed)


class TestExtractSeries:
    def test_no_tables(self):
        assert extract_series([]) == []

    def test_two_column_fixture(self):
        text = (
            "{|\n! Date !! Guinea cases !! Guinea deaths\n"
            "|-\n| 30 June 2014 || 759 || 467\n"
            "|-\n| 2 July 2014 || 779 || 481\n|}"
        )
        result = extract_series(parse_tables(text), revision_id=7)
        keys = {(s.country, s.metric) for s in result}
        assert keys == {("Guinea", "cases"), ("Guinea", "deaths")}
        for s in result:
            assert len(s.points) == 2
        cases = next(s for s in result if s.metric == "cases")
        assert cases.points[D(2014, 6, 30)] == 759.0

    def test_comma_separated_value(self):
        assert parse_count("1,022") == 1022.0

    def test_unparseable_cells_skipped(self):
        text = (
            "{|\n! Date !! Liberia cases\n"
            "|-\n| 30 June 2014 || n/a\n"
            "|-\n| not a date || 5\n"
            "|-\n| 1 July 2014 || 10\n|}"
        )
        [s] = extract_series(parse_tables(text))
        assert s.points == {D(2014, 7, 1): 10.0}

    def test_first_matching_table_wins(self):
        text = (
            "{|\n! Other !! Columns\n|-\n| a || b\n|}\n"
            "{|\n! Date !! Spain cases\n|-\n| 1 July 2014 || 3\n|}\n"
            "{|\n! Date !! Mali cases\n|-\n| 1 July 2014 || 9\n|}"
        )
        [s] = extract_series(parse_tables(text))
        assert s.country == "Spain"

    def test_two_row_header_merged(self, caplog):
        # The article's historical layout: Date spans both header rows,
        # country names span their metric pair.
        text = (
            "{|\n! rowspan=2 | Date !! colspan=2 | Guinea !! colspan=2 | Liberia\n"
            "|-\n! Cases !! Deaths !! Cases !! Deaths\n"
            "|-\n| 1 July 2014 || 100 || 60 || 50 || 30\n|}"
        )
        result = extract_series(parse_tables(text))
        keys = {(s.country, s.metric) for s in result}
        assert keys == {
            ("Guinea", "cases"), ("Guinea", "deaths"),
            ("Liberia", "cases"), ("Liberia", "deaths"),
        }
        assert not caplog.records  # the sub-header row is not read as data

    def test_total_column(self):
        text = "{|\n! Date !! Total cases\n|-\n| 1 July 2014 || 42\n|}"
        [s] = extract_series(parse_tables(text))
        assert s.country == "Total" and s.metric == "cases"


class TestInterpolateDaily:
    def test_midpoint(self):
        s = series(**{"2014_07_01": 10, "2014_07_03": 20})
        out = interpolate_daily(s)
        assert out.points[D(2014, 7, 2)] == 15.0
        assert out.interpolated_dates == {D(2014, 7, 2)}

    def test_already_daily_is_fixed_point(self):
        s = series(**{"2014_07_01": 1, "2014_07_02": 2})
        out = interpolate_daily(s)
        assert out.points == s.points
        assert out.interpolated_dates == set()

    def test_thirds(self):
        s = series(**{"2014_07_01": 0, "2014_07_04": 9})
        out = interpolate_daily(s)
        assert out.points[D(2014, 7, 2)] == 3.0
        assert out.points[D(2014, 7, 3)] == 6.0

    def test_idempotent_and_gap_free(self):
        s = series(**{"2014_07_01": 5, "2014_07_05": 6, "2014_07_10": 30})
        once = interpolate_daily(s)
        twice = interpolate_daily(once)
        assert once.points == twice.points
        assert once.interpolated_dates == twice.interpolated_dates
        days = sorted(once.points)
        assert [(b - a).days for a, b in zip(days, days[1:])] == [1] * (len(days) - 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interpolate_daily(TimeSeries(country="X", metric="cases"))

    def test_gap_over_a_year_left_unfilled(self):
        s = series(**{"2014_01_01": 0, "2015_01_02": 366, "2016_01_04": 0})
        out = interpolate_daily(s)
        assert len(out.interpolated_dates) == 365
        assert max(out.interpolated_dates) == D(2015, 1, 1)
        assert all(out.points[d] == v for d, v in s.points.items())

    def test_far_off_table_date_fills_nothing(self):
        import time

        text = ("{|\n! Date !! Guinea cases !! Guinea deaths !! Liberia cases !! Liberia deaths"
                "\n|-\n| 1 January 0001 || 1 || 2 || 3 || 4"
                "\n|-\n| 30 June 2014 || 10 || 20 || 30 || 40\n|}")
        extracted = extract_series(parse_tables(text))
        assert len(extracted) == 4
        started = time.perf_counter()
        filled = [interpolate_daily(s) for s in extracted]
        assert time.perf_counter() - started < 1.0
        for before, after in zip(extracted, filled):
            assert after.points == before.points and not after.interpolated_dates
            assert sorted(after.points) == [D(1, 1, 1), D(2014, 6, 30)]

    @given(st.lists(
        st.tuples(st.integers(0, 40), st.floats(0, 1e6, allow_nan=False)),
        min_size=1, max_size=8, unique_by=lambda t: t[0],
    ))
    @settings(max_examples=100, deadline=None)
    def test_filled_values_between_brackets(self, raw_points):
        base = D(2014, 7, 1)
        s = TimeSeries(
            country="X", metric="cases",
            points={base + timedelta(days=offset): value
                    for offset, value in raw_points},
        )
        out = interpolate_daily(s)
        known = sorted(s.points.items())
        for day in out.interpolated_dates:
            left = max((d, v) for d, v in known if d < day)
            right = min((d, v) for d, v in known if d > day)
            low, high = min(left[1], right[1]), max(left[1], right[1])
            assert low - 1e-9 <= out.points[day] <= high + 1e-9
        assert all(out.points[d] == v for d, v in s.points.items())


def rev_set(revision_id, *series_list, ts=None):
    return RevisionSeries(revision_id=revision_id, timestamp=ts, series=list(series_list))


_PAIRS = [("Guinea", "cases"), ("Guinea", "deaths"), ("Liberia", "cases")]
_POINT_SETS = [
    {D(2014, 7, 1): 1.0},
    {D(2014, 7, 1): 2.0},
    {D(2014, 7, 1): 1.0, D(2014, 7, 2): 3.0},
]


@st.composite
def _series_histories(draw):
    """Revisions holding each (country, metric) pair at most once, in any
    order, whose points are either one shared dict, an equal copy of it, or
    an equal copy built in the reverse order."""
    revisions = []
    for revision_id in range(draw(st.integers(0, 8))):
        found = []
        for country, metric in draw(st.lists(st.sampled_from(_PAIRS), unique=True)):
            points = draw(st.sampled_from(_POINT_SETS))
            copy = draw(st.sampled_from(["shared", "copy", "reversed"]))
            if copy == "copy":
                points = dict(points)
            elif copy == "reversed":
                points = dict(reversed(points.items()))
            found.append(TimeSeries(country, metric, points))
        revisions.append(rev_set(revision_id, *found))
    return revisions


class TestDedupSeries:
    def test_all_identical(self):
        a = series(**{"2014_07_01": 1})
        sets = [rev_set(i, a) for i in range(4)]
        kept = dedup_series(sets)
        assert [r.revision_id for r in kept] == [0]

    def test_aabba_pattern(self):
        a = series(**{"2014_07_01": 1})
        b = series(**{"2014_07_01": 2})
        sets = [rev_set(1, a), rev_set(2, a), rev_set(3, b), rev_set(4, b), rev_set(5, a)]
        kept = dedup_series(sets)
        assert [r.revision_id for r in kept] == [1, 3, 5]

    def test_no_consecutive_equal_sets(self):
        values = [1, 1, 2, 2, 2, 3, 1, 1]
        sets = [rev_set(i, series(**{"2014_07_01": v})) for i, v in enumerate(values)]
        kept = dedup_series(sets)
        kept_points = [[s.points for s in r.series] for r in kept]
        assert all(x != y for x, y in zip(kept_points, kept_points[1:]))
        assert [r.revision_id for r in kept] == [0, 2, 5, 6]

    @given(_series_histories())
    @settings(max_examples=200, deadline=None)
    def test_equals_sorted_signature_rule(self, revisions):
        # The rule dedup_series had before: a frozenset of each revision's
        # (country, metric, sorted points), compared with the last kept one's.
        expected, last = [], None
        for rev in revisions:
            signature = frozenset((s.country, s.metric, tuple(sorted(s.points.items())))
                                  for s in rev.series)
            if last is None or signature != last:
                expected.append(rev)
                last = signature
        kept = dedup_series(revisions)
        assert len(kept) == len(expected)
        assert all(a is b for a, b in zip(kept, expected))


GOOD_CSV = """date,country,metric,value
2014-07-01,Guinea,cases,100
2014-07-02,Guinea,cases,105
2014-07-03,Guinea,cases,110
"""


class TestLoadGroundTruth:
    def test_empty_data_section(self):
        truth = load_ground_truth(io.StringIO("date,country,metric,value\n"))
        assert truth == {}

    def test_three_rows_one_series(self):
        truth = load_ground_truth(io.StringIO(GOOD_CSV))
        [series_] = truth.values()
        assert len(series_.points) == 3
        assert series_.points[D(2014, 7, 2)] == 105.0

    def test_negative_value_names_row(self):
        bad = "date,country,metric,value\n2014-06-30,Guinea,cases,-1\n"
        with pytest.raises(GroundTruthError) as err:
            load_ground_truth(io.StringIO(bad))
        assert err.value.row == 1

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_row(self, raw):
        bad = GOOD_CSV + f"2014-07-04,Guinea,cases,{raw}\n"
        with pytest.raises(GroundTruthError) as err:
            load_ground_truth(io.StringIO(bad))
        assert err.value.row == 4
        assert str(err.value) == f"row 4: non-finite value {raw!r}"

    def test_duplicate_key_rejected(self):
        bad = GOOD_CSV + "2014-07-01,Guinea,cases,100\n"
        with pytest.raises(GroundTruthError) as err:
            load_ground_truth(io.StringIO(bad))
        assert err.value.row == 4

    def test_bad_metric_and_date(self):
        with pytest.raises(GroundTruthError):
            load_ground_truth(io.StringIO("date,country,metric,value\n2014-07-01,X,hospital,1\n"))
        with pytest.raises(GroundTruthError):
            load_ground_truth(io.StringIO("date,country,metric,value\n01/07/2014,X,cases,1\n"))

    def test_missing_header(self):
        with pytest.raises(GroundTruthError):
            load_ground_truth(io.StringIO("when,where,what,how\n"))

    def test_field_over_csv_limit_names_file(self, tmp_path):
        src = tmp_path / "truth.csv"
        src.write_text(GOOD_CSV + "2014-07-04,Guinea," + "x" * 200_000 + ",1\n")
        limit = f"^{re.escape(str(src))}: field larger than field limit"
        with pytest.raises(GroundTruthError, match=limit):
            load_ground_truth(src)

    def test_truth_is_interpolated(self):
        gappy = "date,country,metric,value\n2014-07-01,Guinea,cases,10\n2014-07-03,Guinea,cases,20\n"
        truth = load_ground_truth(io.StringIO(gappy))
        [series_] = truth.values()
        assert series_.points[D(2014, 7, 2)] == 15.0


class TestRiversImport:
    def test_sample_normalized(self, rivers_sample_path, tmp_path):
        out = tmp_path / "truth.csv"
        written = import_rivers_ground_truth(rivers_sample_path, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "date,country,metric,value"
        # 4 dates x 6 columns minus the one blank Cases_Guinea cell.
        assert written == 4 * 6 - 1
        assert "2015-01-05,Guinea,cases,2775" in lines
        assert "2014-12-24,Sierra Leone,deaths,2655" in lines
        # The normalized file loads as canonical ground truth.
        truth = load_ground_truth(out)
        assert ("Guinea", "cases") in truth


    def test_field_over_csv_limit_names_file(self, tmp_path):
        src = tmp_path / "wide.csv"
        src.write_text("Date,Cases_Guinea\n1/5/2015," + "9" * 200_000 + "\n")
        limit = f"^{re.escape(str(src))}: field larger than field limit"
        with pytest.raises(GroundTruthError, match=limit):
            import_rivers_ground_truth(src, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()


class TestAlign:
    def test_identical_ranges(self):
        a = series(**{"2014_07_01": 1, "2014_07_02": 2})
        b = series(**{"2014_07_01": 1, "2014_07_02": 4})
        pair = align(a, b)
        assert pair.n == 2

    def test_partial_overlap(self):
        a = TimeSeries("X", "cases", {D(2014, 7, d): float(d) for d in range(1, 8)})
        b = TimeSeries("X", "cases", {D(2014, 7, d): float(d) for d in range(3, 12)})
        assert align(a, b).n == 5

    def test_disjoint_raises(self):
        a = series(**{"2014_07_01": 1})
        b = series(**{"2014_08_01": 1})
        with pytest.raises(AlignmentError):
            align(a, b)

    def test_window_start_clip(self):
        a = TimeSeries("X", "cases", {D(2014, 6, d): 1.0 for d in range(25, 31)})
        b = TimeSeries("X", "cases", {D(2014, 6, d): 2.0 for d in range(25, 31)})
        pair = align(a, b, start=D(2014, 6, 30))
        assert pair.dates == [D(2014, 6, 30)]


class TestRmse:
    def test_equal_series_zero(self):
        pair = AlignedPair([D(2014, 7, 1)], [5.0], [5.0])
        assert rmse(pair) == 0.0

    def test_worked_example(self):
        pair = AlignedPair(
            [D(2014, 7, 1), D(2014, 7, 2), D(2014, 7, 3)],
            [1.0, 2.0, 3.0], [1.0, 2.0, 5.0],
        )
        assert rmse(pair) == pytest.approx(math.sqrt(4 / 3), abs=1e-12)

    def test_constant_offset(self):
        pair = AlignedPair(
            [D(2014, 7, 1), D(2014, 7, 2)], [10.0, 20.0], [7.0, 17.0]
        )
        assert rmse(pair) == pytest.approx(3.0, abs=1e-12)

    def test_overflowing_square_is_inf(self):
        pair = AlignedPair([D(2014, 7, 1), D(2014, 7, 2)], [1e200, 1.0], [0.0, 1.0])
        assert rmse(pair) == math.inf

    @given(
        st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=10),
        st.lists(st.floats(-1e4, 1e4), min_size=10, max_size=10),
        st.floats(-100, 100),
    )
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_scale(self, y_hat, y, scale):
        n = len(y_hat)
        y = y[:n]
        dates = [D(2014, 7, 1)] * n
        forward = rmse(AlignedPair(dates, y_hat, y))
        backward = rmse(AlignedPair(dates, y, y_hat))
        assert forward == pytest.approx(backward, rel=1e-12, abs=1e-12)
        scaled = rmse(AlignedPair(dates, [scale * v for v in y_hat],
                                  [scale * v for v in y]))
        assert scaled == pytest.approx(abs(scale) * forward, rel=1e-9, abs=1e-6)


class TestRmseReport:
    def test_truth_equal_everywhere_all_zero(self):
        s = series(**{"2014_07_01": 5, "2014_07_02": 6})
        truth = {("Guinea", "cases"): s}
        sets = [rev_set(1, s, ts=datetime(2014, 7, 2, tzinfo=timezone.utc)),
                rev_set(2, s)]
        report = rmse_report(sets, truth)
        assert set(report.per_revision.values()) == {0.0}
        assert report.mean_per_country[("Guinea", "cases")] == 0.0

    def test_hand_computed_mean(self):
        truth_series = series(**{"2014_07_01": 0, "2014_07_02": 0})
        truth = {("Guinea", "cases"): truth_series}
        one = series(**{"2014_07_01": 1, "2014_07_02": 1})     # RMSE 1.0
        three = series(**{"2014_07_01": 3, "2014_07_02": 3})   # RMSE 3.0
        report = rmse_report([rev_set(1, one), rev_set(2, three)], truth)
        assert report.per_revision[(1, "Guinea", "cases")] == 1.0
        assert report.per_revision[(2, "Guinea", "cases")] == 3.0
        assert report.mean_per_country[("Guinea", "cases")] == 2.0

    def test_missing_truth_listed_as_gap(self):
        truth = {}
        report = rmse_report([rev_set(1, series())], truth)
        assert report.gaps == [("Guinea", "cases")]
        assert report.per_revision == {}


class TestFixturePipeline:
    def test_corruption_spike_and_recovery(self, fixture_revisions, ground_truth_path):
        sets = extract_revision_series(fixture_revisions)
        unique = dedup_series(sets)
        assert [r.revision_id for r in unique] == [101, 103, 105, 106, 107, 108]
        truth = load_ground_truth(ground_truth_path)
        report = rmse_report(unique, truth)
        cases_series = [
            report.per_revision[(rid, "Guinea", "cases")]
            for rid in (101, 103, 105, 106, 107, 108)
        ]
        # Swapped-column revision spikes; the correction returns to baseline.
        assert cases_series[:3] == [0.0, 0.0, 0.0]
        assert cases_series[3] == pytest.approx(math.sqrt(1325), abs=0)
        assert cases_series[4:] == [0.0, 0.0]

    def test_serialization_round_trip(self, fixture_revisions):
        sets = extract_revision_series(fixture_revisions)
        for rev in sets:
            again = revision_series_from_dict(revision_series_to_dict(rev))
            assert again.revision_id == rev.revision_id
            assert again.timestamp == rev.timestamp
            assert again.series == rev.series


# ---------------------------------------------------------------------------
# the memoised revision route against fresh per-revision work
# ---------------------------------------------------------------------------

_DAY = st.dates(date(2014, 3, 1), date(2014, 12, 31)).map(lambda d: f"{d.day} {d:%B} {d.year}")
_DATE_CELL = st.one_of(_DAY, st.sampled_from(
    ["2014-07-01", "July 3, 2014", "31 June 2014", "soon", "", "[[1 July 2014]]"]))
_COUNT_CELL = st.one_of(st.integers(0, 5000).map(str), st.sampled_from(
    ["1,234", "7.5", "n/a", "—", "12x", "", "{{unclosed"]))
_TABLE_ROW = st.one_of(
    st.builds("| {} || {} || {}".format, _DATE_CELL, _COUNT_CELL, _COUNT_CELL),
    st.builds("| {} || {} {{|\n! Inner\n|-\n| {}\n|}}\n|| {}".format,
              _DATE_CELL, _COUNT_CELL, _COUNT_CELL, _COUNT_CELL),
)
_HEADERS = [
    "! Date !! Guinea cases !! Guinea deaths",
    "! Date !! Guinea !! Liberia\n|-\n| || cases || deaths",  # two-row header
    "! Date !! Guinea !! Liberia\n|-\n| || cases || soon",    # looks like one, is not
    "! Notes !! Guinea cases !! Guinea deaths",              # no date column
]
_EXTRA_BLOCKS = ["", "{|\n|}\n", "{| class=x\n|-\n|}\n"]  # blocks without rows


@st.composite
def _edited_histories(draw):
    """Revisions of one table that keep, edit, append and drop rows, so
    blocks, headers, cells and series repeat across revisions."""
    rows = draw(st.lists(_TABLE_ROW, max_size=5))
    texts = []
    for _ in range(draw(st.integers(1, 6))):
        action = draw(st.sampled_from(["keep", "keep", "edit", "append", "drop"]))
        if action == "edit" and rows:
            rows[draw(st.integers(0, len(rows) - 1))] = draw(_TABLE_ROW)
        elif action == "append":
            rows.append(draw(_TABLE_ROW))
        elif action == "drop" and rows:
            rows.pop()
        body = "".join(f"|-\n{row}\n" for row in rows)
        table = f"{{| class=wikitable\n{draw(st.sampled_from(_HEADERS))}\n{body}|}}\n"
        texts.append(f"lead\n{draw(st.sampled_from(_EXTRA_BLOCKS))}{table}tail")
    return texts


def _fill_daily(series):
    """interpolate_daily as it was written before, stepping by timedelta."""
    known = sorted(series.points.items())
    points, filled = {}, set()
    for (d0, v0), (d1, v1) in zip(known, known[1:]):
        points[d0] = v0
        span = (d1 - d0).days
        if span > 366:
            continue
        for step in range(1, span):
            day = d0 + timedelta(days=step)
            points[day] = v0 + (v1 - v0) * step / span
            filled.add(day)
    points[known[-1][0]] = known[-1][1]
    return TimeSeries(series.country, series.metric, points,
                      series.interpolated_dates | filled)


def _fresh_revision_series(revisions, interpolate):
    """Per revision: tables through a memo of table lines alone, then
    memo-less extraction and interpolation."""
    lines = {}
    sets = []
    for rev in revisions:
        tables = parse_tables(rev.wikitext, revision_id=rev.revision_id, memo=lines)
        for key in [key for key in lines if not isinstance(key, str)]:
            del lines[key]
        found = extract_series(tables, revision_id=rev.revision_id)
        if found:
            if interpolate:
                found = [_fill_daily(s) for s in found]
            found.sort(key=lambda s: (s.country, s.metric))
            sets.append(RevisionSeries(rev.revision_id, rev.timestamp, found))
    return sets


def _compared(sets):
    return [(rev.revision_id, rev.timestamp,
             [(s.country, s.metric, sorted(s.points.items()), s.interpolated_dates)
              for s in rev.series])
            for rev in sets]


class TestMemoisedRevisionSeries:
    @given(_edited_histories(), st.booleans())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equals_fresh_per_revision_work(self, caplog, texts, interpolate):
        revisions = [ArticleRevision(revision_id=idx, parent_id=None,
                                     timestamp=datetime(2014, 7, 1 + idx), editor="",
                                     comment="", wikitext=text)
                     for idx, text in enumerate(texts)]
        caplog.clear()
        memoised = _compared(extract_revision_series(revisions, interpolate=interpolate))
        logged = [(r.name, r.getMessage()) for r in caplog.records]
        caplog.clear()
        assert memoised == _compared(_fresh_revision_series(revisions, interpolate))
        assert logged == [(r.name, r.getMessage()) for r in caplog.records]

    def test_repeated_series_share_filled_points(self):
        table = ("{|\n! Date !! Guinea cases\n|-\n| 1 July 2014 || 5\n"
                 "|-\n| 5 July 2014 || 9\n|}")
        revisions = [ArticleRevision(revision_id=idx, parent_id=None, timestamp=None,
                                     editor="", comment="", wikitext=table)
                     for idx in range(3)]
        sets = extract_revision_series(revisions)
        first, *rest = (rev.series[0] for rev in sets)
        assert len(rest) == 2 and all(other is first for other in rest)
        assert first == interpolate_daily(extract_series(parse_tables(table))[0])
