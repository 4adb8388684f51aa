import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import outbreakminer
import outbreakminer.ingest as ingest_mod
from outbreakminer.cli import build_parser, main
from outbreakminer.corpus import LabeledToken, write_iob_tsv
from outbreakminer.ingest import RevisionCache
from outbreakminer.synthcorpus import generate_labeled_corpus
from outbreakminer.timeseries import load_ground_truth


def run(*argv):
    return main(list(argv))


def tree_digest(root: Path) -> dict:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture
def seeded_cache_dir(tmp_path, fixture_records):
    cache = RevisionCache(tmp_path / "cache")
    for record in fixture_records:
        cache.put_record("Example outbreak", record)
    return tmp_path / "cache"


@pytest.fixture(autouse=True)
def no_env_cache(monkeypatch):
    monkeypatch.delenv("OUTBREAK_CACHE_DIR", raising=False)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "outbreak" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self):
        assert run("--definitely-not-a-flag") == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 2

    def test_missing_required_flag(self):
        assert run("clean", "--in", "x") == 2

    def test_domain_error_is_one(self, tmp_path):
        assert run("clean", "--in", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "out.txt")) == 1

    def test_corpus_without_subcommand(self):
        assert run("corpus") == 2


class TestFetch:
    def test_fetch_reports_count_and_activity(self, tmp_path, monkeypatch,
                                              fixture_revisions, capsys):
        import outbreakminer.ingest as ingest_mod

        seen = {}

        def fake_fetch(query, cache):
            seen["title"] = query.article_title
            seen["cache_root"] = cache.root
            return fixture_revisions

        monkeypatch.setattr(ingest_mod, "fetch_revisions", fake_fetch)
        activity_csv = tmp_path / "activity.csv"
        assert run("fetch", "--title", "Example outbreak",
                   "--cache", str(tmp_path / "cache"),
                   "--start", "2014-07-01", "--end", "2014-07-31",
                   "--activity-out", str(activity_csv)) == 0
        assert seen["title"] == "Example outbreak"
        assert "10 revisions" in capsys.readouterr().err
        lines = activity_csv.read_text().splitlines()
        assert lines[0] == "x,series,value"
        # 2014-07-03 .. 2014-07-09 inclusive, zero-filled.
        assert len(lines) == 1 + 7
        assert "2014-07-04,revisions,0" in lines


class TestClean:
    def test_strips_markup(self, tmp_path):
        src = tmp_path / "page.wiki"
        dst = tmp_path / "page.txt"
        src.write_text("[[Ebola virus|the virus]] spread<ref>WHO</ref>.")
        assert run("clean", "--in", str(src), "--out", str(dst)) == 0
        assert dst.read_text() == "the virus spread."

    def test_keep_tables(self, tmp_path):
        src = tmp_path / "page.wiki"
        dst = tmp_path / "page.txt"
        src.write_text("x\n{| class=w\n|-\n| 7\n|}\ny")
        assert run("clean", "--in", str(src), "--out", str(dst), "--keep-tables") == 0
        assert "{|" in dst.read_text()


class TestTables:
    def test_parse_to_json(self, tmp_path):
        src = tmp_path / "page.wiki"
        out = tmp_path / "tables.json"
        src.write_text("{|\n! Date !! Cases\n|-\n| 30 June 2014 || 759\n|}")
        assert run("tables", "--in", str(src), "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data == [{"header": ["Date", "Cases"], "rows": [["30 June 2014", "759"]]}]

    def test_tables_without_io_is_usage_error(self):
        assert run("tables") == 2

    def test_extract_interpolate_rmse_chain(self, seeded_cache_dir, tmp_path,
                                            ground_truth_path):
        raw = tmp_path / "raw.json"
        daily = tmp_path / "daily.json"
        out = tmp_path / "rmse.csv"
        summary = tmp_path / "summary.csv"
        assert run("tables", "extract", "--cache", str(seeded_cache_dir),
                   "--title", "Example outbreak", "--out", str(raw)) == 0
        assert run("tables", "interpolate", "--in", str(raw), "--out", str(daily)) == 0
        assert run("tables", "rmse", "--in", str(daily), "--truth",
                   str(ground_truth_path), "--from", "2014-06-30",
                   "--out", str(out), "--summary", str(summary)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "revision_id,timestamp,country,metric,rmse"
        assert len(lines) == 1 + 6 * 4  # 6 unique sets x 4 (country, metric)
        summary_lines = summary.read_text().splitlines()
        assert summary_lines[0] == "country,metric,mean_rmse"
        assert len(summary_lines) == 5

    @pytest.mark.parametrize("argv, expected", [
        (["tables", "--out", "o.json", "extract", "--title", "T"], (None, "o.json")),
        (["tables", "--in", "x", "--out", "o.json", "interpolate", "--in", "y"],
         ("y", "o.json")),
        (["tables", "--out", "o.csv", "rmse", "--in", "y", "--truth", "t"], ("y", "o.csv")),
        (["tables", "interpolate", "--in", "y", "--out", "o.json"], ("y", "o.json")),
        (["tables", "extract", "--title", "T"], (None, None)),
    ], ids=["out-before-extract", "in-out-before-interpolate", "out-before-rmse",
            "after-only", "neither"])
    def test_in_out_before_subcommand_kept(self, argv, expected):
        args = build_parser().parse_args(argv)
        assert (args.input, args.output) == expected

    @pytest.mark.parametrize("argv", [
        ["tables", "--in", "x", "interpolate"],
        ["tables", "--in", "x", "--truth", "t", "rmse"],
        ["tables", "--out", "o.csv", "import-truth", "--in", "x"],
        ["tables", "--in", "x", "import-truth", "--out", "o.csv"],
    ])
    def test_subcommand_required_in_out_still_required(self, argv):
        assert run(*argv) == 2

    @pytest.mark.parametrize("payload", [
        [{"revision_id": 1, "timestamp": None}],
        [{"revision_id": 1, "timestamp": None,
          "series": [{"country": "Guinea", "points": {}}]}],
        {"a": 1},
        [{"revision_id": 1, "timestamp": "x", "series": []}],
        [{"revision_id": 1, "timestamp": None,
          "series": [{"country": "Guinea", "metric": "cases", "points": {"2014-07-01": "abc"}}]}],
        [{"revision_id": [1], "timestamp": None,
          "series": [{"country": "Guinea", "metric": "cases", "points": {"2014-07-01": 1}}]}],
        [{"revision_id": 1, "timestamp": None,
          "series": [{"country": "Guinea", "metric": "cases", "points": {}}]}],
        [{"revision_id": 1, "timestamp": None,
          "series": [{"country": "Guinea", "metric": "cases", "points": {"2014-07-01": 10**400}}]}],
        [{"revision_id": 1, "timestamp": None,
          "series": [{"country": "Guinea", "metric": "cases", "points": {"2014-07-01": 1}},
                     {"country": "Guinea", "metric": "cases", "points": {"2014-07-02": 2}}]}],
    ], ids=["no-series", "no-metric", "object", "bad-timestamp", "text-value", "list-id",
            "no-points", "huge-value", "repeated-pair"])
    @pytest.mark.parametrize("command", ["interpolate", "rmse"])
    def test_malformed_series_is_one_error_line(self, tmp_path, capsys, ground_truth_path,
                                                command, payload):
        src = tmp_path / "series.json"
        src.write_text(json.dumps(payload))
        extra = ["--truth", str(ground_truth_path)] if command == "rmse" else []
        assert run("tables", command, "--in", str(src), *extra,
                   "--out", str(tmp_path / "out")) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {src}: ")
        assert not (tmp_path / "out").exists()

    def test_import_truth(self, rivers_sample_path, tmp_path):
        out = tmp_path / "canonical.csv"
        assert run("tables", "import-truth", "--in", str(rivers_sample_path),
                   "--out", str(out)) == 0
        assert out.read_text().startswith("date,country,metric,value\n")

    def test_import_truth_empty_file_is_domain_error(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("")
        assert run("tables", "import-truth", "--in", str(src),
                   "--out", str(tmp_path / "out.csv")) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_import_truth_skips_row_without_date(self, tmp_path):
        src = tmp_path / "wide.csv"
        src.write_text("Day,Date,Cases_Guinea\n1,3/22/2014,49\n5\n9,3/30/2014,112\n")
        out = tmp_path / "out.csv"
        assert run("tables", "import-truth", "--in", str(src), "--out", str(out)) == 0
        assert out.read_text() == ("date,country,metric,value\n"
                                   "2014-03-22,Guinea,cases,49\n"
                                   "2014-03-30,Guinea,cases,112\n")

    def test_import_truth_skips_non_finite_and_negative_cells(self, tmp_path):
        src = tmp_path / "wide.csv"
        src.write_text("Date,Cases_Guinea,Deaths_Guinea\n"
                       "3/22/2014,49,inf\n3/23/2014,nan,-5\n3/24/2014,-inf,7\n")
        out = tmp_path / "out.csv"
        assert run("tables", "import-truth", "--in", str(src), "--out", str(out)) == 0
        assert out.read_text() == ("date,country,metric,value\n"
                                   "2014-03-22,Guinea,cases,49\n"
                                   "2014-03-24,Guinea,deaths,7\n")
        assert len(load_ground_truth(out)) == 2


class TestRmseCommand:
    def test_end_to_end(self, seeded_cache_dir, tmp_path, ground_truth_path):
        out = tmp_path / "rmse.csv"
        summary = tmp_path / "summary.csv"
        report_json = tmp_path / "report.json"
        assert run("rmse", "--cache", str(seeded_cache_dir),
                   "--title", "Example outbreak",
                   "--truth", str(ground_truth_path),
                   "--from", "2014-06-30",
                   "--out", str(out), "--summary", str(summary),
                   "--out-json", str(report_json)) == 0
        body = summary.read_text()
        assert "Guinea,cases," in body and "Liberia,deaths," in body
        report = json.loads(report_json.read_text())
        assert report["kind"] == "rmse_report"

    def test_deep_link_nesting_in_a_cell_does_not_abort(self, fixture_records, tmp_path,
                                                         ground_truth_path, capsys):
        # A revision repeating the last one's series, plus a table cell and a
        # paragraph of links nested 5,000 deep: dedup drops it, so the
        # outputs match those of the history without it.
        deep = "[[x|" * 5000 + "y" + "]]" * 5000
        last = json.loads(json.dumps(fixture_records[-1]))
        main_slot = last["slots"]["main"]
        main_slot["content"] += f"\n{deep}\n{{|\n! Note\n|-\n| {deep}\n|}}\n"
        last.update(revid=last["revid"] + 1, parentid=last["revid"],
                    timestamp="2014-07-10T00:00:00Z")
        outputs = {}
        for name, records in (("plain", fixture_records), ("deep", fixture_records + [last])):
            cache = RevisionCache(tmp_path / name / "cache")
            for record in records:
                cache.put_record("Example outbreak", record)
            assert run("rmse", "--cache", str(tmp_path / name / "cache"),
                       "--title", "Example outbreak", "--truth", str(ground_truth_path),
                       "--out", str(tmp_path / name / "rmse.csv"),
                       "--out-json", str(tmp_path / name / "report.json")) == 0
            outputs[name] = [(tmp_path / name / f).read_bytes()
                             for f in ("rmse.csv", "report.json")]
        assert outputs["deep"] == outputs["plain"]
        assert "Traceback" not in capsys.readouterr().err

    def test_empty_cache_is_domain_error(self, tmp_path):
        assert run("rmse", "--cache", str(tmp_path / "empty"),
                   "--title", "Nothing", "--truth", "whatever.csv") == 1

    def test_corrupt_record_names_file(self, seeded_cache_dir, ground_truth_path, capsys):
        record = RevisionCache(seeded_cache_dir).article_dir("Example outbreak") / "105.json"
        record.write_bytes(record.read_bytes()[:40])
        assert run("rmse", "--cache", str(seeded_cache_dir),
                   "--title", "Example outbreak",
                   "--truth", str(ground_truth_path)) == 1
        assert f"corrupt cache file {record}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, named", [
        ("timestamp", 5, "105.json"),
        ("slots", {"main": {"content": ["x"]}}, "revision record 105: "),
    ], ids=["int-timestamp", "list-content"])
    @pytest.mark.parametrize("command", ["rmse", "corpus build"])
    def test_mistyped_record_is_one_error_line(self, seeded_cache_dir, ground_truth_path,
                                               tmp_path, capsys, command, field, value,
                                               named):
        record = RevisionCache(seeded_cache_dir).article_dir("Example outbreak") / "105.json"
        record.write_text(json.dumps(dict(json.loads(record.read_text()), **{field: value})))
        extra = (["--truth", str(ground_truth_path)] if command == "rmse"
                 else ["--out", str(tmp_path / "corpus.tsv")])
        assert run(*command.split(), "--cache", str(seeded_cache_dir),
                   "--title", "Example outbreak", *extra) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]
        assert not (tmp_path / "corpus.tsv").exists()


class TestCorpusCommands:
    def test_build_writes_tsv(self, seeded_cache_dir, tmp_path):
        out = tmp_path / "corpus.tsv"
        assert run("corpus", "build", "--cache", str(seeded_cache_dir),
                   "--title", "Example outbreak", "--threshold", "0.75",
                   "--out", str(out)) == 0
        content = out.read_text()
        sentences = [s for s in content.split("\n\n") if s.strip()]
        assert len(sentences) == 8
        assert all(len(line.split("\t")) == 3
                   for line in content.splitlines() if line)

    def test_build_rejects_bad_threshold(self, seeded_cache_dir, tmp_path, capsys):
        out = tmp_path / "corpus.tsv"
        assert run("corpus", "build", "--cache", str(seeded_cache_dir),
                   "--title", "Example outbreak", "--threshold", "1.5",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: threshold must be in [0, 1], got 1.5\n"
        assert not out.exists()

    def test_kappa(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        tokens_a = [[LabeledToken("x", "NOUN", lab)]
                    for lab in ["O", "O", "O", "O", "O", "B-DEATHS",
                                "B-DEATHS", "B-DEATHS", "B-DEATHS", "O"]]
        tokens_b = [[LabeledToken("x", "NOUN", lab)]
                    for lab in ["O", "O", "O", "O", "O", "B-DEATHS",
                                "B-DEATHS", "B-DEATHS", "B-DEATHS", "B-DEATHS"]]
        write_iob_tsv(tokens_a, a)
        write_iob_tsv(tokens_b, b)
        assert run("corpus", "kappa", "--a", str(a), "--b", str(b)) == 0
        # Same contingency as the worked kappa example: (5,1,0,4) -> 0.8.
        assert capsys.readouterr().out.strip() == "0.800000"


class TestNerCommands:
    def test_train_tag_cycle(self, tmp_path):
        corpus_path = tmp_path / "train.tsv"
        corpus = []
        for i in range(30):
            corpus.append([
                LabeledToken(str(20 + i), "NUM", "B-DEATHS"),
                LabeledToken("deaths", "NOUN", "I-DEATHS"),
                LabeledToken("reported", "VERB", "O"),
            ])
            corpus.append([
                LabeledToken("officials", "NOUN", "O"),
                LabeledToken("reported", "VERB", "O"),
                LabeledToken("progress", "NOUN", "O"),
            ])
        write_iob_tsv(corpus, corpus_path)
        model_path = tmp_path / "model.tsv"
        assert run("ner", "train", "--corpus", str(corpus_path),
                   "--max-ngram", "2", "--l2", "0.1",
                   "--out", str(model_path)) == 0
        text_path = tmp_path / "article.txt"
        text_path.write_text("There were 77 deaths.")
        spans_path = tmp_path / "spans.json"
        assert run("ner", "tag", "--model", str(model_path),
                   "--in", str(text_path), "--out", str(spans_path)) == 0
        [sentence] = json.loads(spans_path.read_text())
        assert sentence["spans"], "expected at least one tagged span"
        span = sentence["spans"][0]
        assert span["type"] == "DEATHS"
        assert set(span) == {"type", "start", "end", "text"}
        assert "deaths" in span["text"]

    def test_tag_with_overflowing_weights_is_one_error_naming_model(self, tmp_path, capsys):
        from outbreakminer.crf import FeatureConfig, save_model, train

        model_path = tmp_path / "model.tsv"
        save_model(train(generate_labeled_corpus(4, seed=3),
                         FeatureConfig(max_ngram_len=1, window=1), max_iter=3), model_path)
        # Finite weights, whose sum over a path overflows.
        lines = [line.rsplit("\t", 1)[0] + "\t1e308" if line.startswith("TRANS\t") else line
                 for line in model_path.read_text(encoding="utf-8").split("\n")]
        model_path.write_text("\n".join(lines), encoding="utf-8")
        text_path = tmp_path / "article.txt"
        text_path.write_text("There were 77 deaths in the region.")
        assert run("ner", "tag", "--model", str(model_path), "--in", str(text_path),
                   "--out", str(tmp_path / "spans.json")) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {model_path}: weights overflow in decoding")
        assert not (tmp_path / "spans.json").exists()

    def test_eval_and_sweep_reports(self, tmp_path):
        corpus_path = tmp_path / "train.tsv"
        corpus = []
        for i in range(12):
            corpus.append([
                LabeledToken(str(i), "NUM", "B-INFECTIONS"),
                LabeledToken("cases", "NOUN", "I-INFECTIONS"),
            ])
            corpus.append([LabeledToken("quiet", "OTHER", "O")])
        write_iob_tsv(corpus, corpus_path)
        report_path = tmp_path / "eval.json"
        assert run("ner", "eval", "--corpus", str(corpus_path), "--k", "3",
                   "--seed", "1", "--max-iter", "40",
                   "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["kind"] == "metrics_report" and report["folds"] == 3
        sweep_path = tmp_path / "sweep.csv"
        assert run("ner", "sweep", "--corpus", str(corpus_path),
                   "--from", "1", "--to", "2", "--k", "2", "--seed", "0",
                   "--max-iter", "25", "--format", "csv",
                   "--out", str(sweep_path)) == 0
        lines = sweep_path.read_text().splitlines()
        assert lines[0] == "max_ngram_len,precision,recall,f1"
        assert len(lines) == 3


    def test_sweep_honours_feature_flags(self, tmp_path):
        corpus_path = tmp_path / "train.tsv"
        write_iob_tsv(generate_labeled_corpus(40, seed=3), corpus_path)
        common = ["--corpus", str(corpus_path), "--k", "2", "--seed", "0",
                  "--max-iter", "30", "--format", "csv"]
        flags = ["--l2", "50", "--window", "0", "--no-pos", "--no-shape"]

        def last_f1(*argv):
            out = tmp_path / "out.csv"
            assert run("ner", *argv, *common, "--out", str(out)) == 0
            with open(out, newline="") as handle:
                return list(csv.DictReader(handle))[-1]["f1"]

        flagged = last_f1("sweep", "--from", "2", "--to", "2", *flags)
        assert flagged == last_f1("eval", "--max-ngram", "2", *flags)
        assert flagged != last_f1("sweep", "--from", "2", "--to", "2")


class TestPlotData:
    def test_activity_report(self, tmp_path):
        from outbreakminer.cli import emit_plot_data

        report = {"kind": "activity", "days": [
            {"date": "2014-03-29", "count": 4},
            {"date": "2014-03-30", "count": 0},
        ]}
        dst = tmp_path / "activity.csv"
        emit_plot_data(report, str(dst))
        assert dst.read_text() == (
            "x,series,value\n"
            "2014-03-29,revisions,4\n"
            "2014-03-30,revisions,0\n"
        )

    def test_sweep_rows_shape(self, tmp_path):
        from outbreakminer.cli import emit_plot_data
        from outbreakminer.nereval import SweepRow

        rows = [SweepRow(i, 0.8, 0.7, 0.75) for i in range(1, 13)]
        dst = tmp_path / "sweep.csv"
        emit_plot_data(rows, str(dst))
        lines = dst.read_text().splitlines()
        assert len(lines) == 1 + 12 * 3  # 12 rows per metric column

    def test_eval_csv_format(self, tmp_path):
        corpus_path = tmp_path / "c.tsv"
        corpus = []
        for i in range(8):
            corpus.append([
                LabeledToken(str(i), "NUM", "B-DEATHS"),
                LabeledToken("deaths", "NOUN", "I-DEATHS"),
            ])
            corpus.append([LabeledToken("calm", "OTHER", "O")])
        write_iob_tsv(corpus, corpus_path)
        out = tmp_path / "eval.csv"
        assert run("ner", "eval", "--corpus", str(corpus_path), "--k", "2",
                   "--seed", "0", "--max-iter", "30", "--format", "csv",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,precision,recall,f1,support"
        assert lines[-1].startswith("aggregate,")


class TestReportCommand:
    def test_rmse_report_to_plot_csv(self, tmp_path):
        report = {
            "kind": "rmse_report",
            "per_revision": [
                {"revision_id": rev, "country": country, "metric": metric,
                 "rmse": 1.0}
                for rev in (1, 2, 3)
                for country in ("Guinea", "Liberia")
                for metric in ("cases", "deaths")
            ],
            "mean_per_country": [],
            "gaps": [],
            "revisions": [],
        }
        src = tmp_path / "report.json"
        src.write_text(json.dumps(report))
        dst = tmp_path / "plot.csv"
        assert run("report", "--in", str(src), "--out", str(dst)) == 0
        lines = dst.read_text().splitlines()
        assert lines[0] == "x,series,value"
        # 2 countries x 3 revisions -> 6 rows per metric.
        assert sum(1 for l in lines[1:] if "/cases" in l) == 6
        assert sum(1 for l in lines[1:] if "/deaths" in l) == 6

    def test_empty_report_header_only(self, tmp_path):
        src = tmp_path / "report.json"
        src.write_text(json.dumps({"kind": "rmse_report", "per_revision": [],
                                   "mean_per_country": [], "gaps": [],
                                   "revisions": []}))
        dst = tmp_path / "plot.csv"
        assert run("report", "--in", str(src), "--out", str(dst)) == 0
        assert dst.read_text() == "x,series,value\n"

    @pytest.mark.parametrize("payload", [
        [], 3, {"kind": "rmse_report"}, {"kind": "nope"},
    ])
    def test_malformed_report_is_domain_error(self, tmp_path, capsys, payload):
        src = tmp_path / "report.json"
        src.write_text(json.dumps(payload))
        assert run("report", "--in", str(src), "--out", str(tmp_path / "plot.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(src) in err
        assert "Traceback" not in err


class TestCacheDiscipline:
    def test_only_fetch_mutates_cache(self, seeded_cache_dir, tmp_path,
                                      ground_truth_path):
        before = tree_digest(seeded_cache_dir)
        run("tables", "extract", "--cache", str(seeded_cache_dir),
            "--title", "Example outbreak", "--out", str(tmp_path / "raw.json"))
        run("corpus", "build", "--cache", str(seeded_cache_dir),
            "--title", "Example outbreak", "--out", str(tmp_path / "c.tsv"))
        run("rmse", "--cache", str(seeded_cache_dir), "--title", "Example outbreak",
            "--truth", str(ground_truth_path), "--out", str(tmp_path / "r.csv"),
            "--summary", str(tmp_path / "s.csv"))
        assert tree_digest(seeded_cache_dir) == before

    def test_env_var_overrides_cache_flag(self, seeded_cache_dir, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("OUTBREAK_CACHE_DIR", str(seeded_cache_dir))
        out = tmp_path / "raw.json"
        # --cache points nowhere; the environment wins.
        assert run("tables", "extract", "--cache", str(tmp_path / "nonexistent"),
                   "--title", "Example outbreak", "--out", str(out)) == 0
        assert json.loads(out.read_text())


class TestImportGraph:
    @pytest.mark.parametrize("module, heavy", [
        ("outbreakminer.cli", []),
        ("outbreakminer.ingest", []),
        ("outbreakminer.crf", ["numpy"]),
    ], ids=["cli", "ingest", "crf"])
    def test_module_loads_only_what_it_runs(self, module, heavy):
        # Only ner commands need numpy, only fetch needs requests, and no
        # command needs scipy.
        code = (f"import sys, {module}; "
                "print(*sorted({'numpy', 'scipy', 'requests'} & sys.modules.keys()))")
        env = dict(os.environ, PYTHONPATH=str(Path(outbreakminer.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.split() == heavy


    def test_training_and_ner_eval_load_no_scipy(self, tmp_path):
        corpus = tmp_path / "corpus.tsv"
        write_iob_tsv(generate_labeled_corpus(12, seed=3), corpus)
        code = (
            "import sys\n"
            "from outbreakminer import crf\n"
            "from outbreakminer.cli import main\n"
            "from outbreakminer.corpus import LabeledToken\n"
            "toy = [[LabeledToken('the', 'DET', 'O'), LabeledToken('x', 'OTHER', 'O'),\n"
            "        LabeledToken('died', 'VERB', 'B-DEATHS')]] * 4\n"
            "crf.train(toy, crf.FeatureConfig(), max_iter=20)\n"
            f"assert main(['ner', 'eval', '--corpus', {str(corpus)!r}, '--k', '2',\n"
            f"             '--max-iter', '10', '--out', {str(tmp_path / 'eval.json')!r}]) == 0\n"
            "print('scipy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(outbreakminer.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.split() == ["False"]
        assert json.loads((tmp_path / "eval.json").read_text())["aggregate"]


# Each route's argv (with {placeholders} for the test's paths) and the
# modules it must not load: the table routes never touch the corpus or the
# tagger, the corpus and ner routes never touch timeseries (nor, apart from
# corpus build, the revision cache), and a sequential ner eval starts no
# process pool.
_ROUTES = {
    "rmse": (["rmse", "--cache", "{cache}", "--title", "Example outbreak",
              "--truth", "{truth}", "--out", "{out}/rmse.csv"],
             ["outbreakminer.corpus", "outbreakminer.crf", "numpy"]),
    "tables-extract": (["tables", "extract", "--cache", "{cache}", "--title",
                        "Example outbreak", "--out", "{out}/raw.json"],
                       ["outbreakminer.corpus", "outbreakminer.crf", "numpy"]),
    "tables-parse": (["tables", "--in", "{wiki}", "--out", "{out}/tables.json"],
                     ["outbreakminer.corpus", "outbreakminer.ingest",
                      "outbreakminer.timeseries"]),
    "clean": (["clean", "--in", "{wiki}", "--out", "{out}/page.txt"],
              ["outbreakminer.corpus", "outbreakminer.ingest", "outbreakminer.timeseries"]),
    "corpus-build": (["corpus", "build", "--cache", "{cache}", "--title",
                      "Example outbreak", "--out", "{out}/corpus.tsv"],
                     ["outbreakminer.timeseries", "outbreakminer.crf", "numpy"]),
    "corpus-kappa": (["corpus", "kappa", "--a", "{corpus}", "--b", "{corpus}"],
                     ["outbreakminer.timeseries", "outbreakminer.ingest"]),
    "ner-tag": (["ner", "tag", "--model", "{model}", "--in", "{wiki}",
                 "--out", "{out}/spans.json"],
                ["outbreakminer.timeseries", "outbreakminer.ingest",
                 "concurrent.futures.process"]),
    "ner-eval": (["ner", "eval", "--corpus", "{corpus}", "--k", "2", "--max-iter", "5",
                  "--out", "{out}/eval.json"],
                 ["outbreakminer.timeseries", "outbreakminer.ingest",
                  "concurrent.futures.process", "multiprocessing"]),
}


class TestRouteImports:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory, fixture_records, ground_truth_path):
        from outbreakminer.crf import FeatureConfig, save_model, train

        root = tmp_path_factory.mktemp("routes")
        cache = RevisionCache(root / "cache")
        for record in fixture_records:
            cache.put_record("Example outbreak", record)
        corpus = generate_labeled_corpus(12, seed=3)
        write_iob_tsv(corpus, root / "corpus.tsv")
        save_model(train(corpus, FeatureConfig(max_ngram_len=2), max_iter=5), root / "model.tsv")
        (root / "page.wiki").write_text(
            "Officials said [[Guinea|12]] people died.\n{|\n! Date !! Guinea cases\n"
            "|-\n| 1 July 2014 || 5\n|}\n", encoding="utf-8")
        return {"cache": root / "cache", "truth": ground_truth_path, "wiki": root / "page.wiki",
                "corpus": root / "corpus.tsv", "model": root / "model.tsv", "out": root}

    @pytest.mark.parametrize("route", sorted(_ROUTES))
    def test_route_loads_only_what_it_runs(self, route, paths):
        template, absent = _ROUTES[route]
        argv = [arg.format(**paths) for arg in template]
        code = ("import sys\n"
                "from outbreakminer.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                f"print(sorted({set(absent)!r} & sys.modules.keys()))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(outbreakminer.__file__).parents[1]))
        env.pop("OUTBREAK_CACHE_DIR", None)
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.splitlines()[-1] == "[]"


class TestDeterminism:
    def test_fixture_pipeline_byte_identical(self, fixture_records, tmp_path,
                                             ground_truth_path):
        def run_pipeline(workdir: Path) -> dict:
            cache = RevisionCache(workdir / "cache")
            for record in fixture_records:
                cache.put_record("Example outbreak", record)
            outdir = workdir / "out"
            outdir.mkdir()
            steps = [
                ("corpus", "build", "--cache", str(workdir / "cache"),
                 "--title", "Example outbreak", "--out", str(outdir / "corpus.tsv")),
                ("ner", "train", "--corpus", str(outdir / "corpus.tsv"),
                 "--max-ngram", "2", "--max-iter", "30",
                 "--out", str(outdir / "model.tsv")),
                ("ner", "eval", "--corpus", str(outdir / "corpus.tsv"),
                 "--k", "3", "--seed", "5", "--max-iter", "30",
                 "--out", str(outdir / "eval.json")),
                ("tables", "extract", "--cache", str(workdir / "cache"),
                 "--title", "Example outbreak", "--out", str(outdir / "raw.json")),
                ("rmse", "--cache", str(workdir / "cache"),
                 "--title", "Example outbreak", "--truth", str(ground_truth_path),
                 "--from", "2014-06-30", "--out", str(outdir / "rmse.csv"),
                 "--summary", str(outdir / "summary.csv"),
                 "--out-json", str(outdir / "report.json")),
            ]
            for step in steps:
                assert run(*step) == 0, step
            return tree_digest(outdir)

        first = run_pipeline(tmp_path / "run1")
        second = run_pipeline(tmp_path / "run2")
        assert first == second

    def test_ner_train_model_identical_across_blas_threads(self, tmp_path):
        # Threaded BLAS reductions round differently per thread count, so
        # this holds only because the package pins BLAS to one thread.
        corpus = tmp_path / "corpus.tsv"
        write_iob_tsv(generate_labeled_corpus(90, seed=5), corpus)
        models = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(outbreakminer.__file__).parents[1]))
            model = tmp_path / f"model{threads}.tsv"
            subprocess.run(
                [sys.executable, "-m", "outbreakminer.cli", "ner", "train",
                 "--corpus", str(corpus), "--max-iter", "40", "--out", str(model)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            models.append(model.read_bytes())
        assert models[0] == models[1]


# ---------------------------------------------------------------------------
# every failure on a damaged input is one named error line
# ---------------------------------------------------------------------------

_TITLE = "Example outbreak"
_FETCH = ["fetch", "--title", _TITLE, "--cache", "{root}/cache"]
_RMSE = ["rmse", "--cache", "{root}/cache", "--title", _TITLE, "--truth", "{root}/truth.csv",
         "--out", "{root}/out.csv"]
_BUILD = ["corpus", "build", "--cache", "{root}/cache", "--title", _TITLE,
          "--out", "{root}/out.tsv"]
_SCORE = ["tables", "rmse", "--in", "{root}/series.json", "--truth", "{root}/truth.csv",
          "--out", "{root}/out.csv", "--out-json", "{root}/out.json"]
_TAG = ["ner", "tag", "--model", "{root}/model.tsv", "--in", "{root}/page.wiki",
        "--out", "{root}/out.json"]

# Each input kind the CLI reads: its file, whether it is JSON, the separator
# of its fields, and the runs that read it. A fetch whose index no longer
# answers the query asks the test's offline API.
_KINDS = {
    "cache-record": ("cache/Example%20outbreak/105.json", True, None, [_RMSE, _BUILD]),
    "index": ("cache/Example%20outbreak/index.json", True, None, [_FETCH]),
    "series": ("series.json", True, None,
               [["tables", "interpolate", "--in", "{root}/series.json",
                 "--out", "{root}/out.json"], _SCORE]),
    "report": ("report.json", True, None,
               [["report", "--in", "{root}/report.json", "--out", "{root}/out.csv"]]),
    "model": ("model.tsv", False, "\t", [_TAG]),
    "long-truth": ("truth.csv", False, ",", [_SCORE]),
    "wide-truth": ("wide.csv", False, ",",
                   [["tables", "import-truth", "--in", "{root}/wide.csv",
                     "--out", "{root}/out.csv"]]),
    "iob": ("corpus.tsv", False, "\t",
            [["corpus", "kappa", "--a", "{root}/corpus.tsv", "--b", "{root}/corpus-b.tsv"],
             ["ner", "train", "--corpus", "{root}/corpus.tsv", "--out", "{root}/out.tsv",
              "--max-iter", "3"]]),
    "wikitext": ("page.wiki", False, "|",
                 [["clean", "--in", "{root}/page.wiki", "--out", "{root}/out.txt"],
                  ["tables", "--in", "{root}/page.wiki", "--out", "{root}/out.json"], _TAG]),
}

_OTHER_TYPES = [None, True, 0, -1, 1.5, 1e308, "", "x", "2014-13-45", [], ["x"], {}, {"x": 1}]
_OTHER_CELLS = ["", "x", "0", "-1", "1e308", "nan", "2014-13-45", "B-CASES"]
_DEEP = "\x01deep\x01"  # stands for the nested lists until the document is serialized
_DAMAGES = ["truncate", "delete-line", "swap-type", "not-utf8", "nul", "deep"]


def _damage(kind: str, damage: str, data: bytes, draw) -> bytes:
    """The file's bytes with one damage, placed by draws."""
    _, is_json, separator, _ = _KINDS[kind]
    at = draw(st.integers(0, len(data)))
    if damage == "truncate":
        return data[:at]
    if damage == "not-utf8":
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    if damage == "nul":
        return data[:at] + b"\x00" + data[at:]
    depth = draw(st.sampled_from([3, 100_000]))
    if damage == "deep" and not is_json:
        return data[:at] + b"[" * depth + data[at:]
    lines = data.split(b"\n")
    line = draw(st.integers(0, len(lines) - 1))
    if damage == "delete-line":
        return b"\n".join(lines[:line] + lines[line + 1:])
    if not is_json:  # swap one field of one line
        fields = lines[line].split(separator.encode())
        field = draw(st.integers(0, len(fields) - 1))
        fields[field] = draw(st.sampled_from(
            [cell for cell in _OTHER_CELLS if cell.encode() != fields[field]])).encode()
        lines[line] = separator.encode().join(fields)
        return b"\n".join(lines)
    try:
        document = json.loads(data)
    except (ValueError, RecursionError):
        return data
    nodes = [(None, None)]  # (container, key) of every value, the root first
    stack = [document] if isinstance(document, (dict, list)) else []
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            nodes.append((node, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    container, key = draw(st.sampled_from(nodes))
    old = document if container is None else container[key]
    new = _DEEP if damage == "deep" else draw(st.sampled_from(
        [value for value in _OTHER_TYPES if type(value) is not type(old)]))
    if container is None:
        document = new
    else:
        container[key] = new
    text = json.dumps(document).replace(json.dumps(_DEEP), "[" * depth + "]" * depth)
    return text.encode()


def _unreadable(kind: str, data: bytes) -> bool:
    """Whether the bytes are not UTF-8, or not JSON for a JSON kind."""
    try:
        text = data.decode("utf-8")
        if _KINDS[kind][1]:
            json.loads(text)
    except (ValueError, RecursionError):
        return True
    return False


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, fixture_records, ground_truth_path, rivers_sample_path):
    """A directory with one valid file of each kind."""
    from outbreakminer.crf import FeatureConfig, save_model, train

    root = tmp_path_factory.mktemp("pristine")
    cache = RevisionCache(root / "cache")
    for record in fixture_records:
        cache.put_record(_TITLE, record)
    cache.save_index(_TITLE, {"article_title": _TITLE, "queries": {"*..*": {
        "revision_ids": [record["revid"] for record in fixture_records],
        "skipped_suppressed": 0, "fetched_at": "2014-08-01T00:00:00Z"}}})
    (root / "truth.csv").write_bytes(ground_truth_path.read_bytes())
    (root / "wide.csv").write_bytes(rivers_sample_path.read_bytes())
    assert main(["tables", "extract", "--cache", str(root / "cache"), "--title", _TITLE,
                 "--out", str(root / "series.json")]) == 0
    assert main(["tables", "rmse", "--in", str(root / "series.json"),
                 "--truth", str(root / "truth.csv"), "--out-json", str(root / "report.json")]) == 0
    corpus = generate_labeled_corpus(4, seed=3)
    write_iob_tsv(corpus, root / "corpus.tsv")
    write_iob_tsv(corpus, root / "corpus-b.tsv")
    save_model(train(corpus, FeatureConfig(max_ngram_len=1, window=1), max_iter=3),
               root / "model.tsv")
    (root / "page.wiki").write_text(
        "Officials said [[Guinea|12]] people died.\n{|\n! Date !! Guinea cases\n"
        "|-\n| 1 July 2014 || 5\n|}\n", encoding="utf-8")
    return root


def _offline(endpoint):
    """A wiki API that reports every article missing."""
    return lambda params: {"query": {"pages": [{"missing": True}]}}


class TestDamagedInputs:
    """A damaged input never ends in a traceback: a run exits 0, or exits 1 with
    one last `error:` line, which names the file when it is not UTF-8 or not JSON."""

    @pytest.mark.parametrize("damage", _DAMAGES)
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    @given(data=st.data())
    @settings(max_examples=5, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_failure_is_one_named_error_line(self, pristine, tmp_path_factory, kind, damage,
                                             data):
        relative, _, _, runs = _KINDS[kind]
        body = _damage(kind, damage, (pristine / relative).read_bytes(), data.draw)
        if data.draw(st.booleans()):
            body = _damage(kind, data.draw(st.sampled_from(_DAMAGES)), body, data.draw)
        argv = data.draw(st.sampled_from(runs))
        root = tmp_path_factory.mktemp("damaged")
        shutil.copytree(pristine, root, dirs_exist_ok=True)
        path = root / relative
        path.write_bytes(body)
        err = io.StringIO()
        with mock.patch.object(ingest_mod, "_default_get_json", _offline), \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([arg.format(root=root) for arg in argv])
        shutil.rmtree(root)
        lines = err.getvalue().splitlines()
        errors = [line for line in lines if line.startswith("error: ")]
        if code == 0:
            assert not errors and not _unreadable(kind, body)
            return
        assert code == 1 and errors == lines[-1:]
        if _unreadable(kind, body):
            assert str(path) in errors[0]
