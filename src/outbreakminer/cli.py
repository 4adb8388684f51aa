"""Command-line entry point: one command, subcommands per pipeline stage.

Exit codes: 0 success, 1 domain error (bad input data, missing article,
unreadable files), 2 usage error. Diagnostics go to stderr; data goes to
files or stdout. Every subcommand is reproducible given identical inputs
and flags, and only ``fetch`` ever writes to the cache.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from datetime import date, datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ModelFormatError, OutbreakError
from .textio import open_text, read_json, read_text

# Each handler imports the layers it runs, so a command loads only those.
if TYPE_CHECKING:
    from .timeseries import RevisionSeries


class _UsageError(Exception):
    """Flag combination argparse cannot express; maps to exit code 2."""


def _resolve_cache_dir(args) -> Path:
    # OUTBREAK_CACHE_DIR overrides --cache when set.
    env = os.environ.get("OUTBREAK_CACHE_DIR")
    if env:
        return Path(env)
    if getattr(args, "cache", None) is None:
        raise _UsageError("a cache directory is required (--cache or OUTBREAK_CACHE_DIR)")
    return Path(args.cache)


def _parse_instant(text: str) -> datetime:
    try:
        value = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise _UsageError(f"bad instant {text!r}; use ISO-8601") from None
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return value


def _parse_day(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise _UsageError(f"bad date {text!r}; use YYYY-MM-DD") from None


def _output(destination: str | None):
    """stdout for None or "-", otherwise the path."""
    return sys.stdout if destination in (None, "-") else destination


def _write_json(payload, destination: str | None) -> None:
    with open_text(_output(destination), "w", newline=None) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


@contextmanager
def _csv_writer(destination: str | None):
    """A csv.writer on stdout for None or "-", otherwise on a file it closes."""
    with open_text(_output(destination), "w", newline="") as handle:
        yield csv.writer(handle, lineterminator="\n")


def _sweep_report(rows: list) -> dict:
    return {"kind": "sweep_report", "rows": [asdict(row) for row in rows]}


# ---------------------------------------------------------------------------
# plot data emission
# ---------------------------------------------------------------------------

def emit_plot_data(report, destination) -> None:
    """Write a tidy long-format CSV (x, series, value) for any report kind."""
    if hasattr(report, "to_dict"):
        report = report.to_dict()
    if isinstance(report, list):  # sweep rows
        report = _sweep_report(report)
    kind = report.get("kind")
    rows: list[tuple] = []
    if kind == "sweep_report":
        for metric in ("precision", "recall", "f1"):
            for row in report["rows"]:
                rows.append((row["max_ngram_len"], metric, row[metric]))
    elif kind == "metrics_report":
        for metric in ("precision", "recall", "f1"):
            for label in sorted(report["per_label"]):
                rows.append((label, metric, report["per_label"][label][metric]))
            rows.append(("aggregate", metric, report["aggregate"][metric]))
    elif kind == "rmse_report":
        for entry in report["per_revision"]:
            rows.append((
                entry["revision_id"],
                f"{entry['country']}/{entry['metric']}",
                entry["rmse"],
            ))
    elif kind == "activity":
        for day in report["days"]:
            rows.append((day["date"], "revisions", day["count"]))
    else:
        raise ValueError(f"unknown report kind {kind!r}")
    with _csv_writer(destination) as writer:
        writer.writerow(["x", "series", "value"])
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_fetch(args) -> int:
    from .ingest import RevisionCache, RevisionQuery, fetch_revisions, revision_activity

    cache = RevisionCache(_resolve_cache_dir(args))
    query = RevisionQuery(
        article_title=args.title,
        start=_parse_instant(args.start) if args.start else None,
        end=_parse_instant(args.end) if args.end else None,
        api_endpoint=args.endpoint,
    )
    revisions = fetch_revisions(query, cache)
    print(f"{len(revisions)} revisions for {args.title!r}", file=sys.stderr)
    if args.activity_out:
        activity = revision_activity(revisions)
        report = {
            "kind": "activity",
            "days": [
                {"date": day.isoformat(), "count": count}
                for day, count in sorted(activity.items())
            ],
        }
        emit_plot_data(report, args.activity_out)
    return 0


def cmd_clean(args) -> int:
    from .wikitext import strip_markup

    cleaned = strip_markup(read_text(args.input), remove_tables=not args.keep_tables)
    with open_text(args.output, "w", newline=None) as handle:
        handle.write(cleaned)
    return 0


def cmd_tables(args) -> int:
    if args.tables_cmd == "extract":
        return _tables_extract(args)
    if args.tables_cmd == "interpolate":
        return _tables_interpolate(args)
    if args.tables_cmd == "rmse":
        return _tables_rmse(args)
    if args.tables_cmd == "import-truth":
        from .timeseries import import_rivers_ground_truth

        written = import_rivers_ground_truth(args.input, args.output)
        print(f"wrote {written} ground-truth rows", file=sys.stderr)
        return 0
    if not args.input or not args.output:
        raise _UsageError("tables: --in and --out are required (or use a subcommand)")
    from .wikitext import parse_tables

    tables = parse_tables(read_text(args.input))
    _write_json([{"header": t.header, "rows": t.rows} for t in tables], args.output)
    return 0


def _load_revision_series(path: str) -> list[RevisionSeries]:
    from .timeseries import revision_series_from_dict

    data = read_json(path)
    try:
        return [revision_series_from_dict(item) for item in data]
    except (LookupError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        problem = f"{type(exc).__name__}: {exc}"
        raise OutbreakError(f"{path}: malformed revision series ({problem})") from None


def _dump_revision_series(sets: list[RevisionSeries], destination: str | None) -> None:
    from .timeseries import revision_series_to_dict

    _write_json([revision_series_to_dict(rev) for rev in sets], destination)


def _cached_revisions(args) -> list:
    """The article's cached revisions; none cached is a domain error."""
    from .ingest import RevisionCache, load_cached_revisions

    revisions = load_cached_revisions(RevisionCache(_resolve_cache_dir(args)), args.title)
    if not revisions:
        raise OutbreakError(f"no cached revisions for {args.title!r}; run fetch first")
    return revisions


def _tables_extract(args) -> int:
    from .timeseries import extract_revision_series

    sets = extract_revision_series(_cached_revisions(args), interpolate=False)
    _dump_revision_series(sets, args.output)
    print(f"extracted series from {len(sets)} revisions", file=sys.stderr)
    return 0


def _tables_interpolate(args) -> int:
    from .timeseries import interpolate_daily

    sets = _load_revision_series(args.input)
    for rev in sets:
        rev.series = [interpolate_daily(s) for s in rev.series]
    _dump_revision_series(sets, args.output)
    return 0


def _score_rmse(sets: list[RevisionSeries], args) -> int:
    """Dedup, score against ground truth, write the outputs; returns unique sets."""
    from . import timeseries as ts_mod

    unique = ts_mod.dedup_series(sets)
    truth = ts_mod.load_ground_truth(args.truth)
    start = _parse_day(args.start_from) if args.start_from else None
    report = ts_mod.rmse_report(unique, truth, start=start)
    timestamps = dict(report.revisions)
    if args.output:
        with _csv_writer(args.output) as writer:
            writer.writerow(["revision_id", "timestamp", "country", "metric", "rmse"])
            for (rev, country, metric), value in sorted(report.per_revision.items()):
                writer.writerow([rev, timestamps.get(rev, ""), country, metric,
                                 repr(value)])
    if args.summary:
        with _csv_writer(args.summary) as writer:
            writer.writerow(["country", "metric", "mean_rmse"])
            for (country, metric), value in sorted(report.mean_per_country.items()):
                writer.writerow([country, metric, repr(value)])
    if args.out_json:
        _write_json(report.to_dict(), args.out_json)
    for country, metric in report.gaps:
        print(f"no ground truth for ({country}, {metric})", file=sys.stderr)
    return len(unique)


def _tables_rmse(args) -> int:
    _score_rmse(_load_revision_series(args.input), args)
    return 0


def cmd_rmse(args) -> int:
    from .timeseries import extract_revision_series

    sets = extract_revision_series(_cached_revisions(args))
    unique = _score_rmse(sets, args)
    print(f"{len(sets)} revisions with tables, {unique} unique series sets", file=sys.stderr)
    return 0


def cmd_corpus(args) -> int:
    from . import corpus as corpus_mod

    if args.corpus_cmd == "build":
        sentences = corpus_mod.build_corpus(_cached_revisions(args), threshold=args.threshold)
        corpus_mod.write_iob_tsv(sentences, args.output)
        print(f"wrote {len(sentences)} sentences", file=sys.stderr)
        return 0
    if args.corpus_cmd == "kappa":
        first = corpus_mod.read_iob_tsv(args.a, strict=False)
        second = corpus_mod.read_iob_tsv(args.b, strict=False)
        labels_a = [tok.label for sent in first for tok in sent]
        labels_b = [tok.label for sent in second for tok in sent]
        if len(labels_a) != len(labels_b):
            raise OutbreakError(
                f"annotation files disagree on token count: {len(labels_a)} vs {len(labels_b)}"
            )
        table = corpus_mod.AgreementTable.from_annotations(labels_a, labels_b)
        print(f"{corpus_mod.cohen_kappa(table):.6f}")
        return 0
    raise _UsageError("corpus: choose a subcommand (build or kappa)")


def _feature_config(args):
    from .crf import FeatureConfig
    return FeatureConfig(
        max_ngram_len=args.max_ngram,
        window=args.window,
        use_pos=not args.no_pos,
        use_shape=not args.no_shape,
        l2_lambda=args.l2,
    )


def cmd_ner(args) -> int:
    # Only ner trains or decodes, so only ner pays for loading numpy.
    from . import corpus as corpus_mod
    from . import crf as crf_mod
    from . import nereval

    if args.ner_cmd == "train":
        dataset = corpus_mod.read_iob_tsv(args.corpus, strict=args.strict)
        model = crf_mod.train(dataset, _feature_config(args), max_iter=args.max_iter)
        crf_mod.save_model(model, args.output)
        print(
            f"trained on {len(dataset)} sentences; {model.n_features} features",
            file=sys.stderr,
        )
        return 0
    if args.ner_cmd == "tag":
        import numpy as np

        from .wikitext import split_sentences

        model = crf_mod.load_model(args.model)
        output = []
        # Finite weights can overflow a path score, and labels picked from inf or nan mean nothing.
        try:
            with np.errstate(over="raise", invalid="raise"):
                for sentence in split_sentences(read_text(args.input)):
                    pos = corpus_mod.pos_tag(sentence.tokens)
                    result = crf_mod.viterbi(model, sentence.tokens, pos, constrain_iob=True)
                    output.append({
                        "tokens": sentence.tokens,
                        "labels": result.labels,
                        "spans": [
                            {
                                "type": ent,
                                "start": start,
                                "end": end,
                                "text": " ".join(sentence.tokens[start:end + 1]),
                            }
                            for ent, start, end in result.spans
                        ],
                    })
        except FloatingPointError as exc:
            raise ModelFormatError(f"{args.model}: weights overflow in decoding ({exc})") from None
        _write_json(output, args.output)
        return 0
    if args.ner_cmd == "eval":
        dataset = corpus_mod.read_iob_tsv(args.corpus, strict=args.strict)
        report = nereval.cross_validate(
            dataset, _feature_config(args), k=args.k, seed=args.seed,
            max_iter=args.max_iter, n_jobs=args.jobs,
        )
        if args.format == "csv":
            with _csv_writer(args.output) as writer:
                writer.writerow(["label", "precision", "recall", "f1", "support"])
                for label in sorted(report.per_label):
                    m = report.per_label[label]
                    writer.writerow([label, repr(m.precision), repr(m.recall),
                                     repr(m.f1), m.support])
                writer.writerow(["aggregate", repr(report.aggregate[0]),
                                 repr(report.aggregate[1]), repr(report.aggregate[2]), ""])
        else:
            _write_json(report.to_dict(), args.output)
        p, r, f1 = report.aggregate
        print(f"P {p:.3f} R {r:.3f} F1 {f1:.3f} ({report.folds}-fold)", file=sys.stderr)
        return 0
    if args.ner_cmd == "sweep":
        dataset = corpus_mod.read_iob_tsv(args.corpus, strict=args.strict)
        rows = nereval.sweep_ngram(
            dataset, args.k, args.seed,
            ngram_values=range(args.from_cap, args.to_cap + 1),
            config=_feature_config(args), max_iter=args.max_iter, n_jobs=args.jobs,
        )
        if args.format == "csv":
            with _csv_writer(args.output) as writer:
                writer.writerow(["max_ngram_len", "precision", "recall", "f1"])
                for row in rows:
                    writer.writerow([row.max_ngram_len, repr(row.precision),
                                     repr(row.recall), repr(row.f1)])
        else:
            _write_json(_sweep_report(rows), args.output)
        return 0
    raise _UsageError("ner: choose a subcommand (train, tag, eval, sweep)")


def cmd_report(args) -> int:
    payload = read_json(args.input)
    if not isinstance(payload, dict):
        raise OutbreakError(f"{args.input}: a report must be a JSON object with a \"kind\"")
    try:
        emit_plot_data(payload, args.output)
    except ValueError as exc:  # an unknown kind
        raise OutbreakError(f"{args.input}: {exc}") from None
    except (LookupError, TypeError) as exc:
        raise OutbreakError(
            f"{args.input}: {payload.get('kind')!r} report has a missing or mistyped "
            f"field ({type(exc).__name__}: {exc})"
        ) from None
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outbreak",
        description="Mine case/death/hospitalization data from wiki outbreak articles.",
    )
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for fold training (default sequential)")
    sub = parser.add_subparsers(dest="command", required=True)

    # Option groups shared by several subcommands.
    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument("--cache")
    cached.add_argument("--title", required=True)
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--truth", required=True)
    scoring.add_argument("--from", dest="start_from")
    scoring.add_argument("--summary")
    scoring.add_argument("--out-json")

    p = sub.add_parser("fetch", help="download an article's revision history into the cache")
    p.add_argument("--title", required=True)
    p.add_argument("--start")
    p.add_argument("--end")
    p.add_argument("--cache", help="cache directory (OUTBREAK_CACHE_DIR overrides)")
    p.add_argument("--endpoint", default="https://en.wikipedia.org/w/api.php")
    p.add_argument("--activity-out", help="write revisions-per-day CSV here")
    p.set_defaults(handler=cmd_fetch)

    p = sub.add_parser("clean", help="strip wiki markup from a file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--keep-tables", action="store_true")
    p.set_defaults(handler=cmd_clean)

    p = sub.add_parser("tables", help="parse, extract, interpolate, or score tables")
    p.add_argument("--in", dest="input")
    p.add_argument("--out", dest="output")
    tsub = p.add_subparsers(dest="tables_cmd")
    # A subcommand's --in/--out only sets what it is given, so the same
    # option given before the subcommand is not reset to a default.
    keep = argparse.SUPPRESS
    q = tsub.add_parser("extract", help="per-revision series from cached revisions",
                        parents=[cached])
    q.add_argument("--out", dest="output", default=keep)
    q = tsub.add_parser("interpolate", help="fill series to daily granularity")
    q.add_argument("--in", dest="input", required=True, default=keep)
    q.add_argument("--out", dest="output", default=keep)
    q = tsub.add_parser("rmse", help="score extracted series against ground truth",
                        parents=[scoring])
    q.add_argument("--in", dest="input", required=True, default=keep)
    q.add_argument("--out", dest="output", default=keep)
    q = tsub.add_parser("import-truth", help="normalize a Rivers-style wide CSV")
    q.add_argument("--in", dest="input", required=True, default=keep)
    q.add_argument("--out", dest="output", required=True, default=keep)
    p.set_defaults(handler=cmd_tables, tables_cmd=None)

    p = sub.add_parser("corpus", help="build a training corpus or measure agreement")
    csub = p.add_subparsers(dest="corpus_cmd")
    q = csub.add_parser("build", help="diff cached revisions into an IOB TSV corpus",
                        parents=[cached])
    q.add_argument("--threshold", type=float, default=0.75)
    q.add_argument("--out", dest="output", required=True)
    q = csub.add_parser("kappa", help="Cohen's kappa between two annotation files")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    p.set_defaults(handler=cmd_corpus, corpus_cmd=None)

    p = sub.add_parser("ner", help="train, tag, evaluate, or sweep the tagger")
    nsub = p.add_subparsers(dest="ner_cmd")

    def add_feature_flags(q):
        q.add_argument("--max-ngram", type=int, default=6)
        q.add_argument("--window", type=int, default=2)
        q.add_argument("--no-pos", action="store_true")
        q.add_argument("--no-shape", action="store_true")
        q.add_argument("--l2", type=float, default=0.1)
        q.add_argument("--max-iter", type=int, default=150)
        q.add_argument("--strict", action="store_true",
                       help="reject dangling I-X labels instead of repairing")

    q = nsub.add_parser("train")
    q.add_argument("--corpus", required=True)
    q.add_argument("--out", dest="output", required=True)
    add_feature_flags(q)
    q = nsub.add_parser("tag")
    q.add_argument("--model", required=True)
    q.add_argument("--in", dest="input", required=True)
    q.add_argument("--out", dest="output")
    q = nsub.add_parser("eval")
    q.add_argument("--corpus", required=True)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", dest="output")
    q.add_argument("--format", choices=["json", "csv"], default="json")
    add_feature_flags(q)
    q = nsub.add_parser("sweep")
    q.add_argument("--corpus", required=True)
    q.add_argument("--from", dest="from_cap", type=int, default=1)
    q.add_argument("--to", dest="to_cap", type=int, default=12)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", dest="output")
    q.add_argument("--format", choices=["json", "csv"], default="csv")
    add_feature_flags(q)
    p.set_defaults(handler=cmd_ner, ner_cmd=None)

    p = sub.add_parser("rmse", help="full table pipeline: cache -> RMSE report",
                       parents=[cached, scoring])
    p.add_argument("--out", dest="output")
    p.set_defaults(handler=cmd_rmse)

    p = sub.add_parser("report", help="convert a report JSON into tidy plot CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output")
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args) or 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OutbreakError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
