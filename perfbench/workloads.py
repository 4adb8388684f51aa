"""The four benchmark workloads: inputs, CLI job, output check, traced replay.

Each workload prepares its inputs from the seed (``prepare``), names the
``outbreak`` command line one timed job runs (``argv``), checks the first
job's outputs against what the generator knows (``check``), and replays
the job's pipeline through the package's functions with a span around
each call (``replay``, run in a fresh process by ``replay.py``).
``cli_result`` and ``replay`` return the same comparable value, so the
traced replay can be shown to do the work the CLI job did.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass
from pathlib import Path

from perfbench.fakeapi import FakeRevisionsApi
from perfbench.history import COUNTRIES, TITLE, HistorySpec, generate_history
from perfbench.spans import Tracer

F1_FLOOR = 0.90
DEDUP_THRESHOLD = 0.75


@dataclass
class Setup:
    spec: dict           # JSON-able job parameters, shared with the replay process
    facts: object        # what the generator knows, for the output check


def _job_dir(work: Path) -> Path:
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cache_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.glob("*.json") if p.name != "index.json")


# ---------------------------------------------------------------------------
# revision-history workloads
# ---------------------------------------------------------------------------

class _HistoryWorkload:
    history: HistorySpec

    def prepare(self, work: Path, seed: int, tracer: Tracer) -> Setup:
        from outbreakminer.ingest import RevisionCache, RevisionQuery, fetch_revisions

        history = generate_history(self.history, seed)
        out = _job_dir(work)
        truth = work / "truth.csv"
        truth.write_text(history.truth_csv(), encoding="utf-8")
        cache = RevisionCache(work / "cache")
        api = FakeRevisionsApi(TITLE, history.records)
        query = RevisionQuery(TITLE, min_request_interval_ms=0)
        with tracer.span("ingest.fetch_revisions", records=len(history.records)):
            fetch_revisions(query, cache, get_json=api)
        spec = {
            "cache": str(work / "cache"),
            "article_dir": str(cache.article_dir(TITLE)),
            "title": TITLE,
            "truth": str(truth),
            "out": str(out),
        }
        return Setup(spec, history)

    @staticmethod
    def _load(tracer: Tracer, spec: dict):
        from outbreakminer.ingest import RevisionCache, load_cached_revisions

        size = _cache_bytes(Path(spec["article_dir"]))
        with tracer.span("ingest.load_cached_revisions", bytes=size) as attrs:
            revisions = load_cached_revisions(RevisionCache(spec["cache"]), spec["title"])
        attrs["records"] = len(revisions)
        return revisions


class TablesRmse(_HistoryWorkload):
    """``outbreak rmse`` over a table-heavy history: parse_tables and timeseries."""

    name = "tables_rmse"
    outputs = ("rmse.csv", "summary.csv", "report.json")
    history = HistorySpec(revisions=64, final_kb=100, table_share=0.8, table_rows=36)

    def argv(self, setup):
        s = setup.spec
        return ["rmse", "--cache", s["cache"], "--title", s["title"], "--truth", s["truth"],
                "--out", f"{s['out']}/rmse.csv", "--summary", f"{s['out']}/summary.csv",
                "--out-json", f"{s['out']}/report.json"]

    def cli_result(self, outputs):
        return json.loads(outputs["report.json"])

    def check(self, setup, outputs) -> list[str]:
        history = setup.facts
        report = json.loads(outputs["report.json"])
        problems = []
        if report["gaps"]:
            problems.append(f"unexpected gaps {report['gaps']}")
        scored = {(e["revision_id"], e["country"], e["metric"]): e["rmse"]
                  for e in report["per_revision"]}
        revisions = [e["revision_id"] for e in report["revisions"]]
        if history.corrupted_revision not in revisions:
            problems.append(f"corrupted revision {history.corrupted_revision} not scored")
        for rev in revisions:
            for country in COUNTRIES:
                for metric in ("cases", "deaths"):
                    value = scored.get((rev, country, metric))
                    spike = rev == history.corrupted_revision and country in history.swapped
                    if value is None:
                        problems.append(f"no RMSE for {(rev, country, metric)}")
                    elif spike and not value > 0:
                        problems.append(f"no spike at {(rev, country, metric)}")
                    elif not spike and value != 0.0:
                        problems.append(f"RMSE {value} at {(rev, country, metric)}")
        csv_rows = list(csv.reader(io.StringIO(outputs["rmse.csv"].decode("utf-8"))))
        if len(csv_rows) - 1 != len(scored):
            problems.append(f"rmse.csv has {len(csv_rows) - 1} rows, report has {len(scored)}")
        return problems[:5]

    def replay(self, tracer: Tracer, spec: dict):
        from outbreakminer.timeseries import (
            DEFAULT_MAPPING, RevisionSeries, dedup_series, extract_series,
            interpolate_daily, load_ground_truth, rmse_report,
        )
        from outbreakminer.wikitext import parse_tables

        revisions = self._load(tracer, spec)
        sizes = [len(rev.wikitext.encode("utf-8")) for rev in revisions]
        sets = []
        with tracer.span("timeseries.extract_revision_series"):
            for rev, size in zip(revisions, sizes):
                with tracer.span("wikitext.parse_tables", bytes=size) as attrs:
                    tables = parse_tables(rev.wikitext, revision_id=rev.revision_id)
                attrs["tables"] = len(tables)
                attrs["cells"] = sum(len(t.header) * (1 + len(t.rows)) for t in tables)
                with tracer.span("timeseries.extract_series"):
                    series = extract_series(tables, DEFAULT_MAPPING, revision_id=rev.revision_id)
                if not series:
                    continue
                with tracer.span("timeseries.interpolate_daily") as attrs:
                    series = [interpolate_daily(s) for s in series]
                attrs["points"] = sum(len(s.points) for s in series)
                series.sort(key=lambda s: (s.country, s.metric))
                sets.append(RevisionSeries(rev.revision_id, rev.timestamp, series))
        with tracer.span("timeseries.dedup_series", sets=len(sets)) as attrs:
            unique = dedup_series(sets)
        attrs["unique"] = len(unique)
        with tracer.span("timeseries.load_ground_truth"):
            truth = load_ground_truth(spec["truth"])
        with tracer.span("timeseries.rmse_report") as attrs:
            report = rmse_report(unique, truth, start=None)
        attrs["scored"] = len(report.per_revision)
        return json.loads(json.dumps(report.to_dict()))


class CorpusBuild(_HistoryWorkload):
    """``outbreak corpus build`` over a prose-heavy history: strip, diff, dedup, tag."""

    name = "corpus_build"
    outputs = ("corpus.tsv",)
    history = HistorySpec(revisions=40, final_kb=100, table_share=0.1, table_rows=12)

    def argv(self, setup):
        s = setup.spec
        return ["corpus", "build", "--cache", s["cache"], "--title", s["title"],
                "--threshold", str(DEDUP_THRESHOLD), "--out", f"{s['out']}/corpus.tsv"]

    def cli_result(self, outputs):
        return outputs["corpus.tsv"].decode("utf-8")

    def check(self, setup, outputs) -> list[str]:
        from outbreakminer.corpus import char_trigrams

        authored = setup.facts.authored
        problems = []
        texts = []
        for block in outputs["corpus.tsv"].decode("utf-8").split("\n\n"):
            rows = [line.split("\t") for line in block.splitlines() if line]
            if not rows:
                continue
            tokens = tuple(row[0] for row in rows)
            if any(len(row) != 3 or row[2] != "O" for row in rows):
                problems.append(f"malformed rows in {' '.join(tokens)!r}")
            if tokens not in authored:
                problems.append(f"kept sentence never written: {' '.join(tokens)!r}")
                continue
            texts.append(authored[tokens])
        if not texts:
            problems.append("no sentences kept")
        grams = [char_trigrams(text) for text in texts]
        for i, a in enumerate(grams):
            for j in range(i):
                b = grams[j]
                if a and b and len(a & b) / len(a | b) > DEDUP_THRESHOLD:
                    problems.append(f"near-duplicates kept: {texts[j]!r} / {texts[i]!r}")
                    break
        return problems[:5]

    def replay(self, tracer: Tracer, spec: dict):
        from outbreakminer.corpus import (
            LabeledToken, dedup_sentences, line_diff, pos_tag, write_iob_tsv,
        )
        from outbreakminer.wikitext import split_sentences, strip_markup

        revisions = self._load(tracer, spec)
        sizes = [len(rev.wikitext.encode("utf-8")) for rev in revisions]
        corpus = []
        with tracer.span("corpus.build_corpus"):
            sentences = []
            prev_plain = None
            for rev, size in zip(revisions, sizes):
                if not rev.wikitext:
                    continue
                with tracer.span("wikitext.strip_markup", bytes=size):
                    plain = strip_markup(rev.wikitext, remove_tables=True)
                if prev_plain is not None:
                    with tracer.span("corpus.line_diff") as attrs:
                        diff = line_diff(prev_plain, plain)
                    attrs["added"] = len(diff.added_lines)
                    for line in diff.added_lines:
                        with tracer.span("wikitext.split_sentences") as attrs:
                            found = split_sentences(line, source_revision=rev.revision_id)
                        attrs["sentences"] = len(found)
                        sentences.extend(found)
                prev_plain = plain
            with tracer.span("corpus.dedup_sentences", sentences=len(sentences)) as attrs:
                kept = dedup_sentences(sentences, DEDUP_THRESHOLD, key=lambda s: s.text)
            attrs["kept"] = len(kept)
            for sent in kept:
                with tracer.span("corpus.pos_tag"):
                    tags = pos_tag(sent.tokens)
                corpus.append([LabeledToken(token=tok, pos=tag, label="O")
                               for tok, tag in zip(sent.tokens, tags)])
        out = io.StringIO()
        write_iob_tsv(corpus, out)
        return out.getvalue()


# ---------------------------------------------------------------------------
# tagger workloads
# ---------------------------------------------------------------------------

def _gold_spans(labels) -> set:
    spans, start, kind = set(), None, None
    for i, label in enumerate(list(labels) + ["O"]):
        if kind is not None and label != f"I-{kind}":
            spans.add((kind, start, i - 1))
            kind = None
        if label.startswith("B-"):
            kind, start = label[2:], i
    return spans


class NerCv:
    """``outbreak ner eval`` on synthcorpus sentences: CRF training dominates."""

    name = "ner_cv"
    outputs = ("eval.json",)
    sentences = 90
    k = 2
    max_iter = 15

    def prepare(self, work: Path, seed: int, tracer: Tracer) -> Setup:
        from outbreakminer.corpus import write_iob_tsv
        from outbreakminer.synthcorpus import generate_labeled_corpus

        out = _job_dir(work)
        path = work / "corpus.tsv"
        with tracer.span("synthcorpus.generate", sentences=self.sentences):
            write_iob_tsv(generate_labeled_corpus(self.sentences, seed), path)
        spec = {"corpus": str(path), "seed": seed, "out": str(out)}
        return Setup(spec, None)

    def argv(self, setup):
        s = setup.spec
        return ["--jobs", "1", "ner", "eval", "--corpus", s["corpus"], "--k", str(self.k),
                "--seed", str(s["seed"]), "--max-iter", str(self.max_iter),
                "--out", f"{s['out']}/eval.json"]

    def cli_result(self, outputs):
        return json.loads(outputs["eval.json"])

    def check(self, setup, outputs) -> list[str]:
        f1 = json.loads(outputs["eval.json"])["aggregate"]["f1"]
        return [] if f1 >= F1_FLOOR else [f"aggregate F1 {f1:.4f} < {F1_FLOOR}"]

    def replay(self, tracer: Tracer, spec: dict):
        from outbreakminer import crf, nereval
        from outbreakminer.corpus import read_iob_tsv

        with tracer.span("corpus.read_iob_tsv"):
            dataset = read_iob_tsv(spec["corpus"], strict=False)
        config = crf.FeatureConfig()

        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        def traced_train(dataset, config, **kwargs):
            log = kwargs.setdefault("iteration_log", [])
            with tracer.span("crf.train", fits=1) as attrs:
                span = tracer.spans[-1]
                model = train(dataset, config, **kwargs)
            # train scans the feature names before its one _encode_dataset call.
            first_child = next(s for s in tracer.spans if s["parent"] == span["id"])
            # The evaluation count comes from train's own log record.
            evals = records[-1].args[2] if records else 0
            attrs.update(iterations=len(log), evals=evals, features=model.n_features,
                         scan_s=first_child["start"] - span["start"])
            return model

        def traced_encode_dataset(model, dataset):
            with tracer.span("crf.encode_dataset", sequences=len(dataset)):
                return encode_dataset(model, dataset)

        def traced_objective(*args, **kwargs):
            with tracer.span("crf.objective", evals=1):
                return encoded_nll_grad(*args, **kwargs)

        def traced_viterbi(model, tokens, *args, **kwargs):
            with tracer.span("crf.viterbi", tokens=len(tokens)):
                return viterbi(model, tokens, *args, **kwargs)

        def traced_score_labels(*args, **kwargs):
            with tracer.span("nereval.score_labels"):
                return score_labels(*args, **kwargs)

        # cross_validate makes these calls itself, so every binding of them in
        # crf and nereval points at a traced wrapper until it returns.
        train, viterbi, score_labels = crf.train, crf.viterbi, nereval.score_labels
        encode_dataset, encoded_nll_grad = crf._encode_dataset, crf._encoded_nll_grad
        by_id = {id(train): traced_train, id(viterbi): traced_viterbi,
                 id(score_labels): traced_score_labels,
                 id(encode_dataset): traced_encode_dataset,
                 id(encoded_nll_grad): traced_objective}
        saved = []
        for module in (crf, nereval):
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    saved.append((module, attr, value))
                    setattr(module, attr, by_id[id(value)])
        logger = logging.getLogger("outbreakminer.crf")
        handler, level = Capture(logging.INFO), logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            with tracer.span("nereval.cross_validate") as attrs:
                report = nereval.cross_validate(dataset, config, k=self.k, seed=spec["seed"],
                                                max_iter=self.max_iter, n_jobs=1)
            attrs["f1"] = report.aggregate[2]
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
            for module, attr, value in saved:
                setattr(module, attr, value)
        return json.loads(json.dumps(report.to_dict()))


class NerTag:
    """``outbreak ner tag`` with a model trained at setup: load_model and viterbi."""

    name = "ner_tag"
    outputs = ("spans.json",)
    train_sentences = 60
    train_max_iter = 15
    tag_sentences = 1200

    def prepare(self, work: Path, seed: int, tracer: Tracer) -> Setup:
        from outbreakminer import crf
        from outbreakminer.synthcorpus import generate_labeled_corpus

        out = _job_dir(work)
        with tracer.span("synthcorpus.generate",
                         sentences=self.train_sentences + self.tag_sentences):
            corpus = generate_labeled_corpus(self.train_sentences + self.tag_sentences, seed)
        held_out = corpus[self.train_sentences:]
        with tracer.span("crf.train", fits=1):
            model = crf.train(corpus[:self.train_sentences], crf.FeatureConfig(),
                              max_iter=self.train_max_iter)
        model_path = work / "model.tsv"
        crf.save_model(model, model_path)
        text_path = work / "held_out.txt"
        text_path.write_text(
            "".join(" ".join(t.token for t in sent) + "\n" for sent in held_out),
            encoding="utf-8")
        gold = [([t.token for t in sent], [t.label for t in sent]) for sent in held_out]
        spec = {"model": str(model_path), "text": str(text_path), "out": str(out)}
        return Setup(spec, gold)

    def argv(self, setup):
        s = setup.spec
        return ["ner", "tag", "--model", s["model"], "--in", s["text"],
                "--out", f"{s['out']}/spans.json"]

    def cli_result(self, outputs):
        return [[item["tokens"], item["labels"]] for item in json.loads(outputs["spans.json"])]

    def check(self, setup, outputs) -> list[str]:
        gold = setup.facts
        tagged = json.loads(outputs["spans.json"])
        if len(tagged) != len(gold):
            return [f"{len(tagged)} tagged sentences, {len(gold)} written"]
        true_pos = n_gold = n_pred = 0
        for i, (item, (tokens, labels)) in enumerate(zip(tagged, gold)):
            if item["tokens"] != tokens:
                return [f"sentence {i} re-split to {item['tokens']!r}, wrote {tokens!r}"]
            want = _gold_spans(labels)
            got = {(s["type"], s["start"], s["end"]) for s in item["spans"]}
            true_pos += len(want & got)
            n_gold += len(want)
            n_pred += len(got)
        f1 = 2 * true_pos / (n_gold + n_pred) if n_gold + n_pred else 0.0
        return [] if f1 >= F1_FLOOR else [f"span F1 {f1:.4f} < {F1_FLOOR}"]

    def replay(self, tracer: Tracer, spec: dict):
        from outbreakminer.corpus import pos_tag
        from outbreakminer.crf import load_model, viterbi
        from outbreakminer.wikitext import split_sentences

        with tracer.span("crf.load_model"):
            model = load_model(spec["model"])
        text = Path(spec["text"]).read_text(encoding="utf-8")
        with tracer.span("wikitext.split_sentences") as attrs:
            sentences = split_sentences(text)
        attrs["sentences"] = len(sentences)
        tagged = []
        for sentence in sentences:
            with tracer.span("corpus.pos_tag"):
                pos = pos_tag(sentence.tokens)
            with tracer.span("crf.viterbi", tokens=len(sentence.tokens)):
                result = viterbi(model, sentence.tokens, pos, constrain_iob=True)
            tagged.append([sentence.tokens, result.labels])
        return tagged


WORKLOADS = {w.name: w for w in (TablesRmse(), CorpusBuild(), NerCv(), NerTag())}
