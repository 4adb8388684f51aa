"""Tests of the benchmark's own parts: generator, fake API, checks, replay.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import math
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from outbreakminer import cli  # noqa: E402
from outbreakminer.ingest import RevisionCache, RevisionQuery, fetch_revisions  # noqa: E402
from perfbench import run  # noqa: E402
from perfbench.fakeapi import FakeRevisionsApi  # noqa: E402
from perfbench.history import TITLE, HistorySpec, generate_history  # noqa: E402
from perfbench.spans import Tracer, summarize  # noqa: E402
from perfbench.workloads import CorpusBuild, NerCv, NerTag, TablesRmse  # noqa: E402

SMALL = HistorySpec(revisions=14, final_kb=12, table_share=0.6, table_rows=6)


def _small(workload_cls, **attrs):
    workload = workload_cls()
    for key, value in attrs.items():
        setattr(workload, key, value)
    return workload


def _run_cli(workload, setup) -> dict:
    assert cli.main(workload.argv(setup)) == 0
    out = Path(setup.spec["out"])
    return {name: (out / name).read_bytes() for name in workload.outputs}


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    workload = _small(TablesRmse, history=SMALL)
    setup = workload.prepare(tmp_path_factory.mktemp("tables"), 3, Tracer("setup"))
    return workload, setup, _run_cli(workload, setup)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    workload = _small(CorpusBuild, history=SMALL)
    setup = workload.prepare(tmp_path_factory.mktemp("corpus"), 3, Tracer("setup"))
    return workload, setup, _run_cli(workload, setup)


@pytest.fixture(scope="module")
def ner_tag(tmp_path_factory):
    workload = _small(NerTag, train_sentences=30, train_max_iter=10, tag_sentences=40)
    setup = workload.prepare(tmp_path_factory.mktemp("tag"), 3, Tracer("setup"))
    return workload, setup, _run_cli(workload, setup)


def test_generation_is_deterministic_per_seed():
    first, again, other = (generate_history(SMALL, s) for s in (5, 5, 6))
    assert first.records == again.records
    assert first.truth_csv() == again.truth_csv()
    assert first.authored == again.authored
    assert first.corrupted_revision == again.corrupted_revision
    assert first.records != other.records
    assert len(first.records) == len(other.records) == SMALL.revisions


def test_corruption_is_followed_by_its_revert():
    history = generate_history(SMALL, 5)
    ids = [r["revid"] for r in history.records]
    at = ids.index(history.corrupted_revision)
    text = [r["slots"]["main"]["content"] for r in history.records]
    assert text[at] != text[at - 1] and text[at + 1] != text[at]
    assert history.records[at + 1]["comment"].startswith("correct numbers")


def test_table_cells_are_mostly_bare_numbers_carried_over():
    spec = HistorySpec(revisions=60, final_kb=20, table_share=0.9, table_rows=20)
    tables = [r["slots"]["main"]["content"].split("{|")[1].split("|}")[0]
              for r in generate_history(spec, 4).records]
    cells = [cell for line in tables[-1].splitlines() if line.startswith("| ")
             for cell in line[2:].split(" || ")[1:]]
    marked = [cell for cell in cells if not cell.replace(",", "").isdigit()]
    assert len(cells) == 20 * 12
    assert 0 < len(marked) < 0.15 * len(cells)
    # Between two table edits that add no row, most cells are carried over.
    rows = [[line for line in t.splitlines() if line.startswith("| ")] for t in tables]
    same = [sum(a == b for a, b in zip(x, y)) / len(x)
            for x, y in zip(rows, rows[1:]) if len(x) == len(y) and x != y]
    assert same and statistics.median(same) > 0.5


def test_fake_api_round_trips_through_fetch_revisions(tmp_path):
    history = generate_history(SMALL, 2)
    api = FakeRevisionsApi(TITLE, history.records, page_size=4)
    cache = RevisionCache(tmp_path)
    query = RevisionQuery(TITLE, min_request_interval_ms=0)
    revisions = fetch_revisions(query, cache, get_json=api)
    assert api.requests == math.ceil(len(history.records) / 4)
    assert [r.revision_id for r in revisions] == [r["revid"] for r in history.records]
    assert cache.load_all_records(TITLE) == history.records
    assert fetch_revisions(query, cache, get_json=api) == revisions
    assert api.requests == math.ceil(len(history.records) / 4)


def test_tables_check_accepts_cli_output_and_rejects_corruptions(tables):
    workload, setup, outputs = tables
    assert workload.check(setup, outputs) == []

    def corrupted(edit):
        report = json.loads(outputs["report.json"])
        edit(report)
        return dict(outputs, **{"report.json": json.dumps(report).encode()})

    spike = setup.facts.corrupted_revision

    def flatten_spike(report):
        for entry in report["per_revision"]:
            if entry["revision_id"] == spike:
                entry["rmse"] = 0.0

    def add_error(report):
        report["per_revision"][0]["rmse"] = 1.5

    def add_gap(report):
        report["gaps"].append({"country": "Atlantis", "metric": "cases"})

    for edit in (flatten_spike, add_error, add_gap):
        assert workload.check(setup, corrupted(edit)), edit.__name__


def test_corpus_check_accepts_cli_output_and_rejects_corruptions(corpus):
    workload, setup, outputs = corpus
    assert workload.check(setup, outputs) == []
    text = outputs["corpus.tsv"].decode()
    first = text.split("\n\n")[0]
    foreign = "Unwritten\tOTHER\tO\nsentence\tNOUN\tO\n"
    assert workload.check(setup, {"corpus.tsv": (text + "\n" + foreign).encode()})
    assert workload.check(setup, {"corpus.tsv": (text + "\n" + first + "\n").encode()})


def test_ner_cv_check_enforces_the_f1_floor():
    workload = NerCv()
    good = {"eval.json": json.dumps({"aggregate": {"f1": 0.93}}).encode()}
    bad = {"eval.json": json.dumps({"aggregate": {"f1": 0.7}}).encode()}
    assert workload.check(None, good) == []
    assert workload.check(None, bad)


def test_ner_tag_check_accepts_cli_output_and_rejects_corruptions(ner_tag):
    workload, setup, outputs = ner_tag
    assert workload.check(setup, outputs) == []
    tagged = json.loads(outputs["spans.json"])
    no_spans = [dict(item, spans=[]) for item in tagged]
    assert workload.check(setup, {"spans.json": json.dumps(no_spans).encode()})
    resplit = [dict(tagged[0], tokens=tagged[0]["tokens"][1:])] + tagged[1:]
    assert workload.check(setup, {"spans.json": json.dumps(resplit).encode()})


@pytest.mark.parametrize("fixture", ["tables", "corpus", "ner_tag"])
def test_replay_reproduces_the_cli_output(fixture, request):
    workload, setup, outputs = request.getfixturevalue(fixture)
    tracer = Tracer("replay0")
    result = workload.replay(tracer, setup.spec)
    assert json.loads(json.dumps(result)) == workload.cli_result(outputs)
    assert tracer.spans and all(s["end"] >= s["start"] for s in tracer.spans)


def test_ner_cv_replay_reproduces_the_cli_output_and_restores_the_package(tmp_path):
    from outbreakminer import crf, nereval

    workload = _small(NerCv, sentences=12, max_iter=3)
    setup = workload.prepare(tmp_path, 1, Tracer("setup"))
    outputs = _run_cli(workload, setup)
    before = (nereval.train, nereval.viterbi, nereval.score_labels)
    encode, objective = crf._encode_dataset, crf._encoded_nll_grad
    tracer = Tracer("replay0")
    result = workload.replay(tracer, setup.spec)
    assert (nereval.train, nereval.viterbi, nereval.score_labels) == before
    assert crf.train is before[0]
    assert (crf._encode_dataset, crf._encoded_nll_grad) == (encode, objective)
    assert json.loads(json.dumps(result)) == workload.cli_result(outputs)
    _, attrs, _ = summarize(tracer.spans)
    assert attrs["crf.train"]["fits"] == workload.k
    assert attrs["crf.train"]["evals"] >= attrs["crf.train"]["iterations"] > 0
    # Every evaluation train logged ran under a traced objective span, and
    # each fit encoded its training set once, inside its crf.train span.
    assert attrs["crf.objective"]["evals"] == attrs["crf.train"]["evals"]
    by_id = {s["id"]: s for s in tracer.spans}
    encodes = [s for s in tracer.spans if s["name"] == "crf.encode_dataset"]
    assert len(encodes) == workload.k
    assert all(by_id[s["parent"]]["name"] == "crf.train" for s in encodes)
    assert attrs["crf.train"]["scan_s"] > 0


def test_summarize_takes_child_time_out_of_self_time():
    spans = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0, "attrs": {"n": 1}},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 4.0, "attrs": {"n": 2}},
        {"id": 2, "name": "b", "parent": 0, "start": 5.0, "end": 6.0, "attrs": {"n": 3}},
    ]
    self_s, attrs, root_s = summarize(spans)
    assert self_s == {"a": 6.0, "b": 4.0}
    assert attrs["b"] == {"n": 5}
    assert root_s == 10.0


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_environment_record_names_versions_threads_and_seed():
    env = run.environment(11)
    assert env["seed"] == 11 and env["nproc"] >= 1
    assert env["numpy"] and env["scipy"] and env["python"]
    assert set(env["blas_thread_vars"]) == set(run.BLAS_VARS)
