"""Offline benchmark of the outbreakminer CLI, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client: each timed job is a fresh ``python -m
outbreakminer.cli ...`` process (``PYTHONPATH=src``) started only after the
previous one exited, over inputs generated from the seed and, for the
revision-history workloads, a cache filled through ``fetch_revisions`` and
an offline fake of the wiki API. Wall time is taken around the child; CPU
time and peak RSS come from the child's own ``os.wait4`` rusage. BLAS
thread variables are passed through as found and recorded.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace
1`` it alternates plain CLI jobs with traced replays of the same job (fresh
processes running ``perfbench/replay.py``) and reports per-layer metrics.
Layer times are self times: a span's duration less its child spans'.
The last line of stdout is the result JSON; a report with the environment
and every sample, and in trace mode all spans, goes under
``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s", "job_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
PER_LAYER = {
    "ingest.fetch.s": "s", "ingest.fetch.records_per_s": "records/s",
    "ingest.load.s": "s", "ingest.load.mb_per_s": "MB/s", "ingest.records": "count",
    "wikitext.parse_tables.s": "s", "wikitext.parse_tables.mb_per_s": "MB/s",
    "wikitext.tables": "count", "wikitext.cells": "count",
    "wikitext.strip_markup.s": "s", "wikitext.strip_markup.mb_per_s": "MB/s",
    "wikitext.split_sentences.s": "s", "wikitext.sentences": "count",
    "corpus.line_diff.s": "s", "corpus.added_lines": "count",
    "corpus.dedup_sentences.s": "s", "corpus.dedup.kept_ratio": "ratio",
    "corpus.pos_tag.s": "s", "corpus.read_iob.s": "s",
    "timeseries.extract_series.s": "s", "timeseries.interpolate_daily.s": "s",
    "timeseries.daily_points": "count", "timeseries.dedup_series.s": "s",
    "timeseries.unique_ratio": "ratio", "timeseries.rmse_report.s": "s",
    "timeseries.scored_pairs": "count",
    "crf.train.s": "s", "crf.iterations": "count", "crf.evals": "count",
    "crf.features": "count", "crf.encode.s": "s", "crf.objective.s_per_eval": "s",
    "crf.lbfgs_other.s_per_eval": "s", "crf.viterbi.s": "s",
    "crf.viterbi.tokens_per_s": "tokens/s", "crf.load_model.s": "s",
    "nereval.cross_validate.s": "s", "nereval.score_labels.s": "s", "nereval.f1": "ratio",
    "cli.import.s": "s", "cli.self.s": "s", "trace.overhead_ratio": "ratio",
}


@dataclass
class Job:
    wall: float
    cpu: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    outputs: dict[str, bytes] = field(default_factory=dict)


def job_env() -> dict:
    env = dict(os.environ)
    env.pop("OUTBREAK_CACHE_DIR", None)   # it would override --cache
    parts = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> tuple[int, float, float, float]:
    """Run one process to completion: (exit code, wall s, user+sys s, max RSS MB)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=job_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Runner:
    def __init__(self, workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / workload.name
        self.setup = None
        self.reference: dict[str, bytes] | None = None
        self.attempted = 0
        self.failed = 0

    def set_up(self) -> tuple[float, list[dict]]:
        """Prepare the inputs SETUP_REPEATS times, then run one warm-up job.

        Returns (median preparation time + warm-up job wall time, setup spans).
        """
        from perfbench.spans import Tracer

        tracer = Tracer("setup")
        times = []
        for rep in range(SETUP_REPEATS):
            work = self.dir / f"setup{rep}"
            start = time.perf_counter()
            with tracer.span("setup", rep=rep):
                self.setup = self.workload.prepare(work, self.seed, tracer)
            times.append(time.perf_counter() - start)
            if rep:
                shutil.rmtree(self.dir / f"setup{rep - 1}")
        (self.dir / "spec.json").write_text(json.dumps(self.setup.spec), encoding="utf-8")
        warm = self.job()
        return statistics.median(times) + warm.wall, tracer.spans

    def job(self) -> Job:
        """One CLI job; its outputs are checked in full until one job passes,
        and must be byte-identical to that job's afterwards."""
        out = Path(self.setup.spec["out"])
        names = self.workload.outputs
        for name in names:
            (out / name).unlink(missing_ok=True)
        log = self.dir / "job.stderr"
        argv = [sys.executable, "-m", "outbreakminer.cli", *self.workload.argv(self.setup)]
        code, wall, cpu, rss = run_child(argv, log, self.deadline)
        job = Job(wall, cpu, rss)
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
            job.problems.append(f"exit code {code}: {tail}")
        else:
            for name in names:
                path = out / name
                if path.is_file():
                    job.outputs[name] = path.read_bytes()
                else:
                    job.problems.append(f"missing output {name}")
        if not job.problems:
            if self.reference is None:
                job.problems = self.workload.check(self.setup, job.outputs)
                if not job.problems:
                    self.reference = job.outputs
            elif job.outputs != self.reference:
                job.problems.append("outputs differ from the first job's")
        self.count(job.problems)
        return job

    def replay(self, job: str) -> tuple[float, dict]:
        """One traced replay in a fresh process; its output must equal the CLI's."""
        result = self.dir / "replay.json"
        result.unlink(missing_ok=True)
        argv = [sys.executable, str(ROOT / "perfbench" / "replay.py"),
                self.workload.name, str(self.dir / "spec.json"), str(result), job]
        code, wall, _, _ = run_child(argv, self.dir / "replay.stderr", self.deadline)
        problems = []
        data = None
        if code != 0 or not result.is_file():
            tail = (self.dir / "replay.stderr").read_text(encoding="utf-8", errors="replace")
            problems.append(f"replay exit code {code}: {tail[-400:]}")
        else:
            data = json.loads(result.read_text(encoding="utf-8"))
            if self.reference is None:
                problems.append("no checked CLI output to compare the replay with")
            elif data["result"] != self.workload.cli_result(self.reference):
                problems.append("replay output differs from the CLI job's")
        self.count(problems)
        return wall, data

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: {self.workload.name}: {problem}", file=sys.stderr)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(setup_spans: list[dict], replays: list[tuple[float, dict]],
                  jobs: list[Job]) -> dict[str, float]:
    from perfbench.spans import summarize

    def ratio(num, den):
        return num / den if den else 0.0

    samples: dict[str, list[float]] = {}
    for wall, data in replays:
        self_s, attrs, pipeline_s = summarize(data["spans"])

        def S(name):
            return self_s.get(name, 0.0)

        def A(name, key):
            return attrs.get(name, {}).get(key, 0)

        # crf.train's children are its _encode_dataset call and its objective
        # evaluations; what is left of it is the feature-name scan and L-BFGS.
        evals, scan_s = A("crf.train", "evals"), A("crf.train", "scan_s")
        sample = {
            "ingest.load.s": S("ingest.load_cached_revisions"),
            "ingest.load.mb_per_s": ratio(A("ingest.load_cached_revisions", "bytes") / 1e6,
                                          S("ingest.load_cached_revisions")),
            "ingest.records": A("ingest.load_cached_revisions", "records"),
            "wikitext.parse_tables.s": S("wikitext.parse_tables"),
            "wikitext.parse_tables.mb_per_s": ratio(A("wikitext.parse_tables", "bytes") / 1e6,
                                                    S("wikitext.parse_tables")),
            "wikitext.tables": A("wikitext.parse_tables", "tables"),
            "wikitext.cells": A("wikitext.parse_tables", "cells"),
            "wikitext.strip_markup.s": S("wikitext.strip_markup"),
            "wikitext.strip_markup.mb_per_s": ratio(A("wikitext.strip_markup", "bytes") / 1e6,
                                                    S("wikitext.strip_markup")),
            "wikitext.split_sentences.s": S("wikitext.split_sentences"),
            "wikitext.sentences": A("wikitext.split_sentences", "sentences"),
            "corpus.line_diff.s": S("corpus.line_diff"),
            "corpus.added_lines": A("corpus.line_diff", "added"),
            "corpus.dedup_sentences.s": S("corpus.dedup_sentences"),
            "corpus.dedup.kept_ratio": ratio(A("corpus.dedup_sentences", "kept"),
                                             A("corpus.dedup_sentences", "sentences")),
            "corpus.pos_tag.s": S("corpus.pos_tag"),
            "corpus.read_iob.s": S("corpus.read_iob_tsv"),
            "timeseries.extract_series.s": S("timeseries.extract_series"),
            "timeseries.interpolate_daily.s": S("timeseries.interpolate_daily"),
            "timeseries.daily_points": A("timeseries.interpolate_daily", "points"),
            "timeseries.dedup_series.s": S("timeseries.dedup_series"),
            "timeseries.unique_ratio": ratio(A("timeseries.dedup_series", "unique"),
                                             A("timeseries.dedup_series", "sets")),
            "timeseries.rmse_report.s": S("timeseries.rmse_report"),
            "timeseries.scored_pairs": A("timeseries.rmse_report", "scored"),
            "crf.train.s": S("crf.train") + S("crf.encode_dataset") + S("crf.objective"),
            "crf.iterations": A("crf.train", "iterations"),
            "crf.evals": evals,
            "crf.features": ratio(A("crf.train", "features"), A("crf.train", "fits")),
            "crf.encode.s": S("crf.encode_dataset") + scan_s,
            "crf.objective.s_per_eval": ratio(S("crf.objective"), evals),
            "crf.lbfgs_other.s_per_eval": ratio(S("crf.train") - scan_s, evals),
            "crf.viterbi.s": S("crf.viterbi"),
            "crf.viterbi.tokens_per_s": ratio(A("crf.viterbi", "tokens"), S("crf.viterbi")),
            "crf.load_model.s": S("crf.load_model"),
            "nereval.cross_validate.s": S("nereval.cross_validate"),
            "nereval.score_labels.s": S("nereval.score_labels"),
            "nereval.f1": A("nereval.cross_validate", "f1"),
            "cli.import.s": data["import_s"],
            "_pipeline_s": pipeline_s,
            "_replay_s": wall,
        }
        for name, value in sample.items():
            samples.setdefault(name, []).append(value)

    metrics = {name: _median(values) for name, values in samples.items()}
    fetches = [s for s in setup_spans if s["name"] == "ingest.fetch_revisions"]
    metrics["ingest.fetch.s"] = _median(s["end"] - s["start"] for s in fetches)
    metrics["ingest.fetch.records_per_s"] = _median(
        s["attrs"]["records"] / (s["end"] - s["start"]) for s in fetches)
    job_s = _median(j.wall for j in jobs)
    metrics["cli.self.s"] = job_s - metrics["cli.import.s"] - metrics.pop("_pipeline_s")
    metrics["trace.overhead_ratio"] = ratio(metrics.pop("_replay_s"), job_s) - 1.0
    return metrics


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                   text=True, timeout=10)
            commit = found.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_thread_vars": {name: os.environ.get(name) for name in BLAS_VARS},
        "git_commit": commit,
        "seed": seed,
    }


def run(workload, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    runner = Runner(workload, seed, deadline)
    shutil.rmtree(runner.dir, ignore_errors=True)
    runner.dir.mkdir(parents=True)
    setup_s, setup_spans = runner.set_up()

    jobs: list[Job] = []
    replays: list[tuple[float, dict]] = []
    stop = time.perf_counter() + seconds
    while not jobs or (time.perf_counter() < stop and time.monotonic() < deadline):
        jobs.append(runner.job())
        if trace:
            wall, data = runner.replay(f"replay{len(jobs) - 1}")
            if data is not None:
                replays.append((wall, data))

    if trace:
        measured = layer_metrics(setup_spans, replays, jobs) if replays else {}
        metrics = {name: measured.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
        spans = setup_spans + [s for _, d in replays for s in d["spans"]]
        (runner.dir / "trace.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        metrics = {
            "setup_s": setup_s,
            "job_s": _median(j.wall for j in jobs),
            "job_cpu_s": _median(j.cpu for j in jobs),
            "peak_rss_mb": _median(j.rss_mb for j in jobs),
            "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        }
        units = END_TO_END
    result = {
        "correct": runner.failed == 0 and (bool(replays) or not trace),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": int(v) if units[name] == "count" else v, "unit": units[name]}
            for name, v in metrics.items()
        },
    }
    report = {
        "workload": workload.name,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "jobs": [{"wall_s": j.wall, "cpu_s": j.cpu, "rss_mb": j.rss_mb} for j in jobs],
        "replay_wall_s": [wall for wall, _ in replays],
        "result": result,
    }
    (runner.dir / "report.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    return result


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "outbreakminer" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'outbreakminer'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
