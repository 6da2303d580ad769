"""``sweep``: the default study matrix through plan, cold run, warm resume and report.

The matrix is the default ``StudyConfiguration`` with the run's seed: 102
rows, of which 36 are host renders, 36 synthetic device rows and 30
compositing rows.  A cold pass runs every row at two jobs into an empty row
cache; after the timed passes, a warm ``resume`` pass reads the last cache
back and ``generate_report`` fits and writes the paper tables.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import stats
from perfbench.outcome import Outcome, layer_metrics, peak_rss_mb
from perfbench.spans import Recorder, patched, untraced
from repro.modeling.study import StudyConfiguration
from repro.reporting import ModelSuite
from repro.reporting import report as report_module
from repro.study import CorpusCache, build_plan, execute_spec, run_plan
from repro.study.corpus_io import corpus_to_payload
from repro.study.plan import KINDS
from repro.util.rng import derive_seed

JOBS = 2
MIN_PASSES = 2


@dataclass
class State:
    seed: int
    workdir: Path
    plan: object
    passes: int = 0


def _configuration(seed: int) -> StudyConfiguration:
    return StudyConfiguration(seed=derive_seed(seed, "perfbench-sweep") % 2**31)


def setup(seed: int, workdir: Path) -> State:
    """Expand the plan, address every row in the cache (which digests the code), and warm
    the process, which the forked workers inherit, on one row of each kind.

    The warm-up rows are the median-sized rows of the default matrix, the same
    for every seed, so set-up does the same work in every run.
    """
    plan = build_plan(_configuration(seed))
    cache = CorpusCache(workdir / "probe")
    for spec in plan.specs:
        cache.key(spec.key_payload())
    warmup = build_plan(StudyConfiguration()).specs
    for kind in KINDS:
        rows = sorted((spec for spec in warmup if spec.kind == kind), key=_row_size)
        execute_spec(rows[len(rows) // 2])
    return State(seed, workdir, plan)


def _row_size(spec) -> tuple:
    return (spec.image_width * spec.image_height, spec.num_tasks, spec.cells_per_task, spec.pixel_size)


def close(state: State) -> None:
    shutil.rmtree(state.workdir, ignore_errors=True)


def cold(state: State):
    """One cold pass into a fresh cache directory; returns ``(corpus, report, cache_dir)``."""
    state.passes += 1
    cache_dir = state.workdir / f"cold-{state.passes}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    corpus, report = run_plan(state.plan, jobs=JOBS, cache=cache_dir, resume=True)
    return corpus, report, cache_dir


def _finish(state: State, corpus, report, cache_dir: Path, span=untraced) -> tuple[int, int, dict]:
    """Warm resume, report, and the output checks; returns ``(attempted, failed, details)``."""
    with span("study.cache.resume"):
        warm, warm_report = run_plan(state.plan, jobs=JOBS, cache=cache_dir, resume=True)
    result = report_module.generate_report(warm, state.workdir / "report")
    attempted = 2
    same = warm_report.cache_hits == report.planned and corpus_to_payload(warm) == corpus_to_payload(corpus)
    failed = (not same) + (result.manifest["corpus"]["failures"] != 0 or result.suite.is_empty())
    rows = len(corpus.records) + len(corpus.compositing_records)
    return attempted, failed, {"hits": warm_report.cache_hits, "rows": rows}


def measure(state: State, seconds: float) -> Outcome:
    """Cold passes until ``seconds`` have passed, then one warm pass and the report."""
    pass_seconds: list[float] = []
    attempted = failed = 0
    while sum(pass_seconds) < seconds or len(pass_seconds) < MIN_PASSES:
        start = time.perf_counter()
        corpus, report, cache_dir = cold(state)
        pass_seconds.append(time.perf_counter() - start)
        attempted += report.planned
        failed += report.failed
    peak = peak_rss_mb()
    checked, check_failed, _ = _finish(state, corpus, report, cache_dir)
    return Outcome(
        metrics={
            "p50_s": stats.median(pass_seconds),
            "rate_per_s": len(state.plan.specs) / stats.median(pass_seconds),
            "peak_rss_mb": peak,
        },
        attempted=attempted + checked,
        failed=failed + check_failed,
        samples=len(pass_seconds),
    )


def _episode(state: State, span=untraced) -> tuple:
    with span("study.plan"):
        build_plan(_configuration(state.seed))
    with span("study.cold"):
        corpus, report, cache_dir = cold(state)
    attempted, failed, details = _finish(state, corpus, report, cache_dir, span)
    for spec in state.plan.specs:
        with span(f"study.busy.{spec.kind}"):
            execute_spec(spec)
    return report.planned + attempted, report.failed + failed, details


def traced(state: State, recorder: Recorder) -> Outcome:
    """The episode untraced, then traced: plan, cold pass, warm pass, report, and every row inline."""
    start = time.perf_counter()
    _episode(state)
    untraced_wall = time.perf_counter() - start
    targets = [
        (report_module, "generate_report", "reporting.report"),
        (ModelSuite, "fit_corpus", "reporting.fit"),
    ]
    with patched(recorder, targets), recorder.span("trace.root"):
        attempted, failed, details = _episode(state, recorder.span)
    metrics = layer_metrics(recorder, untraced_wall)
    self_s = recorder.self_times()
    busy = {kind: self_s.get(f"study.busy.{kind}", 0.0) for kind in KINDS}
    cold_s = self_s["study.cold"]
    metrics.update(
        {
            "study.plan_s": self_s["study.plan"],
            "study.cold_s": cold_s,
            "study.parallel_efficiency": sum(busy.values()) / (JOBS * cold_s),
            "study.cache.hits": details["hits"],
            "study.cache.resume_s": self_s["study.cache.resume"],
            "study.rows": details["rows"],
            "reporting.report_s": self_s["reporting.report"],
            "reporting.fit_s": self_s["reporting.fit"],
        }
    )
    for kind, seconds in busy.items():
        metrics[f"study.busy_s.{kind}"] = seconds
    return Outcome(metrics=metrics, attempted=attempted, failed=failed, samples=1)
