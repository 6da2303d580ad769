"""Tests of the benchmark's pure pieces: statistics, spans, schedules and declarations."""

from __future__ import annotations

import asyncio
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import loadgen, metrics, spans, spread, stats

ROOT = Path(__file__).resolve().parent.parent


class TestStats:
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))

    def test_iqr_share(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        assert stats.iqr_share(values) == pytest.approx((q3 - q1) / q2)

    def test_percentile_interpolates(self):
        values = list(range(101))
        assert stats.percentile(values, 99.0) == pytest.approx(99.0)
        assert stats.percentile([0.0, 10.0], 25.0) == pytest.approx(2.5)
        assert stats.percentile([7.0], 99.0) == 7.0

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50.0)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 101.0)


def _span(name, span_id, parent, start, end):
    return spans.Span(name, span_id, parent, start, end)


class TestSpans:
    def test_self_time_subtracts_children(self):
        recorded = [
            _span("root", 1, None, 0.0, 10.0),
            _span("a", 2, 1, 1.0, 5.0),
            _span("b", 3, 2, 2.0, 3.0),
            _span("a", 4, 1, 6.0, 7.0),
        ]
        assert spans.self_times(recorded) == pytest.approx({"root": 5.0, "a": 4.0, "b": 1.0})

    def test_self_times_add_up_to_root(self):
        recorder = spans.Recorder()
        with recorder.span("root"):
            for _ in range(3):
                with recorder.span("outer"):
                    with recorder.span("inner"):
                        sum(range(1000))
        root = next(span for span in recorder.spans if span.name == "root")
        assert sum(recorder.self_times().values()) == pytest.approx(root.duration, rel=1e-9)
        assert recorder.counts() == {"root": 1, "outer": 3, "inner": 3}

    def test_interleaved_tasks_keep_their_own_parents(self):
        recorder = spans.Recorder()

        async def task(name: str) -> None:
            with recorder.span(name):
                await asyncio.sleep(0)
                with recorder.span(name + ".child"):
                    await asyncio.sleep(0)

        async def main() -> None:
            await asyncio.gather(task("x"), task("y"))

        asyncio.run(main())
        by_id = {span.id: span for span in recorder.spans}
        for span in recorder.spans:
            if span.name.endswith(".child"):
                assert by_id[span.parent].name == span.name[: -len(".child")]

    def test_chrome_trace_events(self, tmp_path):
        recorder = spans.Recorder()
        with recorder.span("root"):
            with recorder.span("leaf"):
                pass
        path = recorder.write(tmp_path / "trace.json")
        events = json.loads(path.read_text())["traceEvents"]
        assert [event["name"] for event in events] == ["root", "leaf"]
        assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)
        assert events[1]["args"]["parent"] == events[0]["args"]["id"]

    def test_patched_wraps_and_restores(self):
        class Target:
            def method(self, value):
                return value + 1

            @classmethod
            def build(cls, value):
                return value * 2

        original = Target.__dict__["method"]
        recorder = spans.Recorder()
        targets = [(Target, "method", lambda self, value: f"method.{value}"), (Target, "build", "build")]
        with spans.patched(recorder, targets):
            assert Target().method(1) == 2
            assert Target.build(3) == 6
        assert Target.__dict__["method"] is original
        assert isinstance(Target.__dict__["build"], classmethod)
        assert [span.name for span in recorder.spans] == ["method.1", "build"]


class TestSchedule:
    def test_poisson_offsets_are_seeded(self):
        first = loadgen.poisson_offsets(500.0, 2.0, np.random.default_rng(7))
        again = loadgen.poisson_offsets(500.0, 2.0, np.random.default_rng(7))
        other = loadgen.poisson_offsets(500.0, 2.0, np.random.default_rng(8))
        assert np.array_equal(first, again)
        assert not np.array_equal(first[: len(other)], other[: len(first)])
        assert np.all(np.diff(first) > 0) and first[-1] < 2.0
        assert 800 < len(first) < 1200

    def test_zipf_indices_are_seeded_and_skewed(self):
        first = loadgen.zipf_indices(5000, 100, 1.1, np.random.default_rng(3))
        assert np.array_equal(first, loadgen.zipf_indices(5000, 100, 1.1, np.random.default_rng(3)))
        counts = np.bincount(first, minlength=100)
        assert counts[0] > counts[10] > counts[99]


class TestDeclarations:
    def test_names_and_units_follow_the_contract(self):
        names = [name for name, *_ in metrics.END_TO_END] + [name for name, *_ in metrics.PER_LAYER]
        assert len(names) == len(set(names))
        assert all(metrics.NAME.fullmatch(name) for name in names)
        units = [unit for _, unit, *_ in metrics.END_TO_END] + [unit for _, unit, _ in metrics.PER_LAYER]
        assert all(metrics.UNIT.fullmatch(unit) for unit in units)
        assert not metrics.NAME.fullmatch("bad name")
        assert not metrics.NAME.fullmatch("-leading")

    def test_end_to_end_contract(self):
        bounds = {name: (unit, better, bound) for name, unit, better, bound in metrics.END_TO_END}
        assert bounds["setup_s"][:2] == ("s", "lower")
        assert bounds["setup_s"][2] == max(bound for _, _, bound in bounds.values())
        assert all(0 < bound <= 0.25 for _, _, bound in bounds.values())
        assert 1 <= len(bounds) <= 16 and 1 <= len(metrics.PER_LAYER) <= 128
        assert 2 <= len(metrics.WORKLOADS) <= 8
        assert all(len(why) <= 200 and "\n" not in why for why in metrics.WORKLOADS.values())

    def test_benchmark_json_mirrors_the_declarations(self):
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert manifest == metrics.benchmark_manifest()

    def test_per_layer_values_fill_unloaded_layers(self):
        values = metrics.per_layer_values({"trace.wall_s": 1.5})
        assert list(values) == list(metrics.PER_LAYER_UNITS)
        assert values["trace.wall_s"] == 1.5 and values["dpp.invocations"] == 0.0
        with pytest.raises(KeyError):
            metrics.per_layer_values({"not.declared": 1.0})


def test_parse_seeds():
    assert spread.parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "insitu", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""
