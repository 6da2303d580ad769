"""``serve``: open-loop load on ``python -m repro.serving`` in its own process.

Set-up fits a seeded models fixture, writes ``models.json`` and starts the
server with default knobs.  The benchmark process then sends Poisson
arrivals over two pipelined connections; nine requests in ten carry one
configuration and one in ten carries 32.  Two phases at one fixed rate:

* ``unique`` -- configurations never repeat (far more than the 4,096-entry
  LRU holds), at a fixed rate well below the latency knee;
* ``hot`` -- Zipf draws from 512 configurations, which fit in the LRU.

The server's capacity is reported as ``unique`` requests per second of its
own CPU time: on a 2-vCPU virtual machine, a closed-loop saturation rate
swung by a quarter between runs, as the generator and server interleaved
differently.

The traced run adds a ``ladder`` of rising open-loop rates, stopping at the
first whose p99 misses the 50 ms limit; its crossing rate is too sensitive to
machine noise at the knee to gate on.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import stats
from perfbench.loadgen import PhaseResult, poisson_offsets, run_phase, zipf_indices
from perfbench.outcome import Outcome, layer_metrics
from perfbench.spans import Recorder, untraced
from repro.modeling.study import StudyConfiguration, StudyHarness
from repro.reporting import ModelSuite, Predictor
from repro.serving.client import request_bytes
from repro.serving.core import DEFAULT_CACHE_SIZE, ModelHandle, ServingCore, canonical_config
from repro.util.rng import default_rng, derive_seed

RATE = 1000.0
LADDER = (3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0, 9500.0, 11000.0)
LADDER_STEP_S = 1.0
LIMIT_S = 0.050
BIG_SHARE = 0.1
BIG_CONFIGS = 32
HOT_CONFIGS = 512
ZIPF_EXPONENT = 1.1
#: Shares of ``--seconds`` spent in the unique and hot phases.
SHARES = (0.65, 0.35)
CONNECTIONS = 2
#: Open-loop seconds in the traced run, which also climbs the ladder.
TRACED_SECONDS = 8.0
_TASKS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
_IMAGES = ((256, 256), (512, 512), (1024, 768), (1024, 1024), (1920, 1080), (2048, 2048))
_CELLS = 4096


def _fixture_configuration(seed: int) -> StudyConfiguration:
    return StudyConfiguration(
        architectures=("cpu-host", "gpu1-k40m"),
        techniques=("raytrace", "volume"),
        simulations=("kripke",),
        task_counts=(1, 4),
        samples_per_technique=8,
        compositing_task_counts=(2, 4),
        compositing_pixel_sizes=(32, 48, 64),
        seed=derive_seed(seed, "perfbench-serve-fixture") % 2**31,
    )


@dataclass
class Server:
    process: subprocess.Popen
    host: str
    port: int

    def stats(self) -> dict:
        with urllib.request.urlopen(f"http://{self.host}:{self.port}/stats", timeout=10) as response:
            return json.loads(response.read())

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server process has used."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def start_server(models: Path) -> Server:
    """``python -m repro.serving`` on an ephemeral port, default knobs, no file watcher."""
    source = Path(__file__).resolve().parents[2] / "src"
    # A fixed hash seed keeps dict and set layouts, and so their speed, the same in every run.
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(source), os.environ.get("PYTHONPATH")])),
        PYTHONHASHSEED="0",
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serving", "--models", str(models), "--port", "0", "--no-watch"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    line = process.stdout.readline()
    if not line.startswith("serving http://"):
        process.kill()
        process.wait()
        raise RuntimeError(f"server did not start: {line!r}")
    address = line.split()[1][len("http://"):]
    host, port = address.rsplit(":", 1)
    return Server(process, host, int(port))


@dataclass
class Phase:
    """One phase's schedule: due offsets, request bodies and their configurations."""

    name: str
    offsets: np.ndarray
    payloads: list[bytes]
    configs: list[list[dict]]


@dataclass
class State:
    seed: int
    workdir: Path
    models: Path
    digest: str
    server: Server
    keys: list[tuple[str, str]]
    first_unique: int = 0
    next_unique: int = 0


def _unique_cycle(keys: list) -> int:
    """Distinct configurations before ``_unique_config`` repeats itself."""
    return len(keys) * _CELLS * len(_IMAGES) * len(_TASKS)


def _unique_config(state: State, index: int) -> dict:
    architecture, technique = state.keys[index % len(state.keys)]
    rest = index // len(state.keys)
    width, height = _IMAGES[(rest // _CELLS) % len(_IMAGES)]
    return {
        "architecture": architecture,
        "technique": technique,
        "cells_per_task": 16 + rest % _CELLS,
        "image_width": width,
        "image_height": height,
        "num_tasks": _TASKS[(rest // (_CELLS * len(_IMAGES))) % len(_TASKS)],
    }


def _phase(state: State, name: str, rate: float, duration: float, hot: list[dict] | None = None) -> Phase:
    rng = default_rng(state.seed, "perfbench-serve", name, rate)
    offsets = poisson_offsets(rate, duration, rng)
    sizes = np.where(rng.random(len(offsets)) < BIG_SHARE, BIG_CONFIGS, 1)
    configs: list[list[dict]] = []
    if hot is None:
        for size in sizes:
            configs.append([_unique_config(state, state.next_unique + i) for i in range(size)])
            state.next_unique += int(size)
    else:
        draws = zipf_indices(int(sizes.sum()), len(hot), ZIPF_EXPONENT, rng)
        position = 0
        for size in sizes:
            configs.append([hot[i] for i in draws[position:position + size]])
            position += int(size)
    payloads = [
        request_bytes("POST", "/predict", group[0] if len(group) == 1 else {"configs": group})
        for group in configs
    ]
    return Phase(name, offsets, payloads, configs)


def setup(seed: int, workdir: Path) -> State:
    """Fit and save the models fixture, then start the server on it."""
    workdir.mkdir(parents=True, exist_ok=True)
    suite = ModelSuite.fit_corpus(StudyHarness(_fixture_configuration(seed)).run())
    models = suite.save(workdir / "models.json")
    server = start_server(models)
    keys = sorted(suite.entries)
    start = int(default_rng(seed, "perfbench-serve-unique").integers(0, _unique_cycle(keys)))
    return State(seed, workdir, models, hashlib.sha256(models.read_bytes()).hexdigest(), server, keys,
                 first_unique=start, next_unique=start)


def close(state: State) -> None:
    state.server.stop()


def _hot_set(state: State) -> list[dict]:
    """Configurations half the index cycle away from the unique ones, so the two never meet."""
    base = state.first_unique + _unique_cycle(state.keys) // 2
    return [_unique_config(state, base + i) for i in range(HOT_CONFIGS)]


def check_bodies(state: State, phase: Phase, result: PhaseResult) -> int:
    """Requests whose response was not a 200 bit-identical to ``Predictor.predict_configurations``."""
    predictor = Predictor(ModelSuite.load(state.models))
    flat = [config for group in phase.configs for config in group]
    expected: list[tuple] = [()] * len(flat)
    groups: dict[tuple, list[int]] = {}
    for index, config in enumerate(flat):
        groups.setdefault((config["architecture"], config["technique"]), []).append(index)
    for (architecture, technique), indices in groups.items():
        columns = {key: np.array([flat[i][key] for i in indices], dtype=np.float64)
                   for key in ("num_tasks", "cells_per_task", "image_width", "image_height")}
        batch = predictor.predict_configurations(architecture, technique, **columns)
        for position, index in enumerate(indices):
            expected[index] = (float(batch.seconds[position]), float(batch.lower[position]),
                               float(batch.upper[position]), float(batch.residual_std))
    failed = 0
    cursor = 0
    for group, status, body in zip(phase.configs, result.statuses, result.bodies):
        want = expected[cursor:cursor + len(group)]
        cursor += len(group)
        if status != 200:
            failed += 1
            continue
        payload = json.loads(body)
        got = [(row["seconds"], row["lower"], row["upper"], row["residual_std"])
               for row in payload["predictions"]]
        served_by = (payload["models_digest"], payload["generation"])
        failed += not (got == want and served_by == (state.digest, 0))
    return failed


def _tail(latencies: list[float]) -> float:
    return stats.percentile(latencies, 99.0)


def _run(state: State, phase: Phase) -> PhaseResult:
    return run_phase(state.server.host, state.server.port, phase.offsets, phase.payloads, CONNECTIONS)


def _ladder(state: State) -> float:
    """Rising rates until p99 misses the limit; the rate where p99 crosses it, log-interpolated."""
    previous: tuple[float, float] | None = None
    for rate in LADDER:
        result = _run(state, _phase(state, f"ladder-{rate:g}", rate, LADDER_STEP_S))
        tail = _tail(result.latencies) if not result.unanswered else math.inf
        if tail > LIMIT_S:
            if previous is None:
                return rate * LIMIT_S / tail
            low_rate, low_tail = previous
            if not math.isfinite(tail):
                return low_rate
            fraction = math.log(LIMIT_S / low_tail) / math.log(tail / low_tail)
            return low_rate + fraction * (rate - low_rate)
        previous = (rate, tail)
    return LADDER[-1]


def server_peak_rss_mb(server: Server) -> float:
    """The server's peak resident set (``VmHWM``) in MiB."""
    for line in Path(f"/proc/{server.process.pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in the server's /proc status")


@contextlib.contextmanager
def _pinned(server: Server):
    """Server and load generator on separate CPUs, when there are two to use.

    Left to the scheduler, the two processes sometimes share a CPU, which
    shifts every latency of a run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield
        return
    server_cpus = os.sched_getaffinity(server.process.pid)
    os.sched_setaffinity(server.process.pid, {cpus[0]})
    os.sched_setaffinity(0, {cpus[1]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, set(cpus))
        os.sched_setaffinity(server.process.pid, server_cpus)


def measure(state: State, seconds: float) -> Outcome:
    """The ``unique`` and ``hot`` phases at the fixed rate."""
    unique_s, hot_s = (share * seconds for share in SHARES)
    unique = _phase(state, "unique", RATE, unique_s)
    hot = _phase(state, "hot", RATE, hot_s, _hot_set(state))
    with _pinned(state.server):
        busy = state.server.cpu_seconds()
        unique_result = _run(state, unique)
        busy = state.server.cpu_seconds() - busy
        hot_result = _run(state, hot)
    phases = [(unique, unique_result), (hot, hot_result)]
    return Outcome(
        metrics={
            "p50_s": stats.median(unique_result.latencies),
            "rate_per_s": len(unique.payloads) / busy,
            "peak_rss_mb": server_peak_rss_mb(state.server),
        },
        attempted=sum(len(phase.payloads) for phase, _ in phases),
        failed=sum(check_bodies(state, phase, result) for phase, result in phases),
        samples=len(unique_result.latencies),
    )


def _decompose(state: State, bodies: list[bytes], span=untraced) -> None:
    """Parse, canonicalize and predict each body in-process, then predict it again from the cache."""
    core = ServingCore(ModelHandle.load(state.models), cache_size=DEFAULT_CACHE_SIZE)
    canonical = []
    for body in bodies:
        with span("serving.parse"):
            payload = json.loads(body)
        configs = payload["configs"] if "configs" in payload else [payload]
        with span("serving.canonical"):
            canonical.append([canonical_config(config) for config in configs])
    for canon in canonical:
        for name in ("serving.predict", "serving.predict_cached"):
            with span(name):
                core.predict_canonical(canon)


def traced(state: State, recorder: Recorder) -> Outcome:
    """Short unique and hot phases for the server's counters, then the in-process request split."""
    unique_s, hot_s = (share * TRACED_SECONDS for share in SHARES)
    unique = _phase(state, "unique", RATE, unique_s)
    hot = _phase(state, "hot", RATE, hot_s, _hot_set(state))
    bodies = [payload.split(b"\r\n\r\n", 1)[1] for payload in unique.payloads]
    start = time.perf_counter()
    _decompose(state, bodies)
    untraced_wall = time.perf_counter() - start

    before = state.server.stats()
    with _pinned(state.server), recorder.span("trace.root"):
        with recorder.span("serving.load"):
            unique_result = _run(state, unique)
        between = state.server.stats()
        with recorder.span("serving.load"):
            hot_result = _run(state, hot)
        after = state.server.stats()
        with recorder.span("serving.load"):
            max_rate = _ladder(state)
        _decompose(state, bodies, recorder.span)
    metrics = layer_metrics(recorder, untraced_wall)
    # The overhead compares the in-process split alone, traced against untraced.
    split_wall = sum(span.duration for span in recorder.spans if span.name.startswith("serving.")
                     and span.name != "serving.load")
    metrics["trace.overhead_frac"] = (split_wall - untraced_wall) / untraced_wall
    counts = recorder.counts()
    self_s = recorder.self_times()
    requests = len(bodies)
    for name in ("serving.parse", "serving.canonical", "serving.predict", "serving.predict_cached"):
        metrics[name + "_s"] = self_s[name] / counts[name]
    metrics["serving.load_s"] = self_s["serving.load"]
    hits = after["cache"]["hits"] - between["cache"]["hits"]
    misses = after["cache"]["misses"] - between["cache"]["misses"]
    batches = after["batching"]["batches"] - before["batching"]["batches"]
    configs = after["batching"]["configs"] - before["batching"]["configs"]
    metrics.update(
        {
            "serving.cache.hit_frac": hits / max(hits + misses, 1),
            "serving.batches": batches,
            "serving.mean_batch_configs": configs / max(batches, 1),
            "serving.errors": after["requests"]["errors"] - before["requests"]["errors"],
            "serving.gen_late_max_ms": 1e3 * max(unique_result.late_max, hot_result.late_max),
            "serving.backlog_max": max(unique_result.backlog_max, hot_result.backlog_max),
            "serving.p99_ms": 1e3 * _tail(unique_result.latencies),
            "serving.hot_p99_ms": 1e3 * _tail(hot_result.latencies),
            "serving.max_rate_rps": max_rate,
        }
    )
    failed = check_bodies(state, unique, unique_result) + check_bodies(state, hot, hot_result)
    return Outcome(metrics=metrics, attempted=len(unique.payloads) + len(hot.payloads) + requests,
                   failed=failed, samples=len(unique_result.latencies))
