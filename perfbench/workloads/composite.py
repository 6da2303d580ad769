"""``composite``: sort-last over compositing of seeded synthetic sub-images.

Set-up builds 256 full framebuffers at 128^2 (each rank covers 8% of the
image at random pixels); at 256^2 they alone would hold 671 MB.  A dense
round composites them with each of the three algorithms
(``Compositor.composite``); a stream round pushes 1,024 ranks of the ``amr``
scenario at 256^2 through ``Compositor.composite_streaming`` with each
algorithm.  This is the only workload where compositing dominates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import stats
from perfbench.metrics import ALGORITHMS
from perfbench.outcome import Outcome, layer_metrics, peak_rss_mb
from perfbench.spans import Recorder, patched
from repro.compositing import Compositor, scene_factory
from repro.compositing.scenarios import synthetic_run_image
from repro.rendering.framebuffer import Framebuffer
from repro.util.rng import default_rng, derive_seed

DENSE_RANKS = 256
DENSE_SIZE = 128
STREAM_RANKS = 1024
SIZE = 256
COVERAGE = 0.08
#: Ranks of the dense-vs-reference check.
CHECK_RANKS = 64
#: Live-image budget of the cohort-size invariance check (the default is 256).
CHECK_LIVE_RANKS = 128
WARMUP_RANKS = 16
MIN_ROUNDS = 2
DENSE_SHARE = 0.6


def _framebuffer(rank: int, seed: int) -> Framebuffer:
    rng = default_rng(seed, "perfbench-composite", rank)
    image = synthetic_run_image(rank, DENSE_SIZE, DENSE_SIZE, "over", COVERAGE, rng)
    framebuffer = Framebuffer(DENSE_SIZE, DENSE_SIZE)
    if image.active_pixels:
        framebuffer.write_pixels(image.pixels, image.rgba, image.depth)
    return framebuffer


@dataclass
class State:
    seed: int
    framebuffers: list[Framebuffer]
    visibility: list[float]
    stream_seed: int
    dense_images: dict[str, np.ndarray] = field(default_factory=dict)
    stream_images: dict[str, np.ndarray] = field(default_factory=dict)


def setup(seed: int, workdir: Path) -> State:
    """Build the dense inputs and warm every algorithm on a small composite."""
    framebuffers = [_framebuffer(rank, seed) for rank in range(DENSE_RANKS)]
    visibility = [float(rank) for rank in range(DENSE_RANKS)]
    for algorithm in ALGORITHMS:
        Compositor(algorithm).composite(
            framebuffers[:WARMUP_RANKS], mode="over", visibility_order=visibility[:WARMUP_RANKS]
        )
    return State(seed, framebuffers, visibility, derive_seed(seed, "perfbench-composite-stream"))


def close(state: State) -> None:
    state.framebuffers.clear()


def dense(state: State, algorithm: str):
    return Compositor(algorithm).composite(state.framebuffers, mode="over", visibility_order=state.visibility)


def stream(state: State, algorithm: str, max_live_ranks: int = 256, factory=None):
    factory = factory or scene_factory("amr", STREAM_RANKS, SIZE, SIZE, mode="over", seed=state.stream_seed)
    return Compositor(algorithm).composite_streaming(
        factory, STREAM_RANKS, SIZE, SIZE, "over", max_live_ranks=max_live_ranks
    )


def _same(images: dict[str, np.ndarray], algorithm: str, rgba: np.ndarray) -> bool:
    """The first image of each algorithm is kept; later ones must equal it bit for bit."""
    first = images.setdefault(algorithm, rgba)
    return first is rgba or np.array_equal(first, rgba)


def check(state: State) -> tuple[int, int]:
    """Dense vs the reference engine on a rank sample, and cohort-size invariance."""
    attempted = failed = 0
    for algorithm in ALGORITHMS:
        sample = state.framebuffers[:CHECK_RANKS]
        order = state.visibility[:CHECK_RANKS]
        fast = Compositor(algorithm).composite(sample, mode="over", visibility_order=order).framebuffer
        slow = Compositor(algorithm).composite(
            sample, mode="over", visibility_order=order, engine="reference"
        ).framebuffer
        attempted += 1
        failed += not (
            np.allclose(fast.rgba, slow.rgba, rtol=0.0, atol=1e-10)
            and np.allclose(fast.depth, slow.depth, rtol=0.0, atol=1e-10)
        )
    algorithm = ALGORITHMS[state.seed % len(ALGORITHMS)]
    if algorithm not in state.stream_images:
        state.stream_images[algorithm] = stream(state, algorithm).framebuffer.rgba
    other = stream(state, algorithm, max_live_ranks=CHECK_LIVE_RANKS).framebuffer.rgba
    attempted += 1
    failed += not np.array_equal(state.stream_images[algorithm], other)
    return attempted, failed


def _next_tier(rounds: dict[str, list[float]]) -> str:
    """``MIN_ROUNDS`` dense rounds, then as many stream rounds, then whichever is behind its share."""
    for tier, done in rounds.items():
        if len(done) < MIN_ROUNDS:
            return tier
    dense_s, stream_s = sum(rounds["dense"]), sum(rounds["stream"])
    return "dense" if dense_s * (1 - DENSE_SHARE) <= stream_s * DENSE_SHARE else "stream"


def measure(state: State, seconds: float) -> Outcome:
    """Dense and stream rounds until ``seconds`` have passed, dense getting ``DENSE_SHARE`` of them."""
    rounds: dict[str, list[float]] = {"dense": [], "stream": []}
    attempted = failed = 0
    while sum(map(sum, rounds.values())) < seconds or min(map(len, rounds.values())) < MIN_ROUNDS:
        tier = _next_tier(rounds)
        run, images = (dense, state.dense_images) if tier == "dense" else (stream, state.stream_images)
        round_seconds = 0.0
        for algorithm in ALGORITHMS:
            start = time.perf_counter()
            result = run(state, algorithm)
            round_seconds += time.perf_counter() - start
            attempted += 1
            failed += not _same(images, algorithm, result.framebuffer.rgba)
        rounds[tier].append(round_seconds)
    peak = peak_rss_mb()
    checked, check_failed = check(state)
    return Outcome(
        metrics={
            "p50_s": stats.median(rounds["dense"]),
            "rate_per_s": len(ALGORITHMS) * STREAM_RANKS / stats.median(rounds["stream"]),
            "peak_rss_mb": peak,
        },
        attempted=attempted + checked,
        failed=failed + check_failed,
        samples=len(rounds["dense"]),
    )


def _round(state: State, factory=None) -> dict:
    results = {}
    for algorithm in ALGORITHMS:
        results[(algorithm, "dense")] = dense(state, algorithm)
    for algorithm in ALGORITHMS:
        results[(algorithm, "stream")] = stream(state, algorithm, factory=factory)
    return results


def traced(state: State, recorder: Recorder) -> Outcome:
    """One round untraced, then the same round with spans around each composite and factory call."""
    start = time.perf_counter()
    _round(state)
    untraced_wall = time.perf_counter() - start

    base = scene_factory("amr", STREAM_RANKS, SIZE, SIZE, mode="over", seed=state.stream_seed)

    def factory(rank: int):
        with recorder.span("compositing.factory"):
            return base(rank)

    targets = [
        (Compositor, "composite", lambda self, *a, **k: f"compositing.{self.algorithm}.dense"),
        (Compositor, "composite_streaming", lambda self, *a, **k: f"compositing.{self.algorithm}.stream"),
    ]
    with patched(recorder, targets), recorder.span("trace.root"):
        results = _round(state, factory)

    metrics = layer_metrics(recorder, untraced_wall)
    self_s = recorder.self_times()
    metrics["compositing.factory_s"] = self_s.get("compositing.factory", 0.0)
    attempted = failed = 0
    for (algorithm, tier), result in results.items():
        metrics[f"compositing.{algorithm}.{tier}_s"] = self_s[f"compositing.{algorithm}.{tier}"]
        metrics[f"compositing.{algorithm}.{tier}.merge_operations"] = result.merge_operations
        metrics[f"runtime.{algorithm}.{tier}.bytes_exchanged"] = result.bytes_exchanged
        metrics[f"runtime.{algorithm}.{tier}.messages"] = result.messages
        metrics[f"runtime.{algorithm}.{tier}.network_s"] = result.network_seconds
        if tier == "stream":
            metrics[f"compositing.{algorithm}.stream.cohorts"] = result.cohorts
            metrics[f"compositing.{algorithm}.stream.peak_live_images"] = result.peak_live_images
        images = state.dense_images if tier == "dense" else state.stream_images
        attempted += 1
        failed += not _same(images, algorithm, result.framebuffer.rgba)
    checked, check_failed = check(state)
    return Outcome(metrics=metrics, attempted=attempted + checked, failed=failed + check_failed, samples=1)
