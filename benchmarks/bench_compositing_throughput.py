"""Sort-last compositing throughput: the cohort engine vs the dense reference.

Companion to ``bench_traversal_throughput.py`` / ``bench_volume_throughput.py``
for the compositing side of the perf trajectory.  It drives all three
exchange algorithms (direct-send, binary-swap, radix-k) over synthetic
sort-last sub-images at 64-256 simulated ranks and 256^2 pixels in ``"over"``
mode (the Eq. 5.5 corpus configuration), against the **dense per-run
reference drivers** kept in-tree as ``composite_reference``.  Because the
baseline is the actual pre-refactor code measured on the same machine and
images, the reported speedups are load-independent.

Per-rank fill follows the Section 5.8 mapping (``0.55 / P^(1/3)`` of the
pixels, a contiguous screen block per rank), so the cohort engine's
advantage reflects exactly the sparsity a weak-scaled sort-last render
produces.

Run explicitly (the ``perf`` marker keeps it out of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/bench_compositing_throughput.py -m perf -s

emit the JSON trajectory record (raytracer + volume + compositing sections):

    PYTHONPATH=src python -m benchmarks.emit_bench

or run the CI smoke check (4 ranks at 64^2, differential only):

    PYTHONPATH=src python -m benchmarks.bench_compositing_throughput --smoke
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from repro.compositing import Compositor
from repro.rendering.framebuffer import Framebuffer

#: Image size of the throughput measurements (the acceptance configuration).
COMPOSITING_IMAGE_SIZE = 256

#: Simulated rank counts of the trajectory record.
COMPOSITING_RANK_COUNTS = (64, 128, 256)

#: Rank count at which the reference engine is also measured (it is too slow
#: to time at every scale) and the speedup floor is asserted.
REFERENCE_RANK_COUNT = 64

#: Acceptance floor: the cohort engine must be at least this much faster
#: than ``composite_reference`` aggregated over the three algorithms at
#: 64 ranks / 256^2.
SPEEDUP_FLOOR_64 = 3.0

ALGORITHMS = ("direct-send", "binary-swap", "radix-k")

#: Fraction of the image each rank's block covers at one task (Section 5.8).
CAMERA_FILL_FRACTION = 0.55


def synthetic_sub_images(tasks: int, size: int, seed: int = 2016) -> list[Framebuffer]:
    """Per-rank sort-last framebuffers with mapping-consistent active blocks."""
    rng = np.random.default_rng(seed)
    fill = CAMERA_FILL_FRACTION / tasks ** (1.0 / 3.0)
    active = max(int(fill * size * size), 1)
    side = max(int(np.sqrt(active)), 1)
    framebuffers = []
    for _ in range(tasks):
        framebuffer = Framebuffer(size, size)
        x0 = int(rng.integers(0, max(size - side, 1)))
        y0 = int(rng.integers(0, max(size - side, 1)))
        block = (slice(y0, min(y0 + side, size)), slice(x0, min(x0 + side, size)))
        shape = framebuffer.rgba[block][..., 0].shape
        framebuffer.rgba[block] = np.concatenate(
            [rng.random(shape + (3,)), np.full(shape + (1,), 0.7)], axis=-1
        )
        framebuffer.depth[block] = rng.random(shape) * 10.0
        framebuffers.append(framebuffer)
    return framebuffers


def _composite(algorithm: str, framebuffers: list[Framebuffer], engine: str = "cohort"):
    visibility = list(np.arange(len(framebuffers), dtype=np.float64))
    return Compositor(algorithm).composite(
        framebuffers, mode="over", visibility_order=visibility, engine=engine
    )


def measure_algorithm(algorithm: str, tasks: int, size: int, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall clock for the cohort engine (plus traffic)."""
    framebuffers = synthetic_sub_images(tasks, size)
    result = _composite(algorithm, framebuffers)  # warm
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = _composite(algorithm, framebuffers)
        best = min(best, time.perf_counter() - start)
    return {
        "seconds": best,
        "pixels": size * size,
        "tasks": tasks,
        "mpixels_per_s": size * size / best / 1e6,
        "bytes_exchanged": result.bytes_exchanged,
        "messages": result.messages,
        "merge_operations": result.merge_operations,
        "average_active_pixels": result.average_active_pixels,
    }


def measure_reference_speedups(size: int = COMPOSITING_IMAGE_SIZE, repeats: int = 5) -> dict:
    """Best-of-``repeats`` fast vs reference at the floor scale.

    Each engine is timed in its own block (warm run + gc fence first) so the
    fast path's measurements do not inherit allocator churn from the
    reference's ~130 MB of dense sub-image copies per composite.
    """
    import gc

    framebuffers = synthetic_sub_images(REFERENCE_RANK_COUNT, size)
    record: dict = {"per_algorithm": {}}
    total_fast = total_reference = 0.0
    for algorithm in ALGORITHMS:
        fast = _composite(algorithm, framebuffers)
        gc.collect()
        fast_times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fast = _composite(algorithm, framebuffers)
            fast_times.append(time.perf_counter() - start)
        reference = _composite(algorithm, framebuffers, "reference")
        gc.collect()
        reference_times = []
        for _ in range(repeats):
            start = time.perf_counter()
            reference = _composite(algorithm, framebuffers, "reference")
            reference_times.append(time.perf_counter() - start)
        assert np.allclose(
            fast.framebuffer.rgba, reference.framebuffer.rgba, atol=1e-10, rtol=0.0
        ), f"{algorithm}: cohort engine diverged from composite_reference"
        best_fast, best_reference = min(fast_times), min(reference_times)
        total_fast += best_fast
        total_reference += best_reference
        record["per_algorithm"][algorithm] = {
            "fast_seconds": best_fast,
            "reference_seconds": best_reference,
            "speedup": best_reference / best_fast,
        }
    record["aggregate_speedup"] = total_reference / total_fast
    record["fast_seconds"] = total_fast
    record["reference_seconds"] = total_reference
    return record


def measure_all() -> dict:
    """The compositing trajectory record: all algorithms at 64-256 ranks."""
    results = {}
    for tasks in COMPOSITING_RANK_COUNTS:
        for algorithm in ALGORITHMS:
            results[f"{algorithm}_{tasks}"] = measure_algorithm(
                algorithm, tasks, COMPOSITING_IMAGE_SIZE
            )
    return results


def verify_compositing_differential(tasks: int = 12, size: int = 48) -> None:
    """The cohort engine must match the dense reference in both modes."""
    rng = np.random.default_rng(7)
    for algorithm in ALGORITHMS:
        framebuffers = synthetic_sub_images(tasks, size, seed=11)
        fast = _composite(algorithm, framebuffers)
        slow = _composite(algorithm, framebuffers, "reference")
        assert np.allclose(fast.framebuffer.rgba, slow.framebuffer.rgba, atol=1e-10, rtol=0.0)
        # Depth (z-buffer) mode on scattered-coverage images.
        depth_buffers = []
        for rank in range(tasks):
            framebuffer = Framebuffer(size, size)
            mask = rng.random((size, size)) < 0.4
            count = int(mask.sum())
            framebuffer.rgba[mask] = np.column_stack([rng.random((count, 3)), np.ones(count)])
            framebuffer.depth[mask] = rng.random(count) * 5.0
            depth_buffers.append(framebuffer)
        fast = Compositor(algorithm).composite(depth_buffers, mode="depth")
        slow = Compositor(algorithm).composite(depth_buffers, mode="depth", engine="reference")
        assert np.allclose(fast.framebuffer.rgba, slow.framebuffer.rgba, atol=1e-10, rtol=0.0)
        assert np.array_equal(fast.framebuffer.depth, slow.framebuffer.depth)


def smoke(tasks: int = 4, size: int = 64) -> None:
    """CI smoke: exercise the fast path and differential contract cheaply."""
    verify_compositing_differential(tasks=tasks, size=size)
    for algorithm in ALGORITHMS:
        result = _composite(algorithm, synthetic_sub_images(tasks, size))
        assert result.bytes_exchanged > 0 and result.messages > 0
    print(f"compositing smoke ok ({tasks} ranks at {size}^2, all algorithms within 1e-10)")


@pytest.mark.perf
def test_compositing_throughput():
    from common import print_table

    verify_compositing_differential()
    speedups = measure_reference_speedups()
    results = measure_all()
    rows = [
        [
            key,
            record["tasks"],
            f"{record['seconds']:.3f}",
            f"{record['mpixels_per_s']:.2f}",
            f"{record['bytes_exchanged'] / 1e6:.1f}",
            record["messages"],
        ]
        for key, record in results.items()
    ]
    print_table(
        "Compositing throughput (cohort engine, over mode, 256^2)",
        ["configuration", "ranks", "seconds", "Mpix/s", "MB exchanged", "messages"],
        rows,
    )
    speedup_rows = [
        [algorithm, f"{entry['fast_seconds']:.3f}", f"{entry['reference_seconds']:.3f}",
         f"{entry['speedup']:.2f}x"]
        for algorithm, entry in speedups["per_algorithm"].items()
    ]
    speedup_rows.append(
        ["aggregate", f"{speedups['fast_seconds']:.3f}", f"{speedups['reference_seconds']:.3f}",
         f"{speedups['aggregate_speedup']:.2f}x"]
    )
    print_table(
        f"Cohort engine vs composite_reference ({REFERENCE_RANK_COUNT} ranks, 256^2)",
        ["algorithm", "fast s", "reference s", "speedup"],
        speedup_rows,
    )
    assert speedups["aggregate_speedup"] >= SPEEDUP_FLOOR_64


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--smoke":
        smoke()
        return 0
    print("differential check ...")
    verify_compositing_differential()
    print("measuring speedups vs composite_reference ...")
    speedups = measure_reference_speedups()
    for algorithm, entry in speedups["per_algorithm"].items():
        print(f"  {algorithm:12s} {entry['speedup']:.2f}x")
    print(f"  aggregate    {speedups['aggregate_speedup']:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
