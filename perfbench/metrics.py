"""The benchmark's declared workloads and metrics; ``BENCHMARK.json`` mirrors them.

Every run prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``), whatever the workload.  An end-to-end metric means
the same kind of thing on each workload; ``README.md`` says which unit of
work it times there.  A per-layer metric that a workload does not load reads
0: that workload spent no time and did no work in that layer.
"""

from __future__ import annotations

import re

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Seconds of measured work per end-to-end run.
RUN_SECONDS = 20

ALGORITHMS = ("direct-send", "binary-swap", "radix-k")
TIERS = ("dense", "stream")

WORKLOADS = {
    "insitu": "Proxy sims published through Strawman, 4 plots drawn per cycle: the paper's in situ path, "
              "where rendering is ~98% of a frame (insitu, geometry, rendering, dpp, compositing).",
    "composite": "Sort-last over compositing of seeded sub-images, 256 dense and 1,024 streamed ranks, 3 "
                 "algorithms: the one workload compositing dominates (compositing, runtime).",
    "sweep": "Default 102-row study matrix: plan, cold run at 2 jobs, warm resume, report: the corpus "
             "pipeline, row cache written then read (study, rendering, compositing, reporting).",
    "serve": "Open-loop Poisson load on the prediction server, unique and Zipf-hot configs: the only "
             "serving workload, LRU cache bypassed then hit (serving, reporting).",
}

#: (name, unit, better, bound).  Units of work per workload: an in situ cycle,
#: a dense round over the three algorithms, a cold sweep pass, one request.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("p50_s", "s", "lower", 0.25),
    ("rate_per_s", "1/s", "higher", 0.25),
]


def _per_layer() -> list[tuple[str, str, str]]:
    lower = "lower"
    rows = [
        ("trace.wall_s", "s", lower),
        ("trace.unattributed_s", "s", lower),
        ("trace.overhead_frac", "frac", lower),
        ("trace.spans", "count", lower),
        ("simulation.advance_s", "s", lower),
        ("insitu.publish_s", "s", lower),
        ("insitu.node_to_mesh_s", "s", lower),
        ("insitu.unattributed_s", "s", lower),
        ("insitu.raytrace_frame_s", "s", lower),
        ("insitu.raster_frame_s", "s", lower),
        ("insitu.volume_frame_s", "s", lower),
        ("insitu.tet_frame_s", "s", lower),
        ("geometry.external_faces_s", "s", lower),
        ("geometry.hex_to_tets_s", "s", lower),
        ("rendering.raytracer.render_s", "s", lower),
        ("rendering.raytracer.bvh_build_s", "s", lower),
        ("rendering.raytracer.trace_s", "s", lower),
        ("rendering.raytracer.shade_s", "s", lower),
        ("rendering.raytracer.mrays_per_s", "Mrays/s", "higher"),
        ("rendering.rasterizer.render_s", "s", lower),
        ("rendering.volume.structured_s", "s", lower),
        ("rendering.volume.tet_s", "s", lower),
        ("rendering.volume.tet_sampling_s", "s", lower),
        ("rendering.volume.tet_compositing_s", "s", lower),
        ("dpp.invocations", "count", lower),
        ("dpp.elements", "count", lower),
        ("dpp.bytes_moved", "B", lower),
        ("compositing.depth_s", "s", lower),
        ("compositing.over_s", "s", lower),
        ("compositing.factory_s", "s", lower),
    ]
    for algorithm in ALGORITHMS:
        rows += [
            (f"compositing.{algorithm}.dense_s", "s", lower),
            (f"compositing.{algorithm}.stream_s", "s", lower),
            (f"compositing.{algorithm}.stream.cohorts", "count", lower),
            (f"compositing.{algorithm}.stream.peak_live_images", "count", lower),
        ]
        for tier in TIERS:
            rows += [
                (f"compositing.{algorithm}.{tier}.merge_operations", "count", lower),
                (f"runtime.{algorithm}.{tier}.bytes_exchanged", "B", lower),
                (f"runtime.{algorithm}.{tier}.messages", "count", lower),
                (f"runtime.{algorithm}.{tier}.network_s", "s", lower),
            ]
    rows += [
        ("study.plan_s", "s", lower),
        ("study.cold_s", "s", lower),
        ("study.busy_s.render", "s", lower),
        ("study.busy_s.synthetic", "s", lower),
        ("study.busy_s.compositing", "s", lower),
        ("study.parallel_efficiency", "frac", "higher"),
        ("study.cache.hits", "count", "higher"),
        ("study.cache.resume_s", "s", lower),
        ("study.rows", "count", "higher"),
        ("reporting.fit_s", "s", lower),
        ("reporting.report_s", "s", lower),
        ("serving.load_s", "s", lower),
        ("serving.parse_s", "s", lower),
        ("serving.canonical_s", "s", lower),
        ("serving.predict_s", "s", lower),
        ("serving.predict_cached_s", "s", lower),
        ("serving.cache.hit_frac", "frac", "higher"),
        ("serving.mean_batch_configs", "count", "higher"),
        ("serving.batches", "count", lower),
        ("serving.errors", "count", lower),
        ("serving.gen_late_max_ms", "ms", lower),
        ("serving.backlog_max", "count", lower),
        ("serving.p99_ms", "ms", lower),
        ("serving.hot_p99_ms", "ms", lower),
        ("serving.max_rate_rps", "1/s", "higher"),
    ]
    return rows


PER_LAYER = _per_layer()
END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def per_layer_values(measured: dict[str, float]) -> dict[str, float]:
    """Every declared per-layer metric: the measured value, or 0 for a layer not loaded."""
    unknown = sorted(set(measured) - set(PER_LAYER_UNITS))
    if unknown:
        raise KeyError(f"undeclared per-layer metrics {unknown}")
    return {name: float(measured.get(name, 0.0)) for name in PER_LAYER_UNITS}


def benchmark_manifest() -> dict:
    """The ``BENCHMARK.json`` these declarations describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER],
    }
