"""The experiment harness: run the rendering sweep and gather the regression corpus.

The paper's study runs 1,350 experiments over {architecture x rendering
technique x simulation code x MPI task count x image resolution x data size},
keeps the slowest MPI task of each, and fits the per-technique models to the
resulting corpus.  :class:`StudyHarness` reproduces that pipeline at
laptop-friendly scale:

* Configurations are sampled with stratified (image size, data size) pairs,
  exactly as the paper samples its resolution/size space.
* Each configuration is decomposed over simulated MPI tasks
  (:class:`~repro.runtime.decomposition.BlockDecomposition`, weak scaling);
  a subset of ranks is actually rendered (the model only needs the slowest
  task) and the per-rank observed features are recorded.
* ``cpu-host`` experiments use the real measured wall-clock of the numpy
  renderers; GPU (and other device) experiments reuse the observed features
  and synthesize their times with :mod:`repro.machines.costmodel` -- the
  substitution documented in DESIGN.md.
* A separate compositing sweep drives the sort-last compositor over varying
  task counts and image sizes to build the Eq. 5.5 corpus.

The result is a :class:`StudyCorpus` that can fit all six single-node models
(Table 12 / 17), cross-validate them (Table 13, Figure 11), and fit the
compositing model (Table 14, Figures 12-13).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.transforms import Camera
from repro.geometry.triangles import external_faces
from repro.machines.costmodel import synthesize_render_time
from repro.modeling.models import (
    CompositingFeatures,
    CompositingModel,
    RasterizationModel,
    RayTracingModel,
    VolumeRenderingModel,
)
from repro.rendering import (
    Rasterizer,
    RayTracer,
    RayTracerConfig,
    Scene,
    StructuredVolumeConfig,
    StructuredVolumeRenderer,
    UnstructuredVolumeConfig,
    UnstructuredVolumeRenderer,
    Workload,
)
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.result import ObservedFeatures, RenderResult
from repro.runtime.decomposition import BlockDecomposition
from repro.compositing import Compositor, scene_factory
from repro.util.rng import default_rng, derive_seed

__all__ = [
    "StudyConfiguration",
    "ExperimentRecord",
    "CompositingRecord",
    "FailureRecord",
    "StudyCorpus",
    "StudyHarness",
    "get_default_corpus",
]

#: Host architecture name whose timings are real measurements.
HOST_ARCHITECTURE = "cpu-host"


# ---------------------------------------------------------------------------
# Synthetic simulation fields (continuous across the decomposed domain).
# ---------------------------------------------------------------------------

def _lulesh_field(points: np.ndarray) -> np.ndarray:
    """Expanding-shell energy field (Sedov-like)."""
    radius = np.linalg.norm(points - 0.1, axis=1)
    return np.exp(-((radius - 0.55) ** 2) / 0.02) + 0.2 * np.exp(-radius / 0.3)


def _kripke_field(points: np.ndarray) -> np.ndarray:
    """Clustered scalar-flux field."""
    centers = np.array([[0.3, 0.4, 0.5], [0.7, 0.6, 0.4], [0.5, 0.2, 0.7]])
    widths = np.array([0.05, 0.08, 0.04])
    value = np.full(len(points), 0.1)
    for center, width in zip(centers, widths):
        value += np.exp(-np.sum((points - center) ** 2, axis=1) / (2 * width))
    return value


def _cloverleaf_field(points: np.ndarray) -> np.ndarray:
    """Advecting-front density field."""
    return 1.0 / (1.0 + np.exp(-12.0 * (points[:, 0] - 0.4))) + 0.1 * np.sin(
        6.0 * np.pi * points[:, 1]
    ) * np.sin(6.0 * np.pi * points[:, 2])


_SIMULATION_FIELDS = {
    "lulesh": _lulesh_field,
    "kripke": _kripke_field,
    "cloverleaf": _cloverleaf_field,
}


# ---------------------------------------------------------------------------
# Configuration and records
# ---------------------------------------------------------------------------

@dataclass
class StudyConfiguration:
    """Parameters of the sweep (scaled-down analogue of Section 5.4).

    Two size ranges exist because of the hardware substitution documented in
    DESIGN.md: ``cpu-host`` experiments actually render with the numpy
    renderers, so their image / data sizes are kept laptop-friendly
    (``image_size_range`` / ``cells_per_task_range``), while experiments for
    synthesized devices need no rendering and therefore use the paper's
    full-scale ranges (``synthetic_image_size_range`` /
    ``synthetic_cells_per_task_range``: 512^2-2880^2 pixels, 128^3-320^3
    cells per task) with inputs taken from the Section 5.8 mapping.
    """

    architectures: tuple[str, ...] = (HOST_ARCHITECTURE, "gpu1-k40m")
    #: DPP back-ends (``repro.dpp`` device names) the host renders run on.
    #: Each ``cpu-host`` configuration is rendered once per listed device --
    #: the real back-end swap of the paper's Table 5.  Synthesized
    #: architectures never render, so the axis does not apply to them.
    dpp_devices: tuple[str, ...] = ("vectorized",)
    techniques: tuple[str, ...] = ("raytrace", "raster", "volume")
    simulations: tuple[str, ...] = ("kripke", "cloverleaf", "lulesh")
    task_counts: tuple[int, ...] = (1, 2, 4, 8)
    samples_per_technique: int = 12
    image_size_range: tuple[int, int] = (64, 160)
    cells_per_task_range: tuple[int, int] = (8, 20)
    synthetic_image_size_range: tuple[int, int] = (512, 2880)
    synthetic_cells_per_task_range: tuple[int, int] = (128, 320)
    samples_in_depth: int = 60
    synthetic_samples_in_depth: int = 1000
    max_sampled_ranks: int = 2
    seed: int = 2016
    compositing_task_counts: tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    compositing_pixel_sizes: tuple[int, ...] = (64, 96, 128, 192, 256)
    compositing_algorithms: tuple[str, ...] = ("radix-k",)
    #: Task counts above this budget run through the cohort scheduler
    #: (:meth:`repro.compositing.Compositor.composite_streaming`) instead of
    #: materializing every rank's framebuffer, which is how the sweep reaches
    #: thousand-rank rows in bounded memory.
    compositing_max_live_ranks: int = 256
    #: Explicit radix schedule for ``"radix-k"`` rows; ``None`` factors the
    #: task count.  The product must equal every swept task count
    #: (:class:`repro.compositing.RadixFactorError` otherwise).
    compositing_radices: tuple[int, ...] | None = None
    #: Scene family for streamed (above-budget) compositing rows -- a key of
    #: :data:`repro.compositing.SCENARIOS` (``uniform``/``amr``/``camera-orbit``).
    compositing_scenario: str = "uniform"

    def stratified_samples(
        self, rng: np.random.Generator, synthetic: bool = False
    ) -> list[tuple[int, int, int, str]]:
        """Stratified (image size, cells per task, tasks, simulation) samples.

        Image size and data size are stratified over their ranges (Latin-
        hypercube style: one sample per stratum with random jitter), while
        task count and simulation cycle through their option lists.
        """
        count = self.samples_per_technique
        image_lo, image_hi = self.synthetic_image_size_range if synthetic else self.image_size_range
        cells_lo, cells_hi = (
            self.synthetic_cells_per_task_range if synthetic else self.cells_per_task_range
        )
        image_edges = np.linspace(image_lo, image_hi, count + 1)
        cells_edges = np.linspace(cells_lo, cells_hi, count + 1)
        image_sizes = rng.uniform(image_edges[:-1], image_edges[1:]).astype(int)
        cells_sizes = rng.uniform(cells_edges[:-1], cells_edges[1:]).astype(int)
        rng.shuffle(cells_sizes)
        samples = []
        for index in range(count):
            tasks = self.task_counts[index % len(self.task_counts)]
            simulation = self.simulations[index % len(self.simulations)]
            samples.append((int(image_sizes[index]), int(cells_sizes[index]), tasks, simulation))
        return samples


@dataclass
class ExperimentRecord:
    """One row of the rendering corpus (the slowest sampled rank of one test)."""

    architecture: str
    technique: str
    simulation: str
    num_tasks: int
    cells_per_task: int
    image_width: int
    image_height: int
    features: ObservedFeatures
    phase_seconds: dict[str, float]
    build_seconds: float
    frame_seconds: float
    #: Volume-sampling depth the experiment rendered (or mapped) with; 0 on
    #: rows from pre-recording corpora.  The Table 16 mapping validation uses
    #: it so the a-priori SPR term matches the experiment being validated.
    samples_in_depth: int = 0
    #: DPP back-end the host render executed on ("" on synthesized rows and
    #: rows from pre-device-matrix corpora).
    dpp_device: str = ""

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.frame_seconds

    @property
    def pixels(self) -> int:
        return self.image_width * self.image_height


@dataclass
class CompositingRecord:
    """One row of the compositing corpus."""

    num_tasks: int
    pixels: int
    average_active_pixels: float
    seconds: float
    algorithm: str = "radix-k"

    @classmethod
    def from_result(cls, result, seconds: float, algorithm: str = "radix-k") -> "CompositingRecord":
        """Build a row from a :class:`~repro.compositing.CompositeResult`.

        ``avg(AP)`` is threaded through
        :func:`repro.modeling.features.compositing_features_from_result`, so
        the corpus consumes the cohort engine's mode-aware active-pixel
        accounting unchanged in meaning.
        """
        from repro.modeling.features import compositing_features_from_result

        features = compositing_features_from_result(result)
        return cls(
            num_tasks=features.num_tasks,
            pixels=features.pixels,
            average_active_pixels=features.average_active_pixels,
            seconds=seconds,
            algorithm=algorithm,
        )

    def features(self) -> CompositingFeatures:
        return CompositingFeatures(self.average_active_pixels, self.pixels, self.num_tasks)


@dataclass
class FailureRecord:
    """One failed experiment of a sweep (the config, not a corpus row).

    A sweep never dies because one configuration does: the executor isolates
    crashes, Python exceptions, and per-experiment timeouts, and records them
    here so ``plan - records == failures`` always holds.  Failure rows carry
    no measurements and are therefore ignored by every fitting and
    cross-validation entry point.
    """

    kind: str  #: ``"render"`` | ``"synthetic"`` | ``"compositing"``
    reason: str  #: ``"error"`` | ``"timeout"`` | ``"crash"``
    spec: dict = field(default_factory=dict)  #: config keys of the failed experiment
    error_type: str = ""
    message: str = ""


@dataclass
class StudyCorpus:
    """The gathered experiment corpus plus model fitting helpers."""

    records: list[ExperimentRecord] = field(default_factory=list)
    compositing_records: list[CompositingRecord] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)

    # -- selection ------------------------------------------------------------------
    def select(
        self,
        architecture: str | None = None,
        technique: str | None = None,
        dpp_device: str | None = None,
    ) -> list[ExperimentRecord]:
        """Records matching the given architecture, technique, and/or device.

        ``dpp_device`` filters multi-back-end sweeps (device-comparison runs)
        down to one back-end so its timings are never folded into another
        back-end's fitted model.
        """
        out = self.records
        if architecture is not None:
            out = [r for r in out if r.architecture == architecture]
        if technique is not None:
            out = [r for r in out if r.technique == technique]
        if dpp_device is not None:
            out = [r for r in out if r.dpp_device == dpp_device]
        return out

    def architectures(self) -> list[str]:
        return sorted({r.architecture for r in self.records})

    def techniques(self) -> list[str]:
        return sorted({r.technique for r in self.records})

    def slices(self):
        """Yield every non-empty ``(architecture, technique, rows)`` slice.

        Deterministic (sorted) order -- the reporting suite iterates this to
        fit the full model registry, so artifact files never depend on record
        insertion order.
        """
        for architecture in self.architectures():
            for technique in self.techniques():
                rows = self.select(architecture, technique)
                if rows:
                    yield architecture, technique, rows

    # -- model fitting -----------------------------------------------------------------
    def fit_model(self, architecture: str, technique: str):
        """Fit the technique's model to this corpus slice and return it."""
        rows = self.select(architecture, technique)
        if not rows:
            raise ValueError(f"no records for ({architecture!r}, {technique!r})")
        features = [row.features for row in rows]
        if technique == "raytrace":
            model = RayTracingModel()
            model.fit(
                features,
                np.array([row.build_seconds for row in rows]),
                np.array([row.frame_seconds for row in rows]),
            )
            return model
        model = RasterizationModel() if technique == "raster" else VolumeRenderingModel()
        model.fit(features, np.array([row.total_seconds for row in rows]))
        return model

    def fit_all_models(self) -> dict[tuple[str, str], object]:
        """Fit every (architecture, technique) pair present in the corpus."""
        fitted: dict[tuple[str, str], object] = {}
        for architecture in self.architectures():
            for technique in self.techniques():
                if self.select(architecture, technique):
                    fitted[(architecture, technique)] = self.fit_model(architecture, technique)
        return fitted

    def fit_compositing_model(self) -> CompositingModel:
        """Fit Eq. 5.5 to the compositing corpus."""
        if not self.compositing_records:
            raise ValueError("no compositing records gathered")
        model = CompositingModel()
        model.fit(
            [row.features() for row in self.compositing_records],
            np.array([row.seconds for row in self.compositing_records]),
        )
        return model

    # -- cross validation ------------------------------------------------------------------
    def cross_validate(self, architecture: str, technique: str, k: int = 3, seed: int | None = None):
        """K-fold cross validation of one (architecture, technique) slice."""
        rows = self.select(architecture, technique)
        features = [row.features for row in rows]
        if technique == "raytrace":
            model = RayTracingModel()
            return model.cross_validate(
                features,
                np.array([row.build_seconds for row in rows]),
                np.array([row.frame_seconds for row in rows]),
                k,
                seed,
            )
        model = RasterizationModel() if technique == "raster" else VolumeRenderingModel()
        return model.cross_validate(features, np.array([row.total_seconds for row in rows]), k, seed)

    def cross_validate_compositing(self, k: int = 3, seed: int | None = None):
        """K-fold cross validation of the compositing model."""
        model = CompositingModel()
        return model.cross_validate(
            [row.features() for row in self.compositing_records],
            np.array([row.seconds for row in self.compositing_records]),
            k,
            seed,
        )


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------

class StudyHarness:
    """Runs the sweep described by a :class:`StudyConfiguration`."""

    def __init__(self, config: StudyConfiguration | None = None) -> None:
        self.config = config or StudyConfiguration()

    # -- public entry points -----------------------------------------------------------
    def run(
        self,
        include_compositing: bool = True,
        jobs: int = 1,
        cache=None,
        timeout: float | None = None,
        resume: bool = True,
        strict: bool = True,
    ) -> StudyCorpus:
        """Run the full sweep through the :mod:`repro.study` engine.

        ``cpu-host`` experiments render for real at the reduced scale; every
        other architecture gets the same number of experiments at the paper's
        full scale with mapped inputs and synthesized times.

        The harness is a thin client of the sweep engine: the configuration is
        expanded into a declarative plan (:func:`repro.study.plan.build_plan`)
        and executed by :func:`repro.study.run_plan` -- in-process when
        ``jobs == 1``, on a process pool otherwise, optionally resuming from a
        corpus cache.  :meth:`run_serial` keeps the pre-engine serial loop as
        the differential oracle.

        With ``strict`` (the default, matching the pre-engine behavior of
        letting experiment errors propagate) any failure row raises instead of
        silently shrinking the corpus the models are fitted to; sweep-style
        callers that want failure isolation pass ``strict=False`` or use
        :func:`repro.study.run_plan`, which also returns the report.
        """
        from repro.study import run_plan
        from repro.study.plan import build_plan

        plan = build_plan(self.config, include_compositing=include_compositing)
        corpus, _report = run_plan(plan, jobs=jobs, cache=cache, timeout=timeout, resume=resume)
        if strict and corpus.failures:
            details = "; ".join(
                f"[{f.reason}] {f.kind} {f.error_type}: {f.message}" for f in corpus.failures[:5]
            )
            raise RuntimeError(
                f"{len(corpus.failures)} of {len(plan.specs)} experiments failed "
                f"(pass strict=False to keep the partial corpus): {details}"
            )
        return corpus

    def run_serial(self, include_compositing: bool = True) -> StudyCorpus:
        """The pre-engine serial sweep, preserved as the differential oracle.

        Executes every experiment in plan order, in this process, without the
        executor or the cache.  The engine is contractually row-for-row
        equivalent to this loop (exact config keys, features to 1e-10; host
        wall-clock timings naturally differ between runs) -- the sweep-engine
        tests diff the two.
        """
        corpus = StudyCorpus()
        rng = default_rng(self.config.seed, "study")
        for technique in self.config.techniques:
            if HOST_ARCHITECTURE in self.config.architectures:
                samples = self.config.stratified_samples(rng)
                for dpp_device in self.config.dpp_devices:
                    for image_size, cells, tasks, simulation in samples:
                        corpus.records.append(
                            self.run_experiment(
                                technique,
                                simulation,
                                tasks,
                                cells,
                                image_size,
                                image_size,
                                dpp_device=dpp_device,
                            )
                        )
        synthetic_rng = default_rng(self.config.seed, "study-synthetic")
        for architecture in self.config.architectures:
            if architecture == HOST_ARCHITECTURE:
                continue
            for technique in self.config.techniques:
                for image_size, cells, tasks, simulation in self.config.stratified_samples(
                    synthetic_rng, synthetic=True
                ):
                    corpus.records.append(
                        self.run_synthetic_experiment(
                            architecture, technique, simulation, tasks, cells, image_size, image_size
                        )
                    )
        if include_compositing:
            corpus.compositing_records.extend(self.run_compositing_sweep())
        return corpus

    def run_experiment(
        self,
        technique: str,
        simulation: str,
        num_tasks: int,
        cells_per_task: int,
        image_width: int,
        image_height: int,
        dpp_device: str | None = None,
    ) -> ExperimentRecord:
        """Render one host configuration; returns the slowest sampled rank's record.

        ``dpp_device`` selects the DPP back-end the render's primitives run
        on (``None`` keeps the caller's active device).  An unknown or
        unavailable device raises before any rendering happens, which the
        sweep executor records as an ordinary failure row.
        """
        from repro.dpp import get_device, use_device

        if simulation not in _SIMULATION_FIELDS:
            raise KeyError(f"unknown simulation {simulation!r}")
        decomposition = BlockDecomposition(num_tasks, cells_per_task)
        camera = Camera.framing_bounds(decomposition.global_bounds, image_width, image_height)
        sampled_ranks = self._sampled_ranks(num_tasks)

        results: list[RenderResult] = []
        with use_device(dpp_device or get_device().name) as device:
            for rank in sampled_ranks:
                grid = decomposition.block_grid_with_field(
                    rank, "scalar", _SIMULATION_FIELDS[simulation]
                )
                results.append(self._render_block(technique, grid, camera))

        # Slowest-task proxy, chosen deterministically: the rank with the
        # largest observed workload (active pixels, then object count, then
        # rank order).  Selecting by measured wall-clock would make the
        # recorded *features* depend on timing jitter, and the corpus would no
        # longer be reproducible run to run -- the engine's row-for-row parity
        # with the serial oracle rests on this choice being a pure function of
        # the configuration.
        slowest = max(
            enumerate(results),
            key=lambda pair: (pair[1].features.active_pixels, pair[1].features.objects, -pair[0]),
        )[1]
        phases = dict(slowest.phase_seconds)
        build = phases.get("bvh_build", 0.0)
        frame = slowest.total_seconds - build
        return ExperimentRecord(
            architecture=HOST_ARCHITECTURE,
            technique=technique,
            simulation=simulation,
            num_tasks=num_tasks,
            cells_per_task=cells_per_task,
            image_width=image_width,
            image_height=image_height,
            features=slowest.features,
            phase_seconds=phases,
            build_seconds=build,
            frame_seconds=frame,
            samples_in_depth=self.config.samples_in_depth,
            dpp_device=device.name,
        )

    def run_synthetic_experiment(
        self,
        architecture: str,
        technique: str,
        simulation: str,
        num_tasks: int,
        cells_per_task: int,
        image_width: int,
        image_height: int,
        rng: np.random.Generator | None = None,
    ) -> ExperimentRecord:
        """Synthesize one full-scale experiment for a non-host architecture.

        Inputs come from the Section 5.8 mapping (no rendering is needed) and
        per-phase times from :mod:`repro.machines.costmodel` with measurement
        noise, reproducing the corpus the paper gathered on its GPUs.

        The noise stream is derived from the study seed plus every config key
        of the experiment, never shared between experiments, so the record is
        a pure function of the configuration -- executing the sweep in any
        order (or on any process pool) yields bit-identical synthetic rows.
        """
        from repro.modeling.features import RenderingConfiguration, map_configuration_to_features

        if rng is None:
            rng = default_rng(
                self.config.seed,
                "synthetic-experiment",
                architecture,
                technique,
                simulation,
                num_tasks,
                cells_per_task,
                image_width,
                image_height,
            )
        configuration = RenderingConfiguration(
            technique=technique,
            architecture=architecture,
            num_tasks=num_tasks,
            cells_per_task=cells_per_task,
            image_width=image_width,
            image_height=image_height,
            samples_in_depth=self.config.synthetic_samples_in_depth,
        )
        features = map_configuration_to_features(configuration)
        synthetic_technique = {
            "raytrace": "raytrace",
            "raster": "raster",
            "volume": "volume_structured",
            "volume_unstructured": "volume_unstructured",
        }[technique]
        phases = synthesize_render_time(architecture, synthetic_technique, features, rng)
        build = phases.get("bvh_build", 0.0)
        frame = sum(seconds for name, seconds in phases.items() if name != "bvh_build")
        return ExperimentRecord(
            architecture=architecture,
            technique=technique,
            simulation=simulation,
            num_tasks=num_tasks,
            cells_per_task=cells_per_task,
            image_width=image_width,
            image_height=image_height,
            features=features,
            phase_seconds=phases,
            build_seconds=build,
            frame_seconds=frame,
            samples_in_depth=self.config.synthetic_samples_in_depth,
        )

    #: Pixel-blending throughput assumed for the compositing corpus (bytes of
    #: exchanged image data blended per second).  The measured Python blending
    #: time is dominated by interpreter overhead on the reproduction's small
    #: images, so the corpus charges blending at a realistic rate instead and
    #: keeps the simulated-network estimate for communication.
    COMPOSITING_BLEND_BYTES_PER_SECOND = 2.5e9

    def run_compositing_sweep(
        self,
        task_counts: tuple[int, ...] | None = None,
        pixel_sizes: tuple[int, ...] | None = None,
        algorithm: str | None = None,
    ) -> list[CompositingRecord]:
        """Drive the compositor over synthetic sub-images to build the Eq. 5.5 corpus.

        Defaults come from the study configuration
        (``compositing_task_counts`` x ``compositing_pixel_sizes`` for each of
        ``compositing_algorithms``); passing ``algorithm`` restricts the sweep
        to that single exchange algorithm.
        """
        config = self.config
        algorithms = (algorithm,) if algorithm is not None else config.compositing_algorithms
        task_counts = config.compositing_task_counts if task_counts is None else task_counts
        pixel_sizes = config.compositing_pixel_sizes if pixel_sizes is None else pixel_sizes
        return [
            self.run_compositing_case(name, tasks, size)
            for name in algorithms
            for tasks in task_counts
            for size in pixel_sizes
        ]

    def run_compositing_case(
        self,
        algorithm: str,
        num_tasks: int,
        pixel_size: int,
        rng: np.random.Generator | None = None,
    ) -> CompositingRecord:
        """One row of the Eq. 5.5 corpus: composite ``num_tasks`` synthetic sub-images.

        Per-rank sub-images are synthesized (a contiguous screen block of
        active pixels per rank whose size follows the Section 5.8 mapping)
        rather than rendered, so that large task counts stay cheap -- the
        cohort engine keeps even the 64-rank rows fast.  The recorded
        compositing time combines the simulated-network estimate of the
        exchange (critical path over rounds) with the blending work charged
        at :data:`COMPOSITING_BLEND_BYTES_PER_SECOND`.

        Like the synthetic render experiments, the sub-image stream is seeded
        per configuration (study seed + algorithm + tasks + size), so the row
        is a pure function of the configuration regardless of sweep order.
        """
        if rng is None:
            rng = default_rng(self.config.seed, "compositing-sweep", algorithm, num_tasks, pixel_size)
        radices = None
        if algorithm == "radix-k" and self.config.compositing_radices is not None:
            radices = list(self.config.compositing_radices)
        compositor = Compositor(algorithm, radices=radices)
        if num_tasks > self.config.compositing_max_live_ranks:
            # Thousand-rank rows: stream per-rank images through the cohort
            # scheduler instead of materializing the whole population.  The
            # factory is seeded per configuration, so the row stays a pure
            # function of the configuration regardless of sweep order.
            factory = scene_factory(
                self.config.compositing_scenario,
                num_tasks,
                pixel_size,
                pixel_size,
                mode="over",
                seed=derive_seed(
                    self.config.seed, "compositing-sweep", algorithm, num_tasks, pixel_size
                ),
            )
            result = compositor.composite_streaming(
                factory,
                num_tasks,
                pixel_size,
                pixel_size,
                mode="over",
                max_live_ranks=self.config.compositing_max_live_ranks,
            )
        else:
            framebuffers = self._synthetic_sub_images(num_tasks, pixel_size, pixel_size, rng)
            visibility = list(np.arange(num_tasks, dtype=np.float64))
            result = compositor.composite(framebuffers, mode="over", visibility_order=visibility)
        # Blending happens concurrently on every rank, so charge the per-rank
        # share of the exchanged bytes (the critical path), not the total.
        blend_seconds = (
            result.bytes_exchanged / max(num_tasks, 1) / self.COMPOSITING_BLEND_BYTES_PER_SECOND
        )
        return CompositingRecord.from_result(
            result, seconds=result.network_seconds + blend_seconds, algorithm=algorithm
        )

    # -- internals ----------------------------------------------------------------------------
    def _sampled_ranks(self, num_tasks: int) -> list[int]:
        """Evenly spaced subset of ranks actually rendered (slowest-task proxy)."""
        count = min(self.config.max_sampled_ranks, num_tasks)
        if count == num_tasks:
            return list(range(num_tasks))
        return sorted({int(round(index)) for index in np.linspace(0, num_tasks - 1, count)})

    def _render_block(self, technique: str, grid, camera: Camera) -> RenderResult:
        """Render one rank's block with the requested technique (host-measured)."""
        if technique in ("raytrace", "raster"):
            surface = external_faces(grid, scalar_field="scalar")
            scene = Scene(surface)
            if technique == "raytrace":
                tracer = RayTracer(scene, RayTracerConfig(workload=Workload.SHADING))
                return tracer.render(camera)
            return Rasterizer(scene).render(camera)
        if technique == "volume_unstructured":
            from repro.geometry.tetra import tetrahedralize_uniform_grid

            renderer = UnstructuredVolumeRenderer(
                tetrahedralize_uniform_grid(grid),
                "scalar",
                config=UnstructuredVolumeConfig(samples_in_depth=self.config.samples_in_depth),
            )
            return renderer.render(camera)
        if technique != "volume":
            raise KeyError(f"unknown technique {technique!r}")
        renderer = StructuredVolumeRenderer(
            grid,
            "scalar",
            config=StructuredVolumeConfig(samples_in_depth=self.config.samples_in_depth),
        )
        return renderer.render(camera)

    def _synthetic_sub_images(
        self, tasks: int, width: int, height: int, rng: np.random.Generator
    ) -> list[Framebuffer]:
        """Synthetic per-rank framebuffers with mapping-consistent active-pixel counts."""
        framebuffers = []
        fill = 0.55 / tasks ** (1.0 / 3.0)
        active = max(int(fill * width * height), 1)
        side = max(int(np.sqrt(active)), 1)
        for _ in range(tasks):
            framebuffer = Framebuffer(width, height)
            x0 = int(rng.integers(0, max(width - side, 1)))
            y0 = int(rng.integers(0, max(height - side, 1)))
            block = (slice(y0, min(y0 + side, height)), slice(x0, min(x0 + side, width)))
            shape = framebuffer.rgba[block][..., 0].shape
            framebuffer.rgba[block] = np.concatenate(
                [rng.random(shape + (3,)), np.full(shape + (1,), 0.7)], axis=-1
            )
            framebuffer.depth[block] = rng.random(shape) * 10.0
            framebuffers.append(framebuffer)
        return framebuffers


# ---------------------------------------------------------------------------
# Shared default corpus (benchmarks reuse it so the sweep runs once per process)
# ---------------------------------------------------------------------------

_DEFAULT_CORPUS: dict[tuple, StudyCorpus] = {}


def get_default_corpus(samples_per_technique: int = 12, seed: int = 2016) -> StudyCorpus:
    """Build (once per process) and return the default study corpus."""
    key = (samples_per_technique, seed)
    if key not in _DEFAULT_CORPUS:
        config = StudyConfiguration(samples_per_technique=samples_per_technique, seed=seed)
        _DEFAULT_CORPUS[key] = StudyHarness(config).run()
    return _DEFAULT_CORPUS[key]
