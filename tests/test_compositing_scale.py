"""Thousand-rank streaming compositing: differential and contract tests.

The cohort scheduler is the one compositing engine: ``Compositor.composite``
runs it with every rank image live (one cohort) and
``Compositor.composite_streaming`` with a smaller ``max_live_ranks`` budget.
Each budget is a pure reordering of the same merge operations, so the
contract splits at the oracle boundary:

* **at or below 256 ranks** the dense oracle still fits: ``composite()`` must
  be *byte-identical* to a streamed composite of the same images under a
  small budget, and within ``1e-10`` of ``composite_reference``;
* **above 256 ranks** no dense oracle exists, so correctness is pinned by
  cohort-size invariance: any two ``max_live_ranks`` budgets must produce
  byte-identical images, identical merge counts, and identical network
  accounting.

Also covered here: the ``_LiveLedger`` memory contract
(``peak_live_images <= max_live_ranks + 1``), the radix-schedule validation
error (library + CLI exit code 8), the scale scenarios (uniform / AMR proxy /
camera orbit), the contention-aware round accounting, and the extrapolated
GPU architecture profiles.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compositing import (
    Compositor,
    RadixFactorError,
    SCENARIOS,
    scene_factory,
    validate_radices,
)
from repro.compositing.runimage import RunImage, run_image_from_framebuffer
from repro.machines.archspec import get_architecture
from repro.rendering.rays import CameraPath
from repro.rendering.framebuffer import Framebuffer
from repro.simulations import create_proxy
from repro.simulations.amr import AmrProxy
from repro.study import cli as study_cli

ALGORITHMS = ("direct-send", "binary-swap", "radix-k")


def _random_framebuffers(rng, count, width=11, height=7, alpha=1.0, fill=0.5):
    framebuffers = []
    for rank in range(count):
        framebuffer = Framebuffer(width, height)
        mask = rng.random((height, width)) < fill
        covered = int(mask.sum())
        framebuffer.rgba[mask] = np.column_stack([rng.random((covered, 3)), np.full(covered, alpha)])
        framebuffer.depth[mask] = rng.random(covered) * 5.0 + rank * 0.01
        framebuffers.append(framebuffer)
    return framebuffers


def _stream(algorithm, scenario, tasks, size, max_live, mode="depth", seed=2016):
    factory = scene_factory(scenario, tasks, size, size, mode=mode, seed=seed)
    return Compositor(algorithm).composite_streaming(
        factory, tasks, size, size, mode=mode, max_live_ranks=max_live
    )


class TestDenseOracle:
    """Below 256 ranks the streamed result must equal the dense engines."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("tasks", (1, 2, 5, 13, 16, 31))
    def test_composite_is_byte_identical_to_small_budget_stream(self, rng, algorithm, tasks):
        """The list-backed ``composite()`` equals a 3-image-budget stream of the same images."""
        framebuffers = _random_framebuffers(rng, tasks)
        dense = Compositor(algorithm).composite([fb.copy() for fb in framebuffers], mode="depth")
        images = [
            run_image_from_framebuffer(framebuffer, "depth", key=position)
            for position, framebuffer in enumerate(framebuffers)
        ]
        streamed = Compositor(algorithm).composite_streaming(
            images.__getitem__,
            tasks,
            framebuffers[0].width,
            framebuffers[0].height,
            "depth",
            max_live_ranks=3,
            rank_background=tuple(float(v) for v in framebuffers[0].background),
        )
        assert dense.framebuffer.rgba.tobytes() == streamed.framebuffer.rgba.tobytes()
        assert dense.framebuffer.depth.tobytes() == streamed.framebuffer.depth.tobytes()
        assert dense.merge_operations == streamed.merge_operations
        assert dense.bytes_exchanged == streamed.bytes_exchanged
        assert dense.messages == streamed.messages
        assert dense.network_seconds == pytest.approx(streamed.network_seconds)
        assert dense.engine == streamed.engine == "cohort"
        assert dense.max_live_ranks == tasks and streamed.max_live_ranks == 3

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("tasks", (3, 8, 12))
    def test_cohort_engine_matches_reference_in_over_mode(self, rng, algorithm, tasks):
        framebuffers = _random_framebuffers(rng, tasks, alpha=0.6)
        visibility = list(rng.permutation(tasks).astype(float))
        cohort = Compositor(algorithm).composite(
            [fb.copy() for fb in framebuffers],
            mode="over",
            visibility_order=visibility,
            engine="cohort",
        )
        reference = Compositor(algorithm).composite(
            [fb.copy() for fb in framebuffers],
            mode="over",
            visibility_order=visibility,
            engine="reference",
        )
        assert np.allclose(
            cohort.framebuffer.rgba, reference.framebuffer.rgba, atol=1e-10, rtol=0.0
        )

    @settings(max_examples=20, deadline=None)
    @given(
        tasks=st.integers(min_value=1, max_value=40),
        algorithm=st.sampled_from(ALGORITHMS),
        mode=st.sampled_from(("depth", "over")),
        max_live=st.sampled_from((1, 3, 8, 256)),
    )
    def test_streamed_scene_matches_dense_drivers(self, tasks, algorithm, mode, max_live):
        """Randomized: any cohort budget reproduces the dense result exactly."""
        factory = scene_factory("uniform", tasks, 16, 16, mode=mode, seed=99)
        streamed = Compositor(algorithm).composite_streaming(
            factory, tasks, 16, 16, mode=mode, max_live_ranks=max_live
        )
        dense = Compositor(algorithm).composite_streaming(
            factory, tasks, 16, 16, mode=mode, max_live_ranks=256
        )
        assert streamed.framebuffer.rgba.tobytes() == dense.framebuffer.rgba.tobytes()
        assert streamed.merge_operations == dense.merge_operations
        assert streamed.network_seconds == pytest.approx(dense.network_seconds)
        assert streamed.peak_live_images <= max_live + 1


class TestCohortInvariance:
    """Above the oracle boundary: invariance across cohort budgets."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        ("tasks", "scenario"), ((521, "uniform"), (1024, "amr"), (769, "camera-orbit"))
    )
    def test_budget_invariance_and_ledger_contract(self, algorithm, tasks, scenario):
        small = _stream(algorithm, scenario, tasks, 24, max_live=32)
        large = _stream(algorithm, scenario, tasks, 24, max_live=300)
        assert small.framebuffer.rgba.tobytes() == large.framebuffer.rgba.tobytes()
        assert small.framebuffer.depth.tobytes() == large.framebuffer.depth.tobytes()
        assert small.merge_operations == large.merge_operations
        assert small.network_seconds == pytest.approx(large.network_seconds)
        assert small.peak_live_images <= 32 + 1
        assert large.peak_live_images <= 300 + 1
        assert small.cohorts > large.cohorts

    @settings(max_examples=5, deadline=None)
    @given(
        tasks=st.integers(min_value=257, max_value=4096),
        algorithm=st.sampled_from(ALGORITHMS),
    )
    def test_randomized_rank_counts_are_budget_invariant(self, tasks, algorithm):
        """Randomized up to 4,096 ranks, including primes (radix prefix m=0)."""
        small = _stream(algorithm, "uniform", tasks, 12, max_live=48, seed=5)
        large = _stream(algorithm, "uniform", tasks, 12, max_live=256, seed=5)
        assert small.framebuffer.rgba.tobytes() == large.framebuffer.rgba.tobytes()
        assert small.merge_operations == large.merge_operations
        assert small.network_seconds == pytest.approx(large.network_seconds)

    @pytest.mark.parametrize("algorithm", (None, *ALGORITHMS))
    def test_round_summary_shape(self, rng, algorithm):
        """The 300-rank stream (``None``) and a ``composite()`` per algorithm."""
        if algorithm is None:
            result = _stream("binary-swap", "uniform", 300, 16, max_live=64)
        else:
            result = Compositor(algorithm).composite(_random_framebuffers(rng, 13), mode="depth")
        assert result.round_summary, "every composite must carry a round log"
        for entry in result.round_summary:
            assert set(entry) == {"bytes", "messages", "active_links", "busiest_link_seconds"}
            assert entry["busiest_link_seconds"] >= 0.0
        total = sum(entry["busiest_link_seconds"] for entry in result.round_summary)
        assert result.network_seconds == pytest.approx(total)


class TestRadixValidation:
    """Invalid radix schedules fail fast with a structured error."""

    def test_validate_radices_accepts_exact_product(self):
        validate_radices(12, (3, 4))

    def test_validate_radices_rejects_mismatched_product(self):
        with pytest.raises(RadixFactorError) as excinfo:
            validate_radices(12, (3, 5))
        error = excinfo.value
        assert error.size == 12
        assert error.radices == (3, 5)
        assert error.product == 15
        payload = error.as_dict()
        assert payload["error"] == "radix-factorization"
        assert json.dumps(payload)  # structured and serializable

    def test_compositor_rejects_radices_for_other_algorithms(self):
        with pytest.raises(ValueError):
            Compositor("binary-swap", radices=[2, 2])

    def test_compositor_validates_radices_at_composite_time(self, rng):
        framebuffers = _random_framebuffers(rng, 6)
        with pytest.raises(RadixFactorError):
            Compositor("radix-k", radices=[2, 2]).composite(framebuffers, mode="depth")

    def test_cli_exits_with_radix_schedule_code(self, capsys):
        code = study_cli.main(
            [
                "plan",
                "--radices",
                "3,3",
                "--compositing-tasks",
                "8",
                "--compositing-algorithms",
                "radix-k",
            ]
        )
        assert code == study_cli.EXIT_RADIX_SCHEDULE == 8
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "radix-factorization"
        assert payload["size"] == 8

    def test_cli_accepts_valid_schedule(self, capsys):
        code = study_cli.main(
            [
                "plan",
                "--radices",
                "2,4",
                "--compositing-tasks",
                "8",
                "--compositing-algorithms",
                "radix-k",
            ]
        )
        assert code == 0
        capsys.readouterr()


class TestScenarios:
    """The scale scene families: deterministic, sorted, correctly shaped."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_factories_are_deterministic_runimages(self, name):
        first = scene_factory(name, 64, 16, 16, mode="depth", seed=3)
        second = scene_factory(name, 64, 16, 16, mode="depth", seed=3)
        image_a, image_b = first(7), second(7)
        assert isinstance(image_a, RunImage)
        assert image_a.num_pixels == 256
        assert np.array_equal(image_a.pixels, image_b.pixels)
        assert np.array_equal(image_a.rgba, image_b.rgba)
        pixels = image_a.pixels
        assert np.all(np.diff(pixels) > 0), "active pixels must be sorted and unique"

    def test_amr_scene_coverage_follows_refinement_levels(self):
        proxy = AmrProxy(8, seed=11)
        levels = proxy.rank_levels(256)
        coverage = proxy.rank_coverage(256, base_coverage=0.02)
        assert levels.shape == (256,)
        assert levels.min() >= 0 and levels.max() <= proxy.max_level
        assert np.all(coverage <= 0.9)
        assert coverage[levels.argmax()] >= coverage[levels.argmin()]

    def test_amr_proxy_registered(self):
        proxy = create_proxy("amr", 8)
        assert proxy.primary_field == "density"

    def test_camera_path_orbit_preserves_distance(self):
        template_factory = scene_factory("camera-orbit", 8, 8, 8)
        assert template_factory(0) is not None
        from repro.rendering.rays import Camera

        camera = Camera(
            position=np.array([0.5, 0.5, 2.2]),
            look_at=np.array([0.5, 0.5, 0.5]),
            up=np.array([0.0, 1.0, 0.0]),
        )
        path = CameraPath(camera, num_frames=12, elevation=0.0)
        radius = np.linalg.norm(camera.position - camera.look_at)
        for frame in (0, 3, 7, 11):
            orbited = path.camera_at(frame)
            assert np.linalg.norm(orbited.position - orbited.look_at) == pytest.approx(
                radius, rel=1e-6
            )
            assert np.allclose(orbited.look_at, camera.look_at)

    def test_camera_orbit_scene_varies_with_frame(self):
        still = scene_factory("camera-orbit", 32, 16, 16, frame=0)
        moved = scene_factory("camera-orbit", 32, 16, 16, frame=15)
        different = any(
            not np.array_equal(still(rank).pixels, moved(rank).pixels) for rank in range(32)
        )
        assert different, "orbiting the camera must change at least one rank's footprint"


class TestArchitectureProfiles:
    """The extrapolated modern-GPU rows of the Table 15 architecture set."""

    @pytest.mark.parametrize("name", ("gpu-p100", "gpu-v100", "gpu-a100"))
    def test_profiles_are_registered_gpus(self, name):
        spec = get_architecture(name)
        assert spec.kind == "gpu"
        assert spec.sample_rate > get_architecture("gpu1-k40m").sample_rate

    def test_profiles_scale_monotonically(self):
        p100, v100, a100 = (
            get_architecture(name) for name in ("gpu-p100", "gpu-v100", "gpu-a100")
        )
        for rate in ("build_rate", "traversal_rate", "sample_rate", "cell_rate"):
            assert getattr(p100, rate) < getattr(v100, rate) < getattr(a100, rate)
