"""Footprint-bounded ray emission is exact.

:meth:`RayEmitter.emit_clipped` generates rays only inside the padded pixel
rectangle a box projects to.  Its oracle is the emission it replaced: every
pixel's ray, then the slab test.  The ray tracer emits over its mesh bounds;
its oracle renders from every pixel's ray.  Both must agree id for id and
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.aabb import AABB, ray_box_intervals
from repro.geometry.transforms import Camera
from repro.rendering.raytracer import RayTracer, RayTracerConfig, Workload
from repro.rendering.rays import RayEmitter

BOUNDS = AABB(np.array([-1.0, -0.5, -0.8]), np.array([1.2, 0.7, 0.5]))


def _emit_all_then_clip(emitter: RayEmitter, bounds: AABB):
    """The pre-footprint ``emit_clipped``: every pixel's ray, then the slab test."""
    pixel_ids, origins, directions = emitter.emit()
    t_near, t_far = ray_box_intervals(origins, directions, bounds.low, bounds.high)
    t_near = np.maximum(t_near, 0.0)
    kept = np.flatnonzero(t_far > t_near)
    return pixel_ids[kept], origins[kept], directions[kept], t_near[kept], t_far[kept]


def _assert_footprint_exact(emitter: RayEmitter, bounds: AABB = BOUNDS) -> int:
    produced = emitter.emit_clipped(bounds)
    expected = _emit_all_then_clip(emitter, bounds)
    for got, want in zip(produced, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    return len(produced[0])


def _camera(position, look_at, fov=45.0, width=24, height=18) -> Camera:
    return Camera(
        position=np.asarray(position, dtype=np.float64),
        look_at=np.asarray(look_at, dtype=np.float64),
        up=np.array([0.0, 1.0, 0.0]),
        fov_y_degrees=fov,
        width=width,
        height=height,
    )


coordinate = st.floats(-6.0, 6.0, allow_nan=False)


class TestEmitClippedFootprint:
    @settings(max_examples=150, deadline=None)
    @given(
        position=st.tuples(coordinate, coordinate, coordinate),
        look_at=st.tuples(coordinate, coordinate, coordinate),
        fov=st.floats(10.0, 120.0),
        width=st.integers(1, 40),
        height=st.integers(1, 40),
        supersample=st.sampled_from([1, 4]),
        morton_order=st.booleans(),
    )
    # Camera inside the bounds; bounds partly behind the camera; bounds
    # entirely off-screen; a super-sampled Morton view of the whole box.
    @example((0.1, 0.1, 0.0), (3.0, 0.0, 0.0), 45.0, 24, 18, 1, False)
    @example((0.0, 0.0, 0.4), (0.0, 0.0, 3.0), 60.0, 24, 18, 1, True)
    @example((-5.0, 0.0, 0.0), (0.0, 0.0, 10.0), 30.0, 24, 18, 4, False)
    @example((0.5, 1.0, 4.0), (0.0, 0.0, 0.0), 45.0, 24, 18, 4, True)
    def test_matches_emit_all_then_clip(
        self, position, look_at, fov, width, height, supersample, morton_order
    ):
        offset = np.subtract(look_at, position)
        horizontal = np.hypot(offset[0], offset[2])
        if np.linalg.norm(offset) < 1e-3 or horizontal < 1e-6 * np.linalg.norm(offset):
            return  # look-at degenerate with the up vector
        camera = _camera(position, look_at, fov, width, height)
        emitter = RayEmitter(camera, supersample=supersample, morton_order=morton_order)
        _assert_footprint_exact(emitter)

    def test_footprint_emits_fewer_rays(self):
        camera = _camera((0.0, 0.0, 12.0), (0.0, 0.0, 0.0), width=48, height=48)
        emitter = RayEmitter(camera, morton_order=True)
        pixel_ids, _, _ = emitter.emit(bounds=BOUNDS)
        assert 0 < len(pixel_ids) < camera.width * camera.height // 4
        assert _assert_footprint_exact(emitter) > 0

    def test_camera_inside_bounds_emits_full_frame(self):
        camera = _camera((0.1, 0.1, 0.0), (3.0, 0.0, 0.0))
        pixel_ids, _, _ = RayEmitter(camera).emit(bounds=BOUNDS)
        assert len(pixel_ids) == camera.width * camera.height
        assert _assert_footprint_exact(RayEmitter(camera)) == camera.width * camera.height

    def test_off_screen_bounds_emit_nothing(self):
        # In front of the camera, but outside the view frustum.
        camera = _camera((-5.0, 0.0, 0.0), (0.0, 0.0, 10.0), fov=30.0)
        pixel_ids, _, _ = RayEmitter(camera, supersample=4).emit(bounds=BOUNDS)
        assert len(pixel_ids) == 0
        assert _assert_footprint_exact(RayEmitter(camera, supersample=4)) == 0

    def test_bounds_and_pixel_ids_are_exclusive(self):
        with pytest.raises(ValueError):
            RayEmitter(_camera((0.0, 0.0, 5.0), (0.0, 0.0, 0.0))).emit(
                np.array([0, 1]), bounds=BOUNDS
            )


class _EveryPixelRayTracer(RayTracer):
    """The ray tracer as it was before footprint emission: every pixel's ray."""

    def _generate_rays(self, camera):
        emitter = RayEmitter(camera, supersample=self.config.supersample, morton_order=True)
        return emitter.emit()


class TestRayTracerFootprint:
    @pytest.mark.parametrize(
        "workload, supersample",
        [
            (Workload.INTERSECTION_ONLY, 1),
            (Workload.SHADING, 1),
            (Workload.SHADING, 4),
            (Workload.FULL, 1),
            (Workload.FULL, 4),
        ],
    )
    @pytest.mark.parametrize("zoom", [0.4, 1.0, 2.5])
    def test_framebuffer_equals_every_pixel_render(self, small_scene, workload, supersample, zoom):
        camera = Camera.framing_bounds(small_scene.mesh.bounds, 40, 32, zoom=zoom)
        config = RayTracerConfig(workload=workload, supersample=supersample, ao_samples=2, seed=5)
        produced = RayTracer(small_scene, config).render(camera)
        expected = _EveryPixelRayTracer(small_scene, config).render(camera)
        assert np.array_equal(produced.framebuffer.rgba, expected.framebuffer.rgba)
        assert np.array_equal(produced.framebuffer.depth, expected.framebuffer.depth)
        assert produced.features == expected.features
        assert produced.features.active_pixels > 0
