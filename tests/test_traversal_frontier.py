"""Edge-case and engine tests for the compacted-frontier traversal kernel.

Everything here is verified differentially against
:func:`repro.rendering.raytracer.traversal.brute_force_closest_hit`, which
shares the Moller-Trumbore kernel with the engine, so the default
``float64`` path must agree exactly on hit selection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dpp import get_instrumentation, use_device
from repro.dpp.instrument import reset_instrumentation
from repro.geometry import TriangleMesh
from repro.rendering.raytracer import RayTracer, RayTracerConfig, Workload, build_bvh
from repro.rendering.raytracer.traversal import (
    any_hit,
    brute_force_closest_hit,
    closest_hit,
)


@pytest.fixture(autouse=True)
def _clean_instrumentation():
    reset_instrumentation()
    yield
    reset_instrumentation()


def _assert_matches_brute_force(bvh, mesh, origins, directions, exact_triangles=True, **kwargs):
    fast = closest_hit(bvh, mesh, origins, directions, **kwargs)
    slow = brute_force_closest_hit(mesh, origins, directions, **kwargs)
    assert np.array_equal(fast.hit_mask, slow.hit_mask)
    if exact_triangles:
        assert np.array_equal(fast.triangle, slow.triangle)
    hit = fast.hit_mask
    assert np.allclose(fast.t[hit], slow.t[hit], rtol=0.0, atol=1e-6)
    if exact_triangles:
        assert np.allclose(fast.u[hit], slow.u[hit], atol=1e-9)
        assert np.allclose(fast.v[hit], slow.v[hit], atol=1e-9)
    return fast, slow


class TestTraversalEdgeCases:
    def test_identical_triangles_and_t(self, small_surface, small_camera):
        origins, directions = small_camera.generate_rays()
        bvh = build_bvh(small_surface)
        _assert_matches_brute_force(bvh, small_surface, origins, directions)

    def test_any_hit_with_per_ray_t_max(self, small_surface, small_camera):
        origins, directions = small_camera.generate_rays()
        bvh = build_bvh(small_surface)
        reference = closest_hit(bvh, small_surface, origins, directions)
        # Per-ray limits straddling each ray's own hit distance: slightly
        # beyond keeps the hit, slightly short of it removes the hit.
        finite = np.where(np.isfinite(reference.t), reference.t, 1.0)
        beyond = finite * 1.01
        occluded = any_hit(bvh, small_surface, origins, directions, t_max=beyond)
        assert np.array_equal(occluded, reference.hit_mask)
        short = finite * 0.99
        occluded_short = any_hit(bvh, small_surface, origins, directions, t_max=short)
        brute_short = brute_force_closest_hit(
            small_surface, origins, directions, t_max=short
        )
        assert np.array_equal(occluded_short, brute_short.hit_mask)
        assert occluded_short.sum() < occluded.sum()

    def test_rays_with_zero_direction_components(self, small_surface):
        center = small_surface.bounds.center
        lo = small_surface.bounds.low - 1.0
        origins = np.array(
            [
                [center[0], center[1], lo[2]],
                [center[0], lo[1], center[2]],
                [lo[0], center[1], center[2]],
                [center[0], center[1], lo[2]],
                [center[0], center[1], center[2]],
            ]
        )
        directions = np.array(
            [
                [0.0, 0.0, 1.0],  # axis-aligned: two zero components
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1e-320, 1.0],  # subnormal component exercises _safe_inverse
                [0.0, 0.0, 0.0],  # fully degenerate ray must simply miss
            ]
        )
        bvh = build_bvh(small_surface)
        # Axis-aligned rays through the grid center strike shared vertices
        # exactly, producing equal-t ties between adjacent triangles whose
        # winner legitimately depends on conservative entry culling -- so
        # compare hit masks and distances rather than triangle identity.
        fast, _ = _assert_matches_brute_force(
            bvh, small_surface, origins, directions, exact_triangles=False
        )
        assert not fast.hit_mask[-1]

    def test_rays_originating_inside_leaf_aabbs(self, small_surface, rng):
        # Triangle centroids are interior points of their leaf boxes; rays
        # starting there exercise the negative-near slab clamp.
        centroids = small_surface.centroids()
        pick = rng.integers(0, len(centroids), size=64)
        origins = centroids[pick]
        directions = rng.standard_normal((64, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        bvh = build_bvh(small_surface)
        _assert_matches_brute_force(bvh, small_surface, origins, directions)

    def test_engine_through_serial_device(self, small_surface, small_camera):
        # The frontier engine routes compaction/scatter/argmin through the
        # dpp Device layer, so it must run identically on the serial backend.
        pixel_ids = np.arange(0, small_camera.width * small_camera.height, 37)
        origins, directions = small_camera.generate_rays(pixel_ids)
        bvh = build_bvh(small_surface)
        fast = closest_hit(bvh, small_surface, origins, directions)
        with use_device("serial"):
            serial = closest_hit(bvh, small_surface, origins, directions)
        assert np.array_equal(fast.triangle, serial.triangle)
        assert np.array_equal(fast.t, serial.t)

    def test_traversal_feeds_op_counters(self, small_surface, small_camera):
        origins, directions = small_camera.generate_rays()
        bvh = build_bvh(small_surface)
        instrumentation = get_instrumentation()
        with instrumentation.scope("frontier-test"):
            closest_hit(bvh, small_surface, origins, directions)
        assert instrumentation.invocations("frontier-test") > 0
        assert instrumentation.elements("frontier-test") > 0
        assert instrumentation.bytes_moved("frontier-test") > 0


class TestDeepStacks:
    def _skewed_mesh(self, count: int) -> TriangleMesh:
        """Exponentially spaced triangles force skewed (deep) SAH trees."""
        spacing = 1.5 ** np.arange(count)
        vertices = []
        triangles = []
        for index, x in enumerate(spacing):
            base = index * 3
            vertices.extend(
                [[x, 0.0, 0.0], [x + 0.1, 0.0, 0.0], [x, 0.1, 0.0]]
            )
            triangles.append([base, base + 1, base + 2])
        return TriangleMesh(np.array(vertices), np.array(triangles))

    def test_deep_sah_tree_traversal(self, rng):
        mesh = self._skewed_mesh(96)
        bvh = build_bvh(mesh, leaf_size=1, method="sah")
        # The geometry is constructed so the binned SAH split peels a few
        # primitives off one side per level, far deeper than the balanced
        # log2(n) depth a uniform distribution would give.
        assert bvh.max_depth() >= 14
        origins = rng.uniform(-1.0, 1.0, size=(128, 3))
        origins[:, 2] = 5.0
        directions = np.tile([0.0, 0.0, -1.0], (128, 1))
        # Aim a subset straight at known triangles so hits definitely occur.
        targets = mesh.centroids()[rng.integers(0, mesh.num_triangles, 64)]
        origins[:64, :2] = targets[:, :2]
        _assert_matches_brute_force(bvh, mesh, origins, directions)

    def test_deep_lbvh_tree_traversal(self, rng):
        mesh = self._skewed_mesh(48)
        bvh = build_bvh(mesh, leaf_size=1, method="lbvh")
        origins = rng.uniform(0.0, 2.0, size=(64, 3))
        origins[:, 2] = 3.0
        directions = np.tile([0.0, 0.0, -1.0], (64, 1))
        _assert_matches_brute_force(bvh, mesh, origins, directions)


class TestDenseOverlap:
    def test_colocated_cluster_grows_stack(self, rng):
        # ~1k near-identical triangles make every node box overlap every ray,
        # so every lane pushes both children at every level: the stacks fill
        # to the depth + 1 bound that one-pop ordered traversal guarantees,
        # and must not overflow into neighboring lanes.
        jitter = rng.normal(scale=1e-3, size=(1024, 3, 3))
        base = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        corners = base[None, :, :] + jitter
        vertices = corners.reshape(-1, 3)
        triangles = np.arange(len(vertices)).reshape(-1, 3)
        mesh = TriangleMesh(vertices, triangles)
        bvh = build_bvh(mesh)
        origins = np.tile([0.25, 0.25, 2.0], (600, 1))
        directions = np.tile([0.0, 0.0, -1.0], (600, 1))
        _assert_matches_brute_force(bvh, mesh, origins, directions)


def _soup(rng, count: int, planar: bool = False) -> TriangleMesh:
    """Random triangles in the unit cube (all at z = 0.5 when ``planar``)."""
    corners = rng.uniform(0.0, 1.0, size=(count, 3, 3))
    corners = corners[:, :1] + 0.2 * (corners - corners[:, :1])
    if planar:
        corners[..., 2] = 0.5
    vertices = corners.reshape(-1, 3)
    return TriangleMesh(vertices, np.arange(len(vertices)).reshape(-1, 3))


def _cull_rays(rng, count: int):
    """Rays that miss the unit cube, graze it, cross it, or start inside it."""
    quarter = count // 4
    # Miss: start beside the cube and travel away from it.
    miss_origins = rng.uniform(2.0, 3.0, size=(quarter, 3))
    miss_dirs = rng.uniform(0.1, 1.0, size=(quarter, 3))
    # Graze: travel inside the z = 0.5 plane or along the cube's faces.
    graze_origins = rng.uniform(0.0, 1.0, size=(quarter, 3))
    graze_origins[:, 0] = -1.0
    graze_origins[: quarter // 2, 2] = 0.5
    graze_origins[quarter // 2 :, 1] = rng.choice([0.0, 1.0], size=quarter - quarter // 2)
    graze_dirs = np.tile([1.0, 0.0, 0.0], (quarter, 1))
    # Cross: from above the cube down through it.
    cross_origins = rng.uniform(0.0, 1.0, size=(quarter, 3))
    cross_origins[:, 2] = 3.0
    cross_dirs = np.column_stack(
        [rng.normal(scale=0.2, size=(quarter, 2)), -np.ones(quarter)]
    )
    # Inside: start within the cube in any direction.
    inside = count - 3 * quarter
    inside_origins = rng.uniform(0.05, 0.95, size=(inside, 3))
    inside_dirs = rng.normal(size=(inside, 3))
    origins = np.concatenate([miss_origins, graze_origins, cross_origins, inside_origins])
    directions = np.concatenate([miss_dirs, graze_dirs, cross_dirs, inside_dirs])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return origins, directions, slice(0, quarter)


def _face_grazing_rays(mesh: TriangleMesh):
    """Rays through the mesh's lowest and highest vertex on each axis,
    travelling inside the root box's low and high face planes: the rays a box
    test one ulp too tight would lose.  On a zero-thickness (planar) axis the
    two face planes coincide with the mesh plane.
    """
    vertices = mesh.vertices
    origins, directions = [], []
    for axis in range(3):
        for vertex in (vertices[vertices[:, axis].argmin()], vertices[vertices[:, axis].argmax()]):
            for along in range(3):
                if along != axis:
                    step = np.eye(3)[along]
                    origins += [vertex - 3.0 * step, vertex + 3.0 * step]
                    directions += [step, -step]
    return np.array(origins), np.array(directions)


class TestRootCull:
    """Rays are slab-tested against the root box before traversal starts.

    The cull must be exact: every query equals the brute-force intersector,
    and only rays that cannot reach any node report zero visits.
    """

    @pytest.mark.parametrize("planar", [False, True])
    @pytest.mark.parametrize("leaf_size", [1, 4])
    def test_closest_hit_float64_exact(self, rng, planar, leaf_size):
        mesh = _soup(rng, 200, planar)
        bvh = build_bvh(mesh, leaf_size=leaf_size)
        origins, directions, missing = _cull_rays(rng, 400)
        fast = closest_hit(bvh, mesh, origins, directions)
        slow = brute_force_closest_hit(mesh, origins, directions)
        assert np.array_equal(fast.triangle, slow.triangle)
        assert np.array_equal(fast.t, slow.t)
        hit = fast.hit_mask
        assert np.array_equal(fast.u[hit], slow.u[hit])
        assert np.array_equal(fast.v[hit], slow.v[hit])
        assert hit.any() and not hit[missing].any()
        assert (fast.nodes_visited[missing] == 0).all()
        assert (fast.nodes_visited[hit] >= 1).all()

    def test_planar_mesh_hits_through_zero_thickness_root(self, rng):
        mesh = _soup(rng, 120, planar=True)
        bvh = build_bvh(mesh)
        assert bvh.node_low[0, 2] == bvh.node_high[0, 2]
        targets = mesh.centroids()
        origins = targets + np.array([0.0, 0.0, 1.0])
        directions = np.tile([0.0, 0.0, -1.0], (len(targets), 1))
        fast = closest_hit(bvh, mesh, origins, directions)
        slow = brute_force_closest_hit(mesh, origins, directions)
        assert fast.hit_mask.all()
        assert np.array_equal(fast.triangle, slow.triangle)
        assert np.array_equal(fast.t, slow.t)

    def test_rays_grazing_root_faces(self, rng):
        mesh = _soup(rng, 200)
        bvh = build_bvh(mesh)
        origins, directions = _face_grazing_rays(mesh)
        assert len(origins) >= 8
        fast = closest_hit(bvh, mesh, origins, directions)
        slow = brute_force_closest_hit(mesh, origins, directions)
        assert slow.hit_mask.all()
        assert np.array_equal(fast.triangle, slow.triangle)
        assert np.array_equal(fast.t, slow.t)
        assert any_hit(bvh, mesh, origins, directions).all()

    def test_rays_in_planar_mesh_faces(self, rng):
        """A zero-thickness root: rays crossing the plane through a face vertex
        hit, rays lying in the plane are parallel to every triangle and miss."""
        mesh = _soup(rng, 120, planar=True)
        bvh = build_bvh(mesh)
        origins, directions = _face_grazing_rays(mesh)
        in_plane = directions[:, 2] == 0.0
        assert in_plane.any() and (origins[in_plane, 2] == 0.5).all()
        fast = closest_hit(bvh, mesh, origins, directions)
        slow = brute_force_closest_hit(mesh, origins, directions)
        assert slow.hit_mask[~in_plane].all() and not slow.hit_mask[in_plane].any()
        assert np.array_equal(fast.triangle, slow.triangle)
        assert np.array_equal(fast.t, slow.t)
        assert np.array_equal(any_hit(bvh, mesh, origins, directions), slow.hit_mask)

    @pytest.mark.parametrize("planar", [False, True])
    def test_per_ray_t_max(self, rng, planar):
        mesh = _soup(rng, 200, planar)
        bvh = build_bvh(mesh)
        origins, directions, _ = _cull_rays(rng, 400)
        # Limits from well short of the box (culled by t_max alone) to beyond it.
        t_max = rng.uniform(0.0, 4.0, size=len(origins))
        fast = closest_hit(bvh, mesh, origins, directions, t_max=t_max)
        slow = brute_force_closest_hit(mesh, origins, directions, t_max=t_max)
        assert np.array_equal(fast.triangle, slow.triangle)
        assert np.array_equal(fast.t, slow.t)
        occluded = any_hit(bvh, mesh, origins, directions, t_max=t_max)
        assert np.array_equal(occluded, slow.hit_mask)
        assert occluded.any() and not occluded.all()

    @pytest.mark.parametrize("planar", [False, True])
    def test_float32_matches_brute_force(self, rng, planar):
        mesh = _soup(rng, 200, planar)
        bvh = build_bvh(mesh)
        origins, directions, missing = _cull_rays(rng, 400)
        fast = closest_hit(bvh, mesh, origins, directions, dtype=np.float32)
        slow = brute_force_closest_hit(mesh, origins, directions)
        # Rays that pass within float32 roundoff of a triangle edge may
        # legitimately differ; everything else agrees.
        agree = fast.triangle == slow.triangle
        assert agree.mean() > 0.98
        assert np.allclose(fast.t[agree & slow.hit_mask], slow.t[agree & slow.hit_mask], rtol=1e-5)
        assert not fast.hit_mask[missing].any()
        assert (fast.nodes_visited[missing] == 0).all()
        occluded = any_hit(bvh, mesh, origins, directions, dtype=np.float32)
        assert np.array_equal(occluded, fast.hit_mask)

    def test_single_leaf_root_is_not_culled(self, rng):
        mesh = _soup(rng, 3)
        bvh = build_bvh(mesh, leaf_size=4)
        assert bvh.num_nodes == 1
        origins, directions, _ = _cull_rays(rng, 200)
        fast = closest_hit(bvh, mesh, origins, directions)
        slow = brute_force_closest_hit(mesh, origins, directions)
        assert np.array_equal(fast.triangle, slow.triangle)
        assert np.array_equal(fast.t, slow.t)
        # The single leaf is intersected directly: every ray visits it.
        assert (fast.nodes_visited > 0).all()
        occluded = any_hit(bvh, mesh, origins, directions)
        assert np.array_equal(occluded, slow.hit_mask)


class TestGeometryCacheInvalidation:
    def test_mutated_mesh_recomputes_triangle_soa(self):
        mesh = TriangleMesh(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            np.array([[0, 1, 2]]),
        )
        bvh = build_bvh(mesh)
        origins = np.array([[0.25, 0.25, 1.0]])
        directions = np.array([[0.0, 0.0, -1.0]])
        before = closest_hit(bvh, mesh, origins, directions)
        assert before.t[0] == pytest.approx(1.0)
        # Shift the triangle down in place; the documented remedy must reach
        # the BVH's cached triangle SoA as well as the mesh's corner cache.
        mesh.vertices[:, 2] -= 0.5
        mesh.invalidate_caches()
        rebuilt = build_bvh(mesh)
        after = closest_hit(rebuilt, mesh, origins, directions)
        assert after.t[0] == pytest.approx(1.5)
        # Same BVH object queried again also sees the fresh corner expansion.
        stale_check = closest_hit(bvh, mesh, origins, directions)
        assert stale_check.t[0] == pytest.approx(1.5)


class TestRayDtype:
    def test_float32_mode_close_to_float64(self, small_surface, small_camera):
        origins, directions = small_camera.generate_rays()
        bvh = build_bvh(small_surface)
        exact = closest_hit(bvh, small_surface, origins, directions)
        fast = closest_hit(
            bvh, small_surface, origins, directions, dtype=np.float32
        )
        agree = exact.hit_mask == fast.hit_mask
        assert agree.mean() > 0.99
        both = exact.hit_mask & fast.hit_mask
        assert np.allclose(exact.t[both], fast.t[both], rtol=1e-3)

    def test_pipeline_ray_dtype_plumbing(self, small_scene, small_camera):
        config = RayTracerConfig(
            workload=Workload.FULL, ao_samples=2, ray_dtype="float32", seed=3
        )
        result = RayTracer(small_scene, config).render(small_camera)
        assert result.framebuffer.active_pixels() > 0
        reference = RayTracer(
            small_scene,
            RayTracerConfig(workload=Workload.FULL, ao_samples=2, seed=3),
        ).render(small_camera)
        # Reduced precision should not change which pixels are covered.
        assert result.features.active_pixels == reference.features.active_pixels

    def test_invalid_ray_dtype_rejected(self):
        with pytest.raises(ValueError):
            RayTracerConfig(ray_dtype="float16")
