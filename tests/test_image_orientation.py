"""All renderers of one camera number image rows the same way (row 0 at the top).

The object-order renderers (rasterizer, tet volume) place geometry through
:func:`repro.geometry.transforms.viewport_transform`; the image-order ones
(ray tracer, structured volume) through :meth:`Camera.generate_rays`.  A
mismatch mirrors one family's images vertically, which an off-center scene
exposes and a mixed ``DrawPlots`` depth-composites into a wrong image.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Camera, TriangleMesh
from repro.geometry.aabb import AABB
from repro.geometry.mesh import UniformGrid, UnstructuredHexMesh
from repro.geometry.tetra import hex_to_tets
from repro.geometry.transforms import project_points
from repro.geometry.triangles import external_faces
from repro.insitu import ConduitNode, Strawman, StrawmanOptions
from repro.rendering import (
    Rasterizer,
    RayTracer,
    StructuredVolumeRenderer,
    UnstructuredVolumeRenderer,
)
from repro.rendering.rasterizer import RasterizerConfig
from repro.rendering.scene import Scene
from repro.simulations import KripkeProxy


def _off_center_grid() -> UniformGrid:
    grid = UniformGrid((6, 6, 6), origin=(1.0, 1.3, 0.4), spacing=(0.12, 0.1, 0.1))
    points = grid.points()
    grid.add_point_field("f", 1.0 + points[:, 0] + points[:, 1])
    return grid


def _camera() -> Camera:
    # Frames a box the grid occupies one upper corner of.
    return Camera.framing_bounds(AABB(np.zeros(3), np.full(3, 2.0)), 64, 64)


def test_all_renderers_cover_the_same_rows():
    grid = _off_center_grid()
    hexes = UnstructuredHexMesh.from_structured(grid)
    surface = external_faces(hexes, scalar_field="f")
    renderers = {
        "raytrace": RayTracer(Scene(surface)),
        "raster": Rasterizer(Scene(surface)),
        "volume": StructuredVolumeRenderer(grid, "f"),
        "tet": UnstructuredVolumeRenderer(hex_to_tets(hexes), "f"),
    }
    camera = _camera()
    masks = {
        name: np.isfinite(renderer.render(camera).framebuffer.depth)
        for name, renderer in renderers.items()
    }
    reference = masks["raytrace"]
    rows = np.flatnonzero(reference.any(axis=1))
    # The scene is off-center, so a mirrored image would cover other rows.
    assert rows.max() < camera.height // 2
    assert not np.array_equal(reference, reference[::-1])
    for name, mask in masks.items():
        assert np.array_equal(mask, reference), name


def _actions(variable: str, *renderers: str) -> ConduitNode:
    actions = ConduitNode()
    for renderer in renderers:
        add = actions.append()
        add["action"] = "AddPlot"
        add["var"] = variable
        add["renderer"] = renderer
    draw = actions.append()
    draw["action"] = "DrawPlots"
    return actions


def test_mixed_draw_plots_composite_unmirrored_layers():
    proxy = KripkeProxy(6, seed=4)
    proxy.advance(1)
    strawman = Strawman()
    strawman.open(StrawmanOptions(num_ranks=1, default_width=40, default_height=40))
    strawman.publish(proxy.describe())
    alone = strawman.execute(_actions(proxy.primary_field, "raytrace")).framebuffer
    mixed = strawman.execute(_actions(proxy.primary_field, "raytrace", "raster")).framebuffer
    strawman.close()
    covered = np.isfinite(alone.depth)
    assert covered.any()
    assert np.array_equal(np.isfinite(mixed.depth), covered)


def test_backface_culling_keeps_the_same_triangles():
    # A closed box surface: the triangles facing away from the camera are the
    # ones wound counter-clockwise in normalized device coordinates (y up).
    grid = _off_center_grid()
    surface = external_faces(UnstructuredHexMesh.from_structured(grid), scalar_field="f")
    camera = _camera()
    ndc, _ = project_points(surface.vertices, camera.view_projection_matrix())
    corners = ndc[surface.triangles][..., :2]
    edge1 = corners[:, 1] - corners[:, 0]
    edge2 = corners[:, 2] - corners[:, 0]
    ndc_area = edge1[:, 0] * edge2[:, 1] - edge1[:, 1] * edge2[:, 0]
    front = np.flatnonzero(ndc_area <= 0.0)
    assert 0 < len(front) < surface.num_triangles

    culled = Rasterizer(Scene(surface), RasterizerConfig(backface_culling=True)).render(camera)
    assert culled.features.visible_objects == len(front)
    front_only = TriangleMesh(surface.vertices, surface.triangles[front])
    expected = Rasterizer(Scene(front_only)).render(camera)
    assert np.array_equal(culled.framebuffer.depth, expected.framebuffer.depth)
