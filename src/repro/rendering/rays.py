"""The shared ray emitter: one camera-ray front-end for every image-order renderer.

Before the frontier refactor each image-order renderer carried its own ray
setup -- the ray tracer's Morton-ordered (optionally super-sampled) generator,
and private ray/bounds interval clips in the structured volume caster and the
connectivity ray-caster baseline (one of which lost the sign of tiny negative
direction components).  :class:`RayEmitter` centralizes all of it on top of
:meth:`repro.geometry.transforms.Camera.generate_rays` and the shared slab
test :func:`repro.geometry.aabb.ray_box_intervals`.

Emission is **footprint-bounded**: given the bounds of the data a renderer
holds, the emitter projects the box's eight corners through the camera basis
(the row convention of ``generate_rays``: row 0 at the top), pads the pixel
rectangle they span by :data:`FOOTPRINT_PAD` pixels, clips it to the image,
and generates rays only inside it.  A box that is not entirely in front of
the camera falls back to the full frame.  The projection of a box in front
of the camera lies inside the convex hull of its projected corners, so no
pixel whose ray meets the box is dropped; each ray is computed elementwise,
so the rays emitted are bit-equal to the same pixels' full-frame rays.  An
in situ rank whose data covers a tenth of the image therefore generates and
traces a tenth of the rays -- the active-pixel (``AP``) scaling of the
paper's image-order cost models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from repro.geometry.aabb import AABB, ray_box_intervals
from repro.geometry.transforms import Camera
from repro.util.morton import morton_encode_2d

__all__ = ["CameraPath", "RayEmitter"]

#: Pixels of padding around the projected rectangle of a box; far more than
#: the roundoff between the projection and the ray generator's arithmetic.
FOOTPRINT_PAD = 2


def _footprint_pixels(camera: Camera, bounds: AABB | None) -> np.ndarray:
    """Row-major ids of the pixels whose rays can meet ``bounds``.

    A conservative rectangle: the padded, clipped pixel span of the box's
    projected corners, or every pixel when ``bounds`` is ``None`` or not
    entirely in front of the camera.
    """
    width, height = camera.width, camera.height
    if bounds is None:
        return np.arange(width * height, dtype=np.int64)
    corners = np.array(list(itertools.product(*zip(bounds.low, bounds.high))))
    right, true_up, forward = camera.basis()
    offsets = corners - camera.position
    depth = offsets @ forward
    if not np.all(depth > 0.0):
        return np.arange(width * height, dtype=np.int64)
    tan_half = np.tan(np.radians(camera.fov_y_degrees) / 2.0)
    with np.errstate(over="ignore"):
        px = (offsets @ right / depth / (tan_half * camera.aspect) + 1.0) * 0.5 * width
        py = (1.0 - offsets @ true_up / depth / tan_half) * 0.5 * height
    pad = FOOTPRINT_PAD
    x0, x1 = np.clip([np.floor(px.min()) - pad, np.ceil(px.max()) + pad], 0, width).astype(np.int64)
    y0, y1 = np.clip([np.floor(py.min()) - pad, np.ceil(py.max()) + pad], 0, height).astype(np.int64)
    rows = np.arange(y0, y1, dtype=np.int64)
    cols = np.arange(x0, x1, dtype=np.int64)
    return (rows[:, None] * width + cols[None, :]).ravel()


@dataclass
class RayEmitter:
    """Generates primary rays for a camera in a renderer-agnostic way.

    Attributes
    ----------
    camera:
        The pinhole camera rays originate from.
    supersample:
        Rays per pixel: 1, or 4 for the study's anti-aliasing configuration
        (jittered sub-pixel positions via a double-resolution camera).
    morton_order:
        Emit rays along a Morton curve of the framebuffer (the ray tracer's
        coherence ordering) instead of row-major pixel order.
    """

    camera: Camera
    supersample: int = 1
    morton_order: bool = False

    def __post_init__(self) -> None:
        if self.supersample not in (1, 4):
            raise ValueError("supersample must be 1 or 4")

    # -- emission --------------------------------------------------------------
    def emit(
        self, pixel_ids: np.ndarray | None = None, bounds: AABB | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Primary rays; returns ``(pixel_ids, origins, directions)``.

        ``bounds`` restricts emission to the box's pixel footprint (see the
        module docstring); the rays come out in the same relative order as
        in the full frame.  ``pixel_ids`` instead restricts emission to
        specific (row-major) pixels and overrides the Morton ordering.  With
        4x super-sampling each pixel id appears four times with jittered
        sub-pixel positions.
        """
        camera = self.camera
        if pixel_ids is not None:
            if self.supersample != 1:
                raise ValueError("explicit pixel_ids are not supported with super-sampling")
            if bounds is not None:
                raise ValueError("pass either pixel_ids or bounds, not both")
            pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
            origins, directions = camera.generate_rays(pixel_ids)
            return pixel_ids, origins, directions
        # Four-ray super-sampling jitters by generating rays on a double-res
        # camera and mapping each fine pixel back to its coarse parent.
        scale = 2 if self.supersample == 4 else 1
        sampler = camera
        if scale == 2:
            sampler = replace(camera, width=camera.width * 2, height=camera.height * 2)
        sample_ids = _footprint_pixels(sampler, bounds)
        px = sample_ids % sampler.width // scale
        py = sample_ids // sampler.width // scale
        parent = py * camera.width + px
        if self.morton_order:
            order = np.argsort(
                morton_encode_2d(px.astype(np.uint32), py.astype(np.uint32)), kind="stable"
            )
        else:
            order = np.argsort(parent, kind="stable")
        origins, directions = sampler.generate_rays(sample_ids[order])
        return parent[order], origins, directions

    def emit_clipped(
        self, bounds: AABB
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rays whose parametric interval overlaps ``bounds``.

        Rays are generated over the box's pixel footprint only, then
        slab-tested.  Returns ``(pixel_ids, origins, directions, t_near,
        t_far)`` restricted to rays with a non-degenerate span: ``t_near`` is
        clamped at 0 (rays starting inside the box enter immediately) and
        only rays with ``t_far > t_near`` are kept.  This is the shared "ray
        setup" phase of the volume ray casters.
        """
        pixel_ids, origins, directions = self.emit(bounds=bounds)
        t_near, t_far = ray_box_intervals(origins, directions, bounds.low, bounds.high)
        t_near = np.maximum(t_near, 0.0)
        keep = t_far > t_near
        kept = np.flatnonzero(keep)
        return pixel_ids[kept], origins[kept], directions[kept], t_near[kept], t_far[kept]


@dataclass
class CameraPath:
    """A time-varying camera orbit: one :class:`Camera` (or emitter) per frame.

    The scale-study scenarios render a fly-around rather than a fixed view,
    so the per-rank active-pixel footprint shifts frame to frame (the camera
    sweeps across the decomposition).  The path orbits ``look_at`` in the
    plane orthogonal to ``up`` while bobbing along ``up``; frame ``t`` of
    ``num_frames`` sits at angle ``2*pi*t/num_frames`` plus the phase.

    Attributes
    ----------
    template:
        Camera carrying the shared intrinsics (fov, resolution, clip planes)
        plus the orbit center (``look_at``) and radius (distance from
        ``position`` to ``look_at``).
    num_frames:
        Frames in one full orbit.
    elevation:
        Amplitude of the ``up``-axis bob, as a fraction of the orbit radius.
    phase:
        Starting angle in radians.
    """

    template: Camera
    num_frames: int = 60
    elevation: float = 0.2
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.num_frames < 1:
            raise ValueError("num_frames must be positive")

    def camera_at(self, frame: int) -> Camera:
        """The orbit camera for ``frame`` (wraps modulo ``num_frames``)."""
        template = self.template
        offset = template.position - template.look_at
        radius = float(np.linalg.norm(offset))
        if radius == 0.0:
            raise ValueError("template camera must not sit on its look_at point")
        up = template.up / np.linalg.norm(template.up)
        # Orbit basis: the template's offset projected off `up`, plus the
        # orthogonal in-plane direction.
        planar = offset - offset.dot(up) * up
        if np.linalg.norm(planar) < 1e-12:
            planar = np.array([1.0, 0.0, 0.0]) - up[0] * up
        axis_a = planar / np.linalg.norm(planar)
        axis_b = np.cross(up, axis_a)
        angle = self.phase + 2.0 * np.pi * (frame % self.num_frames) / self.num_frames
        position = template.look_at + radius * (
            np.cos(angle) * axis_a + np.sin(angle) * axis_b
        ) + self.elevation * radius * np.sin(angle) * up
        return Camera(
            position=position,
            look_at=template.look_at,
            up=template.up,
            fov_y_degrees=template.fov_y_degrees,
            width=template.width,
            height=template.height,
            near=template.near,
            far=template.far,
        )

    def emitter_at(self, frame: int, supersample: int = 1, morton_order: bool = False) -> RayEmitter:
        """A :class:`RayEmitter` positioned at ``frame`` of the orbit."""
        return RayEmitter(self.camera_at(frame), supersample=supersample, morton_order=morton_order)
