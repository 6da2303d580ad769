"""Transfer functions: scalar value to color and opacity.

Volume rendering "starts with a 'transfer function', which specifies a mapping
of opacity and color for each value in a scalar field" (Section 3.2).  The
:class:`TransferFunction` couples a color table with a piecewise-linear
opacity curve and pre-corrects opacity for the sampling step length so the
composited result is (approximately) independent of how densely a ray is
sampled.
"""

from __future__ import annotations

import numpy as np

from repro.rendering.color import ColorTable, normalize_scalars

__all__ = ["TransferFunction"]


class TransferFunction:
    """Color + opacity lookup for volume rendering.

    Parameters
    ----------
    color_table:
        Color table mapping normalized values to RGB.
    opacity_points:
        Sequence of ``(position, opacity)`` control points over [0, 1]; the
        opacity curve is piecewise linear between them.  The default ramp
        makes low values transparent and high values mostly opaque.
    scalar_range:
        Raw scalar range mapped to [0, 1]; computed from the data when None.
    unit_distance:
        The world-space distance over which the stored opacity applies; the
        per-sample opacity is corrected with ``1 - (1 - a) ** (step / unit)``.
    """

    def __init__(
        self,
        color_table: ColorTable | None = None,
        opacity_points: list[tuple[float, float]] | None = None,
        scalar_range: tuple[float, float] | None = None,
        unit_distance: float = 1.0,
    ) -> None:
        self.color_table = color_table or ColorTable("cool-to-warm")
        points = opacity_points or [(0.0, 0.0), (0.3, 0.02), (0.7, 0.25), (1.0, 0.9)]
        points = sorted(points)
        self._positions = np.array([p for p, _ in points])
        self._opacities = np.clip(np.array([a for _, a in points]), 0.0, 1.0)
        if len(self._positions) < 2:
            raise ValueError("a transfer function needs at least two opacity points")
        self.scalar_range = scalar_range
        if unit_distance <= 0:
            raise ValueError("unit_distance must be positive")
        self.unit_distance = float(unit_distance)

    def normalize(self, scalars: np.ndarray, data_range: tuple[float, float] | None = None) -> np.ndarray:
        """Normalize raw scalars against the configured range.

        Without a configured range, ``data_range`` is used, and without that
        the scalars' own extremes.
        """
        scalar_range = self.scalar_range if self.scalar_range is not None else data_range
        if scalar_range is None:
            return normalize_scalars(scalars)
        return normalize_scalars(scalars, scalar_range[0], scalar_range[1])

    def opacity(self, normalized: np.ndarray, step_length: float | None = None) -> np.ndarray:
        """Opacity for normalized values, optionally corrected for sample spacing."""
        normalized = np.clip(np.asarray(normalized, dtype=np.float64), 0.0, 1.0)
        alpha = np.interp(normalized, self._positions, self._opacities)
        if step_length is not None and step_length > 0:
            alpha = 1.0 - np.power(1.0 - np.clip(alpha, 0.0, 0.999999), step_length / self.unit_distance)
        return alpha

    def color(self, normalized: np.ndarray) -> np.ndarray:
        """RGB for normalized values."""
        return self.color_table.map(normalized)

    def sample(
        self,
        scalars: np.ndarray,
        step_length: float | None = None,
        data_range: tuple[float, float] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Map raw scalars to ``(rgb, alpha)`` with optional opacity correction.

        ``data_range`` is passed to :meth:`normalize`.
        """
        normalized = self.normalize(scalars, data_range)
        return self.color(normalized), self.opacity(normalized, step_length)
