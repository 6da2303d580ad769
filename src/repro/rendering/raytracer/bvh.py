"""Bounding volume hierarchies for the ray tracer.

Two builders are provided, mirroring the study's configurations:

* **LBVH** (``method="lbvh"``) -- primitives are sorted along a Morton curve
  of their centroids and every range splits where the highest differing bit
  of its first and last codes flips (Karras 2012, "Maximizing parallelism in
  the construction of BVHs, octrees and k-d trees").  The tree is built
  **level-synchronously**: all ranges of one tree level find their splits
  with a single ``searchsorted`` over the sorted codes, leaf boxes come from
  one ``minimum/maximum.reduceat`` over the leaf ranges (which partition the
  sorted primitives), and internal boxes are folded bottom-up from their
  children.  The work is O(n) numpy per level, no Python per node; this is
  the linear-BVH build of the paper's VTK-m ray tracer that the Eq. 5.1 term
  ``c0 * O`` models.
* **SAH** (``method="sah"``) -- a binned surface-area-heuristic top-down
  build producing higher-quality trees at higher build cost.  The
  specialised-ray-tracer baselines (Embree / OptiX proxies, Tables 3 and 4)
  use this builder.

The tree is stored flat in structure-of-arrays form so traversal can run
vectorized over large ray batches: per node we keep the AABB corners, the
two child indices (internal nodes) or the primitive range (leaves).  Both
builders record the tree depth, which sizes the traversal stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.triangles import TriangleMesh
from repro.util.morton import morton_codes_points

__all__ = ["BVH", "build_bvh"]

#: Leaf size used by the study's EAVL ray tracer ("maximum leaf size of eight
#: triangles"); the default here is smaller because the reproduction's scenes
#: are smaller.
DEFAULT_LEAF_SIZE = 4


@dataclass
class BVH:
    """Flat bounding volume hierarchy.

    Attributes
    ----------
    node_low, node_high:
        ``(num_nodes, 3)`` AABB corners per node.
    left_child, right_child:
        Child node indices; ``-1`` for leaves.
    first_primitive, primitive_count:
        Leaf primitive range into :attr:`primitive_order`; count is zero for
        internal nodes.
    primitive_order:
        Permutation of the original primitive ids so each leaf's primitives
        are contiguous.
    depth:
        Depth of the deepest node (root = 0), recorded by the builder.
    """

    node_low: np.ndarray
    node_high: np.ndarray
    left_child: np.ndarray
    right_child: np.ndarray
    first_primitive: np.ndarray
    primitive_count: np.ndarray
    primitive_order: np.ndarray
    leaf_size: int
    method: str
    depth: int
    _triangle_soa: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _node_boxes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return len(self.left_child)

    @property
    def num_primitives(self) -> int:
        return len(self.primitive_order)

    def is_leaf(self, node: int | np.ndarray) -> np.ndarray:
        """True where the node index refers to a leaf."""
        return self.primitive_count[node] > 0

    def max_depth(self) -> int:
        """Depth of the deepest node (root = 0)."""
        return self.depth

    def triangle_soa(
        self, mesh: TriangleMesh, dtype: np.dtype | type = np.float64
    ) -> tuple[np.ndarray, ...]:
        """Cached per-component triangle corner/edge SoA for the traversal kernel.

        Returns nine flat arrays ``(v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y,
        e2z)``.  The seed kernel re-expanded ``mesh.corners()`` and re-derived
        the Moller-Trumbore edge vectors on every ``closest_hit``/``any_hit``
        call; the frontier engine instead computes them once per (BVH, dtype)
        and reuses them across queries.  The cache is tied to the identity of
        the mesh's corner expansion, so passing a different mesh -- or
        mutating the mesh in place and calling
        :meth:`~repro.geometry.triangles.TriangleMesh.invalidate_caches` --
        recomputes rather than serving stale geometry.
        """
        dtype = np.dtype(dtype)
        corners = mesh.corners()
        cached = self._triangle_soa.get(dtype)
        if cached is None or cached[0] is not corners:
            v0 = corners[:, 0]
            edge1 = corners[:, 1] - corners[:, 0]
            edge2 = corners[:, 2] - corners[:, 0]
            soa = tuple(
                np.ascontiguousarray(vectors[:, axis], dtype=dtype)
                for vectors in (v0, edge1, edge2)
                for axis in range(3)
            )
            cached = (corners, soa)
            self._triangle_soa[dtype] = cached
        return cached[1]

    def node_boxes(self, dtype: np.dtype | type = np.float64) -> tuple[np.ndarray, ...]:
        """Cached per-component node AABB corners cast to ``dtype``.

        Returns six flat arrays ``(lx, ly, lz, hx, hy, hz)``.  Casting
        ``float64`` boxes down to ``float32`` rounds to nearest, which could
        shrink a box by half an ulp and cause a false miss; the cast is
        therefore padded one ulp outward on each side, keeping the
        reduced-precision traversal conservative.
        """
        dtype = np.dtype(dtype)
        cached = self._node_boxes.get(dtype)
        if cached is None:
            low = self.node_low.astype(dtype, copy=False)
            high = self.node_high.astype(dtype, copy=False)
            if dtype != self.node_low.dtype:
                low = np.nextafter(low, dtype.type(-np.inf))
                high = np.nextafter(high, dtype.type(np.inf))
            cached = tuple(
                np.ascontiguousarray(corner[:, axis])
                for corner in (low, high)
                for axis in range(3)
            )
            self._node_boxes[dtype] = cached
        return cached

    def validate(self, mesh: TriangleMesh, tolerance: float = 1e-9) -> bool:
        """Check containment invariants: every node box bounds its subtree.

        Used by the property-based tests; returns True when valid and raises
        ``AssertionError`` with a description otherwise.
        """
        lows, highs = mesh.triangle_bounds()
        stack = [0]
        seen = np.zeros(self.num_primitives, dtype=bool)
        while stack:
            node = stack.pop()
            count = int(self.primitive_count[node])
            if count > 0:
                first = int(self.first_primitive[node])
                prims = self.primitive_order[first : first + count]
                assert not np.any(seen[prims]), "primitive assigned to two leaves"
                seen[prims] = True
                assert np.all(lows[prims] >= self.node_low[node] - tolerance), "leaf box too small"
                assert np.all(highs[prims] <= self.node_high[node] + tolerance), "leaf box too small"
            else:
                left, right = int(self.left_child[node]), int(self.right_child[node])
                for child in (left, right):
                    assert np.all(self.node_low[child] >= self.node_low[node] - tolerance)
                    assert np.all(self.node_high[child] <= self.node_high[node] + tolerance)
                stack.extend((left, right))
        assert np.all(seen), "some primitives missing from the hierarchy"
        return True


class _Builder:
    """Top-down build machinery driven by a split callable (the SAH builder)."""

    def __init__(self, lows: np.ndarray, highs: np.ndarray, centroids: np.ndarray, leaf_size: int):
        self.lows = lows
        self.highs = highs
        self.centroids = centroids
        self.leaf_size = leaf_size
        self.node_low: list[np.ndarray] = []
        self.node_high: list[np.ndarray] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.first: list[int] = []
        self.count: list[int] = []
        self.depth = 0

    def _new_node(self, low: np.ndarray, high: np.ndarray) -> int:
        self.node_low.append(low)
        self.node_high.append(high)
        self.left.append(-1)
        self.right.append(-1)
        self.first.append(0)
        self.count.append(0)
        return len(self.left) - 1

    def build(self, order: np.ndarray, split) -> np.ndarray:
        """Iteratively build the tree over ``order`` (a primitive permutation).

        ``split`` is a callable mapping a contiguous range of ``order`` to a
        split position (index within the range) or ``None`` to force a leaf.
        Returns the final primitive order (ranges may be permuted in place by
        the split function).
        """
        order = order.copy()
        # Work stack of (start, end, node_index, depth); node boxes are
        # finalized on pop.
        root = self._new_node(np.zeros(3), np.zeros(3))
        stack = [(0, len(order), root, 0)]
        while stack:
            start, end, node, depth = stack.pop()
            self.depth = max(self.depth, depth)
            prims = order[start:end]
            low = self.lows[prims].min(axis=0)
            high = self.highs[prims].max(axis=0)
            self.node_low[node] = low
            self.node_high[node] = high
            span = end - start
            position = None if span <= self.leaf_size else split(order, start, end)
            if position is None or position <= start or position >= end:
                self.first[node] = start
                self.count[node] = span
                continue
            left_node = self._new_node(low, high)
            right_node = self._new_node(low, high)
            self.left[node] = left_node
            self.right[node] = right_node
            stack.append((start, position, left_node, depth + 1))
            stack.append((position, end, right_node, depth + 1))
        return order

    def finish(self, order: np.ndarray, leaf_size: int, method: str) -> BVH:
        return BVH(
            node_low=np.asarray(self.node_low),
            node_high=np.asarray(self.node_high),
            left_child=np.asarray(self.left, dtype=np.int64),
            right_child=np.asarray(self.right, dtype=np.int64),
            first_primitive=np.asarray(self.first, dtype=np.int64),
            primitive_count=np.asarray(self.count, dtype=np.int64),
            primitive_order=order.astype(np.int64),
            leaf_size=leaf_size,
            method=method,
            depth=self.depth,
        )


def _build_lbvh(lows: np.ndarray, highs: np.ndarray, codes: np.ndarray, leaf_size: int) -> BVH:
    """Level-synchronous Karras LBVH over the primitives' Morton codes.

    Primitives are sorted by code (stably).  Each range of the sorted order
    splits at the first index whose code has the highest differing bit of
    the range's first and last codes set -- the spatial plane of the Z-order
    cell, which produces far less node overlap than a midpoint split -- or
    at the midpoint when all its codes are equal.  Nodes are numbered level
    by level (a level's children follow it, left before right).
    """
    order = np.argsort(codes, kind="stable")
    codes = codes[order].astype(np.int64)
    lows, highs = lows[order], highs[order]
    n = len(codes)
    # One entry per level: the level's (start, end) ranges and leaf flags.
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    start = np.zeros(1, dtype=np.int64)
    end = np.full(1, n, dtype=np.int64)
    while len(start):
        first = codes.take(start)
        last = codes.take(end - 1)
        differ = first ^ last
        # The codes have 30 bits, so float64 frexp yields exact bit lengths.
        top_bit = np.maximum(np.frexp(differ.astype(np.float64))[1] - 1, 0)
        threshold = ((first >> top_bit) | 1) << top_bit
        split = np.where(differ == 0, (start + end) // 2, np.searchsorted(codes, threshold))
        leaf = (end - start <= leaf_size) | (split <= start) | (split >= end)
        levels.append((start, end, leaf))
        inner = ~leaf
        start = np.column_stack([start[inner], split[inner]]).ravel()
        end = np.column_stack([split[inner], end[inner]]).ravel()

    sizes = [len(level_start) for level_start, _, _ in levels]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    num_nodes = int(offsets[-1])
    left = np.full(num_nodes, -1, dtype=np.int64)
    right = np.full(num_nodes, -1, dtype=np.int64)
    first_primitive = np.zeros(num_nodes, dtype=np.int64)
    primitive_count = np.zeros(num_nodes, dtype=np.int64)
    for depth, (level_start, level_end, leaf) in enumerate(levels):
        nodes = offsets[depth] + np.arange(len(leaf), dtype=np.int64)
        inner = nodes[~leaf]
        left[inner] = offsets[depth + 1] + 2 * np.arange(len(inner), dtype=np.int64)
        right[inner] = left[inner] + 1
        first_primitive[nodes[leaf]] = level_start[leaf]
        primitive_count[nodes[leaf]] = level_end[leaf] - level_start[leaf]

    # Leaf ranges partition [0, n): one reduceat over them in start order.
    leaves = np.flatnonzero(primitive_count)
    leaves = leaves[np.argsort(first_primitive[leaves])]
    node_low = np.empty((num_nodes, 3), dtype=lows.dtype)
    node_high = np.empty((num_nodes, 3), dtype=highs.dtype)
    node_low[leaves] = np.minimum.reduceat(lows, first_primitive[leaves], axis=0)
    node_high[leaves] = np.maximum.reduceat(highs, first_primitive[leaves], axis=0)
    # Internal boxes fold bottom-up from their (deeper) children; min and max
    # are exact, so each box equals the reduction over its whole range.
    for depth in range(len(levels) - 2, -1, -1):
        nodes = offsets[depth] + np.flatnonzero(~levels[depth][2])
        node_low[nodes] = np.minimum(node_low[left[nodes]], node_low[right[nodes]])
        node_high[nodes] = np.maximum(node_high[left[nodes]], node_high[right[nodes]])
    return BVH(
        node_low=node_low,
        node_high=node_high,
        left_child=left,
        right_child=right,
        first_primitive=first_primitive,
        primitive_count=primitive_count,
        primitive_order=order.astype(np.int64),
        leaf_size=leaf_size,
        method="lbvh",
        depth=len(levels) - 1,
    )


def _make_sah_split(lows: np.ndarray, highs: np.ndarray, centroids: np.ndarray, num_bins: int = 8):
    """Binned SAH split closure over the primitive geometry arrays."""

    def split(order: np.ndarray, start: int, end: int) -> int | None:
        prims = order[start:end]
        cents = centroids[prims]
        best_cost = np.inf
        best_axis = -1
        best_threshold = 0.0
        extent_low = cents.min(axis=0)
        extent_high = cents.max(axis=0)
        for axis in range(3):
            axis_min, axis_max = extent_low[axis], extent_high[axis]
            if axis_max - axis_min < 1e-12:
                continue
            edges = np.linspace(axis_min, axis_max, num_bins + 1)[1:-1]
            for threshold in edges:
                mask = cents[:, axis] <= threshold
                n_left = int(mask.sum())
                n_right = len(prims) - n_left
                if n_left == 0 or n_right == 0:
                    continue
                left_area = _surface_area(lows[prims[mask]], highs[prims[mask]])
                right_area = _surface_area(lows[prims[~mask]], highs[prims[~mask]])
                cost = left_area * n_left + right_area * n_right
                if cost < best_cost:
                    best_cost, best_axis, best_threshold = cost, axis, threshold
        if best_axis < 0:
            # Degenerate spread: fall back to a median split in the widest axis.
            axis = int(np.argmax(extent_high - extent_low))
            local = np.argsort(cents[:, axis], kind="stable")
            order[start:end] = prims[local]
            return (start + end) // 2
        mask = cents[:, best_axis] <= best_threshold
        # Partition the range: left primitives first (stable).
        order[start:end] = np.concatenate([prims[mask], prims[~mask]])
        return start + int(mask.sum())

    return split


def _surface_area(lows: np.ndarray, highs: np.ndarray) -> float:
    """Surface area of the union box of the given primitive boxes."""
    extent = np.maximum(highs.max(axis=0) - lows.min(axis=0), 0.0)
    dx, dy, dz = extent
    return float(2.0 * (dx * dy + dy * dz + dz * dx))


def build_bvh(
    mesh: TriangleMesh,
    leaf_size: int = DEFAULT_LEAF_SIZE,
    method: str = "lbvh",
) -> BVH:
    """Build a BVH over a triangle mesh.

    Parameters
    ----------
    mesh:
        Triangle geometry; must contain at least one triangle.
    leaf_size:
        Maximum primitives per leaf.
    method:
        ``"lbvh"`` (Morton-sorted Karras splits, built level-synchronously)
        or ``"sah"`` (binned surface-area heuristic, higher quality).

    Returns
    -------
    BVH
    """
    if mesh.num_triangles == 0:
        raise ValueError("cannot build a BVH over an empty mesh")
    if leaf_size < 1:
        raise ValueError("leaf_size must be at least 1")
    lows, highs = mesh.triangle_bounds()
    centroids = mesh.centroids()
    if method == "lbvh":
        return _build_lbvh(lows, highs, morton_codes_points(centroids), leaf_size)
    if method != "sah":
        raise ValueError(f"unknown BVH build method {method!r}")
    builder = _Builder(lows, highs, centroids, leaf_size)
    order = np.arange(mesh.num_triangles, dtype=np.int64)
    order = builder.build(order, _make_sah_split(lows, highs, centroids))
    return builder.finish(order, leaf_size, method)
