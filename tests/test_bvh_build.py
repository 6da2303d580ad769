"""Differential tests for the level-synchronous LBVH build.

The oracle is the recursive Karras-split builder the level-synchronous one
replaced: the SAH machinery (:class:`repro.rendering.raytracer.bvh._Builder`)
driven by a per-range split callable.  Node numbering differs between the two
(depth-first versus level by level), so trees are compared under a canonical
left-first depth-first walk: same box bits, same leaf primitive ranges, same
left/right order, same depth.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import TriangleMesh
from repro.rendering.raytracer import build_bvh
from repro.rendering.raytracer.bvh import _Builder
from repro.util.morton import morton_codes_points


def _make_lbvh_split(sorted_codes: np.ndarray):
    """Karras-style LBVH split over the Morton-sorted primitive range.

    Each range splits where the highest differing bit of its first and last
    Morton codes flips; ranges whose codes are all identical fall back to the
    midpoint.
    """

    def split(order: np.ndarray, start: int, end: int) -> int:
        first = int(sorted_codes[start])
        last = int(sorted_codes[end - 1])
        if first == last:
            return (start + end) // 2
        top_bit = (first ^ last).bit_length() - 1
        # First index whose code has the highest differing bit set.
        threshold = ((first >> top_bit) | 1) << top_bit
        return start + int(np.searchsorted(sorted_codes[start:end], threshold))

    return split


def recursive_lbvh(mesh: TriangleMesh, leaf_size: int):
    """The recursive (one Python iteration per node) Karras LBVH build."""
    lows, highs = mesh.triangle_bounds()
    centroids = mesh.centroids()
    codes = morton_codes_points(centroids)
    order = np.argsort(codes, kind="stable")
    builder = _Builder(lows, highs, centroids, leaf_size)
    order = builder.build(order, _make_lbvh_split(codes[order]))
    return builder.finish(order, leaf_size, "lbvh")


def canonical(bvh) -> list[tuple]:
    """Left-first depth-first walk: one tuple of box bits and leaf range per node."""
    walk = []
    stack = [(0, 0)]
    while stack:
        node, depth = stack.pop()
        count = int(bvh.primitive_count[node])
        first = int(bvh.first_primitive[node]) if count else -1
        walk.append(
            (depth, bvh.node_low[node].tobytes(), bvh.node_high[node].tobytes(), first, count)
        )
        if count == 0:
            stack.append((int(bvh.right_child[node]), depth + 1))
            stack.append((int(bvh.left_child[node]), depth + 1))
    return walk


def _soup(seed: int, n: int, duplicates: int, layout: str = "normal") -> TriangleMesh:
    rng = np.random.default_rng(seed)
    if layout == "lattice":
        # Coarse integer positions: many triangles share a Morton cell.
        corners = rng.integers(0, 3, size=(n, 3, 3)).astype(np.float64)
    elif layout == "aligned":
        # Centroids on multiples of 256 of a 0..1023 frame quantize exactly,
        # so some codes equal a split threshold (a prefix, then zero bits).
        centroids = rng.choice([0.0, 256.0, 512.0, 768.0, 1023.0], size=(n, 3))
        centroids[0], centroids[-1] = 0.0, 1023.0
        offsets = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        corners = centroids[:, None, :] + offsets[None, :, :]
    else:
        corners = rng.normal(size=(n, 3, 3))
    if duplicates:
        # Exact copies of earlier triangles: equal centroids, equal codes.
        source = rng.integers(0, n, size=min(duplicates, n))
        corners[-len(source):] = corners[source]
    vertices = corners.reshape(-1, 3)
    return TriangleMesh(vertices, np.arange(len(vertices)).reshape(-1, 3))


def _assert_same_tree(mesh: TriangleMesh, leaf_size: int) -> None:
    fast = build_bvh(mesh, leaf_size=leaf_size, method="lbvh")
    oracle = recursive_lbvh(mesh, leaf_size)
    assert fast.num_nodes == oracle.num_nodes
    assert np.array_equal(fast.primitive_order, oracle.primitive_order)
    assert canonical(fast) == canonical(oracle)
    assert fast.max_depth() == oracle.max_depth()
    assert fast.validate(mesh)


class TestLevelSynchronousLBVH:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 160),
        leaf_size=st.integers(1, 8),
        duplicates=st.integers(0, 40),
        layout=st.sampled_from(["normal", "lattice", "aligned"]),
    )
    def test_matches_recursive_oracle(self, seed, n, leaf_size, duplicates, layout):
        _assert_same_tree(_soup(seed, n, duplicates, layout), leaf_size)

    @pytest.mark.parametrize("leaf_size", [1, 4, 8])
    def test_single_triangle(self, leaf_size):
        _assert_same_tree(_soup(3, 1, 0), leaf_size)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_range_within_leaf_size_is_single_leaf(self, n):
        mesh = _soup(5, n, 0)
        bvh = build_bvh(mesh, leaf_size=8)
        assert bvh.num_nodes == 1 and bvh.max_depth() == 0
        _assert_same_tree(mesh, 8)

    def test_all_centroids_equal(self):
        # Every code equal: the whole tree is midpoint splits.
        corners = np.repeat(_soup(7, 1, 0).corners(), 100, axis=0)
        vertices = corners.reshape(-1, 3)
        mesh = TriangleMesh(vertices, np.arange(len(vertices)).reshape(-1, 3))
        _assert_same_tree(mesh, 1)
        assert build_bvh(mesh, leaf_size=1).max_depth() == 7

    def test_isosurface(self, small_surface):
        for leaf_size in (1, 4):
            _assert_same_tree(small_surface, leaf_size)
