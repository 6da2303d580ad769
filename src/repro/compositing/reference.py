"""The dense per-run reference compositors (the fast path's correctness oracle).

These are the original pure-Python exchange drivers: every rank holds a dense
:class:`~repro.compositing.image.SubImage`, pixel runs travel one
``send``/``recv`` pair at a time, and every merge is one
:func:`~repro.compositing.image.composite_pixels` call over a dense slice.
They are deliberately kept byte-for-byte equivalent to the pre-refactor
implementation and exposed through :func:`composite_reference`, mirroring the
``render_reference`` contract of the volume renderers: the cohort engine in
:mod:`repro.compositing.algorithms` must stay within ``1e-10`` of
this code on every algorithm, mode, and rank count (see
``tests/test_compositing_fast.py``).

Ordering note: the OVER operator is only associative when every pairwise
merge combines fragments that are *adjacent and contiguous* in visibility
order.  The callers therefore hand the algorithms their sub-images already
sorted by visibility (see :class:`repro.compositing.compositor.Compositor`),
and every merge loop below folds incoming pieces in ascending rank order, so
each intermediate fragment always covers a contiguous run of the visibility
order.  Depth (z-buffer) compositing is commutative, so the same code is
trivially correct for surface images.
"""

from __future__ import annotations

import numpy as np

from repro.compositing.algorithms import (
    _mixed_radix_digits,
    _pixel_partition,
    factor_radices,
    validate_radices,
)
from repro.compositing.image import SubImage, composite_pixels
from repro.runtime.communicator import SimulatedCommunicator

__all__ = [
    "composite_reference",
    "direct_send_reference",
    "binary_swap_reference",
    "radix_k_reference",
]


def _ordered_fold(
    pieces: list[tuple[int, np.ndarray, np.ndarray]], mode: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """Composite pixel runs in ascending key order; returns ``(rgba, depth, merges)``.

    ``pieces`` holds ``(order_key, rgba, depth)`` tuples covering the same
    pixel run.  Folding in ascending key order keeps every intermediate
    fragment contiguous in visibility order, which makes pairwise OVER exact.
    """
    pieces = sorted(pieces, key=lambda item: item[0])
    _, rgba, depth = pieces[0]
    merges = 0
    for _, rgba_next, depth_next in pieces[1:]:
        rgba, depth = composite_pixels(rgba, depth, rgba_next, depth_next, mode)
        merges += 1
    return rgba, depth, merges


def assemble_at_root(
    owned: dict[int, tuple[int, int]],
    images: list[SubImage],
    comm: SimulatedCommunicator,
) -> SubImage:
    """Gather each rank's owned pixel run at rank 0 and assemble the final image.

    ``owned`` maps rank to its ``(start, stop)`` run within ``images[rank]``.
    """
    final = images[0].copy()
    comm.next_round()
    for rank, (start, stop) in owned.items():
        if rank == 0 or start >= stop:
            continue
        rgba, depth = images[rank].piece(start, stop)
        comm.rank(rank).send(0, (rgba, depth, start, stop), tag=7)
    for rank, (start, stop) in owned.items():
        if rank == 0 or start >= stop:
            continue
        rgba, depth, start, stop = comm.rank(0).recv(rank, tag=7)
        final.rgba[start:stop] = rgba
        final.depth[start:stop] = depth
    return final


def direct_send_reference(
    images: list[SubImage], comm: SimulatedCommunicator, mode: str
) -> tuple[SubImage, int]:
    """Direct-send compositing; returns ``(final_image_at_root, merge_operations)``."""
    size = comm.size
    if len(images) != size:
        raise ValueError("need exactly one sub-image per rank")
    num_pixels = images[0].num_pixels
    partition = _pixel_partition(num_pixels, size)
    merges = 0

    # One exchange round: every rank sends every other rank's run to its owner.
    for source in range(size):
        for owner in range(size):
            if owner == source:
                continue
            start, stop = partition[owner]
            if start >= stop:
                continue
            rgba, depth = images[source].piece(start, stop)
            comm.rank(source).send(owner, (rgba, depth), tag=1)

    # Each owner folds the received runs (plus its own) in rank order.
    for owner in range(size):
        start, stop = partition[owner]
        if start >= stop:
            continue
        pieces = [(owner, images[owner].rgba[start:stop], images[owner].depth[start:stop])]
        for source in range(size):
            if source == owner:
                continue
            rgba_in, depth_in = comm.rank(owner).recv(source, tag=1)
            pieces.append((source, rgba_in, depth_in))
        rgba, depth, folded = _ordered_fold(pieces, mode)
        merges += folded
        images[owner].rgba[start:stop] = rgba
        images[owner].depth[start:stop] = depth

    owned = {rank: partition[rank] for rank in range(size)}
    final = assemble_at_root(owned, images, comm)
    return final, merges


def binary_swap_reference(
    images: list[SubImage], comm: SimulatedCommunicator, mode: str
) -> tuple[SubImage, int]:
    """Binary-swap compositing with a pairing fold for non-power-of-two task counts."""
    size = comm.size
    if len(images) != size:
        raise ValueError("need exactly one sub-image per rank")
    num_pixels = images[0].num_pixels
    merges = 0

    power = 1
    while power * 2 <= size:
        power *= 2
    extra = size - power

    # Fold phase: the trailing 2*extra ranks are merged pairwise so that the
    # remaining participants hold contiguous runs of the visibility order.
    participants = list(range(size - 2 * extra))
    if extra:
        pair_ranks = list(range(size - 2 * extra, size))
        for first, second in zip(pair_ranks[0::2], pair_ranks[1::2]):
            comm.rank(second).send(first, (images[second].rgba, images[second].depth), tag=2)
        for first, second in zip(pair_ranks[0::2], pair_ranks[1::2]):
            rgba_in, depth_in = comm.rank(first).recv(second, tag=2)
            rgba, depth = composite_pixels(images[first].rgba, images[first].depth, rgba_in, depth_in, mode)
            images[first].rgba, images[first].depth = rgba, depth
            merges += 1
            participants.append(first)
        comm.next_round()
    assert len(participants) == power

    # Swap rounds over participant indices (participants are visibility-ordered).
    owned = {index: (0, num_pixels) for index in range(power)}
    rounds = int(np.log2(power)) if power > 1 else 0
    for round_index in range(rounds):
        bit = 1 << round_index
        for index in range(power):
            partner = index ^ bit
            start, stop = owned[index]
            middle = (start + stop) // 2
            keep_first = index < partner
            send_range = (middle, stop) if keep_first else (start, middle)
            rgba, depth = images[participants[index]].piece(*send_range)
            comm.rank(participants[index]).send(
                participants[partner], (rgba, depth, send_range[0], send_range[1]), tag=3
            )
        for index in range(power):
            partner = index ^ bit
            start, stop = owned[index]
            middle = (start + stop) // 2
            keep_first = index < partner
            keep_range = (start, middle) if keep_first else (middle, stop)
            rank = participants[index]
            rgba_in, depth_in, in_start, in_stop = comm.rank(rank).recv(participants[partner], tag=3)
            if in_stop > in_start:
                pieces = [
                    (index, images[rank].rgba[in_start:in_stop], images[rank].depth[in_start:in_stop]),
                    (partner, rgba_in, depth_in),
                ]
                rgba, depth, folded = _ordered_fold(pieces, mode)
                merges += folded
                images[rank].rgba[in_start:in_stop] = rgba
                images[rank].depth[in_start:in_stop] = depth
            owned[index] = keep_range
        comm.next_round()

    owned_by_rank = {participants[index]: owned[index] for index in range(power)}
    # Rank 0 is always a participant (index 0), so assembly at rank 0 is valid.
    final = assemble_at_root(owned_by_rank, images, comm)
    return final, merges


def radix_k_reference(
    images: list[SubImage],
    comm: SimulatedCommunicator,
    mode: str,
    radices: list[int] | None = None,
) -> tuple[SubImage, int]:
    """Radix-k compositing; ``radices`` defaults to a factorisation of the task count.

    The mixed-radix digit layout keeps every exchange group contiguous in the
    (visibility-ordered) rank numbering, so ordered folding of group pieces
    preserves OVER correctness.
    """
    size = comm.size
    if len(images) != size:
        raise ValueError("need exactly one sub-image per rank")
    num_pixels = images[0].num_pixels
    if radices is None:
        radices = factor_radices(size)
    radices = validate_radices(size, radices)
    merges = 0

    owned = {rank: (0, num_pixels) for rank in range(size)}
    digits = {rank: _mixed_radix_digits(rank, radices) for rank in range(size)}
    stride = 1
    for round_index, radix in enumerate(radices):
        # Exchange phase: every rank sends each group partner its piece.
        for rank in range(size):
            my_digit = digits[rank][round_index]
            start, stop = owned[rank]
            pieces = _pixel_partition(stop - start, radix)
            pieces = [(start + a, start + b) for a, b in pieces]
            for member_digit in range(radix):
                if member_digit == my_digit:
                    continue
                partner = rank + (member_digit - my_digit) * stride
                send_start, send_stop = pieces[member_digit]
                rgba, depth = images[rank].piece(send_start, send_stop)
                comm.rank(rank).send(partner, (rgba, depth, send_start, send_stop, my_digit), tag=4)
        # Merge phase: fold the group's pieces in digit order.
        for rank in range(size):
            my_digit = digits[rank][round_index]
            start, stop = owned[rank]
            pieces = _pixel_partition(stop - start, radix)
            pieces = [(start + a, start + b) for a, b in pieces]
            keep_start, keep_stop = pieces[my_digit]
            incoming = [
                (my_digit, images[rank].rgba[keep_start:keep_stop], images[rank].depth[keep_start:keep_stop])
            ]
            for member_digit in range(radix):
                if member_digit == my_digit:
                    continue
                partner = rank + (member_digit - my_digit) * stride
                rgba_in, depth_in, in_start, in_stop, sender_digit = comm.rank(rank).recv(partner, tag=4)
                if in_stop > in_start:
                    incoming.append((sender_digit, rgba_in, depth_in))
            if keep_stop > keep_start and len(incoming) > 1:
                rgba, depth, folded = _ordered_fold(incoming, mode)
                merges += folded
                images[rank].rgba[keep_start:keep_stop] = rgba
                images[rank].depth[keep_start:keep_stop] = depth
            owned[rank] = (keep_start, keep_stop)
        comm.next_round()
        stride *= radix

    final = assemble_at_root(owned, images, comm)
    return final, merges


_REFERENCE_ALGORITHMS = {
    "direct-send": direct_send_reference,
    "binary-swap": binary_swap_reference,
    "radix-k": radix_k_reference,
}


def composite_reference(
    algorithm: str,
    images: list[SubImage],
    comm: SimulatedCommunicator,
    mode: str,
    radices: list[int] | None = None,
) -> tuple[SubImage, int]:
    """Run one dense reference driver; the differential oracle of the fast path."""
    if algorithm not in _REFERENCE_ALGORITHMS:
        raise ValueError(
            f"unknown compositing algorithm {algorithm!r}; choose from {sorted(_REFERENCE_ALGORITHMS)}"
        )
    if algorithm == "radix-k":
        return radix_k_reference(images, comm, mode, radices)
    return _REFERENCE_ALGORITHMS[algorithm](images, comm, mode)
