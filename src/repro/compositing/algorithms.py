"""The three sort-last exchange algorithms over run-length sub-images.

* direct-send -- every rank is assigned one contiguous run of pixels and
  receives that run from every other rank in a single exchange round
  (Neumann 1993).
* binary-swap -- log2(P) rounds of pairwise half-image exchanges (Ma et al.
  1994); non-power-of-two task counts are handled with an initial fold phase
  that pairs up the trailing ranks.
* radix-k -- the generalisation of Peterka et al. used by IceT and by the
  paper's experiments: the task count is factored into radices and each round
  performs a k-way exchange within groups of k ranks.

One engine runs all three: the cohort scheduler (:func:`direct_send_streaming`,
:func:`binary_swap_streaming`, :func:`radix_k_streaming`).  Rank images are
:class:`~repro.compositing.runimage.RunImage` (contiguous active-pixel runs
with an SoA payload) drawn from a ``factory(position)`` callback in bounded
cohorts; a round's traffic is posted as batched array-valued
:meth:`~repro.runtime.communicator.SimulatedCommunicator.exchange` calls, and
a round's merges resolve in one :func:`~repro.compositing.merge.merge_groups`
call -- O(rounds) array operations instead of O(pixels · pieces) Python work.
:meth:`~repro.compositing.compositor.Compositor.composite` runs it with every
image live (one cohort).  The communication pattern (who sends which run to
whom, and where the round boundaries fall) is identical to the dense
reference drivers in :mod:`repro.compositing.reference`, the oracle the
differential tests hold this module to within 1e-10.

Ordering note: the OVER operator is only associative when every pairwise
merge combines fragments that are adjacent and contiguous in visibility
order.  Callers hand the algorithms their sub-images already sorted by
visibility (ascending ``RunImage.key``), and every merge folds group pieces
in ascending key order, exactly as the reference's ``_ordered_fold`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.compositing.merge import fold_bag_into_partial, merge_groups
from repro.compositing.runimage import RunImage, payload_fragments
from repro.runtime.communicator import SimulatedCommunicator

__all__ = [
    "factor_radices",
    "validate_radices",
    "RadixFactorError",
    "StreamStats",
    "direct_send_streaming",
    "binary_swap_streaming",
    "radix_k_streaming",
]


def _pixel_partition(num_pixels: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, num_pixels)`` into ``parts`` near-equal contiguous runs."""
    edges = np.linspace(0, num_pixels, parts + 1).astype(np.int64)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(parts)]


class RadixFactorError(ValueError):
    """A radix schedule that does not exactly tile the rank count.

    Every radix-k exchange round partitions each group's owned pixel run into
    ``radix`` pieces -- one per group member -- so the product of the radices
    must equal the task count exactly.  A schedule that multiplies out short
    (or long) would silently drop (or invent) group members at large P, which
    is why this is a structured error: the study CLI maps it to its own exit
    code and reports ``size``/``radices``/``product`` machine-readably.
    """

    def __init__(self, size: int, radices, reason: str | None = None) -> None:
        self.size = int(size)
        self.radices = tuple(int(r) for r in radices)
        self.product = int(np.prod(self.radices)) if self.radices else 0
        message = reason or (
            f"radix schedule {list(self.radices)} multiplies out to {self.product} "
            f"ranks but must cover exactly {self.size}; every round's k-way groups "
            "tile the rank count, so no radix may be truncated"
        )
        super().__init__(message)

    def as_dict(self) -> dict:
        """Machine-readable form (the study CLI prints this as JSON)."""
        return {
            "error": "radix-factorization",
            "size": self.size,
            "radices": list(self.radices),
            "product": self.product,
            "message": str(self),
        }


def validate_radices(size: int, radices) -> list[int]:
    """Check a radix schedule against a task count; returns it normalized to ints.

    Raises :class:`RadixFactorError` when the schedule is empty, contains a
    non-positive radix, or its product differs from ``size``.
    """
    schedule = [int(r) for r in radices]
    if not schedule:
        raise RadixFactorError(size, schedule, reason="radix schedule must not be empty")
    if any(r < 1 for r in schedule):
        raise RadixFactorError(
            size, schedule, reason=f"radix schedule {schedule} contains a non-positive radix"
        )
    if int(np.prod(schedule)) != int(size):
        raise RadixFactorError(size, schedule)
    return schedule


def factor_radices(size: int, target: int = 4) -> list[int]:
    """Factor a task count into radices no larger than ``target`` (prefer larger factors).

    The result always satisfies :func:`validate_radices` -- any remaining
    co-factor larger than ``target`` becomes a final (large) radix rather
    than being truncated.
    """
    if size < 1:
        raise ValueError("size must be positive")
    radices: list[int] = []
    remaining = size
    divisor = target
    while remaining > 1 and divisor >= 2:
        while remaining % divisor == 0:
            radices.append(divisor)
            remaining //= divisor
        divisor -= 1
    if remaining > 1:
        radices.append(remaining)
    return validate_radices(size, radices or [1])


def _mixed_radix_digits(rank: int, radices: list[int]) -> list[int]:
    """Digits of ``rank`` in the mixed-radix system defined by ``radices``."""
    digits = []
    for radix in radices:
        digits.append(rank % radix)
        rank //= radix
    return digits


def _replace_image(template: RunImage, merged: tuple[np.ndarray, np.ndarray, np.ndarray]) -> RunImage:
    """A new :class:`RunImage` holding ``merged`` fragments, keeping shape and key."""
    pixels, rgba, depth = merged
    return RunImage.from_arrays(pixels, rgba, depth, template.width, template.height, key=template.key)


def _with_depth(mode: str) -> bool:
    """Over-mode wire payloads drop the depth plane (the scalar key stands in)."""
    return mode == "depth"


# ---------------------------------------------------------------------------
# Shared round bodies (every block of the cohort scheduler below executes its
# exchange + merge per round through these).
# ---------------------------------------------------------------------------


def _swap_round(
    store: dict[int, RunImage],
    owned: dict[int, tuple[int, int]],
    participants: list[int],
    indices,
    bit: int,
    comm: SimulatedCommunicator,
    mode: str,
    num_pixels: int,
    round_index: int,
) -> int:
    """One binary-swap round over ``indices`` (participant-index addressed).

    ``store`` maps participant index to its current image (full image or
    retired piece -- the pixel-value slicing of ``piece_message`` works on
    both), ``owned`` the index's current interval.  ``round_index`` addresses
    the communicator log explicitly, because cohort blocks revisit one
    logical round at different wall-clock times.  Returns the merge-op count.
    """
    with_depth = _with_depth(mode)
    sends = []
    for index in indices:
        partner = index ^ bit
        start, stop = owned[index]
        middle = (start + stop) // 2
        send_range = (middle, stop) if index < partner else (start, middle)
        payload, nbytes = store[index].piece_message(*send_range, with_depth=with_depth)
        sends.append((participants[index], participants[partner], payload, nbytes))
    delivered = comm.exchange(sends, round_index=round_index)
    groups = []
    for index in indices:
        partner = index ^ bit
        start, stop = owned[index]
        middle = (start + stop) // 2
        keep_range = (start, middle) if index < partner else (middle, stop)
        rank = participants[index]
        _, payload = delivered[rank][0]
        pixels, rgba, depth, _ = payload_fragments(payload)
        own_pixels, own_rgba, own_depth = store[index].fragments(*keep_range)
        groups.append(
            (index, [(index, own_pixels, own_rgba, own_depth), (partner, pixels, rgba, depth)])
        )
        owned[index] = keep_range
    resolved, folded = merge_groups(groups, num_pixels, mode)
    for index, _ in groups:
        store[index] = _replace_image(store[index], resolved[index])
    return folded


def _radix_round(
    store: dict[int, RunImage],
    owned: dict[int, tuple[int, int]],
    digits: dict[int, list[int]],
    member_ranks,
    round_index: int,
    radix: int,
    stride: int,
    comm: SimulatedCommunicator,
    mode: str,
    num_pixels: int,
    log_round: int,
) -> int:
    """One radix-k round over ``member_ranks`` (rank addressed).

    Group members at round ``round_index`` differ only in that round's digit,
    so they share an owned interval; each member keeps piece ``my_digit`` of
    its interval's ``radix``-way partition and receives the matching piece
    from every group partner.  ``log_round`` addresses the communicator log
    explicitly, as in :func:`_swap_round`.  Returns the merge-op count.
    """
    with_depth = _with_depth(mode)
    pieces_of = {}
    for rank in member_ranks:
        start, stop = owned[rank]
        pieces = _pixel_partition(stop - start, radix)
        pieces_of[rank] = [(start + a, start + b) for a, b in pieces]
    # Exchange phase: every rank sends each group partner its piece.
    sends = []
    for rank in member_ranks:
        my_digit = digits[rank][round_index]
        rank_edges = np.array(
            [start for start, _ in pieces_of[rank]] + [pieces_of[rank][-1][1]], dtype=np.int64
        )
        messages = store[rank].piece_table(rank_edges, with_depth=with_depth)
        for member_digit in range(radix):
            if member_digit == my_digit:
                continue
            partner = rank + (member_digit - my_digit) * stride
            payload, nbytes = messages[member_digit]
            sends.append((rank, partner, payload, nbytes))
    delivered = comm.exchange(sends, round_index=log_round)
    # Merge phase: every group's digit-ordered fold in one batched merge.
    groups = []
    for rank in member_ranks:
        my_digit = digits[rank][round_index]
        keep_start, keep_stop = pieces_of[rank][my_digit]
        own_pixels, own_rgba, own_depth = store[rank].fragments(keep_start, keep_stop)
        fragment_sets = [(my_digit, own_pixels, own_rgba, own_depth)]
        for source, payload in delivered.get(rank, []):
            pixels, rgba, depth, _ = payload_fragments(payload)
            fragment_sets.append((digits[source][round_index], pixels, rgba, depth))
        groups.append((rank, fragment_sets))
        owned[rank] = (keep_start, keep_stop)
    resolved, folded = merge_groups(groups, num_pixels, mode)
    for rank, _ in groups:
        store[rank] = _replace_image(store[rank], resolved[rank])
    return folded


# ---------------------------------------------------------------------------
# The cohort scheduler: streaming/hierarchical execution to thousands of ranks.
#
# Holding every rank's RunImage for the whole exchange caps the simulated
# scale near 256 ranks.  The drivers below execute the exchange rounds as a
# pure reordering instead: rank images are generated on demand
# (``factory(position)``), processed in bounded cohorts (generate -> merge ->
# retire), and only compacted owned-interval pieces survive a cohort.  Because
# every merge kernel invocation sees the same per-pixel operation chains in
# the same order -- OVER blends are elementwise and depth selection is an
# exact (depth, key) tournament -- the result is independent of
# ``max_live_ranks``: a budget of P (one cohort, what ``Compositor.composite``
# uses) and a budget of 1 give the same bytes.  The memory contract: at most
# ``max_live_ranks`` full rank images are live at once, plus one transient
# (the running direct-send partial, or the second member of a non-power-of-two
# fold pair).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamStats:
    """Cohort-execution bookkeeping reported alongside a streamed composite.

    ``peak_live_images`` counts simultaneously-live *full rank images* (the
    memory contract bounds it by ``max_live_ranks + 1``); retired pieces and
    the bounded running partial are not full images.  ``cohorts`` counts
    generate->merge->retire batches, and ``total_active_pixels`` accumulates
    every generated image's active-pixel count (the Eq. 5.5 ``avg(AP)``
    numerator, summed so the caller can average without holding the images).
    """

    max_live_ranks: int
    peak_live_images: int
    cohorts: int
    total_active_pixels: int


class _LiveLedger:
    """Counts live full rank images; the scheduler's memory-contract witness."""

    def __init__(self) -> None:
        self.live = 0
        self.peak = 0

    def acquire(self, count: int = 1) -> None:
        self.live += count
        if self.live > self.peak:
            self.peak = self.live

    def release(self, count: int = 1) -> None:
        self.live -= count


def _materialize(
    factory: Callable[[int], RunImage],
    position: int,
    width: int,
    height: int,
    ledger: _LiveLedger,
) -> RunImage:
    """Generate one rank's image, pin its visibility key, and count it live."""
    image = factory(position)
    if not isinstance(image, RunImage):
        raise TypeError(
            f"streaming factory must return a RunImage, got {type(image).__name__} "
            f"for position {position}"
        )
    if image.width != width or image.height != height:
        raise ValueError(
            f"factory image for position {position} is {image.width}x{image.height}, "
            f"expected {width}x{height}"
        )
    if image.key != position:
        image = RunImage.from_arrays(
            image.pixels, image.rgba, image.depth, width, height, key=position
        )
    ledger.acquire()
    return image


def _retire_piece(image: RunImage, start: int, stop: int, width: int, height: int) -> RunImage:
    """Copy an owned-interval slice out of a full image so the image can be freed.

    ``fragments`` returns views; retiring a view would pin the whole rank
    image's payload in memory, defeating the cohort contract.
    """
    pixels, rgba, depth = image.fragments(start, stop)
    return RunImage.from_arrays(
        pixels.copy(), rgba.copy(), depth.copy(), width, height, key=image.key
    )


def _assemble_pieces(
    owned: dict[int, tuple[int, int]],
    pieces: dict[int, RunImage],
    comm: SimulatedCommunicator,
    mode: str,
    round_index: int,
    width: int,
    height: int,
) -> RunImage:
    """Gather each rank's owned run at rank 0 and assemble the final run image.

    ``owned`` maps rank to its ``(start, stop)`` interval and ``pieces`` to
    the retired piece holding it; the intervals tile ``[0, num_pixels)``, so
    concatenating the pieces (sorted by pixel) yields the complete composited
    image.  Traffic is recorded into round ``round_index``.
    """
    sends = []
    for rank, (start, stop) in sorted(owned.items()):
        if rank == 0 or start >= stop:
            continue
        payload, nbytes = pieces[rank].piece_message(start, stop, with_depth=_with_depth(mode))
        sends.append((rank, 0, payload, nbytes))
    delivered = comm.exchange(sends, round_index=round_index)

    start, stop = owned.get(0, (0, 0))
    fragments = [pieces[0].fragments(start, stop)] if stop > start else []
    for _, payload in delivered.get(0, []):
        pixels, rgba, depth, _ = payload_fragments(payload)
        fragments.append((pixels, rgba, depth))
    fragments = [piece for piece in fragments if len(piece[0])]
    if not fragments:
        empty = np.empty(0, dtype=np.int64)
        return RunImage.from_arrays(empty, np.empty((0, 4)), np.empty(0), width, height)
    all_pixels = np.concatenate([piece[0] for piece in fragments])
    order = np.argsort(all_pixels, kind="stable")  # owned intervals are disjoint
    if mode == "depth":
        depth = np.concatenate([piece[2] for piece in fragments])[order]
    else:
        depth = np.zeros(len(all_pixels))  # over-mode depth lives in the keys
    return RunImage.from_arrays(
        all_pixels[order],
        np.concatenate([piece[1] for piece in fragments])[order],
        depth,
        width,
        height,
    )


def direct_send_streaming(
    factory: Callable[[int], RunImage],
    size: int,
    width: int,
    height: int,
    comm: SimulatedCommunicator,
    mode: str,
    max_live_ranks: int = 256,
) -> tuple[RunImage, int, StreamStats]:
    """Cohort-streamed direct-send; returns ``(final, merge_ops, stats)``.

    Direct-send's single exchange round makes every owner fold the whole
    rank population over its pixel run; since the owner runs tile the image,
    the union of all folds is one global per-pixel left fold in rank order.
    The scheduler therefore keeps a single running partial over the full
    pixel range and folds each cohort's concatenated fragment bag onto it
    through :func:`~repro.compositing.merge.fold_bag_into_partial` -- the
    identical operation chain a per-owner band merge would perform, split
    at cohort boundaries.  Wire accounting is aggregated per link (a rank
    posts P-1 messages; enumerating P^2 tuples at 16k ranks is off the
    table) via ``SimulatedCommunicator.record_link_totals``.
    """
    if size < 1:
        raise ValueError("streaming composite requires at least one rank")
    num_pixels = width * height
    partition = _pixel_partition(num_pixels, size)
    edges = np.array([start for start, _ in partition] + [num_pixels], dtype=np.int64)
    interval_active = edges[1:] > edges[:-1]
    with_depth = _with_depth(mode)
    comm.ensure_rounds(2)

    ledger = _LiveLedger()
    partial = None
    merges = 0
    total_active = 0
    cohorts = 0
    sent_bytes = np.zeros(size)
    sent_msgs = np.zeros(size, dtype=np.int64)
    recv_bytes = np.zeros(size)
    recv_msgs = np.zeros(size, dtype=np.int64)

    chunk = max(1, int(max_live_ranks))
    for cohort_start in range(0, size, chunk):
        cohorts += 1
        ranks = range(cohort_start, min(cohort_start + chunk, size))
        images = []
        for rank in ranks:
            image = _materialize(factory, rank, width, height, ledger)
            total_active += image.active_pixels
            nbytes = image.piece_wire_table(edges, with_depth)
            mask = interval_active.copy()
            mask[rank] = False
            sent_bytes[rank] += float(nbytes[mask].sum())
            sent_msgs[rank] += int(np.count_nonzero(mask))
            np.add(recv_bytes, np.where(mask, nbytes, 0.0), out=recv_bytes)
            recv_msgs += mask
            images.append(image)
        bag_pixels = np.concatenate([image.pixels for image in images])
        bag_rgba = np.concatenate([image.rgba for image in images])
        bag_depth = (
            np.concatenate([image.depth for image in images]) if with_depth else None
        )
        bag_keys = (
            np.repeat(
                np.asarray(ranks, dtype=np.int64),
                np.array([image.active_pixels for image in images], dtype=np.int64),
            )
            if with_depth
            else None
        )
        first_fold = partial is None
        partial, folded = fold_bag_into_partial(partial, bag_pixels, bag_rgba, bag_depth, bag_keys, mode)
        merges += folded
        if first_fold:
            ledger.acquire()  # the running partial counts as one live image
        images = None
        ledger.release(len(ranks))
    comm.record_link_totals(0, sent_bytes, sent_msgs, recv_bytes, recv_msgs)

    pixels, rgba, depth, _ = partial
    final = RunImage.from_arrays(
        pixels, rgba, depth if with_depth else np.zeros(len(pixels)), width, height
    )
    # Assembly round: each owner ships its (merged) run to root; the merged
    # content of each owner interval is exactly the matching slice of the
    # global partial, so the wire sizes come off the final image's runs.
    final_bytes = final.piece_wire_table(edges, with_depth)
    mask = interval_active.copy()
    mask[0] = False
    assembly_sent = np.where(mask, final_bytes, 0.0)
    assembly_sent_msgs = mask.astype(np.int64)
    assembly_recv = np.zeros(size)
    assembly_recv_msgs = np.zeros(size, dtype=np.int64)
    assembly_recv[0] = float(final_bytes[mask].sum())
    assembly_recv_msgs[0] = int(np.count_nonzero(mask))
    comm.record_link_totals(1, assembly_sent, assembly_sent_msgs, assembly_recv, assembly_recv_msgs)

    stats = StreamStats(int(max_live_ranks), ledger.peak, cohorts, total_active)
    return final, merges, stats


def binary_swap_streaming(
    factory: Callable[[int], RunImage],
    size: int,
    width: int,
    height: int,
    comm: SimulatedCommunicator,
    mode: str,
    max_live_ranks: int = 256,
) -> tuple[RunImage, int, StreamStats]:
    """Cohort-streamed binary-swap; returns ``(final, merge_ops, stats)``.

    Swap round ``r`` pairs participant indices differing in bit ``r``, so
    rounds ``0..log2(B)-1`` stay inside aligned blocks of ``B`` participants
    (``B`` = largest power of two within ``max_live_ranks``).  Phase 1 runs
    those rounds block by block -- generate the block's members (folding
    non-power-of-two pairs on the fly), swap locally, retire each member to
    its owned-interval piece.  Phase 2 runs the remaining cross-block rounds
    over the retired pieces, whose total size is bounded by the per-block
    pixel coverage, not the rank count.  Round traffic is recorded into the
    same logical round whatever the block size, so the round log does not
    depend on ``max_live_ranks``.
    """
    if size < 1:
        raise ValueError("streaming composite requires at least one rank")
    num_pixels = width * height
    with_depth = _with_depth(mode)
    power = 1
    while power * 2 <= size:
        power *= 2
    extra = size - power
    fold_round = 1 if extra else 0
    swap_rounds = int(np.log2(power)) if power > 1 else 0
    total_rounds = fold_round + swap_rounds + 2  # trailing empty round + assembly
    assembly_round = total_rounds - 1
    comm.ensure_rounds(total_rounds)

    # Participant recipes in visibility order: plain leading ranks first, then
    # the first member of each trailing fold pair.
    recipes: list[tuple] = [("plain", rank) for rank in range(size - 2 * extra)]
    pair_ranks = list(range(size - 2 * extra, size))
    recipes += [("pair", first, second) for first, second in zip(pair_ranks[0::2], pair_ranks[1::2])]
    participants = [recipe[1] for recipe in recipes]

    block = 1
    while block * 2 <= min(int(max_live_ranks), power):
        block *= 2
    local_rounds = int(np.log2(block))

    ledger = _LiveLedger()
    merges = 0
    total_active = 0
    cohorts = 0
    pieces: dict[int, RunImage] = {}
    owned: dict[int, tuple[int, int]] = {}

    for block_start in range(0, power, block):
        cohorts += 1
        members = range(block_start, block_start + block)
        store: dict[int, RunImage] = {}
        for index in members:
            recipe = recipes[index]
            if recipe[0] == "plain":
                image = _materialize(factory, recipe[1], width, height, ledger)
                total_active += image.active_pixels
            else:
                _, first, second = recipe
                image = _materialize(factory, first, width, height, ledger)
                partner_image = _materialize(factory, second, width, height, ledger)
                total_active += image.active_pixels + partner_image.active_pixels
                payload, nbytes = partner_image.piece_message(0, num_pixels, with_depth=with_depth)
                comm.exchange([(second, first, payload, nbytes)], round_index=0)
                own_pixels, own_rgba, own_depth = image.fragments(0, num_pixels)
                pixels, rgba, depth, _ = payload_fragments(payload)
                resolved, folded = merge_groups(
                    [
                        (
                            first,
                            [
                                (first, own_pixels, own_rgba, own_depth),
                                (second, pixels, rgba, depth),
                            ],
                        )
                    ],
                    num_pixels,
                    mode,
                )
                merges += folded
                image = _replace_image(image, resolved[first])
                ledger.release()  # the folded pair partner retires immediately
            store[index] = image
        block_owned = {index: (0, num_pixels) for index in members}
        for local_round in range(local_rounds):
            merges += _swap_round(
                store,
                block_owned,
                participants,
                members,
                1 << local_round,
                comm,
                mode,
                num_pixels,
                fold_round + local_round,
            )
        for index in members:
            start, stop = block_owned[index]
            pieces[index] = _retire_piece(store[index], start, stop, width, height)
            owned[index] = (start, stop)
            ledger.release()
        store = None

    for swap_round in range(local_rounds, swap_rounds):
        merges += _swap_round(
            pieces,
            owned,
            participants,
            range(power),
            1 << swap_round,
            comm,
            mode,
            num_pixels,
            fold_round + swap_round,
        )

    owned_by_rank = {participants[index]: owned[index] for index in range(power)}
    pieces_by_rank = {participants[index]: pieces[index] for index in range(power)}
    final = _assemble_pieces(owned_by_rank, pieces_by_rank, comm, mode, assembly_round, width, height)
    stats = StreamStats(int(max_live_ranks), ledger.peak, cohorts, total_active)
    return final, merges, stats


def radix_k_streaming(
    factory: Callable[[int], RunImage],
    size: int,
    width: int,
    height: int,
    comm: SimulatedCommunicator,
    mode: str,
    max_live_ranks: int = 256,
    radices: list[int] | None = None,
) -> tuple[RunImage, int, StreamStats]:
    """Cohort-streamed radix-k; returns ``(final, merge_ops, stats)``.

    Rounds ``0..m-1`` with ``prod(radices[:m]) <= max_live_ranks`` are local
    to blocks of ``prod(radices[:m])`` consecutive ranks (group members at
    round ``r`` share all digits except digit ``r``), so phase 1 streams
    those blocks exactly like binary-swap's.  When even the first radix
    exceeds the live budget (prime task counts factor to ``[P]``), round 0's
    single k-way group *is* a global rank-order fold over its owned run, and
    the scheduler streams it with the same running-partial bag fold as
    direct-send before slicing the partial into the per-digit pieces.  Later
    rounds always run over retired pieces.
    """
    if size < 1:
        raise ValueError("streaming composite requires at least one rank")
    num_pixels = width * height
    with_depth = _with_depth(mode)
    if radices is None:
        radices = factor_radices(size)
    radices = validate_radices(size, radices)
    rounds = len(radices)
    total_rounds = rounds + 2  # trailing empty round + assembly
    assembly_round = rounds + 1
    comm.ensure_rounds(total_rounds)
    digits = {rank: _mixed_radix_digits(rank, radices) for rank in range(size)}

    ledger = _LiveLedger()
    merges = 0
    total_active = 0
    cohorts = 0
    pieces: dict[int, RunImage] = {}
    owned: dict[int, tuple[int, int]] = {}

    prefix_rounds = 0
    prefix = 1
    while prefix_rounds < rounds and prefix * radices[prefix_rounds] <= int(max_live_ranks):
        prefix *= radices[prefix_rounds]
        prefix_rounds += 1

    if prefix_rounds == 0:
        # Round 0's radix alone exceeds the live budget: stream each group's
        # k-way fold through a running partial, in chunks of max_live_ranks.
        radix = radices[0]
        partition = _pixel_partition(num_pixels, radix)
        edges = np.array([start for start, _ in partition] + [num_pixels], dtype=np.int64)
        sent_bytes = np.zeros(size)
        sent_msgs = np.zeros(size, dtype=np.int64)
        recv_bytes = np.zeros(size)
        recv_msgs = np.zeros(size, dtype=np.int64)
        chunk = max(1, int(max_live_ranks))
        for group_start in range(0, size, radix):
            partial = None
            for chunk_start in range(group_start, group_start + radix, chunk):
                cohorts += 1
                ranks = range(chunk_start, min(chunk_start + chunk, group_start + radix))
                images = []
                for rank in ranks:
                    image = _materialize(factory, rank, width, height, ledger)
                    total_active += image.active_pixels
                    nbytes = image.piece_wire_table(edges, with_depth)
                    my_digit = rank - group_start
                    mask = np.ones(radix, dtype=bool)
                    mask[my_digit] = False
                    sent_bytes[rank] += float(nbytes[mask].sum())
                    sent_msgs[rank] += radix - 1
                    np.add(
                        recv_bytes[group_start : group_start + radix],
                        np.where(mask, nbytes, 0.0),
                        out=recv_bytes[group_start : group_start + radix],
                    )
                    recv_msgs[group_start : group_start + radix] += mask
                    images.append(image)
                bag_pixels = np.concatenate([image.pixels for image in images])
                bag_rgba = np.concatenate([image.rgba for image in images])
                bag_depth = (
                    np.concatenate([image.depth for image in images]) if with_depth else None
                )
                bag_keys = (
                    np.repeat(
                        np.asarray(ranks, dtype=np.int64) - group_start,
                        np.array([image.active_pixels for image in images], dtype=np.int64),
                    )
                    if with_depth
                    else None
                )
                first_fold = partial is None
                partial, folded = fold_bag_into_partial(
                    partial, bag_pixels, bag_rgba, bag_depth, bag_keys, mode
                )
                merges += folded
                if first_fold:
                    ledger.acquire()
                images = None
                ledger.release(len(ranks))
            pixels, rgba, depth, _ = partial
            bounds = np.searchsorted(pixels, edges)
            for digit in range(radix):
                lo, hi = int(bounds[digit]), int(bounds[digit + 1])
                rank = group_start + digit
                pieces[rank] = RunImage.from_arrays(
                    pixels[lo:hi].copy(),
                    rgba[lo:hi].copy(),
                    depth[lo:hi].copy() if with_depth else np.zeros(hi - lo),
                    width,
                    height,
                    key=rank,
                )
                owned[rank] = partition[digit]
            partial = None
            ledger.release()  # the group partial is sliced into pieces and dropped
        comm.record_link_totals(0, sent_bytes, sent_msgs, recv_bytes, recv_msgs)
    else:
        for block_start in range(0, size, prefix):
            cohorts += 1
            members = range(block_start, block_start + prefix)
            store: dict[int, RunImage] = {}
            for rank in members:
                store[rank] = _materialize(factory, rank, width, height, ledger)
                total_active += store[rank].active_pixels
            block_owned = {rank: (0, num_pixels) for rank in members}
            stride = 1
            for local_round in range(prefix_rounds):
                merges += _radix_round(
                    store,
                    block_owned,
                    digits,
                    members,
                    local_round,
                    radices[local_round],
                    stride,
                    comm,
                    mode,
                    num_pixels,
                    local_round,
                )
                stride *= radices[local_round]
            for rank in members:
                start, stop = block_owned[rank]
                pieces[rank] = _retire_piece(store[rank], start, stop, width, height)
                owned[rank] = (start, stop)
                ledger.release()
            store = None

    stride = int(np.prod(radices[:max(prefix_rounds, 1)]))
    for round_index in range(max(prefix_rounds, 1), rounds):
        merges += _radix_round(
            pieces,
            owned,
            digits,
            range(size),
            round_index,
            radices[round_index],
            stride,
            comm,
            mode,
            num_pixels,
            round_index,
        )
        stride *= radices[round_index]

    final = _assemble_pieces(owned, pieces, comm, mode, assembly_round, width, height)
    stats = StreamStats(int(max_live_ranks), ledger.peak, cohorts, total_active)
    return final, merges, stats
