"""Open-loop HTTP load: a seeded arrival schedule sent on time over pipelined connections.

Requests are sent when they are due, whether or not earlier ones have been
answered, so a stalled server builds a queue instead of slowing the load.
Each request's latency runs from its due time to the end of its response,
which charges a stall to every request that waited behind it.  The generator
also records how late the generator itself sent each request and the
largest number of requests outstanding at once.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import gc
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serving.client import read_response


def poisson_offsets(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets in seconds of a Poisson process at ``rate`` per second over ``duration``."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    expected = int(rate * duration * 1.2) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    while offsets[-1] < duration:
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, size=expected))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


def zipf_indices(count: int, population: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws from ``range(population)`` with rank-``k`` weight ``1 / k**exponent``."""
    weights = 1.0 / np.arange(1, population + 1, dtype=np.float64) ** exponent
    return rng.choice(population, size=count, p=weights / weights.sum())


@dataclass
class PhaseResult:
    """What one open-loop phase observed, request by request."""

    latencies: list[float] = field(default_factory=list)
    statuses: list[int] = field(default_factory=list)
    bodies: list[bytes] = field(default_factory=list)
    late_max: float = 0.0
    backlog_max: int = 0
    unanswered: int = 0


async def _drive(host: str, port: int, offsets, payloads: list[bytes], connections: int,
                 drain_timeout: float) -> PhaseResult:
    # A request never answered keeps an infinite latency: it misses every limit.
    result = PhaseResult(
        latencies=[math.inf] * len(payloads), statuses=[0] * len(payloads), bodies=[b""] * len(payloads)
    )
    streams = [await asyncio.open_connection(host, port) for _ in range(connections)]
    waiting = [collections.deque() for _ in streams]
    outstanding = 0
    done = asyncio.Event()
    answered = 0

    async def receive(slot: int) -> None:
        nonlocal outstanding, answered
        reader = streams[slot][0]
        while True:
            status, body = await read_response(reader)
            now = time.perf_counter()
            index, due = waiting[slot].popleft()
            result.latencies[index] = now - due
            result.statuses[index] = status
            result.bodies[index] = body
            outstanding -= 1
            answered += 1
            if answered == len(payloads):
                done.set()

    readers = [asyncio.create_task(receive(slot)) for slot in range(len(streams))]
    try:
        start = time.perf_counter() + 0.01
        for index, (offset, payload) in enumerate(zip(offsets, payloads)):
            due = start + float(offset)
            # Spin rather than sleep: a generator that idles its CPU between sends
            # also wakes late for responses, by however long the host takes.
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            result.late_max = max(result.late_max, time.perf_counter() - due)
            slot = index % len(streams)
            waiting[slot].append((index, due))
            streams[slot][1].write(payload)
            outstanding += 1
            result.backlog_max = max(result.backlog_max, outstanding)
            await streams[slot][1].drain()
        if payloads:
            try:
                await asyncio.wait_for(done.wait(), drain_timeout)
            except asyncio.TimeoutError:
                pass
        result.unanswered = len(payloads) - answered
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in streams:
            writer.close()
            await writer.wait_closed()
    return result


def run_phase(host: str, port: int, offsets, payloads: list[bytes], connections: int = 2,
              drain_timeout: float = 10.0) -> PhaseResult:
    """Send ``payloads[i]`` at ``offsets[i]`` seconds from now; wait for every response."""
    if len(offsets) != len(payloads):
        raise ValueError("one offset per payload")
    with _collector_paused():
        return asyncio.run(_drive(host, port, offsets, payloads, connections, drain_timeout))


@contextlib.contextmanager
def _collector_paused():
    """The generator's own garbage collections would delay sends and stamp late arrivals."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
