"""What one workload run returns to the runner."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field


def peak_rss_mb() -> float:
    """Peak resident set so far of this process or any waited-for child, in MiB.

    Workloads read it when their timed work ends, before the output checks,
    whose oracles would otherwise set the peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Outcome:
    """Metric values by name plus the operations attempted and failed.

    ``samples`` is the number of timed units behind the medians.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    samples: int = 0


def layer_metrics(recorder, untraced_wall: float) -> dict[str, float]:
    """The metrics every traced run reports about the trace itself.

    ``trace.unattributed_s`` is the root span's self time, so it and the
    self times of every other span add up to ``trace.wall_s``.
    """
    root = next(span for span in recorder.spans if span.parent is None and span.name == "trace.root")
    wall = root.duration
    covered = sum(recorder.self_times().values())
    if abs(covered - wall) > 1e-6 * max(wall, 1e-9):
        raise RuntimeError(f"span self times sum to {covered!r}, not the traced wall {wall!r}")
    return {
        "trace.wall_s": wall,
        "trace.unattributed_s": recorder.self_times()["trace.root"],
        "trace.overhead_frac": (wall - untraced_wall) / untraced_wall,
        "trace.spans": float(len(recorder.spans)),
    }
