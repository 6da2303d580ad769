"""A small span recorder: a ``contextvars`` stack kept in memory.

Only traced runs record spans.  Each span has a name, a start and end on the
``perf_counter`` clock, and the id of the span that was open when it began,
so self time (a span's duration minus what its children cover) is exact and
the self times of every span add up to the root span's duration.  At exit the
recorder writes the spans as Chrome trace-event JSON, which any trace viewer
opens.

Spans come from the benchmark's own files: :func:`patched` swaps a public
function or method of the program for a wrapper that opens a span around the
call, and restores the original on exit.  The program itself is not changed.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    """One timed interval; ``parent`` is the id of the enclosing span or ``None``."""

    name: str
    id: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; the open-span stack is context-local."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._current.get()
        record = Span(name, next(self._ids), parent.id if parent else None, time.perf_counter())
        token = self._current.set(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(record)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over every span of that name."""
        return self_times(self.spans)

    def counts(self) -> dict[str, int]:
        """Number of spans per name."""
        counts: dict[str, int] = {}
        for record in self.spans:
            counts[record.name] = counts.get(record.name, 0) + 1
        return counts

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        origin = min((record.start for record in self.spans), default=0.0)
        events = [
            {
                "name": record.name,
                "ph": "X",
                "ts": (record.start - origin) * 1e6,
                "dur": record.duration * 1e6,
                "pid": os.getpid(),
                "tid": 1,
                "args": {"id": record.id, "parent": record.parent},
            }
            for record in sorted(self.spans, key=lambda record: (record.start, record.id))
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))
        return path


def untraced(name: str) -> contextlib.AbstractContextManager:
    """Stands in for :meth:`Recorder.span` where nothing is recorded."""
    return contextlib.nullcontext()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's durations."""
    covered: dict[int, float] = {}
    for record in spans:
        if record.parent is not None:
            covered[record.parent] = covered.get(record.parent, 0.0) + record.duration
    result: dict[str, float] = {}
    for record in spans:
        result[record.name] = result.get(record.name, 0.0) + record.duration - covered.get(record.id, 0.0)
    return result


def _wrapper(recorder: Recorder, original: Callable, name: str | Callable) -> Callable:
    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        with recorder.span(label):
            return original(*args, **kwargs)

    return wrapped


@contextlib.contextmanager
def patched(recorder: Recorder, targets: list[tuple[object, str, str | Callable]]) -> Iterator[None]:
    """Wrap ``owner.attribute`` in a span for each ``(owner, attribute, name)``.

    ``name`` is a span name or a function of the call's arguments returning
    one.  Owners are modules or classes; originals are restored on exit.
    """
    originals = []
    try:
        for owner, attribute, name in targets:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            if isinstance(original, classmethod):
                replacement = classmethod(_wrapper(recorder, original.__func__, name))
            else:
                replacement = _wrapper(recorder, original, name)
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
