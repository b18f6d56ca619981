"""In-memory span recording for the traced run, and the statistics over it.

A span records one public call made by the benchmark: its name, start and
end (``perf_counter_ns``), the span that was open when it started, and the
op it belongs to.  Spans stay in memory until the run ends.  A span's layer
is the first entry of :data:`LAYERS` its name starts with, so
``traces.emit_trace`` belongs to ``traces`` while the offline solve, G_T and
energy are kept apart inside ``metrics``.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Per-layer shares of the op group spans by these prefixes, longest first.
LAYERS = (
    "metrics.solve",
    "metrics.g_t",
    "metrics.energy",
    "config",
    "scenarios",
    "traces",
    "cli",
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Collects spans; nesting follows the ``with`` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, op))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end_ns = time.perf_counter_ns()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start_ns
        for c in sorted(children.get(i, ()), key=lambda c: c.start_ns):
            lo = max(c.start_ns, reach, s.start_ns)
            hi = min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration_ns - covered)
    return out


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return name.split(".", 1)[0]


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values, beyond: int = 10) -> tuple[float, float, int]:
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``.  With ``n`` sorted
    samples this is the ``(n - beyond)``-th smallest, the
    ``100 * (n - beyond) / n`` percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    k = n - beyond
    return float(ordered[k - 1]), 100.0 * k / n, n
