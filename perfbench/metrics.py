"""Pure arithmetic of the benchmark: percentiles, geometric means,
host-speed normalization, spans and their self-time accounting.

Nothing here imports the program under test, so the unit tests in
``perfbench/tests`` exercise it without a compiler or a simulator.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer and the value is one or two unlucky samples.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0 <= p <= 100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the
    interpolation point of the ``p``-th percentile."""
    if n <= 0:
        return 0
    return n - math.floor((n - 1) * p / 100.0) - 1


def tail_meets_rule(n: int, p: float) -> bool:
    """True when the ``p``-th percentile of ``n`` samples has at least
    :data:`MIN_BEYOND` samples beyond it."""
    return samples_beyond(n, p) >= MIN_BEYOND


def timing_summary(samples_s: Sequence[float]) -> Dict[str, object]:
    """Median and 95th percentile in milliseconds, with the sample
    count and whether the 95th percentile satisfies the ten-sample
    rule."""
    n = len(samples_s)
    return {
        "n": n,
        "p50_ms": percentile(samples_s, 50) * 1e3,
        "p95_ms": percentile(samples_s, 95) * 1e3,
        "p95_beyond": samples_beyond(n, 95),
        "p95_meets_rule": tail_meets_rule(n, 95),
    }


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(value <= 0 for value in values):
        raise ValueError(f"geometric mean needs positive values: {values}")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def remote_ops(stats: Dict[str, int]) -> int:
    """Dynamic remote operations of one run (Figure 10's bars)."""
    return (stats["remote_reads"] + stats["remote_writes"]
            + stats["remote_blkmovs"] + stats["remote_calls"])


def table3_figures(four_way_payloads: Sequence[Dict[str, object]]
                   ) -> Dict[str, float]:
    """Simulated figures of a set of ``four-way`` payloads: Table III's
    simple/optimized speedup, the remote-cache speedup over optimized,
    and the optimized leg's remote operations."""
    return {
        "sim_speedup_geomean": geomean(
            p["simple"]["time_ns"] / p["optimized"]["time_ns"]
            for p in four_way_payloads),
        "rcache_speedup_geomean": geomean(
            p["optimized"]["time_ns"] / p["rcached"]["time_ns"]
            for p in four_way_payloads),
        "remote_ops": sum(remote_ops(p["optimized"]["stats"])
                          for p in four_way_payloads),
    }


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: Timings are reported in the time they would take on a host where one
#: :func:`calibration_loop` takes this long.
REFERENCE_LOOP_S = 0.001


def calibration_loop() -> float:
    """Wall time of one fixed pure-Python loop of dictionary and integer
    work, the kind of work the compiler and simulator do."""
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(8000):
        key = i & 255
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host ran during a run, sampled between jobs.

    Other tenants of a shared machine slow every process on it by tens
    of percent for seconds at a time.  Timings multiplied by
    :meth:`factor` -- the reference loop time over the mean calibration
    loop time of the run -- keep the program's own speed and lose most
    of that drift.  A mean over the whole run tracks the host better
    than a sample next to each job: one sample is itself noisy.  The
    raw timings stay in the report.
    """

    def __init__(self, loops: int = 5, loop=calibration_loop):
        self.loops = loops
        self.loop = loop
        self.samples: List[float] = []

    def sample(self) -> float:
        """Record the median of ``loops`` calibration loops."""
        loop_s = statistics.median(self.loop() for _ in range(self.loops))
        self.samples.append(loop_s)
        return loop_s

    def factor(self) -> float:
        if not self.samples:
            raise ValueError("no host speed samples")
        return REFERENCE_LOOP_S / statistics.fmean(self.samples)

    def normalize(self, seconds: float) -> float:
        """``seconds`` of this run, at reference host speed."""
        return seconds * self.factor()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

#: Name of the span that covers one whole job; its self time is time
#: no layer span covers.
ROOT = "job"

#: Spans that group layers without being a layer themselves (one
#: Table III configuration: compile plus execute).  Their self time is
#: glue, so it counts as unattributed.
GLUE_PREFIXES = ("leg.",)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job")

    def __init__(self, span_id: int, name: str, start: float, end: float,
                 parent: Optional[int], job: str):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "job": self.job}


class SpanRecorder:
    """Keeps spans in memory; :meth:`to_json` writes them out at the
    end.  A span without a parent that is not a ``job`` span is a
    *probe*: a measurement taken outside the job (a separate
    ``tokenize`` call, a throwaway engine build) that the layer sum
    leaves out."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []

    def add(self, name: str, start: float, end: float, job: str,
            parent: Optional[Span] = None) -> Span:
        span = Span(len(self.spans), name, start, end,
                    None if parent is None else parent.id, job)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, job: str, parent: Optional[Span] = None):
        span = self.add(name, self.clock(), 0.0, job, parent)
        try:
            yield span
        finally:
            span.end = self.clock()

    def to_json(self) -> List[Dict[str, object]]:
        return [span.to_dict() for span in self.spans]


def _covered(parent: Span, children: Sequence[Span]) -> float:
    """Length of the part of ``parent``'s interval its children cover
    (overlapping children are counted once)."""
    intervals = sorted((max(child.start, parent.start),
                        min(child.end, parent.end)) for child in children)
    covered = 0.0
    current_start, current_end = None, None
    for start, end in intervals:
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of that
    interval its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {span.id: span.duration - _covered(span,
                                              children.get(span.id, ()))
            for span in spans}


def account(spans: Sequence[Span]) -> Tuple[Dict[str, float], float,
                                            float, Dict[str, float]]:
    """Split traced time into layers.

    Returns ``(layer_self, unattributed, total, probes)``:

    * ``layer_self`` -- summed self time per layer span name;
    * ``unattributed`` -- self time of ``job`` roots and glue spans;
    * ``total`` -- summed duration of the ``job`` roots, which equals
      ``sum(layer_self.values()) + unattributed`` whenever every
      non-probe span descends from a root and lies inside its parent;
    * ``probes`` -- summed duration per probe span name.
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    layer_self: Dict[str, float] = {}
    probes: Dict[str, float] = {}
    unattributed = 0.0
    total = 0.0
    for span in spans:
        if span.parent is None:
            if span.name == ROOT:
                total += span.duration
                unattributed += own[span.id]
            else:
                probes[span.name] = probes.get(span.name, 0.0) \
                    + span.duration
            continue
        root = span
        while root.parent is not None:
            root = by_id[root.parent]
        if root.name != ROOT:
            continue  # a child of a probe is part of the probe
        if span.name.startswith(GLUE_PREFIXES):
            unattributed += own[span.id]
        else:
            layer_self[span.name] = layer_self.get(span.name, 0.0) \
                + own[span.id]
    return layer_self, unattributed, total, probes


def durations_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed inclusive duration per span name."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals
