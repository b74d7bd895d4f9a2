"""Span-based tracing of the packet/chunk lifecycle.

The paper's evaluation is built on *attribution*: Table 3 attributes RX
cycles to functional bins, Figures 5/6 attribute savings to individual
techniques, and Section 6.3 attributes the end-to-end ceiling to I/O.
This module provides the substrate: every chunk's passage through the
pipeline — rx, pre-shading, gather, GPU, scatter, post-shading, tx —
records a :class:`Span` carrying the *modelled* cost of that stage
(CPU cycles and/or simulated nanoseconds) plus the packet count, and the
tracer folds spans into per-stage totals as they arrive, so a summary is
O(stages) regardless of run length.

Span costs are modelled, not wall-clock, matching the repo's functional
+ temporal split: a span says "this pre-shading step costs 55
cycles/packet under the calibrated model", which is what the
Table-3-style breakdowns and the bottleneck analyzer consume.

The wall clock is the second axis, and it shares the instrumentation
point: :meth:`Tracer.measure` wraps one stage's work, observes the
elapsed ``perf_counter_ns`` in the ``prof.stage_wall_ns{stage=...}``
histogram (with the flight recorder's current seq as the exemplar, so a
slow bucket names the event that was in flight), and records the
stage's modelled span from the same call.  This module is the one
sanctioned wall-clock reader below the CLI layer (reprolint RL007);
wall time only ever lands in ``prof.*`` metrics, never in simulated
state, so RL001's determinism guarantee survives.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

from repro.obs import names
from repro.obs.flightrec import FlightRecorder, get_flightrec
from repro.obs.registry import WALL_NS_BUCKETS, Histogram, get_registry


class Stages:
    """Canonical stage names of the chunk lifecycle (Figure 9 order).

    The naming convention is a flat lowercase identifier per pipeline
    position; instrumented modules must use these constants so exporters
    and the bottleneck analyzer agree on identity.
    """

    RX = "rx"
    PRE_SHADE = "pre_shade"
    GATHER = "gather"
    GPU = "gpu"
    #: Shading work executed on the master's CPU because the GPU path
    #: failed (retries exhausted or circuit breaker open).
    GPU_FALLBACK = "gpu_fallback"
    SCATTER = "scatter"
    POST_SHADE = "post_shade"
    TX = "tx"
    #: CPU-only mode collapses pre/gpu/post into one worker stage.
    CPU_PROCESS = "cpu_process"
    #: Diversions to the modelled Linux stack (Section 6.2.1).
    SLOW_PATH = "slow_path"


#: Pipeline display/attribution order (stages absent from a run are
#: skipped; stages not listed here sort after, alphabetically).
PIPELINE_ORDER: List[str] = [
    Stages.RX,
    Stages.PRE_SHADE,
    Stages.GATHER,
    Stages.GPU,
    Stages.GPU_FALLBACK,
    Stages.SCATTER,
    Stages.POST_SHADE,
    Stages.CPU_PROCESS,
    Stages.SLOW_PATH,
    Stages.TX,
]


@dataclass
class Span:
    """One stage traversal by one chunk (or batch)."""

    stage: str
    packets: int = 0
    cycles: float = 0.0
    ns: float = 0.0
    seq: int = 0
    meta: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "type": "span",
            "seq": self.seq,
            "stage": self.stage,
            "packets": self.packets,
            "cycles": self.cycles,
            "ns": self.ns,
        }
        if self.meta:
            record["meta"] = self.meta
        return record


@dataclass
class StageCost:
    """Accumulated cost of one stage over a traced run."""

    stage: str
    spans: int = 0
    packets: int = 0
    cycles: float = 0.0
    ns: float = 0.0

    def add(self, packets: int, cycles: float, ns: float) -> None:
        self.spans += 1
        self.packets += packets
        self.cycles += cycles
        self.ns += ns

    def time_ns(self, clock_hz: float) -> float:
        """Total stage time with cycles converted at a CPU clock."""
        return self.ns + self.cycles / clock_hz * 1e9

    def cycles_per_packet(self) -> float:
        return self.cycles / self.packets if self.packets else 0.0

    def ns_per_packet(self) -> float:
        return self.ns / self.packets if self.packets else 0.0


class _Measure:
    """One measured stage region: both clocks, one ``with`` block.

    Enter reads the clock and hands out the span; exit observes the
    elapsed wall time, then folds the span into the modelled summary
    unless the block raised or the span stayed empty.
    """

    __slots__ = ("_tracer", "_histogram", "_span", "_start")

    def __init__(self, tracer: "Tracer", histogram: Histogram,
                 span: Span) -> None:
        self._tracer = tracer
        self._histogram = histogram
        self._span = span
        self._start = 0

    def __enter__(self) -> Span:
        self._start = time.perf_counter_ns()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter_ns() - self._start
        tracer = self._tracer
        self._histogram.observe(elapsed, exemplar=tracer._recorder.seq)
        span = self._span
        if exc_type is None and (span.packets or span.cycles or span.ns):
            tracer._fold(span)


class _NullMeasure:
    """The shared do-nothing region a disabled tracer hands out."""

    __slots__ = ()

    #: Scratch span for sites that set fields inside the block.
    span = Span("")

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> None:
        return None


_NULL_MEASURE = _NullMeasure()


class Tracer:
    """Collects spans and folds them into per-stage summaries.

    ``record`` is the hot path for modelled-only spans: one dict lookup
    plus three adds (events go to a bounded deque, so a long run cannot
    grow memory without bound).  ``measure`` is the instrumentation
    point for stages that also do real work worth wall-timing.  Disable
    a tracer entirely with ``enabled = False``; neither clock then sees
    anything.

    The tracer binds the current registry and flight recorder at
    construction, so :func:`reset_tracer` goes after ``set_registry`` /
    ``set_flightrec`` when a process installs a fresh observability
    stack.
    """

    def __init__(self, enabled: bool = True, max_events: int = 4096) -> None:
        self.enabled = enabled
        self.max_events = max_events
        self._events: Deque[Span] = deque(maxlen=max_events)
        self._summary: Dict[str, StageCost] = {}
        self._seq = 0
        self._registry = get_registry()
        self._recorder: FlightRecorder = get_flightrec()
        self._histograms: Dict[str, Histogram] = {}

    # -- recording ------------------------------------------------------

    def _fold(self, span: Span) -> None:
        cost = self._summary.get(span.stage)
        if cost is None:
            cost = self._summary[span.stage] = StageCost(span.stage)
        cost.add(span.packets, span.cycles, span.ns)
        self._seq += 1
        span.seq = self._seq
        self._events.append(span)

    def record(
        self,
        stage: str,
        packets: int = 0,
        cycles: float = 0.0,
        ns: float = 0.0,
        **meta: object,
    ) -> None:
        """Record one span with modelled costs (no wall-clock sample)."""
        if not self.enabled:
            return
        self._fold(Span(stage, packets, cycles, ns, meta=meta))

    def measure(
        self,
        stage: str,
        packets: int = 0,
        cycles: float = 0.0,
        ns: float = 0.0,
        **meta: object,
    ):
        """Time one stage region on both clocks; yields its :class:`Span`.

        ``with tracer.measure(Stages.PRE_SHADE, packets=n) as span: ...``
        always observes the region's wall time under ``stage``.  The
        span is then recorded exactly as :meth:`record` would, except
        that nothing is recorded if the block raised or if the span is
        empty (packets, cycles and ns all zero).  Costs known only
        inside the block are set on the yielded span before it ends.
        """
        if not self.enabled:
            return _NULL_MEASURE
        histogram = self._histograms.get(stage)
        if histogram is None:
            histogram = self._histograms[stage] = self._registry.histogram(
                names.PROF_STAGE_WALL_NS,
                buckets=WALL_NS_BUCKETS,
                help="wall-clock time per pipeline stage",
                stage=stage,
            )
        return _Measure(
            self, histogram, Span(stage, packets, cycles, ns, meta=meta)
        )

    # -- reading --------------------------------------------------------

    def summary(self) -> Dict[str, StageCost]:
        """Per-stage accumulated costs, keyed by stage name."""
        return dict(self._summary)

    def stage(self, name: str) -> Optional[StageCost]:
        return self._summary.get(name)

    def events(self) -> List[Span]:
        """The retained span events (oldest first, bounded)."""
        return list(self._events)

    def ordered_stages(self) -> Iterator[StageCost]:
        """Stage costs in pipeline order, then extras alphabetically."""
        seen = set()
        for name in PIPELINE_ORDER:
            cost = self._summary.get(name)
            if cost is not None:
                seen.add(name)
                yield cost
        for name in sorted(self._summary):
            if name not in seen:
                yield self._summary[name]

    def total_packets(self) -> int:
        """Largest per-stage packet count — the run's end-to-end volume
        (stages see the same packets, so max, not sum)."""
        return max(
            (c.packets for c in self._summary.values()), default=0
        )

    def reset(self) -> None:
        self._events.clear()
        self._summary.clear()
        self._seq = 0


#: The process-wide default tracer.
_default_tracer = Tracer()


def get_tracer() -> Tracer:
    """The current default tracer (what instrumented code records to)."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install a tracer as the default; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


def reset_tracer() -> Tracer:
    """Replace the default tracer with a fresh enabled one (returned).

    Call after ``reset_registry``/``reset_flightrec`` (or their ``set_``
    forms) so the new tracer binds to the new registry and recorder.
    """
    tracer = Tracer()
    set_tracer(tracer)
    return tracer
