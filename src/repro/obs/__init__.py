"""Observability: metrics registry, span tracing, exporters, bottleneck
attribution (the profiling substrate of the reproduction).

The paper's argument rests on attribution — Table 3's per-function RX
cycle breakdown, Figure 5/6's per-technique savings, Section 6.3's "the
bottleneck lies in I/O".  This subpackage gives the reproduction the
same measurement machinery, permanently resident:

* :mod:`repro.obs.registry` — counters, gauges, and fixed-bucket
  histograms, cheap enough to stay enabled in the tier-1 suite;
* :mod:`repro.obs.trace` — span-based tracing of the chunk lifecycle
  (rx -> pre_shade -> gather -> gpu -> scatter -> post_shade -> tx)
  with per-stage modelled cycle and simulated-ns attribution; its
  ``Tracer.measure`` is the one instrumentation point that feeds both
  clocks (the modelled span and the ``prof.stage_wall_ns`` wall-time
  histogram), and the one sanctioned wall-clock reader below the CLI
  (reprolint RL007);
* :mod:`repro.obs.exporters` — JSON-lines event log, Prometheus text
  exposition, and the human-readable Table-3-style stage table;
* :mod:`repro.obs.analyzer` — the bottleneck analyzer: capacity-view
  (limiting pipeline stage, feeding ``ThroughputReport.bottleneck``)
  and cost-view (per-stage share breakdown);
* :mod:`repro.obs.log` — the single logging path, counted into the
  registry;
* :mod:`repro.obs.names` — the canonical metric-name catalog every
  registration resolves against (enforced by ``reprolint`` RL003);
* :mod:`repro.obs.flightrec` — the flight recorder: a fixed-size ring
  of compact structured events with post-mortem JSONL dumps;
* :mod:`repro.obs.shm` — shared-memory metric slabs: the per-writer-
  process registry backend plus the aggregator that merges slabs back
  into one registry snapshot (the sharded data plane's substrate);
* :mod:`repro.obs.multiproc` — worker-fleet lifecycle over the slabs
  (imported lazily by the CLI and tests, not from here);
* :mod:`repro.obs.top` — the live ``repro top`` dashboard, including
  the multi-worker panes (imported lazily by the CLI, not from here).

See ``docs/OBSERVABILITY.md`` for the API guide and conventions.
"""

from repro.obs import names
from repro.obs.analyzer import (
    BottleneckVerdict,
    StageAttribution,
    analyze,
    attribute,
    limiting_stage,
)
from repro.obs.exporters import export_jsonl, export_prometheus, stage_table
from repro.obs.flightrec import (
    Events,
    FlightEvent,
    FlightRecorder,
    get_flightrec,
    load_dump,
    merge_dumps,
    reset_flightrec,
    set_flightrec,
)
from repro.obs.log import enable_console, get_logger
from repro.obs.registry import (
    BATCH_SIZE_BUCKETS,
    LATENCY_NS_BUCKETS,
    WALL_NS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
    set_registry,
)
from repro.obs.shm import (
    MetricSlab,
    ShmMetricsRegistry,
    aggregate_slabs,
    merge_into,
    read_slab,
    slab_name,
)
from repro.obs.trace import (
    PIPELINE_ORDER,
    Span,
    StageCost,
    Stages,
    Tracer,
    get_tracer,
    reset_tracer,
    set_tracer,
)

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "BottleneckVerdict",
    "Counter",
    "Events",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LATENCY_NS_BUCKETS",
    "MetricSlab",
    "MetricsRegistry",
    "PIPELINE_ORDER",
    "ShmMetricsRegistry",
    "Span",
    "StageAttribution",
    "StageCost",
    "Stages",
    "Tracer",
    "WALL_NS_BUCKETS",
    "aggregate_slabs",
    "analyze",
    "attribute",
    "enable_console",
    "export_jsonl",
    "export_prometheus",
    "get_flightrec",
    "get_logger",
    "get_registry",
    "get_tracer",
    "limiting_stage",
    "load_dump",
    "merge_dumps",
    "merge_into",
    "names",
    "read_slab",
    "reset_flightrec",
    "reset_registry",
    "reset_tracer",
    "set_flightrec",
    "set_registry",
    "set_tracer",
    "slab_name",
    "stage_table",
]
