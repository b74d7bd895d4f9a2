"""Entry point: ``python -m repro [trace|metrics|chaos|lint|bench|flightrec|top|run]``.

With no subcommand, prints the headline report; ``trace`` prints a
per-stage cost breakdown of a traced forwarding burst; ``metrics``
dumps the metrics registry (Prometheus text, JSON lines, or a table);
``chaos`` runs fault-injection scenarios and checks the conservation
and degradation invariants; ``lint`` runs reprolint, the AST-based
invariant linter (docs/STATIC_ANALYSIS.md); ``bench`` runs the perf
scorecard — every figure/table reproduction through the schema'd
pipeline, scored against the paper (docs/PERF.md); ``flightrec``
dumps or replays the flight recorder's event ring; ``top`` is the live
dashboard over the metrics registry, tracer, and flight recorder
(docs/OBSERVABILITY.md); ``run`` drives the sharded multi-process data
plane (docs/SHARDING.md).
"""

import sys

from repro.analysis.cli import lint_main
from repro.obs.flightrec import flightrec_main
from repro.obs.top import top_main
from repro.perf.cli import bench_main
from repro.report import chaos_main, main, metrics_main, trace_main
from repro.shard.cli import run_main

_COMMANDS = {
    "trace": trace_main,
    "metrics": metrics_main,
    "chaos": chaos_main,
    "lint": lint_main,
    "bench": bench_main,
    "flightrec": flightrec_main,
    "top": top_main,
    "run": run_main,
}

argv = sys.argv[1:]
if argv and argv[0] in _COMMANDS:
    sys.exit(_COMMANDS[argv[0]](argv[1:]))
if argv and not argv[0].startswith("-"):
    print(
        f"python -m repro: unknown command {argv[0]!r} "
        f"(choose from {', '.join(sorted(_COMMANDS))})",
        file=sys.stderr,
    )
    sys.exit(2)
sys.exit(main())
