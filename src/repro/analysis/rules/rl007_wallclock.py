"""RL007: hot-path wall-clock reads go through ``Tracer.measure``.

The tracer's two-clock instrumentation point (:meth:`repro.obs.trace.
Tracer.measure`) is the one sanctioned wall-clock reader below the CLI
layer: it routes real time into ``prof.stage_wall_ns`` histograms,
stamped with flight-recorder exemplars, without ever touching modelled
results.  A direct
``time.time()`` / ``perf_counter()`` in ``core/`` or ``io_engine/``
bypasses that contract twice over — the reading is invisible to the
observability stack, and host time is one assignment away from leaking
into simulated state (the RL001 determinism guarantee).

RL001 already flags the literal dotted forms (``time.perf_counter()``)
on modelled paths.  RL007 complements it where RL001's literal match
cannot see: names imported bare (``from time import perf_counter``),
module aliases (``import time as t; t.monotonic()``), and the
``datetime`` constructors reached through either spelling.  Hot-path
code that genuinely needs wall time wraps the region in
``get_tracer().measure(stage)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Set

from repro.analysis.astutil import dotted_name
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register

#: Layers whose hot paths must route wall time through the tracer.
WALLCLOCK_SCOPED_PARTS = frozenset({"core", "io_engine"})

#: Clock-reading functions of the ``time`` module.
TIME_CLOCK_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})

#: Clock-reading constructors of ``datetime.datetime`` / ``datetime.date``.
DATETIME_CLOCK_FNS = frozenset({"now", "utcnow", "today"})

_HINT = (
    "wrap the region in get_tracer().measure(stage) — the tracer is the "
    "sanctioned wall-clock API (docs/OBSERVABILITY.md)"
)


class _ClockBindings:
    """Names a module has bound to clock sources, from its imports."""

    def __init__(self, tree: ast.AST) -> None:
        #: Local name -> clock function it aliases ("time.perf_counter").
        self.bare_fns: Dict[str, str] = {}
        #: Local names bound to the ``time`` module itself.
        self.time_modules: Set[str] = set()
        #: Local names bound to the ``datetime`` module.
        self.datetime_modules: Set[str] = set()
        #: Local names bound to the datetime/date classes.
        self.datetime_classes: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "time":
                        self.time_modules.add(local)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(local)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "time" and alias.name in TIME_CLOCK_FNS:
                        self.bare_fns[local] = f"time.{alias.name}"
                    elif node.module == "datetime" and alias.name in (
                        "datetime", "date"
                    ):
                        self.datetime_classes.add(local)

    def clock_source(self, name: str) -> str:
        """The clock a dotted call name reads, or '' when it is not one."""
        if name in self.bare_fns:
            return self.bare_fns[name]
        head, _, rest = name.partition(".")
        if not rest:
            return ""
        if head in self.time_modules and rest in TIME_CLOCK_FNS:
            return f"time.{rest}"
        if head in self.datetime_classes and rest in DATETIME_CLOCK_FNS:
            return f"datetime.{rest}"
        if head in self.datetime_modules:
            cls, _, method = rest.partition(".")
            if cls in ("datetime", "date") and method in DATETIME_CLOCK_FNS:
                return f"datetime.{cls}.{method}"
        return ""


@register
class WallclockRule(Rule):
    rule_id = "RL007"
    title = "hot-path wall-clock reads bypass the tracer's measure API"

    def check(self, project) -> Iterable[Finding]:
        for module in project.modules:
            if not any(
                part in WALLCLOCK_SCOPED_PARTS for part in module.parts
            ):
                continue
            bindings = _ClockBindings(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                source = bindings.clock_source(name)
                if source:
                    yield module.finding(
                        self.rule_id, node.lineno,
                        f"direct wall-clock read {name}() ({source}) on "
                        "the data-plane hot path",
                        hint=_HINT,
                    )
