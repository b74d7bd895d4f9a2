"""RL003: every metric/trace name resolves against one canonical catalog.

The obs layer identifies time series by bare strings; a typo at one of
the ~40 registration sites forks a series that dashboards and the
conservation tests silently miss.  This rule checks, purely at the AST
level, that:

* every string passed to ``*.counter(...)``, ``*.gauge(...)``,
  ``*.histogram(...)`` — and to ``registry.value/total/get`` — is a
  value in the metric catalog (:mod:`repro.obs.names`, located inside
  the linted tree as ``names.py``);
* every ``names.X`` catalog reference at such a site names a constant
  the catalog actually defines;
* every string passed to a ``*.record(...)`` or ``*.measure(...)``
  trace call is a canonical stage name (class ``Stages`` in the linted
  tree);
* no catalog entry is orphaned — a name no call site registers or reads
  charts as permanently zero (severity: warning).

When the linted tree carries no catalog (no ``names.py``), the
name-validation checks stay silent rather than flagging everything.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Set, Tuple

from repro.analysis.astutil import call_args, dotted_name, string_value
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Rule, register

#: Registry methods whose first argument is a metric name.
_REGISTER_METHODS = frozenset({"counter", "gauge", "histogram"})
#: Registry read methods (receiver must look like a registry).
_READ_METHODS = frozenset({"value", "total", "get"})
#: Trace methods whose first argument is a stage name.
_TRACE_METHODS = frozenset({"record", "measure"})


def _looks_like_registry(func: ast.Attribute) -> bool:
    receiver = dotted_name(func.value)
    if receiver is not None and "registry" in receiver.lower():
        return True
    value = func.value
    return (
        isinstance(value, ast.Call)
        and dotted_name(value.func) in ("get_registry", "repro.obs.get_registry")
    )


@register
class MetricNamesRule(Rule):
    rule_id = "RL003"
    title = "metric/trace names resolve against the canonical catalogs"

    def check(self, project) -> Iterable[Finding]:
        catalog = project.module_string_constants("names.py")
        stages = project.class_string_constants("Stages")
        metric_values = {value for value, _, _ in catalog.values()}
        stage_values = {value for value, _, _ in stages.values()}
        catalog_module = None
        if catalog:
            catalog_module = next(iter(catalog.values()))[1]

        used_constants: Set[str] = set()
        used_strings: Set[str] = set()
        for module in project.modules:
            if module is catalog_module:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Attribute):
                    used_constants.add(node.attr)
                elif isinstance(node, ast.Name):
                    used_constants.add(node.id)
                else:
                    text = string_value(node)
                    if text is not None:
                        used_strings.add(text)
                if isinstance(node, ast.Call):
                    yield from self._check_call(
                        module, node, catalog, metric_values, stage_values
                    )

        # Orphaned registrations: catalog entries nothing references.
        for name, (value, module, lineno) in sorted(catalog.items()):
            if name in used_constants or value in used_strings:
                continue
            yield module.finding(
                self.rule_id, lineno,
                f"catalog metric '{value}' ({name}) has no call site",
                severity=Severity.WARNING,
                hint="delete the orphaned entry or wire up the missing "
                     "registration",
            )

    def _check_call(
        self,
        module,
        node: ast.Call,
        catalog: Dict[str, Tuple[str, object, int]],
        metric_values: Set[str],
        stage_values: Set[str],
    ) -> Iterable[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        arg = call_args(node, "name" if method in _REGISTER_METHODS else "stage")
        if arg is None:
            return

        if method in _REGISTER_METHODS or (
            method in _READ_METHODS and _looks_like_registry(func)
        ):
            if not metric_values:
                return
            text = string_value(arg)
            if text is not None and text not in metric_values:
                yield module.finding(
                    self.rule_id, node.lineno,
                    f"metric name '{text}' is not in the obs names catalog",
                    hint="fix the typo or add the name to repro/obs/names.py",
                )
                return
            if isinstance(arg, ast.Attribute):
                receiver = dotted_name(arg.value)
                if (
                    receiver is not None
                    and receiver.split(".")[-1] == "names"
                    and arg.attr not in catalog
                ):
                    yield module.finding(
                        self.rule_id, node.lineno,
                        f"catalog constant names.{arg.attr} is not defined "
                        "in repro/obs/names.py",
                        hint="fix the constant name or add it to the catalog",
                    )
        elif method in _TRACE_METHODS and stage_values:
            text = string_value(arg)
            if text is not None and text not in stage_values:
                yield module.finding(
                    self.rule_id, node.lineno,
                    f"trace stage '{text}' is not a canonical Stages member",
                    hint="use the repro.obs.trace.Stages constants so "
                         "exporters and the analyzer agree on identity",
                )
