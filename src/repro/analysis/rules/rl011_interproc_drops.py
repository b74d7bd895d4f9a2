"""RL011: every discarded packet is counted, at most one call away.

The chaos suite asserts conservation (``received == forwarded + dropped
+ slow_path``) dynamically; this rule catches the static shape of the
bugs that break it — a code path that throws packets away without a
drop-counter increment:

* an ``if`` guard that sheds load (its condition consults
  ``should_fire(...)`` or an overflow/full-ring predicate) and bails
  with ``return False`` / ``continue`` / ``break`` must increment an
  accounting counter (``*drop*``, ``*shed*``, ``*reject*``,
  ``*discard*``) inside that same block;
* a bare ``<verdict>.drop()`` statement in the infrastructure layers
  (core / io_engine / hw) must sit in a function that also updates such
  a counter.  Application shaders (``apps/``) are exempt: their verdict
  dispositions are conserved centrally by ``_finish_chunk``'s
  per-disposition accounting.

Without a call graph "the helper does the counting" is
indistinguishable from "nobody does the counting", so the accounting
would have to sit in the same block or function as the discard, and
factoring ``self._account_drop()`` out of a shedding guard would be a
false positive.  The semantic engine resolves call edges
(:class:`repro.analysis.semantics.graph.CallGraph`), so before
reporting, this rule follows each resolved call one level into its body
and accepts accounting found there.  One level is the RacerD trade: it
legitimizes the common "extract the bookkeeping into a helper" refactor
without chasing arbitrarily deep chains whose relevance the analysis
could not defend.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional

from repro.analysis.astutil import chain_text, function_body_walk
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register

#: Identifier tokens that count as drop accounting.
ACCOUNT_RE = re.compile(r"drop|shed|reject|discard", re.IGNORECASE)
#: Condition tokens that mark a load-shedding guard.
GUARD_RE = re.compile(r"should_fire|overflow", re.IGNORECASE)

#: Layers where a bare ``.drop()`` must be accounted.
INFRA_PARTS = frozenset({"core", "io_engine", "hw"})


def _is_discard_terminator(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Continue, ast.Break)):
        return True
    if isinstance(stmt, ast.Return):
        value = stmt.value
        if value is None:
            return True
        if isinstance(value, ast.Constant) and value.value in (False, None):
            return True
        if isinstance(value, (ast.List, ast.Tuple)) and not value.elts:
            return True
    return False


def _has_accounting(nodes: Iterable[ast.AST]) -> bool:
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.AugAssign) and isinstance(sub.op, ast.Add):
                if ACCOUNT_RE.search(chain_text(sub.target)):
                    return True
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("inc", "observe", "add")
                and ACCOUNT_RE.search(chain_text(sub.func.value))
            ):
                return True
    return False


def _calls_in(nodes: Iterable[ast.AST]) -> List[ast.Call]:
    calls: List[ast.Call] = []
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                calls.append(sub)
    return calls


@register
class InterprocDropConservationRule(Rule):
    rule_id = "RL011"
    title = "drop accounting may live one resolved call away from the discard"

    def check(self, project) -> Iterable[Finding]:
        sem = project.semantics
        for module in project.modules:
            symbols = sem.module(module)
            infra = any(part in INFRA_PARTS for part in module.parts)
            for qualified, info, fn in self._functions_of(sem, symbols):
                for node in ast.walk(fn):
                    if isinstance(node, ast.If):
                        finding = self._check_guard(
                            sem, module, symbols, info, node
                        )
                        if finding is not None:
                            yield finding
                if infra:
                    yield from self._check_verdict_drops(
                        sem, module, symbols, info, qualified, fn
                    )

    @staticmethod
    def _functions_of(sem, symbols):
        if symbols is None:
            return
        from repro.analysis.semantics.graph import iter_functions
        yield from iter_functions(symbols)

    # -- interprocedural accounting --------------------------------------

    def _accounted(
        self, sem, symbols, info, nodes: Iterable[ast.AST]
    ) -> bool:
        """The in-place check, then one resolved call level down."""
        nodes = list(nodes)
        if _has_accounting(nodes):
            return True
        if symbols is None:
            return False
        for call in _calls_in(nodes):
            callee = sem.calls.resolve_call(symbols, info, call.func)
            body = sem.calls.function(callee)
            if body is not None and _has_accounting(body.body):
                return True
        return False

    # -- the two discard shapes ------------------------------------------

    def _check_guard(
        self, sem, module, symbols, info, node: ast.If
    ) -> Optional[Finding]:
        if not GUARD_RE.search(chain_text(node.test)):
            return None
        terminator = next(
            (stmt for stmt in node.body if _is_discard_terminator(stmt)), None
        )
        if terminator is None:
            return None
        if self._accounted(sem, symbols, info, node.body):
            return None
        return module.finding(
            self.rule_id, terminator.lineno,
            "load-shedding guard discards packets without a drop-counter "
            "increment in the guard or any function it calls",
            hint="increment a *drop*/*reject* counter inside the guard (or "
                 "in a helper the guard calls) before bailing out",
        )

    def _check_verdict_drops(
        self, sem, module, symbols, info, qualified: str, fn
    ) -> Iterable[Finding]:
        if fn.name == "drop":
            return  # the verdict primitive itself
        drop_calls = [
            node
            for node in function_body_walk(fn)
            if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "drop"
            and not node.value.args
        ]
        if not drop_calls:
            return
        if self._accounted(sem, symbols, info, fn.body):
            return
        # A drop-only helper is fine when every caller accounts for it.
        callers = sem.calls.callers_of(qualified)
        if callers and all(
            _has_accounting(body.body)
            for body in (sem.calls.function(c) for c in callers)
            if body is not None
        ):
            return
        for call in drop_calls:
            yield module.finding(
                self.rule_id, call.lineno,
                f"verdict .drop() in infrastructure function '{fn.name}' "
                "without drop accounting in the function, its callees, or "
                "its callers",
                hint="mirror the drop into a counter (stats and registry) "
                     "next to the verdict, as _shed_chunk does",
            )
