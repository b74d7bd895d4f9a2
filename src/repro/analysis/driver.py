"""The reprolint driver: file discovery, parsing, rule execution.

The driver walks the requested paths, parses every ``*.py`` once into a
:class:`SourceModule` (AST + source lines + inline suppressions), wraps
the set in a :class:`Project` (the cross-file context rules like RL003
and RL005 need), builds the shared semantic phase lazily
(``project.semantics``: symbol table, import/call graph, dataflow —
:mod:`repro.analysis.semantics`), runs each rule, then applies
suppressions and the baseline.  Rules never re-read files and never
import the code under analysis — everything is AST-level, so the linter
can check broken or import-cycle-ridden trees.  (The linter *does*
import :mod:`repro.obs` at runtime for its own ``lint.*`` self-metrics;
that is a dependency of the tool, not of the tree being linted.)
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.rules import Rule, all_rules

#: ``# reprolint: ignore`` (all rules) or ``# reprolint: ignore[RL001,RL003]``.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?"
)
#: ``# reprolint: skip-file`` within the first few lines skips the module.
_SKIP_FILE_RE = re.compile(r"#\s*reprolint:\s*skip-file")
_SKIP_FILE_SCAN_LINES = 5

#: Rule id for files the parser rejects (not a registered rule: nothing
#: can suppress a file that cannot be parsed).
PARSE_ERROR_RULE = "RL000"


@dataclass
class SourceModule:
    """One parsed source file plus its lint-relevant metadata."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: line -> suppressed rule ids; ``None`` means "all rules".
    suppressions: Dict[int, Optional[frozenset]] = field(default_factory=dict)

    @property
    def parts(self) -> Tuple[str, ...]:
        """Path components (used for layer scoping, e.g. RL001 clocks)."""
        parts = self.relpath.split("/")
        return tuple(parts[:-1] + [parts[-1][:-3] if parts[-1].endswith(".py")
                                   else parts[-1]])

    def finding(
        self,
        rule: str,
        line: int,
        message: str,
        severity: str = Severity.ERROR,
        hint: str = "",
    ) -> Finding:
        return Finding(
            rule=rule, path=self.relpath, line=line, message=message,
            severity=severity, hint=hint,
        )

    def is_suppressed(self, line: int, rule: str) -> bool:
        rules = self.suppressions.get(line, frozenset())
        return rules is None or rule in rules


class Project:
    """The linted file set plus cross-file lookup helpers."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules: List[SourceModule] = list(modules)
        self._semantics = None

    @property
    def semantics(self):
        """The shared semantic phase (symbols, graphs, dataflow cache).

        Built on first access and reused by every rule in the run, so
        the cross-file work is paid once however many rules query it.
        """
        if self._semantics is None:
            from repro.analysis.semantics import ProjectSemantics

            self._semantics = ProjectSemantics(self)
        return self._semantics

    def find_module(self, relpath_suffix: str) -> Optional[SourceModule]:
        for module in self.modules:
            if module.relpath.endswith(relpath_suffix):
                return module
        return None

    def class_string_constants(
        self, class_name: str
    ) -> Dict[str, Tuple[str, SourceModule, int]]:
        """``NAME -> (value, module, line)`` for ``NAME = "str"`` members
        of the first class named ``class_name`` found in the project."""
        for module in self.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == class_name:
                    return _string_assignments(node.body, module)
        return {}

    def module_string_constants(
        self, filename: str
    ) -> Dict[str, Tuple[str, SourceModule, int]]:
        """Top-level uppercase ``NAME = "str"`` assignments of the first
        module whose file name is ``filename``."""
        for module in self.modules:
            if module.path.name == filename:
                constants = _string_assignments(module.tree.body, module)
                return {
                    name: entry
                    for name, entry in constants.items()
                    if name.isupper()
                }
        return {}


def _string_assignments(
    body: Iterable[ast.stmt], module: SourceModule
) -> Dict[str, Tuple[str, SourceModule, int]]:
    out: Dict[str, Tuple[str, SourceModule, int]] = {}
    for stmt in body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = (value.value, module, stmt.lineno)
    return out


# ----------------------------------------------------------------------
# Discovery and parsing.
# ----------------------------------------------------------------------


def _iter_py_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
                and not any(part.startswith(".") for part in p.parts)
            )
    seen = set()
    unique = []
    for path in files:
        key = path.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def _relpath(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _scan_suppressions(lines: List[str]) -> Dict[int, Optional[frozenset]]:
    suppressions: Dict[int, Optional[frozenset]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        if match.group(1) is None:
            suppressions[lineno] = None
        else:
            rules = frozenset(
                token.strip().upper()
                for token in match.group(1).split(",")
                if token.strip()
            )
            previous = suppressions.get(lineno, frozenset())
            if previous is None:
                continue
            suppressions[lineno] = rules | previous
    return suppressions


def parse_module(
    path: Path, source: Optional[str] = None
) -> Tuple[Optional[SourceModule], Optional[Finding]]:
    """Parse one file; returns (module, None) or (None, parse finding)."""
    relpath = _relpath(path)
    if source is None:
        source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for line in lines[:_SKIP_FILE_SCAN_LINES]:
        if _SKIP_FILE_RE.search(line):
            return None, None
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            rule=PARSE_ERROR_RULE,
            path=relpath,
            line=exc.lineno or 1,
            message=f"file does not parse: {exc.msg}",
            severity=Severity.ERROR,
            hint="reprolint needs valid syntax; fix the parse error first",
        )
    return SourceModule(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        lines=lines,
        suppressions=_scan_suppressions(lines),
    ), None


# ----------------------------------------------------------------------
# Running the rules.
# ----------------------------------------------------------------------


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding]
    files_checked: int
    suppressed: int = 0
    #: Wall time of the run (read/parse/rules/baseline), nanoseconds.
    duration_ns: int = 0

    @property
    def new_findings(self) -> List[Finding]:
        return [f for f in self.findings if not f.baselined]

    @property
    def failed(self) -> bool:
        return bool(self.new_findings)


def _run_rules(
    sources: Sequence[Tuple[Path, str]], rules: Sequence[Rule]
) -> Tuple[List[Finding], int]:
    """Parse the read sources and run every rule; returns the
    suppression-filtered findings and the suppressed count."""
    modules: List[SourceModule] = []
    findings: List[Finding] = []
    by_relpath: Dict[str, SourceModule] = {}
    for path, source in sources:
        module, parse_finding = parse_module(path, source)
        if parse_finding is not None:
            findings.append(parse_finding)
        if module is not None:
            modules.append(module)
            by_relpath[module.relpath] = module

    project = Project(modules)
    suppressed = 0
    for rule in rules:
        for finding in rule.check(project):
            module = by_relpath.get(finding.path)
            if module is not None and module.is_suppressed(
                finding.line, finding.rule
            ):
                suppressed += 1
                continue
            findings.append(finding)
    return findings, suppressed


def _record_lint_metrics(result: LintResult) -> None:
    """Publish the run's ``lint.*`` self-metrics to the obs registry."""
    from repro.obs import names
    from repro.obs.registry import WALL_NS_BUCKETS, get_registry

    registry = get_registry()
    registry.counter(names.LINT_RUNS).inc()
    registry.gauge(names.LINT_FILES_CHECKED).set(result.files_checked)
    registry.gauge(names.LINT_FINDINGS).set(len(result.findings))
    registry.histogram(
        names.LINT_WALL_NS, buckets=WALL_NS_BUCKETS
    ).observe(result.duration_ns)


def lint_paths(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
    changed_only: Optional[Set[str]] = None,
) -> LintResult:
    """Lint every ``*.py`` under ``paths`` with the given rules.

    Findings are suppression-filtered, baseline-marked, and sorted by
    location.  ``rules`` defaults to every registered rule;
    ``baseline`` defaults to empty (everything is new).  The semantic
    phase is always project-wide; ``changed_only`` restricts only the
    *reported* findings to the given relpaths afterwards.
    """
    started = time.perf_counter_ns()
    selected = list(rules) if rules is not None else all_rules()
    files = _iter_py_files(paths)
    sources = [(path, path.read_text(encoding="utf-8")) for path in files]
    findings, suppressed = _run_rules(sources, selected)

    if changed_only is not None:
        findings = [f for f in findings if f.path in changed_only]
    findings = (baseline or Baseline()).apply(findings)
    result = LintResult(
        findings=sort_findings(findings),
        files_checked=len(files),
        suppressed=suppressed,
        duration_ns=time.perf_counter_ns() - started,
    )
    _record_lint_metrics(result)
    return result
