"""Structured lint findings and their output formats.

A :class:`Finding` is the unit every rule emits: rule id, location,
severity, one-line message, and a fix hint.  Findings carry a stable
*fingerprint* — ``(rule, path, message)``, deliberately excluding the
line number — so a committed baseline survives unrelated edits that
shift lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


class Severity:
    """Finding severities (both fail the lint; WARNING marks findings
    that indicate dead weight rather than wrong numbers)."""

    ERROR = "error"
    WARNING = "warning"

    ALL = (ERROR, WARNING)


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    severity: str = Severity.ERROR
    hint: str = ""
    #: Filled by the driver: the finding matched the committed baseline
    #: (reported, but does not fail the lint).
    baselined: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.severity not in Severity.ALL:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Baseline identity: stable across line-number drift."""
        return (self.rule, self.path, self.message)

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
        }
        if self.hint:
            record["hint"] = self.hint
        if self.baselined:
            record["baselined"] = True
        return record


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))


def format_table(findings: Sequence[Finding]) -> str:
    """Human-readable report, one location block per finding."""
    if not findings:
        return "reprolint: no findings"
    lines = []
    for finding in sort_findings(findings):
        tag = " [baselined]" if finding.baselined else ""
        lines.append(
            f"{finding.location}: {finding.severity}[{finding.rule}]{tag} "
            f"{finding.message}"
        )
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    fresh = sum(1 for f in findings if not f.baselined)
    lines.append(
        f"reprolint: {len(findings)} finding(s), "
        f"{fresh} new, {len(findings) - fresh} baselined"
    )
    return "\n".join(lines)


def format_json(findings: Sequence[Finding], files_checked: int = 0) -> str:
    """Machine-readable report (what CI uploads as an artifact)."""
    ordered = sort_findings(findings)
    payload = {
        "tool": "reprolint",
        "version": 1,
        "files_checked": files_checked,
        "summary": {
            "total": len(ordered),
            "new": sum(1 for f in ordered if not f.baselined),
            "baselined": sum(1 for f in ordered if f.baselined),
        },
        "findings": [f.to_dict() for f in ordered],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
