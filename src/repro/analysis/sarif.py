"""SARIF 2.1.0 export (``python -m repro lint --format sarif``).

SARIF (Static Analysis Results Interchange Format) is what GitHub code
scanning ingests: uploading the run annotates the PR diff with each
finding as an alert, rule metadata included.  The mapping is direct —
one reprolint run becomes one SARIF ``run``, every registered rule
becomes a ``reportingDescriptor``, every finding a ``result``.

Two details matter for alert lifecycle stability:

* ``partialFingerprints`` carries a hash of the reprolint fingerprint
  (rule, path, message — no line number), so alerts track findings
  across unrelated line drift exactly like the committed baseline does;
* baselined findings are emitted with a ``suppressions`` entry rather
  than dropped, so code scanning shows them as suppressed instead of
  flapping closed/open when the baseline changes.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Sequence

from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.rules import Rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _fingerprint_hash(finding: Finding) -> str:
    text = "\x1f".join(finding.fingerprint)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _rule_descriptor(rule: Rule) -> dict:
    return {
        "id": rule.rule_id,
        "name": type(rule).__name__,
        "shortDescription": {"text": rule.title},
        "help": {"text": "See docs/STATIC_ANALYSIS.md for the rule catalog."},
        "defaultConfiguration": {"level": "error"},
    }


def _result(finding: Finding) -> dict:
    result = {
        "ruleId": finding.rule,
        "level": _LEVELS.get(finding.severity, "warning"),
        "message": {
            "text": finding.message
            + (f" — hint: {finding.hint}" if finding.hint else "")
        },
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path,
                    "uriBaseId": "%SRCROOT%",
                },
                "region": {"startLine": max(1, finding.line)},
            },
        }],
        "partialFingerprints": {
            "reprolintFingerprint/v1": _fingerprint_hash(finding),
        },
    }
    if finding.baselined:
        result["suppressions"] = [{
            "kind": "external",
            "justification": "grandfathered in reprolint-baseline.json",
        }]
    return result


def format_sarif(
    findings: Sequence[Finding], rules: Sequence[Rule]
) -> str:
    """One SARIF 2.1.0 log for a lint run (deterministic output)."""
    ordered: List[Finding] = sort_findings(findings)
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "reprolint",
                    "version": "2.0.0",
                    "rules": [
                        _rule_descriptor(rule)
                        for rule in sorted(rules, key=lambda r: r.rule_id)
                    ],
                },
            },
            "columnKind": "utf16CodeUnits",
            "results": [_result(finding) for finding in ordered],
        }],
    }
    return json.dumps(log, indent=2, sort_keys=True)
