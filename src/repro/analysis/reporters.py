"""Text, JSON and SARIF reporters for casperlint runs."""

from __future__ import annotations

import json

from repro.analysis.core import RULE_REGISTRY, Finding, LintResult

__all__ = ["render_text", "render_json", "render_sarif"]


def render_text(result: LintResult) -> str:
    """Human-oriented report: one line per finding plus a summary."""
    lines = [
        f"{finding.path}:{finding.line}: {finding.rule} "
        f"{finding.severity}: {finding.message}"
        for finding in result.findings
    ]
    lines.append(
        f"casperlint: {result.checked_modules} modules, "
        f"{len(result.rules_run)} rules -> {len(result.errors)} error(s), "
        f"{len(result.warnings)} warning(s), "
        f"{result.suppressed} inline-suppressed"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-oriented report (the CI gate consumes this)."""
    payload = {
        "version": 1,
        "modules_checked": result.checked_modules,
        "rules_run": list(result.rules_run),
        "suppressed": result.suppressed,
        "findings": [f.as_dict() for f in result.findings],
        "summary": {
            "errors": len(result.errors),
            "warnings": len(result.warnings),
        },
    }
    return json.dumps(payload, indent=2)


_SARIF_LEVEL = {"error": "error", "warning": "warning"}


def _sarif_result(finding: Finding) -> dict[str, object]:
    return {
        "ruleId": finding.rule,
        "level": _SARIF_LEVEL.get(finding.severity, "warning"),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {"startLine": finding.line},
                }
            }
        ],
        # line-independent identity so GitHub code scanning tracks the
        # finding across unrelated edits
        "partialFingerprints": {"casperlint/v1": finding.fingerprint},
    }


def render_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 report (GitHub code scanning upload format)."""
    rules = [
        {
            "id": code,
            "name": RULE_REGISTRY[code].name or code,
            "shortDescription": {
                "text": RULE_REGISTRY[code].description or code
            },
            "defaultConfiguration": {
                "level": _SARIF_LEVEL.get(
                    RULE_REGISTRY[code].default_severity, "warning"
                )
            },
        }
        for code in result.rules_run
        if code in RULE_REGISTRY
    ]
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "casperlint",
                        "rules": rules,
                    }
                },
                "results": [_sarif_result(f) for f in result.findings],
                "columnKind": "utf16CodeUnits",
            }
        ],
    }
    return json.dumps(payload, indent=2)
