"""casperlint — static enforcement of the reproduction's invariants.

Public surface:

* :func:`run_lint` / :class:`Project` / :class:`LintConfig` — embed the
  engine (this is what the tests do);
* :class:`Rule` + :func:`register_rule` — add a rule;
* :mod:`repro.analysis.cli` — the ``python -m repro lint`` entry point.

See ``docs/static-analysis.md`` for the rule catalogue and the privacy
boundary model the CSP001 taint check enforces.
"""

from repro.analysis.config import LintConfig
from repro.analysis.core import (
    RULE_REGISTRY,
    Finding,
    LintResult,
    ModuleInfo,
    Project,
    RawFinding,
    Rule,
    register_rule,
    run_lint,
)

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleInfo",
    "Project",
    "RawFinding",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
    "run_lint",
]
