"""Built-in casperlint rules.

Importing this package populates :data:`repro.analysis.core.RULE_REGISTRY`
via the ``@register_rule`` decorators in the rule modules.
"""

from __future__ import annotations

__all__ = ["load_builtin_rules"]

_loaded = False


def load_builtin_rules() -> None:
    """Idempotently import every built-in rule module."""
    global _loaded
    if _loaded:
        return
    from repro.analysis.rules import (  # noqa: F401  (registration side effect)
        boundary,
        concurrency,
        correctness,
        determinism,
        lifecycle,
        policy_api,
        privacy,
        taint,
        telemetry,
    )

    _loaded = True
