"""CSP008 — no location-shaped values in telemetry labels/attributes.

The observability layer is the one data stream that routinely leaves a
production deployment, so it gets the same treatment as the query path:
metric label values and span attributes may never carry a ``Point``, a
raw coordinate, or anything obviously derived from an exact location.
The runtime enforces this dynamically
(:func:`repro.observability.metrics.ensure_safe_label_value` raises
``TelemetryLeakError``); this rule enforces it statically at every
telemetry call site, so a leak is a lint error before it is a runtime
error.

Flagged inside arguments of telemetry calls — the emit API every
instrumented site uses (``count`` / ``observe`` / ``set_gauge`` /
``record_cloak`` / ``phase_scope`` / ``query_scope``, resolved through
the module's import of ``repro.observability.runtime``, so a list's
``.count(point)`` is not one) and, on any receiver, ``counter`` /
``gauge`` / ``histogram`` registrations, ``span(...)`` openings and
``set_attribute(...)``:

* constructing a ``Point`` (or calling ``location_of``) — the exact
  location itself;
* reading ``.x`` / ``.y`` — a single coordinate is half a location;
* interpolating or passing identifiers whose name says they hold a
  location (``point``, ``location``, ``coord``);
* string literals that already look like a coordinate pair (the same
  regex the runtime screen uses).

The rule is not zone-gated: telemetry label hygiene applies on both
sides of the privacy boundary (a trusted-side metric still gets
scraped by an untrusted collector).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.config import LintConfig
from repro.analysis.core import ModuleInfo, Project, RawFinding, Rule, register_rule
from repro.analysis.dataflow import (
    _names_a_location,
    is_telemetry_call,
    runtime_emitters,
    terminal_name,
)
from repro.observability.metrics import looks_like_coordinates

__all__ = ["TelemetryLeakRule"]

#: Callables that *produce* exact-location data.
_LOCATION_PRODUCERS = frozenset({"Point", "location_of"})


def _leak_reason(node: ast.AST) -> str | None:
    """Why ``node`` is location-shaped, or None if it is fine."""
    if isinstance(node, ast.Call):
        callee = terminal_name(node.func)
        if callee in _LOCATION_PRODUCERS:
            return f"calls {callee}() — an exact location"
    if isinstance(node, ast.Attribute) and node.attr in ("x", "y"):
        return f"reads .{node.attr} — a raw coordinate"
    if isinstance(node, (ast.Name, ast.Attribute)):
        identifier = terminal_name(node)
        if _names_a_location(identifier):
            return f"passes {identifier!r} — named like exact-location data"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if looks_like_coordinates(node.value):
            return "string literal looks like a coordinate pair"
    return None


@register_rule
class TelemetryLeakRule(Rule):
    code = "CSP008"
    name = "telemetry-leak"
    description = (
        "metric label values and span attributes must not carry Point "
        "objects, raw coordinates, or location-named values"
    )
    default_severity = "error"

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterable[RawFinding]:
        # The screening helpers themselves mention coordinates in
        # docstrings/regexes, not in telemetry values.
        if module.name.startswith("repro.observability"):
            return
        emitters = runtime_emitters(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and is_telemetry_call(node, emitters):
                yield from self._check_call(node)

    def _check_call(self, call: ast.Call) -> Iterator[RawFinding]:
        method = terminal_name(call.func)
        arguments = [*call.args, *(kw.value for kw in call.keywords)]
        for argument in arguments:
            for sub, reason in _iter_leaks(argument):
                yield RawFinding.at(
                    sub,
                    f"telemetry call '{method}(...)' {reason}; label "
                    "values and span attributes must be privacy-safe "
                    "str/int/bool (see docs/observability.md)",
                )


def _iter_leaks(node: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """Outermost location-shaped sub-expressions of ``node``.

    A flagged expression is reported once and not descended into, so
    ``Point(x, y)`` is one finding, not one per mention of a
    coordinate inside it.
    """
    reason = _leak_reason(node)
    if reason is not None:
        yield node, reason
        return
    for child in ast.iter_child_nodes(node):
        yield from _iter_leaks(child)
