"""CSP009 — value-level coordinate-taint tracking.

The import-graph rule (CSP001) keeps exact locations from *crossing
the module boundary*; the telemetry rule (CSP008) pattern-matches
location-shaped expressions *at telemetry call sites*.  This rule
closes the gap between them: it follows the **values** — a ``Point``
construction, a ``.x``/``.y`` read, a ``Point``-annotated or
location-named parameter — through assignments, f-strings, arithmetic
and project-internal calls, and reports when a coordinate-derived
value reaches a sink:

* a logging call,
* an exception message (``raise E(f"point {p} ...")`` — exception
  strings travel: the worker runtime serializes them into ``RE_ERROR``
  wire replies and the TCP front door sends them to remote peers),
* a telemetry label/attribute (value-level upgrade of CSP008),
* frame payload construction (``struct.pack``/``encode_*``/
  ``ShardEnvelope``) outside the sanctioned codec modules
  (``codec_modules`` in the configuration),
* numpy array persistence (``np.save``/``np.savetxt``/``np.savez``/
  ``ndarray.tofile``) — the structure-of-arrays pyramid keeps exact
  coordinates in flat arrays, and one convenience dump would write
  the whole population's locations to disk.

Unlike CSP001 this rule is **not zone-gated**: it fires inside the
trusted anonymizer packages too, because these sinks leave the process
no matter which side of the boundary they are on.

Cross-function findings use the call summaries of
:mod:`repro.analysis.dataflow`: passing a tainted value into a
function whose parameter flows to a sink is reported at the call site.
The summaries are a fixpoint with no cap on call-chain depth, and what
is found does not depend on the order functions are defined in; the
rule only reports the hits the engine recorded.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.config import LintConfig
from repro.analysis.core import ModuleInfo, Project, RawFinding, Rule, register_rule
from repro.analysis.dataflow import analyze_project

__all__ = ["CoordinateTaintRule"]

_SINK_LABEL = {
    "logging": "a log record",
    "exception": "an exception message",
    "telemetry": "a telemetry label/attribute",
    "wire": "a frame payload outside the sanctioned codec",
    "persistence": "a numpy array persisted to disk",
}


@register_rule
class CoordinateTaintRule(Rule):
    code = "CSP009"
    name = "coordinate-taint-leak"
    description = (
        "an exact-location value (Point / raw coordinate) flows into a "
        "log, exception message, telemetry attribute, or frame payload "
        "built outside the sanctioned codec"
    )
    default_severity = "error"

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterable[RawFinding]:
        flow = analyze_project(project, config)
        seen: set[tuple[int, str]] = set()
        for record in flow.functions.values():
            if record.module != module.name:
                continue
            # sinks reached inside this function
            for hit in record.sink_hits:
                key = (getattr(hit.node, "lineno", 1), hit.kind)
                if key in seen:
                    continue
                seen.add(key)
                yield RawFinding.at(
                    hit.node,
                    f"coordinate-tainted value reaches "
                    f"{_SINK_LABEL[hit.kind]}: {hit.detail} "
                    f"(in {record.qualname})",
                )
            # tainted arguments handed to a callee that sinks them
            for call, callee, kind in record.call_hits:
                key = (call.lineno, f"call:{kind}")
                if key in seen:
                    continue
                seen.add(key)
                yield RawFinding.at(
                    call,
                    f"passes a coordinate-tainted argument to "
                    f"{callee.qualname}(), which leaks it into "
                    f"{_SINK_LABEL[kind]} "
                    f"(in {record.qualname})",
                )
