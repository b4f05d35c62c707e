"""CSP010 — no blocking calls inside ``async def``.

The asyncio front door (``sharding/frontdoor.py``) serves every TCP
connection on one event loop; a single ``time.sleep``, synchronous
pipe/socket read, or ``Popen.wait`` anywhere in an ``async def`` stalls
*every* connection, not just the offending one.  This rule flags, in
any ``async def`` in the project:

* non-awaited calls to blocking primitives — ``time.sleep``,
  ``select.select``, ``subprocess.run``/``call``/``check_*`` and
  friends (:data:`repro.analysis.dataflow.BLOCKING_DOTTED_CALLS`);
* non-awaited method calls that block regardless of receiver —
  ``.recv()``/``.recv_bytes()``/``.send_bytes()``/``.poll()``/
  ``.accept()``/``.wait()``/``.communicate()``/``.acquire()``
  (:data:`repro.analysis.dataflow.BLOCKING_METHODS`);
* calls to *project* functions whose call summary says they block
  transitively (typed receiver resolution through the dataflow layer:
  an attribute call only resolves when the receiver's class is
  determinable from ``self``, an annotation, or a constructor
  assignment), so ``server.close()`` on an asyncio server does not get
  blamed for some unrelated class's blocking ``close()``.

The resolution has a blind spot: it follows names and calls, not
attributes, so a receiver such as ``self._replica`` resolves to
nothing and a blocking call behind it goes unseen.  The front door's
``_handle`` runs ``FrameEndpoint.step`` synchronously on its loop (the
door serialises connections by design), and the summaries mark neither
blocking; they do mark ``ParallelShardedAnonymizer.cloak_many``
(through ``_receive`` -> ``.poll()``).

``await``-wrapped calls are exempt by construction (awaiting an
``asyncio`` primitive is the fix, not the bug).

Blocking is propagated to a fixpoint with no cap on call-chain depth,
and the result does not depend on the order functions are defined in:
a summary's reason names the chain to the nearest primitive.  The rule
only reports what the engine recorded (``direct_blocking``,
``blocking_calls``).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.config import LintConfig
from repro.analysis.core import ModuleInfo, Project, RawFinding, Rule, register_rule
from repro.analysis.dataflow import analyze_project

__all__ = ["AsyncBlockingRule"]


@register_rule
class AsyncBlockingRule(Rule):
    code = "CSP010"
    name = "asyncio-blocking"
    description = (
        "async def must not call blocking primitives (time.sleep, sync "
        "pipe/socket reads, Popen.wait) directly or transitively"
    )
    default_severity = "error"

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterable[RawFinding]:
        flow = analyze_project(project, config)
        for record in flow.functions.values():
            if record.module != module.name or not record.is_async:
                continue
            # direct blocking primitives in the async body
            for call, reason in record.direct_blocking:
                yield RawFinding.at(
                    call,
                    f"async def {record.qualname}() {reason} — this "
                    "blocks the event loop; await an asyncio "
                    "equivalent or move the work off-loop",
                )
            # transitively-blocking project calls
            for call, callee in record.blocking_calls:
                yield RawFinding.at(
                    call,
                    f"async def {record.qualname}() calls "
                    f"{callee.qualname}(), which "
                    f"{callee.blocking_reason} — "
                    "this blocks the event loop",
                )
