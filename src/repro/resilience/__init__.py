"""Fault injection and graceful degradation for the Casper pipeline.

The failure model of a real LBS deployment — dropped, duplicated,
delayed, reordered and corrupted messages; anonymizer crashes and silent
state loss — expressed as seeded, replayable inputs, plus the machinery
that keeps the system correct under them:

* :mod:`~repro.resilience.faults` — :class:`FaultPlan` /
  :class:`FaultInjector`: the deterministic fault source and its trace;
* :mod:`~repro.resilience.retry` — the retry budget and its
  exponential backoff with jitter over virtual time;
* :mod:`~repro.resilience.runtime` — :class:`ResilienceRuntime`, the
  wrapper around a deployment's anonymizer: retries, snapshot/restore
  crash recovery, the degradation ladder (*degrade availability, never
  privacy*);
* :mod:`~repro.resilience.scenarios` — named fault scenarios CI gates on;
* :mod:`~repro.resilience.harness` — :func:`run_chaos`: replay a
  workload fault-free and faulted, audit privacy, diff the SLOs.

See ``docs/resilience.md`` for the operator-facing tour.
"""

from repro.resilience.faults import Delivery, FaultEvent, FaultInjector, FaultPlan
from repro.resilience.harness import ChaosReport, ChaosWorkload, run_chaos
from repro.resilience.runtime import Emission, ResilienceRuntime
from repro.resilience.scenarios import CI_SCENARIOS, SCENARIOS, get_scenario

__all__ = [
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "Delivery",
    "ResilienceRuntime",
    "Emission",
    "SCENARIOS",
    "CI_SCENARIOS",
    "get_scenario",
    "ChaosWorkload",
    "ChaosReport",
    "run_chaos",
]
