"""Named fault scenarios — the chaos harness's canned failure models.

Each scenario is a :class:`~repro.resilience.faults.FaultPlan` with a
fixed default seed, so ``python -m repro chaos --scenario drop-heavy``
is reproducible out of the box; CI's nightly matrix re-runs the same
scenarios under a sweep of seeds (``FaultPlan.with_seed``).

The ones the CI ``resilience`` job gates on every push
(:data:`CI_SCENARIOS`, plus ``worker-crash`` on the worker fleet):

* ``drop-heavy`` — heavy message loss with some duplication: exercises
  the retry budget and idempotent re-application;
* ``crash-restart`` — periodic anonymizer crashes plus silent per-user
  state loss: exercises snapshot restore, the sequence-table rollback
  and the heal-by-update path;
* ``reorder`` — delays, reorders and duplicates: exercises the held-
  message release machinery and sequence-number deduplication;
* ``shard-crash`` — periodic single-shard crashes with light message
  loss.  A shard crash recovers the way its deployment does: on the
  worker fleet (``--parallel``) the victim's process is killed and
  healed over the wire, and survivors keep answering; in one process
  it is a whole snapshot restore;
* ``worker-crash`` — the same single-shard crash on its own seed and
  period, the cell CI runs on the worker fleet only;
* ``continuous-drift`` — moderate loss, reordering and delay plus
  periodic shard crashes, aimed at the safe-region continuous-kNN
  monitor (run with ``--continuous-knn``): validity regions computed
  from stale-but-audited cloaks must still suppress correctly, and the
  gate requires zero privacy violations — faults degrade availability,
  never answers.
"""

from __future__ import annotations

from repro.resilience.faults import FaultPlan

__all__ = ["SCENARIOS", "CI_SCENARIOS", "get_scenario"]

SCENARIOS: dict[str, FaultPlan] = {
    plan.name: plan
    for plan in (
        FaultPlan(name="calm", seed=7),
        FaultPlan(name="drop-heavy", seed=11, drop=0.25, duplicate=0.05),
        FaultPlan(
            name="crash-restart", seed=13, crash_period=40, lose_user=0.02
        ),
        FaultPlan(
            name="reorder",
            seed=17,
            reorder=0.20,
            delay=0.10,
            delay_ticks=3,
            duplicate=0.10,
        ),
        FaultPlan(name="corrupt-wire", seed=19, corrupt=0.15, drop=0.05),
        FaultPlan(
            name="shard-crash",
            seed=29,
            shard_crash_period=35,
            drop=0.05,
        ),
        FaultPlan(
            name="worker-crash",
            seed=31,
            shard_crash_period=35,
            drop=0.05,
        ),
        FaultPlan(
            name="continuous-drift",
            seed=37,
            drop=0.10,
            reorder=0.10,
            delay=0.05,
            delay_ticks=2,
            shard_crash_period=45,
        ),
        FaultPlan(
            name="flaky-everything",
            seed=23,
            drop=0.10,
            duplicate=0.10,
            delay=0.05,
            delay_ticks=2,
            reorder=0.10,
            corrupt=0.05,
            crash_period=60,
            lose_user=0.01,
        ),
    )
}

#: The subset every push's CI ``resilience`` job runs.
CI_SCENARIOS = (
    "drop-heavy",
    "crash-restart",
    "reorder",
    "shard-crash",
    "continuous-drift",
)


def get_scenario(name: str, seed: int | None = None) -> FaultPlan:
    """Look up a named scenario, optionally re-seeded."""
    try:
        plan = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown fault scenario {name!r}; known: {known}") from None
    return plan if seed is None else plan.with_seed(seed)
