"""``query_static``: the read-only use of the R-trees and the anonymizer.

An in-process ``Casper(policy="adaptive")``; nobody moves, so the cloak
cache is warm and never invalidated, ``sharding`` does nothing, and
``processor`` + ``spatial`` + ``server.codec`` do almost all the work.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from time import perf_counter

from repro.anonymizer import get_policy
from repro.server.casper import Casper
from repro.server.database import LocationServer

from benchmarks.service.harness import (
    Failures,
    MachineSpeed,
    Measurement,
    both_views,
    cache_counts,
    layer_table,
    traced_measurement,
    window_rate,
)
from benchmarks.service.inputs import HEIGHT, UNIT, Inputs
from benchmarks.service.queries import QueryClient
from benchmarks.service.tracing import TimedProxy, Tracer, timed_server

NAME = "query_static"
WHY = (
    "static users, warm cloak cache, no sharding: processor, R-trees and "
    "the candidate-list codec do the work; an update-path change must not move it"
)


def deploy(inputs: Inputs, tracer: Tracer | None = None) -> Casper:
    """Register everyone, load the targets, refresh every stored cloak."""
    if tracer is None:
        casper = Casper(UNIT, HEIGHT, policy="adaptive")
    else:
        anonymizer = TimedProxy(
            get_policy("adaptive").single(UNIT, HEIGHT, 8192, None),
            tracer, "anonymizer",
        )
        casper = TimedProxy(  # type: ignore[assignment]
            Casper(
                UNIT, HEIGHT, anonymizer=anonymizer,
                server=timed_server(LocationServer(), tracer),  # type: ignore[arg-type]
            ),
            tracer, "casper",
        )
    population = inputs.population
    for uid, (point, profile) in enumerate(zip(population.start, population.profiles)):
        casper.register_user(uid, point, profile)
    casper.add_public_targets(inputs.targets)
    # Warm-up pass.  A region stored while the population was still
    # filling up is far larger than the steady-state one (the first
    # registrants store the whole service area), so private-data
    # candidate lists would measure the registration order; one refresh
    # per user is what the first round of location updates does in a
    # live system.  It also fills the cloak cache for every user.
    for uid in range(population.num_users):
        casper.refresh_stored_cloak(uid)
    if tracer is not None:
        tracer.reset()
    return casper


#: Queries per window of the windowed medians: long enough to hold the
#: script's mix (10 % private queries), short enough for ~30 windows.
WINDOW = 200
PRIVATE_WINDOW = 20


def measure(
    casper: Casper, inputs: Inputs, seconds: float, speed: MachineSpeed
) -> Measurement:
    failures = Failures()
    client = QueryClient(casper, inputs, failures, speed=speed)
    busy, deadline = 0.0, perf_counter() + 4 * seconds + 10
    for kind, uid in itertools.cycle(inputs.script):
        busy += client.issue(kind, uid)
        if busy >= seconds or perf_counter() > deadline:
            break
    def contract(view: str) -> dict[str, tuple[float, str]]:
        private = getattr(client.latencies["nn_private"], view)
        return {
            "primary_ops_per_s": (
                window_rate(getattr(client.sequence, view), WINDOW), "1/s",
            ),
            "secondary_ops_per_s": (window_rate(private, PRIVATE_WINDOW), "1/s"),
            **client.headline(WINDOW, view),
        }

    metrics, raw = both_views(contract)
    return Measurement(metrics, failures, detail={**client.detail(), **raw})


def trace(inputs: Inputs, out_dir: Path) -> Measurement:
    """Plain pass, then the same script prefix through the proxies."""
    failures = Failures()
    prefix = inputs.script[: inputs.sizes["trace_ops"]]
    plain = QueryClient(deploy(inputs), inputs, failures)
    for kind, uid in prefix:
        plain.issue(kind, uid)
    tracer = Tracer()
    casper = deploy(inputs, tracer)
    traced = QueryClient(casper, inputs, failures, tracer)
    hits0, misses0 = cache_counts(casper.anonymizer)
    for kind, uid in prefix:
        traced.issue(kind, uid)
    hits, misses = cache_counts(casper.anonymizer)
    table = layer_table(tracer)
    table.update(traced.layer_counts())
    lookups = (hits - hits0) + (misses - misses0)
    table["anonymizer.cache_hit_rate"] = (hits - hits0) / lookups if lookups else 0.0
    table["database.private_index_size"] = float(casper.server.num_private)
    return traced_measurement(
        NAME, table, tracer, failures,
        plain.busy, traced.busy,
        plain.encoded.digest() == traced.encoded.digest(), out_dir,
    )
