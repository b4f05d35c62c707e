"""One executable specification, one stateful machine, every seam.

Each example draws a policy from ``available_policies()`` and drives its
whole public API — register / ``update`` / ``update_batch`` /
``set_profile`` / deregister, ``cloak`` / ``cloak_many`` (with and
without a stand-in) / ``cloak_location``, snapshot / restore,
``crash_worker`` and every refused input — on the brute-force spec
(``tests/spec.py``) and, at once, on these lanes: ``single``;
``telemetry`` (every call in its own ``enabled()`` session);
``sharded`` / ``parallel`` (``make_sharded(…, 4)`` in-process and over
worker processes); ``reference`` (``tests/reference_pyramid.py``) and,
for ``basic``, ``reference_sharded`` (its composite-epoch statement).
:class:`FacadeMachine` adds targets, ``update_locations`` and the six
query kinds through ``Casper`` at shards 1 with the R-tree (under
telemetry), shards 4 with ``BruteForceIndex`` and shards 4 over workers.

After every step every lane shows the spec's population and passes
``check_invariants()``; statistics, cache counters, per-shard cache
rows, homes and epochs agree across lanes (but :data:`EXCEPTIONS`); a
refused call raised the spec's typed error and left every lane as it
was; every cloak contains its user, meets ``(k, A_min)`` with the k'
the spec counts and is Algorithm 1's from the leaf (``basic``) or an
ancestor of it (``adaptive``); a candidate list is byte-identical
across deployments and its refinement is the spec's exact answer.

:func:`replay` runs fixed steps through the same lanes and checks: the
suite's seam regressions and named contracts are such replays, and so
is a failure this machine finds, once shrunk and fixed.
"""

from __future__ import annotations

import dataclasses

import hypothesis.strategies as st
import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.anonymizer import (
    CloakedRegion,
    PrivacyProfile,
    available_policies,
    get_policy,
)
from repro.errors import CasperError, EmptyDatasetError, ProfileUnsatisfiableError
from repro.geometry import Point, Rect
from repro.observability import enabled
from repro.processor import BatchRequest, CandidateList
from repro.processor.executor import QUERY_TYPES
from repro.server import Casper, LocationServer
from repro.server.codec import encode_candidate_list
from repro.sharding import make_sharded
from repro.sharding.surface import CACHE_KEYS, cache_counters
from repro.spatial import BruteForceIndex
from tests.reference_pyramid import ReferenceAdaptive, ReferenceBasic
from tests.spec import AREA_EPS, Spec, judge

UNIT = Rect(0.0, 0.0, 1.0, 1.0)
HEIGHT = 5
SHARDS = 4
#: Stands in for an unsatisfiable user's region; no cloak has k' < 0.
STAND_IN = CloakedRegion(Rect(0.0, 0.0, 0.0, 0.0), -1)
#: Errors a lane may answer a call with (anything else fails the test).
REFUSALS = (CasperError, LookupError, TypeError, ValueError)
REFERENCES = {"basic": ReferenceBasic, "adaptive": ReferenceAdaptive}

#: The cross-lane comparisons that do not hold, as data: the lane and
#: counters they excuse, and the docstring sentence that says why.
#: ``broadcast`` holds for every policy without a native fleet,
#: ``healed`` from the first worker crash or parallel restore on.
EXCEPTIONS = {
    "broadcast": (
        "parallel", ("cache", "rows"),
        "ParallelShardedAnonymizer.cache_stats_per_shard: for broadcast "
        "policies each whole-replica cache sees only its own shard's "
        "cloaks, so hit/miss splits (and their cache_stats sum) may differ "
        "from the in-process deployment's single cache.",
    ),
    "healed": (
        "parallel", ("cache", "rows"),
        "ParallelShardedAnonymizer.restore: Partitioned workers rebuild "
        "from the restored mirror (fresh replicas, so unlike the "
        "in-process fleet the cache *counters* restart at zero).",
    ),
}
#: The lanes whose per-shard cache rows are over the same shards.
SHARD_ROWS = ("sharded", "parallel", "reference_sharded")


class Observed:
    """A lane whose every call runs inside its own telemetry session."""

    def __init__(self, inner: object) -> None:
        self.inner = inner

    def __getattr__(self, name: str) -> object:
        value = getattr(self.inner, name)
        if not callable(value):
            return value

        def observed(*args: object) -> object:
            with enabled():
                return value(*args)

        return observed

    def __contains__(self, uid: object) -> bool:
        return uid in self.inner


def _anonymizer_lanes(policy: str, shards: int, index: object) -> dict:
    lanes = {
        "single": lambda: get_policy(policy).single(UNIT, HEIGHT, 8192),
        "telemetry": lambda: Observed(get_policy(policy).single(UNIT, HEIGHT, 8192)),
        "sharded": lambda: make_sharded(UNIT, HEIGHT, shards, policy),
        "parallel": lambda: make_sharded(UNIT, HEIGHT, shards, policy, parallel=True),
    }
    if policy in REFERENCES:
        lanes["reference"] = lambda: REFERENCES[policy](UNIT, HEIGHT)
    if policy == "basic":
        lanes["reference_sharded"] = lambda: ReferenceBasic(UNIT, HEIGHT, 8192, shards)
    return lanes


def _facade_lanes(policy: str, shards: int, index: object) -> dict:
    brute = LocationServer(index or BruteForceIndex)
    return {
        "single": lambda: Observed(Casper(UNIT, HEIGHT, policy=policy)),
        "sharded": lambda: Casper(
            UNIT, HEIGHT, policy=policy, shards=shards, server=brute
        ),
        "parallel": lambda: Casper(
            UNIT, HEIGHT, policy=policy, shards=shards, parallel=True
        ),
    }


#: What the spec does for each call; for a call that cloaks, the
#: ``(point, profile)`` of every cloak it asks for, in answer order.
SPEC = {
    "register": Spec.register,
    "update": Spec.update,
    "update_batch": Spec.update_batch,
    "set_profile": Spec.set_profile,
    "deregister": Spec.deregister,
    "restore": Spec.restore,
    "cloak": lambda spec, uid: [spec.row(uid)],
    "cloak_many": lambda spec, uids, _stand_in: [spec.row(uid) for uid in uids],
    "cloak_location": lambda spec, at, profile: [(spec.located(at), profile)],
    "target": lambda spec, oid, point: spec.targets.__setitem__(oid, point),
    "untarget": lambda spec, oid: spec.targets.__delitem__(oid),
    "query": lambda spec, uid, *_query: [spec.row(uid)],
}
#: The facade's name for an anonymizer call (the rest go to
#: ``casper.anonymizer``).
FACADE = {
    "register": "register_user",
    "update": "update_location",
    "update_batch": "update_locations",
    "set_profile": "set_profile",
    "deregister": "remove_user",
    "cloak": "cloak_for",
    "target": "add_public_target",
}
#: The client's refinement per query family, as the facade refines.
REFINE = {
    "nn": lambda found, at, _: (
        found.refine_nearest(at, by="center") if len(found) else None
    ),
    "knn": lambda found, at, k: found.refine_k_nearest(at, k),
    "range": lambda found, at, radius: found.refine_within(at, radius),
}
#: The facade's one-at-a-time door per query kind, where it has one.
DOORS = {
    "nn_public": lambda c, uid, _: c.query_nearest_public(uid),
    "knn_public": lambda c, uid, k: c.query_k_nearest_public(uid, k),
    "range_public": lambda c, uid, radius: c.query_range_public(uid, radius),
    "nn_private": lambda c, uid, _: c.query_nearest_private(uid),
}


def query(c: Casper, uid: object, kind: str, param: object, batched: bool) -> tuple:
    """One query, ``(cloak, candidates, answer)``: through ``query_batch``
    or the kind's own facade method; the private kinds the facade does
    not serve go through the server's batch door and are refined at the
    true location as the facade refines."""
    if batched and kind.endswith("public"):
        result = c.query_batch([(uid, kind, param)])[0]
    elif not batched and kind in DOORS:
        result = DOORS[kind](c, uid, param)
    else:
        cloak, family = c.cloak_for(uid), kind.split("_")[0]
        fields = {"knn": {"k": param}, "range": {"radius": param}}.get(family, {})
        (found,) = c.server.run_batch([BatchRequest(kind, cloak.region, **fields)])
        return cloak, found, REFINE[family](found, c.anonymizer.location_of(uid), param)
    return result.cloak, result.candidates, result.answer


def seen(value: object) -> object:
    """A call's result as the lanes compare it: a cloak as ``(region,
    k', cells)``, a candidate list as its wire bytes."""
    if isinstance(value, CloakedRegion):
        return value.region, value.achieved_k, value.cells
    if isinstance(value, CandidateList):
        return encode_candidate_list(value)
    if isinstance(value, (list, tuple)):
        return [seen(item) for item in value]
    return value


UNSATISFIED = seen(STAND_IN)


def cache_totals(anon: object) -> dict[str, int]:
    """A lane's cloak-cache counters, summed over its caches."""
    if hasattr(anon, "cache_stats"):
        return anon.cache_stats()
    if hasattr(anon, "cache_stats_per_shard"):
        rows = anon.cache_stats_per_shard().values()
        return {key: sum(row[key] for row in rows) for key in CACHE_KEYS}
    cache = getattr(anon, "cloak_cache", None)
    return cache_counters(cache) if cache is not None else dict.fromkeys(CACHE_KEYS, 0)


#: The counters lanes must agree on, and how to read each off a lane.
COUNTERS = {
    "stats": lambda anon: dataclasses.asdict(anon.stats),
    "cache": cache_totals,
    "rows": lambda anon: anon.cache_stats_per_shard(),
}


class Lanes:
    """One policy on every lane (or on ``only`` those), driven call by
    call against the spec."""

    def __init__(
        self,
        policy: str,
        *,
        shards: int = SHARDS,
        facade: bool = False,
        only: tuple[str, ...] | None = None,
        index: object = None,
    ) -> None:
        self.policy, self.facade = policy, facade
        self.spec = Spec(UNIT, HEIGHT)
        self.saved: tuple | None = None
        build_lanes = _facade_lanes if facade else _anonymizer_lanes
        builders = build_lanes(policy, shards, index)
        self.lanes: dict[str, object] = {}
        try:
            for name, build in builders.items():
                if only is None or name in only:
                    self.lanes[name] = build()
        except BaseException:
            self.close()
            raise
        self.excused = set() if get_policy(policy).sharded else {"broadcast"}

    def close(self) -> None:
        for lane in self.lanes.values():
            getattr(lane, "close", lambda: None)()

    def anonymizer(self, name: str) -> object:
        lane = self.lanes[name]
        return lane.anonymizer if self.facade else lane

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def apply(self, op: tuple) -> object:
        """Run one call on the spec and on every lane; returns the
        outcome the lanes agreed on, ``("ok", result)`` or ``("raised",
        error type)``."""
        name, *args = op
        if name == "burst":  # several calls before anyone looks
            return [self.apply(step) for step in args[0]]
        if name in ("save", "reload", "swap", "crash"):
            return getattr(self, name)(*args)
        spec, applied = self.spec, self.spec.applied
        try:
            asked, error = SPEC[name](spec, *args), None
        except REFUSALS as exc:
            asked, error = None, type(exc)
        refused = error is not None and spec.applied == applied
        traces = {lane: self.trace(lane) for lane in self.lanes} if refused else {}
        outcomes = {lane: self.call(lane, name, args) for lane in self.lanes}
        agreed = next(iter(outcomes.values()))
        assert all(outcome == agreed for outcome in outcomes.values()), (op, outcomes)
        if error is not None:
            assert agreed == ("raised", error), (op, error, agreed)
        elif asked:
            self.judge(name, args, asked, agreed)
        else:
            assert agreed[0] == "ok", (op, agreed)
        for lane, trace in traces.items():
            assert self.trace(lane) == trace, (op, lane, "a refused call left a trace")
        return agreed

    def call(self, lane: str, name: str, args: list) -> tuple:
        target = self.lanes[lane]
        try:
            if not self.facade:
                value = getattr(target, name)(*args)
            elif name == "query":
                value = query(target, *args)
            elif name == "untarget":
                value = target.server.remove_public(*args)
            elif name in FACADE:
                value = getattr(target, FACADE[name])(*args)
            else:
                value = getattr(target.anonymizer, name)(*args)
        except REFUSALS as exc:
            return "raised", type(exc)
        return "ok", seen(value)

    def save(self) -> None:
        states = {name: self.anonymizer(name).snapshot() for name in self.lanes}
        self.saved = (self.spec.snapshot(), states)

    def reload(self) -> None:
        """Every lane restores the last :meth:`save`."""
        if self.saved is not None:
            self.spec.restore(self.saved[0])
            for name, state in self.saved[1].items():
                self.anonymizer(name).restore(state)
            self.excused.add("healed")

    def swap(self) -> None:
        """Every lane restores its own current state — the scalar
        reference and production restoring each other's snapshot."""
        states = {name: self.anonymizer(name).snapshot() for name in self.lanes}
        if {"reference", "single"} <= states.keys():
            ref, single = states["reference"], states["single"]
            states["reference"], states["single"] = single, ref
        for name, state in states.items():
            self.anonymizer(name).restore(state)
        self.excused.add("healed")

    def crash(self, shard: int) -> None:
        if "parallel" in self.lanes:
            fleet = self.anonymizer("parallel")
            fleet.crash_worker(shard % fleet.num_shards)
            self.excused.add("healed")

    # ------------------------------------------------------------------
    # Judging
    # ------------------------------------------------------------------
    def judge(self, name: str, args: list, asked: list, agreed: tuple) -> None:
        """Hold what the lanes agreed on to the spec: every cloak, and a
        query's refined answer."""
        status, value = agreed
        if status == "raised":
            if value is EmptyDatasetError:  # a query over no target at all
                assert not self.distances(*args), (name, args)
                return
            assert value is ProfileUnsatisfiableError, (name, args, value)
            assert any(self.satisfies(*row, None) for row in asked), (name, args)
            return
        cloaks = {"cloak_many": value, "query": value[:1]}.get(name, [value])
        for (point, profile), cloak in zip(asked, cloaks):
            got = None if cloak == UNSATISFIED else cloak
            assert self.satisfies(point, profile, got), (name, args, point, got)
        if name == "query":
            _uid, kind, param, _batched = args
            assert judge(self.distances(*args), kind, param, value[2]), (args, value)

    def satisfies(
        self, point: Point, profile: PrivacyProfile, cloak: tuple | None
    ) -> bool:
        """Whether ``cloak`` (``None``: the profile was refused as
        unsatisfiable) is one the spec allows the policy."""
        spec, starts = self.spec, self.spec.starts(self.policy, point)
        if cloak is None:
            return starts is None or spec.algorithm1(profile, starts[0]) is None
        region, k_prime, _cells = cloak
        low, high = spec.held(self.policy, cloak)
        return (
            region.contains_point(point)
            and k_prime >= profile.k
            and region.area >= profile.a_min - AREA_EPS
            and low <= k_prime <= high
            and (starts is None or any(
                spec.algorithm1(profile, start) == tuple(cloak) for start in starts
            ))
        )

    def distances(self, uid: object, kind: str, _param: object, batched: bool) -> dict:
        """The spec's ranking for a query; only the facade's buddy door
        hides the requester's own region."""
        stored = dict(next(iter(self.lanes.values())).server.private_index.items())
        exclude = uid if kind == "nn_private" and not batched else None
        return self.spec.distances(kind, self.spec.users[uid][0], stored, exclude)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def trace(self, lane: str) -> tuple:
        """What a refused call must leave as it was."""
        stored = ()
        if self.facade:
            server = self.lanes[lane].server
            stored = (
                dict(server.private_index.items()), dict(server.public_index.items())
            )
        return self.anonymizer(lane).snapshot(), self.counters(lane), stored

    def counters(self, lane: str, excused: set = frozenset()) -> dict:
        """The counters a lane must agree on with the others (but the
        ``excused`` ``(lane, counter)`` pairs)."""
        anon = self.anonymizer(lane)
        return {
            what: read(anon) for what, read in COUNTERS.items()
            if (lane, what) not in excused and (what != "rows" or lane in SHARD_ROWS)
        }

    def check(self) -> None:
        spec = self.spec
        population = sorted(spec.users.items(), key=repr)
        probe = Rect(0.1, 0.2, 0.6, 0.7)
        in_probe = sum(probe.contains_point(p) for p, _ in spec.users.values())
        homes = {}
        for name in self.lanes:
            anon = self.anonymizer(name)
            anon.check_invariants()
            assert anon.num_users == len(population) == anon.users_in_rect(UNIT), name
            assert anon.users_in_rect(probe) == in_probe, name
            for uid, row in population:
                assert (anon.location_of(uid), anon.profile_of(uid)) == row, (name, uid)
            if hasattr(anon, "shard_of_user"):
                shards = [anon.shard_of_user(uid) for uid, _ in population]
                homes[name] = shards, anon.shard_occupancy()
        assert len({repr(h) for h in homes.values()}) <= 1, homes
        excused = {
            (EXCEPTIONS[e][0], what) for e in self.excused for what in EXCEPTIONS[e][1]
        }
        tallies = {name: self.counters(name, excused) for name in self.lanes}
        for what in COUNTERS:
            kept = {repr(tally[what]) for tally in tallies.values() if what in tally}
            assert len(kept) <= 1, (what, tallies)
        if {"sharded", "reference_sharded"} <= self.lanes.keys():
            fleet, oracle = self.lanes["sharded"], self.lanes["reference_sharded"]
            assert (fleet._shard_epochs, fleet._boundary_epoch) == (
                oracle._shard_epochs, oracle._boundary_epoch)
        if self.facade:
            targets = {oid: Rect.point(p) for oid, p in spec.targets.items()}
            stored = []
            for lane in self.lanes.values():
                assert dict(lane.server.public_index.items()) == targets
                stored.append(dict(lane.server.private_index.items()))
            assert all(s == stored[0] for s in stored), stored


def users(n: int, k: int = 3, a_min: float = 0.0, seed: int = 7) -> list[tuple]:
    """Calls registering users ``0..n-1`` at seeded uniform points."""
    rng = np.random.default_rng(seed)
    return [
        ("register", uid, Point(*rng.random(2).tolist()), PrivacyProfile(k, a_min))
        for uid in range(n)
    ]


def crowd(n: int, **kwargs: object) -> list[tuple]:
    """:func:`users` as one step (one burst, one check)."""
    return [("burst", users(n, **kwargs))]


def population(n: int, seed: int) -> list[tuple]:
    """``n`` users under profiles from ``k = 1`` to ``k = 19``, then a
    burst of cloaks of every third one."""
    rows = [(*row[:3], PrivacyProfile(1 + row[1] % 19)) for row in users(n, seed=seed)]
    return [("burst", rows), ("burst", [("cloak", uid) for uid in range(0, n, 3)])]


def replay(policy: str, steps: list[tuple], **lanes: object) -> list:
    """Run ``steps`` through the machine's lanes and invariants (``lanes``
    as :class:`Lanes` takes them); returns what the lanes agreed on at
    each step."""
    driven = Lanes(policy, **lanes)
    try:
        outcomes = []
        for step in steps:
            outcomes.append(driven.apply(step))
            driven.check()
        return outcomes
    finally:
        driven.close()


# ----------------------------------------------------------------------
# The machines
# ----------------------------------------------------------------------
inside = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
points = st.builds(Point, inside, inside)
#: One point in six lies outside the service area: a refused input.
outside = st.builds(Point, st.sampled_from([-0.5, 1.5]), inside)
anywhere = st.one_of(*[points] * 5, outside)
profiles = st.builds(
    PrivacyProfile, st.integers(1, 6), st.sampled_from([0.0, 0.001, 0.01, 0.1, 0.3])
)
#: Users 0..7 start registered (:data:`residents`); a uid nobody
#: registered is an unknown one.
uids = st.integers(0, 11)
calls = st.one_of(
    st.tuples(st.just("register"), uids, anywhere, profiles),
    st.tuples(st.just("update"), uids, anywhere),
    st.tuples(
        st.just("update_batch"),
        st.lists(st.tuples(uids, anywhere), min_size=2, max_size=6),
    ),
    st.tuples(st.just("set_profile"), uids, profiles),
    st.tuples(st.just("deregister"), uids),
    st.tuples(st.just("cloak"), uids),
    st.tuples(
        st.just("cloak_many"),
        st.lists(st.integers(0, 8), max_size=12),
        st.sampled_from([None, STAND_IN]),
    ),
    st.tuples(st.just("cloak_location"), anywhere, profiles),
    st.sampled_from([("save",), ("reload",), ("swap",), ("crash", 1), ("restore", 0)]),
)
PARAMS = {
    "nn": st.none(), "knn": st.integers(1, 3), "range": st.sampled_from([0.1, 0.3])
}
serves = st.one_of(
    st.tuples(st.just("target"), st.integers(0, 5), points),
    st.tuples(st.just("untarget"), st.integers(0, 5)),
    st.sampled_from(QUERY_TYPES).flatmap(
        lambda kind: st.tuples(
            st.just("query"), uids, st.just(kind), PARAMS[kind.split("_")[0]],
            st.booleans(),
        )
    ),
)
residents = st.lists(st.tuples(points, profiles), min_size=8, max_size=12)


class AnonymizerMachine(RuleBasedStateMachine):
    facade = False
    lanes: Lanes | None = None

    @initialize(policy=st.sampled_from(available_policies()), residents=residents)
    def start(self, policy: str, residents: list) -> None:
        self.lanes = Lanes(policy, facade=self.facade)
        if self.facade:  # a target no ``untarget`` names: queries have data
            self.lanes.apply(("target", "depot", Point(0.5, 0.5)))
        for uid, (point, profile) in enumerate(residents):
            self.lanes.apply(("register", uid, point, profile))

    @rule(op=calls)
    def call(self, op: tuple) -> None:
        self.lanes.apply(op)

    @rule(ops=st.lists(calls, min_size=2, max_size=5))
    def burst(self, ops: list) -> None:
        self.lanes.apply(("burst", ops))

    @invariant()
    def agree(self) -> None:
        if self.lanes is not None:
            self.lanes.check()

    def teardown(self) -> None:
        if self.lanes is not None:
            self.lanes.close()


class FacadeMachine(AnonymizerMachine):
    """The facade has no restore: a restored anonymizer would serve users
    whose stored regions the server no longer holds, so the anonymizer
    machine alone drives ``reload`` and ``swap``."""

    facade = True
    calls = calls.filter(lambda op: op[0] not in ("reload", "swap"))

    @rule(op=calls)
    def call(self, op: tuple) -> None:
        self.lanes.apply(op)

    @rule(ops=st.lists(calls, min_size=2, max_size=5))
    def burst(self, ops: list) -> None:
        self.lanes.apply(("burst", ops))

    @rule(op=serves)
    def serve(self, op: tuple) -> None:
        self.lanes.apply(op)


AnonymizerMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, print_blob=True
)
FacadeMachine.TestCase.settings = settings(
    max_examples=6, stateful_step_count=25, print_blob=True
)
TestAnonymizerMachine = AnonymizerMachine.TestCase
TestFacadeMachine = FacadeMachine.TestCase
