"""The Casper framework facade (Figure 1's full architecture).

Wires the three parties together:

* mobile users report exact locations and privacy profiles to the
  **location anonymizer** (trusted third party);
* the anonymizer pushes *cloaked regions* — never exact locations — to
  the **location-based database server**;
* private queries are cloaked by the anonymizer, answered by the
  server's privacy-aware processor with a candidate list, and refined
  exactly on the client.

The facade also measures the Figure 17 time decomposition for every
private query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

# Justified CSP001 suppression: the facade *is* the trusted boundary —
# it plays the mobile-user + anonymizer roles of Figure 1 in-process and
# hands the server side cloaks only.  Everything else under repro.server
# must stay on the untrusted side of the privacy boundary.
from repro.anonymizer import (  # casperlint: ignore[CSP001] trusted facade
    AdaptiveAnonymizer,
    BasicAnonymizer,
    CloakedRegion,
    PrivacyProfile,
    get_policy,
)
from repro.errors import DegradedModeError, UnknownUserError
from repro.geometry import Point, Rect
from repro.messages import PrivateQueryResult
from repro.observability import runtime as _telemetry
from repro.processor import (
    BatchRequest,
    CandidateList,
    OverlapPolicy,
    RangeCountResult,
)
# Justified CSP001 suppression: the sharded runtime is the same trusted
# anonymizer role, partitioned — it exists only on the trusted side and
# the facade hands the server cloaks only (see the import above).
from repro.sharding import (  # casperlint: ignore[CSP001] trusted facade
    ParallelShardedAnonymizer,
    ShardedBasicAnonymizer,
    make_sharded,
)
from repro.server.database import LocationServer
from repro.server.network import TransmissionModel
from repro.utils.timer import monotonic

if TYPE_CHECKING:  # pragma: no cover - typing-only, the runtime is injected
    # Justified CSP001 suppression: same trusted-facade argument as the
    # anonymizer import above — the resilience runtime holds anonymizer
    # state and exists only on the trusted side of the boundary.
    from repro.resilience.runtime import (  # casperlint: ignore[CSP001] trusted facade
        ResilienceRuntime,
    )

__all__ = ["Casper"]

#: Query kind -> the client's local refinement of its candidate list at
#: the exact location, shared by the one-at-a-time methods and
#: :meth:`Casper.query_batch`.  Keyword parameters are the query's own
#: (``k`` / ``radius``).
_REFINE: dict[str, Callable[..., object]] = {
    "nn_public": lambda candidates, at: candidates.refine_nearest(at),
    "knn_public": lambda candidates, at, k: tuple(
        candidates.refine_k_nearest(at, k)
    ),
    "range_public": lambda candidates, at, radius: candidates.refine_within(
        at, radius
    ),
    "nn_private": lambda candidates, at: (
        candidates.refine_nearest(at, by="center") if len(candidates) else None
    ),
}

#: :meth:`Casper.query_batch` kind -> the request fields its optional
#: ``param`` fills (also the refinement's keyword parameters).
_BATCH_PARAMS: dict[str, Callable[..., dict]] = {
    "nn_public": lambda param=None: {},
    "knn_public": lambda param=1: {"k": int(param)},
    "range_public": lambda param=0.0: {"radius": float(param)},
}

AnonymizerKind = str
"""A registered policy name (see
:func:`repro.anonymizer.policy.available_policies`)."""

AnonymizerLike = (
    BasicAnonymizer
    | AdaptiveAnonymizer
    | ShardedBasicAnonymizer
    | ParallelShardedAnonymizer
    | object
)


class Casper:
    """End-to-end Casper deployment over one service area."""

    def __init__(
        self,
        bounds: Rect,
        pyramid_height: int = 9,
        anonymizer: AnonymizerKind | AnonymizerLike = "adaptive",
        server: LocationServer | None = None,
        transmission: TransmissionModel | None = None,
        resilience: "ResilienceRuntime | None" = None,
        shards: int = 1,
        parallel: bool = False,
        policy: AnonymizerKind | AnonymizerLike | None = None,
    ) -> None:
        # Routing seam: `shards > 1` swaps the single-pyramid anonymizer
        # for the sharded runtime, which is byte-for-byte equivalent —
        # every facade path below is unchanged.  `parallel=True` moves
        # each shard into its own worker process over the wire protocol
        # (still byte-equivalent; close the deployment to reap workers).
        #
        # `policy` is the registry-era name for `anonymizer` and accepts
        # the same values: any registered policy name, or a pre-built
        # anonymizer/fleet instance (duck-typed on the CloakingPolicy
        # surface).
        self._closed = False
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if policy is not None:
            anonymizer = policy
        if isinstance(anonymizer, str):
            spec = get_policy(anonymizer)
            if shards > 1 or parallel:
                self.anonymizer = make_sharded(
                    bounds,
                    pyramid_height,
                    num_shards=shards,
                    kind=anonymizer,
                    parallel=parallel,
                )
            else:
                self.anonymizer = spec.single(bounds, pyramid_height, 8192)
        elif hasattr(anonymizer, "cloak") and hasattr(anonymizer, "register"):
            if anonymizer.bounds != bounds:
                raise ValueError(
                    "anonymizer instance bounds differ from the service area"
                )
            if shards != 1 and getattr(anonymizer, "num_shards", 1) != shards:
                raise ValueError(
                    "anonymizer instance shard count differs from `shards`"
                )
            if parallel and not isinstance(
                anonymizer, ParallelShardedAnonymizer
            ):
                raise ValueError(
                    "parallel=True conflicts with an in-process anonymizer "
                    "instance; pass a ParallelShardedAnonymizer or a kind "
                    "string instead"
                )
            self.anonymizer = anonymizer
        else:
            raise ValueError(f"unknown anonymizer kind {anonymizer!r}")
        self.server = server if server is not None else LocationServer()
        self.transmission = (
            transmission if transmission is not None else TransmissionModel()
        )
        # Optional resilience runtime: when present, update and response
        # traffic is serialized through the fault injector with retries,
        # and cloaking degrades through the ladder instead of failing.
        # When absent (the default), every path below is bit-identical
        # to the fault-free pipeline.
        self.resilience = resilience
        if resilience is not None:
            resilience.attach(self)

    def close(self) -> None:
        """Release the anonymizer's resources (idempotent).

        For the parallel runtime this drains and reaps every worker
        process; in-process anonymizers have nothing to release.  Safe
        to call from ``finally`` blocks and after partial failures —
        a deployment must never leak shard worker processes.
        """
        if self._closed:
            return
        self._closed = True
        closer = getattr(self.anonymizer, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "Casper":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def bounds(self) -> Rect:
        return self.anonymizer.bounds

    @property
    def num_shards(self) -> int:
        """Shard count of the trusted anonymizer (1 when unsharded)."""
        return getattr(self.anonymizer, "num_shards", 1)

    def shard_of(self, uid: object) -> int:
        """The shard homing ``uid`` (always 0 when unsharded)."""
        shard_of_user = getattr(self.anonymizer, "shard_of_user", None)
        if shard_of_user is None:
            if uid not in self.anonymizer:
                raise UnknownUserError(uid)
            return 0
        return int(shard_of_user(uid))

    # ------------------------------------------------------------------
    # User lifecycle (through the anonymizer)
    # ------------------------------------------------------------------
    def refresh_stored_cloaks(self, uids: list[object]) -> list[CloakedRegion]:
        """Re-cloak ``uids`` — one batch cloak, so one exchange per
        involved shard on the worker pool — and refresh the server's
        stored private regions in order (the anonymizer -> server push
        of Figure 1).

        Cold-start policy: while the registered population is still too
        small to satisfy a user's ``k`` (Algorithm 1's precondition),
        the most private consistent choice — the whole service area — is
        stored instead.  It resolves to a proper cloak as soon as enough
        users join and the next update re-cloaks.  A resilience runtime
        instead cloaks each user through its ladder (stale grace window,
        parent-cell escalation) before the cold-start bottom.
        """
        if self.resilience is not None:
            regions = [self.resilience.storage_cloak(uid) for uid in uids]
        else:
            cold_start = CloakedRegion(
                self.bounds, self.anonymizer.num_users, cells=()
            )
            regions = self.anonymizer.cloak_many(uids, unsatisfiable=cold_start)
        for uid, region in zip(uids, regions):
            self.server.store_private(uid, region.region)
        return regions

    def refresh_stored_cloak(self, uid: object) -> CloakedRegion:
        """:meth:`refresh_stored_cloaks` for one user."""
        return self.refresh_stored_cloaks([uid])[0]

    def cloak_for(self, uid: object) -> CloakedRegion:
        """The cloak a query for ``uid`` should use right now.

        Without a resilience runtime this is exactly
        ``anonymizer.cloak``; with one, the operation is crash-guarded
        and degrades through the ladder (raising
        :class:`~repro.errors.DegradedModeError` rather than ever
        emitting a cloak below the user's profile).
        """
        if self.resilience is None:
            return self.anonymizer.cloak(uid)
        self.resilience.guard(uid)
        region, _mode = self.resilience.cloak_or_degrade(uid)
        return region

    def cloaks_for(self, uids: Sequence[object]) -> list[CloakedRegion | None]:
        """Batch :meth:`cloak_for`, one outcome per entry: ``None`` where
        that user cannot be cloaked right now — departed, profile
        unsatisfiable, or (resilience) ladder exhausted — and the rest
        of the batch is unaffected.

        The distinct registered users go through one
        ``anonymizer.cloak_many`` (one exchange per involved shard on
        the worker pool); a resilience runtime keeps the guarded
        :meth:`cloak_for` per entry, in order.
        """
        if self.resilience is not None:
            regions: list[CloakedRegion | None] = []
            for uid in uids:
                try:
                    regions.append(self.cloak_for(uid))
                except DegradedModeError:
                    regions.append(None)
            return regions
        failed = CloakedRegion(self.bounds, 0, cells=())
        known = list(dict.fromkeys(uid for uid in uids if uid in self.anonymizer))
        fresh = dict(
            zip(known, self.anonymizer.cloak_many(known, unsatisfiable=failed))
        )
        return [
            None if (region := fresh.get(uid, failed)) is failed else region
            for uid in uids
        ]

    def _refine_location(self, uid: object) -> Point:
        """The exact location used for client-side refinement.

        Under a resilience runtime a user whose anonymizer state was
        lost degrades explicitly instead of surfacing a raw lookup
        error.
        """
        if self.resilience is None:
            return self.anonymizer.location_of(uid)
        try:
            return self.anonymizer.location_of(uid)
        except UnknownUserError as exc:
            self.resilience.counters["degraded_operations"] += 1
            raise DegradedModeError(
                f"exact location for user {uid!r} unavailable after state "
                "loss; awaiting the next location update to heal"
            ) from exc

    def _deliver(self, candidates: CandidateList) -> CandidateList:
        """Ship a candidate list over the (possibly faulty) response
        channel.  The identity function without a resilience runtime."""
        if self.resilience is None:
            return candidates
        return self.resilience.deliver_candidates(candidates)

    def register_user(
        self, uid: object, point: Point, profile: PrivacyProfile
    ) -> CloakedRegion:
        """Register a mobile user; their cloaked region (not the exact
        point) is stored at the server as private data."""
        self.anonymizer.register(uid, point, profile)
        return self.refresh_stored_cloak(uid)

    def update_location(self, uid: object, point: Point) -> CloakedRegion:
        """Continuous location update: re-cloak and refresh the server's
        stored private region.  This is the trusted in-process path; a
        resilient deployment sends updates through
        :meth:`submit_location_update` instead."""
        self.anonymizer.update(uid, point)
        return self.refresh_stored_cloak(uid)

    def update_locations(
        self, moves: "list[tuple[object, Point]]"
    ) -> "list[CloakedRegion]":
        """Apply one tick's worth of location updates through the
        anonymizer's batched kernel, then refresh every mover's stored
        cloak in arrival order, through one batch cloak.

        Batch semantics: all pyramid updates land before any re-cloak,
        so each stored region reflects the *end-of-tick* population —
        the consistency point :class:`~repro.continuous.monitor.\
ContinuousQueryMonitor` flushes at.  With a resilience runtime
        attached, updates fall back to the per-move guarded path.
        """
        if self.resilience is not None:
            return [self.update_location(uid, point) for uid, point in moves]
        self.anonymizer.update_batch(list(moves))
        return self.refresh_stored_cloaks([uid for uid, _ in moves])

    def submit_location_update(
        self, uid: object, point: Point, seq: int, profile: PrivacyProfile
    ) -> str:
        """Send a location update over the (possibly faulty) client ->
        anonymizer channel.

        ``seq`` is the client's per-user monotone sequence number; the
        receiver applies each sequence number at most once, so drops,
        duplicates and reorders are safe.  The update carries the
        profile, letting an anonymizer that lost the user's state
        re-register them (the heal path).  Returns the acknowledged
        outcome (``applied`` / ``stale`` / ``recovered``); raises
        :class:`~repro.errors.UpdateDeliveryError` when the retry budget
        is exhausted.  Without a resilience runtime this falls through
        to the lossless :meth:`update_location`.
        """
        if self.resilience is None:
            self.update_location(uid, point)
            return "applied"
        if not isinstance(uid, str):
            raise TypeError(
                "resilient deployments require string user ids (the update "
                f"wire format carries the uid as UTF-8), got {uid!r}"
            )
        return self.resilience.send_update(uid, seq, point, profile)

    def remove_user(self, uid: object) -> None:
        self.anonymizer.deregister(uid)
        self.server.remove_private(uid)

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        """Change a user's privacy profile and refresh their stored
        cloak accordingly."""
        self.anonymizer.set_profile(uid, profile)
        self.refresh_stored_cloak(uid)

    # ------------------------------------------------------------------
    # Public data (bypasses the anonymizer)
    # ------------------------------------------------------------------
    def add_public_target(self, oid: object, point: Point) -> None:
        self.server.add_public(oid, point)

    def add_public_targets(self, entries: dict[object, Point]) -> None:
        self.server.add_public_bulk(entries)

    # ------------------------------------------------------------------
    # Private queries (through the anonymizer, timed end to end)
    # ------------------------------------------------------------------
    def _result(
        self,
        uid: object,
        kind: str,
        params: dict,
        cloak: CloakedRegion,
        candidates: CandidateList,
        anonymizer_seconds: float,
        processing_seconds: float,
    ) -> PrivateQueryResult:
        """Refine ``candidates`` at the client and attach the Figure 17
        timing decomposition.  The client's exact location never left
        the client; the facade borrows it from the trusted anonymizer to
        emulate the local refinement step."""
        return PrivateQueryResult(
            cloak=cloak,
            candidates=candidates,
            answer=_REFINE[kind](candidates, self._refine_location(uid), **params),
            anonymizer_seconds=anonymizer_seconds,
            processing_seconds=processing_seconds,
            transmission_seconds=self.transmission.time_for(len(candidates)),
        )

    def _query(
        self,
        uid: object,
        kind: str,
        serve: Callable[[Rect], CandidateList],
        **params: object,
    ) -> PrivateQueryResult:
        """One private query end to end: cloak, serve, deliver, refine."""
        with _telemetry.query_scope(kind):
            t0 = monotonic()
            cloak = self.cloak_for(uid)
            t1 = monotonic()
            candidates = serve(cloak.region)
            t2 = monotonic()
            return self._result(
                uid, kind, params, cloak, self._deliver(candidates), t1 - t0, t2 - t1
            )

    def query_nearest_public(
        self, uid: object, num_filters: int = 4
    ) -> PrivateQueryResult:
        """"Where is my nearest gas station?" — private query over
        public data, with the Figure 17 timing decomposition."""
        return self._query(
            uid, "nn_public", lambda area: self.server.nn_public(area, num_filters)
        )

    def query_k_nearest_public(
        self, uid: object, k: int, num_filters: int = 4
    ) -> PrivateQueryResult:
        """"Where are my k nearest gas stations?" — the kNN extension,
        refined locally to the exact ordered answer."""
        return self._query(
            uid,
            "knn_public",
            lambda area: self.server.knn_public(area, k, num_filters),
            k=k,
        )

    def query_nearest_private(
        self,
        uid: object,
        num_filters: int = 4,
        policy: OverlapPolicy | None = None,
    ) -> PrivateQueryResult:
        """"Where is my nearest buddy?" — private query over private
        data; the requester's own record is excluded."""
        return self._query(
            uid,
            "nn_private",
            lambda area: self.server.nn_private(
                area, num_filters, policy=policy, exclude=uid
            ),
        )

    def query_range_public(self, uid: object, radius: float) -> PrivateQueryResult:
        """"Which gas stations are within `radius` of me?" """
        return self._query(
            uid,
            "range_public",
            lambda area: self.server.range_public(area, radius),
            radius=radius,
        )

    def query_batch(
        self, queries: Sequence[tuple], num_filters: int = 4
    ) -> list[PrivateQueryResult]:
        """Answer many private queries over public data in one pass.

        Each element of ``queries`` is ``(uid, query_type)`` or
        ``(uid, query_type, param)`` with ``query_type`` one of
        ``"nn_public"`` / ``"knn_public"`` / ``"range_public"`` and
        ``param`` the ``k`` (kNN) or ``radius`` (range).  Users sharing
        a cloak (co-located, same profile) hit the anonymizer's cloak
        cache and then collapse to a single processor execution inside
        the server's :class:`~repro.processor.BatchQueryEngine`; answers
        are refined per user by the same table as the one-at-a-time
        facade methods.  The timing decomposition is amortized: each
        result carries an equal share of the batch's phase times.
        """
        if not queries:
            return []
        with _telemetry.query_scope("batch_public"):
            t0 = monotonic()
            parsed: list[tuple[object, str, dict]] = []
            for uid, query_type, *param in queries:
                if query_type not in _BATCH_PARAMS:
                    raise ValueError(
                        "query_batch supports public-data query types, "
                        f"got {query_type!r}"
                    )
                parsed.append((uid, query_type, _BATCH_PARAMS[query_type](*param)))
            # Batched cloaking: the parallel runtime groups the batch by
            # owning shard and ships one frame per worker instead of one
            # round trip per query.  Results are identical to the
            # one-at-a-time path, so only transport changes; resilient
            # deployments keep the per-query guarded path.
            if self.resilience is None:
                cloaks = self.anonymizer.cloak_many([uid for uid, _, _ in parsed])
            else:
                cloaks = [self.cloak_for(uid) for uid, _, _ in parsed]
            t1 = monotonic()
            candidate_lists = self.server.run_batch(
                [
                    BatchRequest(
                        query_type, cloak.region, num_filters=num_filters, **params
                    )
                    for (_, query_type, params), cloak in zip(parsed, cloaks)
                ]
            )
            t2 = monotonic()
        anonymizer_share = (t1 - t0) / len(queries)
        processing_share = (t2 - t1) / len(queries)
        # Batch answers return over the trusted in-process path even
        # under a resilience runtime: the batch engine is a server-side
        # aggregation whose per-query response-channel emulation is the
        # single-query facade's job.
        return [
            self._result(
                uid, query_type, params, cloak, candidates,
                anonymizer_share, processing_share,
            )
            for (uid, query_type, params), cloak, candidates in zip(
                parsed, cloaks, candidate_lists
            )
        ]

    # ------------------------------------------------------------------
    # Public queries (no anonymizer involved)
    # ------------------------------------------------------------------
    def count_users_in(self, region: Rect) -> RangeCountResult:
        """Administrator query: how many mobile users are in ``region``
        — answered from the stored blurred information only."""
        return self.server.count_private(region)
