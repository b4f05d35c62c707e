"""Continuous private queries (Section 5's deferred integration).

The paper evaluates snapshot queries and notes that "supporting
continuous queries ... can be achieved by seamless integration of the
Casper framework into any scalable and/or incremental location-based
query processor" (citing SINA and conceptual partitioning).  This module
is that integration: a shared-execution monitor that keeps many
outstanding private NN / range queries up to date as users and targets
move, re-evaluating only the queries an update can actually affect.

The incremental argument mirrors conceptual partitioning's: a query's
answer can only change when

* the *querying user's cloak* changes (their movement or profile edit), or
* a target update touches the query's extended search region ``A_EXT``
  — entering it, leaving it, or moving within it.

A target strictly outside ``A_EXT`` can never be (or unseat) a filter:
Algorithm 2's filters are each within their vertex's nearest-target
distance, which the per-edge expansion dominates, so any target close
enough to matter is inside ``A_EXT`` already.  Registered queries index
their ``A_EXT`` rectangles in a bucket grid; each target update probes
the grid with its old and new positions and marks only the overlapping
queries dirty.  ``flush()`` recomputes the dirty set and reports answer
deltas.

**Moving clients** get a third path (:meth:`register_knn`): the safe-
region kNN of :mod:`repro.processor.safe_region` attaches a *validity
region* to each candidate list, and a cloak change dirties the query
only when the fresh cloak **exits** that region — while it stays
inside, the stale candidate list provably refines to the same exact
answer, so the monitor counts the change as *suppressed* and does no
server work.  Target-side dirtying switches from ``A_EXT`` to the
result's conservative *watch region* (inflated ``A_EXT`` plus the
anchor witness discs), which restores the "outside cannot matter"
argument under the inflated bound.  A per-tick-recompute oracle
(``safe_region=False``) keeps the old dirty-on-any-cloak-change
behaviour for equivalence testing, and :attr:`counters` /
:attr:`validity_lifetimes` expose the re-query-rate accounting the
``continuous_mobility`` bench gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DegradedModeError
from repro.geometry import Point, Rect
from repro.observability import runtime as _telemetry
from repro.processor import BatchRequest, CandidateList, default_margin
from repro.server.casper import Casper
from repro.spatial import GridIndex
from repro.utils.timer import monotonic

__all__ = ["AnswerChange", "ContinuousQueryMonitor"]


@dataclass(frozen=True)
class AnswerChange:
    """The delta produced by one re-evaluation of a continuous query."""

    query_id: object
    added: frozenset
    removed: frozenset
    candidates: CandidateList

    @property
    def changed(self) -> bool:
        return bool(self.added or self.removed)


@dataclass
class _Query:
    query_id: object
    uid: object
    kind: str  # "nn", "range", "buddy" or "knn"
    num_filters: int
    radius: float
    cloak: Rect
    #: The region indexed in the monitor's grid for target-update
    #: dirtying: ``A_EXT`` for snapshot kinds, the safe-region *watch
    #: region* for kNN queries.
    a_ext: Rect
    answer: frozenset
    #: Last candidate list served (what a client would refine against).
    last_candidates: CandidateList | None = None
    # --- kNN-only state ---
    k: int = 1
    #: None = cloak-relative default margin at each evaluation.
    margin: float | None = None
    use_safe_region: bool = False
    #: While the fresh cloak stays inside this region the stale
    #: candidate list is provably exact; None = dirty on any change.
    validity: Rect | None = None
    #: Monitor tick of the last server evaluation (lifetime bookkeeping).
    eval_tick: int = 0


class ContinuousQueryMonitor:
    """Shared-execution monitor for continuous private queries over the
    public target data of a :class:`~repro.server.Casper` deployment.

    Consistency contract: after :meth:`flush`, every registered query's
    answer equals a from-scratch evaluation against the current state —
    including cloak drift caused by *other* users moving through the
    querying user's pyramid cells, which ``flush`` detects with a cheap
    re-cloak scan before deciding what to re-evaluate.
    """

    def __init__(
        self,
        casper: Casper,
        grid_resolution: int = 32,
        validity_margin_factor: float = 1.5,
    ) -> None:
        self.casper = casper
        # Maps query_id -> A_EXT for the spatial join with target updates.
        self._regions = GridIndex(casper.bounds, grid_resolution)
        self._queries: dict[object, _Query] = {}
        self._queries_of_user: dict[object, set[object]] = {}
        self._dirty: set[object] = set()
        #: Queries whose user could not be re-cloaked at the last flush
        #: (resilient deployments only): their answers are served stale
        #: and they stay dirty until the user's state heals.
        self.last_degraded: frozenset = frozenset()
        #: Default validity margin, as a multiple of the cloak's longer
        #: side, for :meth:`register_knn` queries without an explicit one.
        self.validity_margin_factor = validity_margin_factor
        #: Deterministic re-query accounting.  ``ticks`` counts
        #: :meth:`on_users_moved` batches; ``evaluations`` counts dirty
        #: queries re-evaluated at flush (``knn_evaluations`` the kNN
        #: subset); ``suppressed`` counts flush-scan cloak changes the
        #: validity region absorbed; ``validity_exits`` counts the ones
        #: it did not.
        self.counters: dict[str, int] = {
            "ticks": 0,
            "evaluations": 0,
            "knn_evaluations": 0,
            "suppressed": 0,
            "validity_exits": 0,
        }
        #: Ticks each validity region survived, appended when its query
        #: is re-evaluated.
        self.validity_lifetimes: list[int] = []

    # ------------------------------------------------------------------
    # Query registration
    # ------------------------------------------------------------------
    @property
    def num_queries(self) -> int:
        return len(self._queries)

    def register_nn(
        self, query_id: object, uid: object, num_filters: int = 4
    ) -> CandidateList:
        """Register a continuous "nearest public target" query; returns
        the initial candidate list."""
        return self._register(query_id, uid, "nn", num_filters, 0.0)

    def register_range(
        self, query_id: object, uid: object, radius: float
    ) -> CandidateList:
        """Register a continuous "targets within radius" query."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return self._register(query_id, uid, "range", 0, radius)

    def register_buddy(
        self, query_id: object, uid: object, num_filters: int = 4
    ) -> CandidateList:
        """Register a continuous "nearest other user" query — private
        query over private data, kept fresh as everyone's stored cloaks
        change.

        A moving user's stored region can invalidate a buddy answer only
        when its old or new cloak touches the query's ``A_EXT`` (a
        strictly-outside region can never hold or become a pessimistic
        filter: a region beating the current filter's max-distance lies
        entirely inside the filter disc, hence inside ``A_EXT``), so the
        same grid probe drives incrementality.
        """
        return self._register(query_id, uid, "buddy", num_filters, 0.0)

    def register_knn(
        self,
        query_id: object,
        uid: object,
        k: int,
        num_filters: int = 4,
        margin: float | None = None,
        safe_region: bool = True,
    ) -> CandidateList:
        """Register a continuous "my k nearest public targets" query for
        a *moving* client; returns the initial candidate list.

        With ``safe_region=True`` (the default) each evaluation attaches
        a validity region ``margin`` wider than the cloak (``None`` =
        ``validity_margin_factor`` times the cloak's longer side,
        recomputed per evaluation) and later cloak changes re-evaluate
        the query only when the fresh cloak exits it.
        ``safe_region=False`` is the per-tick-recompute oracle: any
        cloak change dirties the query, exactly like :meth:`register_nn`
        — the two modes must refine to byte-identical exact answers,
        which the equivalence tests assert.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if margin is not None and margin < 0.0:
            raise ValueError("margin must be non-negative")
        return self._register(
            query_id, uid, "knn", num_filters, 0.0,
            k=k, margin=margin, use_safe_region=safe_region,
        )

    def _register(
        self, query_id: object, uid: object, kind: str, num_filters: int,
        radius: float, k: int = 1, margin: float | None = None,
        use_safe_region: bool = False,
    ) -> CandidateList:
        if query_id in self._queries:
            raise ValueError(f"query id {query_id!r} already registered")
        bounds = self.casper.bounds
        # Until its first evaluation a query is *degraded*: empty
        # answer, the whole service area as its conservative A_EXT.
        query = _Query(
            query_id=query_id,
            uid=uid,
            kind=kind,
            num_filters=num_filters,
            radius=radius,
            cloak=bounds,
            a_ext=bounds,
            answer=frozenset(),
            last_candidates=CandidateList(
                items=(), search_region=bounds, num_filters=num_filters
            ),
            k=k,
            margin=margin,
            use_safe_region=use_safe_region,
        )
        try:
            cloak = self.casper.cloak_for(uid)
        except DegradedModeError:
            # Resilient deployments may be unable to cloak the user at
            # registration time (state lost, ladder exhausted).  The
            # query stays degraded and dirty — the first flush after the
            # user heals evaluates it for real.
            self._dirty.add(query_id)
        else:
            self._evaluate(query, cloak.region)
        self._queries[query_id] = query
        self._queries_of_user.setdefault(uid, set()).add(query_id)
        self._regions.insert(query_id, query.a_ext)
        return query.last_candidates

    def deregister(self, query_id: object) -> None:
        query = self._queries.pop(query_id)
        self._queries_of_user[query.uid].discard(query_id)
        self._regions.remove(query_id)
        self._dirty.discard(query_id)

    # ------------------------------------------------------------------
    # Update notifications
    # ------------------------------------------------------------------
    def on_user_moved(self, uid: object, point: Point) -> None:
        """Route a location update through Casper and mark the affected
        queries dirty: the mover's own queries (when their cloak
        changed) plus any buddy query whose ``A_EXT`` the mover's old or
        new stored region touches."""
        private_index = self.casper.server.private_index
        old_region = (
            private_index.rect_of(uid) if uid in private_index else None
        )
        cloak = self.casper.update_location(uid, point)
        self.notify_user_moved(uid, old_region, cloak.region)

    def on_users_moved(self, moves: list[tuple[object, Point]]) -> None:
        """Batched :meth:`on_user_moved`: one tick's moves go through
        the anonymizer's batched update kernel
        (:meth:`~repro.server.casper.Casper.update_locations`), then
        each mover's queries are dirty-marked exactly as the per-move
        path would.  Stored cloaks reflect the end-of-tick population;
        :meth:`flush` re-cloaks every query anyway, so answers at the
        flush boundary are identical either way."""
        private_index = self.casper.server.private_index
        old_regions = [
            private_index.rect_of(uid) if uid in private_index else None
            for uid, _ in moves
        ]
        self.counters["ticks"] += 1
        cloaks = self.casper.update_locations(moves)
        for (uid, _), old_region, cloak in zip(moves, old_regions, cloaks):
            self.notify_user_moved(uid, old_region, cloak.region)

    def notify_user_moved(
        self, uid: object, old_region: Rect | None, new_region: Rect
    ) -> None:
        """Dirty-marking half of :meth:`on_user_moved`, for callers that
        applied the location update to Casper themselves (``old_region``
        is the user's previously stored cloak, ``new_region`` the fresh
        one).

        A safe-region kNN query is *not* dirtied while the fresh cloak
        stays inside its validity region — its stale candidate list is
        provably still exact there.  (The suppression counters are
        maintained by :meth:`flush`'s re-cloak scan, which sees each
        query exactly once per flush.)"""
        for query_id in self._queries_of_user.get(uid, ()):
            query = self._queries[query_id]
            if query.cloak == new_region:
                continue
            if query.validity is not None and query.validity.contains_rect(
                new_region
            ):
                continue
            self._dirty.add(query_id)
        for probe in (old_region, new_region):
            if probe is None:
                continue
            for query_id in self._regions.range_search(probe):
                if self._queries[query_id].kind == "buddy":
                    self._dirty.add(query_id)

    def on_target_update(
        self,
        oid: object,
        new_position: Point | None,
        old_position: Point | None = None,
    ) -> None:
        """Apply a public-target insert / move / delete and mark the
        queries whose ``A_EXT`` the update touches."""
        if old_position is None and oid in self.casper.server.public_index:
            old_position = self.casper.server.public_index.rect_of(oid).center
        if new_position is None:
            self.casper.server.remove_public(oid)
        else:
            self.casper.server.add_public(oid, new_position)
        for probe in (old_position, new_position):
            if probe is None:
                continue
            for query_id in self._regions.range_search(Rect.point(probe)):
                self._dirty.add(query_id)

    def mark_all_dirty(self) -> None:
        """Force every query to re-evaluate at the next flush.

        Escape hatch for out-of-band state changes the monitor has no
        hook for (profile edits, user registration/removal done directly
        on the Casper facade).
        """
        self._dirty.update(self._queries)

    # ------------------------------------------------------------------
    # Re-evaluation
    # ------------------------------------------------------------------
    def flush(self) -> list[AnswerChange]:
        """Re-evaluate every dirty query; returns the non-empty answer
        deltas (re-evaluations that changed nothing are suppressed).

        Before re-evaluating, every registered query is re-cloaked (a
        microsecond pyramid walk) and marked dirty if its cloak drifted —
        this catches cloak changes caused by *other* users' movement
        through the querying user's pyramid cells, so answers are fully
        consistent with a from-scratch evaluation at each flush boundary.

        Under a resilience runtime a query whose user cannot be
        re-cloaked at all (state lost, ladder exhausted) keeps its
        previous answer — stale but never privacy-violating — and stays
        dirty until the user heals; such queries are reported in
        :attr:`last_degraded`.
        """
        obs = _telemetry.active()
        start = monotonic() if obs is not None else 0.0
        fresh_cloaks: dict[object, Rect] = {}
        degraded: set[object] = set()
        for query_id, query in self._queries.items():
            try:
                region = self.casper.cloak_for(query.uid).region
            except DegradedModeError:
                degraded.add(query_id)
                continue
            fresh_cloaks[query_id] = region
            if region == query.cloak:
                continue
            if query.validity is not None and query.validity.contains_rect(
                region
            ):
                # Safe-region suppression: the cloak drifted but stayed
                # inside the validity region, so the stale candidate
                # list still refines to the exact answer.
                self.counters["suppressed"] += 1
                if obs is not None:
                    _telemetry.record_safe_region_event(obs, "suppressed")
                continue
            if query.validity is not None:
                self.counters["validity_exits"] += 1
                if obs is not None:
                    _telemetry.record_safe_region_event(obs, "validity_exit")
            self._dirty.add(query_id)
        changes: list[AnswerChange] = []
        dirty = sorted(
            (query_id for query_id in self._dirty if query_id not in degraded),
            key=str,
        )
        # Dirty nn/range queries go through the server's batch engine:
        # queries whose users share a cloak (one crowded cell going
        # dirty at once) collapse to a single processor execution.
        batched = [
            query_id for query_id in dirty
            if self._queries[query_id].kind in ("nn", "range")
        ]
        batch_results = dict(
            zip(
                batched,
                self.casper.server.run_batch(
                    [
                        self._request(self._queries[query_id], fresh_cloaks[query_id])
                        for query_id in batched
                    ]
                ),
            )
        )
        for query_id in dirty:
            query = self._queries[query_id]
            lifetime = self.counters["ticks"] - query.eval_tick
            watched = query.a_ext
            change = self._evaluate(
                query, fresh_cloaks[query_id], batch_results.get(query_id)
            )
            self.counters["evaluations"] += 1
            if query.kind == "knn":
                self.counters["knn_evaluations"] += 1
                if query.use_safe_region:
                    self.validity_lifetimes.append(lifetime)
                    if obs is not None:
                        _telemetry.record_safe_region_event(obs, "evaluation")
                        _telemetry.record_validity_lifetime(obs, lifetime)
            if query.a_ext != watched:
                self._regions.insert(query_id, query.a_ext)
            if change.changed:
                changes.append(change)
        if obs is not None:
            _telemetry.record_monitor_flush(
                obs,
                dirty=len(dirty),
                changed=len(changes),
                seconds=monotonic() - start,
            )
        # Degraded queries stay dirty: they re-evaluate as soon as their
        # user's state heals and a fresh cloak exists again.
        self._dirty.clear()
        self._dirty |= degraded
        self.last_degraded = frozenset(degraded)
        return changes

    def answer_of(self, query_id: object) -> frozenset:
        """The current (last flushed) answer set of a query."""
        return self._queries[query_id].answer

    def candidates_of(self, query_id: object) -> CandidateList:
        """The last candidate list served for a query — what the client
        refines against its exact position.  For a safe-region kNN query
        this may be *stale* (computed for an earlier cloak), which is
        the point: while the cloak stays inside the validity region the
        refinement is provably identical to a fresh re-query."""
        candidates = self._queries[query_id].last_candidates
        assert candidates is not None
        return candidates

    def validity_of(self, query_id: object) -> Rect | None:
        """The current validity region of a safe-region kNN query
        (``None`` for other kinds, oracle-mode kNN and degraded
        registrations)."""
        return self._queries[query_id].validity

    @property
    def mean_validity_lifetime(self) -> float:
        """Mean ticks a validity region survived before re-evaluation
        (0.0 until the first safe-region re-evaluation happens)."""
        if not self.validity_lifetimes:
            return 0.0
        return sum(self.validity_lifetimes) / len(self.validity_lifetimes)

    @staticmethod
    def _request(query: _Query, cloak: Rect) -> BatchRequest:
        """The processor request of an ``nn`` / ``range`` query."""
        return BatchRequest(
            f"{query.kind}_public", cloak,
            num_filters=query.num_filters, radius=query.radius,
        )

    def _evaluate(
        self, query: _Query, cloak: Rect, served: CandidateList | None = None
    ) -> AnswerChange:
        """Serve ``query`` at ``cloak`` and move its state there;
        ``served`` is the candidate list when a batch already holds it.

        nn / range queries are plain processor requests.  Buddy queries
        exclude the requester's own record, so each one runs against a
        momentarily different index; kNN queries need the validity /
        watch geometry a candidate list does not carry — both keep their
        dedicated server calls and stay un-batched.
        """
        server = self.casper.server
        if query.kind == "knn":
            if not query.use_safe_region:
                margin = 0.0  # oracle mode: plain snapshot kNN geometry
            elif query.margin is not None:
                margin = query.margin
            else:
                margin = default_margin(cloak, self.validity_margin_factor)
            result = server.knn_public_with_validity(
                cloak, query.k, query.num_filters, margin
            )
            candidates = result.candidates
            # A clamped k (fewer targets than requested) makes any insert
            # anywhere answer-changing; watch the whole service area then.
            watch = (
                self.casper.bounds
                if result.clamped
                else result.watch_region.clipped_to(self.casper.bounds)
            )
            if query.use_safe_region:
                query.validity = result.validity
        else:
            if served is not None:
                candidates = served
            elif query.kind == "buddy":
                candidates = server.nn_private(
                    cloak, query.num_filters, exclude=query.uid
                )
            else:
                (candidates,) = server.run_batch([self._request(query, cloak)])
            watch = candidates.search_region
        new_answer = frozenset(candidates.oids())
        change = AnswerChange(
            query_id=query.query_id,
            added=new_answer - query.answer,
            removed=query.answer - new_answer,
            candidates=candidates,
        )
        query.cloak = cloak
        query.a_ext = watch
        query.answer = new_answer
        query.last_candidates = candidates
        query.eval_tick = self.counters["ticks"]
        return change
