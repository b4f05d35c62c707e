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
enough to matter is inside ``A_EXT`` already.  The standing queries are
rows of one table (:data:`_ROW`): a target update is a point-in-rectangle
mask over the ``A_EXT`` column, a tick of user moves two comparisons
over the movers' own rows plus one movers x buddy-queries intersection
kernel, and ``flush()`` one batch re-cloak, the same two comparisons
over every row, and a re-evaluation of the dirty rows — so a tick costs
per affected query, not per mover.

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

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import DegradedModeError
from repro.geometry import Point, Rect
from repro.geometry.block import contains_rects, intersects_rects, rect_block
from repro.observability import runtime as _telemetry
from repro.processor import BatchRequest, CandidateList, default_margin
from repro.server.casper import Casper
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


_KINDS = ("nn", "range", "buddy", "knn")
_NN, _RANGE, _BUDDY, _KNN = range(4)
_SAFE_REGION_EVENTS = "casper_monitor_safe_region_events_total"
_NO_RECT = (math.nan,) * 4

#: One standing query per row; rows ``[0, q)`` are the live ones (a
#: deregistered row is filled from the last, so ``q`` is the query count).
_ROW = np.dtype([
    ("cloak", "f8", 4),  # the cloak of the last evaluation
    # While the fresh cloak stays inside, the stale candidate list is
    # provably exact; a NaN row = none, dirty on any cloak change.
    ("validity", "f8", 4),
    # Target-side dirtying: A_EXT, or the safe-region watch region (kNN).
    ("watch", "f8", 4),
    # Radius (range) or validity margin (kNN; NaN = the cloak-relative
    # default at each evaluation).
    ("param", "f8"),
    ("kind", "i1"),
    ("k", "i4"),
    ("num_filters", "i4"),
    ("eval_tick", "i8"),  # tick of the last evaluation (lifetimes)
    ("safe", "?"),  # kNN only: attach a validity region
    ("dirty", "?"),
    ("id", "O"),
    ("uid", "O"),
    # Last list served: what a client refines, and whose ids are the
    # query's answer set.
    ("candidates", "O"),
])


class ContinuousQueryMonitor:
    """Shared-execution monitor for continuous private queries over the
    public target data of a :class:`~repro.server.Casper` deployment.

    Consistency contract: after :meth:`flush`, every registered query's
    answer equals a from-scratch evaluation against the current state —
    including cloak drift caused by *other* users moving through the
    querying user's pyramid cells, which ``flush`` detects with a cheap
    re-cloak scan before deciding what to re-evaluate.
    """

    def __init__(self, casper: Casper, validity_margin_factor: float = 1.5) -> None:
        self.casper = casper
        self._table = np.zeros(16, dtype=_ROW)
        self._row_of: dict[object, int] = {}
        self._rows_of_user: dict[object, list[int]] = {}
        #: Queries whose user could not be re-cloaked at the last flush
        #: (departed, profile unsatisfiable, resilience ladder
        #: exhausted): their answers are served stale and they stay
        #: dirty until the user is back or the query is deregistered.
        self.last_degraded: frozenset = frozenset()
        #: Default validity margin, as a multiple of the cloak's longer
        #: side, for :meth:`register_knn` queries without an explicit one.
        self.validity_margin_factor = validity_margin_factor
        #: Deterministic re-query accounting.  ``ticks`` counts applied
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
        return len(self._row_of)

    @property
    def _live(self) -> np.ndarray:
        """The live rows, as a view: writes to its columns land."""
        return self._table[: len(self._row_of)]

    def register_nn(
        self, query_id: object, uid: object, num_filters: int = 4
    ) -> CandidateList:
        """Register a continuous "nearest public target" query; returns
        the initial candidate list."""
        return self._register(query_id, uid, _NN, num_filters)

    def register_range(
        self, query_id: object, uid: object, radius: float
    ) -> CandidateList:
        """Register a continuous "targets within radius" query."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return self._register(query_id, uid, _RANGE, 0, param=radius)

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
        entirely inside the filter disc, hence inside ``A_EXT``), so one
        movers x buddy-queries intersection kernel drives incrementality.
        """
        return self._register(query_id, uid, _BUDDY, num_filters)

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
            query_id, uid, _KNN, num_filters,
            param=math.nan if margin is None else margin, k=k, safe=safe_region,
        )

    def _register(
        self, query_id: object, uid: object, kind: int, num_filters: int,
        param: float = 0.0, k: int = 1, safe: bool = False,
    ) -> CandidateList:
        if query_id in self._row_of:
            raise ValueError(f"query id {query_id!r} already registered")
        row, bounds = len(self._row_of), self.casper.bounds
        if row == len(self._table):
            self._table = np.concatenate([self._table, np.zeros_like(self._table)])
        # Until its first evaluation a query is *degraded*: empty
        # answer, the whole service area as its conservative A_EXT.
        unserved = CandidateList(
            items=(), search_region=bounds, num_filters=num_filters
        )
        self._table[row] = (  # in _ROW's column order
            bounds.as_tuple(), _NO_RECT, bounds.as_tuple(), param, kind, k,
            num_filters, 0, safe, False, query_id, uid, unserved,
        )
        try:
            cloak = self.casper.cloak_for(uid)
        except DegradedModeError:
            # Resilient deployments may be unable to cloak the user at
            # registration time (state lost, ladder exhausted).  The
            # query stays degraded and dirty — the first flush after the
            # user heals evaluates it for real.
            self._table["dirty"][row] = True
        else:
            self._evaluate(row, cloak.region)
        self._row_of[query_id] = row
        self._rows_of_user.setdefault(uid, []).append(row)
        return self._table["candidates"][row]

    def deregister(self, query_id: object) -> None:
        """Drop a query; its row is refilled from the last live one."""
        row = self._row_of.pop(query_id)
        table, last = self._table, len(self._row_of)
        uid = table["uid"][row]
        self._rows_of_user[uid].remove(row)
        if not self._rows_of_user[uid]:
            del self._rows_of_user[uid]
        if row != last:
            table[row] = table[last]
            self._row_of[table["id"][row]] = row
            rows = self._rows_of_user[table["uid"][row]]
            rows[rows.index(last)] = row
        table[last] = np.zeros((), dtype=_ROW)  # let go of its objects

    # ------------------------------------------------------------------
    # Update notifications
    # ------------------------------------------------------------------
    def on_user_moved(self, uid: object, point: Point) -> None:
        """Route a location update through Casper and mark the affected
        queries dirty: the mover's own queries (when their cloak
        changed) plus any buddy query whose ``A_EXT`` the mover's old or
        new stored region touches."""
        stale = self._stored_regions([uid])
        cloak = self.casper.update_location(uid, point)
        self._mark_moved([uid], [cloak.region], stale)

    def on_users_moved(self, moves: list[tuple[object, Point]]) -> None:
        """Batched :meth:`on_user_moved`: one tick's moves go through
        the anonymizer's batched update kernel
        (:meth:`~repro.server.casper.Casper.update_locations`), then
        the movers' queries are dirty-marked exactly as the per-move
        path would.  Stored cloaks reflect the end-of-tick population;
        :meth:`flush` re-cloaks every query anyway, so answers at the
        flush boundary are identical either way.  A refused batch
        (unknown user, out-of-area point) is not a tick."""
        uids = [uid for uid, _ in moves]
        stale = self._stored_regions(uids)
        cloaks = self.casper.update_locations(moves)
        self.counters["ticks"] += 1
        self._mark_moved(uids, [cloak.region for cloak in cloaks], stale)

    def notify_user_moved(
        self, uid: object, old_region: Rect | None, new_region: Rect
    ) -> None:
        """Dirty-marking half of :meth:`on_user_moved`, for callers that
        applied the location update to Casper themselves (``old_region``
        is the user's previously stored cloak, ``new_region`` the fresh
        one)."""
        self._mark_moved([uid], [new_region], [old_region])

    def _stored_regions(self, uids: list[object]) -> list[Rect | None]:
        """The movers' stored cloaks before an update — what a buddy
        query may have been watching.  Nothing is read from the private
        index while no buddy query is registered."""
        if not (self._live["kind"] == _BUDDY).any():
            return []
        index = self.casper.server.private_index
        return [index.rect_of(uid) if uid in index else None for uid in uids]

    def _mark_moved(
        self, uids: list[object], fresh: list[Rect], stale: list[Rect | None]
    ) -> None:
        """Dirty the queries a batch of moves can affect; ``fresh[i]`` is
        mover ``i``'s new stored region, ``stale`` the old ones.

        A safe-region kNN query is *not* dirtied while the fresh cloak
        stays inside its validity region — its stale candidate list is
        provably still exact there.  (The suppression counters are
        maintained by :meth:`flush`'s re-cloak scan, which sees each
        query exactly once per flush.)"""
        live = self._live
        owned = [
            (row, mover)
            for mover, uid in enumerate(uids)
            for row in self._rows_of_user.get(uid, ())
        ]
        if owned:
            rows = np.array([row for row, _ in owned])
            regions = rect_block([fresh[mover] for _, mover in owned])
            exited = (live["cloak"][rows] != regions).any(axis=1)
            exited &= ~contains_rects(live["validity"][rows], regions)
            live["dirty"][rows[exited]] = True
        buddies = np.flatnonzero(live["kind"] == _BUDDY)
        if len(buddies):
            probes = rect_block([r for r in (*stale, *fresh) if r is not None])
            touched = intersects_rects(probes[:, None], live["watch"][buddies])
            live["dirty"][buddies[touched.any(axis=0)]] = True

    def on_target_update(
        self, oid: object, new_position: Point | None,
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
        probes = rect_block(
            [Rect.point(p) for p in (old_position, new_position) if p is not None]
        )
        touched = intersects_rects(probes[:, None], self._live["watch"])
        self._live["dirty"] |= touched.any(axis=0)

    def mark_all_dirty(self) -> None:
        """Force every query to re-evaluate at the next flush.

        Escape hatch for out-of-band state changes the monitor has no
        hook for (profile edits, user registration/removal done directly
        on the Casper facade).
        """
        self._live["dirty"] = True

    # ------------------------------------------------------------------
    # Re-evaluation
    # ------------------------------------------------------------------
    def flush(self) -> list[AnswerChange]:
        """Re-evaluate every dirty query; returns the non-empty answer
        deltas (re-evaluations that changed nothing are suppressed).

        Before re-evaluating, every query's user is re-cloaked — one
        batch cloak — and a query whose cloak drifted out of its
        validity region is marked dirty: this catches cloak changes
        caused by *other* users' movement through the querying user's
        pyramid cells, so answers are fully consistent with a
        from-scratch evaluation at each flush boundary.

        A query whose user cannot be re-cloaked at all (departed,
        profile unsatisfiable, resilience ladder exhausted) keeps its
        previous answer — stale but never privacy-violating — and stays
        dirty until the user is back; such queries are reported in
        :attr:`last_degraded` and hold no other query up.
        """
        traced = _telemetry.active() is not None
        start = monotonic() if traced else 0.0
        live, counters = self._live, self.counters
        cloaks = self.casper.cloaks_for(live["uid"].tolist())
        cloaked = np.array([cloak is not None for cloak in cloaks], dtype=bool)
        fresh = np.full((len(live), 4), math.nan)
        fresh[cloaked] = rect_block(
            [cloak.region for cloak in cloaks if cloak is not None]
        )
        drifted = cloaked & (live["cloak"] != fresh).any(axis=1)
        # Safe-region suppression: the cloak drifted but stayed inside
        # the validity region, so the stale candidate list still refines
        # to the exact answer.
        absorbed = drifted & contains_rects(live["validity"], fresh)
        exited = drifted & ~absorbed
        live["dirty"] |= exited
        unsafe = np.isnan(live["validity"][:, 0])
        for name, event, mask in (
            ("suppressed", "suppressed", absorbed),
            ("validity_exits", "validity_exit", exited & ~unsafe),
        ):
            counters[name] += (count := int(mask.sum()))
            if count:
                _telemetry.count(_SAFE_REGION_EVENTS, event, n=count)
        # Evaluation order is by the printed id, whatever the row order.
        dirty = sorted(
            np.flatnonzero(live["dirty"] & cloaked).tolist(),
            key=lambda row: str(live["id"][row]),
        )
        # Dirty nn/range queries go through the server's batch engine:
        # queries whose users share a cloak (one crowded cell going
        # dirty at once) collapse to a single processor execution.
        batched = [row for row in dirty if live["kind"][row] in (_NN, _RANGE)]
        requests = [self._request(row, cloaks[row].region) for row in batched]
        served = dict(zip(batched, self.casper.server.run_batch(requests)))
        changes: list[AnswerChange] = []
        for row in dirty:
            lifetime = counters["ticks"] - int(live["eval_tick"][row])
            change = self._evaluate(row, cloaks[row].region, served.get(row))
            counters["evaluations"] += 1
            if live["kind"][row] == _KNN:
                counters["knn_evaluations"] += 1
                if live["safe"][row]:
                    self.validity_lifetimes.append(lifetime)
                    _telemetry.count(_SAFE_REGION_EVENTS, "evaluation")
                    _telemetry.observe(
                        "casper_monitor_validity_lifetime_ticks", lifetime
                    )
            if change.changed:
                changes.append(change)
        if traced:
            _telemetry.count("casper_monitor_flushes_total")
            _telemetry.count("casper_monitor_reevaluations_total", n=len(dirty))
            _telemetry.count("casper_monitor_answer_changes_total", n=len(changes))
            _telemetry.observe("casper_monitor_flush_seconds", monotonic() - start)
        # Degraded queries stay dirty: they re-evaluate as soon as their
        # user is back and a fresh cloak exists again.
        live["dirty"] = ~cloaked
        self.last_degraded = frozenset(live["id"][~cloaked].tolist())
        return changes

    def answer_of(self, query_id: object) -> frozenset:
        """The current (last flushed) answer set of a query."""
        return frozenset(self._table["candidates"][self._row_of[query_id]].items.ids)

    def candidates_of(self, query_id: object) -> CandidateList:
        """The last candidate list served for a query — what the client
        refines against its exact position.  For a safe-region kNN query
        this may be *stale* (computed for an earlier cloak), which is
        the point: while the cloak stays inside the validity region the
        refinement is provably identical to a fresh re-query."""
        return self._table["candidates"][self._row_of[query_id]]

    def validity_of(self, query_id: object) -> Rect | None:
        """The current validity region of a safe-region kNN query
        (``None`` for other kinds, oracle-mode kNN and degraded
        registrations)."""
        validity = self._table["validity"][self._row_of[query_id]].tolist()
        return None if math.isnan(validity[0]) else Rect(*validity)

    @property
    def mean_validity_lifetime(self) -> float:
        """Mean ticks a validity region survived before re-evaluation
        (0.0 until the first safe-region re-evaluation happens)."""
        if not self.validity_lifetimes:
            return 0.0
        return sum(self.validity_lifetimes) / len(self.validity_lifetimes)

    def _request(self, row: int, cloak: Rect) -> BatchRequest:
        """The processor request of an ``nn`` / ``range`` query."""
        query = self._table[row]
        return BatchRequest(
            f"{_KINDS[query['kind']]}_public", cloak,
            num_filters=int(query["num_filters"]), radius=float(query["param"]),
        )

    def _evaluate(
        self, row: int, cloak: Rect, served: CandidateList | None = None
    ) -> AnswerChange:
        """Serve the query of ``row`` at ``cloak`` and move its state
        there; ``served`` is the candidate list when a batch already
        holds it.

        nn / range queries are plain processor requests.  Buddy queries
        exclude the requester's own record, so each one runs against a
        momentarily different index; kNN queries need the validity /
        watch geometry a candidate list does not carry — both keep their
        dedicated server calls and stay un-batched.
        """
        server, query = self.casper.server, self._table[row]
        num_filters = int(query["num_filters"])
        if query["kind"] == _KNN:
            if not query["safe"]:
                margin = 0.0  # oracle mode: plain snapshot kNN geometry
            elif not math.isnan(query["param"]):
                margin = float(query["param"])
            else:
                margin = default_margin(cloak, self.validity_margin_factor)
            result = server.knn_public_with_validity(
                cloak, int(query["k"]), num_filters, margin
            )
            candidates = result.candidates
            # A clamped k (fewer targets than requested) makes any insert
            # anywhere answer-changing; watch the whole service area then.
            watch = (
                self.casper.bounds
                if result.clamped
                else result.watch_region.clipped_to(self.casper.bounds)
            )
            if query["safe"]:
                query["validity"] = result.validity.as_tuple()
        else:
            if served is not None:
                candidates = served
            elif query["kind"] == _BUDDY:
                candidates = server.nn_private(
                    cloak, num_filters, exclude=query["uid"]
                )
            else:
                (candidates,) = server.run_batch([self._request(row, cloak)])
            watch = candidates.search_region
        old_answer = frozenset(query["candidates"].items.ids)
        new_answer = frozenset(candidates.items.ids)
        change = AnswerChange(
            query_id=query["id"],
            added=new_answer - old_answer,
            removed=old_answer - new_answer,
            candidates=candidates,
        )
        query["cloak"] = cloak.as_tuple()
        query["watch"] = watch.as_tuple()
        query["candidates"] = candidates
        query["eval_tick"] = self.counters["ticks"]
        return change
