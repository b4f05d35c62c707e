"""Cloak-result memoization with generation-counter invalidation.

Algorithm 1 is a pure function of the start cell, the privacy profile's
``(k, A_min)``, and the pyramid counters it reads on the way up.  Under
real workloads those inputs repeat constantly — every user in the same
lowest-level cell with the same profile produces the *same* cloak, and a
continuous monitor re-cloaks every registered user on every flush — so
both anonymizers memoize ``bottom_up_cloak`` behind this cache, through
the one memo path ``PyramidEngine._memoized``.

Correctness rests on two counters:

* every pyramid cell has a **generation** that its owning anonymizer
  bumps whenever the cell's population count changes (any counter delta
  along a register/update/deregister path, and any adaptive split/merge
  that materialises or dissolves the cell).  A cache entry records the
  generation of every cell Algorithm 1 read; the entry is served only
  while all of those generations are unchanged, so a stale cloak can
  never escape.
* the anonymizer-wide **mutation epoch** increments on any mutation at
  all.  A cache entry revalidated at the current epoch skips the
  per-cell check entirely, making the common case — many cloaks between
  mutations, e.g. co-located users cloaking back to back — a single
  dict probe.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.anonymizer.cloak import CloakedRegion
from repro.observability import runtime as _telemetry

__all__ = ["CloakCache"]

#: A host's verdict on one entry, ``(key, snapshot)``: are the
#: generations it snapshotted all still current?  The cache never looks
#: inside a key or a snapshot — both are the host's.
FreshFn = Callable[[Any, tuple[int, ...]], bool]

_EVENTS = "casper_cloak_cache_events_total"


class _Entry:
    __slots__ = ("region", "snapshot", "epoch")

    def __init__(
        self, region: CloakedRegion, snapshot: tuple[int, ...], epoch: int
    ) -> None:
        self.region = region
        self.snapshot = snapshot
        self.epoch = epoch


class CloakCache:
    """LRU store of Algorithm 1's cloaks; it computes nothing itself.

    A key names ``(start, k, A_min)`` as plain numbers — the start is
    the complete pyramid's leaf Morton code or the adaptive cut's leaf
    key — and a value remembers the cloak plus a snapshot: the
    generations of the counts the computation read, in read order (the
    cells follow from the start, so a snapshot is a tuple of ints).
    The host computes a miss (``PyramidEngine._memoized``: the scalar
    walk or the batch kernel) and judges a snapshot (``_fresh``).
    ``capacity=0`` disables caching entirely (every call recomputes —
    used by benchmarks to measure the uncached path): such a cache is
    never probed.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every cached cloak (counters are kept)."""
        self._entries.clear()

    def holds(self, key: Hashable, epoch: int, fresh: FreshFn) -> bool:
        """Whether :meth:`lookup` would serve ``key`` — asked ahead of
        a batch's rows: no counter moves, the LRU order stands and a
        stale entry stays for ``lookup`` to drop.  The one write is
        ``lookup``'s own: an entry ``fresh`` passes is re-dated to
        ``epoch`` (its generations were just found current at it; a
        later mutation moves the epoch on), so its row's turn is one
        compare."""
        entry = self._entries.get(key)
        if entry is None or not (entry.epoch == epoch or fresh(key, entry.snapshot)):
            return False
        entry.epoch = epoch
        return True

    def lookup(
        self, key: Hashable, epoch: int, fresh: FreshFn
    ) -> CloakedRegion | None:
        """The cloak cached under ``key`` if it is current (a hit),
        else ``None`` — a miss, which the caller computes and hands to
        :meth:`store`; a stale entry is dropped on the way (an
        invalidation).  ``epoch`` is the host's mutation epoch: an
        entry stored or served at this very epoch is current without a
        look; otherwise ``fresh`` judges its snapshot."""
        entry = self._entries.get(key)
        if entry is not None:
            if entry.epoch == epoch or fresh(key, entry.snapshot):
                entry.epoch = epoch
                self.hits += 1
                self._entries.move_to_end(key)
                _telemetry.count(_EVENTS, "hit")
                return entry.region
            del self._entries[key]
            self.invalidations += 1
            _telemetry.count(_EVENTS, "invalidation")
        self.misses += 1
        _telemetry.count(_EVENTS, "miss")
        return None

    def store(
        self,
        key: Hashable,
        region: CloakedRegion,
        snapshot: tuple[int, ...],
        epoch: int,
    ) -> None:
        """Remember the cloak a :meth:`lookup` missed, evicting the
        least recently served entry beyond ``capacity``."""
        self._entries[key] = _Entry(region, snapshot, epoch)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            _telemetry.count(_EVENTS, "eviction")

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
