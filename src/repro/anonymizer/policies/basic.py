"""The basic (complete-pyramid) cloaking policy — Section 4.1.

Registry entry only.  The policy *is*
:class:`~repro.anonymizer.basic.BasicAnonymizer`: one complete pyramid
of per-level Morton-indexed counters plus one user table, maintained by
array kernels that update whole ancestor chains without per-cell
dispatch.  Its partitioned deployment
(:class:`~repro.sharding.basic.ShardedBasicAnonymizer`) is the same
class with per-shard cloak caches and epochs on top, not a second
store.  The per-cell walk both replaced lives on as the test oracle
(``tests/reference_pyramid.py``), which the differential suites pin the
kernels against.
"""

from __future__ import annotations

from repro.anonymizer.policy import CloakingPolicy, PolicySpec, register_policy
from repro.anonymizer.soa import check_soa_height
from repro.geometry import Rect

__all__: list[str] = []


def _single(bounds: Rect, height: int, cloak_cache_size: int) -> CloakingPolicy:
    from repro.anonymizer.basic import BasicAnonymizer

    return BasicAnonymizer(bounds, height, cloak_cache_size)


def _sharded(
    bounds: Rect, height: int, num_shards: int, cloak_cache_size: int
) -> object:
    from repro.sharding.basic import ShardedBasicAnonymizer

    return ShardedBasicAnonymizer(
        bounds,
        height=height,
        num_shards=num_shards,
        cloak_cache_size=cloak_cache_size,
    )


register_policy(
    PolicySpec(
        name="basic",
        single=_single,
        sharded=_sharded,
        check_height=check_soa_height,
        description="Complete pyramid of per-cell counters (Section 4.1)",
    )
)
