"""The adaptive (incomplete-pyramid) cloaking policy — Section 4.2.

Registry entry only.  The policy *is*
:class:`~repro.anonymizer.adaptive.AdaptiveAnonymizer`: a quadtree cut
on integer cell keys over one user table, split and merged by two
gates that read the table's columns, with a batch update that writes
quiet stretches of moves ahead.  The cut is reshaped from *global*
counts, so it has no partitioned form — sharded deployments run whole
replicas behind :mod:`repro.sharding.replicated`.  The dict walk over
``CellId`` it replaced lives on as the test oracle
(``tests/reference_pyramid.py``).
"""

from __future__ import annotations

from repro.anonymizer.policy import CloakingPolicy, PolicySpec, register_policy
from repro.geometry import Rect

__all__: list[str] = []


def _single(bounds: Rect, height: int, cloak_cache_size: int) -> CloakingPolicy:
    from repro.anonymizer.adaptive import AdaptiveAnonymizer

    return AdaptiveAnonymizer(bounds, height, cloak_cache_size)


register_policy(
    PolicySpec(
        name="adaptive",
        single=_single,
        description="Incomplete pyramid with cell splitting/merging (Section 4.2)",
    )
)
