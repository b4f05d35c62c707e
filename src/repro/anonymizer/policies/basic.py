"""The basic (complete-pyramid) cloaking policy — Section 4.1.

Registry entry only.  The policy *is*
:class:`~repro.anonymizer.basic.BasicAnonymizer`: one complete pyramid
of per-level Morton-indexed counters plus one user table, maintained by
array kernels that update whole ancestor chains without per-cell
dispatch.  Its cloaks read only the user's level-``S`` block and the
cells at or above it, so it is the one ``block_local`` policy: on the
worker pool a move confined to its block goes to its home worker
alone.  The per-cell walk the kernels replaced lives on as the test
oracle (``tests/reference_pyramid.py``), which the differential suites
pin the kernels against.
"""

from __future__ import annotations

from repro.anonymizer.policy import CloakingPolicy, PolicySpec, register_policy
from repro.anonymizer.soa import check_soa_height
from repro.geometry import Rect

__all__: list[str] = []


def _single(bounds: Rect, height: int, cloak_cache_size: int) -> CloakingPolicy:
    from repro.anonymizer.basic import BasicAnonymizer

    return BasicAnonymizer(bounds, height, cloak_cache_size)


register_policy(
    PolicySpec(
        name="basic",
        single=_single,
        block_local=True,
        check_height=check_soa_height,
        description="Complete pyramid of per-cell counters (Section 4.1)",
    )
)
