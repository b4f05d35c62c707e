"""The cloaking-policy protocol and registry.

A *cloaking policy* is one algorithm for blurring user locations — the
paper's basic and adaptive pyramid cloakers, or a related-work baseline.
Every policy registers a :class:`PolicySpec` here, and every deployment
seam resolves policies by name through :func:`get_policy`:

* ``Casper(policy="adaptive")`` — the trusted-server facade;
* ``make_sharded(kind=...)`` — in-process sharded deployments;
* the parallel runtime's worker spawn configs
  (``sharding/workers.py``), which rebuild replicas by policy name on
  the far side of a process boundary;
* the chaos/bench CLIs, whose ``--anonymizer`` choices are
  :func:`available_policies`.

A new cloaker is therefore one module: compose
:class:`repro.anonymizer.engine.PyramidEngine` — which brings the
population (one :class:`~repro.anonymizer.soa.UserTable` row per user,
one admission rule) and its whole surface — add ``cloak`` /
``cloak_location`` and whatever the algorithm maintains, register a
spec, and every harness — sharding, process parallelism, resilience,
conformance tests — picks it up by name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Protocol,
    runtime_checkable,
)

if TYPE_CHECKING:
    from repro.anonymizer.cloak import CloakedRegion
    from repro.anonymizer.profile import PrivacyProfile
    from repro.anonymizer.soa import UserTable
    from repro.anonymizer.stats import MaintenanceStats
    from repro.geometry import Point, Rect

__all__ = [
    "CloakingPolicy",
    "PolicySpec",
    "available_policies",
    "get_policy",
    "register_policy",
]


@runtime_checkable
class CloakingPolicy(Protocol):
    """What every deployment seam requires of a cloaking algorithm.

    This is the single-instance surface; sharded/parallel deployments
    wrap it (``repro.sharding.replicated``) without the policy's
    involvement.
    """

    stats: MaintenanceStats
    #: The population, one row per user; sharded wrappers read a user's
    #: home shard off its ``cells`` column.
    table: UserTable

    @property
    def bounds(self) -> Rect: ...

    @property
    def num_users(self) -> int: ...

    def __contains__(self, uid: object) -> bool: ...

    def register(
        self, uid: object, point: Point, profile: PrivacyProfile
    ) -> None: ...

    def deregister(self, uid: object) -> None: ...

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None: ...

    def update(self, uid: object, point: Point) -> int: ...

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]: ...

    def cloak(self, uid: object) -> CloakedRegion: ...

    def cloak_many(
        self, uids: Iterable[object], unsatisfiable: CloakedRegion | None = None
    ) -> list[CloakedRegion]: ...

    def cloak_location(
        self, point: Point, profile: PrivacyProfile
    ) -> CloakedRegion: ...

    def profile_of(self, uid: object) -> PrivacyProfile: ...

    def location_of(self, uid: object) -> Point: ...

    def users_in_rect(self, rect: Rect) -> int: ...

    def snapshot(self) -> object: ...

    def restore(self, state: object) -> None: ...

    def check_invariants(self) -> None: ...


# The factory signature (positional): one in-process instance from
# (bounds, height, cloak_cache_size).
SingleFactory = Callable[["Rect", int, int], CloakingPolicy]


@dataclass(frozen=True)
class PolicySpec:
    """Registry entry for one cloaking policy.

    ``block_local`` says that a cloak reads only the user's level-``S``
    block (``S`` the shard router's block level) plus cells at or above
    level ``S`` — true of the complete pyramid, whose Algorithm 1 climbs
    from the user's own lowest-level cell.  It is the worker pool's
    traffic rule: a move that stays inside its block then changes
    nothing another shard's cloaks read, so it goes to its home worker
    alone; every other mutation, and every mutation of a policy without
    the property (the adaptive pyramid, whose cut is shaped by global
    counts, and every baseline), is broadcast.  Every deployment wraps
    the same single instance either way
    (``repro.sharding.replicated``).

    ``check_height`` raises ``ValueError`` for pyramid heights the
    policy cannot hold; the constructors run it themselves, and the
    parallel runtime runs it in the parent so a bad height never
    reaches a worker process.
    """

    name: str
    single: SingleFactory
    block_local: bool = False
    description: str = ""
    check_height: Callable[[int], None] | None = None


_REGISTRY: dict[str, PolicySpec] = {}
_builtins_loaded = False


def _dropping_retired_selector(factory: SingleFactory) -> SingleFactory:
    """``benchmarks/service`` is frozen by ``BENCHMARK.json`` and still
    calls ``spec.single(bounds, height, cache_size, None)``: the fourth
    positional was the retired pyramid-backend selector.  Accept and
    drop it, here only, until that harness can be edited."""

    def build(
        bounds: Rect, height: int, cloak_cache_size: int, _retired: None = None
    ) -> CloakingPolicy:
        return factory(bounds, height, cloak_cache_size)

    return build


def register_policy(spec: PolicySpec) -> PolicySpec:
    """Add a policy to the registry; names are unique."""
    if spec.name in _REGISTRY:
        raise ValueError(f"policy {spec.name!r} is already registered")
    spec = replace(spec, single=_dropping_retired_selector(spec.single))
    _REGISTRY[spec.name] = spec
    return spec


def _load_builtins() -> None:
    # The built-in policies register on import; deferred so importing
    # repro.anonymizer.policy alone never drags in numpy-heavy modules.
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        import repro.anonymizer.policies  # noqa: F401


def get_policy(name: str) -> PolicySpec:
    """Resolve a policy by name; raises ``ValueError`` for unknowns."""
    _load_builtins()
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown anonymizer kind {name!r} (registered policies: {known})"
        )
    return spec


def available_policies() -> tuple[str, ...]:
    """All registered policy names, sorted."""
    _load_builtins()
    return tuple(sorted(_REGISTRY))
