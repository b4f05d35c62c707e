"""Built-in cloaking policies.

Importing this package registers every built-in policy with the
registry in :mod:`repro.anonymizer.policy` (the registry does this
lazily on first lookup).  Each submodule is one policy's
:class:`PolicySpec`; a baseline's module holds its algorithm too, while
the two pyramids' live in their anonymizer classes.

* :mod:`~repro.anonymizer.policies.basic` — complete pyramid (§4.1);
* :mod:`~repro.anonymizer.policies.adaptive` — incomplete pyramid with
  splitting/merging (§4.2);
* :mod:`~repro.anonymizer.policies.interval` /
  :mod:`~repro.anonymizer.policies.clique` /
  :mod:`~repro.anonymizer.policies.temporal` — the related-work
  baselines on the protocol; the two published behaviours that have no
  standalone ``cloak(uid)`` form — the request-batched clique search
  (:class:`CliqueCloak`) and the delay-until-``k`` model
  (:class:`TemporalCloak`) — live beside their ports.

Policy implementations may touch pyramid state only through the engine
and mixin hook APIs — casperlint rule CSP014 enforces that no module
under this package mutates another object's underscore attributes
directly.
"""

from repro.anonymizer.policies import basic as _basic  # noqa: F401  (registers "basic")
from repro.anonymizer.policies import adaptive as _adaptive  # noqa: F401  (registers "adaptive")
from repro.anonymizer.policies.clique import CliqueCloak, CliquePolicy, CliqueRequest
from repro.anonymizer.policies.interval import IntervalPolicy
from repro.anonymizer.policies.temporal import (
    TemporalCloak,
    TemporalCloakResult,
    TemporalPolicy,
)

__all__ = [
    "CliqueCloak",
    "CliquePolicy",
    "CliqueRequest",
    "IntervalPolicy",
    "TemporalCloak",
    "TemporalCloakResult",
    "TemporalPolicy",
]
