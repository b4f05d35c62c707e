"""User privacy profiles.

A Casper privacy profile is the tuple ``(k, A_min)`` of Section 3: the
user wants to be indistinguishable among at least ``k`` users, inside a
cloaked region of area at least ``A_min``.  ``k = 1`` and ``A_min = 0``
is the fully relaxed profile (no privacy demanded); larger values are
stricter.  Users may change their profile at any time (the *flexibility*
requirement of Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidProfileError

__all__ = ["PrivacyProfile", "PUBLIC_PROFILE"]


@dataclass(frozen=True, slots=True)
class PrivacyProfile:
    """The ``(k, A_min)`` privacy requirement of one user.

    Parameters
    ----------
    k:
        Minimum anonymity set size; at least 1.
    a_min:
        Minimum cloaked-region area, in squared space units (the
        experiments express it as a fraction of the service area and
        convert); non-negative.
    """

    k: int = 1
    a_min: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidProfileError(f"k must be >= 1, got {self.k}")
        if self.a_min < 0:
            raise InvalidProfileError(f"a_min must be >= 0, got {self.a_min}")

    def is_satisfied_by(self, count: int, area: float) -> bool:
        """True when a region holding ``count`` users with ``area`` meets
        this profile."""
        return count >= self.k and area >= self.a_min - 1e-15

    def is_public(self) -> bool:
        """True for the fully relaxed profile — the data may be stored as
        an exact location (Section 5's *public data*)."""
        return self.k <= 1 and self.a_min <= 0.0

    def at_least_as_relaxed_as(self, other: "PrivacyProfile") -> bool:
        """Partial order: this profile is satisfied whenever ``other`` is."""
        return self.k <= other.k and self.a_min <= other.a_min


#: The profile of data that requires no protection at all.
PUBLIC_PROFILE = PrivacyProfile(k=1, a_min=0.0)
