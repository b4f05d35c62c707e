"""A mobile client's view of Casper.

``MobileClient`` models the device side: it owns the exact location,
reports it (to the trusted anonymizer inside the :class:`Casper`
facade), and evaluates queries locally over the candidate lists the
server returns.  Applications in ``examples/`` are written against this
class.
"""

from __future__ import annotations

from repro.anonymizer import PrivacyProfile
from repro.geometry import Point
from repro.messages import PrivateQueryResult
from repro.server.casper import Casper

__all__ = ["MobileClient"]


class MobileClient:
    """One registered mobile user."""

    def __init__(
        self,
        casper: Casper,
        uid: object,
        location: Point,
        profile: PrivacyProfile,
    ) -> None:
        self.casper = casper
        self.uid = uid
        self._location = location
        self.profile = profile
        # Per-user monotone sequence number for location updates: the
        # anonymizer applies each sequence at most once, which is what
        # makes retransmissions and reordered deliveries idempotent.
        # Registration itself uses the trusted in-process path (the
        # bootstrap handshake is assumed reliable).
        self._seq = 0
        casper.register_user(uid, location, profile)

    # ------------------------------------------------------------------
    # Device-side state
    # ------------------------------------------------------------------
    @property
    def location(self) -> Point:
        """The exact location — known to the device and the trusted
        anonymizer, never to the database server."""
        return self._location

    @property
    def seq(self) -> int:
        """The last sequence number this client sent."""
        return self._seq

    def move_to(self, point: Point) -> str:
        """Report a location update; returns the delivery outcome.

        Every report goes through :meth:`Casper.submit_location_update`
        under the next sequence number: on a fault-free deployment that
        is the lossless in-process path (always ``"applied"``).  Under a
        resilience runtime the update
        travels the faulty channel with retries; an exhausted retry
        budget raises :class:`~repro.errors.UpdateDeliveryError` — the
        device keeps its new location either way and simply reports it
        again on the next movement (a later sequence number supersedes
        the lost one).
        """
        self._location = point
        self._seq += 1
        return self.casper.submit_location_update(
            self.uid, point, self._seq, self.profile
        )

    def change_profile(self, profile: PrivacyProfile) -> None:
        """Adjust the personal privacy / quality-of-service trade-off."""
        self.profile = profile
        self.casper.set_profile(self.uid, profile)

    def leave(self) -> None:
        """Unsubscribe from the service."""
        self.casper.remove_user(self.uid)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nearest_public(self, num_filters: int = 4) -> PrivateQueryResult:
        """Ask for the nearest public target (e.g. gas station)."""
        return self.casper.query_nearest_public(self.uid, num_filters)

    def nearest_buddy(self, num_filters: int = 4) -> PrivateQueryResult:
        """Ask for the nearest other private user."""
        return self.casper.query_nearest_private(self.uid, num_filters)

    def publics_within(self, radius: float) -> PrivateQueryResult:
        """Ask for all public targets within ``radius``."""
        return self.casper.query_range_public(self.uid, radius)
