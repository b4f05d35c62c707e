"""Maintenance-cost accounting for the location anonymizers.

Figures 10b, 11b and 12b report the *average number of (counter) updates
per location update* for the basic and adaptive anonymizers.  The
anonymizers increment these counters on every structural operation so the
experiment harness can read the exact quantities the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

__all__ = ["MaintenanceStats"]


@dataclass
class MaintenanceStats:
    """Cumulative maintenance counters.

    ``counter_updates`` counts individual cell-counter increments or
    decrements (the paper's "updates").  Cell splits and merges of the
    adaptive anonymizer contribute their touched cells to
    ``counter_updates`` as well, so the comparison between basic and
    adaptive includes the adaptive structure's restructuring overhead, as
    in the paper's discussion of Figure 10b.
    """

    location_updates: int = 0
    counter_updates: int = 0
    cell_changes: int = 0
    splits: int = 0
    merges: int = 0
    registrations: int = 0
    deregistrations: int = 0
    cloak_requests: int = 0

    @property
    def updates_per_location_update(self) -> float:
        """The paper's Figure 10b/11b/12b metric."""
        if self.location_updates == 0:
            return 0.0
        return self.counter_updates / self.location_updates

    def add_moves(self, costs: npt.NDArray[np.int64]) -> None:
        """Account a batch of location updates by their per-move costs
        (0 for a move that stayed in its cell)."""
        self.location_updates += len(costs)
        self.counter_updates += int(costs.sum())
        self.cell_changes += int(np.count_nonzero(costs))

    def reset(self) -> None:
        """Zero all counters (e.g. after a warm-up phase)."""
        self.location_updates = 0
        self.counter_updates = 0
        self.cell_changes = 0
        self.splits = 0
        self.merges = 0
        self.registrations = 0
        self.deregistrations = 0
        self.cloak_requests = 0
