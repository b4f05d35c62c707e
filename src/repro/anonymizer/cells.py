"""Pyramid cell arithmetic.

Both location anonymizers hierarchically decompose the service area into
a complete pyramid [Tanimoto & Pavlidis 1975]: level ``h`` contains
``4**h`` grid cells, the root (level 0) is the whole space.  A cell is
addressed ``CellId(level, ix, iy)`` with ``0 <= ix, iy < 2**level``;
``iy`` grows upward.

The neighbour notion is the paper's (Section 4.1): two cells are
neighbours only when they share a parent *and* a row (horizontal
neighbour) or a column (vertical neighbour) — so each cell has exactly
one of each, reachable by flipping the low bit of one coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OutOfBoundsError
from repro.geometry import Point, Rect

__all__ = ["CellId", "CellGrid"]


@dataclass(frozen=True, slots=True)
class CellId:
    """A pyramid cell address: ``(level, ix, iy)``."""

    level: int
    ix: int
    iy: int

    def __post_init__(self) -> None:
        side = 1 << self.level
        if self.level < 0 or not (0 <= self.ix < side and 0 <= self.iy < side):
            raise ValueError(f"invalid cell id {self}")

    @classmethod
    def _trusted(cls, level: int, ix: int, iy: int) -> "CellId":
        """Construct without re-validating — for internal arithmetic
        whose results are valid by construction (hierarchy walks,
        clamped point location).  The public constructor keeps its
        ``__post_init__`` check; anything built from external input must
        go through it.
        """
        cell = object.__new__(cls)
        object.__setattr__(cell, "level", level)
        object.__setattr__(cell, "ix", ix)
        object.__setattr__(cell, "iy", iy)
        return cell

    # ------------------------------------------------------------------
    # Hierarchy
    # ------------------------------------------------------------------
    @property
    def is_root(self) -> bool:
        return self.level == 0

    def parent(self) -> "CellId":
        """The covering cell one level up; raises at the root."""
        if self.level == 0:
            raise ValueError("root cell has no parent")
        return CellId._trusted(self.level - 1, self.ix >> 1, self.iy >> 1)

    def children(self) -> tuple["CellId", "CellId", "CellId", "CellId"]:
        """The four covered cells one level down."""
        level = self.level + 1
        x, y = self.ix << 1, self.iy << 1
        return (
            CellId._trusted(level, x, y),
            CellId._trusted(level, x + 1, y),
            CellId._trusted(level, x, y + 1),
            CellId._trusted(level, x + 1, y + 1),
        )

    def ancestor(self, level: int) -> "CellId":
        """The ancestor at the given (shallower or equal) level."""
        if not 0 <= level <= self.level:
            raise ValueError(f"level {level} not an ancestor level of {self}")
        shift = self.level - level
        return CellId._trusted(level, self.ix >> shift, self.iy >> shift)

    def is_ancestor_of(self, other: "CellId") -> bool:
        """True when ``other`` lies inside this cell (or equals it)."""
        return other.level >= self.level and other.ancestor(self.level) == self

    # ------------------------------------------------------------------
    # Neighbours (paper semantics: same parent only)
    # ------------------------------------------------------------------
    def horizontal_neighbor(self) -> "CellId":
        """The same-parent sibling in the same row; raises at the root."""
        if self.level == 0:
            raise ValueError("root cell has no neighbors")
        return CellId._trusted(self.level, self.ix ^ 1, self.iy)

    def vertical_neighbor(self) -> "CellId":
        """The same-parent sibling in the same column; raises at the root."""
        if self.level == 0:
            raise ValueError("root cell has no neighbors")
        return CellId._trusted(self.level, self.ix, self.iy ^ 1)

    def siblings(self) -> tuple["CellId", "CellId", "CellId"]:
        """The other three cells sharing this cell's parent."""
        h = self.horizontal_neighbor()
        v = self.vertical_neighbor()
        d = CellId._trusted(self.level, self.ix ^ 1, self.iy ^ 1)
        return (h, v, d)


class CellGrid:
    """Maps between space and pyramid cells for a fixed service area."""

    def __init__(self, bounds: Rect, height: int) -> None:
        """``height`` is the deepest pyramid level (the paper's ``H``);
        a pyramid "with 9 levels" in the experiments is ``height=9``
        (levels 0..9 exist, level 9 is the lowest)."""
        if height < 0:
            raise ValueError("height must be non-negative")
        if bounds.area <= 0:
            raise ValueError("bounds must have positive area")
        self.bounds = bounds
        self.height = height
        #: :meth:`cell_area` of every level, root first, computed once.
        self.areas = tuple(map(self.cell_area, range(height + 1)))

    # ------------------------------------------------------------------
    # Geometry of cells
    # ------------------------------------------------------------------
    def cell_area(self, level: int) -> float:
        """Area of any cell at ``level``."""
        return self.bounds.area / float(4**level)

    def cell_rect(self, cell: CellId) -> Rect:
        """The spatial extent of ``cell``."""
        side = 1 << cell.level
        w = self.bounds.width / side
        h = self.bounds.height / side
        x0 = self.bounds.x_min + cell.ix * w
        y0 = self.bounds.y_min + cell.iy * h
        return Rect(x0, y0, x0 + w, y0 + h)

    def pair_rect(self, a: CellId, b: CellId) -> Rect:
        """The union rectangle of two sibling cells (Algorithm 1's
        combined cloaked region)."""
        return self.cell_rect(a).union(self.cell_rect(b))

    # ------------------------------------------------------------------
    # Point location
    # ------------------------------------------------------------------
    def contains(self, point: Point) -> bool:
        """Whether ``point`` can be located (inside the service area,
        within the package's geometric tolerance): :meth:`cell_of`
        refuses exactly the points this rejects, so a batch path that
        must know *beforehand* which moves a pyramid will refuse asks
        here.  ``soa.points_in_rect`` is the array form."""
        return self.bounds.contains_point(point)

    def cell_of(self, point: Point, level: int | None = None) -> CellId:
        """The cell containing ``point`` at ``level`` (default: lowest).

        Points on shared cell borders belong to the cell on their
        upper-right side, except on the space's outer border where they
        are clamped inward — every in-bounds point maps to exactly one
        cell.
        """
        if level is None:
            level = self.height
        if not 0 <= level <= self.height:
            raise ValueError(f"level {level} outside pyramid of height {self.height}")
        if not self.contains(point):
            # the offending coordinates stay out of the message: exception
            # strings travel (RE_ERROR wire replies, logs at the caller)
            raise OutOfBoundsError("point outside service area")
        side = 1 << level
        fx = (point.x - self.bounds.x_min) / self.bounds.width
        fy = (point.y - self.bounds.y_min) / self.bounds.height
        ix = min(max(int(fx * side), 0), side - 1)
        iy = min(max(int(fy * side), 0), side - 1)
        # Clamping guarantees validity, so the trusted path is exact.
        return CellId._trusted(level, ix, iy)

    def path_to_root(self, cell: CellId) -> list[CellId]:
        """``cell`` and all its ancestors, deepest first, root last."""
        path = [cell]
        while not path[-1].is_root:
            path.append(path[-1].parent())
        return path

    def common_ancestor_level(self, a: CellId, b: CellId) -> int:
        """The deepest level at which ``a`` and ``b`` share an ancestor.

        Both cells must be at the same level.  A location update that
        moves a user from cell ``a`` to cell ``b`` must touch counters on
        both branches strictly below this level.
        """
        if a.level != b.level:
            raise ValueError("cells must be at the same level")
        level, ix_a, iy_a, ix_b, iy_b = a.level, a.ix, a.iy, b.ix, b.iy
        while ix_a != ix_b or iy_a != iy_b:
            ix_a >>= 1
            iy_a >>= 1
            ix_b >>= 1
            iy_b >>= 1
            level -= 1
        return level
