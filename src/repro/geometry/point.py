"""Integer lattice points used throughout the geometry kernel.

Layouts are stored in integer database units (1 dbu = 1 nm by default in this
library), which mirrors how mask data is exchanged in practice (GDSII streams
carry integer coordinates).  Working on the integer lattice keeps every
predicate exact: there is no epsilon tuning anywhere in the conflict-edge or
stitch-candidate construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple


@dataclass(frozen=True, order=True, slots=True)
class Point:
    """A point on the integer layout grid.

    Attributes
    ----------
    x, y:
        Coordinates in database units.
    """

    x: int
    y: int

    def __iter__(self) -> Iterator[int]:
        yield self.x
        yield self.y

    def as_tuple(self) -> Tuple[int, int]:
        """Return the point as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)

    def translated(self, dx: int, dy: int) -> "Point":
        """Return a copy shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def manhattan_distance(self, other: "Point") -> int:
        """Return the L1 distance to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def euclidean_distance(self, other: "Point") -> float:
        """Return the L2 distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance(self, other: "Point") -> int:
        """Return the squared L2 distance (exact, integer)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy


def as_point(value) -> Point:
    """Coerce ``value`` into a :class:`Point`.

    Accepts an existing :class:`Point` or any length-2 iterable of numbers.
    Coordinates are rounded to the nearest integer database unit.
    """
    if isinstance(value, Point):
        return value
    x, y = value
    return Point(int(round(x)), int(round(y)))
