"""Rectilinear polygons and their decomposition into rectangles.

The benchmark layouts (Metal1 wires, contacts) are Manhattan shapes.  Each
polygon is decomposed once into horizontal slabs of axis-aligned rectangles;
all spacing queries and stitch-candidate projections then operate on the slab
set, which keeps the geometric predicates exact on the integer grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import GeometryError
from repro.geometry.point import Point, as_point
from repro.geometry.rect import Rect, bounding_box, merge_touching_rects


@dataclass(frozen=True, slots=True)
class Polygon:
    """A simple rectilinear polygon given by its outline vertices.

    The outline must alternate horizontal and vertical edges (Manhattan
    geometry) and must not self-intersect.  Vertices may be listed clockwise
    or counter-clockwise; closing the loop explicitly (repeating the first
    vertex) is accepted and normalised away.
    """

    vertices: Tuple[Point, ...]
    _rects: Tuple[Rect, ...] = field(default=(), compare=False, repr=False)

    # -------------------------------------------------------------- factory
    @staticmethod
    def from_points(points: Iterable) -> "Polygon":
        """Build a polygon from an iterable of points or ``(x, y)`` pairs."""
        verts = [as_point(p) for p in points]
        if len(verts) >= 2 and verts[0] == verts[-1]:
            verts = verts[:-1]
        if len(verts) < 4:
            raise GeometryError(
                f"a rectilinear polygon needs at least 4 vertices, got {len(verts)}"
            )
        _check_rectilinear(verts)
        return Polygon(tuple(verts))

    @staticmethod
    def from_rect(rect: Rect) -> "Polygon":
        """Build the polygon outline of a rectangle."""
        return Polygon(tuple(rect.corners()))

    # ------------------------------------------------------------ geometry
    @property
    def bbox(self) -> Rect:
        """Bounding box of the outline."""
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    @property
    def area(self) -> int:
        """Enclosed area (shoelace formula, exact for integer vertices)."""
        total = 0
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            total += a.x * b.y - b.x * a.y
        return abs(total) // 2

    def is_rectangle(self) -> bool:
        """Return True if the polygon is exactly its bounding box."""
        return self.area == self.bbox.area

    def to_rects(self) -> List[Rect]:
        """Decompose the polygon into non-overlapping axis-aligned rectangles.

        The decomposition slices the polygon into horizontal slabs between
        consecutive distinct y coordinates and extracts the covered x
        intervals of each slab by scanline parity.  A plain rectangle outline
        (most layout shapes) is its own bounding box and skips the slabs.
        The result is cached on first use.
        """
        if self._rects:
            return list(self._rects)
        rect = _outline_rect(self.vertices)
        if rect is not None:
            rects = [rect]
        else:
            rects = merge_touching_rects(_decompose_rectilinear(self.vertices))
        object.__setattr__(self, "_rects", tuple(rects))
        return list(rects)

    def contains_point(self, point: Point) -> bool:
        """Return True if ``point`` lies inside or on the polygon."""
        return any(r.contains_point(point) for r in self.to_rects())

    def translated(self, dx: int, dy: int) -> "Polygon":
        """Return a copy shifted by ``(dx, dy)``."""
        return Polygon(tuple(v.translated(dx, dy) for v in self.vertices))

    def distance(self, other: "Polygon") -> float:
        """Return the Euclidean spacing to ``other`` (0 when touching/overlapping)."""
        best = None
        for a in self.to_rects():
            for b in other.to_rects():
                d = a.squared_distance(b)
                if best is None or d < best:
                    best = d
                    if best == 0:
                        return 0.0
        return float(best) ** 0.5 if best is not None else float("inf")

    def squared_distance(self, other: "Polygon") -> int:
        """Return the exact squared Euclidean spacing to ``other``."""
        best = None
        for a in self.to_rects():
            for b in other.to_rects():
                d = a.squared_distance(b)
                if best is None or d < best:
                    best = d
                    if best == 0:
                        return 0
        if best is None:
            raise GeometryError("distance between empty polygons")
        return best


def _check_rectilinear(verts: Sequence[Point]) -> None:
    """Validate that consecutive outline edges are axis parallel and alternate."""
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        if a == b:
            raise GeometryError(f"repeated outline vertex {a}")
        if a.x != b.x and a.y != b.y:
            raise GeometryError(
                f"outline edge {a} -> {b} is not axis parallel; "
                "only Manhattan polygons are supported"
            )


def _outline_rect(verts: Sequence[Point]) -> Optional[Rect]:
    """The rectangle a 4-vertex axis-parallel outline encloses, else ``None``.

    Only outlines with two distinct xs and two distinct ys qualify; anything
    else (including zero-width or zero-height outlines) is left to the slab
    decomposition, so the result never differs from it.
    """
    if len(verts) != 4:
        return None
    a, b, c, d = verts
    vertical_first = a.x == b.x and b.y == c.y and c.x == d.x and d.y == a.y
    horizontal_first = a.y == b.y and b.x == c.x and c.y == d.y and d.x == a.x
    if not (vertical_first or horizontal_first) or a.x == c.x or a.y == c.y:
        return None
    return Rect(min(a.x, c.x), min(a.y, c.y), max(a.x, c.x), max(a.y, c.y))


def _decompose_rectilinear(verts: Sequence[Point]) -> List[Rect]:
    """Decompose a rectilinear outline into horizontal slab rectangles."""
    ys = sorted({v.y for v in verts})
    edges = _vertical_edges(verts)
    rects: List[Rect] = []
    for yl, yh in zip(ys[:-1], ys[1:]):
        mid_y = (yl + yh) / 2.0
        # x coordinates of vertical edges crossing this slab, with parity fill
        crossings = sorted(
            x for (x, y0, y1) in edges if y0 < mid_y < y1
        )
        if len(crossings) % 2 != 0:
            raise GeometryError("polygon outline is not closed or self-intersects")
        for xl, xh in zip(crossings[0::2], crossings[1::2]):
            if xl < xh:
                rects.append(Rect(xl, yl, xh, yh))
    if not rects:
        raise GeometryError("polygon decomposition produced no area")
    return rects


def _vertical_edges(verts: Sequence[Point]) -> List[Tuple[int, int, int]]:
    """Return the vertical outline edges as ``(x, y_low, y_high)`` triples."""
    edges: List[Tuple[int, int, int]] = []
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        if a.x == b.x:
            edges.append((a.x, min(a.y, b.y), max(a.y, b.y)))
    return edges


def polygons_bbox(polygons: Iterable[Polygon]) -> Rect:
    """Return the bounding box of a non-empty collection of polygons."""
    return bounding_box(p.bbox for p in polygons)
