"""Unit tests for repro.geometry.polygon."""

import pytest

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon, _decompose_rectilinear, polygons_bbox
from repro.geometry.rect import Rect, merge_touching_rects


def l_shape() -> Polygon:
    """An L-shaped rectilinear polygon."""
    return Polygon.from_points(
        [(0, 0), (40, 0), (40, 20), (20, 20), (20, 60), (0, 60)]
    )


class TestPolygonConstruction:
    def test_from_rect(self):
        poly = Polygon.from_rect(Rect(0, 0, 10, 20))
        assert poly.bbox == Rect(0, 0, 10, 20)
        assert poly.area == 200
        assert poly.is_rectangle()

    def test_from_points_closes_loop(self):
        poly = Polygon.from_points([(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)])
        assert len(poly.vertices) == 4

    def test_rejects_too_few_vertices(self):
        with pytest.raises(GeometryError):
            Polygon.from_points([(0, 0), (10, 0), (10, 10)])

    def test_rejects_non_rectilinear(self):
        with pytest.raises(GeometryError):
            Polygon.from_points([(0, 0), (10, 5), (10, 10), (0, 10)])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(GeometryError):
            Polygon.from_points([(0, 0), (0, 0), (10, 0), (10, 10), (0, 10)])


class TestPolygonGeometry:
    def test_l_shape_area(self):
        # L-shape = 40x20 bottom bar + 20x40 vertical bar
        assert l_shape().area == 40 * 20 + 20 * 40

    def test_l_shape_bbox(self):
        assert l_shape().bbox == Rect(0, 0, 40, 60)

    def test_l_shape_not_rectangle(self):
        assert not l_shape().is_rectangle()

    def test_decomposition_covers_area(self):
        rects = l_shape().to_rects()
        assert sum(r.area for r in rects) == l_shape().area

    def test_decomposition_rects_disjoint(self):
        rects = l_shape().to_rects()
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert not a.intersects(b, strict=True)

    def test_decomposition_of_rectangle_is_single_rect(self):
        poly = Polygon.from_rect(Rect(5, 5, 25, 45))
        assert poly.to_rects() == [Rect(5, 5, 25, 45)]

    @pytest.mark.parametrize("start", range(4))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_rectangle_fast_path_matches_slabs(self, start, reverse):
        corners = [Point(3, -7), Point(3, 12), Point(40, 12), Point(40, -7)]
        if reverse:
            corners.reverse()
        outline = tuple(corners[start:] + corners[:start])
        slabs = merge_touching_rects(_decompose_rectilinear(outline))
        assert Polygon(outline).to_rects() == slabs == [Rect(3, -7, 40, 12)]

    @pytest.mark.parametrize(
        "outline",
        [
            [(0, 0), (0, 5), (0, 9), (0, 2)],  # zero width
            [(0, 4), (6, 4), (9, 4), (2, 4)],  # zero height
            [(0, 0), (5, 0), (0, 5), (5, 5)],  # crossing, not axis parallel
        ],
    )
    def test_non_rectangles_take_the_slab_path(self, outline):
        vertices = tuple(Point(x, y) for x, y in outline)
        with pytest.raises(GeometryError):
            _decompose_rectilinear(vertices)
        with pytest.raises(GeometryError):
            Polygon(vertices).to_rects()

    def test_contains_point(self):
        poly = l_shape()
        assert poly.contains_point(Point(10, 50))
        assert poly.contains_point(Point(35, 10))
        assert not poly.contains_point(Point(35, 50))

    def test_translated(self):
        moved = l_shape().translated(100, 10)
        assert moved.bbox == Rect(100, 10, 140, 70)
        assert moved.area == l_shape().area


class TestPolygonDistance:
    def test_distance_between_rect_polygons(self):
        a = Polygon.from_rect(Rect(0, 0, 10, 10))
        b = Polygon.from_rect(Rect(25, 0, 35, 10))
        assert a.distance(b) == 15.0
        assert a.squared_distance(b) == 225

    def test_distance_zero_when_touching(self):
        a = Polygon.from_rect(Rect(0, 0, 10, 10))
        b = Polygon.from_rect(Rect(10, 0, 20, 10))
        assert a.distance(b) == 0.0

    def test_distance_uses_true_geometry_not_bbox(self):
        # Two L-shapes whose bounding boxes overlap but whose bodies are apart.
        a = l_shape()
        b = l_shape().translated(25, 25)
        assert a.bbox.intersects(b.bbox)
        assert a.distance(b) > 0

    def test_distance_symmetric(self):
        a = l_shape()
        b = Polygon.from_rect(Rect(100, 100, 120, 140))
        assert a.squared_distance(b) == b.squared_distance(a)


def test_polygons_bbox():
    polys = [Polygon.from_rect(Rect(0, 0, 5, 5)), Polygon.from_rect(Rect(10, 10, 30, 20))]
    assert polygons_bbox(polys) == Rect(0, 0, 30, 20)
