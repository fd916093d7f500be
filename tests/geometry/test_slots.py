"""Slotted value classes keep their value semantics.

``Point``, ``Rect``, ``Polygon``, ``Shape`` and ``VertexData`` are slotted
dataclasses (no per-instance ``__dict__``).  Pickling, equality, hashing and
ordering must behave exactly as for the plain dataclasses they replace.
"""

import pickle

import pytest

from repro.geometry.layout import Shape
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.graph.decomposition_graph import VertexData


def l_polygon() -> Polygon:
    return Polygon.from_points([(0, 0), (40, 0), (40, 10), (10, 10), (10, 30), (0, 30)])


def samples():
    return [
        Point(3, -4),
        Rect(0, 0, 20, 60),
        l_polygon(),
        Shape(7, "metal1", l_polygon()),
        VertexData(shape_id=7, fragment=1, weight=2),
    ]


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
def test_no_instance_dict(value):
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
def test_pickle_round_trip(value):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(value, protocol=protocol))
        assert clone == value
        assert type(clone) is type(value)


def test_hash_is_the_field_tuple_hash():
    """The generated ``__hash__`` hashes the compared fields, as before."""
    assert hash(Point(3, -4)) == hash((3, -4))
    assert hash(Rect(0, 0, 20, 60)) == hash((0, 0, 20, 60))
    polygon = l_polygon()
    assert hash(polygon) == hash((polygon.vertices,))
    assert hash(Shape(7, "metal1", polygon)) == hash((7, "metal1", polygon))
    with pytest.raises(TypeError):
        hash(VertexData())  # mutable dataclass: unhashable, as before


def test_polygon_rect_cache_is_not_compared():
    cached, fresh = l_polygon(), l_polygon()
    rects = cached.to_rects()
    assert cached._rects == tuple(rects)
    assert fresh._rects == ()
    assert cached == fresh and hash(cached) == hash(fresh)
    assert pickle.loads(pickle.dumps(cached)).to_rects() == rects


def test_ordering_follows_field_tuples():
    points = [Point(2, 1), Point(1, 5), Point(1, -2), Point(0, 9)]
    assert sorted(points) == [Point(*p) for p in sorted(p.as_tuple() for p in points)]
    rects = [Rect(5, 0, 6, 1), Rect(0, 3, 4, 4), Rect(0, 1, 9, 2), Rect(0, 1, 2, 2)]
    fields = sorted((r.xl, r.yl, r.xh, r.yh) for r in rects)
    assert sorted(rects) == [Rect(*f) for f in fields]
    assert Point(1, 2) < Point(1, 3) and not Point(1, 3) <= Point(1, 2)


def test_frozen_and_mutable_as_before():
    with pytest.raises(AttributeError):
        Point(0, 0).x = 1
    data = VertexData()
    data.weight = 5
    assert data == VertexData(weight=5)
    with pytest.raises(AttributeError):
        data.colour = 1  # slots: no new attributes
