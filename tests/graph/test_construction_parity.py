"""Parity oracle: the array-built decomposition graph against the per-pair loop.

``build_decomposition_graph`` packs the layer into flat coordinate arrays,
finds feature pairs, stitch cuts and fragment edges in numpy passes, and
fills the graph's dicts and sets directly.  ``reference_build`` below keeps
the original construction verbatim: one ``GridIndex`` query per feature,
scalar ``rects_squared_distance`` calls, ``find_stitch_candidates`` per
feature and the validating graph mutators.  The two results must be equal
down to the iteration order of every vertex dict, adjacency set and edge set,
because downstream stages may walk them unsorted.

``reference_subgraph`` and ``reference_copy`` keep the original
edge-scanning ``DecompositionGraph.subgraph`` and mutator-driven ``copy``.
The new ``subgraph`` must hold the same vertices, data and edges; the new
``copy`` must also iterate in the same order.
"""

import itertools
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.circuits import load_circuit
from repro.errors import GraphError
from repro.geometry.distance import rects_squared_distance
from repro.geometry.layout import Layout
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.spatial import GridIndex, suggest_cell_size
from repro.graph.construction import (
    ConstructionOptions,
    ConstructionResult,
    _find_feature_pairs,
    _PackedRects,
    build_decomposition_graph,
)
from repro.graph.decomposition_graph import DecompositionGraph, VertexData
from repro.graph.stitch import find_stitch_candidates, split_feature


# ------------------------------------------------------------ the oracle
def reference_build(layout, layer="metal1", options=None):
    """``build_decomposition_graph`` as it was before the array rewrite."""
    options = options or ConstructionOptions()
    options.validate()
    shapes = layout.shapes_on_layer(layer)

    shape_rects: Dict[int, List[Rect]] = {s.shape_id: s.rects() for s in shapes}
    shape_bboxes: Dict[int, Rect] = {s.shape_id: s.bbox for s in shapes}

    conflict_pairs, friend_pairs = reference_find_feature_pairs(
        shapes, shape_rects, shape_bboxes, options
    )

    conflict_neighbours: Dict[int, Set[int]] = {s.shape_id: set() for s in shapes}
    for a, b in conflict_pairs:
        conflict_neighbours[a].add(b)
        conflict_neighbours[b].add(a)

    # ---------------------------------------------------------------- split
    fragments: Dict[int, List[Rect]] = {}
    shape_vertices: Dict[int, List[int]] = {}
    graph = DecompositionGraph()
    next_vertex = 0
    for shape in shapes:
        sid = shape.shape_id
        rects = shape_rects[sid]
        pieces: List[List[Rect]]
        if options.enable_stitches and conflict_neighbours[sid]:
            candidates = find_stitch_candidates(
                rects,
                [shape_rects[n] for n in sorted(conflict_neighbours[sid])],
                min_fragment_length=options.min_fragment_length,
                projection_margin=options.stitch_projection_margin,
                max_candidates=options.max_stitches_per_feature,
            )
            pieces = split_feature(rects, candidates)
        else:
            pieces = [list(rects)]
        vertex_ids: List[int] = []
        for fragment_index, piece in enumerate(pieces):
            vertex = next_vertex
            next_vertex += 1
            graph.add_vertex(
                vertex, VertexData(shape_id=sid, fragment=fragment_index)
            )
            fragments[vertex] = piece
            vertex_ids.append(vertex)
        shape_vertices[sid] = vertex_ids
        for left, right in zip(vertex_ids[:-1], vertex_ids[1:]):
            graph.add_stitch_edge(left, right)

    # ------------------------------------------------------- fragment edges
    min_s = options.min_coloring_distance
    friend_hi = min_s + options.half_pitch
    for a, b in conflict_pairs:
        for u in shape_vertices[a]:
            for v in shape_vertices[b]:
                d2 = rects_squared_distance(fragments[u], fragments[v])
                if d2 < min_s * min_s:
                    graph.add_conflict_edge(u, v)
                elif options.enable_color_friendly and d2 < friend_hi * friend_hi:
                    graph.add_friend_edge(u, v)
    if options.enable_color_friendly:
        for a, b in friend_pairs:
            for u in shape_vertices[a]:
                for v in shape_vertices[b]:
                    d2 = rects_squared_distance(fragments[u], fragments[v])
                    if min_s * min_s <= d2 < friend_hi * friend_hi:
                        graph.add_friend_edge(u, v)

    return ConstructionResult(
        graph=graph,
        fragments=fragments,
        shape_vertices=shape_vertices,
        layer=layer,
        options=options,
    )


def reference_find_feature_pairs(shapes, shape_rects, shape_bboxes, options):
    """``_find_feature_pairs`` as it was: one grid query per feature."""
    conflict_pairs: List[Tuple[int, int]] = []
    friend_pairs: List[Tuple[int, int]] = []
    if not shapes:
        return conflict_pairs, friend_pairs

    min_s = options.min_coloring_distance
    friend_hi = min_s + options.half_pitch
    search_radius = friend_hi if options.enable_color_friendly else min_s

    cell_size = suggest_cell_size(shape_bboxes.values(), search_radius)
    index = GridIndex(cell_size)
    for shape in shapes:
        index.insert(shape.shape_id, shape_bboxes[shape.shape_id])

    seen: Set[Tuple[int, int]] = set()
    for shape in shapes:
        sid = shape.shape_id
        for other in index.neighbours(sid, search_radius):
            pair = (sid, other) if sid < other else (other, sid)
            if pair in seen:
                continue
            seen.add(pair)
            d2 = rects_squared_distance(shape_rects[pair[0]], shape_rects[pair[1]])
            if d2 < min_s * min_s:
                conflict_pairs.append(pair)
            elif options.enable_color_friendly and d2 < friend_hi * friend_hi:
                friend_pairs.append(pair)
    conflict_pairs.sort()
    friend_pairs.sort()
    return conflict_pairs, friend_pairs


def reference_subgraph(graph, keep):
    """``DecompositionGraph.subgraph`` as it was: scan every parent edge."""
    keep_set = set(keep)
    missing = keep_set - set(graph._vertices)
    if missing:
        raise GraphError(f"subgraph on unknown vertices {sorted(missing)[:5]}")
    sub = DecompositionGraph()
    for v in sorted(keep_set):
        sub.add_vertex(v, graph._vertices[v])
    for u, v in graph._conflict_edges:
        if u in keep_set and v in keep_set:
            sub.add_conflict_edge(u, v)
    for u, v in graph._stitch_edges:
        if u in keep_set and v in keep_set:
            sub.add_stitch_edge(u, v)
    for u, v in graph._friend_edges:
        if u in keep_set and v in keep_set:
            sub.add_friend_edge(u, v)
    return sub


def reference_copy(graph):
    """``DecompositionGraph.copy`` as it was: replay through the mutators."""
    clone = DecompositionGraph()
    for v, data in graph._vertices.items():
        clone.add_vertex(v, data)
    for u, v in graph._conflict_edges:
        clone.add_conflict_edge(u, v)
    for u, v in graph._stitch_edges:
        clone.add_stitch_edge(u, v)
    for u, v in graph._friend_edges:
        clone.add_friend_edge(u, v)
    return clone


# ----------------------------------------------------------- comparisons
ADJACENCIES = ("_conflict_adj", "_stitch_adj", "_friend_adj")
EDGE_SETS = ("_conflict_edges", "_stitch_edges", "_friend_edges")


def assert_same_order(new: DecompositionGraph, old: DecompositionGraph) -> None:
    """Equal storage, down to the iteration order of every dict and set."""
    assert list(new._vertices.items()) == list(old._vertices.items())
    for name in ADJACENCIES:
        new_adj, old_adj = getattr(new, name), getattr(old, name)
        assert list(new_adj) == list(old_adj), name
        for vertex in old_adj:
            assert list(new_adj[vertex]) == list(old_adj[vertex]), (name, vertex)
    for name in EDGE_SETS:
        assert list(getattr(new, name)) == list(getattr(old, name)), name


def assert_same_content(new: DecompositionGraph, old: DecompositionGraph) -> None:
    """Equal vertices, shared vertex data, edge sets and adjacency contents."""
    assert list(new._vertices) == list(old._vertices)
    for vertex, data in old._vertices.items():
        assert new._vertices[vertex] is data
    for name in EDGE_SETS:
        assert getattr(new, name) == getattr(old, name), name
    for name in ADJACENCIES:
        new_adj, old_adj = getattr(new, name), getattr(old, name)
        assert list(new_adj) == list(old_adj), name
        assert new_adj == old_adj, name


def assert_same_construction(layout, layer, options) -> None:
    new = build_decomposition_graph(layout, layer, options)
    old = reference_build(layout, layer, options)
    assert_same_order(new.graph, old.graph)
    assert list(new.fragments.items()) == list(old.fragments.items())
    assert list(new.shape_vertices.items()) == list(old.shape_vertices.items())
    assert new.layer == old.layer and new.num_features == old.num_features


# ------------------------------------------------------------- layouts
class ShuffledLayout(Layout):
    """A layout whose layer lists shapes in a given order, not by id."""

    def __init__(self, shapes, order) -> None:
        super().__init__(name="shuffled")
        for shape in shapes:
            self.add_polygon(shape.polygon, shape.layer)
        self._order = order

    def shapes_on_layer(self, layer):
        shapes = super().shapes_on_layer(layer)
        return [shapes[i] for i in self._order if i < len(shapes)]


#: Coordinates on a 10-unit grid, so spacings land exactly on ``min_s`` and
#: ``min_s + half_pitch`` for the rule sets below.
coords = st.integers(min_value=0, max_value=60).map(lambda k: 10 * k)
lengths = st.integers(min_value=2, max_value=45).map(lambda k: 10 * k)
widths = st.sampled_from([10, 20, 30])


@st.composite
def wire(draw):
    x, y, length, width = draw(coords), draw(coords), draw(lengths), draw(widths)
    if draw(st.booleans()):
        return Polygon.from_rect(Rect(x, y, x + length, y + width))
    return Polygon.from_rect(Rect(x, y, x + width, y + length))


@st.composite
def long_wire(draw):
    """A feature spanning many grid cells."""
    x, y = draw(coords), draw(coords)
    length = draw(st.integers(min_value=100, max_value=400)) * 10
    if draw(st.booleans()):
        return Polygon.from_rect(Rect(x - 500, y, x - 500 + length, y + 20))
    return Polygon.from_rect(Rect(x, y - 500, x + 20, y - 500 + length))


@st.composite
def l_shape(draw):
    x, y = draw(coords), draw(coords)
    w = draw(widths)
    a, b = w + draw(lengths), w + draw(lengths)
    return Polygon.from_points(
        [(x, y), (x + a, y), (x + a, y + w), (x + w, y + w), (x + w, y + b), (x, y + b)]
    )


@st.composite
def t_shape(draw):
    x, y = draw(coords), draw(coords)
    half, stem, w = draw(lengths), draw(lengths), draw(widths)
    left, right = x - half, x + w + half
    return Polygon.from_points(
        [
            (left, y + stem),
            (x, y + stem),
            (x, y),
            (x + w, y),
            (x + w, y + stem),
            (right, y + stem),
            (right, y + stem + w),
            (left, y + stem + w),
        ]
    )


polygons = st.one_of(wire(), wire(), l_shape(), t_shape(), long_wire())


@st.composite
def layouts(draw):
    """Layouts with touching, overlapping and coincident shapes, an unrelated
    layer interleaved, and optionally a shuffled shape order."""
    shapes = draw(st.lists(polygons, min_size=1, max_size=14))
    # Coincident copies of some shapes.
    for index in draw(st.lists(st.integers(0, len(shapes) - 1), max_size=2)):
        shapes.append(shapes[index])
    layout = Layout()
    for polygon in shapes:
        layout.add_polygon(polygon, "metal1")
        if draw(st.booleans()):
            layout.add_polygon(polygon.translated(7, 7), "via1")
    if draw(st.booleans()):
        order = draw(st.permutations(range(len(shapes))))
        layout = ShuffledLayout(list(layout), order)
    return layout


RULES = [(80, 20), (40, 20), (110, 20), (80, 0)]
STITCH_RULES = [(20, 2), (10, 1), (40, 3), (20, 0)]
rules = st.sampled_from(RULES)
stitch_rules = st.sampled_from(STITCH_RULES)


def make_options(rule, stitch_rule, stitches, friendly, margin):
    (min_s, half_pitch), (min_fragment, max_stitches) = rule, stitch_rule
    return ConstructionOptions(
        min_coloring_distance=min_s,
        half_pitch=half_pitch,
        enable_stitches=stitches,
        min_fragment_length=min_fragment,
        max_stitches_per_feature=max_stitches,
        stitch_projection_margin=margin,
        enable_color_friendly=friendly,
    )


FLAGS = list(itertools.product([True, False], [True, False], [0, 15]))


# ---------------------------------------------------------------- tests
@pytest.mark.parametrize("stitches,friendly,margin", FLAGS)
class TestConstructionParity:
    @settings(max_examples=40, deadline=None)
    @given(layout=layouts(), rule=rules, stitch_rule=stitch_rules)
    def test_random_layouts(self, stitches, friendly, margin, layout, rule, stitch_rule):
        options = make_options(rule, stitch_rule, stitches, friendly, margin)
        assert_same_construction(layout, "metal1", options)

    @settings(max_examples=25, deadline=None)
    @given(layout=layouts(), rule=rules)
    def test_feature_pairs(self, stitches, friendly, margin, layout, rule):
        options = make_options(rule, STITCH_RULES[0], stitches, friendly, margin)
        shapes = layout.shapes_on_layer("metal1")
        shape_ids = np.array([s.shape_id for s in shapes], dtype=np.int64)
        conflict, friend = _find_feature_pairs(
            shape_ids, _PackedRects([s.rects() for s in shapes]), options
        )
        expected = reference_find_feature_pairs(
            shapes,
            {s.shape_id: s.rects() for s in shapes},
            {s.shape_id: s.bbox for s in shapes},
            options,
        )
        found = tuple(
            [tuple(int(sid) for sid in shape_ids[row]) for row in pairs]
            for pairs in (conflict, friend)
        )
        assert found == expected

    def test_rule_boundaries(self, stitches, friendly, margin):
        """Spacings exactly at ``min_s`` and ``min_s + half_pitch``."""
        layout = Layout()
        y = 0
        for spacing in (0, 79, 80, 99, 100, 0, 60):
            y += spacing
            layout.add_rect(Rect(0, y, 600, y + 20))
            layout.add_rect(Rect(700 + spacing, y, 900 + spacing, y + 20))
            y += 20
        options = make_options((80, 20), (20, 2), stitches, friendly, margin)
        assert_same_construction(layout, "metal1", options)

    def test_equal_gap_tie_break(self, stitches, friendly, margin):
        """Equal-width gaps beyond ``max_stitches_per_feature``: the lower
        position wins, and cuts come out in position order."""
        layout = Layout()
        layout.add_rect(Rect(0, 0, 1000, 20))
        layout.add_rect(Rect(250, 60, 350, 80))
        layout.add_rect(Rect(650, 60, 750, 80))
        for max_stitches in (0, 1, 2, 3):
            options = make_options((80, 20), (20, max_stitches), stitches, friendly, margin)
            assert_same_construction(layout, "metal1", options)

    def test_square_feature(self, stitches, friendly, margin):
        """A square feature's long axis is x (width >= height)."""
        layout = Layout()
        layout.add_rect(Rect(0, 0, 300, 300))
        layout.add_rect(Rect(0, 340, 100, 360))
        layout.add_rect(Rect(340, 0, 360, 80))
        options = make_options((80, 20), (20, 2), stitches, friendly, margin)
        assert_same_construction(layout, "metal1", options)
        if stitches:
            assert build_decomposition_graph(layout, "metal1", options).graph.num_stitch_edges

    def test_bench_circuit(self, stitches, friendly, margin):
        layout = load_circuit("C432", scale=0.3)
        options = make_options((80, 20), (20, 2), stitches, friendly, margin)
        assert_same_construction(layout, "metal1", options)

    def test_empty_layer(self, stitches, friendly, margin):
        layout = Layout()
        layout.add_rect(Rect(0, 0, 100, 20), layer="via1")
        options = make_options((80, 20), (20, 2), stitches, friendly, margin)
        assert_same_construction(layout, "metal1", options)
        assert_same_construction(Layout(), "metal1", options)


@st.composite
def graphs(draw):
    """Random graphs on sparse vertex ids, plus a vertex subset to keep."""
    ids = draw(st.lists(st.integers(0, 300), min_size=1, max_size=30, unique=True))
    graph = DecompositionGraph()
    for vertex in ids:
        graph.add_vertex(vertex, VertexData(shape_id=vertex // 3, fragment=vertex % 3))
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    for add in (graph.add_conflict_edge, graph.add_stitch_edge, graph.add_friend_edge):
        for u, v in draw(st.lists(pairs, max_size=60)):
            if u != v:
                add(u, v)
    keep = draw(st.lists(st.sampled_from(ids), max_size=len(ids)))
    return graph, keep


class TestSubgraphParity:
    @settings(max_examples=100, deadline=None)
    @given(case=graphs())
    def test_random_graphs(self, case):
        graph, keep = case
        assert_same_content(graph.subgraph(keep), reference_subgraph(graph, keep))

    @settings(max_examples=50, deadline=None)
    @given(case=graphs())
    def test_copy_keeps_iteration_order(self, case):
        graph, _ = case
        assert_same_order(graph.copy(), reference_copy(graph))

    def test_bench_components(self):
        result = build_decomposition_graph(load_circuit("C880", scale=0.3))
        graph = result.graph
        for vertices in result.shape_vertices.values():
            keep = {w for v in vertices for w in graph.neighbors(v)} | set(vertices)
            assert_same_content(graph.subgraph(keep), reference_subgraph(graph, keep))

    def test_unknown_vertices_message(self):
        graph = DecompositionGraph.from_edges([(0, 1)], vertices=[4])
        keep = [0, 9, 5, 1, 7, 8, 6, 11]
        with pytest.raises(GraphError) as expected:
            reference_subgraph(graph, keep)
        with pytest.raises(GraphError) as found:
            graph.subgraph(keep)
        assert str(found.value) == str(expected.value)
