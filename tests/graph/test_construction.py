"""Unit tests for decomposition-graph construction from layouts."""

import pytest

from repro.core.options import (
    PENTUPLE_MIN_COLORING_DISTANCE,
    QUADRUPLE_MIN_COLORING_DISTANCE,
)
from repro.bench.cells import four_clique_contact_cell, regular_wire_array
from repro.errors import ConfigurationError
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect
from repro.graph.construction import ConstructionOptions, build_decomposition_graph


def wires(spacings, width=20, length=400):
    """Horizontal wires stacked with the given vertical spacings."""
    layout = Layout()
    y = 0
    for spacing in [0] + list(spacings):
        y += spacing
        layout.add_rect(Rect(0, y, length, y + width))
        y += width
    return layout


class TestConflictEdges:
    def test_two_close_wires_conflict(self):
        layout = wires([40])  # spacing 40 < 80
        options = ConstructionOptions(min_coloring_distance=80, enable_stitches=False)
        result = build_decomposition_graph(layout, options=options)
        assert result.graph.num_vertices == 2
        assert result.graph.num_conflict_edges == 1

    def test_far_wires_do_not_conflict(self):
        layout = wires([100])  # spacing 100 >= 80
        options = ConstructionOptions(min_coloring_distance=80, enable_stitches=False)
        result = build_decomposition_graph(layout, options=options)
        assert result.graph.num_conflict_edges == 0

    def test_exact_rule_distance_is_not_a_conflict(self):
        layout = wires([80])
        options = ConstructionOptions(min_coloring_distance=80, enable_stitches=False)
        result = build_decomposition_graph(layout, options=options)
        assert result.graph.num_conflict_edges == 0

    def test_four_clique_cell(self):
        """The Fig. 1 contact cell yields a K4 under the QP coloring distance."""
        layout = four_clique_contact_cell()
        options = ConstructionOptions(
            min_coloring_distance=QUADRUPLE_MIN_COLORING_DISTANCE,
            enable_stitches=False,
        )
        result = build_decomposition_graph(layout, layer="contact", options=options)
        assert result.graph.num_vertices == 4
        assert result.graph.num_conflict_edges == 6  # complete graph K4

    def test_figure7_neighbourhood_grows_with_min_s(self):
        """Fig. 7: raising min_s from s_m to the QP distance makes each wire in
        a minimum-pitch array conflict with the track two positions away."""
        layout = regular_wire_array(num_wires=5)
        adjacent_only = build_decomposition_graph(
            layout,
            options=ConstructionOptions(min_coloring_distance=40, enable_stitches=False),
        )
        qp_distance = build_decomposition_graph(
            layout,
            options=ConstructionOptions(
                min_coloring_distance=QUADRUPLE_MIN_COLORING_DISTANCE,
                enable_stitches=False,
            ),
        )
        # path (|i-j| = 1) vs second-power of the path (|i-j| <= 2)
        assert adjacent_only.graph.num_conflict_edges == 4
        assert qp_distance.graph.num_conflict_edges == 7

    def test_pentuple_distance_grows_neighbourhood(self):
        layout = regular_wire_array(num_wires=6)
        qp = build_decomposition_graph(
            layout,
            options=ConstructionOptions(
                min_coloring_distance=QUADRUPLE_MIN_COLORING_DISTANCE,
                enable_stitches=False,
            ),
        )
        pp = build_decomposition_graph(
            layout,
            options=ConstructionOptions(
                min_coloring_distance=PENTUPLE_MIN_COLORING_DISTANCE,
                enable_stitches=False,
            ),
        )
        assert pp.graph.num_conflict_edges > qp.graph.num_conflict_edges


class TestColorFriendlyEdges:
    def test_friend_band(self):
        # spacing 90 lies in [80, 80+20) -> color friendly, not conflict
        layout = wires([90])
        options = ConstructionOptions(
            min_coloring_distance=80, half_pitch=20, enable_stitches=False
        )
        result = build_decomposition_graph(layout, options=options)
        assert result.graph.num_conflict_edges == 0
        assert len(result.graph.friend_edges()) == 1

    def test_friend_edges_disabled(self):
        layout = wires([90])
        options = ConstructionOptions(
            min_coloring_distance=80,
            half_pitch=20,
            enable_stitches=False,
            enable_color_friendly=False,
        )
        result = build_decomposition_graph(layout, options=options)
        assert result.graph.friend_edges() == []


class TestStitchInsertion:
    def test_partially_covered_wire_gets_split(self):
        """A long wire whose conflict neighbour covers only one end is split."""
        layout = Layout()
        layout.add_rect(Rect(0, 0, 600, 20))       # the victim wire
        layout.add_rect(Rect(0, 60, 200, 80))      # neighbour over its left part
        options = ConstructionOptions(min_coloring_distance=80, enable_stitches=True)
        result = build_decomposition_graph(layout, options=options)
        assert result.graph.num_vertices >= 3
        assert result.graph.num_stitch_edges >= 1

    def test_stitches_disabled(self):
        layout = Layout()
        layout.add_rect(Rect(0, 0, 600, 20))
        layout.add_rect(Rect(0, 60, 200, 80))
        options = ConstructionOptions(min_coloring_distance=80, enable_stitches=False)
        result = build_decomposition_graph(layout, options=options)
        assert result.graph.num_vertices == 2
        assert result.graph.num_stitch_edges == 0

    def test_fragments_of_one_shape_share_shape_id(self):
        layout = Layout()
        layout.add_rect(Rect(0, 0, 600, 20))
        layout.add_rect(Rect(0, 60, 200, 80))
        result = build_decomposition_graph(
            layout, options=ConstructionOptions(min_coloring_distance=80)
        )
        for shape_id, vertices in result.shape_vertices.items():
            for vertex in vertices:
                assert result.graph.vertex_data(vertex).shape_id == shape_id

    def test_fragment_geometry_covers_shapes(self):
        layout = Layout()
        layout.add_rect(Rect(0, 0, 600, 20))
        layout.add_rect(Rect(0, 60, 200, 80))
        result = build_decomposition_graph(
            layout, options=ConstructionOptions(min_coloring_distance=80)
        )
        fragment_area = sum(
            r.area for rects in result.fragments.values() for r in rects
        )
        shape_area = sum(s.polygon.area for s in layout)
        assert fragment_area == shape_area


class TestOptionsValidation:
    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstructionOptions(min_coloring_distance=-1).validate()

    def test_bad_fragment_length_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstructionOptions(min_fragment_length=0).validate()

    def test_negative_projection_margin_rejected(self):
        # A negative margin inverts narrow neighbour projections (a width-20
        # neighbour with margin -15 projects to (115, 105)).
        with pytest.raises(ConfigurationError):
            ConstructionOptions(stitch_projection_margin=-15).validate()
        with pytest.raises(ConfigurationError):
            build_decomposition_graph(
                wires([40]), options=ConstructionOptions(stitch_projection_margin=-1)
            )

    def test_empty_layer_gives_empty_graph(self):
        result = build_decomposition_graph(Layout(), layer="metal1")
        assert result.graph.num_vertices == 0
        assert result.num_features == 0
