"""Binary component frames: JSON equivalence, robustness, key pass-through."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.bench import TABLE1_CIRCUITS, circuit_graph
from repro.core.options import AlgorithmOptions, DivisionOptions
from repro.graph.components import connected_components
from repro.graph.decomposition_graph import DecompositionGraph
from repro.runtime.component_io import (
    ComponentWireError,
    graph_from_wire,
    graph_to_wire,
    wire_dict_from_flat,
)
from repro.runtime.hashing import canonical_component_key
from repro.runtime.wire_binary import (
    ComponentFrame,
    decode_components_frame,
    encode_components_frame,
    frame_size,
)

#: A small/medium/large spread of the Table 1 suite; the slow sweep below
#: covers the full set.
FAST_CIRCUITS = ["C432", "C6288", "S1488"]


def _components_of(circuit: str):
    graph = circuit_graph(circuit, 4).graph
    return [
        graph.subgraph(component) for component in connected_components(graph)
    ]


def _assert_graphs_equal(a: DecompositionGraph, b: DecompositionGraph) -> None:
    assert a.vertices() == b.vertices()
    assert a.conflict_edges() == b.conflict_edges()
    assert a.stitch_edges() == b.stitch_edges()
    assert a.friend_edges() == b.friend_edges()
    for vertex in a.vertices():
        assert asdict(a.vertex_data(vertex)) == asdict(b.vertex_data(vertex))


def _roundtrip_equivalence(subgraphs) -> None:
    keys = [
        canonical_component_key(
            graph, 4, "linear", AlgorithmOptions(), DivisionOptions()
        )
        for graph in subgraphs
    ]
    body = encode_components_frame(list(zip(keys, [g.to_arrays() for g in subgraphs])), 4, "linear")
    colors, algorithm, trace_id, frames = decode_components_frame(body)
    assert (colors, algorithm, trace_id) == (4, "linear", None)
    assert len(frames) == len(subgraphs)
    for graph, key, frame in zip(subgraphs, keys, frames):
        assert frame.error is None
        assert frame.key == key
        binary_graph = frame.flat.to_graph()
        json_graph = graph_from_wire(graph_to_wire(graph))
        _assert_graphs_equal(binary_graph, json_graph)
        _assert_graphs_equal(binary_graph, graph)
        # The JSON fallback encoding built from the flat form must be
        # byte-identical to the one built from the graph itself.
        assert wire_dict_from_flat(graph.to_arrays()) == graph_to_wire(graph)


class TestEquivalence:
    @pytest.mark.parametrize("circuit", FAST_CIRCUITS)
    def test_binary_matches_json_wire(self, circuit):
        subgraphs = _components_of(circuit)
        assert subgraphs
        _roundtrip_equivalence(subgraphs)

    @pytest.mark.slow
    @pytest.mark.parametrize("circuit", TABLE1_CIRCUITS)
    def test_binary_matches_json_wire_all_table1(self, circuit):
        subgraphs = _components_of(circuit)
        assert subgraphs
        _roundtrip_equivalence(subgraphs)

    def test_frame_size_budget_is_exact(self):
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        flat = graph.to_arrays()
        key = "k" * 64
        body_one = encode_components_frame([(key, flat)], 4, "linear")
        body_none = encode_components_frame([], 4, "linear")
        assert len(body_one) - len(body_none) == frame_size(flat, key)


class TestFrameVersions:
    def _entries(self):
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        return [("k" * 64, graph.to_arrays())]

    def test_untraced_frame_is_v1_and_byte_stable(self):
        """No trace id → the exact pre-trace v1 bytes (old peers unaffected)."""
        body = encode_components_frame(self._entries(), 4, "linear")
        assert body[4] == 1
        assert body == encode_components_frame(
            self._entries(), 4, "linear", force_version=1
        )
        _, _, trace_id, frames = decode_components_frame(body)
        assert trace_id is None and len(frames) == 1

    def test_traced_frame_roundtrips_v2(self):
        body = encode_components_frame(
            self._entries(), 4, "linear", trace_id="deadbeefcafef00d"
        )
        assert body[4] == 2
        colors, algorithm, trace_id, frames = decode_components_frame(body)
        assert (colors, algorithm, trace_id) == (4, "linear", "deadbeefcafef00d")
        assert frames[0].key == "k" * 64

    def test_force_v1_drops_trace_field_only(self):
        """The downgrade encoding: identical payload, trace stripped."""
        v1 = encode_components_frame(
            self._entries(), 4, "linear", trace_id="deadbeefcafef00d", force_version=1
        )
        assert v1 == encode_components_frame(self._entries(), 4, "linear")
        _, _, trace_id, frames = decode_components_frame(v1)
        assert trace_id is None and frames[0].error is None

    def test_future_version_error_names_speakable_range(self):
        body = bytearray(encode_components_frame(self._entries(), 4, "linear"))
        body[4] = 3
        with pytest.raises(
            ComponentWireError, match="unsupported components frame version"
        ):
            decode_components_frame(bytes(body))

    def test_overlong_trace_id_rejected_at_encode(self):
        with pytest.raises(ComponentWireError):
            encode_components_frame(
                self._entries(), 4, "linear", trace_id="x" * 300
            )


class TestWireValueBounds:
    @pytest.mark.parametrize(
        "vertex_row",
        [
            [0, None, 0, -1],  # negative weight
            [0, None, -1, 1],  # negative fragment
            [0, None, 0, 2**32],  # weight past uint32
            [0, -1, 0, 1],  # negative shape_id (would alias the None sentinel)
            [0, 2**63, 0, 1],  # shape_id past int64
            [-1, None, 0, 1],  # negative vertex id
        ],
    )
    def test_out_of_range_vertex_values_are_wire_errors(self, vertex_row):
        """Values the flat arrays cannot hold must fail at the wire boundary
        (a 400), never as an OverflowError deep inside ``to_arrays``."""
        from repro.runtime.component_io import graph_from_wire

        payload = {
            "version": 1,
            "vertices": [vertex_row, [7, None, 0, 1]],
            "conflict_edges": [],
        }
        with pytest.raises(ComponentWireError):
            graph_from_wire(payload)

    def test_in_range_values_still_flatten(self):
        from repro.runtime.component_io import graph_from_wire

        payload = {
            "version": 1,
            "vertices": [[0, 2**62, 3, 2**31], [5, None, 0, 1]],
            "conflict_edges": [[0, 5]],
        }
        graph = graph_from_wire(payload)
        rebuilt = DecompositionGraph.from_arrays(graph.to_arrays())
        assert asdict(rebuilt.vertex_data(0)) == asdict(graph.vertex_data(0))
        assert rebuilt.conflict_edges() == [(0, 5)]


class TestMalformedFrames:
    def _one_entry_body(self):
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        return encode_components_frame([(None, graph.to_arrays())], 4, "linear")

    def test_bad_magic_rejected(self):
        body = bytearray(self._one_entry_body())
        body[:4] = b"XXXX"
        with pytest.raises(ComponentWireError, match="magic"):
            decode_components_frame(bytes(body))

    def test_bad_version_rejected(self):
        body = bytearray(self._one_entry_body())
        body[4] = 200
        with pytest.raises(ComponentWireError, match="version"):
            decode_components_frame(bytes(body))

    def test_truncations_rejected(self):
        body = self._one_entry_body()
        for cut in (0, 2, 9, len(body) // 2, len(body) - 1):
            with pytest.raises(ComponentWireError):
                decode_components_frame(body[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ComponentWireError, match="trailing"):
            decode_components_frame(self._one_entry_body() + b"junk")

    def test_bad_graph_frame_fails_only_its_entry(self):
        """Per-entry containment: sibling components still decode."""
        good = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        bad = DecompositionGraph.from_edges([(0, 1)])
        entries = [(None, good.to_arrays()), (None, bad.to_arrays()), (None, good.to_arrays())]
        body = bytearray(encode_components_frame(entries, 4, "linear"))
        # Corrupt the middle entry's graph-frame version byte: it sits right
        # after the good entry's frame plus the middle entry's own framing.
        good_frame = good.to_arrays().to_bytes()
        envelope = len(encode_components_frame([], 4, "linear"))
        middle_graph_start = envelope + (1 + 4 + len(good_frame)) + (1 + 4)
        assert body[middle_graph_start] == 1  # flat frame version
        body[middle_graph_start] = 77
        _, _, _, frames = decode_components_frame(bytes(body))
        assert [frame.error is None for frame in frames] == [True, False, True]
        assert "version" in frames[1].error
        assert isinstance(frames[0], ComponentFrame) and frames[0].flat is not None
