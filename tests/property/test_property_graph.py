"""Property-based tests for the graph algorithms."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.components import connected_components
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.gomory_hu import gomory_hu_tree
from repro.graph.maxflow import ArcNetwork
from repro.graph.simplify import (
    build_merged_graph,
    peel_low_degree_vertices,
    reinsert_peeled_vertices,
)
from repro.graph.unionfind import UnionFind


@st.composite
def edge_lists(draw, max_vertices=12, edge_probability=0.25):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()) and draw(
                st.floats(min_value=0, max_value=1)
            ) < edge_probability * 2:
                edges.append((i, j))
    return n, edges


@st.composite
def connected_edge_lists(draw, max_vertices=10):
    """A path backbone plus random chords: always connected."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = [(i, i + 1) for i in range(n - 1)]
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=12,
        )
    )
    for u, v in extra:
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return n, sorted(set(edges))


class TestComponentsProperties:
    @given(edge_lists())
    def test_components_partition_vertices(self, data):
        n, edges = data
        g = DecompositionGraph.from_edges(edges, vertices=range(n))
        components = connected_components(g)
        flat = [v for comp in components for v in comp]
        assert sorted(flat) == list(range(n))
        assert len(flat) == len(set(flat))

    @given(edge_lists())
    def test_no_edge_crosses_components(self, data):
        n, edges = data
        g = DecompositionGraph.from_edges(edges, vertices=range(n))
        component_of = {}
        for index, comp in enumerate(connected_components(g)):
            for v in comp:
                component_of[v] = index
        for u, v in edges:
            assert component_of[u] == component_of[v]


class TestMaxflowProperties:
    @settings(max_examples=30, deadline=None)
    @given(connected_edge_lists())
    def test_flow_matches_networkx(self, data):
        n, edges = data
        net = ArcNetwork(range(n), edges)
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        nx.set_edge_attributes(g, 1, "capacity")
        expected = nx.maximum_flow_value(g, 0, n - 1, capacity="capacity")
        assert net.max_flow(0, n - 1)[0] == expected

    @settings(max_examples=30, deadline=None)
    @given(connected_edge_lists())
    def test_cut_partition_is_consistent(self, data):
        n, edges = data
        value, side = ArcNetwork(range(n), edges).max_flow(0, n - 1)
        side = set(side)
        crossing = sum(1 for (u, v) in edges if (u in side) != (v in side))
        assert 0 in side and (n - 1) not in side
        assert crossing == value


class TestGomoryHuProperties:
    @settings(max_examples=20, deadline=None)
    @given(connected_edge_lists(max_vertices=8))
    def test_cut_equivalence(self, data):
        n, edges = data
        tree = gomory_hu_tree(range(n), edges)
        g = nx.Graph(edges)
        nx.set_edge_attributes(g, 1, "capacity")
        for u in range(n):
            for v in range(u + 1, n):
                expected = nx.minimum_cut_value(g, u, v, capacity="capacity")
                assert tree.min_cut_value(u, v) == expected

    @settings(max_examples=20, deadline=None)
    @given(connected_edge_lists(max_vertices=10), st.integers(min_value=1, max_value=6))
    def test_components_below_partition(self, data, threshold):
        n, edges = data
        tree = gomory_hu_tree(range(n), edges)
        parts = tree.components_below(threshold)
        flat = sorted(v for part in parts for v in part)
        assert flat == list(range(n))


class TestPeelingProperties:
    @given(edge_lists(), st.integers(min_value=2, max_value=6))
    def test_kernel_vertices_have_high_degree_or_stitches(self, data, k):
        n, edges = data
        g = DecompositionGraph.from_edges(edges, vertices=range(n))
        kernel, stack = peel_low_degree_vertices(g, k)
        assert set(kernel.vertices()) | set(stack) == set(range(n))
        for vertex in kernel.vertices():
            assert (
                kernel.conflict_degree(vertex) >= k
                or kernel.stitch_degree(vertex) >= 2
            )

    @given(edge_lists(), st.integers(min_value=3, max_value=6))
    def test_reinsertion_adds_no_conflicts(self, data, k):
        """Peel, color the kernel greedily, reinsert: every conflict involving
        a peeled vertex must be satisfied (the safety claim of Algorithm 2)."""
        from repro.core.greedy_coloring import greedy_color_graph

        n, edges = data
        g = DecompositionGraph.from_edges(edges, vertices=range(n))
        kernel, stack = peel_low_degree_vertices(g, k)
        coloring = greedy_color_graph(kernel, k, 0.1) if kernel.num_vertices else {}
        reinsert_peeled_vertices(g, coloring, stack, k)
        peeled = set(stack)
        for u, v in g.conflict_edges():
            if u in peeled or v in peeled:
                assert coloring[u] != coloring[v]


class TestMergedGraphProperties:
    @given(edge_lists())
    def test_total_weight_preserved(self, data):
        n, edges = data
        g = DecompositionGraph.from_edges(edges, vertices=range(n))
        pairs = [(i, i + 1) for i in range(0, n - 1, 2)]
        merged = build_merged_graph(g, pairs)
        total = merged.internal_conflicts + sum(merged.conflict_weight.values())
        assert total == len(edges)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=30))
    def test_unionfind_groups_partition(self, pairs):
        uf = UnionFind(range(21))
        for a, b in pairs:
            uf.union(a, b)
        groups = uf.groups()
        flat = sorted(v for group in groups for v in group)
        assert flat == list(range(21))
