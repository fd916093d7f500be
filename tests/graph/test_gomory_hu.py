"""Unit tests for the Gomory-Hu tree (Gusfield construction)."""

import networkx as nx
import numpy as np
import pytest

from maxflow_oracle import FlowNetwork, min_cut
from repro.bench.cells import figure6_graph
from repro.errors import GraphError
from repro.graph.gomory_hu import GomoryHuTree, gomory_hu_tree


def random_connected_edges(n: int, extra: float, seed: int):
    """A random connected graph: a path plus random chords."""
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < extra:
                edges.append((i, j))
    return edges


class TestGomoryHuTreeStructure:
    def test_empty_and_singleton(self):
        assert gomory_hu_tree([], []).edges == []
        assert gomory_hu_tree([3], []).edges == []

    def test_tree_has_n_minus_1_edges(self):
        edges = random_connected_edges(8, 0.3, 1)
        tree = gomory_hu_tree(range(8), edges)
        assert len(tree.edges) == 7

    def test_path_graph_cut_values(self):
        tree = gomory_hu_tree(range(4), [(0, 1), (1, 2), (2, 3)])
        for u in range(4):
            for v in range(u + 1, 4):
                assert tree.min_cut_value(u, v) == 1

    def test_identical_vertices_rejected(self):
        tree = gomory_hu_tree(range(3), [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            tree.min_cut_value(1, 1)


class TestCutEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_pairs_match_direct_min_cut(self, seed):
        n = 9
        edges = random_connected_edges(n, 0.25, seed)
        tree = gomory_hu_tree(range(n), edges)
        g = nx.Graph(edges)
        nx.set_edge_attributes(g, 1, "capacity")
        for u in range(n):
            for v in range(u + 1, n):
                expected = nx.minimum_cut_value(g, u, v, capacity="capacity")
                assert tree.min_cut_value(u, v) == expected, (u, v)


class TestComponentsBelow:
    def test_split_on_threshold(self):
        # Two triangles joined by a single edge: the joining cut has value 1.
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        tree = gomory_hu_tree(range(6), edges)
        parts = tree.components_below(2)
        assert sorted(map(tuple, parts)) == [(0, 1, 2), (3, 4, 5)]

    def test_threshold_one_keeps_everything(self):
        edges = [(0, 1), (1, 2)]
        tree = gomory_hu_tree(range(3), edges)
        assert tree.components_below(1) == [[0, 1, 2]]

    def test_cut_edges_below(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        tree = gomory_hu_tree(range(4), edges)
        removed = tree.cut_edges_below(2)
        assert len(removed) == 1
        assert removed[0][2] == 1

    def test_two_k5s_joined_by_3cut(self):
        """Two K5 blocks joined by a 3-cut stay together at threshold 3 but
        split into the two blocks at threshold 4 (QPLD removes GH edges with
        weight < K = 4).  Inside a K5 every pairwise min cut is >= 4, so the
        blocks themselves survive the split."""
        k5_a = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        k5_b = [(i + 5, j + 5) for i in range(5) for j in range(i + 1, 5)]
        cut = [(0, 5), (1, 6), (2, 7)]
        edges = k5_a + k5_b + cut
        tree = gomory_hu_tree(range(10), edges)
        assert tree.components_below(3) == [list(range(10))]
        parts = tree.components_below(4)
        assert sorted(map(tuple, parts)) == [tuple(range(5)), tuple(range(5, 10))]


class TestFigure6:
    def test_figure6_division_into_three_parts(self):
        """The Fig. 6 graph splits into three components after 3-cut removal."""
        graph = figure6_graph()
        edges = graph.conflict_edges()
        tree = gomory_hu_tree(graph.vertices(), edges)
        parts = tree.components_below(4)
        sizes = sorted(len(p) for p in parts)
        assert len(parts) >= 2
        assert sum(sizes) == graph.num_vertices


def dinic_gusfield(vertices, edges):
    """Gusfield's tree with one fresh Dinic network per flow (the oracle)."""
    vertices = sorted(set(vertices))
    root = vertices[0]
    parent = {v: root for v in vertices[1:]}
    weight = {}
    for index, vertex in enumerate(vertices[1:], start=1):
        network = FlowNetwork.from_edges(edges, vertices=vertices)
        target = parent[vertex]
        weight[vertex] = network.max_flow(vertex, target)
        side = network.min_cut_partition(vertex)
        for other in vertices[index + 1 :]:
            if other in side and parent[other] == target:
                parent[other] = vertex
    return [(v, parent[v], weight[v]) for v in vertices[1:]]


def random_simple_graph(seed: int):
    """``(n, edges, k)`` with 2 <= n <= 14 and 2 <= k <= 5, from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    density = rng.uniform(0.15, 0.8)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return n, edges, 2 + seed % 4


def conflict_stitch_multigraph(seed: int):
    """Conflict plus stitch edges on ``range(n)``; some pairs carry both, as
    in the edge list division hands the tree."""
    rng = np.random.default_rng(5000 + seed)
    n = int(rng.integers(4, 15))
    conflict = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35
    ]
    stitch = [(u, v) for (u, v) in conflict if rng.random() < 0.3]
    stitch += [(i, i + 1) for i in range(n - 1) if rng.random() < 0.3]
    return n, conflict + stitch


class TestCappedTree:
    """``cap=K`` keeps ``components_below(K)`` exact (the division's query)."""

    @pytest.mark.parametrize("chunk", range(20))
    def test_matches_k_edge_components(self, chunk):
        for seed in range(100 * chunk, 100 * (chunk + 1)):
            n, edges, k = random_simple_graph(seed)
            g = nx.Graph(edges)
            g.add_nodes_from(range(n))
            expected = sorted(sorted(part) for part in nx.k_edge_components(g, k))
            tree = gomory_hu_tree(range(n), edges, cap=k)
            assert tree.components_below(k) == expected, seed

    @pytest.mark.parametrize("seed", range(30))
    def test_multigraph_matches_uncapped_partition(self, seed):
        n, edges = conflict_stitch_multigraph(seed)
        exact = gomory_hu_tree(range(n), edges)
        for k in range(2, 6):
            capped = gomory_hu_tree(range(n), edges, cap=k)
            assert capped.components_below(k) == exact.components_below(k), k

    @pytest.mark.parametrize("seed", range(30))
    def test_weights_below_cap_are_exact(self, seed):
        n, edges = conflict_stitch_multigraph(seed)
        for k in range(2, 6):
            for u, v, weight in gomory_hu_tree(range(n), edges, cap=k).edges:
                value, _ = min_cut(edges, u, v, vertices=range(n))
                if weight < k:
                    assert weight == value, (u, v, k)
                else:
                    assert weight == k and value >= k, (u, v, k)

    @pytest.mark.parametrize("seed", range(30))
    def test_uncapped_tree_equals_dinic_gusfield(self, seed):
        """No cap: the same tree, edge for edge, as Gusfield over Dinic."""
        n, edges = conflict_stitch_multigraph(seed)
        assert gomory_hu_tree(range(n), edges).edges == dinic_gusfield(range(n), edges)

    def test_empty_and_singleton(self):
        for cap in (None, 4):
            empty = gomory_hu_tree([], [], cap=cap)
            assert empty.edges == [] and empty.components_below(4) == []
            single = gomory_hu_tree([3], [], cap=cap)
            assert single.edges == [] and single.components_below(4) == [[3]]

    def test_disconnected_vertices_split(self):
        tree = gomory_hu_tree(range(5), [(0, 1), (1, 2), (2, 0)], cap=2)
        assert tree.components_below(2) == [[0, 1, 2], [3], [4]]
