"""Max-flow tests: the Dinic oracle against networkx, the library's
arc-array flow (:class:`repro.graph.maxflow.ArcNetwork`) against the oracle."""

import networkx as nx
import numpy as np
import pytest

from maxflow_oracle import FlowNetwork, min_cut
from repro.errors import GraphError
from repro.graph.maxflow import ArcNetwork


class TestFlowNetworkBasics:
    def test_single_edge(self):
        net = FlowNetwork.from_edges([(0, 1)])
        assert net.max_flow(0, 1) == 1

    def test_parallel_paths(self):
        net = FlowNetwork.from_edges([(0, 1), (1, 3), (0, 2), (2, 3)])
        assert net.max_flow(0, 3) == 2

    def test_bottleneck(self):
        # Two paths share the bottleneck edge (2, 3).
        net = FlowNetwork.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert net.max_flow(0, 3) == 1

    def test_disconnected_zero_flow(self):
        net = FlowNetwork.from_edges([(0, 1)], vertices=[2])
        assert net.max_flow(0, 2) == 0

    def test_capacity_scaling(self):
        net = FlowNetwork()
        net.add_edge(0, 1, 5)
        net.add_edge(1, 2, 3)
        assert net.max_flow(0, 2) == 3

    def test_directed_edge(self):
        net = FlowNetwork()
        net.add_edge(0, 1, 1, undirected=False)
        assert net.max_flow(0, 1) == 1
        net2 = FlowNetwork()
        net2.add_edge(0, 1, 1, undirected=False)
        assert net2.max_flow(1, 0) == 0

    def test_same_terminals_rejected(self):
        net = FlowNetwork.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            net.max_flow(0, 0)

    def test_unknown_terminal_rejected(self):
        net = FlowNetwork.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            net.max_flow(0, 9)

    def test_negative_capacity_rejected(self):
        with pytest.raises(GraphError):
            FlowNetwork().add_edge(0, 1, -1)


class TestMinCutPartition:
    def test_partition_separates_terminals(self):
        net = FlowNetwork.from_edges([(0, 1), (1, 2), (2, 3)])
        value = net.max_flow(0, 3)
        side = net.min_cut_partition(0)
        assert value == 1
        assert 0 in side and 3 not in side

    def test_cut_value_equals_crossing_edges(self):
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]
        value, side = min_cut(edges, 0, 4)
        crossing = sum(1 for (u, v) in edges if (u in side) != (v in side))
        assert crossing == value == 1


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_unit_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25
        ]
        if not edges:
            pytest.skip("empty random graph")
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        nx.set_edge_attributes(g, 1, "capacity")
        source, sink = 0, n - 1
        expected = nx.maximum_flow_value(g, source, sink, capacity="capacity")
        net = FlowNetwork.from_edges(edges, vertices=range(n))
        assert net.max_flow(source, sink) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_random_weighted_graphs(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 10
        g = nx.Graph()
        g.add_nodes_from(range(n))
        net = FlowNetwork()
        for v in range(n):
            net.add_vertex(v)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    cap = int(rng.integers(1, 6))
                    g.add_edge(i, j, capacity=cap)
                    net.add_edge(i, j, cap)
        if g.number_of_edges() == 0:
            pytest.skip("empty random graph")
        expected = nx.maximum_flow_value(g, 0, n - 1, capacity="capacity")
        assert net.max_flow(0, n - 1) == expected


def random_multigraph(n: int, density: float, seed: int):
    """Seeded random edges on ``range(n)``; some pairs appear twice."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j))
                if rng.random() < 0.2:
                    edges.append((j, i))
    return edges


class TestArcNetwork:
    def test_validation(self):
        with pytest.raises(GraphError):
            ArcNetwork([0, 1], [(0, 1)], capacity=-1)
        with pytest.raises(GraphError):
            ArcNetwork([0, 1], [(1, 1)])
        with pytest.raises(GraphError):
            ArcNetwork([0, 1], [(0, 2)])
        with pytest.raises(GraphError):
            ArcNetwork([0, 1], [(0, 1)]).max_flow(0, 0)

    def test_vertices_are_indices(self):
        network = ArcNetwork([10, 20, 30], [(10, 20), (20, 30), (10, 30)])
        value, side = network.max_flow(0, 2)
        assert value == 2
        assert side == [0]

    def test_network_is_reusable(self):
        network = ArcNetwork(range(4), [(0, 1), (1, 2), (2, 3), (0, 2)])
        first = network.max_flow(0, 3)
        assert network.max_flow(0, 3) == first
        assert network.capacities == [1] * 8

    @pytest.mark.parametrize("seed", range(40))
    def test_value_and_cut_side_match_oracle(self, seed):
        n = 10
        edges = random_multigraph(n, 0.3, seed)
        capacity = 1 + seed % 3
        network = ArcNetwork(range(n), edges, capacity=capacity)
        for source, sink in [(0, n - 1), (seed % n, (seed + 3) % n)]:
            oracle = FlowNetwork.from_edges(edges, capacity=capacity, vertices=range(n))
            expected = oracle.max_flow(source, sink)
            value, side = network.max_flow(source, sink)
            assert value == expected
            # Both report the vertices reachable in the final residual
            # network: the unique minimal source side of a minimum cut.
            assert set(side) == oracle.min_cut_partition(source)

    @pytest.mark.parametrize("seed", range(40))
    def test_cap_stops_at_threshold(self, seed):
        n = 9
        edges = random_multigraph(n, 0.45, 1000 + seed)
        exact, exact_side = ArcNetwork(range(n), edges).max_flow(0, n - 1)
        for cap in range(1, 6):
            value, side = ArcNetwork(range(n), edges).max_flow(0, n - 1, cap=cap)
            if exact >= cap:
                assert (value, side) == (cap, None)
            else:
                assert (value, side) == (exact, exact_side)
