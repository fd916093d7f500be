"""Bit-identical graph division on the compiled core.

``peel_low_degree_vertices`` and ``reinsert_peeled_vertices`` run in the
compiled core whenever it is loaded; the dict loops are the reference
(``off``).  These tests run each side and compare the removal stack, the
surviving kernel, the reinserted colors with their dict insertion order,
and whole ``divide_and_color`` runs with their ``DivisionReport``.  The
slow tier sweeps all fifteen Table 1 circuits.
"""

from __future__ import annotations

import random

import pytest

from repro.core.division import DivisionReport, divide_and_color
from repro.core.greedy_coloring import GreedyColoring, greedy_color_graph
from repro.core.kernels import set_kernel_mode
from repro.core.kernels.ccore import compiled_core
from repro.core.linear_coloring import LinearColoring
from repro.core.options import AlgorithmOptions
from repro.errors import GraphError
from repro.graph.components import connected_components
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import peel_low_degree_vertices, reinsert_peeled_vertices

from parity_support import (  # noqa: F401  (fixtures register by name)
    MODES,
    FailingLib,
    _restore_kernel_mode,
    assert_same_coloring,
    enter_mode,
    needs_compiled,
)


def clustered_graph(rng: random.Random) -> DecompositionGraph:
    """Dense clusters tied by sparse bridges and low-degree paths.

    Peeling removes the paths, so clusters tied by nothing else fall into
    separate kernel pieces; the bridges leave (K-1)-cuts for the GH tree;
    shared vertices make biconnected blocks.  Stitch edges (some parallel to conflict edges) and
    color-friendly edges are sprinkled throughout, and vertex ids are
    spread out so ranks differ from ids.
    """
    conflict, stitch, friend = set(), set(), set()
    clusters = []
    next_id = 0
    for _ in range(rng.randint(2, 5)):
        size = rng.randint(5, 11)
        members = list(range(next_id, next_id + size))
        next_id += size
        if clusters and rng.random() < 0.3:
            members[0] = rng.choice(clusters[-1])  # shared cut vertex
        density = rng.uniform(0.5, 0.9)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if u != v and rng.random() < density:
                    conflict.add((min(u, v), max(u, v)))
        clusters.append(members)
    for a, b in zip(clusters, clusters[1:]):
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            u, v = rng.choice(a), rng.choice(b)
            if u != v:
                conflict.add((min(u, v), max(u, v)))
        path = [rng.choice(a)] + list(range(next_id, next_id + 2)) + [rng.choice(b)]
        next_id += 2
        for u, v in zip(path, path[1:]):
            if u != v:
                conflict.add((min(u, v), max(u, v)))
    vertices = list(range(next_id))
    for members in clusters:
        for _ in range(len(members) // 2):
            u, v = rng.sample(members, 2)
            key = (min(u, v), max(u, v))
            if rng.random() < 0.5:
                stitch.add(key)
            else:
                friend.add(key)
    if conflict:
        stitch.update(rng.sample(sorted(conflict), min(2, len(conflict))))
    friend -= conflict | stitch
    scale = rng.choice([1, 3, 7])
    graph = DecompositionGraph.from_edges(
        [(scale * u, scale * v) for u, v in sorted(conflict)],
        [(scale * u, scale * v) for u, v in sorted(stitch)],
        vertices=[scale * v for v in vertices],
    )
    for u, v in sorted(friend):
        graph.add_friend_edge(scale * u, scale * v)
    return graph


def _edges(graph: DecompositionGraph):
    return (graph.conflict_edges(), graph.stitch_edges(), graph.friend_edges())


class TestPeelParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(8))
    def test_same_stack_and_kernel(self, enter_mode, mode, seed):
        rng = random.Random(seed)
        for trial in range(10):
            graph = clustered_graph(rng)
            num_colors = rng.choice([3, 4, 5])
            max_stitch_degree = rng.choice([1, 2, 3])
            set_kernel_mode("off")
            ref_kernel, ref_stack = peel_low_degree_vertices(
                graph, num_colors, max_stitch_degree
            )
            enter_mode(mode)
            kernel, stack = peel_low_degree_vertices(
                graph, num_colors, max_stitch_degree
            )
            context = (seed, trial, num_colors, max_stitch_degree)
            assert stack == ref_stack, context
            assert kernel.vertices() == ref_kernel.vertices(), context
            assert _edges(kernel) == _edges(ref_kernel), context

    @needs_compiled
    def test_allocation_failure_propagates(self, monkeypatch):
        core = compiled_core()
        monkeypatch.setattr(core, "_lib", FailingLib(core._lib, "repro_peel"))
        set_kernel_mode("compiled")
        graph = clustered_graph(random.Random(3))
        with pytest.raises(MemoryError):
            peel_low_degree_vertices(graph, 4)
        with pytest.raises(MemoryError):
            divide_and_color(graph, LinearColoring(4))


class TestReinsertParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(8))
    def test_same_colors_and_order(self, enter_mode, mode, seed):
        rng = random.Random(100 + seed)
        for trial in range(10):
            graph = clustered_graph(rng)
            num_colors = rng.choice([3, 4, 5])
            set_kernel_mode("off")
            kernel, stack = peel_low_degree_vertices(graph, num_colors)
            base = greedy_color_graph(kernel, num_colors, 0.1) if kernel.num_vertices else {}
            reference = reinsert_peeled_vertices(graph, dict(base), stack, num_colors)
            enter_mode(mode)
            candidate = reinsert_peeled_vertices(graph, dict(base), stack, num_colors)
            assert_same_coloring(reference, candidate, (seed, trial, num_colors))

    @pytest.mark.parametrize("mode", MODES)
    def test_fully_blocked_vertices_take_least_damage(self, enter_mode, mode):
        """A stack of non-peelable vertices exercises the fallback color."""
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        graph = DecompositionGraph.from_edges(edges, [(0, 6)])
        stack = [5, 2, 0, 6, 3, 1, 4]
        set_kernel_mode("off")
        reference = reinsert_peeled_vertices(graph, {}, stack, 4)
        enter_mode(mode)
        candidate = reinsert_peeled_vertices(graph, {}, stack, 4)
        assert_same_coloring(reference, candidate, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_inputs_outside_the_core_run_the_reference(self, enter_mode, mode):
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2), (0, 2)], [(2, 3)])
        set_kernel_mode("off")
        reference = reinsert_peeled_vertices(graph, {0: 7, 9: 1}, [3, 2], 4)
        enter_mode(mode)
        candidate = reinsert_peeled_vertices(graph, {0: 7, 9: 1}, [3, 2], 4)
        assert_same_coloring(reference, candidate, mode)
        with pytest.raises(GraphError):
            reinsert_peeled_vertices(graph, {}, [2, 42], 4)


def _divide_both_ways(enter_mode, mode, graph, colorer):
    set_kernel_mode("off")
    ref_report = DivisionReport()
    reference = divide_and_color(graph, colorer, report=ref_report)
    enter_mode(mode)
    report = DivisionReport()
    candidate = divide_and_color(graph, colorer, report=report)
    return reference, ref_report, candidate, report


class TestDivideAndColorParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(8))
    def test_same_coloring_and_report(self, enter_mode, mode, seed):
        rng = random.Random(200 + seed)
        for trial in range(6):
            graph = clustered_graph(rng)
            num_colors = rng.choice([3, 4, 5])
            for colorer_cls in (GreedyColoring, LinearColoring):
                colorer = colorer_cls(num_colors, AlgorithmOptions())
                reference, ref_report, candidate, report = _divide_both_ways(
                    enter_mode, mode, graph, colorer
                )
                context = (seed, trial, num_colors, colorer_cls.__name__)
                assert_same_coloring(reference, candidate, context)
                assert report == ref_report, context

    def test_generator_reaches_every_stage(self):
        """The random graphs above split kernels, blocks and GH parts."""
        split_kernels = split_blocks = split_ghtree = 0
        rng = random.Random(200)
        for _ in range(30):
            graph = clustered_graph(rng)
            kernel, _ = peel_low_degree_vertices(graph, 4)
            split_kernels += len(connected_components(kernel)) > 1
            report = DivisionReport()
            divide_and_color(graph, GreedyColoring(4), report=report)
            split_blocks += report.num_biconnected_blocks > 1
            split_ghtree += report.num_ghtree_parts > 1
        assert min(split_kernels, split_blocks, split_ghtree) >= 5


@pytest.mark.slow
class TestCircuitSweep:
    """``divide_and_color`` on all 15 Table 1 circuits, compiled vs ``off``."""

    SCALE = 0.15

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "circuit",
        [
            "C432", "C499", "C880", "C1355", "C1908", "C2670", "C3540",
            "C5315", "C6288", "C7552", "S1488", "S38417", "S35932",
            "S38584", "S15850",
        ],
    )
    def test_division_identical(self, enter_mode, circuit, mode):
        from repro.bench.factory import circuit_graph

        graph = circuit_graph(circuit, 4, scale=self.SCALE).graph
        colorer = LinearColoring(4, AlgorithmOptions())
        reference, ref_report, candidate, report = _divide_both_ways(
            enter_mode, mode, graph, colorer
        )
        assert_same_coloring(reference, candidate, (circuit, mode))
        assert report == ref_report, (circuit, mode)
