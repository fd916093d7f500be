"""Bit-identical parity between the solve kernels and the reference solvers.

The kernels (``repro.core.kernels``) are pure speed: same colors, same dict
insertion order, same statistics, on every input.  These tests sweep
randomized graphs through all three compiled kernels against the reference
implementations, run the same sweeps through the no-compiler ``auto`` path
(where dispatch must land on the reference solvers), check the dispatch plumbing (env modes, the in-process
override, the compiled-core contract, the color cap), and — in the slow
tier — sweep every component of all fifteen Table 1 circuits.
"""

from __future__ import annotations

import random

import pytest

from repro.core.backtrack import (
    BacktrackStatistics,
    run_backtrack_search,
    search_merged_graph,
)
from repro.core.greedy_coloring import GreedyColoring
from repro.core.kernels import (
    KERNEL_MODE_ENV,
    MAX_COMPILED_COLORS,
    active_core,
    kernel_mode,
    select_kernel,
    set_kernel_mode,
)
from repro.core.kernels.backtrack_kernel import backtrack_search
from repro.core.kernels.ccore import compiled_core
from repro.core.linear_coloring import LinearColoring
from repro.core.options import AlgorithmOptions
from repro.errors import ConfigurationError
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import build_merged_graph

from parity_support import (  # noqa: F401  (fixtures register by name)
    MODES,
    FailingLib,
    _restore_kernel_mode,
    assert_same_coloring,
    enter_mode,
    needs_compiled,
)


def random_graph(rng: random.Random, n: int) -> DecompositionGraph:
    """Random graph with all three edge kinds (friend edges exercise linear)."""
    conflict, stitch, friend = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.random()
            if r < 0.25:
                conflict.append((i, j))
            elif r < 0.35:
                stitch.append((i, j))
            elif r < 0.42:
                friend.append((i, j))
    graph = DecompositionGraph.from_edges(conflict, stitch, vertices=range(n))
    for u, v in friend:
        graph.add_friend_edge(u, v)
    return graph


def random_merged(rng: random.Random, n: int):
    """Random merged graph including some multi-member (weighted) nodes."""
    conflict, stitch = [], []
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.random()
            if r < 0.3:
                conflict.append((i, j))
            elif r < 0.42:
                stitch.append((i, j))
    graph = DecompositionGraph.from_edges(conflict, stitch, vertices=range(n))
    pairs = []
    vertices = list(range(n))
    rng.shuffle(vertices)
    for a, b in zip(vertices[::2], vertices[1::2]):
        if rng.random() < 0.3 and not graph.has_conflict_edge(a, b):
            pairs.append((a, b))
    return build_merged_graph(graph, pairs)


class TestGreedyLinearParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_graphs(self, enter_mode, mode, seed):
        rng = random.Random(seed)
        for trial in range(12):
            n = rng.randint(0, 14)
            graph = random_graph(rng, n)
            num_colors = rng.choice([3, 4])
            for algorithm_cls in (GreedyColoring, LinearColoring):
                algorithm = algorithm_cls(num_colors, AlgorithmOptions())
                set_kernel_mode("off")
                reference = algorithm.color(graph)
                enter_mode(mode)
                candidate = algorithm.color(graph)
                assert_same_coloring(
                    reference,
                    candidate,
                    (algorithm_cls.__name__, mode, seed, trial, n, num_colors),
                )

    @pytest.mark.parametrize("mode", MODES)
    def test_linear_option_toggles(self, enter_mode, mode):
        """Peer selection / color-friendly / refinement toggles all dispatch."""
        rng = random.Random(99)
        graph = random_graph(rng, 12)
        for peer in (True, False):
            for friendly in (True, False):
                for refinement in (True, False):
                    options = AlgorithmOptions(
                        use_peer_selection=peer,
                        use_color_friendly=friendly,
                        use_post_refinement=refinement,
                    )
                    algorithm = LinearColoring(4, options)
                    set_kernel_mode("off")
                    reference = algorithm.color(graph)
                    enter_mode(mode)
                    candidate = algorithm.color(graph)
                    assert_same_coloring(
                        reference, candidate, (mode, peer, friendly, refinement)
                    )


class TestBacktrackParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_merged_graphs(self, enter_mode, mode, seed):
        rng = random.Random(seed)
        for trial in range(15):
            n = rng.randint(0, 12)
            merged = random_merged(rng, n)
            num_colors = rng.choice([3, 4])
            limit = rng.choice([0, 1, 5, 50, 2_000_000])
            reference_stats = BacktrackStatistics()
            reference = search_merged_graph(
                merged, num_colors, 0.1,
                expansion_limit=limit, statistics=reference_stats,
            )
            enter_mode(mode)
            kernel_stats = BacktrackStatistics()
            candidate = run_backtrack_search(
                merged, num_colors, 0.1,
                expansion_limit=limit, statistics=kernel_stats,
            )
            context = (mode, seed, trial, n, num_colors, limit)
            assert_same_coloring(reference, candidate, context)
            assert kernel_stats.expansions == reference_stats.expansions, context
            assert kernel_stats.completed == reference_stats.completed, context
            # Bit-identical, not approx: the kernels replicate the reference
            # float summation order exactly (and the C build forbids FMA).
            assert kernel_stats.best_cost == reference_stats.best_cost, context

    @pytest.mark.parametrize("mode", MODES)
    def test_initial_incumbent_respected(self, enter_mode, mode):
        rng = random.Random(5)
        merged = random_merged(rng, 10)
        initial = {node: node % 3 for node in range(merged.num_nodes)}
        reference = search_merged_graph(
            merged, 3, 0.1, expansion_limit=0, initial=initial
        )
        enter_mode(mode)
        candidate = run_backtrack_search(
            merged, 3, 0.1, expansion_limit=0, initial=initial
        )
        assert_same_coloring(reference, candidate, mode)


class TestDispatchPlumbing:
    def test_env_mode_parsing(self, monkeypatch):
        set_kernel_mode(None)
        monkeypatch.delenv(KERNEL_MODE_ENV, raising=False)
        assert kernel_mode() == "auto"
        monkeypatch.setenv(KERNEL_MODE_ENV, "off")
        assert kernel_mode() == "off"
        monkeypatch.setenv(KERNEL_MODE_ENV, "")
        assert kernel_mode() == "auto"
        monkeypatch.setenv(KERNEL_MODE_ENV, "fast")
        with pytest.raises(ConfigurationError):
            kernel_mode()

    def test_python_mode_is_rejected(self, monkeypatch):
        """``python`` is not a kernel mode; the error names the valid ones."""
        set_kernel_mode(None)
        monkeypatch.setenv(KERNEL_MODE_ENV, "python")
        with pytest.raises(ConfigurationError, match="auto, compiled, off"):
            kernel_mode()
        with pytest.raises(ConfigurationError, match="auto, compiled, off"):
            set_kernel_mode("python")

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_MODE_ENV, "fast")
        set_kernel_mode("off")
        assert kernel_mode() == "off"

    def test_off_disables_dispatch(self):
        set_kernel_mode("off")
        assert select_kernel("greedy", 4) is None
        assert select_kernel("linear", 4) is None
        assert select_kernel("backtrack", 4) is None
        assert active_core() is None

    @needs_compiled
    def test_unknown_algorithm_is_none(self):
        set_kernel_mode("compiled")
        assert select_kernel("sdp", 4) is None

    def test_compiled_mode_is_strict(self, monkeypatch, tmp_path):
        """``compiled`` must raise, not fall back, when no core can build.

        This is what makes the CI compiled leg honest: if the toolchain
        breaks, the leg fails instead of silently testing the fallback.
        """
        from repro.core.kernels import ccore

        monkeypatch.setenv(ccore.BUILD_ENV, "0")
        monkeypatch.setenv(ccore.CACHE_DIR_ENV, str(tmp_path))
        ccore.reset()
        try:
            set_kernel_mode("compiled")
            with pytest.raises(ConfigurationError):
                active_core()
            set_kernel_mode("auto")
            assert active_core() is None  # auto degrades silently
        finally:
            ccore.reset()

    def test_auto_without_core_runs_reference(self, monkeypatch, tmp_path):
        """Without a compiler, ``auto`` selects no kernel, exactly like ``off``."""
        from repro.core.kernels import ccore

        monkeypatch.setenv(ccore.BUILD_ENV, "0")
        monkeypatch.setenv(ccore.CACHE_DIR_ENV, str(tmp_path))
        ccore.reset()
        try:
            set_kernel_mode("auto")
            assert select_kernel("greedy", 4) is None
            assert select_kernel("linear", 4) is None
            assert select_kernel("backtrack", 4) is None
        finally:
            ccore.reset()

    def test_ambient_mode_is_exercised(self):
        """Under an ambient env mode (the CI legs), the dispatch must hold.

        With ``REPRO_SOLVE_KERNELS=compiled`` this hard-fails when the core
        cannot build — ``active_core`` raises — which is exactly the point.
        """
        set_kernel_mode(None)
        mode = kernel_mode()
        if mode == "compiled":
            assert active_core() is not None
            assert select_kernel("greedy", 4) is not None
        elif mode == "off":
            assert select_kernel("greedy", 4) is None
        else:
            core_loaded = active_core() is not None
            assert (select_kernel("greedy", 4) is not None) == core_loaded


class TestCompiledCore:
    @needs_compiled
    def test_build_is_cached(self):
        from repro.core.kernels import ccore

        first = ccore.compiled_core()
        second = ccore.compiled_core()
        assert first is second is not None

    @needs_compiled
    @pytest.mark.parametrize(
        "algorithm_cls", [GreedyColoring, LinearColoring], ids=["greedy", "linear"]
    )
    def test_color_cap_falls_back(self, algorithm_cls):
        """K beyond the compiled color cap runs the reference solver."""
        set_kernel_mode("compiled")
        name = algorithm_cls.name
        assert select_kernel(name, MAX_COMPILED_COLORS) is not None
        assert select_kernel(name, MAX_COMPILED_COLORS + 1) is None

        rng = random.Random(3)
        graph = random_graph(rng, 10)
        algorithm = algorithm_cls(MAX_COMPILED_COLORS + 1, AlgorithmOptions())
        set_kernel_mode("off")
        reference = algorithm.color(graph)
        set_kernel_mode("compiled")
        candidate = algorithm.color(graph)
        assert_same_coloring(reference, candidate, ("color-cap", name))

    @needs_compiled
    def test_peel_allocation_failure_raises(self, monkeypatch):
        from repro.core.kernels.adjacency import CSRAdjacency

        core = compiled_core()
        monkeypatch.setattr(core, "_lib", FailingLib(core._lib, "repro_peel"))
        csr = CSRAdjacency(random_graph(random.Random(4), 8).to_arrays())
        with pytest.raises(MemoryError):
            core.peel(4, 2, csr)

    @needs_compiled
    def test_search_allocation_failure_raises(self, monkeypatch):
        core = compiled_core()
        monkeypatch.setattr(
            core, "_lib", FailingLib(core._lib, "repro_backtrack_search")
        )
        set_kernel_mode("compiled")
        with pytest.raises(MemoryError):
            backtrack_search(random_merged(random.Random(4), 8), 4, 0.1)


class TestMemoizedFrameParity:
    """Workers solve straight off shipped frames — results must not change."""

    @pytest.mark.parametrize("mode", MODES)
    def test_frame_roundtrip_solves_identically(self, enter_mode, mode):
        from repro.graph.flat import graph_from_frame

        rng = random.Random(17)
        graph = random_graph(rng, 13)
        frame = graph.to_arrays().to_bytes()
        rebuilt = graph_from_frame(frame, memoize=True)
        assert rebuilt._flat is not None  # decoded frame reused, not re-flattened
        for algorithm_cls in (GreedyColoring, LinearColoring):
            algorithm = algorithm_cls(4, AlgorithmOptions())
            set_kernel_mode("off")
            reference = algorithm.color(graph)
            enter_mode(mode)
            candidate = algorithm.color(rebuilt)
            assert_same_coloring(reference, candidate, (algorithm_cls.__name__, mode))


@pytest.mark.slow
class TestCircuitSweep:
    """Byte-identical colorings over every component of all 15 circuits."""

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
    def test_all_components_identical(self, enter_mode, circuit, mode):
        from repro.bench.factory import circuit_graph
        from repro.graph.components import connected_components

        graph = circuit_graph(circuit, 4, scale=self.SCALE).graph
        components = [
            graph.subgraph(component) for component in connected_components(graph)
        ]
        for algorithm_cls in (GreedyColoring, LinearColoring):
            algorithm = algorithm_cls(4, AlgorithmOptions())
            for component in components:
                set_kernel_mode("off")
                reference = algorithm.color(component)
                enter_mode(mode)
                candidate = algorithm.color(component)
                assert_same_coloring(
                    reference,
                    candidate,
                    (circuit, algorithm_cls.__name__, mode, component.num_vertices),
                )


class TestEndToEndTable:
    @needs_compiled
    def test_run_table_identical_off_vs_compiled(self):
        """A full (small) experiment run must not depend on the kernel mode."""
        from repro.experiments.runner import run_table

        def table():
            return run_table(
                ["C432"],
                ["linear", "greedy"],
                num_colors=4,
                scale=0.12,
                name="kernel-parity",
            )

        set_kernel_mode("off")
        reference = table()
        set_kernel_mode("compiled")
        candidate = table()
        for ref_row, cand_row in zip(reference.rows, candidate.rows):
            assert (ref_row.circuit, ref_row.algorithm) == (
                cand_row.circuit, cand_row.algorithm,
            )
            assert (ref_row.conflicts, ref_row.stitches) == (
                cand_row.conflicts, cand_row.stitches,
            ), (ref_row.circuit, ref_row.algorithm)
