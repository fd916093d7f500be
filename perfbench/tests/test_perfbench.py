"""Tests of the benchmark's own machinery (generator, spans, determinism)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402


def test_table1_generator_is_seeded():
    first = workloads.table1_circuits(7, 0.05)
    again = workloads.table1_circuits(7, 0.05)
    other = workloads.table1_circuits(8, 0.05)
    assert [c.rects for c in first] == [c.rects for c in again]
    assert [c.name for c in first] == [p[0] for p in workloads.TABLE1_PROFILES]
    assert all(a.rects != b.rects for a, b in zip(first, other))


def test_cell_traffic_is_seeded():
    first = workloads.CellTraffic(3)
    again = workloads.CellTraffic(3)
    other = workloads.CellTraffic(4)
    assert first.library == again.library
    assert first.first("main", 5) == again.first("main", 5)
    assert first.library != other.library
    assert first.first("main", 5) != other.first("main", 5)
    assert first.first("main", 5) != first.first("traced", 5)


def test_every_cell_is_one_component():
    from repro.graph.components import connected_components
    from repro import Decomposer, DecomposerOptions

    traffic = workloads.CellTraffic(11)
    fresh = [workloads.cell_rects(workloads.derive_seed(11, "t", i)) for i in range(8)]
    decomposer = Decomposer(DecomposerOptions.for_quadruple_patterning("linear"))
    for rects in traffic.library[:8] + fresh:
        graph = decomposer.decompose(workloads.to_layout("cell", rects)).construction.graph
        assert len(connected_components(graph)) == 1


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 5.0, 9.0, 0, 1),
        Span("a", 6.0, 7.0, 2, 1),
        Span("root", 11.0, 12.0, None, 2),
    ]
    selfs, unattributed = self_times(spans, wall=13.0)
    assert selfs == {"root": 3.0 + 1.0, "a": 3.0 + 1.0, "b": 3.0}
    assert unattributed == 2.0
    assert sum(selfs.values()) + unattributed == 13.0


def test_self_times_count_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 6.0, 0, 1),
        Span("b", 4.0, 12.0, 0, 1),
    ]
    selfs, unattributed = self_times(spans, wall=10.0)
    assert selfs["root"] == 1.0
    assert unattributed == 0.0


def test_library_traced_runs_repeat_their_counts(tmp_path):
    from library import Table1Run, traced

    def counts(index):
        run = Table1Run("table1-sdp", 5, scale=0.05, names=("C432", "C499", "C6288"))
        outcome = traced(run, 0.001, tmp_path / f"spans{index}.jsonl")
        assert outcome.failed == 0
        spans = [json.loads(line) for line in (tmp_path / f"spans{index}.jsonl").open()]
        roots = [s for s in spans if s["parent"] is None]
        assert {s["name"] for s in roots} == {"core.decompose"}
        assert len({s["trace_id"] for s in roots}) == len(roots)
        assert all(s["trace_id"] == spans[s["parent"]]["trace_id"] for s in spans if s not in roots)
        names = ("opt.sdp_calls", "opt.sdp_iterations", "core.backtrack_expansions",
                 "conflicts", "stitches", "graph.vertices", "core.pieces")
        return {name: outcome.metrics[name][0] for name in names}, outcome

    first, outcome = counts(1)
    second, _ = counts(2)
    assert first == second
    assert first["opt.sdp_calls"] > 0 and first["opt.sdp_iterations"] > 0
    selfs = sum(v for k, (v, _) in outcome.metrics.items()
                if k.endswith("_s") and not k.startswith("trace."))
    assert abs(selfs + outcome.metrics["trace.unattributed_s"][0]
               - outcome.metrics["trace.wall_s"][0]) < 1e-6


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    import repro.core.decomposer as decomposer
    from library import Table1Run, traced

    before = (decomposer.Decomposer.decompose, decomposer.build_decomposition_graph)
    traced(Table1Run("table1-linear", 1, scale=0.05, names=("C432",)), 0.001, tmp_path / "s.jsonl")
    assert (decomposer.Decomposer.decompose, decomposer.build_decomposition_graph) == before


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_service_traced_runs_repeat_their_cache_counts():
    root = HERE.parent
    args = ["--workload", "serve-cells", "--seed", "2", "--seconds", "1", "--trace", "1"]
    results = []
    for _ in range(2):
        done = _run(args, root)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
    names = ("runtime.cache_hits", "runtime.cache_misses", "runtime.cache_stores")
    first, second = ({n: r["metrics"][n]["value"] for n in names} for r in results)
    assert first == second
    assert first["runtime.cache_hits"] > 0 and first["runtime.cache_misses"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    root = HERE.parent
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "table1-linear", "--seed", "1", "--seconds", "1"], tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
