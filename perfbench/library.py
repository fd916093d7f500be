"""Table 1 workloads: serial ``repro.Decomposer.decompose`` over the circuits.

The timed phase decomposes every circuit in Table 1 order, in as many whole
passes as fill about ``seconds`` (so the circuit mix never depends on
speed).  A speed probe runs before every decompose call (outside its
timer), and each pass's timings are scaled by that pass's probe slowdown
(see :mod:`speed`).  ``features_per_s`` is the median scaled pass; the
request latencies are those of whole passes, the time a user of the Table 1
flow waits for the suite.  Each pass's results are checked between passes,
outside the timed phase.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Tuple

import workloads
from report import Outcome, percentile
from speed import SpeedMeter

#: Circuit scale per workload.  ``table1-linear`` runs the circuits at full
#: size.  The SDP cost is set by the number of pieces that reach the
#: relaxation (about 0.15 s each), not by the feature count, so
#: ``table1-sdp`` runs all fifteen at the scale whose one pass (about 130
#: pieces, 20 s on a 2-CPU box) keeps the seed-to-seed spread moderate.
SCALES = {"table1-linear": 1.0, "table1-sdp": 0.3}
ALGORITHMS = {"table1-linear": "linear", "table1-sdp": "sdp-backtrack"}

SETUP_REPEATS = 3
#: Probe samples taken before each decompose call and each set-up.
PROBES_PER_CALL = 2
PROBES_PER_SETUP = 20
#: One fresh interpreter: import, compiled-kernel probe (the kernel is
#: already built, so this loads it) and decomposer construction.
SETUP_PROBE = """
import repro
from repro.core.kernels import active_core
active_core()
from repro import Decomposer, DecomposerOptions
Decomposer(DecomposerOptions.for_quadruple_patterning({algorithm!r}))
"""


def measure_setup(algorithm: str) -> float:
    """Median of ``SETUP_REPEATS`` fresh-interpreter set-ups, speed-scaled."""
    code = SETUP_PROBE.format(algorithm=algorithm)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=170)  # warm the kernel
    times = []
    for _ in range(SETUP_REPEATS):
        meter = SpeedMeter()
        meter.sample(PROBES_PER_SETUP)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        elapsed = time.perf_counter() - start
        meter.sample(PROBES_PER_SETUP)
        times.append(elapsed / meter.slowdown())
    return median(times)


def recount(result) -> Tuple[int, int]:
    """Conflicts and stitches counted from the coloring, independently."""
    graph, coloring = result.construction.graph, result.solution.coloring
    conflicts = sum(coloring[u] == coloring[v] for u, v in graph.conflict_edges())
    stitches = sum(coloring[u] != coloring[v] for u, v in graph.stitch_edges())
    return conflicts, stitches


class Table1Run:
    """One seed's circuits, a decomposer, and the checks on its results."""

    def __init__(self, workload: str, seed: int, scale=None, names=()) -> None:
        from repro import Decomposer, DecomposerOptions

        self.algorithm = ALGORITHMS[workload]
        scale = SCALES[workload] if scale is None else scale
        circuits = workloads.table1_circuits(seed, scale, names)
        self.layouts = [(c.name, workloads.to_layout(c.name, c.rects)) for c in circuits]
        self.features = sum(len(c.rects) for c in circuits)
        self.decomposer = Decomposer(DecomposerOptions.for_quadruple_patterning(self.algorithm))
        self.outcome = Outcome()
        self.first_pass: Dict[str, Tuple[int, int]] = {}
        self.walls: List[float] = []
        #: Per pass: features per second and seconds, both scaled to the
        #: reference machine speed.
        self.scaled_rates: List[float] = []
        self.scaled_times: List[float] = []
        self.last_results: list = []

    def one_pass(self) -> list:
        """Decompose every circuit once; record the pass's times."""
        results, calls = [], []
        meter = SpeedMeter()
        start = time.perf_counter()
        for _, layout in self.layouts:
            meter.sample(PROBES_PER_CALL)
            t0 = time.perf_counter()
            results.append(self.decomposer.decompose(layout))
            calls.append(time.perf_counter() - t0)
        self.walls.append(time.perf_counter() - start)
        slowdown = meter.slowdown()
        self.scaled_rates.append(self.features / sum(calls) * slowdown)
        self.scaled_times.append(sum(calls) / slowdown)
        return results

    def check(self, results) -> None:
        """Recount, ``check_complete``, and compare with the first pass."""
        from repro.core.evaluation import check_complete
        from repro.errors import ReproError

        self.last_results = results
        for (name, _), result in zip(self.layouts, results):
            self.outcome.attempted += 1
            solution = result.solution
            try:
                check_complete(result.construction.graph, solution.coloring, solution.num_colors)
            except ReproError as exc:
                self.outcome.fail(f"{name}: {exc}")
                continue
            counts = recount(result)
            expected = self.first_pass.setdefault(name, counts)
            if counts != (solution.conflicts, solution.stitches) or counts != expected:
                self.outcome.fail(
                    f"{name}: reported {(solution.conflicts, solution.stitches)}, "
                    f"recounted {counts}, first pass {expected}"
                )

    def passes(self, seconds: float) -> None:
        """Whole passes filling about ``seconds``, each checked after it.

        The first pass sets the count, so the circuit mix never depends on
        speed and a run is never cut inside a pass.
        """
        first = len(self.walls)
        self.check(self.one_pass())
        target = max(1, round(seconds / self.walls[-1]))
        while len(self.walls) - first < target:
            self.check(self.one_pass())


def run_table1(workload: str, seed: int, seconds: int, trace: bool, spans_path) -> Outcome:
    setup = measure_setup(ALGORITHMS[workload])
    run = Table1Run(workload, seed)
    run.decomposer.decompose(run.layouts[0][1])  # first-use costs, untimed
    if not trace:
        run.passes(seconds)
        outcome = run.outcome
        outcome.metric("features_per_s", median(run.scaled_rates), "features/s")
        outcome.metric("req_p50_ms", 1e3 * percentile(run.scaled_times, 50), "ms")
        outcome.metric("req_p90_ms", 1e3 * percentile(run.scaled_times, 90), "ms")
        outcome.note(
            f"{len(run.walls)} passes of {len(run.layouts)} circuits, {run.features} features"
        )
        _quality(outcome, run)
        outcome.metric("setup_s", setup, "s")
        outcome.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        return outcome
    return traced(run, seconds, spans_path)


def _quality(outcome: Outcome, run: Table1Run) -> None:
    outcome.metric("conflicts", sum(c for c, _ in run.first_pass.values()), "count")
    outcome.metric("stitches", sum(s for _, s in run.first_pass.values()), "count")


def traced(run: Table1Run, seconds: float, spans_path) -> Outcome:
    """Untraced passes, then the same passes under the layer wrappers."""
    from tracing import Tracer, install_library_wrappers, self_times

    run.passes(seconds / 2)
    untraced = median(run.scaled_rates)
    first = len(run.walls)
    tracer = Tracer()
    undo = install_library_wrappers(tracer)
    try:
        run.passes(seconds / 2)
    finally:
        undo()
    wall, passes = sum(run.walls[first:]), len(run.walls) - first
    results = run.last_results
    tracer.dump(spans_path)
    selfs, unattributed = self_times(tracer.spans, wall)
    outcome = run.outcome
    for layer in LIBRARY_LAYERS:
        outcome.metric(f"{layer}_s", selfs.get(layer, 0.0) / passes, "s")
    outcome.metric("trace.unattributed_s", unattributed / passes, "s")
    outcome.metric("trace.wall_s", wall / passes, "s")
    traced_rate = median(run.scaled_rates[first:])
    outcome.metric("trace.features_per_s", traced_rate, "features/s")
    outcome.metric("trace.untraced_features_per_s", untraced, "features/s")
    outcome.metric("trace.overhead_ratio", untraced / traced_rate, "ratio")
    for name in ("opt.sdp_calls", "opt.sdp_iterations", "core.backtrack_expansions"):
        outcome.metric(name, tracer.counts.get(name, 0) / passes, "count")
    graphs = [r.construction.graph for r in results]
    reports = [r.division_report for r in results]
    outcome.metric("graph.vertices", sum(g.num_vertices for g in graphs), "count")
    outcome.metric("graph.conflict_edges", sum(g.num_conflict_edges for g in graphs), "count")
    outcome.metric("graph.stitch_edges", sum(g.num_stitch_edges for g in graphs), "count")
    outcome.metric("graph.peeled_vertices", sum(r.peeled_vertices for r in reports), "count")
    outcome.metric("graph.biconnected_blocks", sum(r.num_biconnected_blocks for r in reports), "count")
    outcome.metric("graph.ghtree_parts", sum(r.num_ghtree_parts for r in reports), "count")
    outcome.metric("core.pieces", sum(r.colored_pieces for r in reports), "count")
    outcome.metric("core.largest_piece", max(r.largest_colored_piece for r in reports), "count")
    _quality(outcome, run)
    return outcome


#: Span names of the library layers, reported as ``<name>_s`` self time.
LIBRARY_LAYERS = (
    "core.decompose",
    "graph.construct",
    "core.divide",
    "graph.components",
    "graph.subgraph",
    "graph.peel",
    "graph.reinsert",
    "graph.biconnected",
    "graph.ghtree",
    "core.color",
    "opt.sdp",
    "core.merge",
    "core.evaluate",
)
