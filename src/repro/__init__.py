"""repro — layout decomposition for quadruple patterning lithography and beyond.

A full reimplementation of the DAC 2014 decomposition framework of Yu & Pan:
decomposition-graph construction from Metal1/contact layouts, graph division
(independent components, low-degree peeling, biconnected blocks, Gomory-Hu
tree (K-1)-cut removal with color rotation) and four color-assignment
algorithms (exact ILP, SDP + backtrack, SDP + greedy, linear color
assignment), generalised to any K >= 4.

On top of the paper's flow sits an execution runtime (:mod:`repro.runtime`)
that exploits the independence of divided components: ``workers=N`` colors
components across a process pool (largest-first, deterministic merge,
automatic serial fallback) and a :class:`ComponentCache` memoises solved
components under a canonical graph hash, so cells repeated within or across
layouts are solved once.  Both knobs are pure execution strategies — masks,
conflict counts and stitch counts stay bit-identical to the serial flow.

Quick start::

    from repro import Decomposer, DecomposerOptions
    from repro.bench import load_circuit

    layout = load_circuit("C432", scale=0.35)
    options = DecomposerOptions.for_quadruple_patterning(algorithm="linear")
    result = Decomposer(options).decompose(layout, layer="metal1")
    print(result.solution.summary())

Batch decomposition of many layouts with shared workers and cache::

    from repro import decompose_many

    batch = decompose_many({"a": layout_a, "b": layout_b}, workers=4)
    print(batch.aggregate_summary())

The same batch engine backs the ``repro-decompose batch`` CLI subcommand and
the ``--workers`` / ``--cache`` flags of ``python -m repro.experiments``.

For request traffic, :mod:`repro.service` wraps it all in a long-running
asyncio HTTP server (``repro-decompose serve`` / ``python -m repro.service``)
with a persistent worker pool and a SQLite-backed component cache shared
across processes and restarts; see README "Running as a service".

To scale past one machine, :mod:`repro.cluster` shards the work across many
such servers: a coordinator (``repro-decompose cluster coordinator``) routes
every divided component to its cache-owning node via a consistent-hash ring
and merges results byte-identically, with heartbeat-driven failover; see
README "Running a cluster".
"""

import importlib

from repro.errors import (
    ConfigurationError,
    DecompositionError,
    GeometryError,
    GraphError,
    InfeasibleError,
    LayoutError,
    LayoutIOError,
    ReproError,
    SolverError,
    TimeoutExceededError,
)
from repro.geometry import Layout, Point, Polygon, Rect, Shape
from repro.graph import (
    ConstructionOptions,
    DecompositionGraph,
    build_decomposition_graph,
)
from repro.core import (
    AlgorithmOptions,
    BacktrackColoring,
    Decomposer,
    DecomposerOptions,
    DecompositionResult,
    DecompositionSolution,
    DivisionOptions,
    GreedyColoring,
    IlpColoring,
    LinearColoring,
    SdpColoring,
    decompose_layout,
    divide_and_color,
    make_colorer,
)

__version__ = "1.0.0"

#: Names re-exported from subpackages that ``import repro`` does not load:
#: :mod:`repro.runtime` pulls in asyncio, sqlite3, multiprocessing and the
#: observability layer, which a plain decomposition never needs.  They are
#: imported on first attribute access (PEP 562).
_LAZY_EXPORTS = {
    "BatchResult": "repro.runtime",
    "CacheStats": "repro.runtime",
    "ComponentCache": "repro.runtime",
    "ComponentScheduler": "repro.runtime",
    "decompose_many": "repro.runtime",
    "schedule_and_color": "repro.runtime",
    "conflict_report": "repro.analysis",
    "decomposition_to_svg": "repro.analysis",
    "graph_statistics": "repro.analysis",
    "layout_to_svg": "repro.analysis",
    "mask_balance": "repro.analysis",
    "summary_text": "repro.analysis",
}


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GeometryError",
    "LayoutError",
    "LayoutIOError",
    "GraphError",
    "SolverError",
    "InfeasibleError",
    "TimeoutExceededError",
    "DecompositionError",
    "ConfigurationError",
    # geometry
    "Point",
    "Rect",
    "Polygon",
    "Layout",
    "Shape",
    # graph
    "DecompositionGraph",
    "ConstructionOptions",
    "build_decomposition_graph",
    # core
    "AlgorithmOptions",
    "DecomposerOptions",
    "DivisionOptions",
    "Decomposer",
    "DecompositionResult",
    "DecompositionSolution",
    "decompose_layout",
    "divide_and_color",
    "make_colorer",
    "IlpColoring",
    "SdpColoring",
    "LinearColoring",
    "BacktrackColoring",
    "GreedyColoring",
    # runtime
    "BatchResult",
    "CacheStats",
    "ComponentCache",
    "ComponentScheduler",
    "decompose_many",
    "schedule_and_color",
    # analysis
    "mask_balance",
    "conflict_report",
    "graph_statistics",
    "summary_text",
    "layout_to_svg",
    "decomposition_to_svg",
]
