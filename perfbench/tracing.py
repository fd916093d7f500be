"""In-memory spans around the program's public layer functions.

The traced run installs wrappers with :func:`install_library_wrappers`,
which patch the names the decomposition flow looks up (module attributes and
class methods) and return an undo function; the untraced runs never import
this module's patching, so they execute the program unmodified.

A span records its name, start, end, parent and the trace id of the layout
being decomposed.  Spans stay in memory; :meth:`Tracer.dump` writes them out
when the run ends.  Self time is a span's duration minus the part of it its
child spans cover; time no root span covers is ``unattributed``.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: int


class Tracer:
    """Single-threaded span recorder (the library workloads run serially)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._next_trace = 0

    def begin(self, name: str) -> int:
        if not self._stack:
            self._next_trace += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._next_trace))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: Sequence[Span], wall: float) -> Tuple[Dict[str, float], float]:
    """Return (self seconds per span name, unattributed seconds).

    A span's self time is its duration minus the union of its children's
    intervals clipped to it.  ``unattributed`` is ``wall`` minus the union of
    the root spans, so self times plus ``unattributed`` equal ``wall``.
    """
    children: Dict[Optional[int], List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        covered = _covered(children.get(index, ()), span.start, span.end)
        totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start) - covered
    roots = children.get(None, ())
    lo = min((s for s, _ in roots), default=0.0)
    hi = max((e for _, e in roots), default=0.0)
    return totals, wall - _covered(roots, lo, hi)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# ------------------------------------------------------------ wrappers
def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _counted(fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result, args, kwargs)
        return result

    return wrapper


def install_library_wrappers(tracer: Tracer) -> Callable[[], None]:
    """Wrap the library's public layer functions; return the undo function.

    Names are patched where the flow looks them up: the ``repro.core``
    modules import the graph functions into their own namespaces.
    """
    import repro.core.decomposer as decomposer
    import repro.core.division as division
    import repro.core.sdp_coloring as sdp_coloring
    from repro.core.coloring import ColoringAlgorithm
    from repro.graph.decomposition_graph import DecompositionGraph
    from repro.opt.sdp import VectorProgramSolver

    def on_sdp(result, args, kwargs):
        tracer.count("opt.sdp_calls")
        tracer.count("opt.sdp_iterations", result.iterations)

    def on_backtrack(result, args, kwargs):
        statistics = kwargs.get("statistics")
        if statistics is not None:
            tracer.count("core.backtrack_expansions", statistics.expansions)

    patches: List[Tuple[object, str, Callable]] = [
        (decomposer.Decomposer, "decompose", lambda f: _spanned(tracer, "core.decompose", f)),
        (decomposer, "build_decomposition_graph", lambda f: _spanned(tracer, "graph.construct", f)),
        (decomposer, "divide_and_color", lambda f: _spanned(tracer, "core.divide", f)),
        (division, "connected_components", lambda f: _spanned(tracer, "graph.components", f)),
        (DecompositionGraph, "subgraph", lambda f: _spanned(tracer, "graph.subgraph", f)),
        (DecompositionGraph, "copy", lambda f: _spanned(tracer, "graph.subgraph", f)),
        (division, "peel_low_degree_vertices", lambda f: _spanned(tracer, "graph.peel", f)),
        (division, "reinsert_peeled_vertices", lambda f: _spanned(tracer, "graph.reinsert", f)),
        (division, "biconnected_components", lambda f: _spanned(tracer, "graph.biconnected", f)),
        (division, "gomory_hu_tree", lambda f: _spanned(tracer, "graph.ghtree", f)),
        (division, "merge_component_colorings", lambda f: _spanned(tracer, "core.merge", f)),
        (VectorProgramSolver, "solve", lambda f: _spanned(tracer, "opt.sdp", f, on_sdp)),
        (sdp_coloring, "run_backtrack_search", lambda f: _counted(f, on_backtrack)),
    ]
    for name in ("check_complete", "count_conflicts", "count_stitches"):
        patches.append((decomposer, name, lambda f: _spanned(tracer, "core.evaluate", f)))
    for cls in _subclasses(ColoringAlgorithm):
        if "color" in vars(cls):
            patches.append((cls, "color", lambda f: _spanned(tracer, "core.color", f)))

    originals = []
    for owner, attr, make in patches:
        original = vars(owner)[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return undo


def _subclasses(cls) -> List[type]:
    found, pending = [], list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        found.append(sub)
        pending.extend(sub.__subclasses__())
    return found
