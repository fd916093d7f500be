"""Graph division pipeline (Section 4) wrapped around any color assigner.

The pipeline applies, in order and only where enabled:

1. independent (connected) component computation,
2. iterative removal of vertices with conflict degree < K,
3. 2-vertex-connected (biconnected) block decomposition, merged back by
   matching the colors of shared cut vertices,
4. GH-tree based (K-1)-cut removal, merged back by color rotation (Lemma 1).

The color-assignment algorithm only ever sees the final, smallest pieces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.core.coloring import ColoringAlgorithm
from repro.core.options import DivisionOptions
from repro.core.rotation import merge_component_colorings
from repro.graph.biconnected import biconnected_components
from repro.graph.components import connected_components
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.gomory_hu import gomory_hu_tree
from repro.graph.simplify import peel_low_degree_vertices, reinsert_peeled_vertices


@dataclass
class DivisionReport:
    """Statistics collected while dividing a graph (ablation / reporting)."""

    num_vertices: int = 0
    num_connected_components: int = 0
    peeled_vertices: int = 0
    num_biconnected_blocks: int = 0
    num_ghtree_parts: int = 0
    largest_colored_piece: int = 0
    colored_pieces: int = 0

    def observe_piece(self, size: int) -> None:
        self.colored_pieces += 1
        self.largest_colored_piece = max(self.largest_colored_piece, size)

    def merge_from(self, other: "DivisionReport") -> None:
        """Fold a per-component report delta into this aggregate.

        Counters add, the largest-piece watermark takes the max; the
        whole-graph fields (``num_vertices``, ``num_connected_components``)
        belong to the aggregate and are left untouched.  Addition and max are
        order-independent, which is what lets the parallel scheduler merge
        per-component reports in any completion order and still match the
        serial pipeline exactly.
        """
        self.peeled_vertices += other.peeled_vertices
        self.num_biconnected_blocks += other.num_biconnected_blocks
        self.num_ghtree_parts += other.num_ghtree_parts
        self.colored_pieces += other.colored_pieces
        self.largest_colored_piece = max(
            self.largest_colored_piece, other.largest_colored_piece
        )

    def component_delta(self) -> "DivisionReport":
        """Return a copy holding only the per-component counters."""
        return DivisionReport(
            peeled_vertices=self.peeled_vertices,
            num_biconnected_blocks=self.num_biconnected_blocks,
            num_ghtree_parts=self.num_ghtree_parts,
            colored_pieces=self.colored_pieces,
            largest_colored_piece=self.largest_colored_piece,
        )


def divide_and_color(
    graph: DecompositionGraph,
    colorer: ColoringAlgorithm,
    division: Optional[DivisionOptions] = None,
    report: Optional[DivisionReport] = None,
) -> Dict[int, int]:
    """Color ``graph`` using ``colorer`` after graph division.

    Returns a complete coloring of the graph.  ``report``, when provided, is
    filled with division statistics.
    """
    division = division or DivisionOptions()
    report = report if report is not None else DivisionReport()
    report.num_vertices = graph.num_vertices
    if graph.num_vertices == 0:
        return {}

    if division.independent_components:
        components = connected_components(graph)
    else:
        components = [graph.vertices()]
    report.num_connected_components = len(components)

    coloring: Dict[int, int] = {}
    for component in components:
        subgraph = graph.subgraph(component)
        coloring.update(color_component(subgraph, colorer, division, report))
    return coloring


# ---------------------------------------------------------------------------
# Stage 2: low-degree peeling
# ---------------------------------------------------------------------------
def color_component(
    graph: DecompositionGraph,
    colorer: ColoringAlgorithm,
    division: DivisionOptions,
    report: DivisionReport,
) -> Dict[int, int]:
    """Color one connected component through stages 2-4 of the division flow.

    This is the unit of work shared by the serial loop above and the
    process-level scheduler in :mod:`repro.runtime.scheduler`: a component is
    self-contained, so coloring it never reads or writes state outside
    ``graph`` and the per-call ``report``.
    """
    num_colors = colorer.num_colors
    if division.low_degree_removal:
        kernel, stack = peel_low_degree_vertices(graph, num_colors)
    else:
        kernel, stack = graph.copy(), []
    report.peeled_vertices += len(stack)

    coloring: Dict[int, int] = {}
    if kernel.num_vertices:
        # Peeling may disconnect the kernel; treat the pieces independently.
        for piece in connected_components(kernel):
            piece_graph = kernel.subgraph(piece)
            coloring.update(_color_blocks(piece_graph, colorer, division, report))
    reinsert_peeled_vertices(graph, coloring, stack, num_colors)
    return coloring


# ---------------------------------------------------------------------------
# Stage 3: biconnected blocks
# ---------------------------------------------------------------------------
def _color_blocks(
    graph: DecompositionGraph,
    colorer: ColoringAlgorithm,
    division: DivisionOptions,
    report: DivisionReport,
) -> Dict[int, int]:
    num_colors = colorer.num_colors
    if not division.biconnected_components or graph.num_vertices <= 3:
        return _color_with_ghtree(graph, colorer, division, report)

    blocks = biconnected_components(graph)
    report.num_biconnected_blocks += len(blocks)
    if len(blocks) <= 1:
        return _color_with_ghtree(graph, colorer, division, report)

    # Breadth-first traversal of the block-cut structure so every new block
    # shares at least one already-colored cut vertex with the merged region.
    blocks_of_vertex: Dict[int, List[int]] = {}
    for index, block in enumerate(blocks):
        for vertex in block:
            blocks_of_vertex.setdefault(vertex, []).append(index)

    order: List[int] = []
    visited: Set[int] = set()
    for seed in range(len(blocks)):
        if seed in visited:
            continue
        visited.add(seed)
        queue: deque = deque([seed])
        while queue:
            current = queue.popleft()
            order.append(current)
            for vertex in blocks[current]:
                for other in blocks_of_vertex[vertex]:
                    if other not in visited:
                        visited.add(other)
                        queue.append(other)

    coloring: Dict[int, int] = {}
    for index in order:
        block_graph = graph.subgraph(blocks[index])
        block_coloring = _color_with_ghtree(block_graph, colorer, division, report)
        shared = [v for v in blocks[index] if v in coloring]
        if not shared:
            coloring.update(block_coloring)
            continue
        permutation = _matching_permutation(
            shared, coloring, block_coloring, num_colors
        )
        for vertex, color in block_coloring.items():
            if vertex not in coloring:
                coloring[vertex] = permutation[color]
    return coloring


def _matching_permutation(
    shared: Sequence[int],
    fixed_coloring: Dict[int, int],
    block_coloring: Dict[int, int],
    num_colors: int,
) -> List[int]:
    """Return a color permutation aligning a block with already-fixed vertices.

    In a block-cut tree traversal there is normally exactly one shared cut
    vertex; with several (possible when blocks are processed out of tree
    order) the first consistent demands win and the rest of the permutation is
    filled bijectively.
    """
    permutation: Dict[int, int] = {}
    used: Set[int] = set()
    for vertex in shared:
        source = block_coloring[vertex]
        target = fixed_coloring[vertex]
        if source in permutation or target in used:
            continue
        permutation[source] = target
        used.add(target)
    free_targets = [c for c in range(num_colors) if c not in used]
    for color in range(num_colors):
        if color not in permutation:
            permutation[color] = free_targets.pop(0)
    return [permutation[color] for color in range(num_colors)]


# ---------------------------------------------------------------------------
# Stage 4: GH-tree (K-1)-cut removal
# ---------------------------------------------------------------------------
def _color_with_ghtree(
    graph: DecompositionGraph,
    colorer: ColoringAlgorithm,
    division: DivisionOptions,
    report: DivisionReport,
) -> Dict[int, int]:
    num_colors = colorer.num_colors
    small = graph.num_vertices <= max(division.ghtree_minimum_size, num_colors + 1)
    if not division.ghtree_cut_removal or small:
        report.observe_piece(graph.num_vertices)
        return colorer.color(graph)

    edges = graph.conflict_edges() + graph.stitch_edges()
    tree = gomory_hu_tree(graph.vertices(), edges, cap=num_colors)
    parts = tree.components_below(num_colors)
    report.num_ghtree_parts += len(parts)
    if len(parts) <= 1:
        report.observe_piece(graph.num_vertices)
        return colorer.color(graph)

    part_colorings: List[Dict[int, int]] = []
    for part in parts:
        part_graph = graph.subgraph(part)
        report.observe_piece(part_graph.num_vertices)
        part_colorings.append(colorer.color(part_graph))
    return merge_component_colorings(
        graph, part_colorings, num_colors, colorer.options.alpha
    )
