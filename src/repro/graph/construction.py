"""Decomposition graph construction from a layout (Fig. 2, first stage).

One layer of the layout is packed into flat ``int64`` coordinate columns, one
row per rectangle with the rows of each feature contiguous, and the graph is
built in three array passes over them:

1. *Feature pairs* — each feature's bounding box, grown by the search radius
   on its high sides, is bucketed on a uniform grid.  Two features sharing a
   cell whose boxes lie within the radius are a candidate pair, counted once:
   in the cell holding the low corner of the grown boxes' overlap.  The exact
   rectangle-set spacing of a candidate is the minimum over its rectangle
   pairs (one ``np.minimum.reduceat``); pairs closer than ``min_s`` conflict
   and pairs in ``[min_s, min_s + half_pitch)`` are color-friendly
   (Definition 2).  Squared spacings are compared in integers, so the rule
   boundary is exact.
2. *Stitch insertion* — every feature with a conflict neighbour projects the
   neighbours' rectangles (grown by ``stitch_projection_margin``) onto its
   long axis.  The uncovered gaps inside the legal cut window are its stitch
   candidates; the ``max_stitches_per_feature`` widest win (ties to the lower
   position) and :func:`repro.graph.stitch.split_feature` cuts the feature
   there.  This is the rule of :func:`repro.graph.stitch.find_stitch_candidates`,
   evaluated for all features at once.
3. *Graph assembly* — fragments become vertices, numbered in shape order;
   consecutive fragments of a feature are linked by stitch edges; conflict
   and friend edges are re-evaluated between the fragments of every feature
   pair with the same spacing pass.

**Insertion-order contract.**  The graph's dicts and sets are filled
directly, skipping the validating mutators, but in exactly the order a
one-edge-at-a-time build adds them: all vertices in shape order; per shape,
its stitch edges left to right; then the conflict-pair fragment edges (pairs
in sorted shape-id order, then fragments ``u`` of the first shape, then
fragments ``v`` of the second); then the friend-pair fragment edges in the
same order.  Each adjacency set and edge set therefore sees the same sequence
of additions, so it iterates in the same order as well as holding the same
members.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect
from repro.graph.decomposition_graph import DecompositionGraph, VertexData
from repro.graph.stitch import StitchCandidate, split_feature


@dataclass
class ConstructionOptions:
    """Parameters of the decomposition-graph construction.

    Attributes
    ----------
    min_coloring_distance:
        ``min_s`` in database units; features closer than this conflict.
        The paper uses 80 nm for quadruple and 110 nm for pentuple patterning
        on a 20 nm half-pitch Metal1 layer.
    half_pitch:
        Half pitch ``hp`` used by the color-friendly band
        ``(min_s, min_s + hp)``.
    enable_stitches:
        When False features are never split (no stitch edges).
    min_fragment_length:
        Minimum printable fragment length along the cut axis (``w_m``).
    max_stitches_per_feature:
        Upper bound on stitch candidates kept per feature.
    stitch_projection_margin:
        Extra margin added to neighbour projections during candidate search.
    enable_color_friendly:
        When False color-friendly edges are not computed (saves time when the
        linear color assignment is not used).
    """

    min_coloring_distance: int = 80
    half_pitch: int = 20
    enable_stitches: bool = True
    min_fragment_length: int = 20
    max_stitches_per_feature: int = 2
    stitch_projection_margin: int = 0
    enable_color_friendly: bool = True

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent parameters."""
        if self.min_coloring_distance <= 0:
            raise ConfigurationError("min_coloring_distance must be positive")
        if self.half_pitch < 0:
            raise ConfigurationError("half_pitch must be non-negative")
        if self.min_fragment_length <= 0:
            raise ConfigurationError("min_fragment_length must be positive")
        if self.max_stitches_per_feature < 0:
            raise ConfigurationError("max_stitches_per_feature must be >= 0")
        if self.stitch_projection_margin < 0:
            # A negative margin inverts narrow projections (lo > hi), which
            # the interval merge would then count as coverage.
            raise ConfigurationError("stitch_projection_margin must be >= 0")


@dataclass
class ConstructionResult:
    """Output of :func:`build_decomposition_graph`.

    Attributes
    ----------
    graph:
        The decomposition graph; vertex ids index :attr:`fragments`.
    fragments:
        Rectangle decomposition of each vertex's geometry.
    shape_vertices:
        Vertex ids belonging to each original shape id, in cut-axis order.
    layer:
        Layer the graph was built from.
    options:
        The options used (for reporting).
    """

    graph: DecompositionGraph
    fragments: Dict[int, List[Rect]]
    shape_vertices: Dict[int, List[int]]
    layer: str
    options: ConstructionOptions

    @property
    def num_features(self) -> int:
        """Number of original (pre-stitch) features."""
        return len(self.shape_vertices)


_RECT_COORDS = attrgetter("xl", "yl", "xh", "yh")


class _PackedRects:
    """Rectangles of consecutive groups (features or fragments) as flat columns.

    Row ``starts[g] + k`` holds the ``k``-th rectangle of group ``g``; every
    group is non-empty.
    """

    __slots__ = ("xl", "yl", "xh", "yh", "starts", "counts")

    def __init__(self, groups: Sequence[Sequence[Rect]]) -> None:
        self.counts = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        self.starts = np.zeros(len(groups) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.starts[1:])
        coords = np.fromiter(
            chain.from_iterable(map(_RECT_COORDS, chain.from_iterable(groups))),
            dtype=np.int64,
            count=4 * int(self.starts[-1]),
        ).reshape(-1, 4)
        self.xl, self.yl, self.xh, self.yh = coords.T

    def bboxes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-group bounding boxes ``(xl, yl, xh, yh)``."""
        heads = self.starts[:-1]
        return (
            np.minimum.reduceat(self.xl, heads),
            np.minimum.reduceat(self.yl, heads),
            np.maximum.reduceat(self.xh, heads),
            np.maximum.reduceat(self.yh, heads),
        )

    def squared_gaps(self, first: np.ndarray, second: np.ndarray, cap: int) -> np.ndarray:
        """Squared spacing of groups ``first[k]`` and ``second[k]``, for each ``k``.

        The minimum over all rectangle pairs of the two groups (0 when they
        touch or overlap).  Per-axis gaps are clipped to ``cap`` before
        squaring, so results are exact below ``cap**2`` and never overflow.
        """
        if not len(first):
            return np.zeros(0, dtype=np.int64)
        per = self.counts[first] * self.counts[second]
        owner, offset = _expand(per)
        width = self.counts[second][owner]
        a = self.starts[first][owner] + offset // width
        b = self.starts[second][owner] + offset % width
        dx = np.maximum(np.maximum(self.xl[b] - self.xh[a], self.xl[a] - self.xh[b]), 0)
        dy = np.maximum(np.maximum(self.yl[b] - self.yh[a], self.yl[a] - self.yh[b]), 0)
        np.minimum(dx, cap, out=dx)
        np.minimum(dy, cap, out=dy)
        d2 = dx * dx + dy * dy
        return np.minimum.reduceat(d2, np.cumsum(per) - per)


def _expand(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Enumerate ``counts[g]`` slots per group: ``(group, index within group)``."""
    total = int(counts.sum())
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    offset = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, offset


def _runs(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal values in non-empty sorted ``keys``."""
    heads = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1))
    return heads, np.diff(np.append(heads, len(keys)))


def build_decomposition_graph(
    layout: Layout,
    layer: str = "metal1",
    options: Optional[ConstructionOptions] = None,
) -> ConstructionResult:
    """Build the decomposition graph of one layout layer."""
    options = options or ConstructionOptions()
    options.validate()
    shapes = layout.shapes_on_layer(layer)
    graph = DecompositionGraph()
    fragments: Dict[int, List[Rect]] = {}
    shape_vertices: Dict[int, List[int]] = {}
    result = ConstructionResult(graph, fragments, shape_vertices, layer, options)
    if not shapes:
        return result

    shape_rects = [shape.rects() for shape in shapes]
    shape_ids = np.fromiter(
        (shape.shape_id for shape in shapes), dtype=np.int64, count=len(shapes)
    )
    packed = _PackedRects(shape_rects)
    conflict_pairs, friend_pairs = _find_feature_pairs(shape_ids, packed, options)
    cuts = _stitch_cuts(packed, conflict_pairs, options) if options.enable_stitches else {}

    # ---------------------------------------------------------------- split
    # One int object per vertex id, shared by every dict key, set member and
    # edge tuple below (ids minted per use would cost ~28 bytes per reference).
    vertex_ids: List[int] = []
    vertices = graph._vertices
    for index, shape in enumerate(shapes):
        rects = shape_rects[index]
        pieces = split_feature(rects, cuts[index]) if index in cuts else [list(rects)]
        ids = []
        for fragment_index, piece in enumerate(pieces):
            vertex = len(vertex_ids)
            vertex_ids.append(vertex)
            ids.append(vertex)
            vertices[vertex] = VertexData(shape_id=shape.shape_id, fragment=fragment_index)
            fragments[vertex] = piece
        shape_vertices[shape.shape_id] = ids
    for adjacency in (graph._conflict_adj, graph._stitch_adj, graph._friend_adj):
        adjacency.update((vertex, set()) for vertex in vertex_ids)
    stitch_adj, stitch_edges = graph._stitch_adj, graph._stitch_edges
    for ids in shape_vertices.values():
        for left, right in zip(ids, ids[1:]):
            stitch_adj[left].add(right)
            stitch_adj[right].add(left)
            stitch_edges.add((left, right))

    # ------------------------------------------------------- fragment edges
    min_s2 = options.min_coloring_distance ** 2
    friend_hi = options.min_coloring_distance + options.half_pitch
    friend_hi2 = friend_hi ** 2
    cap = friend_hi if options.enable_color_friendly else options.min_coloring_distance
    packed_fragments = packed if not cuts else _PackedRects(list(fragments.values()))
    shared_ids = np.array(vertex_ids, dtype=object)
    per_shape = list(shape_vertices.values())
    first_vertex = np.fromiter((ids[0] for ids in per_shape), np.int64, len(per_shape))
    fragment_counts = np.fromiter(map(len, per_shape), np.int64, len(per_shape))

    def fragment_pairs(pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        a, b = pairs[:, 0], pairs[:, 1]
        owner, offset = _expand(fragment_counts[a] * fragment_counts[b])
        width = fragment_counts[b][owner]
        u = first_vertex[a][owner] + offset // width
        v = first_vertex[b][owner] + offset % width
        return u, v, packed_fragments.squared_gaps(u, v, cap)

    def link(adjacency, edge_set, u: np.ndarray, v: np.ndarray) -> None:
        # Edges (u[k], v[k]) in order, exactly as the mutators would add them.
        for x, y in zip(shared_ids[u].tolist(), shared_ids[v].tolist()):
            adjacency[x].add(y)
            adjacency[y].add(x)
            edge_set.add((x, y) if x < y else (y, x))

    u, v, d2 = fragment_pairs(conflict_pairs)
    conflict = d2 < min_s2
    link(graph._conflict_adj, graph._conflict_edges, u[conflict], v[conflict])
    if options.enable_color_friendly:
        friend = ~conflict & (d2 < friend_hi2)
        link(graph._friend_adj, graph._friend_edges, u[friend], v[friend])
        u, v, d2 = fragment_pairs(friend_pairs)
        friend = (min_s2 <= d2) & (d2 < friend_hi2)
        link(graph._friend_adj, graph._friend_edges, u[friend], v[friend])
    return result


def _find_feature_pairs(
    shape_ids: np.ndarray, packed: _PackedRects, options: ConstructionOptions
) -> Tuple[np.ndarray, np.ndarray]:
    """Return (conflict pairs, friend-band pairs) as ``(m, 2)`` shape indices.

    Each row ``(i, j)`` has ``shape_ids[i] < shape_ids[j]`` and rows are in
    sorted shape-id order, so mapping through ``shape_ids`` gives the sorted
    pair lists of shape ids.
    """
    min_s = options.min_coloring_distance
    friend_hi = min_s + options.half_pitch
    radius = friend_hi if options.enable_color_friendly else min_s

    first, second = _candidate_pairs(*packed.bboxes(), radius)
    d2 = packed.squared_gaps(first, second, radius)
    swap = shape_ids[first] > shape_ids[second]
    first, second = np.where(swap, second, first), np.where(swap, first, second)
    order = np.lexsort((shape_ids[second], shape_ids[first]))
    pairs = np.stack((first[order], second[order]), axis=1)
    d2 = d2[order]
    conflict = d2 < min_s * min_s
    friend = ~conflict & (d2 < friend_hi * friend_hi) & options.enable_color_friendly
    return pairs[conflict], pairs[friend]


def _candidate_pairs(
    xl: np.ndarray, yl: np.ndarray, xh: np.ndarray, yh: np.ndarray, radius: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs of boxes whose gap on each axis is at most ``radius``.

    Every such unordered pair is returned exactly once.  Each box, grown by
    ``radius`` on its high sides, is entered in every grid cell it overlaps;
    two boxes are within ``radius`` exactly when their grown boxes overlap,
    and the pair is reported only in the cell holding the overlap's low
    corner.  The cell edge is the median box extent plus ``radius``.
    """
    extent = np.maximum(xh - xl, yh - yl)
    cell = max(int(np.partition(extent, len(extent) // 2)[len(extent) // 2]) + radius, 1)
    cx0, cy0 = xl // cell, yl // cell
    rows = (yh + radius) // cell - cy0 + 1
    owner, offset = _expand(((xh + radius) // cell - cx0 + 1) * rows)
    base_x, base_y = int(cx0.min()), int(cy0.min())
    height = int(((yh + radius) // cell).max()) - base_y + 1

    def cell_key(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        return (cx - base_x) * height + (cy - base_y)

    keys = cell_key(cx0[owner] + offset // rows[owner], cy0[owner] + offset % rows[owner])
    order = np.argsort(keys, kind="stable")
    keys, owner = keys[order], owner[order]
    # Entry e pairs with the entries after it in its cell.
    heads, sizes = _runs(keys)
    later = np.repeat(heads + sizes, sizes) - np.arange(len(keys)) - 1
    entry, step = _expand(later)
    first, second = owner[entry], owner[entry + step + 1]
    near = (
        (xl[second] <= xh[first] + radius)
        & (xl[first] <= xh[second] + radius)
        & (yl[second] <= yh[first] + radius)
        & (yl[first] <= yh[second] + radius)
    )
    first, second, entry = first[near], second[near], entry[near]
    corner = cell_key(
        np.maximum(xl[first], xl[second]) // cell, np.maximum(yl[first], yl[second]) // cell
    )
    home = corner == keys[entry]
    return first[home], second[home]


def _stitch_cuts(
    packed: _PackedRects, conflict_pairs: np.ndarray, options: ConstructionOptions
) -> Dict[int, List[StitchCandidate]]:
    """Stitch candidates of every feature with some, keyed by shape index.

    Same rule as :func:`repro.graph.stitch.find_stitch_candidates` over the
    feature's conflict neighbours: the gaps of the feature's long-axis span
    left uncovered by the neighbour projections, clipped to the window that
    keeps ``min_fragment_length`` on both sides, widest first (ties to the
    lower position), cut at the gap midpoint, returned in position order.
    """
    bxl, byl, bxh, byh = packed.bboxes()
    horizontal = (bxh - bxl) >= (byh - byl)
    lo = np.where(horizontal, bxl, byl)
    span = np.where(horizontal, bxh, byh) - lo
    min_length = options.min_fragment_length
    margin = options.stitch_projection_margin

    # One row per (feature, neighbour rectangle), in feature-relative
    # coordinates; features too short for two fragments are skipped.
    feature = np.concatenate((conflict_pairs[:, 0], conflict_pairs[:, 1]))
    neighbour = np.concatenate((conflict_pairs[:, 1], conflict_pairs[:, 0]))
    wide = span[feature] >= 2 * min_length
    feature, neighbour = feature[wide], neighbour[wide]
    owner, offset = _expand(packed.counts[neighbour])
    feature = feature[owner]
    rect = packed.starts[neighbour][owner] + offset
    along = horizontal[feature]
    origin = lo[feature]
    p_lo = np.where(along, packed.xl[rect], packed.yl[rect]) - margin - origin
    p_hi = np.where(along, packed.xh[rect], packed.yh[rect]) + margin - origin
    order = np.lexsort((p_lo, feature))
    feature, p_lo, p_hi = feature[order], p_lo[order], p_hi[order]
    if not len(feature):
        return {}

    # Sweep cursor per row: the covered extent before it, clipped to the
    # span (coverage beyond the span ends the sweep).  Offsetting each
    # feature by ``feature * stride`` keeps one running maximum per feature.
    limit = span[feature]
    stride = int(span.max()) + 1
    shift = feature * stride
    reach = np.maximum.accumulate(np.clip(p_hi, 0, limit) + shift) - shift
    heads, sizes = _runs(feature)
    cursor = np.empty_like(reach)
    cursor[1:] = reach[:-1]
    cursor[heads] = 0
    tails = heads + sizes - 1
    # Gaps before each projection, then the gap after the last one.
    gap_feature = np.concatenate((feature, feature[tails]))
    gap_lo = np.concatenate((cursor, reach[tails]))
    gap_hi = np.concatenate((np.minimum(p_lo, limit), span[feature[tails]]))
    gap_lo = np.maximum(gap_lo, min_length)
    gap_hi = np.minimum(gap_hi, span[gap_feature] - min_length)
    legal = gap_hi > gap_lo
    if not legal.any():
        return {}
    gap_feature, gap_lo, gap_hi = gap_feature[legal], gap_lo[legal], gap_hi[legal]
    width = gap_hi - gap_lo
    position = (gap_lo + gap_hi) // 2 + lo[gap_feature]

    order = np.lexsort((position, -width, gap_feature))
    gap_feature, position = gap_feature[order], position[order]
    heads, sizes = _runs(gap_feature)
    rank = np.arange(len(gap_feature)) - np.repeat(heads, sizes)
    kept = rank < options.max_stitches_per_feature
    gap_feature, position = gap_feature[kept], position[kept]
    order = np.lexsort((position, gap_feature))

    cuts: Dict[int, List[StitchCandidate]] = {}
    for index, cut in zip(gap_feature[order].tolist(), position[order].tolist()):
        cuts.setdefault(index, []).append(StitchCandidate(cut, bool(horizontal[index])))
    return cuts
