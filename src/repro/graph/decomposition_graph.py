"""Decomposition graph data structure (Definition 1 of the paper).

A decomposition graph has one vertex per polygonal feature (or per feature
fragment once stitch candidates are inserted) and two edge sets:

* **conflict edges** (CE) connect vertices whose features are closer than the
  minimum coloring distance ``min_s`` — they must receive different masks;
* **stitch edges** (SE) connect the two fragments of a split feature — giving
  them different masks costs one stitch.

This implementation adds a third, optional edge set of **color-friendly
edges** (Definition 2): features whose spacing lies in
``(min_s, min_s + half_pitch)``.  Those edges never constrain legality; they
only guide the linear color assignment heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import GraphError


def _edge_key(u: int, v: int) -> Tuple[int, int]:
    """Canonical undirected edge key."""
    return (u, v) if u <= v else (v, u)


@dataclass
class VertexData:
    """Per-vertex metadata carried through the decomposition flow.

    Attributes
    ----------
    shape_id:
        Id of the original layout shape this vertex belongs to (several
        vertices share a shape after stitch insertion).
    fragment:
        Fragment index within the original shape (0 when unsplit).
    weight:
        Number of original vertices folded into this one (used by merged
        graphs built from SDP results).
    """

    shape_id: Optional[int] = None
    fragment: int = 0
    weight: int = 1


class DecompositionGraph:
    """Undirected multi-relation graph {V, CE, SE} plus color-friendly edges.

    Vertices are non-negative integers.  The structure is mutable: the graph
    division and simplification stages remove and re-add vertices.
    """

    def __init__(self) -> None:
        self._vertices: Dict[int, VertexData] = {}
        self._conflict_adj: Dict[int, Set[int]] = {}
        self._stitch_adj: Dict[int, Set[int]] = {}
        self._friend_adj: Dict[int, Set[int]] = {}
        self._conflict_edges: Set[Tuple[int, int]] = set()
        self._stitch_edges: Set[Tuple[int, int]] = set()
        self._friend_edges: Set[Tuple[int, int]] = set()
        #: Memoised derived forms, dropped on any structural mutation: the
        #: flat-array snapshot and the canonical component keys computed from
        #: it (:mod:`repro.runtime.hashing` keys them by solve configuration).
        self._flat = None
        self._key_memo: Dict[object, str] = {}

    def _invalidate(self) -> None:
        """Drop memoised derived state; called by every structural mutator."""
        if self._flat is not None or self._key_memo:
            self._flat = None
            self._key_memo = {}

    def __getstate__(self):
        """Pickle without the memoised derived forms.

        The flat snapshot and key memo are cheap to rebuild and would only
        inflate the pickle-fallback worker payloads that exist for
        environments where the shared-memory transport is unavailable.
        """
        state = dict(self.__dict__)
        state["_flat"] = None
        state["_key_memo"] = {}
        return state

    # --------------------------------------------------------------- vertices
    def add_vertex(self, vertex: int, data: Optional[VertexData] = None) -> None:
        """Add ``vertex`` (idempotent for existing vertices without new data)."""
        if vertex < 0:
            raise GraphError(f"vertex ids must be non-negative, got {vertex}")
        if vertex in self._vertices:
            if data is not None:
                self._vertices[vertex] = data
                self._invalidate()
            return
        self._invalidate()
        self._vertices[vertex] = data or VertexData()
        self._conflict_adj[vertex] = set()
        self._stitch_adj[vertex] = set()
        self._friend_adj[vertex] = set()

    def remove_vertex(self, vertex: int) -> None:
        """Remove ``vertex`` and every edge incident to it."""
        self._require(vertex)
        for other in list(self._conflict_adj[vertex]):
            self.remove_conflict_edge(vertex, other)
        for other in list(self._stitch_adj[vertex]):
            self.remove_stitch_edge(vertex, other)
        for other in list(self._friend_adj[vertex]):
            self._friend_adj[other].discard(vertex)
            self._friend_edges.discard(_edge_key(vertex, other))
        del self._vertices[vertex]
        del self._conflict_adj[vertex]
        del self._stitch_adj[vertex]
        del self._friend_adj[vertex]
        self._invalidate()

    def has_vertex(self, vertex: int) -> bool:
        """Return True if ``vertex`` is in the graph."""
        return vertex in self._vertices

    def vertex_data(self, vertex: int) -> VertexData:
        """Return the metadata attached to ``vertex``."""
        self._require(vertex)
        return self._vertices[vertex]

    def vertices(self) -> List[int]:
        """Return all vertex ids (sorted for determinism)."""
        return sorted(self._vertices)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    # ------------------------------------------------------------------ edges
    def add_conflict_edge(self, u: int, v: int) -> None:
        """Add a conflict edge between distinct existing vertices."""
        self._check_pair(u, v)
        self._conflict_adj[u].add(v)
        self._conflict_adj[v].add(u)
        self._conflict_edges.add(_edge_key(u, v))
        self._invalidate()

    def add_stitch_edge(self, u: int, v: int) -> None:
        """Add a stitch edge between distinct existing vertices."""
        self._check_pair(u, v)
        self._stitch_adj[u].add(v)
        self._stitch_adj[v].add(u)
        self._stitch_edges.add(_edge_key(u, v))
        self._invalidate()

    def add_friend_edge(self, u: int, v: int) -> None:
        """Add a color-friendly edge between distinct existing vertices."""
        self._check_pair(u, v)
        self._friend_adj[u].add(v)
        self._friend_adj[v].add(u)
        self._friend_edges.add(_edge_key(u, v))
        self._invalidate()

    def remove_conflict_edge(self, u: int, v: int) -> None:
        """Remove the conflict edge ``{u, v}`` (must exist)."""
        key = _edge_key(u, v)
        if key not in self._conflict_edges:
            raise GraphError(f"no conflict edge {key}")
        self._conflict_edges.remove(key)
        self._conflict_adj[u].discard(v)
        self._conflict_adj[v].discard(u)
        self._invalidate()

    def remove_stitch_edge(self, u: int, v: int) -> None:
        """Remove the stitch edge ``{u, v}`` (must exist)."""
        key = _edge_key(u, v)
        if key not in self._stitch_edges:
            raise GraphError(f"no stitch edge {key}")
        self._stitch_edges.remove(key)
        self._stitch_adj[u].discard(v)
        self._stitch_adj[v].discard(u)
        self._invalidate()

    def has_conflict_edge(self, u: int, v: int) -> bool:
        return _edge_key(u, v) in self._conflict_edges

    def has_stitch_edge(self, u: int, v: int) -> bool:
        return _edge_key(u, v) in self._stitch_edges

    def has_friend_edge(self, u: int, v: int) -> bool:
        return _edge_key(u, v) in self._friend_edges

    def conflict_edges(self) -> List[Tuple[int, int]]:
        """Return all conflict edges (sorted for determinism)."""
        return sorted(self._conflict_edges)

    def stitch_edges(self) -> List[Tuple[int, int]]:
        """Return all stitch edges (sorted for determinism)."""
        return sorted(self._stitch_edges)

    def friend_edges(self) -> List[Tuple[int, int]]:
        """Return all color-friendly edges (sorted for determinism)."""
        return sorted(self._friend_edges)

    @property
    def num_conflict_edges(self) -> int:
        return len(self._conflict_edges)

    @property
    def num_stitch_edges(self) -> int:
        return len(self._stitch_edges)

    @property
    def num_friend_edges(self) -> int:
        return len(self._friend_edges)

    # ------------------------------------------------------------- adjacency
    def conflict_neighbors(self, vertex: int) -> Set[int]:
        """Return the conflict neighbours of ``vertex``."""
        self._require(vertex)
        return set(self._conflict_adj[vertex])

    def stitch_neighbors(self, vertex: int) -> Set[int]:
        """Return the stitch neighbours of ``vertex``."""
        self._require(vertex)
        return set(self._stitch_adj[vertex])

    def friend_neighbors(self, vertex: int) -> Set[int]:
        """Return the color-friendly neighbours of ``vertex``."""
        self._require(vertex)
        return set(self._friend_adj[vertex])

    def neighbors(self, vertex: int) -> Set[int]:
        """Return the union of conflict and stitch neighbours."""
        self._require(vertex)
        return self._conflict_adj[vertex] | self._stitch_adj[vertex]

    def conflict_degree(self, vertex: int) -> int:
        """Number of conflict edges incident to ``vertex`` (d_conf in the paper)."""
        self._require(vertex)
        return len(self._conflict_adj[vertex])

    def stitch_degree(self, vertex: int) -> int:
        """Number of stitch edges incident to ``vertex`` (d_stit in the paper)."""
        self._require(vertex)
        return len(self._stitch_adj[vertex])

    # -------------------------------------------------------------- flat form
    def to_arrays(self):
        """Return the graph's canonical flat-array form (:class:`FlatGraph`).

        The snapshot is memoised and reused until the next structural
        mutation, so the hashing, wire and shared-memory layers each pulling
        the flat form pay for one flattening, not three.  Callers must treat
        the returned object as immutable.
        """
        if self._flat is None:
            from repro.graph.flat import flatten_graph

            self._flat = flatten_graph(self)
        return self._flat

    @staticmethod
    def from_arrays(flat) -> "DecompositionGraph":
        """Rebuild a graph from its flat-array form, bit-identical to the
        original (vertex ids, per-vertex data and all three edge sets)."""
        return flat.to_graph()

    # --------------------------------------------------------------- builders
    def _relations(self) -> Tuple[Tuple[Dict[int, Set[int]], Set[Tuple[int, int]]], ...]:
        """The (adjacency, edge set) storage of the three edge relations."""
        return (
            (self._conflict_adj, self._conflict_edges),
            (self._stitch_adj, self._stitch_edges),
            (self._friend_adj, self._friend_edges),
        )

    def copy(self) -> "DecompositionGraph":
        """Return a deep structural copy (vertex data objects are shared).

        The storage is filled directly, replaying the source's edge sets in
        their iteration order, so the copy's sets see the same additions as
        a copy built edge by edge through the mutators.
        """
        clone = DecompositionGraph()
        clone._vertices = dict(self._vertices)
        for (adjacency, edges), (clone_adj, clone_edges) in zip(
            self._relations(), clone._relations()
        ):
            clone_adj.update((v, set()) for v in self._vertices)
            for key in edges:
                u, v = key
                clone_adj[u].add(v)
                clone_adj[v].add(u)
                clone_edges.add(key)
        return clone

    def subgraph(self, keep: Iterable[int]) -> "DecompositionGraph":
        """Return the induced subgraph on ``keep`` (original vertex ids kept).

        Walks the adjacency of the kept vertices in sorted order, so the cost
        is the kept vertices' degree sum, not the parent's edge count.
        """
        keep_set = set(keep)
        missing = keep_set.difference(self._vertices)
        if missing:
            raise GraphError(f"subgraph on unknown vertices {sorted(missing)[:5]}")
        order = sorted(keep_set)
        sub = DecompositionGraph()
        vertices = self._vertices
        sub._vertices = {v: vertices[v] for v in order}
        for (adjacency, _), (sub_adj, sub_edges) in zip(
            self._relations(), sub._relations()
        ):
            sub_adj.update((v, set()) for v in order)
            for u in order:
                for v in adjacency[u]:
                    if u < v and v in keep_set:
                        sub_adj[u].add(v)
                        sub_adj[v].add(u)
                        sub_edges.add((u, v))
        return sub

    @staticmethod
    def from_edges(
        conflict_edges: Iterable[Tuple[int, int]],
        stitch_edges: Iterable[Tuple[int, int]] = (),
        vertices: Iterable[int] = (),
    ) -> "DecompositionGraph":
        """Build a graph directly from edge lists (test / example helper)."""
        graph = DecompositionGraph()
        for v in vertices:
            graph.add_vertex(v)
        for u, v in conflict_edges:
            graph.add_vertex(u)
            graph.add_vertex(v)
            graph.add_conflict_edge(u, v)
        for u, v in stitch_edges:
            graph.add_vertex(u)
            graph.add_vertex(v)
            graph.add_stitch_edge(u, v)
        return graph

    # ------------------------------------------------------------------ misc
    def degree_histogram(self) -> Dict[int, int]:
        """Return a histogram of conflict degrees (diagnostics)."""
        hist: Dict[int, int] = {}
        for v in self._vertices:
            d = len(self._conflict_adj[v])
            hist[d] = hist.get(d, 0) + 1
        return hist

    def _require(self, vertex: int) -> None:
        if vertex not in self._vertices:
            raise GraphError(f"unknown vertex {vertex}")

    def _check_pair(self, u: int, v: int) -> None:
        if u == v:
            raise GraphError(f"self loop on vertex {u}")
        self._require(u)
        self._require(v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecompositionGraph(|V|={self.num_vertices}, "
            f"|CE|={self.num_conflict_edges}, |SE|={self.num_stitch_edges})"
        )
