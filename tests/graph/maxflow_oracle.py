"""Dinic's blocking-flow maximum flow: the max-flow oracle of the graph tests.

The library's flows (:class:`repro.graph.maxflow.ArcNetwork`, used by the
Gomory–Hu tree) are shortest augmenting paths over a flat arc array, capped
at K during graph division.  This is an independent implementation of the
algorithm the paper cites (Dinic [22]) on a dict adjacency, tested against
networkx in ``test_maxflow.py`` and used there to check the library's flow
values and minimum-cut sides.  It supports arbitrary integer capacities and
directed arcs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Set, Tuple

from repro.errors import GraphError


class FlowNetwork:
    """Residual flow network with undirected-edge support.

    Edges are stored in a flat arc list; arc ``i`` and arc ``i ^ 1`` are
    mutual residuals.  An undirected edge of capacity ``c`` is modelled as a
    pair of arcs of capacity ``c`` each, which is the standard reduction for
    undirected min-cut.
    """

    def __init__(self) -> None:
        self._heads: List[int] = []
        self._capacities: List[int] = []
        self._adjacency: Dict[int, List[int]] = {}

    # ---------------------------------------------------------------- build
    def add_vertex(self, vertex: int) -> None:
        """Ensure ``vertex`` exists in the network."""
        self._adjacency.setdefault(vertex, [])

    def vertices(self) -> List[int]:
        """Return all vertex ids."""
        return sorted(self._adjacency)

    def add_edge(self, u: int, v: int, capacity: int, undirected: bool = True) -> None:
        """Add an edge from ``u`` to ``v`` with the given capacity.

        With ``undirected=True`` (the default, matching conflict graphs) the
        reverse direction receives the same capacity instead of zero.
        """
        if capacity < 0:
            raise GraphError(f"negative capacity {capacity}")
        if u == v:
            raise GraphError(f"self loop on vertex {u}")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adjacency[u].append(len(self._heads))
        self._heads.append(v)
        self._capacities.append(capacity)
        self._adjacency[v].append(len(self._heads))
        self._heads.append(u)
        self._capacities.append(capacity if undirected else 0)

    @staticmethod
    def from_edges(
        edges: Iterable[Tuple[int, int]],
        capacity: int = 1,
        vertices: Iterable[int] = (),
    ) -> "FlowNetwork":
        """Build a unit-capacity undirected network from an edge list."""
        network = FlowNetwork()
        for vertex in vertices:
            network.add_vertex(vertex)
        for u, v in edges:
            network.add_edge(u, v, capacity)
        return network

    # ---------------------------------------------------------------- solve
    def max_flow(self, source: int, sink: int) -> int:
        """Return the maximum flow value from ``source`` to ``sink``.

        The residual capacities are left in place afterwards so
        :meth:`min_cut_partition` can read off the source side of the cut.
        Call :meth:`reset` (or rebuild) before reusing the network for a
        different terminal pair.
        """
        if source == sink:
            raise GraphError("source and sink must differ")
        if source not in self._adjacency or sink not in self._adjacency:
            raise GraphError("source or sink not in network")
        self._flow_backup = list(self._capacities)
        total = 0
        while True:
            levels = self._bfs_levels(source)
            if levels.get(sink) is None:
                break
            pointers = {v: 0 for v in self._adjacency}
            while True:
                pushed = self._dfs_push(source, sink, float("inf"), levels, pointers)
                if pushed == 0:
                    break
                total += pushed
        return total

    def reset(self) -> None:
        """Restore the capacities saved by the last :meth:`max_flow` call."""
        backup = getattr(self, "_flow_backup", None)
        if backup is not None:
            self._capacities = list(backup)

    def min_cut_partition(self, source: int) -> Set[int]:
        """Return the source side of the minimum cut after :meth:`max_flow`."""
        side: Set[int] = {source}
        queue: deque = deque([source])
        while queue:
            vertex = queue.popleft()
            for arc in self._adjacency[vertex]:
                if self._capacities[arc] > 0:
                    head = self._heads[arc]
                    if head not in side:
                        side.add(head)
                        queue.append(head)
        return side

    # -------------------------------------------------------------- internal
    def _bfs_levels(self, source: int) -> Dict[int, int]:
        levels: Dict[int, int] = {source: 0}
        queue: deque = deque([source])
        while queue:
            vertex = queue.popleft()
            for arc in self._adjacency[vertex]:
                head = self._heads[arc]
                if self._capacities[arc] > 0 and head not in levels:
                    levels[head] = levels[vertex] + 1
                    queue.append(head)
        return levels

    def _dfs_push(
        self,
        vertex: int,
        sink: int,
        limit: float,
        levels: Dict[int, int],
        pointers: Dict[int, int],
    ) -> int:
        """Iterative DFS that pushes one augmenting path along the level graph."""
        if vertex == sink:
            return int(limit) if limit != float("inf") else 0
        path: List[Tuple[int, int]] = []  # (vertex, arc index chosen)
        stack: List[int] = [vertex]
        while stack:
            current = stack[-1]
            if current == sink:
                # Found an augmenting path: bottleneck then retreat.
                bottleneck = min(self._capacities[arc] for _, arc in path)
                for _, arc in path:
                    self._capacities[arc] -= bottleneck
                    self._capacities[arc ^ 1] += bottleneck
                return bottleneck
            advanced = False
            adjacency = self._adjacency[current]
            while pointers[current] < len(adjacency):
                arc = adjacency[pointers[current]]
                head = self._heads[arc]
                if (
                    self._capacities[arc] > 0
                    and levels.get(head) == levels[current] + 1
                ):
                    path.append((current, arc))
                    stack.append(head)
                    advanced = True
                    break
                pointers[current] += 1
            if not advanced:
                # Dead end: remove from level graph and backtrack.
                levels.pop(current, None)
                stack.pop()
                if path:
                    path.pop()
        return 0


def min_cut(
    edges: Iterable[Tuple[int, int]],
    source: int,
    sink: int,
    vertices: Iterable[int] = (),
    capacity: int = 1,
) -> Tuple[int, Set[int]]:
    """Convenience helper: minimum s-t cut value and source-side partition."""
    network = FlowNetwork.from_edges(edges, capacity=capacity, vertices=vertices)
    value = network.max_flow(source, sink)
    return value, network.min_cut_partition(source)
