"""Augmenting-path maximum flow over one flat arc array.

The GH-tree based (K-1)-cut removal of Section 4 needs ``n - 1`` minimum
s-t cut computations per piece (Gusfield's construction, see
:mod:`repro.graph.gomory_hu`).  The paper uses Dinic [22].  The pieces that
reach this stage are small unit-capacity multigraphs, and division only
needs to know whether each cut reaches K, so plain shortest-augmenting-path
search (Edmonds–Karp) over a flat arc array does the job with far less
bookkeeping; the optional ``cap`` stops a flow once it reaches K.  Dinic
survives as the test oracle (``tests/graph/maxflow_oracle.py``).

Arc ``a`` and arc ``a ^ 1`` are mutual residuals.  An undirected edge of
capacity ``c`` is the pair of arcs of capacity ``c`` each, the standard
reduction for undirected min cut; parallel edges add capacity.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import GraphError


class ArcNetwork:
    """An undirected flow network on vertex indices ``0 .. n-1``.

    ``arcs[v]`` lists the arcs leaving ``v``; ``heads[a]`` is the head of arc
    ``a``; ``capacities[a]`` its base capacity.  :meth:`max_flow` works on a
    list copy of the capacities, so one network serves any number of flows.
    """

    __slots__ = ("arcs", "heads", "capacities")

    def __init__(
        self,
        vertices: Sequence[int],
        edges: Iterable[Tuple[int, int]],
        capacity: int = 1,
    ) -> None:
        if capacity < 0:
            raise GraphError(f"negative capacity {capacity}")
        index: Dict[int, int] = {v: i for i, v in enumerate(vertices)}
        self.arcs: List[List[int]] = [[] for _ in index]
        self.heads: List[int] = []
        for u, v in edges:
            if u == v:
                raise GraphError(f"self loop on vertex {u}")
            if u not in index or v not in index:
                raise GraphError(f"edge ({u}, {v}) leaves the vertex set")
            iu, iv = index[u], index[v]
            self.arcs[iu].append(len(self.heads))
            self.heads.append(iv)
            self.arcs[iv].append(len(self.heads))
            self.heads.append(iu)
        self.capacities: List[int] = [capacity] * len(self.heads)

    def max_flow(
        self, source: int, sink: int, cap: Optional[int] = None
    ) -> Tuple[int, Optional[List[int]]]:
        """Return ``(value, source_side)`` of a maximum ``source``-``sink`` flow.

        ``source_side`` lists the vertices reachable from ``source`` in the
        final residual network: the source side of the minimum cut, the same
        set for every maximum flow.  With ``cap``, the search stops once the
        flow reaches ``cap`` and returns ``(cap, None)``: the cut value is then
        only known to be at least ``cap``.
        """
        if source == sink:
            raise GraphError("source and sink must differ")
        arcs, heads = self.arcs, self.heads
        residual = list(self.capacities)
        n = len(arcs)
        flow = 0
        while True:
            # BFS for a shortest augmenting path; via[v] is the arc that
            # reached v (-2 marks the source, -1 unreached).
            via = [-1] * n
            via[source] = -2
            queue = [source]
            for vertex in queue:
                for arc in arcs[vertex]:
                    head = heads[arc]
                    if via[head] == -1 and residual[arc]:
                        via[head] = arc
                        queue.append(head)
                if via[sink] != -1:
                    break
            if via[sink] == -1:
                return flow, queue
            bottleneck = None
            vertex = sink
            while vertex != source:
                arc = via[vertex]
                if bottleneck is None or residual[arc] < bottleneck:
                    bottleneck = residual[arc]
                vertex = heads[arc ^ 1]
            vertex = sink
            while vertex != source:
                arc = via[vertex]
                residual[arc] -= bottleneck
                residual[arc ^ 1] += bottleneck
                vertex = heads[arc ^ 1]
            flow += bottleneck
            if cap is not None and flow >= cap:
                return cap, None
