"""Gomory–Hu tree construction (Gusfield's simplification).

A Gomory–Hu tree (GH-tree) of an undirected graph is a weighted tree on the
same vertex set such that, for any vertex pair ``(u, v)``, the minimum u-v cut
in the graph equals the smallest edge weight on the tree path between ``u``
and ``v``.  The paper builds the GH-tree with Gusfield's all-pairs method
[21], which needs only ``n - 1`` max-flow computations and never contracts
the graph.  Here the flows are shortest augmenting paths over one flat arc
array (:class:`repro.graph.maxflow.ArcNetwork`) rather than Dinic [22].

The QPLD graph-division stage removes every tree edge of weight < K; the
resulting forest components are exactly the parts separated by some
(K-1)-cut (Lemma 2 / Theorem 2).  Division asks nothing else of the tree, so
it builds it with ``cap=K``: each flow stops once it reaches K, which leaves
:meth:`GomoryHuTree.components_below` at K unchanged (the argument is in
:func:`gomory_hu_tree`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import GraphError
from repro.graph.maxflow import ArcNetwork


@dataclass
class GomoryHuTree:
    """A cut-equivalence tree.

    Attributes
    ----------
    vertices:
        The vertex ids the tree spans.
    edges:
        Tree edges as ``(u, v, weight)`` triples, where ``weight`` is the
        minimum u-v cut value in the original graph.
    """

    vertices: List[int]
    edges: List[Tuple[int, int, int]]

    def min_cut_value(self, u: int, v: int) -> int:
        """Return the minimum cut value between ``u`` and ``v``.

        Computed as the minimum edge weight on the unique tree path.
        """
        if u == v:
            raise GraphError("min cut between identical vertices")
        parent, weight = self._rooted(u)
        if v not in parent:
            raise GraphError(f"vertices {u} and {v} are not connected")
        best: Optional[int] = None
        current = v
        while current != u:
            w = weight[current]
            best = w if best is None else min(best, w)
            current = parent[current]
        assert best is not None
        return best

    def components_below(self, threshold: int) -> List[List[int]]:
        """Split the tree by removing edges of weight < ``threshold``.

        Returns the vertex sets of the resulting forest components — the
        graph-division components used by the (K-1)-cut removal.
        """
        adjacency: Dict[int, List[int]] = {v: [] for v in self.vertices}
        for u, v, w in self.edges:
            if w >= threshold:
                adjacency[u].append(v)
                adjacency[v].append(u)
        seen: Set[int] = set()
        components: List[List[int]] = []
        for start in self.vertices:
            if start in seen:
                continue
            stack = [start]
            component = []
            seen.add(start)
            while stack:
                vertex = stack.pop()
                component.append(vertex)
                for other in adjacency[vertex]:
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
            components.append(sorted(component))
        components.sort(key=lambda comp: comp[0])
        return components

    def cut_edges_below(self, threshold: int) -> List[Tuple[int, int, int]]:
        """Return the tree edges removed by :meth:`components_below`."""
        return [(u, v, w) for (u, v, w) in self.edges if w < threshold]

    def _rooted(self, root: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Root the tree at ``root``; return parent and edge-weight maps."""
        adjacency: Dict[int, List[Tuple[int, int]]] = {v: [] for v in self.vertices}
        for u, v, w in self.edges:
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
        parent: Dict[int, int] = {root: root}
        weight: Dict[int, int] = {}
        stack = [root]
        while stack:
            vertex = stack.pop()
            for other, w in adjacency[vertex]:
                if other not in parent:
                    parent[other] = vertex
                    weight[other] = w
                    stack.append(other)
        return parent, weight


def gomory_hu_tree(
    vertices: Sequence[int],
    edges: Iterable[Tuple[int, int]],
    capacity: int = 1,
    cap: Optional[int] = None,
) -> GomoryHuTree:
    """Build the GH-tree of an undirected graph with uniform edge capacities.

    Parameters
    ----------
    vertices:
        Vertex ids (the graph must be connected on these vertices; for
        decomposition graphs the caller runs this per connected component).
    edges:
        Undirected edges between ``vertices``; parallel edges add capacity.
    capacity:
        Capacity of each edge (1 for conflict graphs).
    cap:
        Stop every flow once it reaches ``cap`` (a positive threshold).  Tree
        weights below ``cap`` stay exact min-cut values; an edge whose flow
        reached ``cap`` gets weight ``cap``.  The tree is then only good for
        ``components_below(cap)``, which is all the graph division asks of
        it.

    Gusfield's loop runs ``n - 1`` flows over one :class:`ArcNetwork`, the
    i-th from vertex ``i`` to its current parent ``p[i]``; below the cap the
    minimum cut's source side ``S`` re-parents every later ``j`` in ``S``
    with ``p[j] == p[i]`` to ``i``.  With a cap, an edge whose flow reaches
    ``cap`` moves no parent.  That keeps ``components_below(cap)`` exact:

    ``λ(u, v) >= cap`` is an equivalence relation (``λ(a, c) >= min(λ(a, b),
    λ(b, c))``); call its classes the *cap-classes*.  A cut of value below
    ``cap`` never splits a cap-class, so every ``S`` is a union of them.
    Induction over ``i`` keeps two invariants: once some member of a
    cap-class is processed (or is the root), all its unprocessed members have
    a parent inside the class; before that, all its members share one
    parent.  So when ``i`` is processed, either ``p[i]`` is in ``i``'s class
    (the flow reaches ``cap``; ``i`` and ``p[i]`` are interchangeable at this
    threshold and nothing needs to move) or no member of ``i``'s class was
    processed yet, the flow is exact and below ``cap``, and ``S`` moves the
    whole unprocessed class under ``i``.  Each cap-class is therefore a
    subtree joined by weight-``cap`` edges with exactly one lighter edge to
    its parent, and the forest left after removing weights below ``cap`` is
    the partition into cap-classes, as for the exact tree.
    """
    vertices = sorted(set(vertices))
    n = len(vertices)
    if n <= 1:
        return GomoryHuTree(list(vertices), [])

    network = ArcNetwork(vertices, edges, capacity)
    parent = [0] * n
    weight = [0] * n
    for i in range(1, n):
        target = parent[i]
        weight[i], source_side = network.max_flow(i, target, cap)
        if source_side is None:
            continue
        for j in source_side:
            if j > i and parent[j] == target:
                parent[j] = i

    tree_edges = [
        (vertices[i], vertices[parent[i]], weight[i]) for i in range(1, n)
    ]
    return GomoryHuTree(list(vertices), tree_edges)
