"""A small directed graph with the analyses Sec 6.1 needs.

Implemented from scratch (connected components via iterative DFS, local
clustering coefficients on the undirected view); the test suite
cross-validates both against networkx.
"""

from __future__ import annotations

from typing import Hashable, Iterator

__all__ = ["DirectedGraph"]


class DirectedGraph:
    """Directed graph over hashable nodes, with an undirected view."""

    def __init__(self) -> None:
        self._out: dict[Hashable, set[Hashable]] = {}
        self._in: dict[Hashable, set[Hashable]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: Hashable) -> None:
        self._out.setdefault(node, set())
        self._in.setdefault(node, set())

    def add_edge(self, src: Hashable, dst: Hashable) -> None:
        if src == dst:
            return  # self-promotion is not collusion
        self.add_node(src)
        self.add_node(dst)
        self._out[src].add(dst)
        self._in[dst].add(src)

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._out)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._out

    def nodes(self) -> list[Hashable]:
        return list(self._out)

    def edges(self) -> Iterator[tuple[Hashable, Hashable]]:
        for src, dsts in self._out.items():
            for dst in dsts:
                yield src, dst

    def edge_count(self) -> int:
        return sum(len(dsts) for dsts in self._out.values())

    def successors(self, node: Hashable) -> set[Hashable]:
        return set(self._out[node])

    def predecessors(self, node: Hashable) -> set[Hashable]:
        return set(self._in[node])

    def out_degree(self, node: Hashable) -> int:
        return len(self._out[node])

    def in_degree(self, node: Hashable) -> int:
        return len(self._in[node])

    def neighbors(self, node: Hashable) -> set[Hashable]:
        """Undirected neighborhood (successors ∪ predecessors)."""
        return self._out[node] | self._in[node]

    def degree(self, node: Hashable) -> int:
        """Undirected degree — the paper's "number of collusions"."""
        return len(self.neighbors(node))

    # -- components -------------------------------------------------------------

    def connected_components(self) -> list[set[Hashable]]:
        """Weakly connected components, largest first."""
        seen: set[Hashable] = set()
        components: list[set[Hashable]] = []
        for start in self._out:
            if start in seen:
                continue
            component: set[Hashable] = set()
            stack = [start]
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component.add(node)
                stack.extend(self.neighbors(node) - component)
            seen |= component
            components.append(component)
        components.sort(key=len, reverse=True)
        return components

    # -- clustering ----------------------------------------------------------------

    def local_clustering(self, node: Hashable) -> float:
        """Local clustering coefficient on the undirected view.

        Edges among the neighbors of *node* over the maximum possible;
        nodes with fewer than two neighbors have coefficient 0 (the
        networkx convention).
        """
        neighborhood = self.neighbors(node)
        k = len(neighborhood)
        if k < 2:
            return 0.0
        links = 0
        for u in neighborhood:
            # Count undirected adjacency within the neighborhood once.
            links += len((self._out[u] | self._in[u]) & neighborhood)
        links //= 2  # every undirected edge counted from both ends
        return links / (k * (k - 1) / 2)

    def average_degree(self, nodes: set[Hashable] | None = None) -> float:
        targets = nodes if nodes is not None else set(self._out)
        if not targets:
            return 0.0
        return sum(self.degree(n) for n in targets) / len(targets)

    def subgraph(self, nodes: set[Hashable]) -> "DirectedGraph":
        sub = DirectedGraph()
        for node in nodes:
            if node in self._out:
                sub.add_node(node)
        for src, dst in self.edges():
            if src in nodes and dst in nodes:
                sub.add_edge(src, dst)
        return sub
