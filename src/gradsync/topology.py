"""Static network graphs: adjacency, all-pairs hop distances, diameter.

Node ids are dense integers 0..n-1 so that iteration order is reproducible.
Graphs are undirected, connected, without self-loops, and immutable once
built; they can be shared read-only across parallel runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

import numpy as np

__all__ = [
    "Topology",
    "TopologyError",
    "all_pairs_distances",
    "chain",
    "ring",
    "grid",
    "random_geometric",
    "from_edges",
]


class TopologyError(ValueError):
    """A graph could not be built, or violates a structural requirement."""


@dataclass(frozen=True)
class Topology:
    """A connected undirected graph with precomputed hop distances.

    Attributes:
        node_count: number of nodes n, at least 2.
        adjacency: per-node sorted tuple of neighbor ids.
        distances: n x n matrix of shortest hop counts.
        diameter: max over all pairs of the hop distance, at least 1.
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]
    distances: np.ndarray
    diameter: int

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self.adjacency[node]

    def undirected_edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (i, j) with i < j, sorted."""
        return tuple(
            (i, j) for i in range(self.node_count) for j in self.adjacency[i] if i < j
        )

    def directed_edges(self) -> tuple[tuple[int, int], ...]:
        """Both directions of every edge, sorted by (src, dst)."""
        return tuple(
            (i, j) for i in range(self.node_count) for j in self.adjacency[i]
        )


def _check_adjacency(adjacency) -> tuple[tuple[int, ...], ...]:
    n = len(adjacency)
    if n < 2:
        raise TopologyError(f"graph needs at least 2 nodes, got {n}")
    adj = tuple(tuple(sorted(set(neigh))) for neigh in adjacency)
    for i, neigh in enumerate(adj):
        for j in neigh:
            if j == i:
                raise TopologyError(f"self-loop at node {i}")
            if not 0 <= j < n:
                raise TopologyError(f"node {i} lists unknown neighbor {j}")
            if i not in adj[j]:
                raise TopologyError(f"edge {i}-{j} is not symmetric")
    return adj


def all_pairs_distances(adjacency) -> np.ndarray:
    """Shortest hop counts between all node pairs, by BFS from each source.

    Raises TopologyError naming a disconnected pair if the graph is not
    connected.
    """
    adj = _check_adjacency(adjacency)
    n = len(adj)
    rows = []
    for src in range(n):
        row = [-1] * n
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            hops = row[u] + 1
            for v in adj[u]:
                if row[v] < 0:
                    row[v] = hops
                    queue.append(v)
        if -1 in row:
            raise TopologyError(f"nodes {src} and {row.index(-1)} are disconnected")
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def _from_adjacency(adjacency) -> Topology:
    adj = _check_adjacency(adjacency)
    dist = all_pairs_distances(adj)
    return Topology(
        node_count=len(adj),
        adjacency=adj,
        distances=dist,
        diameter=int(dist.max()),
    )


def chain(n: int) -> Topology:
    """Path graph 0-1-...-(n-1)."""
    if n < 2:
        raise TopologyError(f"chain needs n >= 2, got {n}")
    adj = [[] for _ in range(n)]
    for i in range(n - 1):
        adj[i].append(i + 1)
        adj[i + 1].append(i)
    return _from_adjacency(adj)


def ring(n: int) -> Topology:
    """Cycle graph on n >= 3 nodes."""
    if n < 3:
        raise TopologyError(f"ring needs n >= 3, got {n}")
    adj = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    return _from_adjacency(adj)


def grid(rows: int, cols: int) -> Topology:
    """Rectangular lattice; node id is row * cols + col."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise TopologyError(f"grid needs at least 2 nodes, got {rows}x{cols}")
    adj = [[] for _ in range(rows * cols)]
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                adj[u].append(u + 1)
                adj[u + 1].append(u)
            if r + 1 < rows:
                adj[u].append(u + cols)
                adj[u + cols].append(u)
    return _from_adjacency(adj)


def random_geometric(
    n: int, radius: float, seed: int, retries: int = 50
) -> Topology:
    """Nodes at uniform positions in the unit square, edges within radius.

    Redraws positions up to `retries` times until the graph is connected,
    then fails. Deterministic for a given (n, radius, seed, retries).
    """
    if n < 2:
        raise TopologyError(f"random_geometric needs n >= 2, got {n}")
    if radius <= 0:
        raise TopologyError(f"radius must be positive, got {radius}")
    rng = np.random.default_rng([seed, 0x6E0])
    for _ in range(max(1, retries)):
        pts = rng.random((n, 2))
        delta = pts[:, None, :] - pts[None, :, :]
        close = (delta ** 2).sum(axis=2) <= radius * radius
        adj = [
            [int(j) for j in np.nonzero(close[i])[0] if j != i] for i in range(n)
        ]
        try:
            return _from_adjacency(adj)
        except TopologyError:
            continue
    raise TopologyError(
        f"random_geometric(n={n}, radius={radius}, seed={seed}) "
        f"stayed disconnected after {retries} retries"
    )


def from_edges(edges) -> Topology:
    """Build from explicit undirected (u, v) pairs; n is max id + 1."""
    pairs = [(int(u), int(v)) for u, v in edges]
    if not pairs:
        raise TopologyError("edge list is empty")
    n = max(max(u, v) for u, v in pairs) + 1
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        if u == v:
            raise TopologyError(f"self-loop at node {u}")
        if v not in adj[u]:
            adj[u].append(v)
            adj[v].append(u)
    return _from_adjacency(adj)

