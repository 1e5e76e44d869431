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
    "WORKLOAD_CAP",
]

# Most sends plus drift segments a config may be estimated to take, most
# node pairs its topology may have (its distance matrix is n x n), and most
# Euler steps an oracle run may take: a few GB and minutes of CPU. The
# presets and benchmarks stay below 7e4 and 1e4.
WORKLOAD_CAP = 10_000_000


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


class _Disconnected(TopologyError):
    """The graph is not connected: the one failure random_geometric redraws on."""


def all_pairs_distances(adjacency) -> np.ndarray:
    """Shortest hop counts between all node pairs, by BFS from each source.

    Raises TopologyError naming a disconnected pair if the graph is not
    connected.
    """
    return _bfs(_check_adjacency(adjacency))


def _bfs(adj) -> np.ndarray:
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
            raise _Disconnected(f"nodes {src} and {row.index(-1)} are disconnected")
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def _topology(n: int, edges) -> Topology:
    """The graph on nodes 0..n-1 whose edges are the undirected (u, v) pairs
    in edges; a repeated or reversed pair is the same edge. Its BFS takes a
    step per node and directed edge: over 50 x WORKLOAD_CAP are refused."""
    pairs = set()
    for u, v in edges:
        if u == v:
            raise TopologyError(f"edge ({u}, {v}) is a self-loop at node {u}")
        for w in (u, v):
            if not 0 <= w < n:
                raise TopologyError(f"edge ({u}, {v}) names node {w}, outside 0..{n - 1}")
        pairs.add((min(u, v), max(u, v)))
    steps = n * 2 * len(pairs)
    if steps > 50 * WORKLOAD_CAP:
        raise TopologyError(
            f"graph of {n:,} nodes and {len(pairs):,} edges takes {steps:,} BFS steps "
            f"(nodes x directed edges), over {50 * WORKLOAD_CAP:,}"
        )
    adj = [[] for _ in range(n)]
    for u, v in sorted(pairs):  # so each list fills in ascending order
        adj[u].append(v)
        adj[v].append(u)
    adj = tuple(map(tuple, adj))
    dist = _bfs(adj)
    return Topology(node_count=n, adjacency=adj, distances=dist, diameter=int(dist.max()))


def chain(n: int) -> Topology:
    """Path graph 0-1-...-(n-1)."""
    if n < 2:
        raise TopologyError(f"chain needs n >= 2, got {n}")
    return _topology(n, ((i, i + 1) for i in range(n - 1)))


def ring(n: int) -> Topology:
    """Cycle graph on n >= 3 nodes."""
    if n < 3:
        raise TopologyError(f"ring needs n >= 3, got {n}")
    return _topology(n, ((i, (i + 1) % n) for i in range(n)))


def grid(rows: int, cols: int) -> Topology:
    """Rectangular lattice; node id is row * cols + col."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise TopologyError(f"grid needs at least 2 nodes, got {rows}x{cols}")
    n = rows * cols
    right = [(u, u + 1) for u in range(n) if (u + 1) % cols]
    return _topology(n, right + [(u, u + cols) for u in range(n - cols)])


def random_geometric(
    n: int, radius: float, seed: int, retries: int = 50
) -> Topology:
    """Nodes at uniform positions in the unit square, edges within radius.

    Draws positions up to `retries` times, which must be at least 1, until
    the graph is connected, then fails. Deterministic for a given (n,
    radius, seed, retries).
    """
    if n < 2:
        raise TopologyError(f"random_geometric needs n >= 2, got {n}")
    if radius <= 0:
        raise TopologyError(f"radius must be positive, got {radius}")
    for name, value in (("seed", seed), ("retries", retries)):
        if value < 0:
            raise TopologyError(f"random_geometric {name} must be non-negative, got {value}")
    if retries < 1:
        raise TopologyError(
            f"random_geometric retries counts draws and must be at least 1, got {retries}"
        )
    rng = np.random.default_rng([seed, 0x6E0])
    for _ in range(retries):
        pts = rng.random((n, 2))
        close = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2) <= radius * radius
        try:
            return _topology(n, np.argwhere(np.triu(close, 1)).tolist())
        except _Disconnected:
            continue
    raise TopologyError(
        f"random_geometric(n={n}, radius={radius}, seed={seed}) "
        f"stayed disconnected after {retries} draws"
    )


def from_edges(edges) -> Topology:
    """Build from explicit undirected (u, v) pairs; n is max id + 1."""
    pairs = [(int(u), int(v)) for u, v in edges]
    if not pairs:
        raise TopologyError("edge list is empty")
    return _topology(max(max(pair) for pair in pairs) + 1, pairs)
