import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsync import topology as topo_mod
from gradsync.config import TopologySpec
from gradsync.topology import (
    TopologyError,
    all_pairs_distances,
    chain,
    from_edges,
    grid,
    random_geometric,
    ring,
)


def floyd_warshall(adjacency):
    """Independent all-pairs shortest-path recomputation for cross-checks."""
    n = len(adjacency)
    inf = n + 1
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in adjacency[i]:
            dist[i][j] = 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik >= inf:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return np.array(dist)


def test_chain_distances_and_diameter():
    topo = chain(5)
    assert topo.diameter == 4
    assert topo.distances[0, 4] == 4
    assert chain(3).distances[0, 2] == 2


def test_ring_diameter():
    assert ring(6).diameter == 3


def test_grid_diameter_and_corners():
    topo = grid(3, 3)
    assert topo.diameter == 4
    assert topo.distances[0, 8] == 4  # opposite corners


def test_complete_graph_all_distance_one():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    topo = from_edges(edges)
    dist = topo.distances
    assert dist[~np.eye(4, dtype=bool)].tolist() == [1] * 12


@pytest.mark.parametrize("k", [2, 3, 7, 17, 40])
def test_chain_diameter_formula(k):
    assert chain(k).diameter == k - 1


def test_bfs_matches_floyd_warshall_on_generated_topologies():
    topos = [
        chain(9),
        ring(10),
        grid(4, 5),
        random_geometric(25, 0.35, seed=1),
        random_geometric(40, 0.3, seed=2),
    ]
    for topo in topos:
        expected = floyd_warshall(topo.adjacency)
        assert np.array_equal(topo.distances, expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=8, max_value=30), st.integers(min_value=0, max_value=10_000))
def test_random_geometric_distance_invariants(n, seed):
    topo = random_geometric(n, 0.45, seed=seed)
    dist = topo.distances
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diag(dist) == 0)
    assert dist.max() == topo.diameter >= 1
    # triangle inequality through every intermediate node
    n_ = topo.node_count
    for k in range(n_):
        assert np.all(dist <= dist[:, k][:, None] + dist[k, :][None, :])


def test_disconnected_rejection_names_a_pair():
    with pytest.raises(TopologyError, match=r"nodes \d+ and \d+ are disconnected"):
        from_edges([(0, 1), (2, 3)])


@pytest.mark.parametrize(
    "edges,nodes",
    [([(1, 2)], (0, 1)), ([(3, 4), (4, 5), (5, 3), (0, 1)], (0, 2)), ([(0, 2_000_000)], (0, 1))],
)
def test_untouched_node_refused_before_any_adjacency(edges, nodes):
    # node 0 untouched is named with node 1; else the lowest untouched node
    tracemalloc.start()
    try:
        with pytest.raises(
            topo_mod._Disconnected, match=f"^nodes {nodes[0]} and {nodes[1]} are disconnected$"
        ):
            from_edges(edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_too_small_rejected():
    with pytest.raises(TopologyError, match="n >= 2"):
        chain(1)
    with pytest.raises(TopologyError):
        all_pairs_distances([[]])


def test_self_loop_rejected():
    with pytest.raises(TopologyError, match="self-loop"):
        from_edges([(0, 0), (0, 1)])
    with pytest.raises(TopologyError, match=r"^edge \(1, 1\) is a self-loop at node 1$"):
        from_edges([(0, 1), (1, 1)])
    # the first faulty edge in input order; a self-loop is named before a bad id
    with pytest.raises(TopologyError, match=r"^edge \(5, 5\) is a self-loop at node 5$"):
        from_edges([(0, 1), (5, 5), (-1, 2)])
    with pytest.raises(TopologyError, match=r"^edge \(-1, -1\) is a self-loop at node -1$"):
        from_edges([(0, 1), (-1, -1)])
    big = 10**30  # past int64, still named exactly
    named = f"edge ({big}, {big}) is a self-loop at node {big}"
    with pytest.raises(TopologyError, match=f"^{re.escape(named)}$"):
        from_edges([(0, 1), (big, big)])


@pytest.mark.parametrize(
    "edges,named",
    [
        ([(0, 1), (1, 2), (-3, 1)], "edge (-3, 1) names node -3, outside 0..2"),
        ([(0, 1), (1, 2), (2, -3)], "edge (2, -3) names node -3, outside 0..2"),
        ([(-1, 0)], "edge (-1, 0) names node -1, outside 0..0"),
        ([(0, 1), (-1, 2), (5, 5)], "edge (-1, 2) names node -1, outside 0..5"),
        ([(0, 3), (-1, -2)], "edge (-1, -2) names node -1, outside 0..3"),
        ([(-10**30, 1)], f"edge ({-10**30}, 1) names node {-10**30}, outside 0..1"),
    ],
)
def test_negative_edge_id_refused(edges, named):
    # read as an index, a negative id would name a node from the end
    with pytest.raises(TopologyError, match=f"^{re.escape(named)}$"):
        from_edges(edges)


def test_bfs_steps_over_the_bound_refused(monkeypatch):
    # 50 x 100 = 5,000 steps: chain(50) takes 50 x 98 of them, chain(51) 51 x 100
    monkeypatch.setattr(topo_mod, "WORKLOAD_CAP", 100)
    assert chain(50).diameter == 49
    named = "graph of 51 nodes and 50 edges takes 5,100 BFS steps (nodes x directed edges), over 5,000"
    with pytest.raises(TopologyError, match=f"^{re.escape(named)}$"):
        chain(51)
    # an id past int64 counts into the steps exactly
    named = (
        f"graph of {10**30 + 1:,} nodes and 1 edges takes {2 * (10**30 + 1):,} BFS steps "
        "(nodes x directed edges), over 5,000"
    )
    with pytest.raises(TopologyError, match=f"^{re.escape(named)}$"):
        from_edges([(0, 10**30), (10**30, 0)])


def test_random_geometric_over_the_bound_refused_on_its_first_draw(monkeypatch):
    # 30 nodes all within radius 2 have 435 edges, 26,100 steps: every draw
    # is over the bound, and only disconnection is worth another draw. The
    # draw is refused by its count, before _topology gets its edge pairs.
    monkeypatch.setattr(topo_mod, "WORKLOAD_CAP", 100)
    draws, built = [], []
    default_rng = np.random.default_rng

    class CountedDraws:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def random(self, shape):
            draws.append(shape)
            return self.rng.random(shape)

    monkeypatch.setattr(np.random, "default_rng", CountedDraws)
    monkeypatch.setattr(topo_mod, "_topology", lambda n, edges: built.append(n))
    with pytest.raises(TopologyError, match=r"^graph of 30 nodes and 435 edges takes 26,100 BFS"):
        random_geometric(30, 2.0, seed=1, retries=5)
    assert (draws, built) == ([(30, 2)], [])


def test_dense_random_geometric_refused_before_its_edge_pairs():
    # 4,000 points within radius 0.3 have 1,702,826 edges at seed 0. Counted
    # one 256-row block of distances at a time, the refusal peaks at 33.9 MB,
    # the block's point differences and their squares; collecting the (m, 2)
    # edge pairs first, it peaked at 204.5 MB.
    tracemalloc.start()
    try:
        with pytest.raises(
            TopologyError,
            match=r"^graph of 4,000 nodes and 1,702,826 edges takes 13,622,608,000 BFS steps",
        ):
            random_geometric(4000, 0.3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 41e6


def test_random_geometric_is_deterministic_and_can_fail():
    a = random_geometric(20, 0.4, seed=5)
    b = random_geometric(20, 0.4, seed=5)
    assert a.adjacency == b.adjacency
    with pytest.raises(TopologyError, match="disconnected after"):
        random_geometric(30, 0.01, seed=5, retries=3)


@pytest.mark.parametrize(
    "seed,retries,named", [(-2, 50, "seed must be non-negative, got -2"),
                           (5, -5, "retries must be non-negative, got -5"),
                           (5, 0, "retries counts draws and must be at least 1, got 0")]
)
def test_random_geometric_refuses_negative_seed_and_retries(seed, retries, named):
    with pytest.raises(TopologyError, match=f"^random_geometric {named}$"):
        random_geometric(20, 0.4, seed=seed, retries=retries)


def test_topology_spec_dispatch():
    assert TopologySpec(kind="chain", n=4).build().diameter == 3
    assert TopologySpec(kind="ring", n=6).build().diameter == 3
    assert TopologySpec(kind="grid", rows=2, cols=2).build().diameter == 2
    assert TopologySpec(kind="edge_list", edges=((0, 1), (1, 2))).build().diameter == 2
    rgg = TopologySpec(kind="random_geometric", n=20, radius=0.4)
    assert rgg.build(default_seed=5).adjacency == random_geometric(20, 0.4, seed=5).adjacency
    assert (rgg.seed, rgg.retries) == (None, 50)
    with pytest.raises(TopologyError, match="unknown topology kind"):
        TopologySpec(kind="star", n=3).build()


@pytest.mark.parametrize(
    "spec,named",
    [
        (TopologySpec(kind="grid", rows=2, cols=3, n=100), "grid topology does not read n"),
        (TopologySpec(kind="chain", n=4, radius=0.3), "chain topology does not read radius"),
        (TopologySpec(kind="chain", n=4, edges=((0, 1),)), "chain topology does not read edges"),
        (TopologySpec(kind="ring", n=5, retries=3), "ring topology does not read retries"),
        (TopologySpec(kind="ring", n=5, retries=50), "ring topology does not read retries"),
        (TopologySpec(kind="edge_list", edges=((0, 1),), seed=2),
         "edge_list topology does not read seed"),
        (TopologySpec(kind="chain", n=4, seed=0), "chain topology does not read seed"),
    ],
)
def test_topology_spec_refuses_unread_fields(spec, named):
    with pytest.raises(TopologyError, match=f"^{named}$"):
        spec.build()


class TestBuilderReference:
    """The builders against a per-kind adjacency-list build of each graph,
    checked and searched by all_pairs_distances: the same adjacency,
    distances and diameter."""

    @staticmethod
    def reference(lists):
        adjacency = tuple(tuple(sorted(set(neigh))) for neigh in lists)
        distances = all_pairs_distances(lists)
        return adjacency, distances, int(distances.max())

    @staticmethod
    def chain_lists(n):
        adj = [[] for _ in range(n)]
        for i in range(n - 1):
            adj[i].append(i + 1)
            adj[i + 1].append(i)
        return adj

    @staticmethod
    def ring_lists(n):
        return [[(i - 1) % n, (i + 1) % n] for i in range(n)]

    @staticmethod
    def grid_lists(rows, cols):
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
        return adj

    @classmethod
    def random_geometric_reference(cls, n, radius, seed, retries=50):
        """The first connected draw's reference, or None if none is."""
        rng = np.random.default_rng([seed, 0x6E0])
        for _ in range(retries):
            pts = rng.random((n, 2))
            delta = pts[:, None, :] - pts[None, :, :]
            close = (delta ** 2).sum(axis=2) <= radius * radius
            lists = [[int(j) for j in np.nonzero(close[i])[0] if j != i] for i in range(n)]
            try:
                return cls.reference(lists)
            except TopologyError:
                continue
        return None

    @staticmethod
    def edge_lists(edges):
        n = max(max(u, v) for u, v in edges) + 1
        adj = [[] for _ in range(n)]
        for u, v in edges:
            if v not in adj[u]:
                adj[u].append(v)
                adj[v].append(u)
        return adj

    @staticmethod
    def assert_same(topo, reference):
        adjacency, distances, diameter = reference
        assert topo.node_count == len(adjacency)
        assert topo.adjacency == adjacency
        assert all(type(j) is int for neigh in topo.adjacency for j in neigh)
        np.testing.assert_array_equal(topo.distances, distances, strict=True)
        assert topo.diameter == diameter and type(topo.diameter) is int

    @pytest.mark.parametrize("n", range(2, 41))
    def test_chain(self, n):
        self.assert_same(chain(n), self.reference(self.chain_lists(n)))

    @pytest.mark.parametrize("n", range(3, 41))
    def test_ring(self, n):
        self.assert_same(ring(n), self.reference(self.ring_lists(n)))

    def test_grid(self):
        for rows in range(1, 9):
            for cols in range(1, 9):
                if rows * cols >= 2:
                    expected = self.reference(self.grid_lists(rows, cols))
                    self.assert_same(grid(rows, cols), expected)

    # the preset, the benchmark's random field at both its sizes, the
    # 200-node baseline, draws that connect only after a retry, and 300
    # nodes, whose points are compared in two blocks of rows
    @pytest.mark.parametrize(
        "n,radius,seed",
        [(50, 0.3, 7), (80, 0.22, 11), (12, 0.5, 11), (200, 0.14, 1), (30, 0.22, 3),
         (300, 0.12, 1)],
    )
    def test_random_geometric(self, n, radius, seed):
        expected = self.random_geometric_reference(n, radius, seed)
        self.assert_same(random_geometric(n, radius, seed), expected)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.sampled_from([0.2, 0.3, 0.45]),
        st.integers(min_value=0, max_value=10**9),
    )
    def test_random_geometric_drawn_seeds(self, n, radius, seed):
        expected = self.random_geometric_reference(n, radius, seed, retries=5)
        if expected is None:
            with pytest.raises(TopologyError, match="stayed disconnected after 5 draws"):
                random_geometric(n, radius, seed, retries=5)
        else:
            self.assert_same(random_geometric(n, radius, seed, retries=5), expected)

    def test_from_edges_with_repeated_and_reversed_pairs(self):
        edges = [(0, 1), (1, 0), (2, 1), (1, 2), (1, 2), (3, 2), (0, 3), (3, 0), (4, 1)]
        topo = from_edges(edges)
        self.assert_same(topo, self.reference(self.edge_lists(edges)))
        assert topo.undirected_edges() == ((0, 1), (0, 3), (1, 2), (1, 4), (2, 3))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    def test_from_edges_drawn(self, extra, shuffle):
        # a path in both directions keeps the graph connected
        edges = extra + [(i + 1, i) for i in range(9)] + [(i, i + 1) for i in range(9)]
        shuffle.shuffle(edges)
        self.assert_same(from_edges(edges), self.reference(self.edge_lists(edges)))
