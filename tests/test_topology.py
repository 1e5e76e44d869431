import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsync.engine import TopologySpec
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


def test_too_small_rejected():
    with pytest.raises(TopologyError, match="n >= 2"):
        chain(1)
    with pytest.raises(TopologyError):
        all_pairs_distances([[]])


def test_self_loop_rejected():
    with pytest.raises(TopologyError, match="self-loop"):
        from_edges([(0, 0), (0, 1)])


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
