"""Tests for the graph substrate: StaticGraph, generators, operations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graphs import (
    StaticGraph,
    barbell,
    caterpillar,
    clustered_graph,
    complete_graph,
    cycle,
    gnp,
    graph_square,
    grid,
    hypercube,
    induced_subgraph,
    path,
    preferential_attachment,
    random_regular,
    random_tree,
    star,
)
from repro.util.idspace import (
    adversarial_path_ids,
    identity_ids,
    permuted_ids,
    polynomial_ids,
)


class TestStaticGraph:
    def test_from_edges_basic(self):
        g = StaticGraph.from_edges([(1, 2), (2, 3)])
        assert g.n == 3
        assert g.neighbors(2) == (1, 3)
        assert g.degree(1) == 1
        assert g.max_degree == 2
        assert g.num_edges == 2

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            StaticGraph.from_edges([(1, 1)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(GraphError):
            StaticGraph({1: (2,), 2: ()}, id_space=2)

    def test_rejects_dangling_edge(self):
        with pytest.raises(GraphError):
            StaticGraph({1: (5,)}, id_space=5)

    def test_rejects_duplicate_neighbor(self):
        with pytest.raises(GraphError, match="duplicate neighbor 2 at node 1"):
            StaticGraph({1: (2, 2), 2: (1,)}, id_space=2)

    def test_rejects_unsorted_neighbors(self):
        # Unsorted rows would break the per-node sorted order of
        # arrays.flat that the vectorized kernels rely on.
        with pytest.raises(GraphError, match="not sorted"):
            StaticGraph({1: (3, 2), 2: (1,), 3: (1,)}, id_space=3)

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(GraphError):
            StaticGraph.from_edges([(1, 2)], id_space=1)

    def test_edges_iteration_sorted_unique(self):
        g = StaticGraph.from_edges([(3, 1), (2, 3), (1, 2)])
        assert list(g.edges()) == [(1, 2), (1, 3), (2, 3)]

    def test_connectivity(self):
        g = StaticGraph.from_edges([(1, 2)], nodes=[3])
        assert not g.is_connected()
        assert sorted(len(c) for c in g.connected_components()) == [1, 2]

    def test_bfs_distances(self):
        g = path(5)
        assert g.bfs_distances(1) == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}

    def test_distance2_neighbors(self):
        g = path(5)
        assert g.distance_2_neighbors(3) == (1, 5)
        assert g.distance_2_neighbors(1) == (3,)

    def test_networkx_roundtrip(self):
        g = grid(3, 4)
        g2 = StaticGraph.from_networkx(g.to_networkx())
        assert g.adjacency == g2.adjacency


class TestGenerators:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: path(17),
            lambda: cycle(12),
            lambda: complete_graph(9),
            lambda: star(10),
            lambda: grid(4, 5),
            lambda: hypercube(4),
            lambda: random_tree(30, seed=3),
            lambda: caterpillar(6, 3),
            lambda: barbell(5, 4),
            lambda: gnp(40, 0.08, seed=1),
            lambda: random_regular(20, 4, seed=2),
            lambda: preferential_attachment(40, 3, seed=5),
            lambda: clustered_graph(4, 6, seed=7),
        ],
    )
    def test_connected_and_valid(self, factory):
        g = factory()
        assert g.is_connected()
        assert g.n >= 1
        assert min(g.nodes) >= 1

    def test_expected_shapes(self):
        assert path(10).num_edges == 9
        assert cycle(10).num_edges == 10
        assert complete_graph(6).num_edges == 15
        assert star(8).max_degree == 7
        assert hypercube(5).max_degree == 5
        assert random_regular(12, 3, seed=0).n == 12

    def test_caterpillar_degrees(self):
        g = caterpillar(5, 4)
        assert g.n == 5 + 20
        assert g.max_degree == 4 + 2  # inner spine node: 2 spine + 4 legs

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            cycle(2)
        with pytest.raises(GraphError):
            preferential_attachment(5, 5)
        with pytest.raises(GraphError):
            random_regular(5, 3)  # odd n*d

    def test_determinism(self):
        a = gnp(30, 0.1, seed=42)
        b = gnp(30, 0.1, seed=42)
        assert a.adjacency == b.adjacency


class TestIdAssignments:
    def test_identity(self):
        ids = identity_ids(5)
        assert ids.ids == (1, 2, 3, 4, 5) and ids.space == 5

    def test_permuted_is_permutation(self):
        ids = permuted_ids(100, seed=1)
        assert sorted(ids.ids) == list(range(1, 101))

    def test_polynomial_range(self):
        ids = polynomial_ids(50, exponent=2, seed=0)
        assert len(set(ids.ids)) == 50
        assert ids.space == 2500
        assert all(1 <= i <= 2500 for i in ids.ids)

    def test_adversarial_decreasing(self):
        ids = adversarial_path_ids(5)
        assert ids.ids == (5, 4, 3, 2, 1)

    def test_graph_uses_assignment(self):
        g = path(4, ids=adversarial_path_ids(4))
        # path order 1-2-3-4 becomes IDs 4-3-2-1
        assert g.has_edge(4, 3) and g.has_edge(2, 1)
        assert not g.has_edge(4, 1)


class TestOps:
    def test_square_of_path(self):
        g2 = graph_square(path(5))
        assert g2.has_edge(1, 3) and g2.has_edge(2, 4)
        assert not g2.has_edge(1, 4)
        assert g2.max_degree == 4

    def test_square_of_star_is_complete(self):
        g2 = graph_square(star(6))
        assert g2.num_edges == 15

    def test_induced_subgraph(self):
        g = cycle(6)
        sub = induced_subgraph(g, {1, 2, 3})
        assert list(sub.edges()) == [(1, 2), (2, 3)]

    def test_induced_missing_node_rejected(self):
        with pytest.raises(KeyError):
            induced_subgraph(path(3), {1, 9})

    @settings(max_examples=25, deadline=None)
    @given(st.integers(5, 40), st.integers(0, 10**6))
    def test_square_distance_semantics(self, n, seed):
        g = gnp(n, 3.0 / n, seed=seed)
        g2 = graph_square(g)
        for v in list(g.nodes)[:5]:
            dist = g.bfs_distances(v)
            expected = {u for u, d in dist.items() if 1 <= d <= 2}
            assert set(g2.neighbors(v)) == expected
