"""The seed contract of the graph builders, checked against networkx.

:mod:`repro.graphs.generators` builds its families straight into
adjacency, replaying networkx's draw sequences without a networkx graph.
The reference constructions here are the networkx ones: the ``nx.*``
generator, a component patch over ``nx.connected_components`` (chain
the component minima, components ordered by minimum), then
``StaticGraph.from_networkx``. They live only in this module, as the
oracle. Every case compares the adjacency (insertion order included) and
the ID space, across the ``identity``, ``permuted`` and ``poly2`` ID
schemes. A networkx upgrade that moves a draw fails here instead of
silently changing every seeded graph.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import generators
from repro.graphs.families import build_family_graph, resolve_id_assignment
from repro.graphs.graph import StaticGraph
from repro.util.idspace import IdAssignment

SCHEMES = ("identity", "permuted", "poly2")

schemes = st.sampled_from(SCHEMES)
seeds = st.integers(min_value=0, max_value=2**32)
#: Mostly sparse p, so graphs fall apart into many components and the
#: connectivity patch has a chain to get right; some dense p too.
probabilities = st.one_of(
    st.floats(min_value=0.0, max_value=4.0).map(lambda c: c / 64),
    st.floats(min_value=0.0, max_value=1.0),
)


def nx_connect(g: nx.Graph) -> nx.Graph:
    """The reference patch: link each component's minimum to the previous
    component's minimum, components ordered by minimum."""
    components = sorted(sorted(c) for c in nx.connected_components(g))
    for prev, cur in zip(components, components[1:]):
        g.add_edge(prev[0], cur[0])
    return g


def nx_random_tree(n: int, seed: int) -> nx.Graph:
    """The reference tree: networkx's decode of the seeded Prüfer code."""
    if n <= 2:
        return nx.path_graph(n)
    rng = random.Random(seed)
    return nx.from_prufer_sequence([rng.randrange(n) for _ in range(n - 2)])


def assert_same(built: StaticGraph, g: nx.Graph, ids: IdAssignment | None) -> None:
    reference = StaticGraph.from_networkx(g, ids)
    assert built.id_space == reference.id_space
    assert list(built.adjacency.items()) == list(reference.adjacency.items())


# -- G(n, p) ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 160), p=probabilities, seed=seeds, scheme=schemes)
def test_fast_gnp_replays_networkx(n, p, seed, scheme):
    assume(p in (0.0, 1.0) or math.log(1.0 - p) != 0.0)  # see the next test
    ids = resolve_id_assignment(scheme, n, seed)
    built = generators.gnp(n, p, seed, ids, method="fast")
    assert_same(built, nx_connect(nx.fast_gnp_random_graph(n, p, seed=seed)), ids)


@pytest.mark.parametrize("p", [1e-300, 1e-17, 5e-324])
def test_fast_gnp_below_float_resolution(p):
    """Where ``1 - p`` rounds to 1, networkx's skip divides by
    ``log(1 - p) == 0``; the replay draws no pair at all, which is the
    limit of the skip length, and patches the empty graph into a path."""
    with pytest.raises(ZeroDivisionError):
        nx.fast_gnp_random_graph(8, p, seed=3)
    built = generators.gnp(8, p, 3, method="fast")
    assert_same(built, nx_connect(nx.empty_graph(8)), None)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 48), p=probabilities, seed=seeds, scheme=schemes)
def test_binomial_gnp_replays_networkx(n, p, seed, scheme):
    ids = resolve_id_assignment(scheme, n, seed)
    built = generators.gnp(n, p, seed, ids)
    assert_same(built, nx_connect(nx.gnp_random_graph(n, p, seed=seed)), ids)


@pytest.mark.parametrize("method", ["fast", "binomial"])
@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 17])
def test_gnp_extreme_p(method, p, n):
    """p of 0 or 1 draws nothing; networkx's fast sampler hands these to
    the binomial one, and p = 0 patches into the path 0-1-…-(n-1)."""
    sampler = {"fast": nx.fast_gnp_random_graph, "binomial": nx.gnp_random_graph}
    for scheme in SCHEMES:
        ids = resolve_id_assignment(scheme, n, 5)
        built = generators.gnp(n, p, 5, ids, method=method)
        assert_same(built, nx_connect(sampler[method](n, p, seed=5)), ids)


@pytest.mark.parametrize("n, seed", [(4096, 1), (4096, 7), (1 << 14, 3)])
def test_fast_gnp_at_scale(n, seed):
    """The scale sampler at the sparse p = 8/n the array benchmarks use."""
    reference = nx_connect(nx.fast_gnp_random_graph(n, 8 / n, seed=seed))
    for scheme in ("identity", "permuted"):
        ids = resolve_id_assignment(scheme, n, seed)
        built = generators.gnp(n, 8 / n, seed, ids, method="fast")
        assert_same(built, reference, ids)


def test_family_registry_routes_through_the_replayed_sampler():
    n, seed = 512, 11
    built = build_family_graph(
        "gnp", n, seed=seed, ids="permuted", p=3 / n, method="fast"
    )
    reference = nx_connect(nx.fast_gnp_random_graph(n, 3 / n, seed=seed))
    assert_same(built, reference, resolve_id_assignment("permuted", n, seed))


# -- random trees ------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 300), seed=seeds, scheme=schemes)
def test_random_tree_decodes_like_networkx(n, seed, scheme):
    ids = resolve_id_assignment(scheme, n, seed)
    assert_same(generators.random_tree(n, seed, ids), nx_random_tree(n, seed), ids)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_trees_and_paths(n):
    for scheme in SCHEMES:
        ids = resolve_id_assignment(scheme, n, 2)
        assert_same(generators.random_tree(n, 2, ids), nx_random_tree(n, 2), ids)
        assert_same(generators.path(n, ids), nx.path_graph(n), ids)


# -- deterministic families ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 80), seed=seeds, scheme=schemes)
def test_path_complete_cycle_star(n, seed, scheme):
    ids = resolve_id_assignment(scheme, n, seed)
    assert_same(generators.path(n, ids), nx.path_graph(n), ids)
    assert_same(generators.complete_graph(n, ids), nx.complete_graph(n), ids)
    if n >= 3:
        assert_same(generators.cycle(n, ids), nx.cycle_graph(n), ids)
    if n >= 2:
        assert_same(generators.star(n, ids), nx.star_graph(n - 1), ids)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), seed=seeds, scheme=schemes)
def test_grid_numbers_cells_in_sorted_tuple_order(rows, cols, seed, scheme):
    ids = resolve_id_assignment(scheme, rows * cols, seed)
    assert_same(generators.grid(rows, cols, ids), nx.grid_2d_graph(rows, cols), ids)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (7, 1), (3, 5), (5, 3)])
def test_non_square_grid(rows, cols):
    for scheme in SCHEMES:
        ids = resolve_id_assignment(scheme, rows * cols, 4)
        built = generators.grid(rows, cols, ids)
        assert_same(built, nx.grid_2d_graph(rows, cols), ids)


@pytest.mark.parametrize("dim", range(1, 7))
def test_hypercube_numbers_bit_strings_msb_first(dim):
    for scheme in SCHEMES:
        ids = resolve_id_assignment(scheme, 1 << dim, dim)
        assert_same(generators.hypercube(dim, ids), nx.hypercube_graph(dim), ids)


# -- preferential attachment --------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 200), seed=seeds, scheme=schemes, data=st.data())
def test_preferential_attachment_replays_networkx(n, seed, scheme, data):
    m = data.draw(st.one_of(st.just(max(1, n // 16)), st.integers(1, n - 1)))
    ids = resolve_id_assignment(scheme, n, seed)
    built = generators.preferential_attachment(n, m, seed, ids)
    assert_same(built, nx_connect(nx.barabasi_albert_graph(n, m, seed=seed)), ids)


# -- networkx-sampled family, in-repo patch and relabel ----------------------


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 80), seed=seeds, scheme=schemes, data=st.data())
def test_random_regular_patches_like_networkx(n, seed, scheme, data):
    ids = resolve_id_assignment(scheme, n, seed)
    degree = data.draw(st.sampled_from([d for d in range(5) if n * d % 2 == 0]))
    built = generators.random_regular(n, degree, seed, ids)
    reference = nx_connect(nx.random_regular_graph(degree, n, seed=seed))
    assert_same(built, reference, ids)


def test_unmatched_id_assignment_is_refused():
    with pytest.raises(GraphError, match="3 ids for 4 nodes"):
        generators.path(4, resolve_id_assignment("permuted", 3, 0))
