"""Property tests: the CSR-indexed StaticGraph fast path agrees with a
naive reference implementation on every query.

The naive implementations below mirror the seed (pre-index) code: sort
the adjacency on every access, walk plain dict-of-tuples structures for
BFS/components, and recount degrees on demand. Hypothesis drives both
over random graphs; any divergence is an index bug.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.graphs import StaticGraph, gnp, graph_square, induced_subgraph


# -- naive reference implementations (seed semantics) ------------------------


def naive_nodes(g):
    return tuple(sorted(g.adjacency))


def naive_degree(g, v):
    return len(g.adjacency[v])


def naive_max_degree(g):
    return max((len(nbrs) for nbrs in g.adjacency.values()), default=0)


def naive_num_edges(g):
    return sum(len(nbrs) for nbrs in g.adjacency.values()) // 2


def naive_edges(g):
    out = []
    for v, nbrs in sorted(g.adjacency.items()):
        for u in nbrs:
            if u > v:
                out.append((v, u))
    return out


def naive_bfs_distances(g, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def naive_components(g):
    seen = set()
    components = []
    for v in naive_nodes(g):
        if v not in seen:
            comp = set(naive_bfs_distances(g, v))
            seen |= comp
            components.append(frozenset(comp))
    return components


def naive_csr(g):
    ids = sorted(g.adjacency)
    slot = {v: i for i, v in enumerate(ids)}
    offsets, flat, degrees = [0], [], []
    for v in ids:
        flat.extend(slot[u] for u in g.adjacency[v])
        degrees.append(len(g.adjacency[v]))
        offsets.append(len(flat))
    return ids, offsets, flat, degrees


def naive_induced_bfs(g, members, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.adjacency[v]:
            if u in members and u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def naive_induced_components(g, members):
    seen = set()
    components = []
    for v in sorted(members):
        if v not in seen:
            comp = set(naive_induced_bfs(g, members, v))
            seen |= comp
            components.append(frozenset(comp))
    return components


def naive_distance_2(g, v):
    direct = set(g.adjacency[v])
    two_hop = set()
    for u in direct:
        two_hop.update(g.adjacency[u])
    two_hop -= direct
    two_hop.discard(v)
    return tuple(sorted(two_hop))


# -- strategies --------------------------------------------------------------


@st.composite
def node_ids(draw, n):
    """Sorted IDs of n nodes: 1..n, a contiguous range k+1..k+n above 1,
    or a set with gaps — both branches of ``GraphArrays.from_adjacency``."""
    shape = draw(st.sampled_from(("identity", "shifted", "gapped")))
    if shape == "identity":
        return list(range(1, n + 1))
    if shape == "shifted":
        k = draw(st.integers(min_value=1, max_value=1000))
        return list(range(k + 1, k + n + 1))
    ids = draw(st.sets(st.integers(min_value=1, max_value=4 * n + 8),
                       min_size=n, max_size=n))
    return sorted(ids)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    ids = draw(node_ids(n))
    possible = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    edges = draw(st.lists(st.sampled_from(possible), max_size=60) if possible
                 else st.just([]))
    return StaticGraph.from_edges(edges, nodes=ids, id_space=ids[-1])


@st.composite
def graphs_with_members(draw):
    g = draw(graphs())
    members = draw(st.sets(st.sampled_from(g.nodes)))
    return g, members


# -- the agreement properties ------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_scalar_queries_agree(g):
    assert g.nodes == naive_nodes(g)
    assert g.node_set == frozenset(naive_nodes(g))
    assert g.max_degree == naive_max_degree(g)
    assert g.num_edges == naive_num_edges(g)
    for v in g.nodes:
        assert g.degree(v) == naive_degree(v=v, g=g)
        assert g.neighbors(v) == tuple(sorted(g.adjacency[v]))


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_edges_agree(g):
    assert list(g.edges()) == naive_edges(g)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_bfs_distances_agree(g):
    for source in g.nodes:
        assert g.bfs_distances(source) == naive_bfs_distances(g, source)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_connected_components_agree(g):
    assert g.connected_components() == naive_components(g)
    assert g.is_connected() == (len(naive_components(g)) <= 1)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_distance_2_agree(g):
    for v in g.nodes:
        assert g.distance_2_neighbors(v) == naive_distance_2(g, v)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_trusted_ops_match_validated_construction(g):
    """graph_square / induced_subgraph build through the trusted fast path;
    re-validating their adjacency through the public constructor must
    accept it and produce an equal graph."""
    sq = graph_square(g)
    assert StaticGraph(sq.adjacency, id_space=sq.id_space) == sq
    half = set(list(g.nodes)[: g.n // 2])
    sub = induced_subgraph(g, half)
    assert StaticGraph(sub.adjacency, id_space=sub.id_space) == sub
    assert set(sub.nodes) == half


def test_index_is_cached_and_lazy():
    g = gnp(64, 0.1, seed=3)
    assert g.arrays is g.arrays  # one build, cached on the frozen instance
    n1 = g.nodes
    assert g.nodes is n1  # no re-sort per access


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_arrays_match_naive_csr(g):
    """The numpy CSR equals a naive CSR of the adjacency, also on the
    trusted-path results of graph_square and induced_subgraph."""
    half = set(list(g.nodes)[: g.n // 2])
    for h in (g, graph_square(g), induced_subgraph(g, half)):
        ids, offsets, flat, degrees = naive_csr(h)
        ga = h.arrays
        assert ga.ids.tolist() == ids
        assert ga.offsets.tolist() == offsets
        assert ga.flat.tolist() == flat
        assert ga.degrees.tolist() == degrees
        for array in (ga.ids, ga.offsets, ga.flat, ga.degrees):
            assert array.dtype == "int64"


@settings(max_examples=120, deadline=None)
@given(graphs_with_members())
def test_bfs_distances_within_agree(case):
    g, members = case
    for source in sorted(members):
        got = g.bfs_distances(source, within=members)
        # Same distances in the same discovery order.
        assert list(got.items()) == list(
            naive_induced_bfs(g, members, source).items()
        )


@settings(max_examples=120, deadline=None)
@given(graphs_with_members())
def test_connected_components_within_agree(case):
    g, members = case
    assert g.connected_components(within=members) == naive_induced_components(
        g, members
    )
