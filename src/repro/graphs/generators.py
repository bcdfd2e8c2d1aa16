"""Graph family generators used by tests, examples and benchmarks.

All generators return connected :class:`StaticGraph` instances and accept an
optional :class:`IdAssignment`; by default nodes get identity IDs ``1..n``.
Randomized families take an explicit ``seed`` so every experiment is
reproducible bit-for-bit.

Most builders fill 0-based neighbour lists straight from their
definition (and, for the random families, from a ``random.Random(seed)``
draw sequence replayed here), patch connectivity with one in-repo
component walk, and relabel node ``i`` to ``ids.ids[i]`` (``i + 1`` for
identity IDs). No intermediate graph object is built. The seed contract
is the one networkx's samplers define, pinned in this module and checked
against networkx by ``tests/test_generators_seed_contract.py``:

* ``gnp(method="fast")`` replays Batagelj & Brandes' geometric skipping
  (Phys. Rev. E 71, 036113, 2005) exactly as
  ``nx.fast_gnp_random_graph`` draws it: one ``random()`` per skip, the
  same ``math.log(1 - p)`` arithmetic and the same ``v``/``w`` walk.
* ``gnp(method="binomial")`` draws once per pair in
  ``itertools.combinations(range(n), 2)`` order, as
  ``nx.gnp_random_graph`` does.
* ``random_tree`` decodes the same ``randrange`` Prüfer sequence.
* ``preferential_attachment`` grows the graph ``nx.barabasi_albert_graph``
  grows: the same initial star, the same ``choice`` draws and the same
  target sets, appended in the same (set iteration) order.
* ``grid`` and ``hypercube`` number nodes in the order of networkx's
  sorted tuple labels: ``i * cols + j`` for cell ``(i, j)``, and the
  bit string read with its first bit most significant.

``random_regular``, ``caterpillar``, ``barbell`` and ``clustered_graph``
still build through networkx, which they import on first call, so
``import repro`` does not load it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from typing import TYPE_CHECKING

from repro.errors import GraphError
from repro.graphs.graph import StaticGraph
from repro.util.idspace import IdAssignment

if TYPE_CHECKING:
    import networkx as nx

#: 0-based neighbour lists: ``neighbours[i]`` holds node i's neighbours,
#: ascending.
Neighbours = list[list[int]]


def path(n: int, ids: IdAssignment | None = None) -> StaticGraph:
    """The n-node path P_n."""
    _require(n >= 1, f"path needs n >= 1, got {n}")
    neighbours = [[u for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)]
    return _relabel(neighbours, ids)


def cycle(n: int, ids: IdAssignment | None = None) -> StaticGraph:
    """The n-node cycle C_n (n >= 3)."""
    _require(n >= 3, f"cycle needs n >= 3, got {n}")
    neighbours = [sorted(((v - 1) % n, (v + 1) % n)) for v in range(n)]
    return _relabel(neighbours, ids)


def complete_graph(n: int, ids: IdAssignment | None = None) -> StaticGraph:
    """K_n — the maximum-degree extreme (Δ = n-1)."""
    _require(n >= 1, f"complete_graph needs n >= 1, got {n}")
    return _relabel([[*range(v), *range(v + 1, n)] for v in range(n)], ids)


def star(n: int, ids: IdAssignment | None = None) -> StaticGraph:
    """Star with one hub and n-1 leaves."""
    _require(n >= 2, f"star needs n >= 2, got {n}")
    return _relabel([list(range(1, n))] + [[0] for _ in range(n - 1)], ids)


def grid(rows: int, cols: int, ids: IdAssignment | None = None) -> StaticGraph:
    """rows × cols grid — a bounded-degree planar family."""
    _require(rows >= 1 and cols >= 1, "grid needs positive dimensions")
    neighbours: Neighbours = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            nbrs = [v - cols] if i > 0 else []
            if j > 0:
                nbrs.append(v - 1)
            if j < cols - 1:
                nbrs.append(v + 1)
            if i < rows - 1:
                nbrs.append(v + cols)
            neighbours.append(nbrs)
    return _relabel(neighbours, ids)


def hypercube(dim: int, ids: IdAssignment | None = None) -> StaticGraph:
    """The dim-dimensional hypercube (n = 2^dim, Δ = dim = log n)."""
    _require(dim >= 1, f"hypercube needs dim >= 1, got {dim}")
    bits = [1 << k for k in range(dim)]
    neighbours = [sorted([v ^ bit for bit in bits]) for v in range(1 << dim)]
    return _relabel(neighbours, ids)


def random_tree(n: int, seed: int = 0, ids: IdAssignment | None = None) -> StaticGraph:
    """Uniform random labeled tree on n nodes (via a random Prüfer sequence)."""
    _require(n >= 1, f"random_tree needs n >= 1, got {n}")
    if n <= 2:
        return path(n, ids)
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    # Linear decode: ``degree[v]`` is v's remaining degree; the smallest
    # leaf is either the node just reduced to a leaf (when below the
    # scan pointer) or the next leaf the pointer finds.
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    neighbours: Neighbours = [[] for _ in range(n)]
    scan = leaf = degree.index(1)
    for v in prufer:
        neighbours[leaf].append(v)
        neighbours[v].append(leaf)
        degree[leaf] = 0
        degree[v] -= 1
        if v < scan and degree[v] == 1:
            leaf = v
        else:
            scan = leaf = degree.index(1, scan + 1)
    neighbours[leaf].append(n - 1)
    neighbours[n - 1].append(leaf)
    for nbrs in neighbours:
        nbrs.sort()
    return _relabel(neighbours, ids)


def caterpillar(
    spine: int, legs_per_node: int, ids: IdAssignment | None = None
) -> StaticGraph:
    """A caterpillar: a spine path with ``legs_per_node`` pendant leaves per
    spine node. Tunable degree with tiny treewidth."""
    import networkx as nx

    _require(spine >= 1 and legs_per_node >= 0, "invalid caterpillar shape")
    g = nx.path_graph(spine)
    next_node = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            g.add_edge(s, next_node)
            next_node += 1
    return StaticGraph.from_networkx(g, ids)


def barbell(clique: int, bridge: int, ids: IdAssignment | None = None) -> StaticGraph:
    """Two cliques of size ``clique`` joined by a path of ``bridge`` nodes —
    mixes Δ = clique-1 hubs with a long low-degree corridor."""
    import networkx as nx

    _require(clique >= 3, f"barbell needs clique >= 3, got {clique}")
    return StaticGraph.from_networkx(nx.barbell_graph(clique, bridge), ids)


def gnp(
    n: int,
    p: float,
    seed: int = 0,
    ids: IdAssignment | None = None,
    method: str = "binomial",
) -> StaticGraph:
    """Erdős–Rényi G(n, p), patched to be connected by linking components
    along a deterministic spanning chain.

    ``method`` selects the sampler, both replayed in this module from
    ``random.Random(seed)``: ``"binomial"`` (the default) draws once per
    pair, all n² of them, in ``itertools.combinations`` order — the draw
    sequence of ``nx.gnp_random_graph``. ``"fast"`` is Batagelj &
    Brandes' geometric skipping, one draw per skip in O(n + m) expected
    time and the only practical choice at n ≈ 10^5–10^6; it draws the
    graph ``nx.fast_gnp_random_graph`` draws for the same seed (which,
    for p of 0 or 1, is the ``"binomial"`` one). The two samplers draw
    different graphs for the same seed otherwise — ``method="fast"``
    deliberately breaks seed compatibility with the default in exchange
    for scale.
    """
    _require(n >= 1 and 0.0 <= p <= 1.0, "invalid gnp parameters")
    _require(
        method in ("binomial", "fast"),
        f"gnp method must be 'binomial' or 'fast', got {method!r}",
    )
    rng = random.Random(seed)
    if method == "fast" and 0.0 < p < 1.0:
        neighbours = _skip_sample(n, p, rng)
    else:
        neighbours = _pair_sample(n, p, rng)
    _connect(neighbours)
    return _relabel(neighbours, ids)


def random_regular(
    n: int, degree: int, seed: int = 0, ids: IdAssignment | None = None
) -> StaticGraph:
    """Random d-regular graph (n·d even, d < n), connected-patched."""
    import networkx as nx

    _require(degree < n and (n * degree) % 2 == 0, "invalid regular parameters")
    g = nx.random_regular_graph(degree, n, seed=seed)
    neighbours = [sorted(g.adj[v]) for v in range(n)]
    _connect(neighbours)
    return _relabel(neighbours, ids)


def preferential_attachment(
    n: int, m: int, seed: int = 0, ids: IdAssignment | None = None
) -> StaticGraph:
    """Barabási–Albert graph: power-law degrees, Δ grows polynomially in n —
    the regime where the paper beats the BM21 baseline.

    Grown from the star on nodes ``0..m`` (hub 0); node ``s`` attaches to
    ``m`` distinct targets drawn by ``rng.choice`` from the list holding
    one entry per edge end. Connected by construction.
    """
    _require(1 <= m < n, f"need 1 <= m < n, got m={m}, n={n}")
    rng = random.Random(seed)
    neighbours: Neighbours = [list(range(1, m + 1))]
    neighbours += [[0] for _ in range(m)]
    ends = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(ends))
        for t in targets:
            neighbours[t].append(source)
        neighbours.append(sorted(targets))
        # A set's iteration order is part of the draw sequence: later
        # choices index into ``ends``.
        ends.extend(targets)
        ends.extend([source] * m)
    return _relabel(neighbours, ids)


def clustered_graph(
    num_clusters: int,
    cluster_size: int,
    inter_edges: int = 1,
    seed: int = 0,
    ids: IdAssignment | None = None,
) -> StaticGraph:
    """Dense blobs sparsely interconnected — a natural fit for BFS-clustering
    experiments (the decomposition should roughly recover the blobs)."""
    import networkx as nx

    _require(num_clusters >= 1 and cluster_size >= 1, "invalid cluster shape")
    rng = random.Random(seed)
    g = nx.Graph()
    blocks: list[list[int]] = []
    node = 0
    for _ in range(num_clusters):
        members = list(range(node, node + cluster_size))
        node += cluster_size
        blocks.append(members)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if rng.random() < 0.7:
                    g.add_edge(u, v)
        g.add_nodes_from(members)
        _connect_within(g, members, rng)
    for i in range(1, num_clusters):
        for _ in range(inter_edges):
            u = rng.choice(blocks[i - 1])
            v = rng.choice(blocks[i])
            g.add_edge(u, v)
    return StaticGraph.from_networkx(g, ids)


def _skip_sample(n: int, p: float, rng: random.Random) -> Neighbours:
    """G(n, p) by geometric skipping over the pairs ``(v, w)``, ``w < v``.

    Each draw skips ``int(log(1 - r) / log(1 - p))`` pairs. Pairs come
    out with ``v`` non-decreasing and ``w`` rising within a ``v``, so
    every neighbour list is appended in ascending order. Requires
    ``0 < p < 1``; below float resolution (``1 - p == 1``) every skip is
    infinite and no pair is drawn.
    """
    neighbours: Neighbours = [[] for _ in range(n)]
    lp = math.log(1.0 - p)
    if lp == 0.0:
        return neighbours
    log = math.log
    draw = rng.random
    v = 1
    w = -1
    while v < n:
        lr = log(1.0 - draw())
        w = w + 1 + int(lr / lp)
        while w >= v and v < n:
            w = w - v
            v = v + 1
        if v < n:
            neighbours[v].append(w)
            neighbours[w].append(v)
    return neighbours


def _pair_sample(n: int, p: float, rng: random.Random) -> Neighbours:
    """G(n, p) by one draw per pair, pairs in lexicographic order (no
    draws at all for ``p <= 0``; every pair for ``p = 1``, as
    ``random() < 1`` always holds); neighbour lists come out ascending."""
    neighbours: Neighbours = [[] for _ in range(n)]
    if p > 0.0:
        draw = rng.random
        for u, v in itertools.combinations(range(n), 2):
            if draw() < p:
                neighbours[u].append(v)
                neighbours[v].append(u)
    return neighbours


def _connect(neighbours: Neighbours) -> None:
    """Join connected components with single edges, deterministically.

    Components are ordered by their smallest node and each minimum is
    linked to the previous component's minimum. Neighbour lists stay
    ascending.
    """
    seen = bytearray(len(neighbours))
    previous = -1
    for root in range(len(neighbours)):
        if seen[root]:
            continue
        # ``root`` is the smallest node of a component not yet walked.
        seen[root] = 1
        stack = [root]
        while stack:
            for u in neighbours[stack.pop()]:
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
        if previous >= 0:
            bisect.insort(neighbours[previous], root)
            neighbours[root].insert(0, previous)  # all others exceed root
        previous = root


def _connect_within(g: nx.Graph, members: list[int], rng: random.Random) -> None:
    import networkx as nx

    sub = g.subgraph(members)
    components = [sorted(c) for c in nx.connected_components(sub)]
    components.sort(key=lambda c: c[0])
    for prev, cur in zip(components, components[1:]):
        g.add_edge(prev[0], cur[0])


def _relabel(neighbours: Neighbours, ids: IdAssignment | None) -> StaticGraph:
    """Wrap ascending 0-based neighbour lists as a graph whose node ``i``
    gets ID ``ids.ids[i]`` (``i + 1`` when ``ids`` is ``None``).

    The lists must be symmetric and free of loops and repeats; the
    relabelled adjacency is then valid by construction.
    """
    n = len(neighbours)
    if ids is None:
        # Identity IDs preserve order: shift, no re-sort.
        adjacency = {
            v + 1: tuple([u + 1 for u in nbrs]) for v, nbrs in enumerate(neighbours)
        }
        return StaticGraph._trusted(adjacency, max(n, 1))
    if ids.n != n:
        raise GraphError(f"ID assignment has {ids.n} ids for {n} nodes")
    label = ids.ids
    adjacency = {
        label[v]: tuple(sorted([label[u] for u in nbrs]))
        for v, nbrs in enumerate(neighbours)
    }
    return StaticGraph._trusted(adjacency, ids.space)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GraphError(message)
