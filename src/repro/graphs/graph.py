"""An immutable, ID-addressed graph used by the simulator and algorithms.

Nodes are addressed *by their LOCAL-model identifier*, not by position:
every algorithm in the paper manipulates IDs, so making the ID the node
key removes an entire class of off-by-one translation bugs.

The ``adjacency`` mapping (ID → sorted neighbor tuple) is the one stored
representation. Per-node code walks it directly by ID; the aggregates
``nodes``, ``node_set``, ``max_degree`` and ``num_edges`` are computed
from it once and cached on the frozen instance. The vectorized engine's
int64 CSR arrays (:attr:`StaticGraph.arrays`) are built straight from
``adjacency`` on first use; this module never imports numpy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Mapping

from repro.errors import GraphError
from repro.types import NodeId
from repro.util.idspace import IdAssignment, identity_ids

if TYPE_CHECKING:
    import networkx as nx

    from repro.graphs.arrays import GraphArrays


def _validate_adjacency(
    adjacency: Mapping[NodeId, tuple[NodeId, ...]], id_space: int
) -> None:
    """One-shot O(V + E) validation of a hand-built adjacency."""
    directed: set[tuple[NodeId, NodeId]] = set()
    for v, nbrs in adjacency.items():
        for a, b in zip(nbrs, nbrs[1:]):
            if a == b:
                raise GraphError(f"duplicate neighbor {a} at node {v}")
            if a > b:
                raise GraphError(
                    f"neighbors of node {v} are not sorted ({a} before {b})"
                )
        for u in nbrs:
            if u == v:
                raise GraphError(f"self-loop at node {v}")
            if u not in adjacency:
                raise GraphError(f"edge ({v}, {u}) dangles: {u} missing")
            directed.add((v, u))
    for v, u in directed:
        if (u, v) not in directed:
            raise GraphError(f"edge ({v}, {u}) is not symmetric")
    if adjacency:
        lo, hi = min(adjacency), max(adjacency)
        if lo < 1 or hi > id_space:
            raise GraphError(
                f"node IDs must lie in [1, {id_space}], "
                f"got range [{lo}, {hi}]"
            )


@dataclass(frozen=True)
class StaticGraph:
    """A simple undirected graph with unique integer node IDs.

    Attributes:
        adjacency: mapping from node ID to a sorted tuple of neighbor IDs.
        id_space: upper bound of the ID range ``[1, id_space]`` that the
            IDs were drawn from; algorithms use it as the initial palette.
    """

    adjacency: Mapping[NodeId, tuple[NodeId, ...]]
    id_space: int

    def __post_init__(self) -> None:
        _validate_adjacency(self.adjacency, self.id_space)

    # -- construction -----------------------------------------------------

    @classmethod
    def _trusted(
        cls,
        adjacency: Mapping[NodeId, tuple[NodeId, ...]],
        id_space: int,
    ) -> "StaticGraph":
        """Wrap an adjacency known-correct by construction (no re-check)."""
        self = object.__new__(cls)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "id_space", id_space)
        return self

    @cached_property
    def arrays(self) -> "GraphArrays":
        """The int64 CSR arrays of this graph (vectorized-engine fast path).

        Built from ``adjacency`` on first access and cached; see
        :class:`repro.graphs.arrays.GraphArrays`. The import stays here so
        that graphs which never meet the vectorized engine never load
        numpy.
        """
        from repro.graphs.arrays import GraphArrays

        return GraphArrays.from_adjacency(self)

    @staticmethod
    def from_edges(
        edges: Iterable[tuple[NodeId, NodeId]],
        nodes: Iterable[NodeId] = (),
        id_space: int | None = None,
    ) -> "StaticGraph":
        """Build a graph from an edge list (plus optional isolated nodes)."""
        adj: dict[NodeId, set[NodeId]] = {v: set() for v in nodes}
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        frozen = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
        space = id_space if id_space is not None else (max(adj) if adj else 1)
        if adj:
            lo, hi = min(adj), max(adj)
            if lo < 1 or hi > space:
                raise GraphError(
                    f"node IDs must lie in [1, {space}], "
                    f"got range [{lo}, {hi}]"
                )
        return StaticGraph._trusted(frozen, space)  # symmetric by construction

    @staticmethod
    def from_networkx(
        graph: nx.Graph, ids: IdAssignment | None = None
    ) -> "StaticGraph":
        """Relabel a networkx graph with the given ID assignment.

        The networkx nodes are sorted (by ``repr`` when not comparable) and
        mapped positionally to ``ids``; defaults to identity IDs ``1..n``.
        The seeded families build their adjacency directly (see
        :mod:`repro.graphs.generators`); this is the way in for graphs
        made elsewhere.
        """
        nodes = _stable_sorted(graph.nodes())
        assignment = ids if ids is not None else identity_ids(len(nodes))
        if assignment.n != len(nodes):
            raise GraphError(
                f"ID assignment has {assignment.n} ids for {len(nodes)} nodes"
            )
        relabel = {node: assignment.ids[i] for i, node in enumerate(nodes)}
        edges = [(relabel[u], relabel[v]) for u, v in graph.edges()]
        return StaticGraph.from_edges(
            edges, nodes=relabel.values(), id_space=assignment.space
        )

    def to_networkx(self) -> nx.Graph:
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.adjacency)
        for v, nbrs in self.adjacency.items():
            g.add_edges_from((v, u) for u in nbrs if u > v)
        return g

    # -- queries -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @cached_property
    def nodes(self) -> tuple[NodeId, ...]:
        """All node IDs, ascending (sorted once, then cached)."""
        return tuple(sorted(self.adjacency))

    @cached_property
    def node_set(self) -> frozenset[NodeId]:
        """All node IDs as a frozenset (O(1) after the first access)."""
        return frozenset(self.adjacency)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes)

    def __contains__(self, v: NodeId) -> bool:
        return v in self.adjacency

    def neighbors(self, v: NodeId) -> tuple[NodeId, ...]:
        return self.adjacency[v]

    def degree(self, v: NodeId) -> int:
        return len(self.adjacency[v])

    @cached_property
    def max_degree(self) -> int:
        return max(map(len, self.adjacency.values()), default=0)

    @cached_property
    def num_edges(self) -> int:
        return sum(map(len, self.adjacency.values())) // 2

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        adjacency = self.adjacency
        for v in self.nodes:
            for u in adjacency[v]:
                if u > v:
                    yield (v, u)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self.adjacency.get(u, ())

    def is_connected(self) -> bool:
        return self.n == 0 or len(self.bfs_distances(self.nodes[0])) == self.n

    def connected_components(
        self, *, within: Collection[NodeId] | None = None
    ) -> list[frozenset[NodeId]]:
        """Connected components, ordered by their smallest node ID.

        With ``within`` (a subset of the nodes), the components of the
        subgraph induced by those nodes.
        """
        seen: set[NodeId] = set()
        components = []
        for s in self.nodes if within is None else sorted(within):
            if s not in seen:
                comp = self.bfs_distances(s, within=within).keys()
                seen.update(comp)
                components.append(frozenset(comp))
        return components

    def bfs_distances(
        self, source: NodeId, *, within: Collection[NodeId] | None = None
    ) -> dict[NodeId, int]:
        """Distances from ``source`` to every reachable node.

        With ``within`` (a member set containing ``source``), distances in
        the subgraph induced by those nodes. Keys are in discovery order.
        """
        adjacency = self.adjacency
        dist = {source: 0}
        queue = deque((source,))
        while queue:
            v = queue.popleft()
            d = dist[v] + 1
            for u in adjacency[v]:
                if u not in dist and (within is None or u in within):
                    dist[u] = d
                    queue.append(u)
        return dist

    def distance_2_neighbors(self, v: NodeId) -> tuple[NodeId, ...]:
        """Nodes at distance exactly 2 from ``v`` (the paper's N²(v))."""
        adjacency = self.adjacency
        direct = adjacency[v]
        seen = set(direct)
        seen.add(v)
        two_hop: list[NodeId] = []
        for t in direct:
            for w in adjacency[t]:
                if w not in seen:
                    seen.add(w)
                    two_hop.append(w)
        two_hop.sort()
        return tuple(two_hop)


def _stable_sorted(nodes: Iterable) -> list:
    nodes = list(nodes)
    try:
        return sorted(nodes)
    except TypeError:
        return sorted(nodes, key=repr)
