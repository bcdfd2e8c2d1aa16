"""Graph operations used by the clustering construction."""

from __future__ import annotations

from repro.graphs.graph import StaticGraph
from repro.types import NodeId


def graph_square(graph: StaticGraph) -> StaticGraph:
    """The square G²: same nodes, edges between nodes at distance <= 2.

    Lemma 15's first step computes a proper coloring of G², i.e. a
    distance-2 coloring of G. Built from the adjacency in one pass per
    node; the result is symmetric by construction, so it skips
    re-validation.
    """
    adjacency = graph.adjacency
    adj: dict[NodeId, tuple[NodeId, ...]] = {}
    for v in graph.nodes:
        ball = set(adjacency[v])
        for t in adjacency[v]:
            ball.update(adjacency[t])
        ball.discard(v)
        adj[v] = tuple(sorted(ball))
    return StaticGraph._trusted(adj, graph.id_space)


def induced_subgraph(graph: StaticGraph, nodes: set[NodeId]) -> StaticGraph:
    """The subgraph of G induced by ``nodes`` (IDs preserved)."""
    missing = nodes - graph.node_set
    if missing:
        raise KeyError(f"nodes not in graph: {sorted(missing)[:5]}")
    adj = {
        v: tuple(u for u in graph.neighbors(v) if u in nodes)
        for v in sorted(nodes)
    }
    return StaticGraph._trusted(adj, graph.id_space)
