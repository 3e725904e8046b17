"""Small built-in graphs: the swim-surf fixture and random-graph helpers.

The swim-surf fixture is a six-word association toy: two triangles
``{water, swim, beach}`` and ``{surf, SEO, PageRank}`` joined by the single
bridge ``swim — surf``.  The bridge is the structurally weakest tie (no
common neighbors), which makes the fixture handy for checking that decay
scores rank it first.  Undirected ties are stored as symmetric directed
edges, so the fixture has 14 directed edges over 6 nodes.
"""

from __future__ import annotations

import numpy as np

from .events import TemporalEdgeList
from .graph import Graph

__all__ = [
    "SWIM_SURF_NODES",
    "random_directed_graph",
    "random_reciprocal_graph",
    "swim_surf",
    "swim_surf_events",
]

SWIM_SURF_NODES = ("water", "swim", "beach", "surf", "SEO", "PageRank")

_SWIM_SURF_TIES = (
    ("water", "swim"),
    ("water", "beach"),
    ("swim", "beach"),
    ("swim", "surf"),      # the bridge
    ("surf", "SEO"),
    ("surf", "PageRank"),
    ("SEO", "PageRank"),
)


def _tie_indices():
    index = {name: k for k, name in enumerate(SWIM_SURF_NODES)}
    return [(index[u], index[v]) for u, v in _SWIM_SURF_TIES]


def swim_surf() -> Graph:
    """The swim-surf fixture graph (6 nodes, 14 directed edges)."""
    edges = []
    for u, v in _tie_indices():
        edges.append((u, v))
        edges.append((v, u))
    return Graph.from_edges(len(SWIM_SURF_NODES), edges)


def swim_surf_events(bridge_delete_time: int = 80) -> TemporalEdgeList:
    """The fixture as an event stream: all ties added at t=0, the bridge
    deleted (both directions) at ``bridge_delete_time``."""
    bridge = _tie_indices()[3]
    records = []
    for u, v in _tie_indices():
        records.append((u, v, 1, 0))
        records.append((v, u, 1, 0))
    records.append((bridge[0], bridge[1], -1, bridge_delete_time))
    records.append((bridge[1], bridge[0], -1, bridge_delete_time))
    return TemporalEdgeList.from_records(records, node_ids=list(SWIM_SURF_NODES))


def random_directed_graph(n: int, density: float, rng: np.random.Generator) -> Graph:
    """Random digraph: each ordered pair (i != j) present independently
    with probability ``density``."""
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    return Graph(n, *np.nonzero(mask))


def random_reciprocal_graph(n: int, density: float, rng: np.random.Generator) -> Graph:
    """Random digraph in which every edge is reciprocated: each unordered
    pair is linked (in both directions) with probability ``density``.

    This is the storage convention of the swim-surf fixture: undirected
    ties kept as symmetric directed edges.
    """
    upper = rng.random((n, n)) < density
    mask = np.triu(upper, k=1)
    return Graph(n, *np.nonzero(mask | mask.T))
