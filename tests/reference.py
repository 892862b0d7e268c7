"""Reference functions that only tests call, kept beside the tests that
compare the program against them."""

from pathcover.graph import (
    DisconnectedGraphError,
    Graph,
    VertexRangeError,
    bfs_distances,
)


def count_geodesics(G: Graph, u: int, v: int) -> int:
    """Number of geodesics between ``u`` and ``v`` via layer-by-layer DP."""
    if not 0 <= v < G.n:
        raise VertexRangeError(f"target {v} out of range for n={G.n}")
    du = bfs_distances(G, u)
    if v not in du:
        raise DisconnectedGraphError(f"{u} and {v} are in different components")
    counts = [0] * G.n
    counts[u] = 1
    for x, dx in du.items():  # BFS order, so layer by layer
        if dx >= du[v]:
            break
        for y in G.adj[x]:
            if du[y] == dx + 1:
                counts[y] += counts[x]
    return counts[v]


def simplicial_vertices(G: Graph) -> frozenset[int]:
    """Vertices whose neighborhood induces a clique."""
    out = set()
    for v in range(G.n):
        neigh = G.adj[v]
        if all(G.has_edge(a, b) for i, a in enumerate(neigh)
               for b in neigh[i + 1:]):
            out.add(v)
    return frozenset(out)


def greedy_cover_scan(masks, universe, most=None):
    """Indices picked by scanning every mask each round and taking the
    first one with the largest new coverage, until ``universe`` is covered;
    the masks must jointly cover it. None when that takes more than
    ``most`` picks."""
    chosen = []
    cover = 0
    while cover & universe != universe:
        if len(chosen) == most:
            return None
        rem = universe & ~cover
        gains = [(m & rem).bit_count() for m in masks]
        i = gains.index(max(gains))
        chosen.append(i)
        cover |= masks[i]
    return chosen
