"""Immutable simple graphs with shortest-path and clique primitives.

Vertices are dense integers ``0..n-1``. Edges carry a canonical dense index
(position in the lexicographically sorted edge list) so that edge subsets can
be handled as fixed-width integer bitmasks by the cover machinery. Everything
here is a pure function of immutable inputs and safe to share across workers.
The k check and the vertex check that every entry point calls live here.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# Fixed enumeration caps: raising one is a stated change, not a setting.
GEODESIC_CAP = 100_000  # geodesics of one pair
CLIQUE_CAP = 100_000  # maximal cliques of one graph


class GraphError(ValueError):
    """Base class for graph construction and precondition failures."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class VertexRangeError(GraphError):
    pass


class DisconnectedGraphError(GraphError):
    pass


class EnumerationCapError(RuntimeError):
    """An enumeration would exceed its fixed cap; carries the cap."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class Graph:
    """Simple undirected graph, immutable after construction.

    Prefer :func:`build_graph`, which validates and normalizes the edge list.
    ``edges`` is sorted lexicographically with ``u < v`` in every pair, and
    ``adj[v]`` lists neighbors in ascending order. ``labels`` is optional
    display metadata (one string per vertex) and never affects semantics.
    """

    __slots__ = ("n", "edges", "adj", "labels", "_eidx")

    def __init__(
        self,
        n: int,
        edges: tuple[tuple[int, int], ...],
        adj: tuple[tuple[int, ...], ...],
        labels: tuple[str, ...] | None = None,
    ):
        self.n = n
        self.edges = edges
        self.adj = adj
        self.labels = labels
        self._eidx = {e: i for i, e in enumerate(edges)}

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._eidx

    def edge_id(self, u: int, v: int) -> int:
        """Canonical index of an edge; raises KeyError for non-edges."""
        return self._eidx[(u, v) if u < v else (v, u)]

    def edge_mask(self, pairs: Iterable[tuple[int, int]]) -> int:
        mask = 0
        for u, v in pairs:
            mask |= 1 << self.edge_id(u, v)
        return mask

    def full_edge_mask(self) -> int:
        return (1 << self.m) - 1

    def __eq__(self, other: object):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(
    n: int,
    edge_list: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> Graph:
    """Validate an edge list and return the normalized :class:`Graph`.

    Self-loops, duplicate edges (in either orientation) and endpoints outside
    ``0..n-1`` are each rejected with a distinct exception type. ``n`` and
    every endpoint follow the vertex rule, ``_is_index``.
    """
    if not _is_index(n):
        raise VertexRangeError(f"vertex count must be an int >= 0, got {n!r}")
    seen: set[tuple[int, int]] = set()
    for u, v in edge_list:
        if not (_is_index(u, n) and _is_index(v, n)):
            raise VertexRangeError(
                f"edge ({u!r}, {v!r}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge {e}")
        seen.add(e)
    edges = tuple(sorted(seen))
    adj_lists: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj_lists[u].append(v)
        adj_lists[v].append(u)
    adj = tuple(tuple(neigh) for neigh in adj_lists)  # already ascending
    norm_labels: tuple[str, ...] | None = None
    if labels is not None:
        norm_labels = tuple(str(s) for s in labels)
        if len(norm_labels) != n:
            raise VertexRangeError(
                f"expected {n} labels, got {len(norm_labels)}"
            )
    return Graph(n, edges, adj, norm_labels)


def _check_k(k: int, least: int = 1) -> None:
    """The distance check of every entry point: refuses, with ValueError, a
    k that is not an int (a bool included) or is below ``least``."""
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")
    if k < least:
        raise ValueError(f"k must be positive, got {k}" if least == 1
                         else f"k must be at least {least}, got {k}")


def _is_index(x, stop: int | None = None) -> bool:
    """The vertex rule: ``x`` is an int (a bool is not), at least 0 and,
    when ``stop`` is given, below it."""
    return type(x) is int and 0 <= x and (stop is None or x < stop)


def _check_vertex(G: Graph, v: int, role: str = "vertex") -> None:
    """The vertex check of every entry point: refuses, with
    VertexRangeError, a ``v`` that ``_is_index`` refuses for ``0..n-1``."""
    if not _is_index(v, G.n):
        raise VertexRangeError(f"{role} {v!r} out of range for n={G.n}")


def bfs_distances(G: Graph, u: int, k: int | None = None) -> dict[int, int]:
    """``{x: d(u, x)}`` for every x within distance ``k`` of ``u``, from a
    BFS that stops at depth k, an int >= 0; every x that ``u`` reaches when
    k is None."""
    if k is not None:
        _check_k(k, 0)
    _check_vertex(G, u, "source")
    dist = {u: 0}
    layer = [u]
    d = 0
    while layer and (k is None or d < k):
        d += 1
        nxt = []
        for x in layer:
            for y in G.adj[x]:
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        layer = nxt
    return dist


def is_connected(G: Graph) -> bool:
    if G.n <= 1:
        return True
    return len(bfs_distances(G, 0)) == G.n


def require_connected(G: Graph) -> None:
    if not is_connected(G):
        raise DisconnectedGraphError("operation requires a connected graph")


def diameter(G: Graph) -> int:
    """Greatest distance between any pair of vertices."""
    if G.n < 1:
        raise VertexRangeError("diameter requires at least one vertex")
    require_connected(G)
    return max(max(bfs_distances(G, u).values()) for u in range(G.n))


def geodesic_dag(G: Graph, u: int, k: int) -> frozenset[tuple[int, int]]:
    """The arcs ``x -> y`` of the depth-truncated shortest-path DAG from
    ``u``: those with ``d(u, x) + 1 = d(u, y) <= k``, so ``k = 0`` gives
    none. Read as undirected edges they are exactly the edges on some
    geodesic of length at most k from ``u``, and every such geodesic is a
    path along them. The full-graph reference for ``weak_cover_set``: one
    ``bfs_distances`` with no depth and a scan of every edge, and a
    disconnected graph is refused."""
    dist = bfs_distances(G, u)
    if len(dist) != G.n:
        raise DisconnectedGraphError("geodesic DAG requires a connected graph")
    arcs = set()
    for x, y in G.edges:
        dx, dy = dist[x], dist[y]
        if dx + 1 == dy and dy <= k:
            arcs.add((x, y))
        elif dy + 1 == dx and dx <= k:
            arcs.add((y, x))
    return frozenset(arcs)


def enumerate_geodesics(
    G: Graph, u: int, v: int
) -> tuple[tuple[int, ...], ...]:
    """Every geodesic from ``u`` to ``v`` in lexicographic vertex order.

    Each path is a vertex tuple of length ``d(u, v) + 1``. More than
    ``GEODESIC_CAP`` geodesics raise :class:`EnumerationCapError`, so a
    combinatorial blow-up is an explicit failure rather than a truncation.
    """
    cap = GEODESIC_CAP
    _check_vertex(G, v, "target")
    du = bfs_distances(G, u)
    if v not in du:
        raise DisconnectedGraphError(f"{u} and {v} are in different components")
    if u == v:
        return ((u,),)
    dv = bfs_distances(G, v)
    out: list[tuple[int, ...]] = []
    path = [u]
    # depth-first over ascending neighbours, one iterator per path vertex
    stack = [iter(G.adj[u])]
    while stack:
        x = path[-1]
        for y in stack[-1]:
            if du[y] != du[x] + 1 or dv[y] != dv[x] - 1:
                continue
            if y == v:
                if len(out) >= cap:
                    raise EnumerationCapError(
                        f"more than {cap} geodesics between {u} and {v}", cap
                    )
                out.append((*path, v))
                continue
            path.append(y)
            stack.append(iter(G.adj[y]))
            break
        else:
            stack.pop()
            path.pop()
    return tuple(out)


def maximal_cliques(G: Graph) -> tuple[tuple[int, ...], ...]:
    """All maximal cliques, as sorted vertex tuples in lexicographic order.

    Bron-Kerbosch with pivoting; guarded by ``CLIQUE_CAP`` since the output
    can be exponential.
    """
    cap = CLIQUE_CAP
    if G.n == 0:
        return ()
    adjsets = [frozenset(neigh) for neigh in G.adj]
    out: list[tuple[int, ...]] = []

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            if len(out) >= cap:
                raise EnumerationCapError(
                    f"more than {cap} maximal cliques", cap
                )
            out.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda w: (len(adjsets[w] & p), -w))
        for v in sorted(p - adjsets[pivot]):
            r.append(v)
            expand(r, p & adjsets[v], x & adjsets[v])
            r.pop()
            p.remove(v)
            x.add(v)

    expand([], set(range(G.n)), set())
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Shared edge-list text format: first line "n m", then m lines "u v" with
# u < v in ascending lexicographic order. Blank lines and '#' comments are
# ignored on input.
# ---------------------------------------------------------------------------

def format_edgelist(G: Graph) -> str:
    lines = [f"{G.n} {G.m}"]
    lines.extend(f"{u} {v}" for u, v in G.edges)
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append(line)
    if not rows:
        raise GraphError("empty edge-list document")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphError(f"bad header {rows[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphError(f"bad header {rows[0]!r}: {exc}") from None
    body = rows[1:]
    if len(body) != m:
        raise GraphError(f"header declares {m} edges, found {len(body)}")
    pairs = []
    for row in body:
        parts = row.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {row!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphError(f"bad edge line {row!r}: {exc}") from None
    return build_graph(n, pairs)


def format_labels(G: Graph) -> str:
    """Label sidecar: one line per vertex, 'index label'."""
    labels = G.labels if G.labels is not None else tuple(
        str(v) for v in range(G.n))
    return "\n".join(f"{v} {labels[v]}" for v in range(G.n)) + ("\n" if G.n else "")
