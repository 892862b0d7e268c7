"""Vertex-cover-to-strong-cover gadget construction and empirical checking.

The gadget subdivides every input edge by a path of length 3, joins one apex
to every original vertex and a second apex to every path vertex, and attaches
one triangle per apex side through a tail of length k - 3 (for k = 2, each
triangle's contact vertex is joined directly to both apexes). A minimum
vertex cover plus the designated extra vertices is then checked as a strong
cover of the gadget; the reverse size correspondence is recorded empirically
rather than trusted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from .cover import strong_feasible
from .graph import Graph, build_graph
from .solve import (
    DEFAULT_LIMITS,
    SizeLimitError,
    SolverLimits,
    _least_cover,
    solve_exact,
)

ROLE_ORIGINAL = "original"
ROLE_PATH = "path"
ROLE_APEX_B = "apex_b"
ROLE_APEX_C = "apex_c"
ROLE_TRIANGLE = "triangle"
ROLE_TAIL = "tail"

# largest gadget check_reduction also solves exactly
_EXACT_VERTEX_LIMIT = 17


def gadget_size_formulas(n: int, m: int, k: int) -> tuple[int, int]:
    """Expected (vertices, edges) of the gadget for an (n, m) input."""
    if k == 2:
        return n + 2 * m + 8, 5 * m + n + 10
    return n + 2 * m + 2 * (k - 2) + 6, 5 * m + n + 2 * (k - 3) + 8


@dataclass(frozen=True, eq=False)
class ReductionOutput:
    gadget: Graph
    roles: tuple[str, ...]
    offset: int  # 4 when k = 2, 2 when k >= 3
    k: int
    names: Mapping[str, int]


def reduce_vc(G: Graph, k: int) -> ReductionOutput:
    """Build the gadget graph for the distance parameter ``k``."""
    if k < 2:
        raise ValueError(f"reduction requires k >= 2, got {k}")
    if G.m == 0:
        raise ValueError("reduction requires an input graph with edges")
    n, m = G.n, G.m
    edges: list[tuple[int, int]] = []
    roles: list[str] = [ROLE_ORIGINAL] * n

    def new_vertex(role: str) -> int:
        roles.append(role)
        return len(roles) - 1

    # subdivide every input edge by a path of length 3
    path_vertices: list[int] = []
    for u, v in G.edges:
        p1 = new_vertex(ROLE_PATH)
        p2 = new_vertex(ROLE_PATH)
        path_vertices += [p1, p2]
        edges += [(u, p1), (p1, p2), (p2, v)]

    apex_b = new_vertex(ROLE_APEX_B)  # joined to every original vertex
    apex_c = new_vertex(ROLE_APEX_C)  # joined to every path vertex
    edges += [(v, apex_b) for v in range(n)]
    edges += [(p, apex_c) for p in path_vertices]

    def attach_triangle(apex: int) -> tuple[int, int, int]:
        """Triangle with a contact vertex reached from ``apex`` by a tail of
        length k - 3 (direct edge for k <= 3, both apexes for k = 2)."""
        last = apex
        if k >= 4:
            for _ in range(k - 3):
                t = new_vertex(ROLE_TAIL)
                edges.append((last, t))
                last = t
        contact = new_vertex(ROLE_TRIANGLE)
        deep1 = new_vertex(ROLE_TRIANGLE)
        deep2 = new_vertex(ROLE_TRIANGLE)
        edges.extend([(contact, deep1), (contact, deep2), (deep1, deep2)])
        if k == 2:
            edges.extend([(contact, apex_b), (contact, apex_c)])
        else:
            edges.append((last, contact))
        return contact, deep1, deep2

    xb, b1, b2 = attach_triangle(apex_b)
    xc, c1, c2 = attach_triangle(apex_c)
    names = {
        "apex_b": apex_b,
        "apex_c": apex_c,
        "contact_b": xb,
        "deep_b1": b1,
        "deep_b2": b2,
        "contact_c": xc,
        "deep_c1": c1,
        "deep_c2": c2,
    }
    gadget = build_graph(len(roles), edges)
    offset = 4 if k == 2 else 2
    return ReductionOutput(gadget, tuple(roles), offset, k, names)


def forward_witness_set(red: ReductionOutput,
                        vc: tuple[int, ...]) -> tuple[int, ...]:
    """The designated cover set: the vertex cover plus one deep vertex per
    triangle, and for k = 2 also both apexes."""
    extra = [red.names["deep_b1"], red.names["deep_c1"]]
    if red.k == 2:
        extra += [red.names["apex_b"], red.names["apex_c"]]
    return tuple(sorted(set(vc) | set(extra)))


def vertex_cover_exact(
    G: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> tuple[int, tuple[int, ...]]:
    """Minimum vertex cover, lexicographically least among optima."""
    if G.n > limits.weak:
        raise SizeLimitError(
            f"n={G.n} exceeds the vertex cover solver limit {limits.weak}")
    universe = G.full_edge_mask()
    if universe == 0:
        return 0, ()
    masks = [G.edge_mask((v, w) for w in G.adj[v]) for v in range(G.n)]
    chosen = _least_cover(G, masks, universe)
    return len(chosen), chosen


@dataclass(frozen=True)
class ReductionCheck:
    k: int
    offset: int
    input_n: int
    input_m: int
    gadget_n: int
    gadget_m: int
    expected_n: int
    expected_m: int
    vc_size: int
    vc_set: tuple[int, ...]
    witness_set: tuple[int, ...]
    forward_ok: bool
    claimed_ub: int  # vc_size + offset
    exact_optimum: int | None
    equality: bool | None
    elapsed_s: float

    @property
    def sizes_ok(self) -> bool:
        return (self.gadget_n, self.gadget_m) == (self.expected_n,
                                                  self.expected_m)


def check_reduction(
    G: Graph,
    k: int,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> ReductionCheck:
    """Build the gadget, validate the designated forward cover set, and when
    the gadget is small enough solve it exactly and record whether the
    optimum equals vertex cover + offset."""
    start = time.perf_counter()
    red = reduce_vc(G, k)
    exp_n, exp_m = gadget_size_formulas(G.n, G.m, k)
    vc_size, vc_set = vertex_cover_exact(G, limits)
    witness_set = forward_witness_set(red, vc_set)
    forward_ok = strong_feasible(red.gadget, witness_set, k) is not None
    exact_optimum = None
    equality = None
    if red.gadget.n <= min(_EXACT_VERTEX_LIMIT, limits.strong):
        exact_optimum = solve_exact(red.gadget, k, "strong", limits).optimum
        equality = exact_optimum == vc_size + red.offset
    return ReductionCheck(
        k=k,
        offset=red.offset,
        input_n=G.n,
        input_m=G.m,
        gadget_n=red.gadget.n,
        gadget_m=red.gadget.m,
        expected_n=exp_n,
        expected_m=exp_m,
        vc_size=vc_size,
        vc_set=vc_set,
        witness_set=witness_set,
        forward_ok=forward_ok,
        claimed_ub=vc_size + red.offset,
        exact_optimum=exact_optimum,
        equality=equality,
        elapsed_s=time.perf_counter() - start,
    )


def format_roles(red: ReductionOutput) -> str:
    """Roles sidecar: one line per vertex, 'index role'."""
    return "\n".join(
        f"{v} {role}" for v, role in enumerate(red.roles)) + "\n"
