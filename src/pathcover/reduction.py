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

from .cover import coverer_index, strong_feasible, weak_masks
from .graph import Graph, _check_k, build_graph
from .solve import (
    WEAK_VERTEX_LIMIT,
    SizeLimitError,
    _least_cover,
    solve_exact,
)

ROLE_ORIGINAL = "original"
ROLE_PATH = "path"
ROLE_APEX_B = "apex_b"
ROLE_APEX_C = "apex_c"
ROLE_TRIANGLE = "triangle"
ROLE_TAIL = "tail"

# largest gadget check_reduction also solves exactly (under the strong limit)
_EXACT_VERTEX_LIMIT = 17
# Largest gadget reduce_vc builds. Its tails grow with k without bound, so
# a large k alone could exhaust memory: k = 10**5 on K_2 builds 200,006
# vertices in 0.9 s and 119 MB. At this limit a build takes about 0.03 s
# and 4 MB, and it is 40 times the largest graph the benchmark solves (243
# vertices).
GADGET_VERTEX_LIMIT = 10_000


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
    """Build the gadget graph for the distance parameter ``k``.

    Its vertices are numbered: the originals 0..n-1; the path vertices of
    input edge i at n + 2i and n + 2i + 1; apex b and apex c at n + 2m and
    n + 2m + 1; then, for side b and then side c, its k - 3 tail vertices
    (when k >= 4) and its triangle, contact first. A gadget of more than
    ``GADGET_VERTEX_LIMIT`` vertices raises ``SizeLimitError`` before any
    vertex is built."""
    _check_k(k, 2)
    if G.m == 0:
        raise ValueError("reduction requires an input graph with edges")
    n, m = G.n, G.m
    size = gadget_size_formulas(n, m, k)[0]
    if size > GADGET_VERTEX_LIMIT:
        raise SizeLimitError(f"the k={k} gadget has {size} vertices, over "
                             f"the {GADGET_VERTEX_LIMIT}-vertex limit")
    apex_b, apex_c = n + 2 * m, n + 2 * m + 1
    roles = ([ROLE_ORIGINAL] * n + [ROLE_PATH] * (2 * m)
             + [ROLE_APEX_B, ROLE_APEX_C])
    # subdivide every input edge by a path of length 3; apex b is joined to
    # every original vertex, apex c to every path vertex
    edges = [e for p, (u, v) in zip(range(n, apex_b, 2), G.edges)
             for e in ((u, p), (p, p + 1), (p + 1, v))]
    edges += [(v, apex_b) for v in range(n)]
    edges += [(p, apex_c) for p in range(n, apex_b)]
    names = {"apex_b": apex_b, "apex_c": apex_c}
    tail = max(k - 3, 0)
    for side, apex, other in (("b", apex_b, apex_c), ("c", apex_c, apex_b)):
        x = len(roles) + tail  # the contact, reached from the apex by the tail
        roles += [ROLE_TAIL] * tail + [ROLE_TRIANGLE] * 3
        chain = [apex, *range(x - tail, x + 1)]
        edges += zip(chain, chain[1:])
        if k == 2:
            edges.append((x, other))
        edges += [(x, x + 1), (x, x + 2), (x + 1, x + 2)]
        names |= {f"contact_{side}": x, f"deep_{side}1": x + 1,
                  f"deep_{side}2": x + 2}
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


def vertex_cover_exact(G: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum vertex cover, lexicographically least among optima."""
    if G.n > WEAK_VERTEX_LIMIT:
        raise SizeLimitError(
            f"n={G.n} exceeds the {WEAK_VERTEX_LIMIT}-vertex limit")
    # a source's k = 1 weak coverage is its own edges
    chosen, _ = _least_cover(G, weak_masks(G, 1), coverer_index(G, 1))
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


def check_reduction(G: Graph, k: int) -> ReductionCheck:
    """Build the gadget, validate the designated forward cover set, and when
    the gadget is small enough solve it exactly and record whether the
    optimum equals vertex cover + offset."""
    start = time.perf_counter()
    red = reduce_vc(G, k)
    exp_n, exp_m = gadget_size_formulas(G.n, G.m, k)
    vc_size, vc_set = vertex_cover_exact(G)
    witness_set = forward_witness_set(red, vc_set)
    forward_ok = strong_feasible(red.gadget, witness_set, k) is not None
    exact_optimum = None
    equality = None
    if red.gadget.n <= _EXACT_VERTEX_LIMIT:
        exact_optimum = solve_exact(red.gadget, k, "strong").optimum
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
