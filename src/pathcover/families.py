"""Deterministic generators for graph families and interconnection networks.

Every generator returns a labeled :class:`~pathcover.graph.Graph` whose vertex
and edge counts satisfy the closed-form size table in ``SIZE_FORMULAS``
(checked by the test suite with generator counting). Identical specs always
produce identical edge lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .graph import Graph, build_graph


class UnknownFamilyError(ValueError):
    pass


class FamilyParamError(ValueError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...]


# --- basic families --------------------------------------------------------

def _path(m: int):
    edges = [(i, i + 1) for i in range(m - 1)]
    return m, edges, [f"v{i}" for i in range(m)]


def _cycle(n: int):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return n, edges, [f"v{i}" for i in range(n)]


def _wheel(n: int):
    # hub 0, rim 1..n
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i % n + 1) for i in range(1, n + 1)]
    return n + 1, edges, ["hub"] + [f"r{i}" for i in range(n)]


def _double_wheel(n: int):
    # hub 0, inner rim 1..n, outer rim n+1..2n, hub adjacent to both rims
    edges = [(0, i) for i in range(1, 2 * n + 1)]
    edges += [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(n + i, n + i % n + 1) for i in range(1, n + 1)]
    labels = ["hub"] + [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    return 2 * n + 1, edges, labels


def _fan(n: int):
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i + 1) for i in range(1, n)]
    return n + 1, edges, ["hub"] + [f"v{i}" for i in range(n)]


def _double_fan(n: int):
    # hubs 0 and 1 (non-adjacent), path 2..n+1 joined to both hubs
    edges = [(0, i) for i in range(2, n + 2)]
    edges += [(1, i) for i in range(2, n + 2)]
    edges += [(i, i + 1) for i in range(2, n + 1)]
    return n + 2, edges, ["hub0", "hub1"] + [f"v{i}" for i in range(n)]


def _friendship(c: int, n: int):
    # n cycles of length c sharing hub 0
    edges = []
    labels = ["hub"]
    for j in range(n):
        base = 1 + j * (c - 1)
        chain = list(range(base, base + c - 1))
        edges.append((0, chain[0]))
        edges += [(chain[i], chain[i + 1]) for i in range(c - 2)]
        edges.append((0, chain[-1]))
        labels += [f"p{j}.{i}" for i in range(c - 1)]
    return 1 + n * (c - 1), edges, labels


def _complete_bipartite(m: int, n: int):
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    labels = [f"u{i}" for i in range(m)] + [f"w{j}" for j in range(n)]
    return m + n, edges, labels


def _crown(n: int):
    # complete bipartite K_{n,n} minus the perfect matching a_i b_i
    edges = [(i, n + j) for i in range(n) for j in range(n) if i != j]
    labels = [f"a{i}" for i in range(n)] + [f"b{j}" for j in range(n)]
    return 2 * n, edges, labels


def _generalized_petersen(n: int, t: int):
    # outer cycle 0..n-1, inner vertices n..2n-1 with skip t, spokes
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + t) % n) for i in range(n)]
    labels = [f"o{i}" for i in range(n)] + [f"i{i}" for i in range(n)]
    return 2 * n, edges, labels


def _hypercube(r: int):
    edges = []
    for w in range(1 << r):
        for b in range(r):
            x = w ^ (1 << b)
            if w < x:
                edges.append((w, x))
    return 1 << r, edges, [f"{w:0{r}b}" for w in range(1 << r)]


# --- butterflies and relatives ---------------------------------------------
#
# Butterfly vertices are (word, level) with word a binary string of length r
# and levels 0..r; (w, i) ~ (w', i+1) iff w = w' or w, w' differ exactly in
# bit position i (0-indexed). Each level transition i contributes 2^{r-1}
# "diamonds": 4-cycles on the word pair {w, w ^ (1 << i)} across levels
# i and i+1.

def _bf_index(r: int, w: int, lvl: int) -> int:
    return lvl * (1 << r) + w


def _bf_labels(r: int, levels: int) -> list[str]:
    return [f"{w:0{r}b}.{lvl}" for lvl in range(levels + 1)
            for w in range(1 << r)]


def _butterfly_edges(r: int) -> list[tuple[int, int]]:
    edges = []
    for lvl in range(r):
        for w in range(1 << r):
            edges.append((_bf_index(r, w, lvl), _bf_index(r, w, lvl + 1)))
            edges.append((_bf_index(r, w, lvl),
                          _bf_index(r, w ^ (1 << lvl), lvl + 1)))
    return edges


def _butterfly_diamonds(r: int) -> list[tuple[int, int, int]]:
    """(level transition, word, partner word) with word < partner."""
    out = []
    for lvl in range(r):
        for w in range(1 << r):
            x = w ^ (1 << lvl)
            if w < x:
                out.append((lvl, w, x))
    return out


def _butterfly(r: int):
    return (r + 1) * (1 << r), _butterfly_edges(r), _bf_labels(r, r)


def _augmented_butterfly(r: int):
    # one chord per diamond, joining the antipodal pair in the higher level
    edges = _butterfly_edges(r)
    for lvl, w, x in _butterfly_diamonds(r):
        edges.append((_bf_index(r, w, lvl + 1), _bf_index(r, x, lvl + 1)))
    return (r + 1) * (1 << r), edges, _bf_labels(r, r)


def _enhanced_butterfly(r: int):
    # one new center vertex per diamond, joined to all four diamond corners
    edges = _butterfly_edges(r)
    base = (r + 1) * (1 << r)
    labels = _bf_labels(r, r)
    for i, (lvl, w, x) in enumerate(_butterfly_diamonds(r)):
        center = base + i
        edges += [(center, _bf_index(r, w, lvl)),
                  (center, _bf_index(r, x, lvl)),
                  (center, _bf_index(r, w, lvl + 1)),
                  (center, _bf_index(r, x, lvl + 1))]
        labels.append(f"core{w:0{r}b}.{lvl}")
    return base + r * (1 << (r - 1)), edges, labels


def _benes(r: int):
    # two butterflies sharing level r; transitions past level r mirror the
    # bit order so level 2r matches level 0
    edges = []
    for lvl in range(2 * r):
        bit = lvl if lvl < r else 2 * r - 1 - lvl
        for w in range(1 << r):
            edges.append((_bf_index(r, w, lvl), _bf_index(r, w, lvl + 1)))
            edges.append((_bf_index(r, w, lvl),
                          _bf_index(r, w ^ (1 << bit), lvl + 1)))
    return (2 * r + 1) * (1 << r), edges, _bf_labels(r, 2 * r)


# --- silicate ---------------------------------------------------------------
#
# Built from the hexagonal honeycomb HC(n) (6n^2 vertices, 9n^2 - 3n edges):
# every honeycomb vertex becomes a K_4 of one center plus three corner slots,
# and the corner slots of adjacent honeycomb vertices are merged along each
# honeycomb edge. Exact integer coordinates (x doubled, y in half-root-three
# units) keep corner identification deterministic.

_HEX_CORNERS = ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))


def _honeycomb(n: int):
    hexes = []
    for q in range(-(n - 1), n):
        for r in range(-(n - 1), n):
            if abs(q + r) <= n - 1:
                cx, cy = 3 * q, 2 * r + q
                hexes.append([(cx + dx, cy + dy) for dx, dy in _HEX_CORNERS])
    points = sorted({p for corners in hexes for p in corners})
    pid = {p: i for i, p in enumerate(points)}
    edges = set()
    for corners in hexes:
        for i in range(6):
            a, b = pid[corners[i]], pid[corners[(i + 1) % 6]]
            edges.add((a, b) if a < b else (b, a))
    return len(points), sorted(edges)


def _silicate(n: int):
    hc_n, hc_edges = _honeycomb(n)
    deg = [0] * hc_n
    incident: list[list[int]] = [[] for _ in range(hc_n)]
    for i, (a, b) in enumerate(hc_edges):
        deg[a] += 1
        deg[b] += 1
        incident[a].append(i)
        incident[b].append(i)
    if any(d < 2 or d > 3 for d in deg):
        raise AssertionError("honeycomb degrees outside {2, 3}")
    centers = list(range(hc_n))
    shared_base = hc_n
    free_base = shared_base + len(hc_edges)
    labels = [f"center:{v}" for v in centers]
    labels += [f"shared:{a}-{b}" for a, b in hc_edges]
    free_id = {}
    nxt = free_base
    for v in range(hc_n):
        for _ in range(3 - deg[v]):
            free_id[v] = nxt
            labels.append(f"corner:{v}")
            nxt += 1
    edges = []
    for v in range(hc_n):
        members = [centers[v]]
        members += [shared_base + e for e in incident[v]]
        if v in free_id:
            members.append(free_id[v])
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                edges.append((a, b))
    return nxt, edges, labels


# --- Sierpinski graphs ------------------------------------------------------

def _word_index(word: tuple[int, ...]) -> int:
    idx = 0
    for d in word:
        idx = idx * 3 + d
    return idx


def _sierpinski_edges(n: int):
    """Edges of S(n, 3) grouped by prefix length, words as base-3 indices."""
    grouped: list[list[tuple[int, int]]] = []
    for i in range(n):
        level = []
        for prefix in product(range(3), repeat=i):
            for a in range(3):
                for b in range(a + 1, 3):
                    u = prefix + (a,) + (b,) * (n - i - 1)
                    v = prefix + (b,) + (a,) * (n - i - 1)
                    level.append((_word_index(u), _word_index(v)))
        grouped.append(level)
    return grouped


def _word_label(idx: int, n: int) -> str:
    digits = []
    for _ in range(n):
        digits.append(str(idx % 3))
        idx //= 3
    return "".join(reversed(digits))


def _sierpinski(n: int):
    edges = [e for level in _sierpinski_edges(n) for e in level]
    return 3 ** n, edges, [_word_label(w, n) for w in range(3 ** n)]


def _sierpinski_gasket(n: int):
    # contract every edge joining two distinct depth-(n-1) blocks of S(n, 3);
    # the connecting edges form a matching, so classes have at most 2 words
    grouped = _sierpinski_edges(n)
    total = 3 ** n
    parent = list(range(total))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for level in grouped[:-1]:
        for u, v in level:
            ru, rv = find(u), find(v)
            if ru != rv:
                if ru > rv:
                    ru, rv = rv, ru
                parent[rv] = ru
    roots = sorted({find(x) for x in range(total)})
    rank = {root: i for i, root in enumerate(roots)}
    edges = set()
    for u, v in grouped[-1]:
        a, b = rank[find(u)], rank[find(v)]
        if a != b:
            edges.add((a, b) if a < b else (b, a))
    labels = [_word_label(root, n) for root in roots]
    return len(roots), sorted(edges), labels


# --- registry ---------------------------------------------------------------

_FamilyEntry = tuple[int, Callable[..., bool], Callable[..., tuple], str]

_FAMILIES: dict[str, _FamilyEntry] = {
    "path": (1, lambda m: m >= 1, _path, "m >= 1"),
    "cycle": (1, lambda n: n >= 3, _cycle, "n >= 3"),
    "wheel": (1, lambda n: n >= 3, _wheel, "n >= 3"),
    "double_wheel": (1, lambda n: n >= 3, _double_wheel, "n >= 3"),
    "fan": (1, lambda n: n >= 1, _fan, "n >= 1"),
    "double_fan": (1, lambda n: n >= 1, _double_fan, "n >= 1"),
    "friendship": (2, lambda c, n: c >= 3 and n >= 1, _friendship,
                   "c >= 3, n >= 1"),
    "complete_bipartite": (2, lambda m, n: m >= 1 and n >= 1,
                           _complete_bipartite, "m >= 1, n >= 1"),
    "crown": (1, lambda n: n >= 3, _crown, "n >= 3"),
    "generalized_petersen": (2, lambda n, t: n >= 3 and 1 <= t and 2 * t < n,
                             _generalized_petersen, "n >= 3, 1 <= t < n/2"),
    "hypercube": (1, lambda r: r >= 1, _hypercube, "r >= 1"),
    "butterfly": (1, lambda r: r >= 1, _butterfly, "r >= 1"),
    "augmented_butterfly": (1, lambda r: r >= 1, _augmented_butterfly,
                            "r >= 1"),
    "enhanced_butterfly": (1, lambda r: r >= 1, _enhanced_butterfly,
                           "r >= 1"),
    "benes": (1, lambda r: r >= 1, _benes, "r >= 1"),
    "silicate": (1, lambda n: n >= 1, _silicate, "n >= 1"),
    "sierpinski": (1, lambda n: n >= 1, _sierpinski, "n >= 1"),
    "sierpinski_gasket": (1, lambda n: n >= 1, _sierpinski_gasket, "n >= 1"),
}

FAMILY_NAMES: tuple[str, ...] = tuple(sorted(_FAMILIES))

SIZE_FORMULAS: dict[str, Callable[..., tuple[int, int]]] = {
    "path": lambda m: (m, m - 1),
    "cycle": lambda n: (n, n),
    "wheel": lambda n: (n + 1, 2 * n),
    "double_wheel": lambda n: (2 * n + 1, 4 * n),
    "fan": lambda n: (n + 1, 2 * n - 1),
    "double_fan": lambda n: (n + 2, 3 * n - 1),
    "friendship": lambda c, n: (n * (c - 1) + 1, n * c),
    "complete_bipartite": lambda m, n: (m + n, m * n),
    "crown": lambda n: (2 * n, n * (n - 1)),
    "generalized_petersen": lambda n, t: (2 * n, 3 * n),
    "hypercube": lambda r: (2 ** r, r * 2 ** (r - 1)),
    "butterfly": lambda r: ((r + 1) * 2 ** r, r * 2 ** (r + 1)),
    "augmented_butterfly":
        lambda r: ((r + 1) * 2 ** r, r * 2 ** (r + 1) + r * 2 ** (r - 1)),
    "enhanced_butterfly":
        lambda r: ((r + 1) * 2 ** r + r * 2 ** (r - 1), r * 2 ** (r + 2)),
    "benes": lambda r: ((2 * r + 1) * 2 ** r, r * 2 ** (r + 2)),
    "silicate": lambda n: (15 * n * n + 3 * n, 36 * n * n),
    "sierpinski": lambda n: (3 ** n, 3 * (3 ** n - 1) // 2),
    "sierpinski_gasket": lambda n: ((3 ** n + 3) // 2, 3 ** n),
}


def _builder(family: str, params: tuple[int, ...]) -> Callable[..., tuple]:
    """The family's builder, once ``params`` fit its arity and domain."""
    entry = _FAMILIES.get(family)
    if entry is None:
        raise UnknownFamilyError(f"unknown family {family!r}")
    arity, check, builder, domain = entry
    if len(params) != arity:
        raise FamilyParamError(
            f"{family} takes {arity} parameter(s), got {len(params)}"
        )
    if not check(*params):
        raise FamilyParamError(
            f"{family}{params} outside valid domain ({domain})"
        )
    return builder


def expected_size(family: str, params: tuple[int, ...]) -> tuple[int, int]:
    """Closed-form (vertex count, edge count) for a family instance; refuses
    the parameters ``generate`` refuses, with the same errors."""
    params = tuple(params)
    _builder(family, params)
    return SIZE_FORMULAS[family](*params)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by ``spec``; deterministic per spec."""
    params = tuple(spec.params)
    n, edges, labels = _builder(spec.family, params)(*params)
    return build_graph(n, edges, labels)
