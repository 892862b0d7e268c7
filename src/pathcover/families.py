"""Deterministic generators for graph families and interconnection networks.

Each family is one table row: its builder, its closed-form (vertex count,
edge count) formula, whose parameters give the arity, its domain check and
the domain as text. Every generator returns a labeled
:class:`~pathcover.graph.Graph` whose counts satisfy its formula (checked
by the test suite). Identical specs always produce identical edge lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
# Butterfly vertex (w, l), for an r-bit word w and a level l, is numbered
# l * 2^r + w. Level transition l flips bit b = bits[l]: its 2^(r-1)
# diamonds are the 4-cycles on the corners (w, l), (w + 2^b, l), (w, l + 1)
# and (w + 2^b, l + 1), bit b of w clear. The four sides of every diamond
# are the butterfly's edges; BF, ABF and EBF flip bit l at transition l.

def _bf_labels(r: int, levels: int) -> list[str]:
    return [f"{w:0{r}b}.{lvl}" for lvl in range(levels + 1)
            for w in range(1 << r)]


def _diamonds(r: int, bits) -> list[tuple[int, int, int, int]]:
    """The corners of every diamond, as vertex numbers in the order above,
    transition by transition and then by word."""
    out = []
    for lvl, b in enumerate(bits):
        for w in range(1 << r):
            if not w >> b & 1:
                low, high = (lvl << r) + w, ((lvl + 1) << r) + w
                out.append((low, low + (1 << b), high, high + (1 << b)))
    return out


def _sides(diamonds) -> list[tuple[int, int]]:
    """Each diamond's lower corners joined to its upper corners."""
    return [(u, v) for *low, c, d in diamonds for u in low for v in (c, d)]


def _butterfly(r: int):
    return (r + 1) << r, _sides(_diamonds(r, range(r))), _bf_labels(r, r)


def _augmented_butterfly(r: int):
    # one chord per diamond, joining its two upper corners
    diamonds = _diamonds(r, range(r))
    edges = _sides(diamonds) + [(c, d) for _, _, c, d in diamonds]
    return (r + 1) << r, edges, _bf_labels(r, r)


def _enhanced_butterfly(r: int):
    # one centre per diamond, joined to its four corners and labelled
    # core<w>.<l> after its corner (w, l)
    diamonds = _diamonds(r, range(r))
    edges = _sides(diamonds)
    labels = _bf_labels(r, r)
    for corners in diamonds:
        edges += [(len(labels), v) for v in corners]
        labels.append(f"core{labels[corners[0]]}")
    return len(labels), edges, labels


def _benes(r: int):
    # two butterflies sharing level r; transitions past level r mirror the
    # bit order so level 2r matches level 0
    diamonds = _diamonds(r, [*range(r), *reversed(range(r))])
    return (2 * r + 1) << r, _sides(diamonds), _bf_labels(r, 2 * r)


# --- silicate ---------------------------------------------------------------
#
# Built from the hexagonal honeycomb HC(n) (6n^2 vertices, 9n^2 - 3n edges,
# every degree 2 or 3): each honeycomb vertex v becomes a K_4 of its center
# v and three corners. Adjacent K_4s share one corner per honeycomb edge e,
# the slot hc_n + e, and a vertex of degree 2 gets one free corner of its
# own, numbered after every shared slot in vertex order. Exact integer
# coordinates (x doubled, y in half-root-three units) keep the honeycomb's
# numbering deterministic.

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
    members = [[v] for v in range(hc_n)]
    for e, (a, b) in enumerate(hc_edges):
        members[a].append(hc_n + e)
        members[b].append(hc_n + e)
    labels = [f"center:{v}" for v in range(hc_n)]
    labels += [f"shared:{a}-{b}" for a, b in hc_edges]
    for v, k4 in enumerate(members):
        if len(k4) == 3:
            k4.append(len(labels))
            labels.append(f"corner:{v}")
    edges = [e for k4 in members for e in combinations(k4, 2)]
    return len(labels), edges, labels


# --- Sierpinski graphs ------------------------------------------------------
#
# S(n, 3)'s vertices are the words of length n over {0, 1, 2}, numbered as
# base-3 indices with the first letter most significant. S(n, 3) is three
# copies of S(n - 1, 3), copy a the block of indices a * 3^(n-1) onward,
# with copy a's corner b joined to copy b's corner a (Klavzar & Milutinovic
# 1997). Corner c of a copy of size s (the word c...c) is c * (s - 1) / 2
# within its block.

def _sierpinski_edges(n: int):
    """Edges of S(n, 3) grouped by prefix length i, whose edges join the
    three copies of size s = 3^(n-i-1) under each prefix p."""
    grouped = []
    for i in range(n):
        s = 3 ** (n - i - 1)
        corner = [c * (s - 1) // 2 for c in range(3)]
        grouped.append([(p * 3 * s + a * s + corner[b],
                         p * 3 * s + b * s + corner[a])
                        for p in range(3 ** i)
                        for a, b in combinations(range(3), 2)])
    return grouped


def _word_label(idx: int, n: int) -> str:
    return "".join(str(idx // 3 ** j % 3) for j in reversed(range(n)))


def _sierpinski(n: int):
    edges = [e for level in _sierpinski_edges(n) for e in level]
    return 3 ** n, edges, [_word_label(w, n) for w in range(3 ** n)]


def _sierpinski_gasket(n: int):
    # contract every edge joining two distinct depth-(n-1) blocks of S(n, 3);
    # the connecting edges form a matching, so each class is one word or
    # two, and takes the name of its smaller word
    grouped = _sierpinski_edges(n)
    name = list(range(3 ** n))
    for level in grouped[:-1]:
        for u, v in level:
            name[max(u, v)] = min(u, v)
    roots = sorted(set(name))
    rank = {root: i for i, root in enumerate(roots)}
    edges = set()
    for u, v in grouped[-1]:
        a, b = rank[name[u]], rank[name[v]]
        if a != b:
            edges.add((a, b) if a < b else (b, a))
    labels = [_word_label(root, n) for root in roots]
    return len(roots), sorted(edges), labels


# --- registry ---------------------------------------------------------------

# family -> (builder, (vertex count, edge count) formula, domain check, domain
# text); the formula's parameters are the family's
_FAMILIES: dict[str, tuple[Callable, Callable, Callable, str]] = {
    "path": (_path, lambda m: (m, m - 1), lambda m: m >= 1, "m >= 1"),
    "cycle": (_cycle, lambda n: (n, n), lambda n: n >= 3, "n >= 3"),
    "wheel": (_wheel, lambda n: (n + 1, 2 * n), lambda n: n >= 3, "n >= 3"),
    "double_wheel": (_double_wheel, lambda n: (2 * n + 1, 4 * n),
                     lambda n: n >= 3, "n >= 3"),
    "fan": (_fan, lambda n: (n + 1, 2 * n - 1), lambda n: n >= 1, "n >= 1"),
    "double_fan": (_double_fan, lambda n: (n + 2, 3 * n - 1),
                   lambda n: n >= 1, "n >= 1"),
    "friendship": (_friendship, lambda c, n: (n * (c - 1) + 1, n * c),
                   lambda c, n: c >= 3 and n >= 1, "c >= 3, n >= 1"),
    "complete_bipartite": (_complete_bipartite,
                           lambda m, n: (m + n, m * n),
                           lambda m, n: m >= 1 and n >= 1, "m >= 1, n >= 1"),
    "crown": (_crown, lambda n: (2 * n, n * (n - 1)), lambda n: n >= 3,
              "n >= 3"),
    "generalized_petersen": (_generalized_petersen,
                             lambda n, t: (2 * n, 3 * n),
                             lambda n, t: n >= 3 and 1 <= t and 2 * t < n,
                             "n >= 3, 1 <= t < n/2"),
    "hypercube": (_hypercube, lambda r: (2 ** r, r * 2 ** (r - 1)),
                  lambda r: r >= 1, "r >= 1"),
    "butterfly": (_butterfly, lambda r: ((r + 1) * 2 ** r, r * 2 ** (r + 1)),
                  lambda r: r >= 1, "r >= 1"),
    "augmented_butterfly": (
        _augmented_butterfly,
        lambda r: ((r + 1) * 2 ** r, r * 2 ** (r + 1) + r * 2 ** (r - 1)),
        lambda r: r >= 1, "r >= 1"),
    "enhanced_butterfly": (
        _enhanced_butterfly,
        lambda r: ((r + 1) * 2 ** r + r * 2 ** (r - 1), r * 2 ** (r + 2)),
        lambda r: r >= 1, "r >= 1"),
    "benes": (_benes, lambda r: ((2 * r + 1) * 2 ** r, r * 2 ** (r + 2)),
              lambda r: r >= 1, "r >= 1"),
    "silicate": (_silicate, lambda n: (15 * n * n + 3 * n, 36 * n * n),
                 lambda n: n >= 1, "n >= 1"),
    "sierpinski": (_sierpinski, lambda n: (3 ** n, 3 * (3 ** n - 1) // 2),
                   lambda n: n >= 1, "n >= 1"),
    "sierpinski_gasket": (_sierpinski_gasket,
                          lambda n: ((3 ** n + 3) // 2, 3 ** n),
                          lambda n: n >= 1, "n >= 1"),
}

FAMILY_NAMES: tuple[str, ...] = tuple(sorted(_FAMILIES))


def _builder(family: str, params: tuple[int, ...]):
    """The family's (builder, size formula), once ``params`` fit its arity,
    are ints (a bool is refused) and lie in its domain."""
    entry = _FAMILIES.get(family)
    if entry is None:
        raise UnknownFamilyError(f"unknown family {family!r}")
    builder, size, check, domain = entry
    arity = size.__code__.co_argcount
    if len(params) != arity:
        raise FamilyParamError(
            f"{family} takes {arity} parameter(s), got {len(params)}"
        )
    if any(type(p) is not int for p in params):
        raise FamilyParamError(
            f"{family} takes int parameters, got {params!r}"
        )
    if not check(*params):
        raise FamilyParamError(
            f"{family}{params} outside valid domain ({domain})"
        )
    return builder, size


def expected_size(family: str, params: tuple[int, ...]) -> tuple[int, int]:
    """Closed-form (vertex count, edge count) for a family instance; refuses
    the parameters ``generate`` refuses, with the same errors."""
    params = tuple(params)
    return _builder(family, params)[1](*params)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by ``spec``; deterministic per spec."""
    params = tuple(spec.params)
    n, edges, labels = _builder(spec.family, params)[0](*params)
    return build_graph(n, edges, labels)
