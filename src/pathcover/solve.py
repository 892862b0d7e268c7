"""Exact and greedy optimizers for both cover variants, an independent
exhaustive oracle, distance-k domination, and the general bound battery.

All exact paths return the lexicographically least optimal vertex set, so
repeated runs are bit-identical apart from timing statistics.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, fields
from functools import reduce
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain, combinations, groupby
from operator import or_
from typing import Iterable, Sequence

from .cover import (
    StrongTest,
    StrongWitness,
    _bits,
    ball_layers,
    coverer_index,
    source_pairs,
    split_pairs,
    weak_cover_set,
    weak_masks,
)
from .graph import (
    Graph,
    VertexRangeError,
    _check_k,
    require_connected,
)

WEAK = "weak"
STRONG = "strong"
VARIANTS = (WEAK, STRONG)


# Vertex limits of the exponential searches. They are fixed: raising one is
# a stated change, not a setting.
WEAK_VERTEX_LIMIT = 40  # weak exact, domination and minimum vertex cover
STRONG_VERTEX_LIMIT = 34  # strong exact
ORACLE_VERTEX_LIMIT = 12  # naive_oracle


class SizeLimitError(RuntimeError):
    """Instance exceeds the vertex limit of an exponential-time solver."""


def exact_vertex_limit(variant: str) -> int:
    """The vertex limit of ``solve_exact`` for ``variant``."""
    return STRONG_VERTEX_LIMIT if variant == STRONG else WEAK_VERTEX_LIMIT


@dataclass(frozen=True)
class SolveStats:
    """Work and time of one solve.

    ``nodes`` counts, for the exact solvers, the nodes of the
    ``_least_cover`` subset search plus every search node of the
    ``_min_cover`` calls it makes (the optimum it starts from and the test
    of each added vertex); for greedy, the vertices picked; for the oracle,
    the subsets tried. A ``_min_cover`` call adds no node when its root
    checks answer it: an empty remainder, a cap of 1, the top-t bound, the
    union, the greedy cover or the disjoint-elements bound at the root. A
    search node is counted when entered, before its own disjoint-elements
    cut, and a test stops at its first cover under the cap. A vertex that
    the witness shortcut takes is tested by no call, so it adds only its
    own subset-search node. For strong, a vertex whose set the strong test
    refuses is not entered, at every k and at full sets too, and sizes
    below its ``start`` are not walked.
    """

    nodes: int
    elapsed_s: float


@dataclass(frozen=True)
class SolveResult:
    variant: str
    k: int
    optimum: int
    set: tuple[int, ...]
    witness: StrongWitness | None
    status: str  # "exact" or "heuristic"
    stats: SolveStats


def _check_args(G: Graph, k: int, limit: int | None = None,
                variant: str = WEAK) -> None:
    """The argument check of every solve entry point. Refuses, in this
    order: an unknown variant, a k that is no int >= 1, more than
    ``limit`` vertices (before any graph work), a disconnected graph."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _check_k(k)
    if limit is not None and G.n > limit:
        raise SizeLimitError(f"n={G.n} exceeds the {limit}-vertex limit")
    require_connected(G)


# ---------------------------------------------------------------------------
# Branch-and-bound set cover over bitmasks, and the lexicographically least
# cover search built on it. Used for both exact variants, the distance-k
# domination number, and minimum vertex cover.
# ---------------------------------------------------------------------------

def _greedy_cover(masks: Sequence[int], universe: int,
                  most: int | None = None) -> list[int] | None:
    """Indices picked by taking, until ``universe`` is covered, the first
    mask with the largest new coverage; the masks must jointly cover
    ``universe``. None when that takes more than ``most`` picks.

    Lazy greedy (Minoux 1978): a heap holds one entry per unpicked mask i,
    with g its gain when the entry was made. A gain only falls as the
    cover grows, so every g is at least the mask's gain now. A top entry
    whose g is stale is replaced by the gain now; once the top's g is
    current, no mask gains more, and no lower index gains as much, as its
    entry would sort first. So the top is the scan's pick. An entry is the
    int i - g * n, n the number of masks, so entries sort by falling g,
    then by rising i, and i is the entry mod n.
    """
    n = len(masks)
    heap = [i - (m & universe).bit_count() * n for i, m in enumerate(masks)]
    heapify(heap)
    chosen: list[int] = []
    rem = universe
    while rem:
        if len(chosen) == most:
            return None
        i = heap[0] % n
        while (entry := i - (masks[i] & rem).bit_count() * n) != heap[0]:
            heapreplace(heap, entry)
            i = heap[0] % n
        heappop(heap)
        chosen.append(i)
        rem &= ~masks[i]
    return chosen


def _branch_coverers(sets: Iterable[int],
                     left: int) -> tuple[int, int] | None:
    """The fewest coverers of an element, from ``sets``, the live coverer
    bitmasks of the elements a node leaves, and the masks a cover within
    ``left`` more picks may take: the union of the gathered coverers when
    exactly ``left`` elements are gathered, else -1, every mask. None when
    more than ``left`` elements, gathered fewest coverers first, have
    pairwise disjoint coverers, so no cover within ``left`` more picks
    exists there. An element with no live coverer needs no test of its
    own: it comes first and gives 0, no options, so the node fails."""
    order = sorted(sets, key=int.bit_count)
    used = count = 0
    for c in order:
        if not c & used:
            used |= c
            count += 1
            if count > left:
                return None
    return order[0], used if count == left else -1


def _min_cover(
    masks: Sequence[int],
    index: Sequence[int],
    allowed: Sequence[int],
    universe: int,
    pre: int = 0,
    cap: int | None = None,
    nodes: list[int] | None = None,
) -> tuple[int, ...] | None:
    """The indices, ascending, of a cover of ``universe`` by ``pre`` and
    masks from ``allowed``, or None when there is none. Without ``cap`` the
    cover is a least one. A ``cap`` must be positive; the call then only
    decides whether a cover of fewer than ``cap`` masks exists: it returns
    some such cover, not necessarily a least one, or None when every cover
    has ``cap`` masks or more.

    ``index`` is the coverer index of ``masks`` over ``universe``: entry e
    is the bitmask of the indices of the masks holding element e. The
    search branches on the element with the fewest live coverers, ``live``
    being the masks a node may still take. Each rule below keeps the
    answer:

    - Top-t bound, at the root: t = best - 1 picks must beat the best size
      known, and t picks cover at most the sum of their gains, so when
      the t largest gains sum to less than the elements left no smaller
      cover exists. It runs against ``cap``, and, without one, against the
      greedy size, which it proves least when it cuts. At ``cap`` 1 the
      call answers before any gain is counted: 0 picks cover nothing.
    - Greedy early return: under ``cap``, a greedy cover smaller than
      ``cap`` already answers the question, so no search is made, and the
      greedy stops after ``cap`` - 1 picks: a longer greedy cover answers
      nothing.
    - Coverer index: which masks hold an element depends neither on
      ``pre``, nor on ``allowed``, nor on the picks, so one index serves
      every call and node, read through ``live``. A pick covers exactly
      the elements whose coverers hold it, so a node keeps each distinct
      coverer bitmask of the elements it leaves once: elements with equal
      coverers are covered together.
    - Disjoint elements: elements whose live coverers are pairwise
      disjoint need one pick each, as no mask holds two of them. A node
      that gathers, fewest coverers first, more of them than the picks
      left to beat the best size holds no better cover and is cut. The
      root is checked before any mask is dropped; without ``cap`` a cut
      there proves the greedy cover least. At k = 1, with edges as
      elements, this is the matching bound of vertex cover.
    - Tight packing: when exactly as many elements are gathered as picks
      are left, a cover within those picks takes one coverer of each, as
      no mask holds two, and so takes nothing else. So the node and its
      subtree take only the union of the gathered coverers, and the root
      keeps only it live (reduced-cost fixing with the packing as the LP
      dual; Nemhauser and Wolsey, 1988).
    - Dominated masks: a cover that takes a mask lying, on what ``pre``
      leaves, inside another stays a cover, of no greater size, with the
      larger mask instead. So ``live`` starts with only the masks inside
      no other kept one, of equal masks one. The filter skips the masks
      the root's tight packing dropped: a mask holding a live mask covers
      the gathered element that one covers, so it is live itself.
    - First leaf under ``cap``: the search bound starts at ``cap``, so any
      leaf it reaches is a cover smaller than ``cap`` and ends the call.
    - Sibling exclusion: once option i of the branching element is
      searched, every cover holding i and smaller than the best size was
      met below it, so the later options search without i.
    - Option order: options are tried by falling gain. Order changes only
      which cover is met first, never which sizes exist.
    """
    rem0 = universe & ~pre
    if rem0 == 0:
        return ()
    if cap == 1:
        return None
    mk = [masks[i] & rem0 for i in allowed]
    gains = sorted(map(int.bit_count, mk), reverse=True)
    need = rem0.bit_count()
    # weak-exact: 7% fewer requests/s without this cut, claims-sweep 3%
    # (2-core Xeon)
    if cap is not None and sum(gains[:cap - 1]) < need:
        return None
    if reduce(or_, mk, 0) != rem0:
        return None
    picks = _greedy_cover(mk, rem0, None if cap is None else cap - 1)
    found = None if picks is None else tuple(sorted(allowed[i]
                                                    for i in picks))
    if found is not None and (cap is not None
                              or sum(gains[:len(found) - 1]) < need):
        return found
    best = cap if found is None else len(found)
    live = sum(map((1).__lshift__, allowed))
    sets = {index[e] & live for e in _bits(rem0)}
    # weak-exact: 12% fewer requests/s and p50 15% higher without this
    # root check and its restriction (2-core Xeon)
    root = _branch_coverers(sets, best - 1)
    if root is None:
        return found
    live &= root[1]
    kept: list[int] = []
    # weak-exact: 3% fewer requests/s and p90 14% higher without this
    # filter (2-core Xeon);
    # a mask comes after every larger one: its integer is smaller
    for m, i in sorted(zip(mk, allowed), reverse=True):
        if not live >> i & 1:
            continue
        if m in map(m.__and__, kept):  # m lies inside a kept mask
            live &= ~(1 << i)
        else:
            kept.append(m)
    path: list[int] = []  # the picks of the node searched

    def dfs(rem: int, sets: set[int]) -> bool:
        """Search the node leaving ``rem``, whose elements have the live
        coverers ``sets``; True ends the call under ``cap``."""
        nonlocal best, found
        if nodes is not None:
            nodes[0] += 1
        depth = len(path)
        if not rem:
            best, found = depth, tuple(sorted(path))
            return cap is not None
        branch = _branch_coverers(sets, best - 1 - depth)
        if branch is None:
            return False
        options, keep = branch  # keep loses each option once searched
        for i in sorted(_bits(options),
                        key=lambda i: (masks[i] & rem).bit_count(),
                        reverse=True):
            if depth + 1 >= best:
                break
            bit = 1 << i
            path.append(i)
            if dfs(rem & ~masks[i], {c & keep for c in sets if not c & bit}):
                return True
            path.pop()
            keep &= ~bit
        return False

    dfs(rem0, {c & live for c in sets})
    return found


def _essential(index: Sequence[int]) -> int:
    """The bitmask of the essential elements of a coverer ``index``: of
    each group of equal entries the first element, when its entry holds
    no other entry. Equal entries are grouped in a dict first, and each
    distinct entry is compared only with the kept entries of fewer bits,
    as no entry holds another of as many. That suffices: an entry holding
    a dropped one holds what that one holds, and so a kept one."""
    first: dict[int, int] = {}
    for e, c in enumerate(index):
        first.setdefault(c, e)
    kept: list[int] = []
    for _, group in groupby(sorted(first, key=int.bit_count), int.bit_count):
        # c is kept when every kept entry has a bit outside it
        kept += [c for c in group if all(map((~c).__and__, kept))]
    return sum(1 << first[c] for c in kept)


def _least_cover(
    G: Graph,
    masks: Sequence[int],
    index: Sequence[int],
    test: StrongTest | None = None,
    nodes: list[int] | None = None,
) -> tuple[tuple[int, ...], object]:
    """The lexicographically least vertex set of least size whose masks
    cover every element of ``index`` and that ``test`` (see
    ``cover.StrongTest``) keeps, and its proof: the last ``test.extend``,
    else ``test.root``, ``()`` without a test. ``index`` is the coverer
    index of ``masks`` (see ``_min_cover``); every entry is nonzero. The
    optimum and every check share it. Sizes ascend from the optimum of
    ``_min_cover`` or ``test.start``, the higher; each size walks its sets
    in lexicographic order.

    Essential elements: the optimum and every check cover only the
    ``_essential`` elements, those whose entry holds no other entry, one
    per group of equal entries (row dominance in set covering; Beasley,
    1987). A vertex set covers every element exactly when it meets every
    entry, and it meets an entry holding another whenever it meets that
    one. Holding is a partial order, so every entry holds a least one,
    which is essential, or equal to an essential one. So a set meets every
    entry exactly when it meets the essential ones: the checks give the
    same answers, and the walk accepts the same sets. Only the covers the
    checks return, which serve as witnesses below, and their node counts
    change.

    Twin prefixes: u < v are twins when N(u) - {v} == N(v) - {u}, which
    covers true and false twins, and swapping them is an automorphism of G.
    ``masks[v]`` follows v under automorphisms, as weak coverage, the
    incident edges of v and strong covers do (automorphisms map geodesics
    to geodesics). A ``test`` must treat automorphic sets alike too, as
    the strong cover test does. So a set holding v but not its twin u maps
    to a set of the same size, covering and kept alike, that is
    lexicographically smaller: the least accepted set takes a prefix of
    every twin class, and the search takes v only when v's nearest lower
    twin is already chosen.

    Prune: v is added only when the masks after v can finish the cover in
    the picks left, a ``_min_cover`` check, and ``test.extend`` keeps the
    set with v, so only subtrees that hold no accepted set are cut.
    Every strong cover is a weak cover, so this is sound for strong too.

    Witness shortcut: a node carries a witness, ascending vertices none
    below its first candidate, whose masks finish its cover in at most the
    picks it has left; each size starts with the optimum's cover. When the
    candidate is the witness's first vertex, the rest of the witness
    finishes the cover after it in fewer picks than are left, so the check
    would succeed and is not run: the rest becomes the child's witness.
    Otherwise the check runs, and the cover it returns becomes the child's
    witness. The loop spends a witness at its first vertex, whether that
    vertex is then taken, twin-skipped or refused by the test, or its
    subtree fails. Only checks that would succeed are skipped, so the same
    sets are walked and kept.
    """
    n = len(masks)
    universe = _essential(index)
    # bit of the nearest lower twin u < v, else 0; twins have equal open
    # (u, v apart) or closed (u, v adjacent) neighbourhoods
    last_open: dict[int, int] = {}
    last_closed: dict[int, int] = {}
    twin_bit = []
    for v in range(n):
        nb = sum(1 << w for w in G.adj[v])
        u = max(last_open.get(nb, -1), last_closed.get(nb | 1 << v, -1))
        twin_bit.append(1 << u if u >= 0 else 0)
        last_open[nb] = last_closed[nb | 1 << v] = v
    found: tuple[tuple[int, ...], object] | None = None

    def search(start_v: int, vmask: int, cov: int, need: int,
               state, witness: tuple[int, ...]) -> None:
        nonlocal found
        if nodes is not None:
            nodes[0] += 1
        if need == 0:
            found = tuple(_bits(vmask)), state
            return
        for v in range(start_v, n - need + 1):
            rest = None
            if witness and witness[0] == v:
                rest, witness = witness[1:], ()
            if twin_bit[v] & ~vmask:
                continue
            if rest is None:
                rest = _min_cover(masks, index, range(v + 1, n), universe,
                                  cov | masks[v], need, nodes)
                if rest is None:
                    continue
            child = state if test is None else test.extend(state, v, need - 1)
            if child is None:
                continue
            search(v + 1, vmask | 1 << v, cov | masks[v], need - 1, child,
                   rest)
            if found is not None:
                return

    least = _min_cover(masks, index, range(n), universe, nodes=nodes)
    for size in range(max(len(least), test.start if test else 0), n + 1):
        search(0, 0, 0, size, test.root if test else (), least)
        if found is not None:
            return found
    raise AssertionError("the full vertex set is always accepted")


# ---------------------------------------------------------------------------
# Exact solvers
# ---------------------------------------------------------------------------

def _clique_lower_bound(G: Graph) -> int:
    """Sum of (s - 1) over maximal cliques containing s >= 2 simplicial
    vertices. Edges between two simplicial vertices lie on no geodesic other
    than themselves, so covering them needs a vertex cover of the clique they
    span. A simplicial vertex v lies in exactly one maximal clique, N[v], so
    the cliques never share them, and grouping the simplicial vertices by
    their closed neighbourhoods gives each clique's s."""
    closed = [sum(1 << w for w in a) | 1 << v for v, a in enumerate(G.adj)]
    # v is simplicial when N[v] lies in N[w] for every neighbour w
    groups = Counter(c for v, c in enumerate(closed)
                     if not any(c & ~closed[w] for w in G.adj[v]))
    return sum(groups.values()) - len(groups)


def _degree_lower_bound(G: Graph, k: int) -> int | None:
    """ceil(m (D-2) / (D ((D-1)^k - 1))) for maximum degree D >= 3; a single
    source covers at most D ((D-1)^k - 1) / (D-2) edges weakly. Once
    2^k > 2m, (D-1)^k - 1 >= 2m and the bound is 1, so the exponent stops
    at the least such k, m.bit_length() + 1."""
    deg_max = max(G.degree(v) for v in range(G.n))
    if deg_max < 3:
        return None
    num = G.m * (deg_max - 2)
    den = deg_max * ((deg_max - 1) ** min(k, G.m.bit_length() + 1) - 1)
    return -(-num // den)


def solve_exact(G: Graph, k: int, variant: str) -> SolveResult:
    """Provably optimal cover of the requested variant: ``_least_cover``
    over the per-vertex weak coverage masks, so the lexicographically least
    optimum: weak the first covering set, strong the first one
    ``cover.StrongTest`` keeps, witnessed by the test's proof of it.

    Strong sizes ascend from the weak optimum: a strong cover is a weak
    cover, so no smaller size can succeed, or from the test's ``start``
    when it is higher, a counting start. The other lower bounds
    of ``compute_bounds`` never start higher: a weak cover reaches an edge
    at every vertex within distance k, so it dominates at distance k; an
    edge joining two simplicial vertices of one clique lies only on
    geodesics that start at its endpoints, so a weak cover holds all but
    one simplicial vertex of each such clique; and the degree bound counts
    the edges one source covers weakly.
    """
    _check_args(G, k, exact_vertex_limit(variant), variant)
    start = time.perf_counter()
    nodes = [0]
    index = coverer_index(G, k)
    test = StrongTest(G, k) if variant == STRONG else None
    chosen, proof = _least_cover(G, weak_masks(G, k), index, test, nodes)
    return SolveResult(variant, k, len(chosen), chosen,
                       proof if test else None, "exact",
                       SolveStats(nodes[0], time.perf_counter() - start))


# ---------------------------------------------------------------------------
# Greedy heuristics
# ---------------------------------------------------------------------------

def _greedy_weak(G: Graph, k: int) -> tuple[list[int], None]:
    return _greedy_cover(weak_masks(G, k), G.full_edge_mask()), None


def _greedy_source(pairs: tuple[tuple, ...]) -> tuple[int, list]:
    """What ``_greedy_bound`` reads from one source's pairs, once per solve:
    F, the union of the masks of its one-path pairs, and per choice pair
    (a pair with more than one geodesic) U_p, the union of its masks, and
    d, the number of edges of each of its paths."""
    _, forced, choice = split_pairs(pairs)
    return forced, [(reduce(or_, masks), masks[0].bit_count())
                    for _, _, masks in choice]


def _best_path(masks: tuple[int, ...], free: int, d: int) -> int:
    """The index of the first of ``masks``, paths of d edges each, with the
    most edges in ``free``. The scan stops at a path with all d edges
    there, as no path gains more."""
    i, best = 0, 0
    for j, m in enumerate(masks):
        gain = (m & free).bit_count()
        if gain > best:
            i, best = j, gain
            if gain == d:
                break
    return i


def _greedy_pair_gain(
    pairs: tuple[tuple, ...], cover: int
) -> tuple[int, list]:
    """The edges outside ``cover`` that greedily assigning one path per
    pair gains, and the picks (source, target, mask) that gain them. The
    pairs are walked in target order. A pair whose paths all lie in
    ``cover`` plus the edges taken so far adds nothing and gets no path;
    any other pair takes ``_best_path`` of the edges it can add."""
    taken = cover
    picks = []
    for u, t, masks in pairs:
        free = reduce(or_, masks) & ~taken
        if free:
            m = masks[_best_path(masks, free, masks[0].bit_count())]
            taken |= m
            picks.append((u, t, m))
    return taken & ~cover, picks


def _greedy_bound(forced: int, choice: list, cover: int) -> int:
    """ub(v, cover): an upper bound on v's greedy gain outside ``cover``,
    from ``_greedy_source``'s F and choice pairs (see ``_greedy_strong``)."""
    off = ~(cover | forced)
    return (forced & ~cover).bit_count() + sum(
        min(d - 1, (union & off).bit_count()) for union, d in choice)


def _greedy_strong(G: Graph, k: int) -> tuple[list[int], StrongWitness]:
    """Greedy over sources, each assigning one path per pair greedily
    (``_greedy_pair_gain``). The assignments cover every edge, so they are
    the witness. The loop ends: a chosen vertex's length-1 pairs cover all
    its edges, so an uncovered edge has two unchosen endpoints, each with a
    positive gain.

    Each round picks the vertex of largest gain outside ``cover``, the
    lowest on ties, as a scan of every vertex would. The gains come lazily
    from one heap of entries (-key, v, version). The key is v's kept gain
    when v has one, and an upper bound on its gain when it has none, so an
    entry needs no flag to say which it is. The bound is v's weak-mask
    count until v's pairs are built, and ub(v, cover) after.

    - Kept gains. A vertex keeps ``(gained, picks)``, the edges outside
      ``cover`` that ``_greedy_pair_gain`` gives it and the paths that gain
      them, until a pick covers one of those edges. Until then ``gained``
      stays outside ``cover``, so picking the vertex covers exactly
      ``gained``. And the kept result is what a fresh walk would give,
      since ``_greedy_pair_gain`` reads ``cover`` only through the edges
      taken so far. Take the pairs in order, with those edges as before
      plus the newly covered ones: the path a pair took adds only edges of
      ``gained``, which the new ones miss, so it keeps its gain, and every
      other path's gain can only fall; so the pair takes the same first
      path of largest gain, or none when all were 0. So a pick that misses
      ``gained`` leaves the walk's picks unchanged too, and the vertex
      picked takes its witness paths from ``picks`` with no second walk.
    - The bound. ub(v, cover) is the number of edges of F, the union of
      the masks of v's one-path pairs, outside ``cover`` plus, over v's
      choice pairs (those with more than one path), the sum of min(d - 1,
      number of edges of U_p - F outside ``cover``), where U_p is the union
      of the pair's paths, each of d >= 2 edges (``_greedy_bound``). A
      one-path pair either takes its only path or finds it in the edges
      taken already, so the gain is F outside ``cover`` plus, per choice
      pair that takes a path, that path's edges outside ``cover`` and F. A
      path from v starts with an edge at v, the path of a one-path pair at
      distance 1, so in F; its other d - 1 edges lie in U_p. So ub is at
      least the gain, and it only falls as ``cover`` grows: a bound pushed
      in an earlier round holds.
    - The weak-mask bound. Every entry starts from the number of edges of
      v's weak mask (``weak_masks``) outside ``cover``, read from the balls
      with no geodesic walk. Every path a pair of v takes is a geodesic from
      v of at most k edges, so each of its edges joins distances r and r + 1
      from v for some r < k and lies in v's weak mask. So the gain lies
      there too: the count is at least the gain, and it only falls as
      ``cover`` grows. v's pairs are built (``source_pairs``,
      ``_greedy_source``) only when this count, fresh, is the top key; a
      vertex never picked may never build them.
    - Refreshing a popped bound. A popped entry that is not a kept gain is
      first replaced by v's fresh bound, the weak-mask count or ub(v,
      cover), when that is lower: a bound only falls as ``cover`` grows, so
      the fresh one still holds, and it goes back in the heap. Only when it
      equals the popped key, so no other key is higher, does v go on: to
      build its pairs, or, once built, to be scored by
      ``_greedy_pair_gain``. When v's pairs are just built, ub(v, cover) is
      compared with the popped key in the same way; ub may exceed the
      weak-mask count, and v is then scored at once.
    - The heap tie-break. Every unchosen vertex has exactly one current
      entry, and its key is at least the vertex's gain. So when the top
      entry is a kept gain, no vertex gains more and no lower vertex gains
      as much: ordering by (-key, v) picks the largest gain and the lowest
      vertex on ties. A bound on top is replaced by a fresh bound or by the
      gain, either way by one entry with a key at least the gain.
    - Invalidation. When a pick covers an edge of a kept ``gained``, it
      is dropped and the vertex's version is bumped, so its entry goes
      stale, and a fresh bound is pushed. The old gain is not pushed again:
      gains can rise (a pair whose best path was spent may switch to one
      that adds more, leaving edges for later pairs), so it is no bound.

    A source whose pairs are never built cannot raise
    ``EnumerationCapError`` (more than ``GEODESIC_CAP`` geodesics between
    two vertices). So the greedy may answer on a graph where building every
    source's pairs would raise, and never raises where that would answer.
    """
    universe = G.full_edge_mask()
    arcs = [None] * G.n
    weak = weak_masks(G, k)
    pairs_by_source: list = [None] * G.n
    sources: list = [None] * G.n
    kept: dict[int, tuple[int, list]] = {}  # v -> (gained, picks)
    version = [0] * G.n
    heap = [(-m.bit_count(), v, 0) for v, m in enumerate(weak)]
    heapify(heap)
    chosen = []
    assigned = []
    cover = 0
    while cover != universe:
        neg_key, v, ver = heappop(heap)
        if ver != version[v]:
            continue
        if v not in kept:
            if sources[v] is None:
                bound = (weak[v] & ~cover).bit_count()
                if bound == -neg_key:
                    pairs_by_source[v] = source_pairs(G, v, k, arcs)
                    sources[v] = _greedy_source(pairs_by_source[v])
            if sources[v] is not None:
                bound = _greedy_bound(*sources[v], cover)
            if bound < -neg_key:
                heappush(heap, (-bound, v, ver))
                continue
            kept[v] = _greedy_pair_gain(pairs_by_source[v], cover)
            heappush(heap, (-kept[v][0].bit_count(), v, ver))
            continue
        gained, picks = kept.pop(v)
        version[v] += 1
        chosen.append(v)
        cover |= gained
        assigned.extend(picks)
        for w in [w for w, (other, _) in kept.items() if other & gained]:
            del kept[w]
            version[w] += 1
            heappush(heap, (-_greedy_bound(*sources[w], cover), w,
                            version[w]))
    return chosen, StrongWitness.of(G, assigned)


def solve_greedy(G: Graph, k: int, variant: str) -> SolveResult:
    """Valid cover by greedy max-new-coverage selection; never better than
    the exact optimum, often equal on the small instances here."""
    _check_args(G, k, variant=variant)
    start = time.perf_counter()
    greedy = _greedy_weak if variant == WEAK else _greedy_strong
    chosen, witness = greedy(G, k)
    return SolveResult(variant, k, len(chosen), tuple(sorted(chosen)),
                       witness, "heuristic",
                       SolveStats(len(chosen), time.perf_counter() - start))


# ---------------------------------------------------------------------------
# Naive oracle: exhaustive subset enumeration in ascending size, with weak
# coverage from the reference definition and strong feasibility decided by
# exhaustive per-pair geodesic choice enumeration. Deliberately a different
# algorithmic skeleton from solve_exact.
# ---------------------------------------------------------------------------

def _oracle_strong_feasible(
    G: Graph, pair_list: list[tuple]
) -> StrongWitness | None:
    """Try every combination of one geodesic per pair, in pair order, with
    memoization on (pair index, covered mask) only."""
    full = G.full_edge_mask()
    chosen: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()

    def walk(idx: int, mask: int) -> bool:
        if mask == full:
            return True
        if idx == len(pair_list):
            return False
        if (idx, mask) in seen:
            return False
        u, t, masks = pair_list[idx]
        for pmask in masks:
            chosen.append((u, t, pmask))
            if walk(idx + 1, mask | pmask):
                return True
            chosen.pop()
        seen.add((idx, mask))
        return False

    if not walk(0, 0):
        return None
    return StrongWitness.of(G, chosen)


def naive_oracle(G: Graph, k: int, variant: str) -> SolveResult:
    """Reference optimum by exhaustive enumeration; hard-limited in size.
    One walk over the subsets, by ascending size in ``combinations`` order,
    returns the first the variant accepts: weak, when the sources'
    ``weak_cover_set`` masks cover every edge; strong, when
    ``_oracle_strong_feasible`` finds a geodesic per pair of its sources."""
    _check_args(G, k, ORACLE_VERTEX_LIMIT, variant)
    start = time.perf_counter()
    if variant == WEAK:
        masks = [weak_cover_set(G, v, k) for v in range(G.n)]
        universe = G.full_edge_mask()

        def accept(combo: tuple) -> tuple[bool, None]:
            mask = reduce(or_, map(masks.__getitem__, combo), 0)
            return mask == universe, None
    else:
        arcs = [None] * G.n
        pairs_by_source = [source_pairs(G, v, k, arcs) for v in range(G.n)]

        def accept(combo: tuple) -> tuple[bool, StrongWitness | None]:
            witness = _oracle_strong_feasible(
                G, [p for v in combo for p in pairs_by_source[v]])
            return witness is not None, witness
    subsets = chain.from_iterable(combinations(range(G.n), size)
                                  for size in range(G.n + 1))
    for tried, combo in enumerate(subsets, 1):
        covers, witness = accept(combo)
        if covers:
            return SolveResult(variant, k, len(combo), combo, witness, "exact",
                               SolveStats(tried, time.perf_counter() - start))
    raise AssertionError("the full vertex set always covers")


# ---------------------------------------------------------------------------
# Distance-k domination and the bound battery
# ---------------------------------------------------------------------------

def _balls(G: Graph, k: int) -> tuple[list[int], int]:
    """The radius-k balls of a connected graph as vertex bitmasks, and its
    diameter, the last radius at which a ball grows (``ball_layers``)."""
    balls = list(ball_layers(G))  # balls[r]: the radius-r balls
    d = len(balls) - 1
    return balls[min(k, d)], d


def _domination(balls: list[int]) -> int:
    """Least cover of the vertices by their radius-k ``balls``, which are
    their own coverer index: u lies in v's ball exactly when v lies in
    u's."""
    n = len(balls)
    return len(_min_cover(balls, balls, range(n), (1 << n) - 1))


def domination_number(G: Graph, k: int) -> int:
    """Minimum size of a set D with every vertex within distance k of D."""
    _check_args(G, k, WEAK_VERTEX_LIMIT)
    return _domination(_balls(G, k)[0])


@dataclass(frozen=True)
class Bounds:
    """General bounds at distance k; None marks an inapplicable bound.

    All three lower bounds (domination_lb, clique_lb, degree_lb) bound the
    weak optimum, hence the strong one too; see ``solve_exact``.
    domination_lb is the distance-k domination number when G has an edge,
    and 0 when it has none: a weak cover dominates at distance k only
    because every vertex has an edge to reach, and the one-vertex graph
    needs no source at all. Upper bounds trivial_ub and order_diameter_ub
    hold for the strong optimum. diameter_ub and half_ub are monitored
    claims: they are reported and compared but violations are findings,
    not errors.
    """

    k: int
    domination_lb: int
    degree_lb: int | None
    clique_lb: int
    trivial_ub: int
    order_diameter_ub: int | None
    diameter_ub: int | None
    half_ub: int | None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "k"}


def compute_bounds(G: Graph, k: int) -> Bounds:
    """Evaluate every general bound with its applicability predicate. The
    radius-k balls of ``_balls`` give the domination bound, and the radius
    at which they stop growing the diameter, so no BFS runs beyond the
    connectivity check."""
    _check_args(G, k, WEAK_VERTEX_LIMIT)
    if G.n < 1:
        raise VertexRangeError("bounds require at least one vertex")
    balls, d = _balls(G, k)
    min_deg = min((G.degree(v) for v in range(G.n)), default=0)
    dom = _domination(balls) if G.m else 0
    order_diameter_ub = G.n - k + 1 if k <= d else None
    diameter_ub = None
    if d >= 2:
        diameter_ub = G.n - (d + 1) + -(-(d + 1) // (2 * k + 1))
    half_ub = G.n // 2 if (k == 2 and min_deg >= 1) else None
    return Bounds(
        k=k,
        domination_lb=dom,
        degree_lb=_degree_lower_bound(G, k),
        clique_lb=_clique_lower_bound(G),
        trivial_ub=G.n - 1,
        order_diameter_ub=order_diameter_ub,
        diameter_ub=diameter_ub,
        half_ub=half_ub,
    )
