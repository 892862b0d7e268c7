"""Exact and greedy optimizers for both cover variants, an independent
exhaustive oracle, distance-k domination, and the general bound battery.

All exact paths return the lexicographically least optimal vertex set, so
repeated runs are bit-identical apart from timing statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .cover import (
    PairChoices,
    StrongWitness,
    feasible_from_pairs,
    path_edge_mask,
    source_pairs,
    weak_cover_set,
)
from .graph import (
    UNREACHABLE,
    DisconnectedGraphError,
    Graph,
    bfs_distances,
    diameter,
    enumerate_geodesics,
    maximal_cliques,
    require_connected,
    simplicial_vertices,
)

WEAK = "weak"
STRONG = "strong"
VARIANTS = (WEAK, STRONG)


class SizeLimitError(RuntimeError):
    """Instance exceeds a configured exact-solver limit."""


@dataclass(frozen=True)
class SolverLimits:
    weak: int = 40
    strong: int = 34
    oracle: int = 12


DEFAULT_LIMITS = SolverLimits()


@dataclass(frozen=True)
class SolveStats:
    """Work and time of one solve.

    ``nodes`` counts, for the exact solvers, the nodes of the
    ``_least_cover`` subset search plus every node of the ``_min_cover``
    calls it makes (the optimum it starts from and the test of each added
    vertex); for greedy, the vertices picked; for the oracle, the subsets
    tried.
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


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# ---------------------------------------------------------------------------
# Branch-and-bound set cover over bitmasks, and the lexicographically least
# cover search built on it. Used for both exact variants, the distance-k
# domination number, and minimum vertex cover.
# ---------------------------------------------------------------------------

def _greedy_cover(
    masks: Sequence[int], candidates: Sequence[int], universe: int,
    cover: int = 0,
) -> list[int]:
    """Indices picked by taking, until ``universe`` is covered, the first
    candidate with the largest new coverage; the candidates must jointly
    cover what ``cover`` leaves."""
    chosen: list[int] = []
    while cover & universe != universe:
        rem = universe & ~cover
        best_i, best_gain = -1, 0
        for i in candidates:
            gain = (masks[i] & rem).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        chosen.append(best_i)
        cover |= masks[best_i]
    return chosen


def _min_cover(
    masks: Sequence[int],
    allowed: Iterable[int],
    universe: int,
    pre: int = 0,
    cap: int | None = None,
    nodes: list[int] | None = None,
) -> int | None:
    """Minimum number of masks from ``allowed`` whose union with ``pre``
    covers ``universe``. Returns None when impossible, or when ``cap`` is
    given and no cover strictly smaller than ``cap`` exists."""
    rem0 = universe & ~pre
    if rem0 == 0:
        return 0
    if cap is not None and cap <= 1:  # an uncovered edge needs a pick
        return None
    active = [i for i in allowed if masks[i] & rem0]
    total = pre
    for i in active:
        total |= masks[i]
    if total & universe != universe:
        return None
    coverers = {e: [i for i in active if masks[i] >> e & 1]
                for e in _bits(rem0)}

    greedy_size = len(_greedy_cover(masks, active, universe, pre))
    best_size = greedy_size if cap is None else min(greedy_size, cap)

    def dfs(cover: int, depth: int) -> None:
        nonlocal best_size
        if nodes is not None:
            nodes[0] += 1
        rem = universe & ~cover
        if not rem:
            best_size = depth
            return
        max_gain = 0
        for i in active:
            gain = (masks[i] & rem).bit_count()
            if gain > max_gain:
                max_gain = gain
        if max_gain == 0:
            return
        lower = -(-rem.bit_count() // max_gain)
        if depth + lower >= best_size:
            return
        e = min(_bits(rem), key=lambda b: len(coverers[b]))
        options = sorted(coverers[e],
                         key=lambda i: -(masks[i] & rem).bit_count())
        for i in options:
            if depth + 1 >= best_size:
                break
            dfs(cover | masks[i], depth + 1)

    dfs(pre, 0)
    if cap is not None and best_size == cap:
        return None
    return best_size


def _least_cover(
    G: Graph,
    masks: Sequence[int],
    universe: int,
    accept: Callable[[tuple[int, ...]], bool] | None = None,
    nodes: list[int] | None = None,
) -> tuple[int, ...]:
    """Lexicographically least vertex set of least size whose masks cover
    ``universe`` and that ``accept`` takes (every covering set when
    ``accept`` is None). Sizes ascend from the optimum of ``_min_cover``;
    each size walks its sets in lexicographic order.

    Twin prefixes: u < v are twins when N(u) - {v} == N(v) - {u}, which
    covers true and false twins, and swapping them is an automorphism of G.
    ``masks[v]`` follows v under automorphisms, as weak coverage, the
    incident edges of v and strong covers do (automorphisms map geodesics
    to geodesics). So a set holding v but not its twin u maps to a set of
    the same size, covering and accepted alike, that is lexicographically
    smaller: the least accepted set takes a prefix of every twin class, and
    the search takes v only when v's nearest lower twin is already chosen.

    Prune: v is added only when the masks after v can finish the cover in
    the picks left, so only subtrees that hold no covering set are cut.
    Every strong cover is a weak cover, so this is sound for strong too.
    """
    n = len(masks)
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
    found: tuple[int, ...] | None = None

    def search(start_v: int, vmask: int, cov: int, need: int) -> None:
        nonlocal found
        if nodes is not None:
            nodes[0] += 1
        if need == 0:
            chosen = tuple(_bits(vmask))
            if accept is None or accept(chosen):
                found = chosen
            return
        for v in range(start_v, n - need + 1):
            if twin_bit[v] & ~vmask:
                continue
            if _min_cover(masks, range(v + 1, n), universe, cov | masks[v],
                          cap=need, nodes=nodes) is None:
                continue
            search(v + 1, vmask | 1 << v, cov | masks[v], need - 1)
            if found is not None:
                return

    for size in range(_min_cover(masks, range(n), universe, nodes=nodes),
                      n + 1):
        search(0, 0, 0, size)
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
    span; simplicial vertices belong to exactly one maximal clique, so the
    cliques never share them."""
    simp = simplicial_vertices(G)
    if not simp:
        return 0
    bound = 0
    for clique in maximal_cliques(G):
        s = sum(1 for v in clique if v in simp)
        if s >= 2:
            bound += s - 1
    return bound


def _degree_lower_bound(G: Graph, k: int) -> int | None:
    """ceil(m (D-2) / (D ((D-1)^k - 1))) for maximum degree D >= 3; a single
    source covers at most D ((D-1)^k - 1) / (D-2) edges weakly."""
    if G.n == 0:
        return None
    deg_max = max((G.degree(v) for v in range(G.n)), default=0)
    if deg_max < 3:
        return None
    num = G.m * (deg_max - 2)
    den = deg_max * ((deg_max - 1) ** k - 1)
    return -(-num // den)


def solve_exact(
    G: Graph, k: int, variant: str, limits: SolverLimits = DEFAULT_LIMITS
) -> SolveResult:
    """Provably optimal cover of the requested variant: ``_least_cover``
    over the per-vertex weak coverage masks. Weak takes the first covering
    set; strong takes the first one the exact fixed-geodesic search proves
    feasible, with its witness, building a vertex's source pairs the first
    time it is in such a set. Either way the set is the lexicographically
    least optimum.

    Strong sizes ascend from the weak optimum: a strong cover is a weak
    cover, so no smaller size can succeed. The other lower bounds of
    ``compute_bounds`` never start higher: a weak cover reaches an edge at
    every vertex within distance k, so it dominates at distance k; an edge
    joining two simplicial vertices of one clique lies only on geodesics
    that start at its endpoints, so a weak cover holds all but one
    simplicial vertex of each such clique; and the degree bound counts the
    edges one source covers weakly.
    """
    _check_variant(variant)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    limit = limits.weak if variant == WEAK else limits.strong
    if G.n > limit:
        raise SizeLimitError(
            f"n={G.n} exceeds the {variant} exact-solver limit {limit}")
    require_connected(G)
    start = time.perf_counter()
    nodes = [0]
    universe = G.full_edge_mask()
    if universe == 0:
        return SolveResult(variant, k, 0, (), None, "exact",
                           SolveStats(0, time.perf_counter() - start))
    masks = [weak_cover_set(G, v, k) for v in range(G.n)]
    pairs_by_source: dict[int, tuple[PairChoices, ...]] = {}
    witness: StrongWitness | None = None

    def feasible(chosen: tuple[int, ...]) -> bool:
        nonlocal witness
        pair_list: list[PairChoices] = []
        for v in chosen:
            if v not in pairs_by_source:
                pairs_by_source[v] = source_pairs(G, v, k)
            pair_list.extend(pairs_by_source[v])
        witness = feasible_from_pairs(G, tuple(pair_list))
        return witness is not None

    chosen = _least_cover(G, masks, universe,
                          feasible if variant == STRONG else None, nodes)
    return SolveResult(variant, k, len(chosen), chosen, witness, "exact",
                       SolveStats(nodes[0], time.perf_counter() - start))


# ---------------------------------------------------------------------------
# Greedy heuristics
# ---------------------------------------------------------------------------

def _greedy_weak(G: Graph, k: int, start: float) -> SolveResult:
    masks = [weak_cover_set(G, v, k) for v in range(G.n)]
    chosen = _greedy_cover(masks, range(G.n), G.full_edge_mask())
    return SolveResult(WEAK, k, len(chosen), tuple(sorted(chosen)), None,
                       "heuristic",
                       SolveStats(len(chosen), time.perf_counter() - start))


def _greedy_pair_gain(
    pairs: tuple[PairChoices, ...], cover: int
) -> tuple[int, list]:
    """Coverage gained by greedily assigning one path per pair, and the
    assignments that gain it; pairs that would add nothing get no path."""
    gained = 0
    picks = []
    for p in pairs:
        best_i, best_gain = -1, 0
        for i, m in enumerate(p.masks):
            gain = (m & ~(cover | gained)).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        if best_i >= 0:
            gained |= p.masks[best_i]
            picks.append(((p.source, p.target), p.paths[best_i]))
    return gained, picks


def _greedy_strong(G: Graph, k: int, start: float) -> SolveResult:
    """Greedy over sources, each assigning one path per pair greedily. The
    assignments cover every edge, so they are the witness. The loop ends:
    a chosen vertex's length-1 pairs cover all its edges, so an uncovered
    edge has two unchosen endpoints, each with a positive gain.

    A vertex keeps its score until the edges a pick newly covers meet its
    kept ``gained``. ``_greedy_pair_gain`` reads ``cover`` only through
    ``m & ~(cover | gained)``. Take the pairs in order, with ``gained`` so
    far as before: the path a pair took lies in the kept ``gained``, so it
    misses the new edges and keeps its gain, and every other path's gain
    can only fall; so the pair takes the same first path of largest gain,
    or none when all were 0. Hence ``gained``, the picks and the gain
    outside ``cover`` come out as before, and so do the argmax and its
    first-vertex tie-break. Scores can rise when the new edges meet
    ``gained`` (a pair whose best path was spent may switch to one that
    adds more), so they are not treated as upper bounds.
    """
    universe = G.full_edge_mask()
    pairs_by_source = [source_pairs(G, v, k) for v in range(G.n)]
    # (gain, gained, picks) per vertex, None when it must be re-scored
    scores: list[tuple[int, int, list] | None] = [None] * G.n
    chosen: set[int] = set()
    assignments = []
    cover = 0
    while cover != universe:
        best = -1
        for v in range(G.n):
            if v in chosen:
                continue
            if scores[v] is None:
                gained, picks = _greedy_pair_gain(pairs_by_source[v], cover)
                scores[v] = ((gained & ~cover).bit_count(), gained, picks)
            if best < 0 or scores[v][0] > scores[best][0]:
                best = v
        _, gained, picks = scores[best]
        new = gained & ~cover
        chosen.add(best)
        cover |= gained
        assignments.extend(picks)
        for v in range(G.n):
            if scores[v] is not None and scores[v][1] & new:
                scores[v] = None
    witness = StrongWitness(tuple(sorted(assignments)), cover)
    return SolveResult(STRONG, k, len(chosen), tuple(sorted(chosen)), witness,
                       "heuristic",
                       SolveStats(len(chosen), time.perf_counter() - start))


def solve_greedy(G: Graph, k: int, variant: str) -> SolveResult:
    """Valid cover by greedy max-new-coverage selection; never better than
    the exact optimum, often equal on the small instances here."""
    _check_variant(variant)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    require_connected(G)
    start = time.perf_counter()
    if G.m == 0:
        return SolveResult(variant, k, 0, (), None, "heuristic",
                           SolveStats(0, time.perf_counter() - start))
    if variant == WEAK:
        return _greedy_weak(G, k, start)
    return _greedy_strong(G, k, start)


# ---------------------------------------------------------------------------
# Naive oracle: exhaustive subset enumeration in ascending size, with strong
# feasibility decided by exhaustive per-pair geodesic choice enumeration.
# Deliberately a different algorithmic skeleton from solve_exact.
# ---------------------------------------------------------------------------

def _oracle_weak_mask(G: Graph, u: int, k: int) -> int:
    """Weak coverage from ``u`` by brute-force geodesic enumeration."""
    dist = bfs_distances(G, u).dist
    mask = 0
    for v in range(G.n):
        if v != u and 1 <= dist[v] <= k:
            for path in enumerate_geodesics(G, u, v):
                mask |= path_edge_mask(G, path)
    return mask


def _oracle_strong_feasible(
    G: Graph, pair_list: list[PairChoices]
) -> StrongWitness | None:
    """Try every combination of one geodesic per pair, in pair order, with
    memoization on (pair index, covered mask) only."""
    full = G.full_edge_mask()
    chosen: list[int] = []
    seen: set[tuple[int, int]] = set()

    def walk(idx: int, mask: int) -> bool:
        if mask == full:
            return True
        if idx == len(pair_list):
            return False
        if (idx, mask) in seen:
            return False
        for pi, pmask in enumerate(pair_list[idx].masks):
            chosen.append(pi)
            if walk(idx + 1, mask | pmask):
                return True
            chosen.pop()
        seen.add((idx, mask))
        return False

    if not walk(0, 0):
        return None
    assignments = []
    covered = 0
    for idx, pi in enumerate(chosen):
        p = pair_list[idx]
        assignments.append(((p.source, p.target), p.paths[pi]))
        covered |= p.masks[pi]
    assignments.sort()
    return StrongWitness(tuple(assignments), covered)


def naive_oracle(
    G: Graph, k: int, variant: str, limits: SolverLimits = DEFAULT_LIMITS
) -> SolveResult:
    """Reference optimum by exhaustive enumeration; hard-limited in size."""
    _check_variant(variant)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if G.n > limits.oracle:
        raise SizeLimitError(
            f"n={G.n} exceeds the oracle limit {limits.oracle}")
    require_connected(G)
    start = time.perf_counter()
    universe = G.full_edge_mask()
    tried = 0
    if variant == WEAK:
        masks = [_oracle_weak_mask(G, v, k) for v in range(G.n)]
        for size in range(G.n + 1):
            for combo in combinations(range(G.n), size):
                tried += 1
                mask = 0
                for v in combo:
                    mask |= masks[v]
                if mask == universe:
                    return SolveResult(
                        WEAK, k, size, combo, None, "exact",
                        SolveStats(tried, time.perf_counter() - start))
    else:
        pairs_by_source = [source_pairs(G, v, k) for v in range(G.n)]
        for size in range(G.n + 1):
            for combo in combinations(range(G.n), size):
                tried += 1
                pair_list: list[PairChoices] = []
                for v in combo:
                    pair_list.extend(pairs_by_source[v])
                witness = _oracle_strong_feasible(G, pair_list)
                if witness is not None:
                    return SolveResult(
                        STRONG, k, size, combo, witness, "exact",
                        SolveStats(tried, time.perf_counter() - start))
    raise AssertionError("the full vertex set always covers")


# ---------------------------------------------------------------------------
# Distance-k domination and the bound battery
# ---------------------------------------------------------------------------

def domination_number(
    G: Graph, k: int, limits: SolverLimits = DEFAULT_LIMITS
) -> int:
    """Minimum size of a set D with every vertex within distance k of D."""
    if G.n > limits.weak:
        raise SizeLimitError(
            f"n={G.n} exceeds the domination solver limit {limits.weak}")
    require_connected(G)
    if G.n == 0:
        return 0
    balls = []
    for v in range(G.n):
        dist = bfs_distances(G, v).dist
        mask = 0
        for x in range(G.n):
            if dist[x] != UNREACHABLE and dist[x] <= k:
                mask |= 1 << x
        balls.append(mask)
    universe = (1 << G.n) - 1
    return _min_cover(balls, range(G.n), universe)


@dataclass(frozen=True)
class Bounds:
    """General bounds at distance k; None marks an inapplicable bound.

    All three lower bounds (domination_lb, clique_lb, degree_lb) bound the
    weak optimum, hence the strong one too; see ``solve_exact``.
    Upper bounds trivial_ub and order_diameter_ub hold for the strong
    optimum. diameter_ub and half_ub are monitored claims: they are reported
    and compared but violations are findings, not errors.
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
        return {
            "domination_lb": self.domination_lb,
            "degree_lb": self.degree_lb,
            "clique_lb": self.clique_lb,
            "trivial_ub": self.trivial_ub,
            "order_diameter_ub": self.order_diameter_ub,
            "diameter_ub": self.diameter_ub,
            "half_ub": self.half_ub,
        }


def compute_bounds(
    G: Graph, k: int, limits: SolverLimits = DEFAULT_LIMITS
) -> Bounds:
    """Evaluate every general bound with its applicability predicate."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    require_connected(G)
    if G.n < 1:
        raise DisconnectedGraphError("bounds require at least one vertex")
    d = diameter(G)
    min_deg = min((G.degree(v) for v in range(G.n)), default=0)
    dom = domination_number(G, k, limits)
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
