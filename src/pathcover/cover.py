"""Edge-coverage semantics for both cover variants.

Weak coverage from a source u counts every edge that lies on any geodesic of
length at most k starting at u. Strong coverage fixes one geodesic per
(source, target) pair with 1 <= d(source, target) <= k; a vertex set is
strong-feasible when some choice of fixed geodesics covers every edge, and
the feasibility search here plays that benevolent chooser exactly.

Edge sets are integer bitmasks over the graph's canonical edge indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import (
    DEFAULT_GEODESIC_CAP,
    UNREACHABLE,
    DisconnectedGraphError,
    EnumerationCapError,
    Graph,
    VertexRangeError,
    bfs_distances,
    geodesic_dag,
)


def path_edge_mask(G: Graph, path: tuple[int, ...]) -> int:
    return G.edge_mask(zip(path, path[1:]))


def weak_cover_set(G: Graph, u: int, k: int) -> int:
    """Bitmask of edges coverable from ``u`` at distance ``k`` (weak sense).

    Exactly the undirected arcs of the depth-k geodesic DAG: the edges (x, y)
    with |d(u,x) - d(u,y)| = 1 whose deeper endpoint is within distance k.
    """
    mask = 0
    for x, y in geodesic_dag(G, u, k).arcs:
        mask |= 1 << G.edge_id(x, y)
    return mask


def verify_weak_cover(G: Graph, S: Iterable[int], k: int) -> bool:
    """True iff the weak cover sets of S jointly cover every edge."""
    mask = 0
    for u in set(S):
        if not 0 <= u < G.n:
            raise VertexRangeError(f"vertex {u} out of range for n={G.n}")
        mask |= weak_cover_set(G, u, k)
    return mask == G.full_edge_mask()


@dataclass(frozen=True)
class PairChoices:
    """Candidate fixed geodesics for one (source, target) pair."""

    source: int
    target: int
    paths: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]


@dataclass(frozen=True)
class StrongWitness:
    """A per-pair fixed-geodesic assignment certifying a strong cover.

    ``assignments`` maps each chosen (source, target) pair to one geodesic
    starting at the source; at most one path per pair. ``covered`` is the
    union of all assigned path edges as a bitmask. Pairs whose paths would
    add no new edges may be omitted; omission never changes feasibility.
    """

    assignments: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    covered: int


def source_pairs(
    G: Graph, u: int, k: int, cap: int = DEFAULT_GEODESIC_CAP
) -> tuple[PairChoices, ...]:
    """Geodesic choice sets for every pair (u, v) with 1 <= d(u, v) <= k,
    in ascending target order, from one BFS and one walk.

    The walk goes depth-first over ascending neighbours, from u, stepping
    only to a y with d(u, y) equal to the length of the path so far, and
    stops at depth k. Each step raises the distance by one, so every walk
    is a geodesic to its last vertex; and every geodesic of length at most
    k from u is such a walk, since each of its prefixes is a geodesic. The
    walk visits the paths in pre-order over ascending neighbours, so each
    target's paths come in lexicographic order, as ``enumerate_geodesics``
    gives them. A path's mask is its prefix's mask plus one edge bit.
    """
    dist = bfs_distances(G, u).dist
    if UNREACHABLE in dist:
        raise DisconnectedGraphError(
            "strong coverage requires a connected graph")
    found: dict[int, tuple[list, list]] = {}
    path, masks = [u], [0]
    stack = [iter(G.adj[u])]
    while stack:
        for y in stack[-1]:
            if dist[y] != len(path):
                continue
            mask = masks[-1] | 1 << G.edge_id(path[-1], y)
            paths_y, masks_y = found.setdefault(y, ([], []))
            if len(paths_y) >= cap:
                raise EnumerationCapError(
                    f"more than {cap} geodesics between {u} and {y}", cap)
            paths_y.append((*path, y))
            masks_y.append(mask)
            if len(path) < k:
                path.append(y)
                masks.append(mask)
                stack.append(iter(G.adj[y]))
                break
        else:
            stack.pop()
            path.pop()
            masks.pop()
    return tuple(PairChoices(u, v, tuple(found[v][0]), tuple(found[v][1]))
                 for v in sorted(found))


def feasible_from_pairs(
    G: Graph, pairs: tuple[PairChoices, ...]
) -> StrongWitness | None:
    """Exact search for a covering choice of one geodesic per pair.

    Pairs with a unique geodesic (every length-1 pair, in particular) are
    assigned up front; assigning them is never harmful since path unions only
    grow. The remaining search backtracks over uncovered edges in ascending
    canonical index, trying candidate (pair, geodesic-through-edge)
    assignments in lexicographic order, which makes the returned witness
    deterministic. Failed states are memoized on the (covered-edge mask,
    assigned-pair mask) pair; the covered mask alone would be an unsound key
    because a state's remaining freedom depends on which pairs are spent.

    Capacity bound: every state's mask contains ``base``, so an unassigned
    pair adds at most its gain, the most edges one of its paths has outside
    ``base``. A state whose uncovered edges outnumber the summed gains of
    its unassigned pairs fails, and is cut before the memo lookup. Only
    failing subtrees are cut, so the search reaches the same first success.
    The search keeps its own stack, one frame per assigned pair, so deep
    searches need no recursion.
    """
    full = G.full_edge_mask()
    forced = tuple(p for p in pairs if len(p.paths) == 1)
    base = 0
    for p in forced:
        base |= p.masks[0]
    choice = tuple(p for p in pairs if len(p.paths) > 1)
    potential = base
    for p in choice:
        for m in p.masks:
            potential |= m
    if potential != full:
        return None
    gain = [max((m & ~base).bit_count() for m in p.masks) for p in choice]

    # candidates per edge: (choice index, path index), lexicographic
    cands: list[list[tuple[int, int]]] = [[] for _ in range(G.m)]
    for ci, p in enumerate(choice):
        for pi, m in enumerate(p.masks):
            rest = m
            while rest:
                low = rest & -rest
                cands[low.bit_length() - 1].append((ci, pi))
                rest ^= low

    failed: set[tuple[int, int]] = set()
    # frame: [mask, assigned-pair bits, room, candidates, next candidate]
    frames: list[list] = []
    mask, abits, room = base, 0, sum(gain)
    while mask != full:
        rem = full & ~mask
        if rem.bit_count() <= room and (mask, abits) not in failed:
            frames.append([mask, abits, room,
                           cands[(rem & -rem).bit_length() - 1], 0])
        # descend into the next untried candidate of the deepest frame
        while frames:
            frame = frames[-1]
            fmask, fbits, froom, options, i = frame
            while i < len(options) and fbits >> options[i][0] & 1:
                i += 1
            if i < len(options):
                frame[4] = i + 1
                ci, pi = options[i]
                mask = fmask | choice[ci].masks[pi]
                abits = fbits | 1 << ci
                room = froom - gain[ci]
                break
            failed.add((fmask, fbits))
            frames.pop()
        else:
            return None
    assignments = [((p.source, p.target), p.paths[0]) for p in forced]
    covered = base
    for frame in frames:
        ci, pi = frame[3][frame[4] - 1]
        p = choice[ci]
        assignments.append(((p.source, p.target), p.paths[pi]))
        covered |= p.masks[pi]
    assignments.sort()
    return StrongWitness(tuple(assignments), covered)


def strong_feasible(
    G: Graph, S: Iterable[int], k: int
) -> StrongWitness | None:
    """Witness that S is a k-strong cover, or None when no choice works."""
    sources = sorted(set(S))
    for u in sources:
        if not 0 <= u < G.n:
            raise VertexRangeError(f"vertex {u} out of range for n={G.n}")
    if G.m == 0:
        return StrongWitness((), 0)
    pairs = []
    for u in sources:
        pairs.extend(source_pairs(G, u, k))
    return feasible_from_pairs(G, tuple(pairs))


def verify_strong_witness(
    G: Graph, S: Iterable[int], k: int, witness: StrongWitness
) -> bool:
    """Check a witness: sources in S, one geodesic of length <= k per pair,
    consistent covered mask, and a path union equal to the edge set."""
    sset = set(S)
    dist_cache: dict[int, tuple[int, ...]] = {}
    seen: set[tuple[int, int]] = set()
    union = 0
    for (u, v), path in witness.assignments:
        if u not in sset or (u, v) in seen:
            return False
        seen.add((u, v))
        if len(path) < 2 or path[0] != u or path[-1] != v:
            return False
        if u not in dist_cache:
            dist_cache[u] = bfs_distances(G, u).dist
        d = dist_cache[u][v]
        if d == UNREACHABLE or d > k or len(path) != d + 1:
            return False
        for x, y in zip(path, path[1:]):
            if not G.has_edge(x, y):
                return False
            union |= 1 << G.edge_id(x, y)
    if witness.covered != union:
        return False
    return union == G.full_edge_mask()


# ---------------------------------------------------------------------------
# Witness serialization: one line per assignment, "u v : p0 p1 ... pd".
# ---------------------------------------------------------------------------

def format_witness(witness: StrongWitness) -> str:
    lines = [
        f"{u} {v} : " + " ".join(str(x) for x in path)
        for (u, v), path in witness.assignments
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_witness(G: Graph, text: str) -> StrongWitness:
    assignments = []
    covered = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ValueError(f"bad witness line {raw!r}")
        try:
            u, v = (int(x) for x in head.split())
            path = tuple(int(x) for x in tail.split())
        except ValueError as exc:
            raise ValueError(f"bad witness line {raw!r}: {exc}") from None
        for x, y in zip(path, path[1:]):
            if not G.has_edge(x, y):
                raise ValueError(
                    f"witness path for ({u}, {v}) uses non-edge ({x}, {y})")
            covered |= 1 << G.edge_id(x, y)
        assignments.append(((u, v), path))
    assignments.sort()
    return StrongWitness(tuple(assignments), covered)
