"""Edge-coverage semantics for both cover variants.

Weak coverage from a source u counts every edge that lies on any geodesic of
length at most k starting at u. Strong coverage fixes one geodesic per
(source, target) pair with 1 <= d(source, target) <= k; a vertex set is
strong-feasible when some choice of fixed geodesics covers every edge, and
the feasibility search here plays that benevolent chooser exactly.

Weak coverage is read from the radius-r balls of all vertices at once
(``ball_layers``): per edge ``coverer_index``, per source ``weak_masks``.
``weak_cover_set``, one source's depth-k BFS, is the reference definition.

Edge sets are integer bitmasks over the graph's canonical edge indices, and
so is each geodesic a solver may fix: only the paths a witness keeps are
rebuilt as vertex sequences (``mask_path``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable, Iterator, Sequence

from .graph import (
    GEODESIC_CAP,
    EnumerationCapError,
    Graph,
    _check_k,
    _check_vertex,
    bfs_distances,
    require_connected,
)


def path_edge_mask(G: Graph, path: tuple[int, ...]) -> int:
    return G.edge_mask(zip(path, path[1:]))


def weak_cover_set(G: Graph, u: int, k: int) -> int:
    """Bitmask of edges coverable from ``u`` at distance ``k`` (weak sense).

    The reference definition: the edges x-y with d(u, y) = d(u, x) + 1 <=
    k, read from ``bfs_distances(G, u, k)``, which stops at depth k. These
    are the edges of the arcs ``geodesic_dag(G, u, k)`` returns, at the
    cost of u's radius-k ball rather than of all of G. Answers on
    any graph, with the coverage within u's component; k must be an int
    >= 1 and u a vertex of G. Only ``naive_oracle`` calls it: the solvers
    and checks read the same masks from the balls (``weak_masks``,
    ``coverer_index``).
    """
    _check_k(k)
    dist = bfs_distances(G, u, k)  # checks the source
    mask = 0
    for x, dx in dist.items():
        if dx < k:
            for y in G.adj[x]:
                if dist.get(y) == dx + 1:
                    mask |= 1 << G.edge_id(x, y)
    return mask


def ball_layers(G: Graph) -> Iterator[list[int]]:
    """The radius-r balls of G as vertex bitmasks, for r = 0, 1, ..., up to
    the last radius at which a ball grows; beyond it every ball stays as
    it is. All balls grow at once: the radius-(r + 1) ball of v is the
    union of the radius-r balls of v and its neighbours, gathered in one
    pass over the edges, each end taking the other's ball. On a connected
    graph the last radius is the diameter, the first at which every ball
    is full, so no step is taken to see that they stopped."""
    full = (1 << G.n) - 1
    layer = [1 << v for v in range(G.n)]
    yield layer
    while not all(map(full.__eq__, layer)):
        grown = layer.copy()
        for x, y in G.edges:
            grown[x] |= layer[y]
            grown[y] |= layer[x]
        if grown == layer:  # G is disconnected
            return
        layer = grown
        yield layer


def coverer_index(G: Graph, k: int) -> list[int]:
    """Entry e: the bitmask of the sources that weakly cover edge e at
    distance k >= 1, from one pass over the radius-r balls B_r, r < k.

    u covers x-y exactly when u lies in B_r(x) XOR B_r(y) for some r < k.
    If u lies in B_r(x) only, then d(u, x) <= r < d(u, y), and as the two
    distances differ by at most 1, d(u, y) = d(u, x) + 1 <= k; conversely,
    when d(u, y) = d(u, x) + 1 <= k, r = d(u, x) serves. So the
    ``weak_cover_set`` of u is the set of edges whose entry holds u.
    """
    index = [0] * G.m
    for layer in islice(ball_layers(G), k):
        index = [c | (layer[x] ^ layer[y])
                 for c, (x, y) in zip(index, G.edges)]
    return index


def weak_masks(G: Graph, k: int) -> list[int]:
    """Entry v: the ``weak_cover_set`` of v at distance k >= 1, for every v
    from one pass over the radius-r balls B_r, r < k.

    As v lies in B_r(x) exactly when x lies in B_r(v), ``coverer_index``'s
    rule says v covers x-y exactly when, for some r < k, one end of x-y lies
    in B_r(v) and the other does not: the mask is the union over r < k of
    the edge boundary of B_r(v). A vertex set's boundary is the XOR of its
    vertices' incidence masks, as an edge with both ends inside cancels, so
    each shell B_r(v) - B_(r-1)(v) adds its vertices' incidence masks once.
    """
    incident = [0] * G.n
    for e, (x, y) in enumerate(G.edges):
        incident[x] |= 1 << e
        incident[y] |= 1 << e
    masks = [0] * G.n
    boundary = [0] * G.n
    inner = [0] * G.n
    for layer in islice(ball_layers(G), k):
        for v, ball in enumerate(layer):
            b = boundary[v]
            for s in _bits(ball & ~inner[v]):
                b ^= incident[s]
            boundary[v] = b
            masks[v] |= b
        inner = layer
    return masks


def _weak_cover(G: Graph, sources: set[int], k: int) -> bool:
    """Whether ``sources``, in range, weakly cover G at distance k >= 1:
    every entry of ``coverer_index`` meets their bitmask."""
    smask = sum(1 << u for u in sources)
    return all(c & smask for c in coverer_index(G, k))


def _sources(G: Graph, S: Iterable[int], k: int) -> set[int]:
    """The vertices of S, by the source policy of the three cover checks
    (``verify_weak_cover``, ``strong_feasible``, ``verify_strong_witness``):
    refuses a bad k, then a bad vertex, then a disconnected G when S is not
    empty and G has an edge. So an edgeless graph is covered by any S."""
    _check_k(k)
    sources = set(S)
    for u in sources:
        _check_vertex(G, u)
    if sources and G.m:
        require_connected(G)
    return sources


def verify_weak_cover(G: Graph, S: Iterable[int], k: int) -> bool:
    """True iff the weak cover sets of S jointly cover every edge, read
    from one ``coverer_index``: every edge has a weak coverer in S. S is
    read by ``_sources``."""
    return _weak_cover(G, _sources(G, S, k), k)


def mask_path(G: Graph, u: int, v: int, mask: int) -> tuple[int, ...]:
    """The geodesic from ``u`` to ``v`` whose edges are ``mask``.

    A geodesic is a simple path, so at each of its vertices at most two of
    its edges meet. It is walked from u, each step along the one edge of
    ``mask`` at the vertex that does not lead back.
    """
    path = [u]
    prev, x = -1, u
    for _ in range(mask.bit_count() - 1):
        for y in G.adj[x]:
            if y != prev and mask >> G.edge_id(x, y) & 1:
                break
        path.append(y)
        prev, x = x, y
    path.append(v)
    return tuple(path)


@dataclass(frozen=True)
class StrongWitness:
    """A per-pair fixed-geodesic assignment certifying a strong cover.

    ``assignments`` maps each chosen (source, target) pair to one geodesic
    starting at the source; at most one path per pair, in sorted order.
    ``covered`` is the union of all assigned path edges as a bitmask. Pairs
    whose paths would add no new edges may be omitted; omission never
    changes feasibility. Solvers build witnesses with ``of``; a parsed one
    keeps the pairs it reads, for ``verify_strong_witness`` to check.
    """

    assignments: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    covered: int

    @classmethod
    def of(cls, G: Graph,
           picks: Iterable[tuple[int, int, int]]) -> StrongWitness:
        """Fixes, for each pick (source, target, mask), the path
        ``mask_path`` rebuilds, sorted by pair; ``covered`` is the union of
        the masks."""
        assignments, covered = [], 0
        for u, v, m in picks:
            assignments.append(((u, v), mask_path(G, u, v, m)))
            covered |= m
        return cls(tuple(sorted(assignments)), covered)


def source_pairs(G: Graph, u: int, k: int,
                 arcs: list | None = None) -> tuple[tuple, ...]:
    """Geodesic choice sets for every pair (u, v) with 1 <= d(u, v) <= k:
    one (source, target, masks) triple per target, ascending, with the
    edge masks of its geodesics in the lexicographic order of their paths.
    Answers on any graph, with the pairs within u's component.

    One walk of u's radius-k ball, layer by layer, reads the rows of
    ``arcs``, an arc table of G: row x, filled on first use, lists (y, bit
    of the edge x-y) for the neighbours y of x, ascending. A solve builds
    one, ``[None] * G.n``, and passes it to every call, so each row is
    built once and a source costs as much as its radius-k ball; a fresh
    table is used when None.

    Layer d holds every geodesic of length d from u, as (last vertex,
    mask). A path of layer d - 1 extends along each arc x-y to a y in no
    earlier layer: such a y lies at distance d, so the path is a geodesic
    to y; and every geodesic of length d is such an extension, since its
    prefix is a geodesic. Paths extend in layer order over ascending
    neighbours, so a layer in lexicographic order yields the next in
    lexicographic order, and each target's masks come in the order of
    ``enumerate_geodesics``' paths. A path's mask is its prefix's mask plus
    one edge bit, read from the table.
    """
    _check_k(k)
    _check_vertex(G, u, "source")
    if arcs is None:
        arcs = [None] * G.n
    cap = GEODESIC_CAP
    eidx = G._eidx
    found: dict[int, list[int]] = {}
    inner = {u}  # the vertices of the layers before the current one
    layer = [(u, 0)]
    for _ in range(k):
        if not layer:  # the ball ended: any larger k gives the same pairs
            break
        reach: dict[int, list[int]] = {}
        nxt = []
        for x, mask in layer:
            row = arcs[x]
            if row is None:
                row = arcs[x] = [
                    (y, 1 << eidx[(x, y) if x < y else (y, x)])
                    for y in G.adj[x]]
            for y, bit in row:
                masks = reach.get(y)
                if masks is None:
                    if y in inner:
                        continue
                    masks = reach[y] = []
                elif len(masks) >= cap:
                    raise EnumerationCapError(
                        f"more than {cap} geodesics between {u} and {y}", cap)
                mask_y = mask | bit
                masks.append(mask_y)
                nxt.append((y, mask_y))
        found.update(reach)
        inner.update(reach)
        layer = nxt
    return tuple((u, v, tuple(found[v])) for v in sorted(found))


def _bits(x: int):
    """The indices of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def split_pairs(pairs: Iterable[tuple]) -> tuple[list, int, list]:
    """The picks (source, target, mask) of the one-path pairs, the union of
    their masks, and the pairs with a choice of paths."""
    ones, forced, choice = [], 0, []
    for p in pairs:
        u, t, masks = p
        if len(masks) == 1:
            ones.append((u, t, masks[0]))
            forced |= masks[0]
        else:
            choice.append(p)
    return ones, forced, choice


def augment(p: int, tips: Sequence[Iterable[int]], owner: dict[int, int],
            covered: int) -> int:
    """Grow the matching ``owner`` (edge index -> pair) by one edge for the
    unmatched pair ``p``, if an augmenting path allows it (Kuhn's method),
    and return the bit of the edge that became matched; 0 when there is no
    path.

    ``tips[q]`` lists the edges pair q can add; edges in ``covered`` are
    skipped. A breadth-first search walks alternating paths from p: to an
    edge its pair can add, then to the pair holding that edge. At an edge
    no pair holds it hands each edge on the path to the pair before it, so
    p gains an edge and every other matched pair keeps one. The search
    keeps its own queue, not recursion.
    """
    prev: dict[int, tuple[int, int] | None] = {p: None}
    queue = [p]
    for q in queue:
        for e in tips[q]:
            if covered >> e & 1:
                continue
            holder = owner.get(e)
            if holder is None:
                gained = e
                while True:
                    owner[e] = q
                    step = prev[q]
                    if step is None:
                        return 1 << gained
                    q, e = step
            if holder not in prev:
                prev[holder] = (q, e)
                queue.append(holder)
    return 0


class Matching:
    """Strong coverage as a matching of edges to choice pairs whose paths
    each add at most one edge, a tip, beyond the forced paths.

    A state is (base, owner, held): the union of the forced paths, a
    matching of tips outside ``base`` to pairs (edge -> pair id) and the
    bitmask of the matched edges. One path per pair covers ``base`` plus
    at most one edge per pair, so the most edges a choice covers is |base|
    plus a maximum matching (Kuhn's method; Hopcroft & Karp, 1973), and
    the deficiency, the edges outside ``base | held``, is m minus that.
    The pairs are feasible exactly when it is 0, with the forced paths and
    each matched edge's first path from its pair as witness; a tip keeps
    that path's pick (source, target, mask).

    ``extend`` keeps the matching maximum. The edges a new forced mask
    covers leave it, and augmenting starts only at the pairs this frees and
    the pairs added: an older free pair had no augmenting path, and its
    alternating paths now are ones it had before. A pair without one keeps
    none after later augmentations (Kuhn's lemma).
    """

    def __init__(self, G: Graph):
        self.G = G
        self.full = G.full_edge_mask()
        self.tips: list[dict[int, tuple[int, int, int]]] = []

    def add(self, choice: Iterable[tuple], forced: int) -> list[int]:
        """The ids of the choice pairs, tips read beyond ``forced``."""
        first = len(self.tips)
        for u, t, masks in choice:
            tip: dict[int, tuple[int, int, int]] = {}
            for m in masks:
                pick = (u, t, m)
                for e in _bits(m & ~forced):
                    tip.setdefault(e, pick)
            self.tips.append(tip)
        return list(range(first, len(self.tips)))

    def extend(self, state: tuple[int, dict[int, int], int], forced: int,
               ids: list[int], cut: int):
        """The state with the ``forced`` paths and the pairs ``ids`` added,
        or None when its deficiency exceeds ``cut``."""
        base, owner, held = state
        base |= forced
        freed = held & forced  # their pairs are free again
        held ^= freed
        owner = dict(owner)
        free = [owner.pop(e) for e in _bits(freed)] + ids if freed else ids
        for q in free:
            held |= augment(q, self.tips, owner, base)
        if (self.full & ~(base | held)).bit_count() > cut:
            return None
        return base, owner, held

    def witness(self, picks: list[tuple[int, int, int]],
                state) -> StrongWitness:
        """``picks`` and, per matched edge of ``state``, its pair's path."""
        return StrongWitness.of(self.G, picks + [
            self.tips[q][e] for e, q in state[1].items()])


def feasible_from_pairs(
    G: Graph, pairs: tuple[tuple, ...]
) -> StrongWitness | None:
    """Exact search for a covering choice of one geodesic per pair.

    Pairs with a unique geodesic (every length-1 pair, in particular) are
    assigned up front; assigning them is never harmful since path unions only
    grow. Their union is ``base``; the gain of a choice pair is the most
    edges one of its paths has outside ``base``.

    Matching leaf: when no gain exceeds 1, ``Matching`` decides, from the
    empty state with cut 0. At k = 2 this always holds: a length-2 path
    u-x-t starts on an edge of u's forced star. At k >= 3 it holds on a
    diameter-2 graph, and often at larger diameters too.

    Otherwise (some path adds two edges, as in the reduction gadgets) the
    search backtracks over uncovered edges in ascending canonical index,
    trying candidate (pair, geodesic-through-edge) assignments in
    lexicographic order. Failed states are memoized on the (covered-edge
    mask, assigned-pair mask) pair; the covered mask alone would be an
    unsound key because a state's remaining freedom depends on which pairs
    are spent.

    Capacity bound: every state's mask contains ``base``, so an unassigned
    pair adds at most its gain. A state whose uncovered edges outnumber the
    summed gains of its unassigned pairs fails, and is cut before the memo
    lookup. Only failing subtrees are cut, so the search reaches the same
    first success. The search keeps its own stack, one frame per assigned
    pair, so deep searches need no recursion.

    Both ways the witness is deterministic, and covers the full edge mask.

    ``pairs`` are a weak cover's, as ``strong_feasible`` and ``StrongTest``
    hand no other. Pairs that cover less still give None: the matching leaf
    leaves a deficiency, the backtracking search an edge with no candidate.
    """
    ones, base, choice = split_pairs(pairs)
    gain = [max((m & ~base).bit_count() for m in masks)
            for _, _, masks in choice]

    # any k and diameter where no choice path adds two edges beyond base (at
    # k = 3, 4: 1,856 of 4,115 strong solve_exact proofs on 251 graphs of
    # diameter >= 3, README); solve_exact(double_fan(15), 3, "strong") took
    # 0.002 s with this branch and 36 s without it (2-core Xeon VM)
    if max(gain, default=0) <= 1:
        matching = Matching(G)
        state = matching.extend((0, {}, 0), base,
                                matching.add(choice, base), 0)
        return None if state is None else matching.witness(ones, state)
    picks = _backtrack(G, base, choice, gain)
    return None if picks is None else StrongWitness.of(G, ones + picks)


def _backtrack(
    G: Graph, base: int, choice: Sequence[tuple], gain: list[int]
) -> list[tuple[int, int, int]] | None:
    """The picks (source, target, mask) of the first covering assignment,
    or None; ``feasible_from_pairs`` states the search."""
    full = G.full_edge_mask()
    # candidates per edge: (choice index, mask), lexicographic
    cands: list[list[tuple[int, int]]] = [[] for _ in range(G.m)]
    for ci, (_, _, masks) in enumerate(choice):
        for m in masks:
            for e in _bits(m):
                cands[e].append((ci, m))

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
                ci, m = options[i]
                mask = fmask | m
                abits = fbits | 1 << ci
                room = froom - gain[ci]
                break
            failed.add((fmask, fbits))
            frames.pop()
        else:
            return None
    picks = []
    for frame in frames:
        ci, m = frame[3][frame[4] - 1]
        u, t, _ = choice[ci]
        picks.append((u, t, m))
    return picks


class StrongTest:
    """The strong cover test of ``solve_exact`` at distance k, grown one
    source at a time, ascending: bounds, leaf test and witness.

    A source v's forced mask, the union of its one-path pairs in
    ``source_pairs(G, v, k)``, holds its star; one ``Matching`` grown by
    the added sources, tips read beyond each source's forced mask, keeps
    the deficiency of the prefix P. A choice pair's gain g is the most
    edges one of its paths has outside that mask: 1 <= g <= d - 1 at
    distance d, as its paths start on the star and end at a vertex with
    two geodesics, which no one-path pair's path meets. excess(v) sums
    g - 1 over v's choice pairs at distance 3 or more.

    P covers at most |base| + nu + excess(P) edges, base its forced union
    and nu its maximum matching: the edges a choice adds beyond base split
    among its pairs, each part at most g edges, and one edge per nonempty
    part is a matching. v alone covers at most cap(v) = |S_1(v)| + the sum
    of (d - 1) |S_d(v)| over 2 <= d <= k, S_d(v) its sphere at distance d;
    by parts, max(t - 1, 1) |B_t(v)| - 1 - the sum of |B_d(v)| over
    2 <= d < t, t <= k the last radius at which a ball grows. Adding w
    covers at most cap(w) more edges, as a choice for P + {w} splits into
    choices for P and for w.

    - Counting start: a set smaller than ``start`` = ceil(m / max cap)
      leaves an edge uncovered, so it is no strong cover.
    - Deficiency prune: ``extend`` cuts P + {v} when its deficiency
      exceeds its excess plus ``left`` times ``maxcap[v + 1]``, the
      largest cap from v + 1 on (0 past the last vertex). Only sets
      holding no strong cover are cut.
    - Leaf test: at ``left`` 0 ``extend`` returns the full set's witness,
      or None. Where the forced paths and the matching cover every edge,
      as always at excess 0 (cut 0), the matching gives it; otherwise
      ``feasible_from_pairs`` on the pairs ``_source`` kept decides.

    A prefix's state is (matching state, excess, vertices added); ``root``
    is the empty set's, or on an edgeless graph, where the empty set is
    accepted with no ``extend``, its witness.
    """

    def __init__(self, G: Graph, k: int):
        self.G, self.k = G, k
        self.matching = Matching(G)
        self.arcs = [None] * G.n
        self.sources: dict[int, tuple[int, list[int], list, int, tuple]] = {}
        self.root = ((0, {}, 0), 0, ()) if G.m else StrongWitness((), 0)
        *inner, outer = islice(ball_layers(G), k + 1)
        weight = max(len(inner) - 1, 1)
        caps = [weight * ball.bit_count() - 1 for ball in outer]
        for layer in inner[2:]:
            caps = [cap - ball.bit_count() for cap, ball in zip(caps, layer)]
        self.maxcap = list(accumulate(reversed(caps), max, initial=0))[::-1]
        self.start = -(-G.m // self.maxcap[0]) if G.m else 0

    def _source(self, v: int) -> tuple[int, list[int], list, int, tuple]:
        """v's forced mask, choice pair ids, one-path picks, excess, pairs."""
        if v not in self.sources:
            pairs = source_pairs(self.G, v, self.k, self.arcs)
            ones, forced, choice = split_pairs(pairs)
            excess = sum(max((m & ~forced).bit_count() for m in masks) - 1
                         for _, _, masks in choice if masks[0].bit_count() > 2)
            self.sources[v] = (forced, self.matching.add(choice, forced),
                               ones, excess, pairs)
        return self.sources[v]

    def extend(self, state, v: int, left: int):
        """The state of the prefix extended by v, or None when it is cut; at
        ``left`` 0 the full set's witness, or None."""
        forced, ids, _, own, _ = self._source(v)
        matched, excess, chosen = state
        excess += own
        chosen += (v,)
        matched = self.matching.extend(matched, forced, ids,
                                       left * self.maxcap[v + 1] + excess)
        if matched is None:
            return None
        if left:
            return matched, excess, chosen
        sources = [self.sources[u] for u in chosen]
        if matched[0] | matched[2] == self.matching.full:
            return self.matching.witness(
                [pick for source in sources for pick in source[2]], matched)
        return feasible_from_pairs(
            self.G, tuple(p for source in sources for p in source[4]))


def strong_feasible(
    G: Graph, S: Iterable[int], k: int
) -> StrongWitness | None:
    """Witness that S is a k-strong cover, or None: ``feasible_from_pairs``
    over the ``source_pairs`` of the sorted sources. S is read by
    ``_sources``; on an edgeless graph the witness is empty.

    Every strong cover is a weak cover, so a set that is no weak cover is
    refused first, read from balls, before a geodesic is enumerated;
    ``feasible_from_pairs`` is handed only weak covers.
    """
    sources = _sources(G, S, k)
    if not _weak_cover(G, sources, k):
        return None
    arcs = [None] * G.n
    return feasible_from_pairs(G, tuple(
        p for u in sorted(sources) for p in source_pairs(G, u, k, arcs)))


def verify_strong_witness(
    G: Graph, S: Iterable[int], k: int, witness: StrongWitness
) -> bool:
    """Check a witness: sources in S, one geodesic of length <= k per pair,
    consistent covered mask, and a path union equal to the edge set.

    A path is a geodesic of length <= k when it has d(u, v) + 1 vertices
    and d(u, v) <= k, so each source's ``bfs_distances`` stops at depth k:
    a target beyond it is rejected whatever its distance. S is read by
    ``_sources``.
    """
    sset = _sources(G, S, k)
    dist_cache: dict[int, dict[int, int]] = {}
    seen: set[tuple[int, int]] = set()
    union = 0
    for (u, v), path in witness.assignments:
        if u not in sset or (u, v) in seen:
            return False
        seen.add((u, v))
        if len(path) < 2 or path[0] != u or path[-1] != v:
            return False
        if u not in dist_cache:
            dist_cache[u] = bfs_distances(G, u, k)
        d = dist_cache[u].get(v)
        if d is None or len(path) != d + 1:
            return False
        for x, y in zip(path, path[1:]):
            try:
                union |= 1 << G.edge_id(x, y)
            except KeyError:
                return False
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
            try:
                covered |= 1 << G.edge_id(x, y)
            except KeyError:
                raise ValueError(
                    f"witness path for ({u}, {v}) uses non-edge ({x}, {y})"
                ) from None
        assignments.append(((u, v), path))
    assignments.sort()
    return StrongWitness(tuple(assignments), covered)
