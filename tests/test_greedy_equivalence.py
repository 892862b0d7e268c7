"""Strong and weak greedy against full-rescan references.

``_reference_greedy_strong`` is the strong greedy as it was before the
heap: every round re-scores each vertex whose kept gain was invalidated,
path by path, and scans all n vertices for the first one of largest gain.
``solve_greedy(G, k, "strong")`` must return the same set, ``stats.nodes``
and witness assignments, path for path. The reference reads its paths
from ``enumerate_geodesics``, not from the solver's rebuild of a mask.
``tests/data/greedy_sets.json`` reaches only 20 vertices and pins no
witness, so the benchmark's topologies are checked here too.

The scoring tests check what the heap orders vertices by and what a
pick reads: the upper bound is never below the walk's gain, never rises
as the cover grows, and is never above the bound over every pair at
distance d >= 2; the weak-mask count a vertex enters the heap with is
never below the gain and never rises either; and a walk's gain and
picks stay the same when the cover grows by edges outside that gain, so
a vertex picked reads its witness paths from its kept walk. The work
ceilings count the sources whose geodesics strong greedy enumerates, the
pair walks it runs and the path scans those make.

The weak greedy ``_greedy_cover`` is lazy; it must pick what
``greedy_cover_scan``, a scan of every mask each round, picks.
"""

import random
from functools import reduce
from operator import or_

import pytest

from pathcover import (
    enumerate_geodesics,
    solve_greedy,
    verify_strong_witness,
)
from pathcover import solve
from pathcover.cover import source_pairs, weak_masks
from pathcover.solve import (
    _greedy_bound,
    _greedy_cover,
    _greedy_pair_gain,
    _greedy_source,
)
from conftest import family, random_connected_graph
from reference import greedy_cover_scan

# The topologies of the benchmark's greedy-scale workload, plus crown(12)
GREEDY_TOPOLOGIES = (
    ("hypercube", (6,)),
    ("butterfly", (4,)),
    ("benes", (4,)),
    ("silicate", (3,)),
    ("sierpinski", (4,)),
    ("sierpinski", (5,)),
    ("sierpinski_gasket", (5,)),
    ("enhanced_butterfly", (4,)),
    ("generalized_petersen", (50, 7)),
    ("crown", (20,)),
    ("crown", (12,)),
)
RANDOM_GRAPHS = 100


def _reference_pair_gain(G, pairs, cover):
    gained = 0
    picks = []
    for u, t, masks in pairs:
        best_i, best_gain = -1, 0
        for i, m in enumerate(masks):
            gain = (m & ~(cover | gained)).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        if best_i >= 0:
            gained |= masks[best_i]
            path = enumerate_geodesics(G, u, t)[best_i]
            picks.append(((u, t), path))
    return gained, picks


def _reference_greedy_strong(G, k):
    """(set, number of picks, assignments) of the full-rescan greedy."""
    universe = G.full_edge_mask()
    pairs_by_source = [source_pairs(G, v, k) for v in range(G.n)]
    scores = [None] * G.n
    chosen = set()
    assignments = []
    cover = 0
    while cover != universe:
        best = -1
        for v in range(G.n):
            if v in chosen:
                continue
            if scores[v] is None:
                gained, picks = _reference_pair_gain(G, pairs_by_source[v],
                                                     cover)
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
    return tuple(sorted(chosen)), len(chosen), tuple(sorted(assignments))


def _assert_matches_reference(G, k):
    result = solve_greedy(G, k, "strong")
    assert (result.set, result.stats.nodes, result.witness.assignments) == \
        _reference_greedy_strong(G, k)
    assert verify_strong_witness(G, result.set, k, result.witness)


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize(
    "name, params", GREEDY_TOPOLOGIES,
    ids=[f"{f}{p}" for f, p in GREEDY_TOPOLOGIES])
def test_greedy_strong_matches_reference_on_topologies(name, params, k):
    _assert_matches_reference(family(name, *params), k)


def test_greedy_strong_matches_reference_on_random_graphs():
    for seed in range(RANDOM_GRAPHS):
        rng = random.Random(seed)
        G = random_connected_graph(rng, max_n=rng.randint(4, 24),
                                   edge_prob=rng.choice((0.15, 0.3, 0.5)))
        for k in (1, 2, 3, 4, G.n):
            _assert_matches_reference(G, k)


@pytest.mark.parametrize("name, params, most_pairs, picks, most_scans", [
    ("sierpinski", (5,), 90, 90, None),
    ("crown", (20,), 40, 17, 342),
    ("hypercube", (6,), 64, 15, None),
], ids=["sierpinski(5)", "crown(20)", "hypercube(6)"])
def test_greedy_strong_work_ceilings(monkeypatch, name, params, most_pairs,
                                     picks, most_scans):
    """Strong greedy enumerates a source's geodesics only once its
    weak-mask count reaches the top of the heap, and walks a source's
    pairs only once its refreshed bound does; a pick reads the walk it
    kept. At k = 2, ``sierpinski(5)`` runs ``source_pairs`` for 90 of its
    243 sources, and each graph makes one ``_greedy_pair_gain`` walk per
    pick. ``crown(20)``'s walks make 342 ``_best_path`` scans; a second
    scan of the choice pairs per scoring makes 568. Exact counts, checked
    as ceilings."""
    calls = {"source_pairs": 0, "_greedy_pair_gain": 0, "_best_path": 0}

    def counted(fn):
        def call(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return call

    for fn in (solve.source_pairs, solve._greedy_pair_gain,
               solve._best_path):
        monkeypatch.setattr(solve, fn.__name__, counted(fn))
    result = solve_greedy(family(name, *params), 2, "strong")
    assert calls["source_pairs"] <= most_pairs, calls
    assert calls["_greedy_pair_gain"] <= picks, calls
    if most_scans is not None:
        assert calls["_best_path"] <= most_scans, calls
    assert result.stats.nodes == picks


def test_greedy_gain_can_rise_as_the_cover_grows():
    """Why an invalidated gain is replaced by a bound, not kept as one.
    Edges 0..3 as bits; the first pair has paths {0, 1} and {2, 3}, the
    second one path {0, 1}. With nothing covered the first pair takes
    {0, 1} and the second adds nothing: gain 2. Once edge 0 is covered the
    first pair takes {2, 3} and the second adds edge 1: gain 3."""
    pairs = ((0, 1, (0b0011, 0b1100)),
             (0, 4, (0b0011,)))
    gained, picks = _greedy_pair_gain(pairs, 0)
    assert (gained, picks) == (0b0011, [(0, 1, 0b0011)])
    gained, picks = _greedy_pair_gain(pairs, 0b0001)
    assert gained == 0b1110
    assert picks == [(0, 1, 0b1100), (0, 4, 0b0011)]


def _all_pairs_bound(pairs, cover):
    """The bound over every pair: the edges at the source outside
    ``cover`` plus, per pair at distance d >= 2, min(d - 1, the edges of
    its paths' union outside ``cover`` and away from the source)."""
    star = 0
    tails = []
    for _, _, masks in pairs:
        union = reduce(or_, masks)
        d = masks[0].bit_count()
        if d == 1:
            star |= union
        else:
            tails.append((d - 1, union))
    off_star = ~(cover | star)
    return (star & ~cover).bit_count() + sum(
        min(d, (union & off_star).bit_count()) for d, union in tails)


def test_greedy_bound_holds_and_never_rises():
    """Covers grow from random vertices' random paths; at every step the
    bound of each unchosen vertex is at least its exact gain outside the
    cover, at most its bound at the step before, and at most the bound
    over every pair at distance d >= 2. The vertex's weak-mask count
    outside the cover, the key it enters the heap with, is likewise at
    least its exact gain and never rises."""
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        G = random_connected_graph(rng, max_n=14,
                                   edge_prob=rng.choice((0.2, 0.35, 0.5)))
        k = 1 + seed % 4
        pairs_by_source = [source_pairs(G, v, k) for v in range(G.n)]
        sources = [_greedy_source(pairs) for pairs in pairs_by_source]
        weak = weak_masks(G, k)
        chosen = set()
        cover = 0
        last = [None] * G.n
        last_weak = [None] * G.n
        for v in rng.sample(range(G.n), G.n):
            for w in range(G.n):
                if w in chosen:
                    continue
                gained, _ = _greedy_pair_gain(pairs_by_source[w], cover)
                bound = _greedy_bound(*sources[w], cover)
                assert not gained & cover
                assert bound >= gained.bit_count(), (seed, w)
                assert bound <= _all_pairs_bound(pairs_by_source[w],
                                                 cover), (seed, w)
                if last[w] is not None:
                    assert bound <= last[w], (seed, w)
                last[w] = bound
                weak_bound = (weak[w] & ~cover).bit_count()
                assert weak_bound >= gained.bit_count(), (seed, w)
                if last_weak[w] is not None:
                    assert weak_bound <= last_weak[w], (seed, w)
                last_weak[w] = weak_bound
                checked += 1
            chosen.add(v)
            for _, _, masks in pairs_by_source[v]:
                if rng.random() < 0.5:
                    cover |= rng.choice(masks)
    assert checked > 1000


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_greedy_kept_picks_hold_while_the_cover_misses_the_gain(k):
    """On random covers, each a random subset of the edges, a source's
    walk gives the same gain and the same picks after the cover grows by
    random edges outside that gain: the fact that lets a pick read its
    witness paths from the walk that scored it. Random graphs, and graphs
    where most pairs have a choice of paths."""
    graphs = [family("crown", 6), family("hypercube", 4),
              family("complete_bipartite", 3, 4)]
    rng = random.Random(k)
    for _ in range(40):
        graphs.append(random_connected_graph(
            rng, max_n=rng.randint(4, 16),
            edge_prob=rng.choice((0.2, 0.35, 0.5))))
    grown = 0
    for G in graphs:
        for v in range(G.n):
            pairs = source_pairs(G, v, k)
            for _ in range(5):
                cover = rng.getrandbits(G.m) & rng.getrandbits(G.m)
                gained, picks = _greedy_pair_gain(pairs, cover)
                new = rng.getrandbits(G.m) & ~gained & ~cover
                grown += new != 0
                assert _greedy_pair_gain(pairs, cover | new) == \
                    (gained, picks), (G, v, cover, new)
    assert grown > 1000


def _random_masks(rng):
    """A mask list over a small universe with many equal gains, zero masks
    and masks reaching outside the universe, and a universe they cover."""
    width = rng.randint(1, 10)
    masks = [rng.getrandbits(width) & rng.getrandbits(width)
             for _ in range(rng.randint(1, 14))]
    masks += [0] * rng.randint(0, 3)
    masks += rng.sample(masks, rng.randint(0, len(masks)))
    rng.shuffle(masks)
    union = reduce(or_, masks)
    return masks, union & rng.getrandbits(width + 1)


def test_lazy_greedy_cover_equals_the_scan():
    for seed in range(2000):
        rng = random.Random(seed)
        masks, universe = _random_masks(rng)
        picks = greedy_cover_scan(masks, universe)
        assert _greedy_cover(masks, universe) == picks, seed
        for most in range(len(picks) + 2):
            assert _greedy_cover(masks, universe, most) == \
                greedy_cover_scan(masks, universe, most), (seed, most)


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize(
    "name, params", GREEDY_TOPOLOGIES,
    ids=[f"{f}{p}" for f, p in GREEDY_TOPOLOGIES])
def test_greedy_weak_matches_scan_on_topologies(name, params, k):
    G = family(name, *params)
    result = solve_greedy(G, k, "weak")
    picks = greedy_cover_scan(weak_masks(G, k), G.full_edge_mask())
    assert (result.set, result.stats.nodes) == (tuple(sorted(picks)),
                                                len(picks))
