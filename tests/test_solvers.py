import random
import re
import time
from functools import reduce
from itertools import combinations, product
from math import comb
from operator import or_

import pytest

from pathcover import (
    SizeLimitError,
    StrongWitness,
    VertexRangeError,
    bfs_distances,
    build_graph,
    claims_registry,
    compute_bounds,
    diameter,
    domination_number,
    enumerate_geodesics,
    is_connected,
    naive_oracle,
    solve_exact,
    solve_greedy,
    strong_feasible,
    verify_strong_witness,
    verify_weak_cover,
    vertex_cover_exact,
)
from pathcover import cover
from pathcover.cover import (
    StrongTest,
    coverer_index,
    feasible_from_pairs,
    path_edge_mask,
    source_pairs,
    weak_masks,
)
from pathcover.solve import _branch_coverers, _least_cover, _min_cover
from conftest import family, random_connected_graph


def _transpose(index, n):
    """The masks of n sources from their coverer ``index``: mask v holds
    element e when entry e holds v."""
    masks = [0] * n
    for e, c in enumerate(index):
        for v in range(n):
            if c >> v & 1:
                masks[v] |= 1 << e
    return masks


@pytest.mark.parametrize(
    "name,params,variant,expect",
    [
        ("path", (7,), "strong", 2),
        ("path", (10,), "strong", 3),
        ("complete_bipartite", (2, 3), "strong", 2),
        ("complete_bipartite", (2, 3), "weak", 1),
        ("generalized_petersen", (5, 2), "strong", 3),
        ("cycle", (5,), "strong", 2),
        ("hypercube", (3,), "strong", 2),
        ("crown", (3,), "weak", 2),
        ("crown", (3,), "strong", 2),
        ("silicate", (1,), "strong", 6),
    ],
)
def test_exact_pins(name, params, variant, expect):
    G = family(name, *params)
    result = solve_exact(G, 2, variant)
    assert result.optimum == expect
    assert result.status == "exact"
    if G.n <= 12:
        assert naive_oracle(G, 2, variant).optimum == expect


def test_exact_result_validates():
    G = family("butterfly", 2)
    weak = solve_exact(G, 2, "weak")
    assert verify_weak_cover(G, weak.set, 2)
    strong = solve_exact(G, 2, "strong")
    assert strong.witness is not None
    assert strong_feasible(G, strong.set, 2) is not None


def test_exact_set_is_lexicographically_least():
    # C_6 at k=2: {0, 1} fails, {0, 2} works for both variants
    G = family("cycle", 6)
    assert solve_exact(G, 2, "weak").set == (0, 2)
    assert solve_exact(G, 2, "strong").set == (0, 2)


def test_exact_and_oracle_sets_agree(rng):
    for _ in range(15):
        G = random_connected_graph(rng, max_n=7)
        for k in (1, 2):
            for variant in ("weak", "strong"):
                a = solve_exact(G, k, variant)
                b = naive_oracle(G, k, variant)
                assert a.optimum == b.optimum
                assert a.set == b.set  # both lexicographically least
                # the oracle counts the subsets before its set, by size and
                # then in combinations order, and the set itself
                size = len(b.set)
                assert b.stats.nodes == sum(
                    comb(G.n, s) for s in range(size)) + 1 + list(
                        combinations(range(G.n), size)).index(b.set)


def twin_classes(G):
    """Classes of vertices u, v with N(u) - {v} == N(v) - {u}, ascending."""
    classes = []
    for v in range(G.n):
        for cls in classes:
            u = cls[0]
            if set(G.adj[u]) - {v} == set(G.adj[v]) - {u}:
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


TWIN_RICH_CASES = [
    ("complete_bipartite", (3, 4), (1, 2, 3), True),
    ("complete_bipartite", (4, 4), (1, 2, 3), True),
    ("complete_bipartite", (3, 5), (1, 2, 3), True),
    ("complete_bipartite", (2, 6), (1, 2, 3), True),
    ("friendship", (3, 3), (1, 2, 3), True),
    ("double_fan", (4,), (1, 2, 3), True),
    ("double_wheel", (4,), (1, 2, 3), True),
    # twin-free controls: the rule must leave these searches alone
    ("crown", (4,), (1, 2, 3), False),
    ("fan", (5,), (1, 2, 3), False),
    ("wheel", (6,), (1, 2, 3), False),
    ("crown", (5,), (1, 2), False),  # the oracle takes seconds at k = 3
]


def check_twin_rich(name, params, ks, has_twins, variant):
    G = family(name, *params)
    classes = twin_classes(G)
    assert any(len(cls) > 1 for cls in classes) == has_twins
    for k in ks:
        result = solve_exact(G, k, variant)
        assert result.set == naive_oracle(G, k, variant).set
        # the lexicographically least optimum takes a prefix of each class
        for cls in classes:
            taken = [v in result.set for v in cls]
            assert taken == sorted(taken, reverse=True)


# weak and strong share one twin-skipping search, so each is checked
# against the oracle on its own
@pytest.mark.parametrize("name,params,ks,has_twins", TWIN_RICH_CASES)
def test_strong_exact_matches_oracle_on_twin_rich_graphs(
        name, params, ks, has_twins):
    check_twin_rich(name, params, ks, has_twins, "strong")


@pytest.mark.parametrize("name,params,ks,has_twins", TWIN_RICH_CASES)
def test_weak_exact_matches_oracle_on_twin_rich_graphs(
        name, params, ks, has_twins):
    check_twin_rich(name, params, ks, has_twins, "weak")


def test_strong_exact_bipartite_frontier():
    # twin-prefix enumeration and the capacity bound make these take
    # milliseconds; without them K_{4,14} takes over a minute
    result = solve_exact(family("complete_bipartite", 6, 7), 2, "strong")
    assert (result.optimum, result.set) == (5, (0, 1, 2, 3, 6))
    G = family("complete_bipartite", 4, 14)
    result = solve_exact(G, 2, "strong")
    assert (result.optimum, result.set) == (4, (0, 1, 2, 3))
    assert verify_strong_witness(G, result.set, 2, result.witness)


@pytest.mark.parametrize("name,params,optimum,chosen", [
    ("double_fan", (15,), 4, (2, 6, 10, 14)),
    ("crown", (10,), 6, (0, 1, 2, 10, 11, 12)),
])
def test_strong_exact_matching_frontier(name, params, optimum, chosen):
    # the matching leaf and the deficiency bound make these take
    # milliseconds; with backtracking leaves alone double_fan(15) takes
    # about 40 s and crown(10) about 11 s
    G = family(name, *params)
    result = solve_exact(G, 2, "strong")
    assert (result.optimum, result.set) == (optimum, chosen)
    assert verify_strong_witness(G, result.set, 2, result.witness)


def test_k1_equals_vertex_cover():
    from pathcover import vertex_cover_exact
    for G in (family("cycle", 5), family("wheel", 4), family("crown", 3),
              family("complete_bipartite", 3, 4), family("double_fan", 4),
              family("friendship", 3, 3)):
        vc_size, vc_set = vertex_cover_exact(G)
        # weak exact and vertex cover share one search, so a fault in it
        # would show in both: compare with the oracle too
        assert vc_set == naive_oracle(G, 1, "weak").set
        for variant in ("weak", "strong"):
            result = solve_exact(G, 1, variant)
            assert result.optimum == vc_size
            assert result.set == vc_set


def test_greedy_examples():
    assert solve_greedy(family("cycle", 5), 2, "strong").optimum == 2
    star = solve_greedy(family("complete_bipartite", 1, 6), 1, "weak")
    assert star.set == (0,)
    assert star.status == "heuristic"


def test_greedy_never_beats_exact(rng):
    for _ in range(15):
        G = random_connected_graph(rng, max_n=7)
        for variant in ("weak", "strong"):
            greedy = solve_greedy(G, 2, variant)
            exact = solve_exact(G, 2, variant)
            assert greedy.optimum >= exact.optimum
            if variant == "weak":
                assert verify_weak_cover(G, greedy.set, 2)
            else:
                assert greedy.witness is not None
                assert verify_strong_witness(G, greedy.set, 2, greedy.witness)


def test_domination_examples():
    assert domination_number(family("cycle", 5), 1) == 2
    assert domination_number(family("cycle", 5), 2) == 1
    assert domination_number(family("path", 10), 2) == 2


def test_bounds_hypercube():
    bounds = compute_bounds(family("hypercube", 3), 2)
    assert bounds.degree_lb == 2
    assert solve_exact(family("hypercube", 3), 2, "strong").optimum == 2


def test_bounds_path10():
    bounds = compute_bounds(family("path", 10), 2)
    assert bounds.degree_lb is None  # max degree 2
    assert bounds.domination_lb == 2
    assert bounds.trivial_ub == 9


def test_bounds_clique_k4():
    assert compute_bounds(family("wheel", 3), 2).clique_lb == 3


def test_bounds_applicability_flags():
    G = family("cycle", 8)  # diameter 4
    b3 = compute_bounds(G, 3)
    assert b3.half_ub is None  # only defined at k = 2
    assert b3.order_diameter_ub == G.n - 3 + 1
    b5 = compute_bounds(G, 5)
    assert b5.order_diameter_ub is None  # k exceeds the diameter


HUGE_K = 10**9


def _timed(call, *args):
    """``call(*args)``, which must finish within 1 s."""
    start = time.perf_counter()
    out = call(*args)
    assert time.perf_counter() - start < 1, call.__name__
    return out


def test_degree_bound_at_huge_k():
    """Past 2^k > 2m the degree bound is 1, so k = 10**9 reads as k = 6 on
    wheel(5) (m = 10) and builds no huge power."""
    G = family("wheel", 5)
    huge = _timed(compute_bounds, G, HUGE_K).as_dict()  # every field but k
    assert huge == compute_bounds(G, 6).as_dict()
    assert huge["degree_lb"] == 1


HUGE_K_GRAPHS = [("cycle", 6), ("path", 5), ("wheel", 5),
                 ("generalized_petersen", 5, 2)]


@pytest.mark.parametrize("spec", HUGE_K_GRAPHS, ids=str)
def test_huge_k_acts_as_the_diameter(spec):
    """Every walk stops where its ball ends, so a k far beyond the diameter
    finishes at once and answers as k = the diameter does."""
    G = family(*spec)
    d = diameter(G)
    for u in range(G.n):
        assert _timed(source_pairs, G, u, HUGE_K) == source_pairs(G, u, d)
    for solve in (solve_exact, solve_greedy):
        huge = _timed(solve, G, HUGE_K, "strong")
        at_d = solve(G, d, "strong")
        assert (huge.optimum, huge.set) == (at_d.optimum, at_d.set)
        assert verify_strong_witness(G, huge.set, HUGE_K, huge.witness)
    for S in ([0], solve_exact(G, d, "strong").set):
        witness = _timed(strong_feasible, G, S, HUGE_K)
        assert (witness is None) == (strong_feasible(G, S, d) is None)
        assert witness is None or verify_strong_witness(G, S, HUGE_K, witness)


def test_size_limits_enforced():
    # every size-limited entry point accepts path(limit) and refuses one
    # vertex more
    for call, limit in (
        (lambda G: solve_exact(G, 2, "weak"), 40),
        (lambda G: solve_exact(G, 2, "strong"), 34),
        (lambda G: naive_oracle(G, 2, "weak"), 12),
        (lambda G: compute_bounds(G, 2), 40),
        (lambda G: domination_number(G, 2), 40),
        (vertex_cover_exact, 40),
    ):
        call(family("path", limit))
        with pytest.raises(SizeLimitError):
            call(family("path", limit + 1))


def test_limit_checked_before_connectivity():
    two_paths = build_graph(82, [(v, v + 1) for v in range(81) if v != 40])
    with pytest.raises(SizeLimitError):
        compute_bounds(two_paths, 2)


def test_bounds_of_empty_graph_refused_as_vertex_range():
    # as diameter refuses the same graph; an empty graph is not disconnected
    empty = build_graph(0, [])
    for call in (diameter, lambda G: compute_bounds(G, 2)):
        with pytest.raises(VertexRangeError):
            call(empty)


@pytest.mark.parametrize("k", [0, -1])
def test_domination_number_rejects_nonpositive_k(k):
    with pytest.raises(ValueError):
        domination_number(family("cycle", 6), k)


@pytest.mark.parametrize("solve", [solve_exact, solve_greedy, naive_oracle])
def test_unknown_variant_refused(solve):
    with pytest.raises(ValueError, match=re.escape(
            "variant must be one of ('weak', 'strong'), got 'Strong'")):
        solve(family("cycle", 5), 2, "Strong")


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("solve", [solve_exact, solve_greedy, naive_oracle])
def test_edgeless_strong_has_empty_witness(solve, n):
    G = build_graph(n, [])
    result = solve(G, 2, "strong")
    assert result.set == ()
    assert result.witness == StrongWitness((), 0)
    assert verify_strong_witness(G, result.set, 2, result.witness)


@pytest.mark.parametrize("k", [1, 3])
def test_edgeless_strong_exact_has_empty_witness_at_other_k(k):
    # no extend proves the empty set: its witness is the strong test's root
    for n in (0, 1):
        G = build_graph(n, [])
        result = solve_exact(G, k, "strong")
        assert (result.set, result.witness) == ((), StrongWitness((), 0))
        assert verify_strong_witness(G, result.set, k, result.witness)


def test_monotonicity_chain(rng):
    # weak at the diameter <= weak at k <= strong at k
    for _ in range(10):
        G = random_connected_graph(rng, max_n=7)
        d = diameter(G)
        base = solve_exact(G, max(d, 1), "weak").optimum
        for k in (1, 2, 3):
            weak = solve_exact(G, k, "weak").optimum
            strong = solve_exact(G, k, "strong").optimum
            assert base <= weak <= strong


def test_k_monotonicity(rng):
    for _ in range(10):
        G = random_connected_graph(rng, max_n=7)
        for variant in ("weak", "strong"):
            opts = [solve_exact(G, k, variant).optimum for k in (1, 2, 3)]
            assert opts[0] >= opts[1] >= opts[2]


def test_repeat_runs_identical_apart_from_stats():
    G = family("generalized_petersen", 5, 2)
    a = solve_exact(G, 2, "strong")
    b = solve_exact(G, 2, "strong")
    assert (a.variant, a.k, a.optimum, a.set, a.witness, a.status) == \
        (b.variant, b.k, b.optimum, b.set, b.witness, b.status)


def test_single_vertex_graph():
    G = family("path", 1)
    for variant in ("weak", "strong"):
        result = solve_exact(G, 2, variant)
        assert result.optimum == 0 and result.set == ()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bounds_sandwich_single_vertex(k):
    """The one-vertex graph needs no source, so no lower bound may exceed
    0; its distance-k domination number is still 1."""
    G = family("path", 1)
    bounds = compute_bounds(G, k)
    weak = solve_exact(G, k, "weak").optimum
    strong = solve_exact(G, k, "strong").optimum
    lower = (bounds.domination_lb, bounds.clique_lb, bounds.degree_lb or 0)
    assert max(lower) <= weak <= strong <= bounds.trivial_ub == 0
    assert bounds.order_diameter_ub is None  # k exceeds the diameter 0
    assert domination_number(G, k) == 1


def _brute_min_cover(masks, allowed, universe, pre):
    """Least number of masks from ``allowed`` covering ``universe`` with
    ``pre``, by trying every subset in ascending size; None when none does."""
    for size in range(len(allowed) + 1):
        for combo in combinations(allowed, size):
            cover = pre
            for i in combo:
                cover |= masks[i]
            if cover & universe == universe:
                return size
    return None


def _index(masks, universe):
    """The coverer index of ``masks`` over ``universe``, by definition."""
    return [sum(1 << i for i, m in enumerate(masks) if (m & universe) >> e & 1)
            for e in range(universe.bit_length())]


def _on_universe(masks, universe):
    """``masks`` cut down to ``universe``, its elements numbered from 0 in
    ascending order, and their coverer index, as ``_least_cover`` takes
    them: it covers every element of its index."""
    elements = [e for e in range(universe.bit_length()) if universe >> e & 1]
    masks = [sum(1 << j for j, e in enumerate(elements) if m >> e & 1)
             for m in masks]
    return masks, _index(masks, (1 << len(elements)) - 1)


def _random_set_systems(count):
    for seed in range(count):
        rng = random.Random(seed)
        width = rng.randint(1, 14)
        universe = (1 << width) - 1
        density = rng.choice((0.15, 0.3, 0.5))
        masks = [sum(1 << e for e in range(width) if rng.random() < density)
                 for _ in range(rng.randint(1, 11))]
        allowed = [i for i in range(len(masks)) if rng.random() < 0.8]
        pre = rng.getrandbits(width) & rng.getrandbits(width)
        yield pytest.param(masks, allowed, universe, pre, id=f"sets{seed}")


@pytest.mark.parametrize("masks,allowed,universe,pre",
                         _random_set_systems(300))
def test_min_cover_matches_brute_force(masks, allowed, universe, pre):
    """Uncapped, ``_min_cover`` is the minimum; under a positive cap, it is
    None exactly when the minimum is at least the cap, and otherwise the
    size of some cover below the cap."""
    least = _brute_min_cover(masks, allowed, universe, pre)
    index = _index(masks, universe)
    for cap in (None, *range(1, len(allowed) + 2)):
        got = _min_cover(masks, index, allowed, universe, pre, cap=cap)
        _check_capped(got, least, cap, masks, allowed, universe, pre)


def _check_capped(got, least, cap, masks, allowed, universe, pre):
    """``_min_cover``'s contract: a least cover without a cap; under one,
    None exactly when no cover is smaller, else some cover below it. A
    cover is distinct indices, ascending, from ``allowed`` whose masks
    cover what ``pre`` leaves of ``universe``."""
    if got is not None:
        assert list(got) == sorted(set(got)), got
        assert set(got) <= set(allowed), got
        covered = reduce(or_, map(masks.__getitem__, got), pre)
        assert covered & universe == universe, got
    size = None if got is None else len(got)
    if cap is None:
        assert size == least
    elif least is None or least >= cap:
        assert got is None, cap
    else:
        assert got is not None and least <= size < cap, cap


def _set_systems_with_twins(count):
    """Random set systems in which some masks equal or lie inside others,
    with a universe the masks cover (all of their union, or part of it)."""
    for seed in range(count):
        rng = random.Random(seed)
        width = rng.randint(1, 12)
        masks = [rng.getrandbits(width) & rng.getrandbits(width)
                 for _ in range(rng.randint(4, 9))]
        for i in range(len(masks)):
            r = rng.random()
            if r < 0.15:
                masks[i] = rng.choice(masks)  # an equal mask
            elif r < 0.3:  # a mask inside another
                masks[i] = rng.choice(masks) & rng.getrandbits(width)
        union = reduce(or_, masks, 0)
        universe = union if rng.random() < 0.7 else union & rng.getrandbits(
            width)
        yield seed, masks, universe


@pytest.mark.parametrize("masks", [
    [7777, 823, 5070, 11823, 9279, 5498, 2043, 6477, 11451, 8478],
    [6847, 4290, 3873, 1811, 1152, 5719, 3820, 7321, 2866, 461, 5075],
    [7812, 507, 2963, 1596, 2110, 4211, 1145, 3039, 7494, 5912],
])
def test_min_cover_two_options_of_one_element(masks):
    """Set systems whose least covers take two coverers of the element the
    search branches on first; found among 200,000 random systems, since a
    search that drops every sibling after the first option misses them."""
    universe = reduce(or_, masks, 0)
    allowed = range(len(masks))
    least = _brute_min_cover(masks, allowed, universe, 0)
    assert least == 2
    index = _index(masks, universe)
    for cap in (None, 1, 2, 3):
        _check_capped(_min_cover(masks, index, allowed, universe, 0, cap),
                      least, cap, masks, allowed, universe, 0)


def test_branch_coverers_packing():
    """``_branch_coverers`` gathers 0b00011 and 0b01100, which share no
    coverer, and not 0b10110, which meets both. Two picks left: the
    packing is tight, so a cover takes only their coverers, mask 4 never.
    Three left: slack, every mask. One left: overflow. Over random
    coverer sets, a tight union holds every hitting set within the picks
    left, and None means there is none."""
    sets = [0b10110, 0b01100, 0b00011]
    assert _branch_coverers(sets, 2) == (0b01100, 0b01111)
    assert _branch_coverers(sets, 3) == (0b01100, -1)
    assert _branch_coverers(sets, 1) is None
    for seed in range(300):
        rng = random.Random(seed)
        width = rng.randint(1, 7)
        sets = {rng.getrandbits(width) | 1 << rng.randrange(width)
                for _ in range(rng.randint(1, 6))}
        left = rng.randint(1, 4)
        hitting = [sum(1 << i for i in combo)
                   for size in range(left + 1)
                   for combo in combinations(range(width), size)
                   if all(any(c >> i & 1 for i in combo) for c in sets)]
        got = _branch_coverers(sets, left)
        if got is None:
            assert not hitting, seed
        else:
            options, union = got
            assert options in sets
            assert options.bit_count() == min(map(int.bit_count, sets))
            assert all(h & union == h for h in hitting), seed


def test_min_cover_shared_index_matches_brute_force():
    """Calls sharing one coverer index, as ``_least_cover`` makes them:
    suffixes of the masks, the union of earlier masks as ``pre``, and
    caps from 1 up or none. Each answer keeps the contract."""
    for seed, masks, universe in _set_systems_with_twins(300):
        rng = random.Random(seed)
        n, index = len(masks), _index(masks, universe)
        for _ in range(12):
            start = rng.randrange(n + 1)
            pre = 0
            for j in range(start):
                if rng.random() < 0.3:
                    pre |= masks[j]
            allowed = range(start, n)
            cap = rng.choice((None, 1, 2, 3, 4, n))
            least = _brute_min_cover(masks, allowed, universe, pre)
            got = _min_cover(masks, index, allowed, universe, pre, cap)
            _check_capped(got, least, cap, masks, allowed, universe, pre)


def test_least_cover_matches_brute_force():
    """``_least_cover`` returns the lexicographically least optimum: the
    first covering set of least size in ``combinations`` order. The graph
    is a path on four or more vertices, which has no twins, so the twin
    rule cuts nothing."""
    for seed, masks, universe in _set_systems_with_twins(300):
        n = len(masks)
        expected = next(combo for size in range(n + 1)
                        for combo in combinations(range(n), size)
                        if reduce(or_, map(masks.__getitem__, combo), 0)
                        & universe == universe)
        chosen, proof = _least_cover(family("path", n),
                                     *_on_universe(masks, universe))
        assert (chosen, proof) == (expected, ()), seed


def _twin_graphs():
    """Graphs with twin classes: complete bipartite graphs, wheels (all
    true twins in the 3-wheel, K_4; false twins across the rim of the
    4-wheel) and crowns."""
    for m in range(1, 5):
        for n in range(m, 6):
            yield f"K{m},{n}", family("complete_bipartite", m, n)
    for n in range(3, 10):
        yield f"wheel{n}", family("wheel", n)
    for n in range(3, 6):
        yield f"crown{n}", family("crown", n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_least_cover_on_twin_graphs_matches_brute_force(k):
    """On weak masks of graphs with twins, where the twin rule skips
    vertices, ``_least_cover`` with its witness shortcut still returns the
    first weak cover of least size in ``combinations`` order."""
    for name, G in _twin_graphs():
        index = coverer_index(G, k)
        masks = _transpose(index, G.n)
        universe = G.full_edge_mask()
        expected = next(combo for size in range(G.n + 1)
                        for combo in combinations(range(G.n), size)
                        if reduce(or_, map(masks.__getitem__, combo), 0)
                        == universe)
        assert _least_cover(G, masks, index) == (expected, ()), name


class _RefuseFirst:
    """A test for ``_least_cover`` that keeps every prefix and refuses the
    first j full sets at ``left`` 0; the state is the sources added, and
    the proof of a kept full set is ("proof", set). The empty set is no
    full set that ``extend`` sees: ``start`` alone decides it."""

    root = ()

    def __init__(self, j, start=1):
        self.j, self.start = j, start
        self.seen = []

    def extend(self, state, v, left):
        state = (*state, v)
        if left:
            return state
        self.seen.append(state)
        return ("proof", state) if len(self.seen) > self.j else None


def test_least_cover_returns_what_the_test_kept():
    """A test that refuses the first j covering sets at ``left`` 0 makes
    ``_least_cover`` return the (j + 1)-th in (size, lexicographic) order,
    together with the state the test returned for it; the test sees
    exactly those j + 1 full sets, in that order. With ``start`` 1 every
    set it is asked about has a vertex; with ``start`` 0 an empty universe
    is covered by the empty set and its state, the root. The graph is a
    path on four or more vertices, which has no twins, so the twin rule
    cuts nothing even though this test is not invariant under
    automorphisms."""
    for seed, masks, universe in _set_systems_with_twins(100):
        n = len(masks)
        if not universe:
            got = _least_cover(family("path", n),
                               *_on_universe(masks, universe),
                               _RefuseFirst(0, start=0))
            assert got == ((), ()), seed
        covering = [combo for size in range(1, n + 1)
                    for combo in combinations(range(n), size)
                    if reduce(or_, map(masks.__getitem__, combo), 0)
                    & universe == universe]
        for j in sorted({0, 1, 3, len(covering) - 1}):
            if j >= len(covering):
                continue
            test = _RefuseFirst(j)
            got = _least_cover(family("path", n),
                               *_on_universe(masks, universe), test)
            assert got == (covering[j], ("proof", covering[j])), (seed, j)
            assert test.seen == covering[:j + 1], (seed, j)


def _twin_rich_graphs(count):
    """Random connected graphs on 3 to 6 vertices plus 1 to 3 duplicated
    vertices, each a false twin (the same neighbours) or a true twin (also
    joined to the vertex it copies), with the labels shuffled."""
    for seed in range(count):
        rng = random.Random(seed)
        while True:
            n = rng.randint(3, 6)
            edges = {e for e in combinations(range(n), 2)
                     if rng.random() < 0.5}
            if is_connected(build_graph(n, edges)):
                break
        for _ in range(rng.randint(1, 3)):
            x = rng.randrange(n)
            edges |= {(w, n) for w in range(n)
                      if (w, x) in edges or (x, w) in edges}
            if rng.random() < 0.5:
                edges.add((x, n))
            n += 1
        label = rng.sample(range(n), n)
        yield seed, build_graph(n, [(label[x], label[y]) for x, y in edges])


class _EvenDegreeSum:
    """A test for ``_least_cover`` that is invariant under automorphisms,
    as the twin rule needs: it keeps every prefix and refuses a full set
    whose degree sum is odd. It records each (prefix, left) it is handed."""

    root = ()
    start = 0

    def __init__(self, G):
        self.G, self.handed = G, []

    def extend(self, state, v, left):
        state = (*state, v)
        self.handed.append((state, left))
        if not left and sum(map(self.G.degree, state)) % 2:
            return None
        return state


@pytest.mark.parametrize("k", [1, 2])
def test_least_cover_hands_the_test_only_finishable_prefixes(k):
    """The prune's invariant, which the witness shortcut must keep: every
    prefix ``_least_cover`` hands ``test.extend`` can still be finished to
    a cover with at most ``left`` more masks after its last vertex, checked
    by brute force. A witness spent on a twin-skipped vertex must not serve
    a later one; the answer alone would not show it, as the last pick
    always runs its check. The set returned is the first, in (size,
    lexicographic) order, that covers and that the test keeps."""
    for seed, G in _twin_rich_graphs(500):
        masks, index = weak_masks(G, k), coverer_index(G, k)
        universe = G.full_edge_mask()
        test = _EvenDegreeSum(G)
        chosen, _ = _least_cover(G, masks, index, test)
        for prefix, left in test.handed:
            cov = reduce(or_, map(masks.__getitem__, prefix))
            after = range(prefix[-1] + 1, G.n)
            assert any(reduce(or_, map(masks.__getitem__, rest), cov)
                       == universe for size in range(left + 1)
                       for rest in combinations(after, size)), (seed, prefix)
        assert chosen == next(
            combo for size in range(G.n + 1)
            for combo in combinations(range(G.n), size)
            if reduce(or_, map(masks.__getitem__, combo), 0) == universe
            and sum(map(G.degree, combo)) % 2 == 0), seed


def _dense_graph(seed, n=40, m=78):
    """Connected graph on n vertices and m edges: a random recursive tree
    plus random chords, under a random numbering."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


@pytest.mark.parametrize("G,k,optimum,ceiling", [
    # 73 nodes with the tight packing and 163 without it; before it, 1,047
    # without the essential edges, 6,984 without the disjoint-elements
    # bound and 3,868 before the coverer index
    (family("sierpinski", 3), 2, 9, 100),
    # 506 nodes with the tight packing and 1,331 without it, with or
    # without the essential edges (at k = 1 none is dropped); before it,
    # 12,334 without the bound and 154,648 before the coverer index
    (_dense_graph(3), 1, 23, 700),
    # 995 nodes with the tight packing and 2,236 without it
    (family("generalized_petersen", 20, 3), 2, 8, 1_300),
], ids=["sierpinski(3)", "dense40", "gp(20,3)"])
def test_weak_search_node_ceilings(G, k, optimum, ceiling):
    """The weak search's node count stays under a ceiling with margin, so a
    change that loses a pruning rule fails instead of only slowing down."""
    result = solve_exact(G, k, "weak")
    assert result.optimum == optimum
    assert result.stats.nodes <= ceiling, result.stats.nodes


def _max_strong_coverage(pairs):
    """The most edges one choice of paths covers, by trying every choice
    of one path per pair (an omitted pair would add nothing); pairs with
    one path come first, which keeps the set of distinct unions small."""
    unions = {0}
    for _, _, masks in sorted(pairs, key=lambda p: len(p[2])):
        unions = {u | m for u in unions for m in masks}
    return max(map(int.bit_count, unions))


def test_deficiency_is_edges_the_best_choice_leaves():
    """The deficiency the ``Matching`` of the strong test keeps along a
    search path, driven without a cut, the edges neither its forced paths
    nor its matching cover, less the prefix's summed excess, is at most m
    minus the most edges any choice of ``source_pairs`` paths covers,
    after each vertex added in any order, and equal to it when the excess
    is 0, as it always is at k = 2. The witness the matching gives, with
    the prefix's one-path picks, takes one of its pairs' paths per pair
    and covers the m - deficiency edges of the forced paths and the
    matching, and only those when the excess is 0. A vertex alone covers
    at most cap(v) edges, exactly that many at k = 2, and ``maxcap`` and
    ``start`` are read from the caps. At k = 2 and 3; only at 3 does some
    prefix have a positive excess."""
    def deficiency(state):
        base, _, held = state
        return (G.full_edge_mask() & ~(base | held)).bit_count()

    def grow(state, v):
        forced, ids, *_ = test._source(v)
        return test.matching.extend(state, forced, ids, G.m)

    excess_seen = set()
    for seed, k in product(range(300), (2, 3)):
        rng = random.Random(seed)
        G = random_connected_graph(rng, max_n=8)
        test = StrongTest(G, k)
        order = rng.sample(range(G.n), G.n)
        state, excess = test.root[0], 0
        for i, v in enumerate(order):
            state = grow(state, v)
            excess += test._source(v)[3]
            if excess:
                excess_seen.add(k)
            pairs = [p for u in order[:i + 1] for p in source_pairs(G, u, k)]
            best = G.m - _max_strong_coverage(pairs)
            assert deficiency(state) - excess <= best, (seed, k, order[:i + 1])
            if not excess:
                assert deficiency(state) == best, (seed, k, order[:i + 1])
            paths = {(u, t): enumerate_geodesics(G, u, t)
                     for u, t, _ in pairs}
            witness = test.matching.witness(
                [pick for u in order[:i + 1] for pick in test._source(u)[2]],
                state)
            union = 0
            for pair, path in witness.assignments:
                assert path in paths.pop(pair), (seed, k, pair)
                union |= path_edge_mask(G, path)
            assert union == witness.covered
            covered = G.m - deficiency(state)
            assert covered <= union.bit_count() <= G.m - best, (seed, k)
            if not excess:
                assert union.bit_count() == covered, (seed, k)
        caps = [sum(max(d - 1, 1) for d in bfs_distances(G, v, k).values()
                    if d) for v in range(G.n)]
        for v in range(G.n):
            own = _max_strong_coverage(source_pairs(G, v, k))
            assert caps[v] == own if k == 2 else caps[v] >= own, (seed, k, v)
        assert test.maxcap == [max(caps[s:], default=0)
                               for s in range(G.n + 1)], (seed, k)
        assert test.start == min(t for t in range(G.n + 1)
                                 if t * max(caps) >= G.m), (seed, k)
    assert excess_seen == {3}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_one_matcher_decides_both_ways(k):
    """``feasible_from_pairs``, one search over all pairs with tips beyond
    the global base, and the strong test's per-source growth, sources
    added in ascending order with the cut of the vertices left, agree on
    every set, and both witnesses verify: the test's is what its last
    ``extend`` returns."""
    for seed in range(200):
        rng = random.Random(seed)
        G = random_connected_graph(rng, max_n=10)
        test = StrongTest(G, k)
        for _ in range(5):
            S = sorted(rng.sample(range(G.n), rng.randint(1, G.n)))
            single = feasible_from_pairs(
                G, tuple(p for v in S for p in source_pairs(G, v, k)))
            proof = test.root
            for i, v in enumerate(S):
                proof = test.extend(proof, v, len(S) - 1 - i)
                if proof is None:
                    break
            assert (single is None) == (proof is None), (seed, S)
            if proof is not None:
                assert verify_strong_witness(G, S, k, single), (seed, S)
                assert verify_strong_witness(G, S, k, proof), (seed, S)


@pytest.mark.parametrize("G,k,optimum,ceiling", [
    # 101 nodes; 4,943 without the deficiency cut, 6,293 without it and the
    # counting start
    (family("crown", 10), 2, 6, 1_000),
    # 5,543 nodes; 26,348 without the cut, 35,456 without both
    (family("crown", 11), 2, 7, 12_000),
    # 11 nodes; 17 without the cut, 98 without both
    (family("hypercube", 4), 2, 4, 40),
    # 58 nodes; 86 without the cut, 89 without both
    (family("benes", 2), 2, 4, 75),
    # 13 nodes; 150 with a start of 1, no cut and a full search per set
    (family("crown", 8), 3, 4, 40),
    # 29 nodes; 994 the same way
    (family("crown", 9), 3, 5, 100),
], ids=["crown(10)", "crown(11)", "hypercube(4)", "benes(2)", "crown(8)-k3",
        "crown(9)-k3"])
def test_strong_search_node_ceilings(G, k, optimum, ceiling):
    """The strong search's node count stays under a ceiling, so a change
    that loses the deficiency cut or the counting start fails instead of
    only slowing down."""
    result = solve_exact(G, k, "strong")
    assert result.optimum == optimum
    assert result.stats.nodes <= ceiling, result.stats.nodes


@pytest.mark.parametrize("k", [2, 3])
def test_strong_search_proves_its_own_leaf(monkeypatch, k):
    """The strong search builds each source's pairs at most once per
    solve, its leaf reusing them, and its witness verifies. At k = 2 its
    matching is its only proof: no ``feasible_from_pairs`` call. At k = 3
    a full set the matching covers is proved by it too, though its excess
    is positive: ``crown(4)`` and ``butterfly(2)`` make no call."""
    proofs, built = [], []
    real_source_pairs = cover.source_pairs
    real_feasible = cover.feasible_from_pairs

    def counted_source_pairs(G, u, k, *arcs):
        built.append(u)
        return real_source_pairs(G, u, k, *arcs)

    def counted_feasible(G, pairs):
        proofs.append(pairs)
        return real_feasible(G, pairs)

    monkeypatch.setattr(cover, "feasible_from_pairs", counted_feasible)
    monkeypatch.setattr(cover, "source_pairs", counted_source_pairs)
    rng = random.Random(2)
    named = [family("crown", 6), family("double_fan", 10),
             family("complete_bipartite", 3, 3), family("cycle", 10)]
    if k == 3:
        named = [family("crown", 4), family("butterfly", 2)]
    graphs = [(G, True) for G in named] + [
        (random_connected_graph(rng, max_n=12), k == 2) for _ in range(200)]
    for G, unproved in graphs:
        proofs.clear()
        built.clear()
        result = solve_exact(G, k, "strong")
        if unproved:
            assert proofs == [], result.set
        assert len(built) == len(set(built)), built
        assert verify_strong_witness(G, result.set, k, result.witness), \
            result.set


def test_diameter_two_proofs_never_backtrack(monkeypatch):
    """On a diameter-2 graph every geodesic has length at most 2, so at
    k >= 3 no path adds two edges beyond its source's star and every proof
    is a matching: ``feasible_from_pairs`` keeps its gain <= 1 branch for
    this, and the search never backtracks. The branch is read from the
    pairs, not the diameter: ``double_fan(15)`` with a pendant vertex 17 on
    vertex 2 has diameter 3, and its proofs at k = 3 are matchings too
    (through the backtracking search they take tens of seconds)."""
    def no_backtrack(*args):
        raise AssertionError("backtracked")

    monkeypatch.setattr(cover, "_backtrack", no_backtrack)
    fan = family("double_fan", 15)
    pendant = build_graph(18, [*fan.edges, (2, 17)])
    assert diameter(pendant) == 3
    for G in (fan, pendant):
        result = solve_exact(G, 3, "strong")
        assert (result.optimum, result.set) == (4, (2, 6, 10, 14))


def _registry_graphs(max_n):
    """(name, graph) for every claims-registry instance at ``max_n``."""
    listed = dict.fromkeys((record.family, params)
                           for record in claims_registry()
                           for params in record.instances(max_n))
    return [(f"{name}{params}", family(name, *params))
            for name, params in listed]


def test_strong_feasible_gives_the_solver_witness():
    """``strong_feasible`` proves a set by ``feasible_from_pairs`` over its
    pairs. ``solve_exact`` proves it by the matching it grew source by
    source wherever that matching covers every edge, and by
    ``feasible_from_pairs`` otherwise, so the witnesses may differ. At
    every k, ``strong_feasible`` accepts the solver's set, both witnesses
    verify, and it returns ``feasible_from_pairs`` on the set's pairs.
    Over the registry instances to 12 vertices and seeded random
    graphs."""
    rng = random.Random(3)
    graphs = _registry_graphs(12) + [
        (f"random{i}", random_connected_graph(rng, max_n=12))
        for i in range(100)]
    for name, G in graphs:
        for k in (1, 2, 3):
            result = solve_exact(G, k, "strong")
            witness = strong_feasible(G, result.set, k)
            assert witness is not None, (name, k)
            assert verify_strong_witness(G, result.set, k, witness), (name, k)
            assert verify_strong_witness(G, result.set, k,
                                         result.witness), (name, k)
            assert witness == feasible_from_pairs(G, tuple(
                p for u in result.set for p in source_pairs(G, u, k))), \
                (name, k)
