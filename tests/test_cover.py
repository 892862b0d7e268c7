import random
import re

import pytest

import pathcover.cover
import pathcover.graph
from pathcover import (
    DisconnectedGraphError,
    EnumerationCapError,
    Graph,
    StrongWitness,
    VertexRangeError,
    bfs_distances,
    build_graph,
    check_reduction,
    compute_bounds,
    domination_number,
    enumerate_geodesics,
    format_witness,
    geodesic_dag,
    naive_oracle,
    parse_witness,
    reduce_vc,
    solve_exact,
    solve_greedy,
    strong_feasible,
    verify_strong_witness,
    verify_weak_cover,
    weak_cover_set,
)
from pathcover.cover import (
    ball_layers,
    coverer_index,
    feasible_from_pairs,
    mask_path,
    path_edge_mask,
    source_pairs,
    weak_masks,
)
from pathcover.solve import _essential, _oracle_strong_feasible
from conftest import family, family_graphs, random_connected_graph


def edges_of(G, mask):
    return {G.edges[i] for i in range(G.m) if mask >> i & 1}


def test_weak_cycle5_excludes_far_edge():
    G = family("cycle", 5)
    covered = edges_of(G, weak_cover_set(G, 0, 2))
    assert covered == {(0, 1), (0, 4), (1, 2), (3, 4)}


def test_weak_star_center_k1():
    G = family("complete_bipartite", 1, 4)
    assert weak_cover_set(G, 0, 1) == G.full_edge_mask()


def test_weak_path10_first_two_edges():
    G = family("path", 10)
    assert edges_of(G, weak_cover_set(G, 0, 2)) == {(0, 1), (1, 2)}


def test_verify_weak_cover_examples():
    assert not verify_weak_cover(family("cycle", 5), [0], 2)
    assert verify_weak_cover(family("complete_bipartite", 2, 3), [0], 2)
    G = family("generalized_petersen", 5, 2)
    assert verify_weak_cover(G, range(G.n), 1)


def test_strong_cycle5_single_source_fails():
    assert strong_feasible(family("cycle", 5), [0], 2) is None


def test_strong_cycle5_two_sources():
    G = family("cycle", 5)
    witness = strong_feasible(G, [0, 2], 2)
    assert witness is not None
    assert verify_strong_witness(G, [0, 2], 2, witness)
    assert witness.covered == G.full_edge_mask()


def test_strong_k23_single_source_fails():
    # forced edges from u0 plus one path to the far side cover 4 of 6 edges
    assert strong_feasible(family("complete_bipartite", 2, 3), [0], 2) is None


def test_witness_round_trip():
    G = family("cycle", 5)
    witness = strong_feasible(G, [0, 2], 2)
    assert parse_witness(G, format_witness(witness)) == witness


def test_witness_detour_rejected():
    G = family("cycle", 5)
    # (0, 1, 2, 3) has length 3 but d(0, 3) = 2
    bad = StrongWitness(
        (((0, 3), (0, 1, 2, 3)),),
        G.edge_mask([(0, 1), (1, 2), (2, 3)]),
    )
    assert not verify_strong_witness(G, [0], 2, bad)


def test_witness_missing_edge_rejected():
    # every assignment is a valid geodesic but the union misses edge (2, 3)
    G = family("cycle", 5)
    assignments = (
        ((0, 1), (0, 1)),
        ((0, 2), (0, 1, 2)),
        ((0, 3), (0, 4, 3)),
        ((0, 4), (0, 4)),
    )
    covered = G.edge_mask([(0, 1), (1, 2), (0, 4), (3, 4)])
    partial = StrongWitness(assignments, covered)
    assert not verify_strong_witness(G, [0], 2, partial)


def test_witness_inconsistent_covered_mask_rejected():
    G = family("cycle", 5)
    witness = strong_feasible(G, [0, 2], 2)
    tampered = StrongWitness(witness.assignments, witness.covered >> 1)
    assert not verify_strong_witness(G, [0, 2], 2, tampered)


def test_witness_source_outside_set_rejected():
    G = family("cycle", 5)
    witness = strong_feasible(G, [0, 2], 2)
    assert not verify_strong_witness(G, [0], 2, witness)


def test_witness_non_edge_hop_rejected():
    # (0, 3, 2) has d(0, 2) + 1 vertices and the pair's ends, but C5 has
    # no edge 0-3
    G = family("cycle", 5)
    bad = StrongWitness((((0, 2), (0, 3, 2)),), G.edge_mask([(2, 3)]))
    assert not verify_strong_witness(G, [0], 2, bad)


@pytest.mark.parametrize("text, message", [
    ("0 1 0 1\n", "bad witness line '0 1 0 1'"),
    ("0 x : 0 1\n", "bad witness line '0 x : 0 1': invalid literal"),
    ("0 1 : 0 y\n", "bad witness line '0 1 : 0 y': invalid literal"),
    ("0 1 2 : 0 1\n", "bad witness line '0 1 2 : 0 1': too many values"),
    ("0 2 : 0 3 2\n", "witness path for (0, 2) uses non-edge (0, 3)"),
])
def test_parse_witness_refusals_name_the_line(text, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        parse_witness(family("cycle", 5), text)


def _witness(G, assignments):
    covered = 0
    for _, path in assignments:
        covered |= path_edge_mask(G, path)
    return StrongWitness(tuple(sorted(assignments)), covered)


def test_witness_path_beyond_k_rejected():
    # P4 from its end: the pair (0, 3) is at distance 3, so only k >= 3 has it
    G = family("path", 4)
    w = _witness(G, [((0, 1), (0, 1)), ((0, 2), (0, 1, 2)),
                     ((0, 3), (0, 1, 2, 3))])
    assert not verify_strong_witness(G, [0], 2, w)
    assert verify_strong_witness(G, [0], 3, w)


def test_witness_short_non_geodesic_rejected():
    # a triangle: (0, 2, 1) has length 2 <= k but d(0, 1) = 1
    G = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    good = [((0, 2), (0, 2)), ((1, 0), (1, 0))]
    assert not verify_strong_witness(
        G, [0, 1], 2, _witness(G, good + [((0, 1), (0, 2, 1))]))
    assert verify_strong_witness(
        G, [0, 1], 2, _witness(G, good + [((0, 1), (0, 1)),
                                          ((1, 2), (1, 2))]))


def test_witness_wrong_endpoint_rejected():
    # 2 and 3 both hang off 1, so each geodesic from 0 to one of them has
    # the right length for the other
    G = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    swapped = _witness(G, [((0, 1), (0, 1)), ((0, 2), (0, 1, 3)),
                           ((0, 3), (0, 1, 2))])
    assert swapped.covered == G.full_edge_mask()
    assert not verify_strong_witness(G, [0], 2, swapped)
    assert verify_strong_witness(G, [0], 2, _witness(
        G, [((0, 1), (0, 1)), ((0, 2), (0, 1, 2)), ((0, 3), (0, 1, 3))]))
    wrong_start = _witness(G, [((0, 1), (1, 0)), ((0, 2), (0, 1, 2)),
                               ((0, 3), (0, 1, 3))])
    assert not verify_strong_witness(G, [0], 2, wrong_start)


def test_weak_monotone_in_k():
    G = family("generalized_petersen", 5, 2)
    for u in range(G.n):
        prev = 0
        for k in range(1, 4):
            mask = weak_cover_set(G, u, k)
            assert mask & prev == prev
            prev = mask


def test_strong_single_source_within_weak():
    G = family("butterfly", 2)
    full = strong_feasible(G, range(G.n), 2)
    for (u, _), path in full.assignments:
        mask = G.edge_mask(zip(path, path[1:]))
        assert mask & weak_cover_set(G, u, 2) == mask


def test_strong_full_vertex_set_always_feasible():
    for G in (family("cycle", 5), family("crown", 4), family("benes", 1)):
        for k in (1, 2, 3):
            assert strong_feasible(G, range(G.n), k) is not None


def test_witness_deterministic():
    G = family("butterfly", 2)
    a = strong_feasible(G, [0, 2, 8], 2)
    b = strong_feasible(G, [0, 2, 8], 2)
    assert a == b


def test_empty_graph_trivially_covered():
    G = build_graph(1, [])
    witness = strong_feasible(G, [], 2)
    assert witness is not None and witness.assignments == ()


def _ladder(rungs):
    """A ladder with rails 0..rungs-1 (a) and rungs..2*rungs-1 (b), rung i
    joining i and rungs+i: the graph, the k = 2 pairs from rail a built
    directly, and the builder ``pair(u, v, *paths)`` of further pairs."""
    edges = [(i, rungs + i) for i in range(rungs)]
    edges += [(i, i + 1) for i in range(rungs - 1)]
    edges += [(rungs + i, rungs + i + 1) for i in range(rungs - 1)]
    G = build_graph(2 * rungs, edges)

    def pair(u, v, *paths):
        return u, v, tuple(path_edge_mask(G, p) for p in paths)

    pairs = []
    for i in range(rungs):
        pairs.append(pair(i, rungs + i, (i, rungs + i)))
        if i + 1 < rungs:
            pairs.append(pair(i, i + 1, (i, i + 1)))
            pairs.append(pair(i, rungs + i + 1, (i, i + 1, rungs + i + 1),
                              (i, rungs + i, rungs + i + 1)))
        if i > 0:
            pairs.append(pair(i, rungs + i - 1, (i, i - 1, rungs + i - 1),
                              (i, rungs + i, rungs + i - 1)))
    return G, pairs, pair


def test_feasible_from_pairs_long_ladder_needs_no_recursion():
    """Rail a of a 1,100-rung ladder strongly covers it at k = 2. Rung and
    rail pairs are forced; each rail-b edge needs its own diagonal pair, so
    the matching gives 1,099 pairs an edge each. The pairs are built
    directly, so the test exercises the search alone."""
    G, pairs, _ = _ladder(1100)
    witness = feasible_from_pairs(G, tuple(pairs))
    assert witness is not None
    assert witness.covered == G.full_edge_mask()


def test_backtracking_long_ladder_needs_no_recursion():
    """The ladder above plus one length-3 pair whose path adds two rail-b
    edges, which turns off the matching leaf: the backtracking search then
    assigns about 1,100 pairs in a row on its own stack."""
    rungs = 1100
    G, pairs, pair = _ladder(rungs)
    pairs.append(pair(0, rungs + 2, (0, 1, 2, rungs + 2),
                      (0, rungs, rungs + 1, rungs + 2)))
    witness = feasible_from_pairs(G, tuple(pairs))
    assert witness is not None
    assert witness.covered == G.full_edge_mask()
    # rail b has rungs - 1 edges; the extra pair adds at most two of them
    assert sum(len(path) > 2 for _, path in witness.assignments) >= rungs - 2


def _source_pairs_cases():
    for name, G in family_graphs(14):
        yield pytest.param(G, id=name)
    for seed in range(30):
        G = random_connected_graph(random.Random(seed), max_n=14)
        yield pytest.param(G, id=f"random{seed}")


def _assert_pairs_match_enumeration(G, ks):
    """``source_pairs`` walks all of a source's geodesics at once; this
    checks it against one ``enumerate_geodesics`` call per pair: the masks
    are those of the enumerated paths, in their order, and ``mask_path``
    rebuilds each path from its mask, also where three or more edges leave
    the path not fixed by its ends; it returns how many such masks it
    checked. Calls alone and calls that share one arc table give the same
    pairs."""
    arcs = [None] * G.n
    unfixed = 0
    for u in range(G.n):
        dist = bfs_distances(G, u)
        for k in ks:
            pairs = source_pairs(G, u, k)
            assert source_pairs(G, u, k, arcs) == pairs
            assert [t for _, t, _ in pairs] == [
                v for v in range(G.n) if 1 <= dist[v] <= k]
            for source, t, masks in pairs:
                paths = enumerate_geodesics(G, u, t)
                assert source == u
                assert masks == tuple(path_edge_mask(G, path)
                                      for path in paths)
                assert tuple(mask_path(G, u, t, m) for m in masks) == paths
                if len(paths) > 1 and len(paths[0]) > 3:
                    unfixed += len(paths)
    return unfixed


@pytest.mark.parametrize("G", _source_pairs_cases())
def test_source_pairs_match_per_pair_enumeration(G):
    _assert_pairs_match_enumeration(G, range(1, 5))


def test_source_pairs_are_plain_triples():
    """A pair is a plain (source, target, masks) tuple, no subclass."""
    G = family("cycle", 5)
    p = source_pairs(G, 0, 2)[1]
    assert type(p) is tuple
    assert p == (0, 2, (path_edge_mask(G, (0, 1, 2)),))
    assert mask_path(G, 0, 2, p[2][0]) == (0, 1, 2)


def test_source_pairs_cap(monkeypatch):
    # K_{2,5}: vertices 0 and 1 share the five vertices 2..6
    G = family("complete_bipartite", 2, 5)
    monkeypatch.setattr(pathcover.cover, "GEODESIC_CAP", 4)
    with pytest.raises(EnumerationCapError) as err:
        source_pairs(G, 0, 2)
    assert err.value.cap == 4
    monkeypatch.setattr(pathcover.cover, "GEODESIC_CAP", 5)
    by_target = {t: masks for _, t, masks in source_pairs(G, 0, 2)}
    assert len(by_target[1]) == 5


def test_source_pairs_runs_one_bfs(monkeypatch):
    """``weak_cover_set`` takes its distances from one ``bfs_distances``
    call that stops at depth k, ``source_pairs`` walks its ball without one,
    and neither enumerates geodesics."""
    calls = []

    def bfs(G, u, k=None):
        calls.append(("bfs", u, k))
        return bfs_distances(G, u, k)

    def geodesics(*args):
        calls.append(("geodesics",))
        return enumerate_geodesics(*args)

    # raising=False: cover need not import them, but must not call them
    for module in (pathcover.cover, pathcover.graph):
        monkeypatch.setattr(module, "bfs_distances", bfs, raising=False)
        monkeypatch.setattr(module, "enumerate_geodesics", geodesics,
                            raising=False)
    G = family("sierpinski", 3)
    assert source_pairs(G, 0, 3)
    assert calls == []
    assert weak_cover_set(G, 0, 3)
    assert calls == [("bfs", 0, 3)]


class _RecordingAdj(tuple):
    """An adjacency tuple that records every index read."""

    def __getitem__(self, i):
        self.reads.add(i)
        return super().__getitem__(i)


def test_source_cost_bounded_by_radius_k_ball():
    base = family("sierpinski", 5)
    adj = _RecordingAdj(base.adj)
    G = Graph(base.n, base.edges, adj, base.labels)
    k = 2
    dist = bfs_distances(base, 0)
    inner = {v for v in range(base.n) if dist[v] <= k - 1}
    assert len(inner) == 3 and base.n == 243
    for per_source in (weak_cover_set, source_pairs):
        adj.reads = set()
        assert per_source(G, 0, k) == per_source(base, 0, k)
        assert adj.reads == inner


def test_disconnected_graph_refused():
    """The three cover checks read S by one source policy: on 2K2 a
    non-empty S is refused by each, a witness whose paths cover every edge
    included."""
    G = build_graph(4, [(0, 1), (2, 3)])
    witness = parse_witness(G, "0 1 : 0 1\n2 3 : 2 3\n")
    assert witness.covered == G.full_edge_mask()
    for k in (1, 2):
        with pytest.raises(DisconnectedGraphError):
            verify_weak_cover(G, {0, 2}, k)
        with pytest.raises(DisconnectedGraphError):
            strong_feasible(G, {0, 2}, k)
        with pytest.raises(DisconnectedGraphError):
            verify_strong_witness(G, {0, 2}, k, witness)


@pytest.mark.parametrize("k", [0, -1, 2.0, 2.5, 3.5, True, "2"])
@pytest.mark.parametrize("call, least", [
    pytest.param(lambda G, k: weak_cover_set(G, 0, k), 1,
                 id="weak_cover_set"),
    pytest.param(lambda G, k: source_pairs(G, 0, k), 1, id="source_pairs"),
    pytest.param(lambda G, k: verify_weak_cover(G, [0], k), 1,
                 id="verify_weak_cover"),
    pytest.param(lambda G, k: strong_feasible(G, [0], k), 1,
                 id="strong_feasible"),
    pytest.param(lambda G, k: verify_strong_witness(
        G, [0], k, StrongWitness((), 0)), 1, id="verify_strong_witness"),
    pytest.param(lambda G, k: solve_exact(G, k, "weak"), 1,
                 id="solve_exact_weak"),
    pytest.param(lambda G, k: solve_exact(G, k, "strong"), 1,
                 id="solve_exact_strong"),
    pytest.param(lambda G, k: solve_greedy(G, k, "weak"), 1,
                 id="solve_greedy_weak"),
    pytest.param(lambda G, k: solve_greedy(G, k, "strong"), 1,
                 id="solve_greedy_strong"),
    pytest.param(lambda G, k: naive_oracle(G, k, "strong"), 1,
                 id="naive_oracle"),
    pytest.param(compute_bounds, 1, id="compute_bounds"),
    pytest.param(domination_number, 1, id="domination_number"),
    pytest.param(reduce_vc, 2, id="reduce_vc"),
    pytest.param(check_reduction, 2, id="check_reduction"),
])
def test_cover_layer_refuses_nonpositive_k(call, least, k):
    """Every entry point refuses a k that is no int (a bool included) or is
    below its least value, 1, or 2 for the reduction, even where there is
    no graph work to do: an edgeless graph, or a witness with no path."""
    if type(k) is not int:
        message = f"k must be an int, got {k!r}"
    elif least == 1:
        message = f"k must be positive, got {k}"
    else:
        message = f"k must be at least 2, got {k}"
    for G in (family("cycle", 5), build_graph(1, [])):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(G, k)


@pytest.mark.parametrize("v", [True, 0.0, "0"])
@pytest.mark.parametrize("call", [
    lambda G, v: bfs_distances(G, v),
    lambda G, v: bfs_distances(G, v, 1),
    lambda G, v: enumerate_geodesics(G, v, 1),
    lambda G, v: enumerate_geodesics(G, 1, v),
    lambda G, v: weak_cover_set(G, v, 2),
    lambda G, v: source_pairs(G, v, 2),
    lambda G, v: verify_weak_cover(G, [v], 2),
    lambda G, v: strong_feasible(G, [v], 2),
    lambda G, v: strong_feasible(G, [v, 2], 2),
    lambda G, v: verify_strong_witness(G, [v], 2, StrongWitness((), 0)),
], ids=["bfs_distances", "bfs_distances_k", "enumerate_geodesics_source",
        "enumerate_geodesics_target", "weak_cover_set", "source_pairs",
        "verify_weak_cover", "strong_feasible", "strong_feasible_pair",
        "verify_strong_witness"])
def test_entry_points_refuse_a_non_int_vertex(call, v):
    """A vertex is an int in 0..n-1: a bool, a float or a string equal to
    a vertex is refused, not read as that vertex."""
    with pytest.raises(VertexRangeError, match=re.escape(repr(v))):
        call(family("cycle", 5), v)


def test_strong_witness_of_keys_paths_by_their_ends():
    """``StrongWitness.of`` rebuilds each pick's path from its mask, fixes
    it for the pick's (source, target) pair and sorts the assignments;
    ``covered`` is the union of the pick masks, 0 for no picks."""
    G = family("cycle", 5)
    paths = [(3, 4, 0), (0, 1, 2), (0, 4), (0, 1)]
    picks = [(p[0], p[-1], path_edge_mask(G, p)) for p in paths]
    covered = G.edge_mask([(0, 1), (1, 2), (3, 4), (0, 4)])
    witness = StrongWitness.of(G, picks)
    assert witness == StrongWitness(
        (((0, 1), (0, 1)), ((0, 2), (0, 1, 2)), ((0, 4), (0, 4)),
         ((3, 0), (3, 4, 0))), covered)
    assert StrongWitness.of(G, iter(picks)) == witness
    assert StrongWitness.of(G, ()) == StrongWitness((), 0)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_strong_feasible_edgeless(n):
    assert strong_feasible(build_graph(n, []), range(n), 2) == \
        StrongWitness((), 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_strong_feasible_edgeless_and_sourceless_at_every_k(k):
    # k = 2 and the other k take different strong tests, with one rule: an
    # edgeless graph is covered by any set, and no source covers no edge
    for n in (0, 1, 3):
        assert strong_feasible(build_graph(n, []), range(n), k) == \
            StrongWitness((), 0)
    assert strong_feasible(family("path", 2), [], k) is None
    assert strong_feasible(family("cycle", 5), [], k) is None


@pytest.mark.parametrize("n", [0, 1, 3])
def test_verify_weak_cover_edgeless(n):
    # the same rule as strong_feasible: an edgeless graph is covered
    G = build_graph(n, [])
    assert verify_weak_cover(G, range(n), 2)
    assert verify_weak_cover(G, range(min(n, 1)), 2)


def test_source_out_of_range_refused():
    G = family("cycle", 5)
    witness = strong_feasible(G, [0, 1], 2)

    def check_witness(G, S, k):
        return verify_strong_witness(G, [0, 1, *S], k, witness)

    for check in (verify_weak_cover, strong_feasible, check_witness):
        for S in ([5], [0, -1]):
            with pytest.raises(VertexRangeError):
                check(G, S, 2)


def test_single_source_coverage_of_disconnected_graph():
    # the coverage from 0 within its own component, edge (0, 1)
    G = build_graph(4, [(0, 1), (2, 3)])
    assert weak_cover_set(G, 0, 2) == 1 << G.edge_id(0, 1)
    pairs = source_pairs(G, 0, 2)
    assert pairs == ((0, 1, (1 << G.edge_id(0, 1),)),)


# The 15 topologies of the benchmark's greedy-scale and weak-exact workloads
BENCHMARK_TOPOLOGIES = (
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
    ("sierpinski", (3,)),
    ("augmented_butterfly", (3,)),
    ("generalized_petersen", (20, 3)),
    ("hypercube", (5,)),
    ("butterfly", (3,)),
)


@pytest.mark.parametrize(
    "name, params", BENCHMARK_TOPOLOGIES,
    ids=[f"{f}{p}" for f, p in BENCHMARK_TOPOLOGIES])
def test_weak_cover_set_matches_geodesic_dag(name, params):
    # most of these graphs are many times wider than k, so the depth limit
    # of weak_cover_set's BFS leaves out most of the graph
    G = family(name, *params)
    for k in range(1, 5):
        masks = [weak_cover_set(G, u, k) for u in range(G.n)]
        for u in range(G.n):
            assert masks[u] == G.edge_mask(geodesic_dag(G, u, k))
        assert weak_masks(G, k) == masks


def _index_graphs():
    """(name, graph): the family graphs with up to 20 vertices, seeded
    random connected graphs, and a disconnected graph (a triangle with a
    pendant vertex, a path on three vertices and an isolated vertex)."""
    yield from family_graphs(20)
    for seed in range(100):
        yield f"random{seed}", random_connected_graph(random.Random(seed),
                                                      max_n=14)
    yield "disconnected", build_graph(
        8, [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5), (5, 6)])


@pytest.mark.parametrize("k", [1, 2, 3, 4, "n"])
def test_coverer_index_is_weak_cover_set_transposed(k):
    """Entry e of ``coverer_index`` holds exactly the sources u whose
    ``weak_cover_set`` holds edge e, and ``weak_masks`` is those sets, at
    k = 1 to 4 and at k = n, beyond every diameter."""
    for name, G in _index_graphs():
        kk = G.n if k == "n" else k
        masks = [weak_cover_set(G, u, kk) for u in range(G.n)]
        assert coverer_index(G, kk) == [
            sum(1 << u for u, m in enumerate(masks) if m >> e & 1)
            for e in range(G.m)], name
        assert weak_masks(G, kk) == masks, name


@pytest.mark.parametrize("G", [
    family("generalized_petersen", 7, 2),
    # components of diameters 4, 1 and 0: the balls of the path grow last
    build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)]),
    build_graph(1, []),
    build_graph(4, []),
], ids=["GP(7,2)", "disconnected", "one-vertex", "edgeless"])
def test_ball_layers_are_the_bfs_balls(G):
    """Radius by radius, ``ball_layers`` yields every vertex's ball as its
    BFS distances give it, and stops at the last radius at which a ball
    grows: the largest eccentricity within a component, the diameter of a
    connected graph, and 0 without edges."""
    dist = [bfs_distances(G, v) for v in range(G.n)]
    layers = list(ball_layers(G))
    assert len(layers) == 1 + max(max(d.values()) for d in dist)
    for r, layer in enumerate(layers):
        assert layer == [sum(1 << x for x, dx in d.items() if dx <= r)
                         for d in dist], r


@pytest.mark.parametrize("k", [1, 2, 3, 4, "n"])
def test_essential_edges_decide_weak_cover(k):
    """``solve._essential`` keeps, of each group of equal ``coverer_index``
    entries, the first edge, when its entry holds no other entry; every
    dropped edge's entry holds a kept one. So a vertex set meets every
    entry exactly when it meets the kept ones, checked on random sets and
    on the complement of each entry. At k = 1 an entry is an edge's two
    ends, which holds no other, so none is dropped."""
    rng = random.Random(k)
    answers = set()
    for name, G in _index_graphs():
        index = coverer_index(G, G.n if k == "n" else k)
        essential = _essential(index)
        kept = [c for e, c in enumerate(index) if essential >> e & 1]
        for e, c in enumerate(index):
            if essential >> e & 1:
                assert index.index(c) == e, (name, e)
                assert all(d == c or c & d != d for d in index), (name, e)
            else:
                assert any(c & d == d for d in kept), (name, e)
        if k == 1:
            assert essential == G.full_edge_mask(), name
        full = (1 << G.n) - 1
        sets = [full & ~c for c in index] + [
            sum(1 << v for v in range(G.n) if rng.random() < density)
            for density in (0.3, 0.6, 0.9)]
        for S in sets:
            meets = all(c & S for c in index)
            assert meets == all(c & S for c in kept), (name, S)
            answers.add(meets)
    assert answers == {True, False}


@pytest.mark.parametrize("name, params, k, kept", [
    # every vertex covers every edge: one entry, all vertices, for all 35
    ("complete_bipartite", (5, 7), 2, 1),
    # 30 distinct entries, none inside another
    ("crown", (6,), 2, 30),
])
def test_essential_edge_counts(name, params, k, kept):
    G = family(name, *params)
    assert _essential(coverer_index(G, k)).bit_count() == kept


def _random_subsets(seed):
    """(name, graph, S): the connected ``_index_graphs()`` with random
    vertex subsets of every size from empty to all."""
    rng = random.Random(seed)
    for name, G in _index_graphs():
        if name == "disconnected":
            continue
        for size in sorted({0, rng.randint(0, G.n), G.n}):
            yield name, G, rng.sample(range(G.n), size)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_weak_cover_is_the_union_of_weak_cover_sets(k):
    """``verify_weak_cover``, one coverer index test, says yes exactly when
    the ``weak_cover_set`` masks of S cover every edge."""
    answers = set()
    for name, G, S in _random_subsets(k):
        union = 0
        for u in S:
            union |= weak_cover_set(G, u, k)
        expected = union == G.full_edge_mask()
        assert verify_weak_cover(G, S, k) == expected, (name, S)
        answers.add(expected)
    assert answers == {True, False}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_strong_feasible_refuses_a_non_weak_cover_without_pairs(
        k, monkeypatch):
    """A set that is no weak cover is no strong cover, and
    ``strong_feasible`` refuses it before it builds a source's pairs."""
    def refuse(*args):
        raise AssertionError("source_pairs called")

    monkeypatch.setattr(pathcover.cover, "source_pairs", refuse)
    refused = 0
    for name, G, S in _random_subsets(k):
        if not verify_weak_cover(G, S, k):
            assert strong_feasible(G, S, k) is None, (name, S)
            refused += 1
    assert refused >= 50


@pytest.mark.parametrize(
    "name, params",
    [("sierpinski", (4,)), ("generalized_petersen", (20, 3)),
     ("butterfly", (4,))],
    ids=["sierpinski(4,)", "generalized_petersen(20, 3)", "butterfly(4,)"])
def test_source_pairs_match_enumeration_on_wide_graphs(name, params):
    G = family(name, *params)
    assert G.n >= 40
    assert _assert_pairs_match_enumeration(G, (2, 3)) > 0


def _k2_feasibility_case(seed):
    """A random connected graph with 4 to 11 vertices and a source set:
    for even seeds up to half the vertices at random, for odd seeds the
    shortest prefix of a random order that covers weakly, sometimes with
    one more vertex, so that few answers follow from the weak cover."""
    rng = random.Random(seed)
    G = build_graph(0, [])
    while G.n < 4:
        G = random_connected_graph(rng, max_n=11,
                                   edge_prob=rng.choice((0.3, 0.45, 0.6)))
    order = rng.sample(range(G.n), G.n)
    if seed % 2 == 0:
        return G, sorted(order[:rng.randint(1, (G.n + 1) // 2)])
    size, weak = 0, 0
    while weak != G.full_edge_mask():
        weak |= weak_cover_set(G, order[size], 2)
        size += 1
    return G, sorted(order[:size + rng.randint(0, 1)])


def test_matching_leaf_agrees_with_oracle():
    """At k = 2 ``feasible_from_pairs`` decides by one matching over all
    pairs, and ``strong_feasible`` returns its answer; the oracle tries
    every choice of one geodesic per pair. All must agree, and every
    witness must check out."""
    outcomes = {"feasible": 0, "infeasible": 0, "weakly covered": 0}
    for seed in range(400):
        G, S = _k2_feasibility_case(seed)
        pairs = tuple(p for u in S for p in source_pairs(G, u, 2))
        witness = feasible_from_pairs(G, pairs)
        feasible = _oracle_strong_feasible(G, list(pairs)) is not None
        assert (witness is not None) == feasible, seed
        assert strong_feasible(G, S, 2) == witness, seed
        if feasible:
            assert verify_strong_witness(G, S, 2, witness), seed
            outcomes["feasible"] += 1
        else:
            outcomes["infeasible"] += 1
            if verify_weak_cover(G, S, 2):
                outcomes["weakly covered"] += 1
    # both answers occur, and some refusals are not read off the weak cover
    assert min(outcomes.values()) >= 30, outcomes


@pytest.mark.parametrize("k", [1, 2, 3])
def test_feasible_from_pairs_is_handed_only_weak_covers(k, monkeypatch):
    """``feasible_from_pairs`` makes no union pre-check: it is handed the
    pairs of a weak cover. ``solve_exact`` (its strong test, at k != 2)
    and ``strong_feasible`` keep to that on every family graph up to 12
    vertices, for the optimum, the optimum less a vertex and a random set,
    many of them no weak cover."""
    real = pathcover.cover.feasible_from_pairs
    handed = []

    def guarded(G, pairs):
        union = 0
        for _, _, masks in pairs:
            for m in masks:
                union |= m
        assert union == G.full_edge_mask()
        handed.append(G)
        return real(G, pairs)

    monkeypatch.setattr(pathcover.cover, "feasible_from_pairs", guarded)
    rng = random.Random(k)
    refused = 0
    for name, G in family_graphs(12):
        found = solve_exact(G, k, "strong").set
        for S in (found, found[:-1],
                  rng.sample(range(G.n), rng.randint(0, G.n))):
            if strong_feasible(G, S, k) is None:
                refused += 1
    assert len(handed) >= 100 and refused >= 100, (len(handed), refused)


@pytest.mark.parametrize("k", [1, 3, 4])
def test_feasible_from_pairs_agrees_with_oracle_on_non_covers(k):
    """Called directly, with no weak cover check before it,
    ``feasible_from_pairs`` agrees with the oracle on the pairs of random
    sets of random graphs of at most 9 vertices, and its witnesses check
    out; pairs that cover less than the edge set give None."""
    rng = random.Random(k)
    outcomes = {"feasible": 0, "no weak cover": 0}
    for _ in range(300):
        G = random_connected_graph(rng, max_n=9,
                                   edge_prob=rng.choice((0.3, 0.5)))
        S = sorted(rng.sample(range(G.n), rng.randint(1, G.n)))
        pairs = tuple(p for u in S for p in source_pairs(G, u, k))
        witness = feasible_from_pairs(G, pairs)
        feasible = _oracle_strong_feasible(G, list(pairs)) is not None
        assert (witness is not None) == feasible, (G.edges, S)
        if feasible:
            assert verify_strong_witness(G, S, k, witness), (G.edges, S)
            outcomes["feasible"] += 1
        elif not verify_weak_cover(G, S, k):
            outcomes["no weak cover"] += 1
    assert min(outcomes.values()) >= 30, outcomes
