import random

import pytest

import pathcover.cover
from pathcover import (
    EnumerationCapError,
    StrongWitness,
    bfs_distances,
    build_graph,
    enumerate_geodesics,
    format_witness,
    parse_witness,
    strong_feasible,
    verify_strong_witness,
    verify_weak_cover,
    weak_cover_set,
)
from pathcover.cover import (
    PairChoices,
    feasible_from_pairs,
    path_edge_mask,
    source_pairs,
)
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


def test_feasible_from_pairs_long_ladder_needs_no_recursion():
    """Rail a of a 1,100-rung ladder strongly covers it at k = 2. Rung and
    rail pairs are forced; each rail-b edge needs its own diagonal pair, so
    the search assigns 1,099 pairs in a row. The pairs are built directly,
    so the test exercises the search alone."""
    rungs = 1100
    # rail a is 0..rungs-1, rail b is rungs..2*rungs-1, rung i joins i, rungs+i
    edges = [(i, rungs + i) for i in range(rungs)]
    edges += [(i, i + 1) for i in range(rungs - 1)]
    edges += [(rungs + i, rungs + i + 1) for i in range(rungs - 1)]
    G = build_graph(2 * rungs, edges)

    def pair(u, v, *paths):
        return PairChoices(u, v, paths,
                           tuple(path_edge_mask(G, p) for p in paths))

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
    witness = feasible_from_pairs(G, tuple(pairs))
    assert witness is not None
    assert witness.covered == G.full_edge_mask()


def _source_pairs_cases():
    for name, G in family_graphs(14):
        yield pytest.param(G, id=name)
    for seed in range(30):
        G = random_connected_graph(random.Random(seed), max_n=14)
        yield pytest.param(G, id=f"random{seed}")


@pytest.mark.parametrize("G", _source_pairs_cases())
def test_source_pairs_match_per_pair_enumeration(G):
    """``source_pairs`` walks all of a source's geodesics at once; this
    checks it against one ``enumerate_geodesics`` call per pair."""
    for u in range(G.n):
        dist = bfs_distances(G, u).dist
        for k in range(1, 5):
            pairs = source_pairs(G, u, k)
            assert [p.target for p in pairs] == [
                v for v in range(G.n) if 1 <= dist[v] <= k]
            for p in pairs:
                assert p.source == u
                assert p.paths == enumerate_geodesics(G, u, p.target)
                assert p.masks == tuple(path_edge_mask(G, path)
                                        for path in p.paths)


def test_source_pairs_cap():
    # K_{2,5}: vertices 0 and 1 share the five vertices 2..6
    G = family("complete_bipartite", 2, 5)
    with pytest.raises(EnumerationCapError) as err:
        source_pairs(G, 0, 2, cap=4)
    assert err.value.cap == 4
    pairs = {p.target: p for p in source_pairs(G, 0, 2, cap=5)}
    assert len(pairs[1].paths) == 5


def test_source_pairs_runs_one_bfs(monkeypatch):
    calls = {"bfs": 0, "geodesics": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pathcover.cover, "bfs_distances",
                        counted("bfs", bfs_distances))
    # raising=False: the module need not import it, but must not call it
    monkeypatch.setattr(pathcover.cover, "enumerate_geodesics",
                        counted("geodesics", enumerate_geodesics),
                        raising=False)
    G = family("sierpinski", 3)
    assert source_pairs(G, 0, 3)
    assert calls == {"bfs": 1, "geodesics": 0}
