"""Invariant checks on randomly generated connected graphs."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from pathcover import (
    bfs_distances,
    build_graph,
    diameter,
    enumerate_geodesics,
    geodesic_dag,
    maximal_cliques,
    naive_oracle,
    solve_exact,
    strong_feasible,
    verify_weak_cover,
    weak_cover_set,
)
from pathcover.cover import source_pairs
from reference import count_geodesics, simplicial_vertices


@st.composite
def connected_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    # random spanning tree keeps the graph connected by construction
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pool = [e for e in combinations(range(n), 2) if e not in edges]
    extra = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return build_graph(n, sorted(edges | set(extra)))


small_k = st.integers(min_value=1, max_value=3)


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_bfs_distance_symmetry(G):
    fields = [bfs_distances(G, u) for u in range(G.n)]
    for u in range(G.n):
        assert fields[u][u] == 0
        for v in range(G.n):
            assert fields[u][v] == fields[v][u]
        for x, y in G.edges:
            assert abs(fields[u][x] - fields[u][y]) <= 1


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_dag_at_diameter_is_unequal_distance_edges(G):
    d = diameter(G)
    for u in range(G.n):
        dist = bfs_distances(G, u)
        arcs = geodesic_dag(G, u, max(d, 1))
        undirected = {(min(x, y), max(x, y)) for x, y in arcs}
        expected = {(x, y) for x, y in G.edges if dist[x] != dist[y]}
        assert undirected == expected


@given(connected_graphs(max_n=7), small_k)
@settings(max_examples=40, deadline=None)
def test_geodesics_increase_distance_and_count_correctly(G, k):
    for u in range(G.n):
        dist = bfs_distances(G, u)
        for v in range(G.n):
            if u == v or dist[v] > k:
                continue
            paths = enumerate_geodesics(G, u, v)
            assert len(paths) == count_geodesics(G, u, v)
            for path in paths:
                assert len(path) == dist[v] + 1
                assert [dist[x] for x in path] == list(range(dist[v] + 1))


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_simplicial_vertex_in_exactly_one_maximal_clique(G):
    cliques = maximal_cliques(G)
    for v in simplicial_vertices(G):
        assert sum(1 for c in cliques if v in c) == 1


@given(connected_graphs(), st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_weak_cover_monotone_in_k(G, u):
    u %= G.n
    previous = 0
    for k in range(1, 5):
        mask = weak_cover_set(G, u, k)
        assert mask & previous == previous
        previous = mask


@given(connected_graphs(max_n=6), small_k)
@settings(max_examples=30, deadline=None)
def test_strong_coverage_within_weak_and_equality_when_unique(G, k):
    for u in range(G.n):
        weak = weak_cover_set(G, u, k)
        pairs = source_pairs(G, u, k)
        union = 0
        for _, _, masks in pairs:
            for mask in masks:
                union |= mask
                assert mask & weak == mask  # each geodesic stays inside weak
        assert union == weak
        if all(len(masks) == 1 for _, _, masks in pairs):
            forced = 0
            for _, _, masks in pairs:
                forced |= masks[0]
            assert forced == weak


@given(connected_graphs(max_n=6), small_k, st.data())
@settings(max_examples=40, deadline=None)
def test_omission_neutrality(G, k, data):
    """Feasibility with every pair forced to pick a path (the oracle's
    search) equals feasibility with omission allowed (the edge-driven
    search)."""
    from pathcover.solve import _oracle_strong_feasible
    S = data.draw(st.sets(st.integers(0, G.n - 1), min_size=1))
    witness = strong_feasible(G, S, k)
    pair_list = []
    for u in sorted(S):
        pair_list.extend(source_pairs(G, u, k))
    mandatory = _oracle_strong_feasible(G, pair_list)
    assert (witness is not None) == (mandatory is not None)


@given(connected_graphs(max_n=7), small_k)
@settings(max_examples=30, deadline=None)
def test_full_vertex_set_always_strong(G, k):
    assert strong_feasible(G, range(G.n), k) is not None
    assert verify_weak_cover(G, range(G.n), k)


@given(connected_graphs(max_n=6), small_k)
@settings(max_examples=25, deadline=None)
def test_exact_matches_oracle(G, k):
    for variant in ("weak", "strong"):
        exact = solve_exact(G, k, variant)
        oracle = naive_oracle(G, k, variant)
        assert exact.optimum == oracle.optimum
        assert exact.set == oracle.set
