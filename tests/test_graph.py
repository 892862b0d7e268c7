import re

import pytest

import pathcover
import pathcover.graph
from pathcover import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EnumerationCapError,
    GraphError,
    SelfLoopError,
    VertexRangeError,
    bfs_distances,
    build_graph,
    diameter,
    enumerate_geodesics,
    format_edgelist,
    geodesic_dag,
    maximal_cliques,
    parse_edgelist,
)
from conftest import family, family_graphs
from reference import count_geodesics, simplicial_vertices


def test_build_triangle():
    G = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert G.n == 3 and G.m == 3
    assert G.edges == ((0, 1), (0, 2), (1, 2))
    assert G.adj == ((1, 2), (0, 2), (0, 1))


def test_build_normalizes_orientation_and_order():
    G = build_graph(4, [(3, 1), (2, 0)])
    assert G.edges == ((0, 2), (1, 3))
    assert G.edge_id(3, 1) == 1


def test_graphs_equal_by_vertex_count_and_edge_set():
    G = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    H = build_graph(4, [(3, 2), (1, 0), (2, 1)])
    assert G == H and hash(G) == hash(H)
    assert G != build_graph(5, [(0, 1), (1, 2), (2, 3)])
    assert (G == 1) is False
    assert repr(G) == "Graph(n=4, m=3)"


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(2, [(0, 0)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        build_graph(4, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        build_graph(3, [(0, 3)])


@pytest.mark.parametrize("n, edges", [
    (3, [(True, 2), (0, 1)]),
    (3, [(0.0, 1)]),
    (True, []),
    (2.0, []),
    ("3", []),
], ids=["bool-endpoint", "float-endpoint", "bool-n", "float-n", "str-n"])
def test_build_applies_the_vertex_rule(n, edges):
    """``n`` and every endpoint are ints, a bool not, as ``_check_vertex``
    asks of a vertex; anything else is refused with VertexRangeError."""
    with pytest.raises(VertexRangeError):
        build_graph(n, edges)


def test_bfs_cycle5():
    assert bfs_distances(family("cycle", 5), 0) == {
        0: 0, 1: 1, 2: 2, 3: 2, 4: 1}


def test_bfs_path_endpoint():
    assert bfs_distances(family("path", 4), 0) == {0: 0, 1: 1, 2: 2, 3: 3}


def test_bfs_two_components_sentinel():
    G = build_graph(4, [(0, 1), (2, 3)])
    assert bfs_distances(G, 0) == {0: 0, 1: 1}


BFS_DEPTH_CASES = [
    *family_graphs(20),
    ("two components", build_graph(5, [(0, 1), (1, 2), (3, 4)]))]


@pytest.mark.parametrize("label,G", BFS_DEPTH_CASES,
                         ids=[label for label, _ in BFS_DEPTH_CASES])
def test_bfs_depth_restricts_the_whole_graph_walk(label, G):
    """At depth k = 0 .. diameter + 1 (on the disconnected graph, the
    largest eccentricity in a component), ``bfs_distances`` keeps exactly
    the vertices the whole-graph walk puts within distance k."""
    whole = [bfs_distances(G, u) for u in range(G.n)]
    d = max(max(row.values()) for row in whole)
    for u, row in enumerate(whole):
        assert bfs_distances(G, u, 0) == {u: 0}
        for k in range(d + 2):
            assert bfs_distances(G, u, k) == {
                x: dx for x, dx in row.items() if dx <= k}
    for u in (-1, G.n):
        with pytest.raises(VertexRangeError):
            bfs_distances(G, u, 1)


@pytest.mark.parametrize("k", [-1, 1.5, 2.0, True, "2"])
def test_bfs_depth_is_an_int_of_at_least_zero(k):
    """A depth is an int >= 0: k = 0 keeps only the source, and a negative,
    fractional, bool or string depth is refused rather than walked."""
    G = family("cycle", 5)
    assert bfs_distances(G, 3, 0) == {3: 0}
    with pytest.raises(ValueError, match="k must be"):
        bfs_distances(G, 3, k)


def test_public_names_resolve_once_without_the_test_only_graph_api():
    """Every name of ``pathcover.__all__`` resolves and is listed once;
    the graph functions only tests call live in ``tests/reference.py``,
    and ``geodesic_dag`` returns its arcs, so none of these is exported."""
    names = pathcover.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(pathcover, name)] == []
    for name in ("GeodesicDag", "count_geodesics", "simplicial_vertices"):
        assert name not in names and not hasattr(pathcover, name)


def test_diameter_values():
    assert diameter(family("wheel", 3)) == 1  # K_4
    assert diameter(family("cycle", 6)) == 3
    assert diameter(family("generalized_petersen", 5, 2)) == 2


def test_diameter_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        diameter(build_graph(3, [(0, 1)]))


def test_geodesic_walks_refuse_a_disconnected_pair():
    G = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        geodesic_dag(G, 0, 2)
    with pytest.raises(DisconnectedGraphError):
        enumerate_geodesics(G, 0, 3)


def test_geodesic_dag_cycle5():
    dag = geodesic_dag(family("cycle", 5), 0, 2)
    assert dag == {(0, 1), (1, 2), (0, 4), (4, 3)}
    # the edge (2, 3) appears in no arc
    assert not any({x, y} == {2, 3} for x, y in dag)


def test_geodesic_dag_path_center_k1():
    dag = geodesic_dag(family("path", 3), 1, 1)
    assert dag == {(1, 0), (1, 2)}


def test_geodesic_dag_k0_empty():
    assert geodesic_dag(family("cycle", 4), 0, 0) == frozenset()


def test_enumerate_geodesics_k23():
    G = family("complete_bipartite", 2, 3)
    paths = enumerate_geodesics(G, 0, 1)
    assert paths == ((0, 2, 1), (0, 3, 1), (0, 4, 1))
    assert count_geodesics(G, 0, 1) == 3


def test_enumerate_geodesics_adjacent_pair():
    assert enumerate_geodesics(family("path", 2), 0, 1) == ((0, 1),)


def test_enumerate_geodesics_antipodal_c4():
    assert enumerate_geodesics(family("cycle", 4), 0, 2) == (
        (0, 1, 2), (0, 3, 2))


def test_enumerate_geodesics_cap_overflow(monkeypatch):
    G = family("complete_bipartite", 2, 5)
    monkeypatch.setattr(pathcover.graph, "GEODESIC_CAP", 3)
    with pytest.raises(EnumerationCapError) as exc:
        enumerate_geodesics(G, 0, 1)
    assert exc.value.cap == 3


@pytest.mark.parametrize("target", [-1, 6, 99])
def test_geodesic_target_out_of_range(target):
    G = family("cycle", 6)
    with pytest.raises(VertexRangeError):
        count_geodesics(G, 0, target)
    with pytest.raises(VertexRangeError):
        enumerate_geodesics(G, 0, target)


def test_enumerate_geodesics_long_path_needs_no_recursion():
    # 1,100 path vertices exceed the interpreter's default recursion limit
    assert enumerate_geodesics(family("path", 1100), 0, 1099) == (
        tuple(range(1100)),)


def test_enumerate_geodesics_counts_match_dag_dp(rng):
    from conftest import random_connected_graph
    for _ in range(25):
        G = random_connected_graph(rng)
        for u in range(G.n):
            for v in range(G.n):
                assert len(enumerate_geodesics(G, u, v)) == \
                    count_geodesics(G, u, v)


def test_simplicial_vertices():
    assert simplicial_vertices(family("wheel", 3)) == frozenset({0, 1, 2, 3})
    assert simplicial_vertices(family("cycle", 5)) == frozenset()
    assert simplicial_vertices(family("path", 3)) == frozenset({0, 2})


def test_maximal_cliques_triangle():
    assert maximal_cliques(family("cycle", 3)) == ((0, 1, 2),)


def test_maximal_cliques_of_the_empty_graph():
    assert maximal_cliques(build_graph(0, [])) == ()


def test_maximal_cliques_bipartite_edges():
    cliques = maximal_cliques(family("complete_bipartite", 2, 3))
    assert len(cliques) == 6
    assert all(len(c) == 2 for c in cliques)


def test_maximal_cliques_silicate():
    cliques = maximal_cliques(family("silicate", 1))
    assert len(cliques) == 6
    assert all(len(c) == 4 for c in cliques)


def test_maximal_cliques_cap(monkeypatch):
    monkeypatch.setattr(pathcover.graph, "CLIQUE_CAP", 5)
    with pytest.raises(EnumerationCapError):
        maximal_cliques(family("complete_bipartite", 3, 3))


def test_edgelist_round_trip():
    G = family("butterfly", 2)
    assert parse_edgelist(format_edgelist(G)) == G


def test_edgelist_ignores_comments_and_blanks():
    text = "# header comment\n3 2\n\n0 1\n# middle\n1 2\n"
    G = parse_edgelist(text)
    assert (G.n, G.m) == (3, 2)


def test_edgelist_header_mismatch():
    with pytest.raises(GraphError):
        parse_edgelist("3 2\n0 1\n")


# (document, the start of its GraphError message); test_cli reads these too
BAD_EDGELISTS = [
    ("", "empty edge-list document"),
    ("# a comment only\n\n", "empty edge-list document"),
    ("3\n", "bad header '3', expected 'n m'"),
    ("3 2 1\n0 1\n", "bad header '3 2 1', expected 'n m'"),
    ("3 x\n", "bad header '3 x': invalid literal"),
    ("2.0 1\n0 1\n", "bad header '2.0 1': invalid literal"),
    ("3 1\n0 1\n1 2\n", "header declares 1 edges, found 2"),
    ("3 1\n0 1 2\n", "bad edge line '0 1 2'"),
    ("3 1\n0\n", "bad edge line '0'"),
    ("3 1\n0 b\n", "bad edge line '0 b': invalid literal"),
]


@pytest.mark.parametrize("text, message", BAD_EDGELISTS)
def test_edgelist_refusals_name_the_fault(text, message):
    with pytest.raises(GraphError, match="^" + re.escape(message)):
        parse_edgelist(text)


def test_wrong_number_of_labels_refused():
    with pytest.raises(VertexRangeError, match="expected 3 labels, got 2"):
        build_graph(3, [(0, 1)], labels=["a", "b"])
