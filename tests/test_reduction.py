import random

import pytest

from pathcover import (
    SizeLimitError,
    bfs_distances,
    build_graph,
    check_reduction,
    gadget_size_formulas,
    naive_oracle,
    reduce_vc,
    strong_feasible,
    vertex_cover_exact,
)
from pathcover import reduction
from pathcover.reduction import (
    GADGET_VERTEX_LIMIT,
    ROLE_APEX_B,
    ROLE_APEX_C,
    ROLE_ORIGINAL,
    ROLE_PATH,
    ROLE_TAIL,
    ROLE_TRIANGLE,
    forward_witness_set,
)
from conftest import family

SMALL_INPUTS = {
    "K2": family("path", 2),
    "P3": family("path", 3),
    "C3": family("cycle", 3),
    "P4": family("path", 4),
}


@pytest.mark.parametrize("name", sorted(SMALL_INPUTS))
@pytest.mark.parametrize("k", [2, 3])
def test_gadget_sizes(name, k):
    G = SMALL_INPUTS[name]
    red = reduce_vc(G, k)
    assert (red.gadget.n, red.gadget.m) == gadget_size_formulas(G.n, G.m, k)
    assert red.offset == (4 if k == 2 else 2)


def test_pinned_gadget_vertex_counts():
    assert reduce_vc(family("path", 2), 2).gadget.n == 12
    assert reduce_vc(family("path", 2), 3).gadget.n == 12
    assert reduce_vc(family("cycle", 3), 2).gadget.n == 17


def test_reduce_vc_refuses_a_gadget_over_the_limit(monkeypatch):
    """The K_2 gadget has 2k + 6 vertices at k >= 3: at k = 4,997 it has
    exactly ``GADGET_VERTEX_LIMIT`` and is built; one more k and a huge
    one raise ``SizeLimitError`` before any graph is built."""
    K2 = family("path", 2)
    assert GADGET_VERTEX_LIMIT == 10_000
    assert reduce_vc(K2, 4_997).gadget.n == GADGET_VERTEX_LIMIT

    def no_build(*args):
        raise AssertionError("a gadget over the limit was built")

    monkeypatch.setattr(reduction, "build_graph", no_build)
    for k in (4_998, 10**8):
        with pytest.raises(SizeLimitError, match="10000-vertex limit"):
            reduce_vc(K2, k)


def _random_simple_graph(rng):
    n = rng.randint(2, 9)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.5]
    if not edges:
        edges = [(0, 1)]
    return build_graph(n, edges)


def test_size_formulas_on_random_inputs():
    rng = random.Random(987)
    for _ in range(50):
        G = _random_simple_graph(rng)
        for k in (2, 3, 4, 5):
            red = reduce_vc(G, k)
            assert (red.gadget.n, red.gadget.m) == \
                gadget_size_formulas(G.n, G.m, k)


def test_originals_form_independent_set():
    rng = random.Random(11)
    for _ in range(10):
        G = _random_simple_graph(rng)
        red = reduce_vc(G, 2)
        originals = [v for v, role in enumerate(red.roles)
                     if role == ROLE_ORIGINAL]
        assert originals == list(range(G.n))
        for i, u in enumerate(originals):
            for v in originals[i + 1:]:
                assert not red.gadget.has_edge(u, v)


def test_k2_gadget_distances():
    G = family("cycle", 3)
    red = reduce_vc(G, 2)
    apex_b = red.names["apex_b"]
    path_ids = [v for v, role in enumerate(red.roles) if role == ROLE_PATH]
    for u in range(G.n):
        dist = bfs_distances(red.gadget, u)
        assert dist[apex_b] == 1
        for p in path_ids:
            if red.gadget.has_edge(u, p):
                # the far path vertex of the same subdivided edge sits at 2
                (far,) = [q for q in red.gadget.adj[p]
                          if red.roles[q] == ROLE_PATH]
                assert dist[far] == 2


def test_roles_partition():
    red = reduce_vc(family("path", 3), 4)
    counts = {}
    for role in red.roles:
        counts[role] = counts.get(role, 0) + 1
    assert counts[ROLE_ORIGINAL] == 3
    assert counts[ROLE_PATH] == 4
    assert counts[ROLE_APEX_B] == counts[ROLE_APEX_C] == 1
    assert counts["triangle"] == 6
    assert counts["tail"] == 2  # k - 3 per side


@pytest.mark.parametrize("name", sorted(SMALL_INPUTS))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_gadget_numbering_and_neighbourhoods(name, k):
    """The path vertices of input edge i are n + 2i and n + 2i + 1, the
    apexes n + 2m and n + 2m + 1, and every later vertex lies on side b
    and then side c: its tail, contact and deep vertices in that order.
    Apex b is joined to the originals, apex c to the path vertices. At
    k = 2 each contact is joined to both apexes; at k >= 3 a chain runs
    from its apex through k - 3 tail vertices to it. Each triangle is its
    contact and two deep vertices, joined to nothing else."""
    G = SMALL_INPUTS[name]
    red = reduce_vc(G, k)
    adj = [set(neigh) for neigh in red.gadget.adj]
    names = red.names
    n, m = G.n, G.m
    apexes = {names["apex_b"], names["apex_c"]}
    contacts = {names["contact_b"], names["contact_c"]}
    assert (names["apex_b"], names["apex_c"]) == (n + 2 * m, n + 2 * m + 1)
    for i, (u, v) in enumerate(G.edges):
        p = n + 2 * i
        assert red.roles[p] == red.roles[p + 1] == ROLE_PATH
        assert adj[p] == {u, p + 1, names["apex_c"]}
        assert adj[p + 1] == {p, v, names["apex_c"]}
    later = []
    for side, reach in (("b", set(range(n))), ("c", set(range(n, n + 2 * m)))):
        apex, x = names[f"apex_{side}"], names[f"contact_{side}"]
        deep = {names[f"deep_{side}1"], names[f"deep_{side}2"]}
        if k == 2:
            chain = [apex, x]
            assert adj[apex] == reach | contacts
            assert adj[x] == apexes | deep
        else:
            (first,) = adj[apex] - reach
            chain = [apex, first]
            for _ in range(k - 3):
                (step,) = adj[chain[-1]] - {chain[-2]}
                chain.append(step)
            assert chain[-1] == x
            assert adj[x] == {chain[-2]} | deep
        assert [red.roles[t] for t in chain[1:-1]] == [ROLE_TAIL] * (k - 3)
        for d in deep:
            assert adj[d] == {x} | deep - {d}
            assert red.roles[d] == red.roles[x] == ROLE_TRIANGLE
        later += chain[1:] + [names[f"deep_{side}1"], names[f"deep_{side}2"]]
    assert later == list(range(n + 2 * m + 2, red.gadget.n))


def test_reduce_rejects_bad_inputs():
    with pytest.raises(ValueError):
        reduce_vc(family("path", 2), 1)
    with pytest.raises(ValueError):
        reduce_vc(build_graph(3, []), 2)


def test_vertex_cover_examples():
    assert vertex_cover_exact(family("cycle", 5))[0] == 3
    assert vertex_cover_exact(family("wheel", 3))[0] == 3  # K_4
    assert vertex_cover_exact(family("complete_bipartite", 1, 5)) == (1, (0,))


@pytest.mark.parametrize("name", sorted(SMALL_INPUTS))
def test_forward_witness_validates_at_k2(name):
    chk = check_reduction(SMALL_INPUTS[name], 2)
    assert chk.sizes_ok
    assert chk.forward_ok
    assert chk.exact_optimum is None or chk.exact_optimum <= chk.claimed_ub


@pytest.mark.parametrize("name", sorted(SMALL_INPUTS))
def test_forward_witness_fails_at_k3(name):
    """At k = 3 the designated cover set provably cannot cover the second
    triangle: the deep edge not incident to the selected deep vertex is only
    on geodesics from the far apex, its tail, or the path vertices, none of
    which are in the set. The checker must report that honestly."""
    chk = check_reduction(SMALL_INPUTS[name], 3)
    assert chk.sizes_ok
    assert not chk.forward_ok


def test_k3_gadget_optimum_confirmed_by_oracle():
    # the K2 gadget at k = 3 has 12 vertices, small enough for the oracle
    G = family("path", 2)
    red = reduce_vc(G, 3)
    oracle = naive_oracle(red.gadget, 3, "strong")
    exact = check_reduction(G, 3).exact_optimum
    assert oracle.optimum == exact == 4
    # ... which exceeds vertex cover + offset = 3, for every witness variant
    for b in ("deep_b1", "deep_b2"):
        for c in ("deep_c1", "deep_c2"):
            W = {0, red.names[b], red.names[c]}
            assert strong_feasible(red.gadget, W, 3) is None


def test_forward_witness_set_composition():
    G = family("cycle", 3)
    red2 = reduce_vc(G, 2)
    vc = vertex_cover_exact(G)[1]
    w2 = forward_witness_set(red2, vc)
    assert len(w2) == len(vc) + 4
    red3 = reduce_vc(G, 3)
    w3 = forward_witness_set(red3, vc)
    assert len(w3) == len(vc) + 2
