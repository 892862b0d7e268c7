from collections import Counter

import pytest

from pathcover import (
    FamilyParamError,
    FamilySpec,
    UnknownFamilyError,
    expected_size,
    generate,
    is_connected,
)
from pathcover.families import FAMILY_NAMES, _honeycomb
from conftest import family

SWEEP = {
    "path": [(1,), (2,), (7,)],
    "cycle": [(3,), (5,), (9,)],
    "wheel": [(3,), (5,), (8,)],
    "double_wheel": [(3,), (5,)],
    "fan": [(1,), (2,), (6,)],
    "double_fan": [(1,), (2,), (6,)],
    "friendship": [(3, 1), (3, 3), (4, 2), (5, 4)],
    "complete_bipartite": [(1, 1), (2, 3), (3, 4)],
    "crown": [(3,), (4,), (5,)],
    "generalized_petersen": [(3, 1), (5, 2), (7, 3)],
    "hypercube": [(1,), (2,), (4,)],
    "butterfly": [(1,), (2,), (3,)],
    "augmented_butterfly": [(1,), (2,), (3,)],
    "enhanced_butterfly": [(1,), (2,), (3,)],
    "benes": [(1,), (2,), (3,)],
    "silicate": [(1,), (2,), (3,)],
    "sierpinski": [(1,), (2,), (3,), (4,)],
    "sierpinski_gasket": [(1,), (2,), (3,), (4,)],
}


def test_sweep_covers_every_family():
    assert set(SWEEP) == set(FAMILY_NAMES)


@pytest.mark.parametrize(
    "name,params",
    [(name, params) for name, plist in SWEEP.items() for params in plist],
)
def test_size_table_and_connectivity(name, params):
    G = generate(FamilySpec(name, params))
    assert (G.n, G.m) == expected_size(name, params)
    assert is_connected(G)
    assert G.labels is not None and len(G.labels) == G.n


def test_pinned_sizes():
    assert (family("wheel", 5).n, family("wheel", 5).m) == (6, 10)
    assert (family("silicate", 2).n, family("silicate", 2).m) == (66, 144)
    assert (family("butterfly", 3).n, family("butterfly", 3).m) == (32, 48)


def test_hypercube3_regular_bipartite():
    G = family("hypercube", 3)
    assert (G.n, G.m) == (8, 12)
    assert all(G.degree(v) == 3 for v in range(8))
    # 2-color by bit parity
    side = [bin(v).count("1") % 2 for v in range(8)]
    assert all(side[u] != side[v] for u, v in G.edges)


def test_crown3_is_a_6_cycle():
    G = family("crown", 3)
    assert (G.n, G.m) == (6, 6)
    assert all(G.degree(v) == 2 for v in range(6))
    assert is_connected(G)


def _consecutive_level_squares(r):
    """Count 4-cycles spanning two consecutive butterfly levels."""
    G = family("butterfly", r)
    level = [v // (1 << r) for v in range(G.n)]
    adj = [set(neigh) for neigh in G.adj]
    count = 0
    for a in range(G.n):
        for b in range(a + 1, G.n):
            if level[a] == level[b]:
                common = [w for w in adj[a] & adj[b]
                          if level[w] == level[a] + 1]
                count += len(common) * (len(common) - 1) // 2
    return count


@pytest.mark.parametrize("r", [1, 2, 3])
def test_butterfly_diamond_count(r):
    assert _consecutive_level_squares(r) == r * 2 ** (r - 1)


def test_generation_is_deterministic():
    for name, plist in SWEEP.items():
        spec = FamilySpec(name, plist[-1])
        assert generate(spec).edges == generate(spec).edges


def test_silicate1_structure():
    G = family("silicate", 1)
    assert (G.n, G.m) == (18, 36)
    degrees = sorted({G.degree(v) for v in range(G.n)})
    assert degrees == [3, 6]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sierpinski_blocks_are_shifted_copies(n):
    # copy a of S(n, 3) is the block a * 3^(n-1) onward, a copy of S(n-1, 3)
    G, sub = family("sierpinski", n), family("sierpinski", n - 1)
    s = 3 ** (n - 1)
    for a in range(3):
        inside = sorted((u - a * s, v - a * s) for u, v in G.edges
                        if a * s <= u < (a + 1) * s
                        and a * s <= v < (a + 1) * s)
        assert tuple(inside) == sub.edges


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sierpinski_copies_join_corner_to_corner(n):
    # copy a's corner b is joined to copy b's corner a; corner c of a copy
    # of size s is c * (s - 1) / 2 within its block
    G = family("sierpinski", n)
    s = 3 ** (n - 1)

    def corner(copy, c):
        return copy * s + c * (s - 1) // 2

    between = {(u, v) for u, v in G.edges if u // s != v // s}
    assert between == {(corner(a, b), corner(b, a))
                       for a, b in ((0, 1), (0, 2), (1, 2))}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sierpinski_degrees(n):
    G = family("sierpinski", n)
    extremes = {0, (3 ** n - 1) // 2, 3 ** n - 1}
    assert all(G.degree(v) == (2 if v in extremes else 3)
               for v in range(G.n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sierpinski_gasket_degrees_and_growth(n):
    G = family("sierpinski_gasket", n)
    counts = Counter(G.degree(v) for v in range(G.n))
    assert counts[2] == 3 and set(counts) <= {2, 4}
    assert family("sierpinski_gasket", n + 1).n == 3 * G.n - 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_honeycomb_degrees(n):
    hc_n, hc_edges = _honeycomb(n)
    degree = [0] * hc_n
    for a, b in hc_edges:
        degree[a] += 1
        degree[b] += 1
    assert set(degree) <= {2, 3}
    assert degree.count(2) == 6 * n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_silicate_degrees(n):
    # centers and free corners lie in one K_4, shared slots in two
    G = family("silicate", n)
    assert Counter(G.degree(v) for v in range(G.n)) == {
        3: 6 * n * n + 6 * n, 6: 9 * n * n - 3 * n}
    assert all(G.degree(v) == (6 if label.startswith("shared:") else 3)
               for v, label in enumerate(G.labels))


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        generate(FamilySpec("actinia", (2, 1)))


@pytest.mark.parametrize(
    "name,params",
    [("cycle", (2,)), ("crown", (2,)), ("generalized_petersen", (4, 2)),
     ("friendship", (2, 1)), ("butterfly", (0,)), ("path", (0,)),
     ("hypercube", (0,))],
)
def test_param_out_of_range(name, params):
    with pytest.raises(FamilyParamError):
        generate(FamilySpec(name, params))
    with pytest.raises(FamilyParamError):
        expected_size(name, params)


@pytest.mark.parametrize("params", [(5.0,), (True,), ("5",)])
def test_non_int_param_refused(params):
    # a bool is an int to isinstance, and 5.0 == 5
    with pytest.raises(FamilyParamError):
        generate(FamilySpec("cycle", params))
    with pytest.raises(FamilyParamError):
        expected_size("path", params)


def test_param_arity_checked():
    with pytest.raises(FamilyParamError):
        generate(FamilySpec("cycle", (3, 4)))
    for name, params in (("cycle", (3, 4)), ("path", (1, 2)), ("path", ())):
        with pytest.raises(FamilyParamError):
            expected_size(name, params)
