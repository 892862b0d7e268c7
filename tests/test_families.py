import pytest

from pathcover import (
    FamilyParamError,
    FamilySpec,
    UnknownFamilyError,
    expected_size,
    generate,
    is_connected,
)
from pathcover.families import FAMILY_NAMES
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
