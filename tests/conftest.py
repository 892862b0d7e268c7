import random
from itertools import combinations, product

import pytest

from pathcover import (
    FAMILY_NAMES,
    FamilyParamError,
    FamilySpec,
    build_graph,
    expected_size,
    generate,
    is_connected,
)


def family(name, *params):
    return generate(FamilySpec(name, tuple(params)))


def family_graphs(max_n):
    """(name, graph) for every family instance with 2 to max_n vertices."""
    for name in FAMILY_NAMES:
        for arity in (1, 2):
            for params in product(range(1, max_n + 1), repeat=arity):
                try:
                    n = expected_size(name, params)[0]
                except TypeError:  # the family takes another arity
                    break
                if not 2 <= n <= max_n:
                    continue
                try:
                    G = generate(FamilySpec(name, params))
                except FamilyParamError:
                    continue
                yield f"{name}({','.join(map(str, params))})", G


def random_connected_graph(rng, max_n=8, edge_prob=0.4):
    """Random connected simple graph with 2 <= n <= max_n."""
    while True:
        n = rng.randint(2, max_n)
        edges = [e for e in combinations(range(n), 2)
                 if rng.random() < edge_prob]
        G = build_graph(n, edges)
        if is_connected(G):
            return G


@pytest.fixture
def rng():
    return random.Random(0x5eed)
