"""The bound battery against its definitions.

``compute_bounds`` and ``domination_number`` grow every radius-k ball at
once, and ``compute_bounds`` finds the cliques of simplicial vertices by
their closed neighbourhoods. Here each quantity is rebuilt the long way,
from one BFS distance row per vertex and the maximal cliques of
``maximal_cliques``, on random connected graphs and on graphs rich in
simplicial vertices (trees, friendship graphs, cliques with pendant
vertices), at k = 1 to 4.
"""

import random
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from pathcover import (
    bfs_distances,
    build_graph,
    compute_bounds,
    domination_number,
    maximal_cliques,
)
from pathcover.solve import _balls
from conftest import family, random_connected_graph
from reference import simplicial_vertices

KS = (1, 2, 3, 4)


def _random_graphs(count):
    for seed in range(count):
        rng = random.Random(seed)
        yield f"random{seed}", random_connected_graph(
            rng, max_n=11, edge_prob=rng.choice((0.2, 0.4, 0.7)))


def _simplicial_rich():
    for seed in range(20):  # random recursive trees
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        yield f"tree{seed}", build_graph(
            n, [(rng.randrange(v), v) for v in range(1, n)])
    for c, n in ((3, 1), (3, 3), (4, 2), (5, 2)):
        yield f"friendship({c},{n})", family("friendship", c, n)
    for seed in range(20):  # K_q with pendant vertices, some sharing a host
        rng = random.Random(seed)
        q, p = rng.randint(1, 6), rng.randint(1, 5)
        edges = [*combinations(range(q), 2),
                 *((rng.randrange(q), q + j) for j in range(p))]
        yield f"clique_pendants{seed}", build_graph(q + p, edges)


CASES = [*_random_graphs(300), *_simplicial_rich()]


def _reference(G, k):
    """Radius-k balls, diameter, domination number and clique bound from
    the definitions: BFS rows, a brute-force least cover by the balls, and
    the maximal cliques holding two or more simplicial vertices."""
    rows = [bfs_distances(G, v) for v in range(G.n)]
    balls = [sum(1 << x for x, d in row.items() if d <= k) for row in rows]
    full = (1 << G.n) - 1
    domination = next(
        size for size in range(G.n + 1)
        for combo in combinations(balls, size)
        if reduce(or_, combo, 0) == full)
    simp = simplicial_vertices(G)
    clique_lb = sum(max(sum(v in simp for v in clique) - 1, 0)
                    for clique in maximal_cliques(G))
    return balls, max(max(row.values()) for row in rows), domination, clique_lb


@pytest.mark.parametrize("label,G", CASES, ids=[label for label, _ in CASES])
def test_bounds_match_definitions(label, G):
    for k in KS:
        balls, d, domination, clique_lb = _reference(G, k)
        assert _balls(G, k) == (balls, d), k
        assert domination_number(G, k) == domination, k
        bounds = compute_bounds(G, k)
        assert bounds.domination_lb == domination, k
        assert bounds.clique_lb == clique_lb, k
        assert bounds.order_diameter_ub == (G.n - k + 1 if k <= d else None)
        assert bounds.diameter_ub == (
            G.n - (d + 1) + -(-(d + 1) // (2 * k + 1)) if d >= 2 else None)
