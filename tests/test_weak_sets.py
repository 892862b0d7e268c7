"""Answer-drift guard for weak exact at the sizes the benchmark solves.

``tests/data/weak_sets.json`` holds the optimum and the lexicographically
least optimal set that ``solve_exact`` returns for the weak variant at
k = 1 and k = 2, on 40 seeded random sparse connected graphs with 25 to 36
vertices (a random recursive tree plus chords, 1.4 edges per vertex).
``exact_sets.json`` stops at 12 vertices, where the set cover bounds rarely
cut; these graphs are large enough for every pruning rule to act. Each graph
is stored by its edge list, so the guard watches the solver alone.

Re-record the file only in a change that says why answers move, by running
this module as a script from the repository root:

    PYTHONPATH=src python tests/test_weak_sets.py
"""

import json
import random
from pathlib import Path

from pathcover import build_graph, solve_exact

DATA = Path(__file__).parent / "data" / "weak_sets.json"
KS = (1, 2)
GRAPHS = 40
N_RANGE = (25, 36)
EDGES_PER_VERTEX = 1.4


def pytest_generate_tests(metafunc):
    if "inst" in metafunc.fixturenames:
        instances = json.loads(DATA.read_text())["instances"]
        metafunc.parametrize("inst", instances,
                             ids=[inst["name"] for inst in instances])


def test_weak_sets_unchanged(inst):
    G = build_graph(inst["n"], [tuple(e) for e in inst["edges"]])
    for k in KS:
        result = solve_exact(G, k, "weak")
        assert [result.optimum, list(result.set)] == inst[str(k)], k


def sparse_graph(rng, n, m):
    """Connected graph on n vertices and m edges: a random recursive tree
    plus random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return build_graph(n, edges)


def _graphs():
    for seed in range(GRAPHS):
        rng = random.Random(seed)
        n = rng.randint(*N_RANGE)
        yield f"sparse{seed}/n{n}", sparse_graph(
            rng, n, round(EDGES_PER_VERTEX * n))


def _record():
    lines = []
    for name, G in _graphs():
        inst = {"name": name, "n": G.n, "edges": [list(e) for e in G.edges]}
        for k in KS:
            result = solve_exact(G, k, "weak")
            inst[str(k)] = [result.optimum, list(result.set)]
        lines.append(json.dumps(inst))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text('{"instances": [\n' + ",\n".join(lines) + "\n]}\n")
    print(f"recorded {len(lines)} instances in {DATA}")


if __name__ == "__main__":
    _record()
