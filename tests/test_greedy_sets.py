"""Answer-drift guard for the greedy solvers.

``tests/data/greedy_sets.json`` holds the optimum, the set and
``stats.nodes`` (the vertices picked) that ``solve_greedy`` returns for both
variants at k = 1, 2, 3, on every family instance with 2 to 20 vertices and
on 30 seeded random connected graphs. Each graph is stored by its edge list,
so the guard watches the solvers alone. A change to the greedy solvers or to
the source pairs they read may make them faster but must not move these
answers. Strong witnesses are not pinned; each is checked with
``verify_strong_witness`` instead.

Re-record the file only in a change that says why answers move, by running
this module as a script from the repository root:

    PYTHONPATH=src python tests/test_greedy_sets.py
"""

import json
import random
from pathlib import Path

from pathcover import (
    build_graph,
    solve_greedy,
    verify_strong_witness,
)
from conftest import family_graphs, random_connected_graph

DATA = Path(__file__).parent / "data" / "greedy_sets.json"
KS = (1, 2, 3)
VARIANTS = ("weak", "strong")
MAX_N = 20
RANDOM_GRAPHS = 30


def pytest_generate_tests(metafunc):
    if "inst" in metafunc.fixturenames:
        instances = json.loads(DATA.read_text())["instances"]
        metafunc.parametrize("inst", instances,
                             ids=[inst["name"] for inst in instances])


def _answer(result):
    return [result.optimum, list(result.set), result.stats.nodes]


def test_greedy_sets_unchanged(inst):
    G = build_graph(inst["n"], [tuple(e) for e in inst["edges"]])
    for variant in VARIANTS:
        for k in KS:
            result = solve_greedy(G, k, variant)
            assert _answer(result) == inst[variant][str(k)], (variant, k)
            if variant == "strong":
                assert verify_strong_witness(G, result.set, k,
                                             result.witness)


def _random_graphs():
    for seed in range(RANDOM_GRAPHS):
        yield f"random{seed}", random_connected_graph(random.Random(seed),
                                                      max_n=MAX_N)


def _record():
    lines = []
    for name, G in [*family_graphs(MAX_N), *_random_graphs()]:
        inst = {"name": name, "n": G.n, "edges": [list(e) for e in G.edges]}
        for variant in VARIANTS:
            inst[variant] = {str(k): _answer(solve_greedy(G, k, variant))
                             for k in KS}
        lines.append(json.dumps(inst))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text('{"instances": [\n' + ",\n".join(lines) + "\n]}\n")
    print(f"recorded {len(lines)} instances in {DATA}")


if __name__ == "__main__":
    _record()
