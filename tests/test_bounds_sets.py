"""Answer-drift guard for ``compute_bounds``.

``tests/data/bounds.json`` holds every ``Bounds`` field at k = 1, 2, 3, on
every family instance with 2 to 20 vertices and on 30 seeded random
connected graphs. Each graph is stored by its edge list, so the guard
watches the bound battery alone (its BFS rows, ``domination_number`` and the
set cover under it). A change there may make it faster but must not move
these values.

Re-record the file only in a change that says why values move, by running
this module as a script from the repository root:

    PYTHONPATH=src python tests/test_bounds_sets.py
"""

import json
import random
from pathlib import Path

from pathcover import build_graph, compute_bounds
from conftest import family_graphs, random_connected_graph

DATA = Path(__file__).parent / "data" / "bounds.json"
KS = (1, 2, 3)
MAX_N = 20
RANDOM_GRAPHS = 30


def pytest_generate_tests(metafunc):
    if "inst" in metafunc.fixturenames:
        instances = json.loads(DATA.read_text())["instances"]
        metafunc.parametrize("inst", instances,
                             ids=[inst["name"] for inst in instances])


def test_bounds_unchanged(inst):
    G = build_graph(inst["n"], [tuple(e) for e in inst["edges"]])
    for k in KS:
        assert compute_bounds(G, k).as_dict() == inst["bounds"][str(k)], k


def _random_graphs():
    for seed in range(RANDOM_GRAPHS):
        yield f"random{seed}", random_connected_graph(random.Random(seed),
                                                      max_n=16)


def _record():
    lines = []
    for name, G in [*family_graphs(MAX_N), *_random_graphs()]:
        inst = {"name": name, "n": G.n, "edges": [list(e) for e in G.edges],
                "bounds": {str(k): compute_bounds(G, k).as_dict()
                           for k in KS}}
        lines.append(json.dumps(inst))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text('{"instances": [\n' + ",\n".join(lines) + "\n]}\n")
    print(f"recorded {len(lines)} instances in {DATA}")


if __name__ == "__main__":
    _record()
