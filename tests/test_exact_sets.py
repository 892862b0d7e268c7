"""Answer-drift guard for the exact solvers.

``tests/data/exact_sets.json`` holds the optimum and the lexicographically
least optimal set that ``solve_exact`` returns for both variants at
k = 1, 2, 3, on every family instance with 2 to 12 vertices and on 30
seeded random connected graphs. Each graph is stored by its edge list, so
the guard watches the solvers alone. A change to the exact searches may make
them faster but must not move these answers. Strong witnesses are not
pinned, because a change to the feasibility search may legitimately pick
other geodesics; each is checked with ``verify_strong_witness`` instead.

Re-record the file only in a change that says why answers move, by running
this module as a script from the repository root:

    PYTHONPATH=src python tests/test_exact_sets.py
"""

import json
import random
from itertools import product
from pathlib import Path

from pathcover import (
    FAMILY_NAMES,
    FamilyParamError,
    FamilySpec,
    build_graph,
    expected_size,
    generate,
    solve_exact,
    verify_strong_witness,
)
from conftest import random_connected_graph

DATA = Path(__file__).parent / "data" / "exact_sets.json"
KS = (1, 2, 3)
VARIANTS = ("weak", "strong")
RANDOM_GRAPHS = 30


def pytest_generate_tests(metafunc):
    if "inst" in metafunc.fixturenames:
        instances = json.loads(DATA.read_text())["instances"]
        metafunc.parametrize("inst", instances,
                             ids=[inst["name"] for inst in instances])


def test_exact_sets_unchanged(inst):
    G = build_graph(inst["n"], [tuple(e) for e in inst["edges"]])
    for variant in VARIANTS:
        for k in KS:
            result = solve_exact(G, k, variant)
            expect = inst[variant][str(k)]
            assert [result.optimum, list(result.set)] == expect, (variant, k)
            if variant == "strong":
                assert verify_strong_witness(G, result.set, k,
                                             result.witness)


def _family_graphs():
    for name in FAMILY_NAMES:
        for arity in (1, 2):
            for params in product(range(1, 13), repeat=arity):
                try:
                    n = expected_size(name, params)[0]
                except TypeError:  # the family takes another arity
                    break
                if not 2 <= n <= 12:
                    continue
                try:
                    G = generate(FamilySpec(name, params))
                except FamilyParamError:
                    continue
                yield f"{name}({','.join(map(str, params))})", G


def _random_graphs():
    for seed in range(RANDOM_GRAPHS):
        yield f"random{seed}", random_connected_graph(random.Random(seed),
                                                      max_n=10)


def _record():
    lines = []
    for name, G in [*_family_graphs(), *_random_graphs()]:
        inst = {"name": name, "n": G.n, "edges": [list(e) for e in G.edges]}
        for variant in VARIANTS:
            inst[variant] = {}
            for k in KS:
                result = solve_exact(G, k, variant)
                inst[variant][str(k)] = [result.optimum, list(result.set)]
        lines.append(json.dumps(inst))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text('{"instances": [\n' + ",\n".join(lines) + "\n]}\n")
    print(f"recorded {len(lines)} instances in {DATA}")


if __name__ == "__main__":
    _record()
