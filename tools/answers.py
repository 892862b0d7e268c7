"""Print the solvers' answers over a fixed battery, to compare two trees.

One tab-separated line per result: an id, the optimum, the set,
``stats.nodes`` and a digest of the witness ("-" where a field does not
apply). On strong ``solve_exact``, ``naive_oracle`` and ``solve_greedy``
rows the digest is followed by the verdict of ``verify_strong_witness``
on the witness, so a moved witness is shown to be valid. The battery:

- every claims-registry instance with at most 16 vertices, weak and strong
  ``solve_exact`` at the registry's k;
- the graphs of ``tests/data/exact_sets.json``, weak and strong
  ``solve_exact`` at k = 1, 2, 3;
- weak and strong ``naive_oracle`` at k = 1, 2, 3 on the exact_sets
  graphs with at most 9 vertices (all of them, up to 12, take minutes);
- seeded random connected graphs, the same;
- weak ``solve_exact`` at k = 1, 2 on seeded random sparse connected
  graphs with 30 to 40 vertices, the size of the benchmark's weak-exact
  workload;
- strong ``solve_greedy`` itself (its set, ``stats.nodes`` and witness),
  and ``strong_feasible`` on the set it returns, for the graphs of the two
  items above at k = 1, 2, 3;
- ``strong_feasible`` on sets that are mostly no strong covers, for the
  same graphs and k, so that refusals are compared too: greedy's set less
  its last vertex, and the weak optimum's set wherever the strong optimum
  is larger. A ``strong_feasible`` row's optimum field holds the verdict
  of ``verify_strong_witness`` on its witness, "-" when it is None, so a
  moved witness is shown to be valid;
- weak ``solve_exact`` at k = 2 on the five topologies of the
  benchmark's weak-exact workload;
- strong ``solve_greedy`` on the ten topologies of the benchmark's
  greedy-scale workload at k = 2, 3, 4, greedy rows only; at k = 4 the
  greedy's pair bound and its weak-mask bound differ more than at 2 or 3;
- weak ``solve_greedy`` (its set and ``stats.nodes``) on the exact_sets and
  random graphs at k = 1, 2, 3 and on the ten topologies at k = 2, 3, each
  with ``verify_weak_cover`` on the set it returns and on that set less
  its last vertex; a verdict sits in the optimum field;
- catalogue rows, which hold no solver answer: each registry record's
  ``instances(40)`` with the claimed value of each, and a digest of
  ``format_edgelist`` and the labels of every family instance with at most
  64 vertices, of the ten greedy-scale topologies and of the deeper
  Sierpinski and silicate instances, ``sierpinski(6)``, ``sierpinski(7)``,
  ``sierpinski_gasket(6)``, ``sierpinski_gasket(7)``, ``silicate(4)`` and
  ``silicate(5)``; and, per graph of ``tests/data/exact_sets.json`` and per
  greedy-scale topology at k = 1, 2, 3, a digest of every source's
  ``source_pairs`` (its targets and the masks in order, read as plain
  ints), so that the geodesic choice sets every strong solver reads are
  compared too; and, per ``reduce_vc(G, k)`` at k = 2, 3, 4, 5 for the six
  reduction inputs of the benchmark's greedy-scale workload and every
  exact_sets graph with an edge, a digest of the gadget's
  ``format_edgelist``, its roles, its names and its offset.

    python tools/answers.py                # the answers of src/
    python tools/answers.py --src DIR      # the answers of DIR/pathcover
    python tools/answers.py --against REV  # per-field differences from REV

``--against`` extracts REV's ``src/`` with ``git archive`` into a temporary
directory and runs this script on it in a subprocess. It prints the node
and witness differences grouped by row kind and k, then every differing
value and every row present on one side only, and exits 1 when any
optimum or set differs, a catalogue row's value (kept in its set field)
and a weak or strong verdict included, or when a row is present on one
side only: those move only by a stated change. It also exits 1 when a
row on either side holds a witness that ``verify_strong_witness``
refuses, a verdict of False after the digest or in a ``strong_feasible``
row's optimum field, and lists those rows. The script writes nothing in
the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from itertools import combinations, product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_SETS = ROOT / "tests" / "data" / "exact_sets.json"
FIELDS = ("optimum", "set", "nodes", "witness")
REGISTRY_MAX_N = 16
RANDOM_GRAPHS = 400
RANDOM_MAX_N = 14
KS = (1, 2, 3)
ORACLE_MAX_N = 9
SPARSE_GRAPHS = 60
SPARSE_N = (30, 40)
SPARSE_EDGES_PER_VERTEX = 1.4
SPARSE_KS = (1, 2)
CATALOGUE_MAX_N = 40
CATALOGUE_GRAPH_N = 64
GREEDY_TOPOLOGIES = (
    ("hypercube", (6,)),
    ("butterfly", (4,)),
    ("benes", (4,)),
    ("silicate", (3,)),
    ("sierpinski", (4,)),
    ("sierpinski", (5,)),
    ("sierpinski_gasket", (5,)),
    ("enhanced_butterfly", (4,)),
    ("generalized_petersen", (50, 7)),
    ("crown", (20,)),
)
WEAK_TOPOLOGIES = (
    ("sierpinski", (3,)),
    ("augmented_butterfly", (3,)),
    ("generalized_petersen", (20, 3)),
    ("hypercube", (5,)),
    ("butterfly", (3,)),
)
REDUCTION_INPUTS = (
    ("path", (4,)),
    ("cycle", (5,)),
    ("complete_bipartite", (2, 3)),
    ("wheel", (4,)),
    ("generalized_petersen", (5, 2)),
    ("hypercube", (3,)),
)
REDUCTION_KS = (2, 3, 4, 5)
DEEP_TOPOLOGIES = (
    ("sierpinski", (6,)),
    ("sierpinski", (7,)),
    ("sierpinski_gasket", (6,)),
    ("sierpinski_gasket", (7,)),
    ("silicate", (4,)),
    ("silicate", (5,)),
)


def _digest(witness) -> str:
    if witness is None:
        return "None"
    text = repr((witness.assignments, witness.covered))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _graph_digest(pc, G) -> str:
    text = pc.format_edgelist(G) + repr(G.labels)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _gadget_digest(pc, red) -> str:
    text = (pc.format_edgelist(red.gadget) + repr(red.roles)
            + repr(sorted(red.names.items())) + repr(red.offset))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pairs_digest(pc, G, k: int) -> str:
    """A digest of ``source_pairs(G, u, k)`` for every source u, each pair
    unpacked into ints and a tuple of masks, whatever type holds it."""
    text = repr([[(u, t, tuple(masks))
                  for u, t, masks in pc.cover.source_pairs(G, v, k)]
                 for v in range(G.n)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _catalogue(pc) -> list[str]:
    """One row per registry record, its instances at ``CATALOGUE_MAX_N``
    with their claimed values; one per generated graph, its digest: every
    family instance with at most ``CATALOGUE_GRAPH_N`` vertices (each
    family takes one parameter or two), then the greedy-scale and the deep
    topologies; one per exact_sets graph and greedy-scale topology and k
    in ``KS``, its ``_pairs_digest``; and one per reduction input (each
    exact_sets graph with an edge included) and k in ``REDUCTION_KS``, its
    gadget's ``_gadget_digest``. Each value sits in the set field."""
    lines = []
    for record in pc.claims_registry():
        listed = [(params, record.value(params))
                  for params in record.instances(CATALOGUE_MAX_N)]
        lines.append(f"catalogue {record.claim_id} {record.variant} "
                     f"{record.kind}\t-\t{listed}\t-\t-")
    specs = []
    for family in pc.FAMILY_NAMES:
        for arity in (1, 2):
            for params in product(range(1, CATALOGUE_GRAPH_N + 1),
                                  repeat=arity):
                try:
                    n = pc.expected_size(family, params)[0]
                except pc.FamilyParamError:
                    continue
                if n <= CATALOGUE_GRAPH_N:
                    specs.append((family, params))
    for spec in GREEDY_TOPOLOGIES + DEEP_TOPOLOGIES:
        if spec not in specs:
            specs.append(spec)
    for family, params in specs:
        G = pc.generate(pc.FamilySpec(family, params))
        lines.append(f"catalogue {family}{params} graph\t-\t"
                     f"{_graph_digest(pc, G)}\t-\t-")
    exact_sets = [(f"exact_sets {inst['name']}",
                   pc.build_graph(inst["n"],
                                  [tuple(e) for e in inst["edges"]]))
                  for inst in json.loads(EXACT_SETS.read_text())["instances"]]
    topologies = [(f"topology {family}{params}",
                   pc.generate(pc.FamilySpec(family, params)))
                  for family, params in GREEDY_TOPOLOGIES]
    for name, G in exact_sets + topologies:
        for k in KS:
            lines.append(f"catalogue {name} k={k} pairs\t-\t"
                         f"{_pairs_digest(pc, G, k)}\t-\t-")
    inputs = [(f"reduction {family}{params}",
               pc.generate(pc.FamilySpec(family, params)))
              for family, params in REDUCTION_INPUTS]
    for name, G in inputs + [(name, G) for name, G in exact_sets if G.m]:
        for k in REDUCTION_KS:
            lines.append(f"catalogue {name} k={k} gadget\t-\t"
                         f"{_gadget_digest(pc, pc.reduce_vc(G, k))}\t-\t-")
    return lines


def _random_graph(pc, rng: random.Random):
    """A connected graph on 2 to ``RANDOM_MAX_N`` vertices, each edge kept
    with probability 0.4."""
    while True:
        n = rng.randint(2, RANDOM_MAX_N)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        G = pc.build_graph(n, edges)
        if pc.is_connected(G):
            return G


def _sparse_graph(pc, seed: int):
    """A connected graph on 30 to 40 vertices, by seed, with 1.4 edges per
    vertex: a random recursive tree plus random chords, under a random
    vertex numbering."""
    rng = random.Random(seed)
    lo, hi = SPARSE_N
    n = lo + seed % (hi - lo + 1)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < round(SPARSE_EDGES_PER_VERTEX * n):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    perm = list(range(n))
    rng.shuffle(perm)
    return pc.build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def snapshot() -> list[str]:
    import pathcover as pc

    lines = []

    def row(name, G, r, kind):
        """r's fields; a witness's digest is followed by its verdict."""
        witness = "-"
        if r.witness is not None:
            ok = pc.verify_strong_witness(G, r.set, r.k, r.witness)
            witness = f"{_digest(r.witness)} {ok}"
        lines.append(f"{name} k={r.k} {kind}\t{r.optimum}\t{list(r.set)}\t"
                     f"{r.stats.nodes}\t{witness}")

    def exact(name, G, k, variants=("weak", "strong")):
        results = []
        for variant in variants:
            r = pc.solve_exact(G, k, variant)
            row(name, G, r, variant)
            results.append(r)
        return results

    def greedy(name, G, k):
        r = pc.solve_greedy(G, k, "strong")
        row(name, G, r, "greedy")
        return r.set

    def feasible(name, G, k, kind, chosen):
        w = pc.strong_feasible(G, chosen, k)
        ok = "-" if w is None else pc.verify_strong_witness(G, chosen, k, w)
        lines.append(f"{name} k={k} {kind}\t{ok}\t{list(chosen)}\t-\t"
                     f"{_digest(w)}")

    def greedy_weak(name, G, k):
        r = pc.solve_greedy(G, k, "weak")
        lines.append(f"{name} k={k} greedy-weak\t{r.optimum}\t"
                     f"{list(r.set)}\t{r.stats.nodes}\t-")
        for kind, chosen in (("verify-weak-greedy", r.set),
                             ("verify-weak-greedy-less", r.set[:-1])):
            ok = pc.verify_weak_cover(G, chosen, k)
            lines.append(f"{name} k={k} {kind}\t{ok}\t{list(chosen)}\t-\t-")

    seen = set()
    for record in pc.claims_registry():
        for params in record.instances(REGISTRY_MAX_N):
            if (record.family, params, record.k) not in seen:
                seen.add((record.family, params, record.k))
                G = pc.generate(pc.FamilySpec(record.family, params))
                exact(f"registry {record.family}{params}", G, record.k)

    graphs = []
    for inst in json.loads(EXACT_SETS.read_text())["instances"]:
        G = pc.build_graph(inst["n"], [tuple(e) for e in inst["edges"]])
        graphs.append((f"exact_sets {inst['name']}", G))
    for seed in range(RANDOM_GRAPHS):
        graphs.append((f"random{seed}",
                       _random_graph(pc, random.Random(seed))))
    for name, G in graphs:
        for k in KS:
            weak, strong = exact(name, G, k)
            if name.startswith("exact_sets") and G.n <= ORACLE_MAX_N:
                for variant in ("weak", "strong"):
                    row(name, G, pc.naive_oracle(G, k, variant),
                        f"oracle-{variant}")
            chosen = greedy(name, G, k)
            feasible(name, G, k, "feasible-greedy", chosen)
            feasible(name, G, k, "feasible-greedy-less", chosen[:-1])
            if strong.optimum > weak.optimum:
                feasible(name, G, k, "feasible-weak", weak.set)
            greedy_weak(name, G, k)
    for seed in range(SPARSE_GRAPHS):
        G = _sparse_graph(pc, seed)
        for k in SPARSE_KS:
            exact(f"sparse{seed}", G, k, ("weak",))
    for family, params in WEAK_TOPOLOGIES:
        G = pc.generate(pc.FamilySpec(family, params))
        exact(f"topology {family}{params}", G, 2, ("weak",))
    for family, params in GREEDY_TOPOLOGIES:
        G = pc.generate(pc.FamilySpec(family, params))
        for k in (2, 3, 4):
            greedy(f"topology {family}{params}", G, k)
        for k in (2, 3):
            greedy_weak(f"topology {family}{params}", G, k)
    return lines + _catalogue(pc)


def _extract(rev: str, into: Path) -> Path:
    """REV's ``src/`` under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def _parse(lines: list[str]) -> dict[str, dict[str, str]]:
    out = {}
    for line in lines:
        name, *values = line.split("\t")
        out[name] = dict(zip(FIELDS, values))
    return out


def _kind(name: str) -> str:
    """A result's row kind and k, its last two words swapped: "strong k=3"
    or "feasible-greedy k=2"."""
    *_, k, kind = name.split(" ")
    return f"{kind} {k}"


def _refuted(rows: dict[str, dict[str, str]]) -> list[str]:
    """The rows whose witness ``verify_strong_witness`` refuses: a verdict
    of False after the digest, or in a ``strong_feasible`` row's optimum
    field."""
    return [name for name, v in rows.items()
            if v.get("witness", "").endswith(" False")
            or (_kind(name).startswith("feasible")
                and v["optimum"] == "False")]


def compare(old: list[str], new: list[str], rev: str) -> int:
    """Per field, the results whose value differs from REV's; the node and
    witness differences per row kind and k; then every differing value,
    every row on one side only and every refuted witness. 1 when an
    optimum or a set differs, a row is on one side only or a witness on
    either side is refuted, else 0."""
    before, after = _parse(old), _parse(new)
    common = [name for name in after if name in before]
    only_old = [name for name in before if name not in after]
    only_new = [name for name in after if name not in before]
    print(f"{len(common)} results in both; only in {rev}: "
          f"{len(only_old)}, only in the tree: {len(only_new)}")
    changed = {f: [n for n in common if before[n][f] != after[n][f]]
               for f in FIELDS}
    for f in FIELDS:
        print(f"{f:>8}: {len(changed[f])} differ")
    nodes = [(int(before[n]["nodes"]), int(after[n]["nodes"]))
             for n in common if before[n]["nodes"] != "-"]
    print(f"nodes total: {sum(a for a, _ in nodes)} -> "
          f"{sum(b for _, b in nodes)}")
    for f in ("nodes", "witness"):
        groups: dict[str, list[str]] = {}
        for n in changed[f]:
            groups.setdefault(_kind(n), []).append(n)
        for kind, names in sorted(groups.items()):
            line = f"{f} {kind}: {len(names)} differ"
            if f == "nodes":
                old_new = [(int(before[n][f]), int(after[n][f]))
                           for n in names]
                lower = sum(b < a for a, b in old_new)
                line += (f", {lower} lower, {len(names) - lower} higher; "
                         f"{sum(a for a, _ in old_new)} -> "
                         f"{sum(b for _, b in old_new)}")
            print(line)
    for f in FIELDS:
        for n in changed[f]:
            print(f"  {f} {n}: {before[n][f]} -> {after[n][f]}")
    for side, names in ((rev, only_old), ("the tree", only_new)):
        for n in names:
            print(f"  only in {side}: {n}")
    refuted = {rev: _refuted(before), "the tree": _refuted(after)}
    for side, names in refuted.items():
        for n in names:
            print(f"  witness refuted in {side}: {n}")
    return int(bool(changed["optimum"] or changed["set"] or only_old
                    or only_new or any(refuted.values())))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory that holds the pathcover "
                             "package (default: src/)")
    parser.add_argument("--against", metavar="REV",
                        help="print the per-field differences from REV")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    sys.dont_write_bytecode = True
    new = snapshot()
    if not args.against:
        print("\n".join(new))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        try:
            src = _extract(args.against, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"error: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 1
        old = subprocess.run(
            [sys.executable, "-B", __file__, "--src", str(src)], check=True,
            capture_output=True, text=True).stdout.splitlines()
    return compare(old, new, args.against)


if __name__ == "__main__":
    raise SystemExit(main())
