"""Acceptance suite: one test (or parametrized group) per criterion, each
printing a PASS/FAIL line (run with ``pytest -v -s`` to see them inline).

Criterion 4 pins the claims the solvers refute at their proven status
(cycle(5) and path(10) as "paper_too_low"), and one of those pins carries a
certificate of its computed optimum:

* the strong k=2 optimum of K_{3,3} is pinned as "paper_too_high":
  the registry claims SSPC_2U(K_{m,n}) = m, i.e. 3, but {u0, w0} = {0, 3} is
  a strong cover under the existential reading. Its witness is both stars
  plus 0->1 via 4, 0->2 via 5, 3->4 via 2 and 3->5 via 1, which covers all
  nine edges, and no single vertex is a strong cover, so the optimum is 2.
  The test checks that certificate with ``verify_strong_witness`` and
  ``strong_feasible`` as well as the report, and the oracle agrees.

One group encodes an expectation that the solvers demonstrably refute; it
is kept as stated and fails honestly rather than being weakened:

* criterion 5 requires the designated forward cover set to validate at
  k = 3. In the k = 3 gadget the triangle on the path-apex side has a deep
  edge whose geodesics all start at the far apex, at path vertices, or
  inside the triangle; the designated set contains none of those, so no
  choice of fixed geodesics covers it. The 12-vertex gadget for a one-edge
  input is small enough for the independent oracle, which confirms the true
  optimum (4) also exceeds vertex cover + offset (3). The opposite outcome
  is pinned by ``tests/test_reduction.py::test_forward_witness_fails_at_k3``
  and ``::test_k3_gadget_optimum_confirmed_by_oracle``; a corrected k >= 3
  gadget must change the gadget and both test files together.
"""

import json
import random
import time
from itertools import combinations

import pytest

from pathcover import (
    bfs_distances,
    build_graph,
    check_reduction,
    compute_bounds,
    diameter,
    is_connected,
    naive_oracle,
    parse_witness,
    solve_exact,
    strong_feasible,
    verify_claims,
    verify_strong_witness,
    verify_weak_cover,
    weak_cover_set,
)
from pathcover.cli import main as cli_main
from conftest import family

RANDOM_SEED = 0xC0FFEE

# each family at its two smallest parameter settings with n <= 12
FAMILY_INSTANCES = [
    ("path", (2,)), ("path", (3,)),
    ("cycle", (3,)), ("cycle", (4,)),
    ("wheel", (3,)), ("wheel", (4,)),
    ("double_wheel", (3,)), ("double_wheel", (4,)),
    ("fan", (1,)), ("fan", (2,)),
    ("double_fan", (1,)), ("double_fan", (2,)),
    ("friendship", (3, 1)), ("friendship", (3, 2)),
    ("complete_bipartite", (1, 1)), ("complete_bipartite", (1, 2)),
    ("crown", (3,)), ("crown", (4,)),
    ("generalized_petersen", (3, 1)), ("generalized_petersen", (4, 1)),
    ("hypercube", (1,)), ("hypercube", (2,)),
    ("butterfly", (1,)), ("butterfly", (2,)),
    ("augmented_butterfly", (1,)), ("augmented_butterfly", (2,)),
    ("enhanced_butterfly", (1,)),   # dimension 2 already has 16 vertices
    ("benes", (1,)),                # dimension 2 already has 20 vertices
    # silicate(1) has 18 vertices, above the oracle limit at every dimension
    ("sierpinski", (1,)), ("sierpinski", (2,)),
    ("sierpinski_gasket", (1,)), ("sierpinski_gasket", (2,)),
]

KS = (1, 2, 3)


def _random_connected(rng, max_n, edge_prob=0.4):
    while True:
        n = rng.randint(2, max_n)
        edges = [e for e in combinations(range(n), 2)
                 if rng.random() < edge_prob]
        G = build_graph(n, edges)
        if is_connected(G):
            return G


def _report(criterion, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {state}{suffix}")


@pytest.fixture(scope="module")
def solved_instances():
    """Exact optima for every criterion 1 and criterion 4 instance, reused
    by the bound-sandwich criterion."""
    table = []
    for name, params in FAMILY_INSTANCES:
        G = family(name, *params)
        for k in KS:
            table.append((
                f"{name}{params} k={k}", G, k,
                solve_exact(G, k, "weak").optimum,
                solve_exact(G, k, "strong").optimum,
            ))
    rng = random.Random(RANDOM_SEED)
    for i in range(200):
        G = _random_connected(rng, max_n=8)
        for k in KS:
            table.append((
                f"random[{i}] k={k}", G, k,
                solve_exact(G, k, "weak").optimum,
                solve_exact(G, k, "strong").optimum,
            ))
    for name, params in CLAIM_PIN_INSTANCES:
        G = family(name, *params)
        table.append((
            f"{name}{params} k=2", G, 2,
            solve_exact(G, 2, "weak").optimum,
            solve_exact(G, 2, "strong").optimum,
        ))
    return table


def test_criterion_1_oracle_equivalence():
    """solve_exact equals naive_oracle (optimum and set validity) for both
    variants and k in {1,2,3} on the family instances and 200 random
    connected graphs with n <= 8; total runtime well under ten minutes."""
    start = time.perf_counter()
    mismatches = []
    checked = 0

    def compare(label, G):
        nonlocal checked
        for k in KS:
            for variant in ("weak", "strong"):
                exact = solve_exact(G, k, variant)
                oracle = naive_oracle(G, k, variant)
                checked += 1
                if exact.optimum != oracle.optimum:
                    mismatches.append(
                        f"{label} k={k} {variant}: "
                        f"exact={exact.optimum} oracle={oracle.optimum}")
                    continue
                if variant == "weak":
                    ok = (verify_weak_cover(G, exact.set, k)
                          and verify_weak_cover(G, oracle.set, k))
                else:
                    ok = (strong_feasible(G, exact.set, k) is not None
                          and strong_feasible(G, oracle.set, k) is not None)
                if not ok:
                    mismatches.append(f"{label} k={k} {variant}: invalid set")

    for name, params in FAMILY_INSTANCES:
        G = family(name, *params)
        assert G.n <= 12
        compare(f"{name}{params}", G)
    rng = random.Random(RANDOM_SEED)
    for i in range(200):
        compare(f"random[{i}]", _random_connected(rng, max_n=8))

    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 600
    _report("1 oracle-equivalence", ok,
            f"{checked} comparisons in {elapsed:.1f}s")
    assert not mismatches, mismatches[:5]
    assert elapsed < 600


def _brute_force_weak_mask(G, u, k):
    """Weak coverage from scratch: enumerate every simple path of length at
    most k from u and keep those that happen to be geodesics."""
    dist = bfs_distances(G, u)
    mask = 0

    def walk(path, used, edge_mask):
        nonlocal mask
        x = path[-1]
        if len(path) - 1 == dist[x]:
            mask |= edge_mask
        if len(path) - 1 == k:
            return
        for y in G.adj[x]:
            if not used & (1 << y):
                path.append(y)
                walk(path, used | (1 << y),
                     edge_mask | (1 << G.edge_id(x, y)))
                path.pop()

    walk([u], 1 << u, 0)
    return mask


def test_criterion_2_coverage_semantics():
    """weak_cover_set's distance characterization equals a from-scratch
    geodesic enumeration on 100 random connected graphs, all sources,
    k in {1,2,3}; exact set equality."""
    rng = random.Random(RANDOM_SEED + 1)
    bad = []
    for i in range(100):
        G = _random_connected(rng, max_n=10)
        for u in range(G.n):
            for k in KS:
                if weak_cover_set(G, u, k) != _brute_force_weak_mask(G, u, k):
                    bad.append(f"graph[{i}] u={u} k={k}")
    _report("2 coverage-semantics", not bad, "100 graphs, all sources")
    assert not bad, bad[:5]


def test_criterion_3_bound_sandwich(solved_instances):
    """Applicable bounds sandwich the exact optima on every instance solved
    in criteria 1 and 4. Monitored bounds (diameter_ub, half_ub) produce
    report entries instead of failures; the domination and trivial bounds
    tolerate zero violations."""
    hard_violations = []
    monitored = []
    for label, G, k, weak_opt, strong_opt in solved_instances:
        if G.n < 2:
            continue
        bounds = compute_bounds(G, k)
        if not bounds.domination_lb <= strong_opt:
            hard_violations.append(f"{label}: domination_lb")
        if not bounds.clique_lb <= strong_opt:
            hard_violations.append(f"{label}: clique_lb")
        # the strong search starts at the weak optimum because these hold
        if not bounds.domination_lb <= weak_opt:
            hard_violations.append(f"{label}: domination_lb vs weak")
        if not bounds.clique_lb <= weak_opt:
            hard_violations.append(f"{label}: clique_lb vs weak")
        if bounds.degree_lb is not None and not bounds.degree_lb <= weak_opt:
            hard_violations.append(f"{label}: degree_lb vs weak")
        if not weak_opt <= strong_opt:
            hard_violations.append(f"{label}: weak above strong")
        if not strong_opt <= bounds.trivial_ub:
            hard_violations.append(f"{label}: trivial_ub")
        if (bounds.order_diameter_ub is not None
                and not strong_opt <= bounds.order_diameter_ub):
            hard_violations.append(f"{label}: order_diameter_ub")
        if (bounds.diameter_ub is not None
                and not strong_opt <= bounds.diameter_ub):
            monitored.append(
                f"{label}: diameter_ub={bounds.diameter_ub} < {strong_opt}")
        if bounds.half_ub is not None and not strong_opt <= bounds.half_ub:
            monitored.append(
                f"{label}: half_ub={bounds.half_ub} < {strong_opt}")
    for entry in monitored:
        print(f"  monitored bound violated: {entry}")
    _report("3 bound-sandwich", not hard_violations,
            f"{len(solved_instances)} instances, "
            f"{len(monitored)} monitored findings")
    assert not hard_violations, hard_violations[:5]


CLAIM_PIN_INSTANCES = [
    ("complete_bipartite", (2, 2)),
    ("complete_bipartite", (2, 3)),
    ("complete_bipartite", (3, 3)),
    ("generalized_petersen", (5, 2)),
    ("crown", (3,)),
    ("hypercube", (3,)),
    ("silicate", (1,)),
    ("cycle", (5,)),
    ("path", (10,)),
]

# (family, params, variant, expected claimed, expected status, tight)
CLAIM_PINS = [
    ("complete_bipartite", (2, 2), "strong", 2, "match", None),
    ("complete_bipartite", (2, 3), "strong", 2, "match", None),
    ("complete_bipartite", (3, 3), "strong", 3, "paper_too_high", None),
    ("generalized_petersen", (5, 2), "strong", 3, "match", None),
    ("crown", (3,), "weak", 2, "match", None),
    ("crown", (3,), "strong", 2, "match", None),
    ("hypercube", (3,), "strong", 2, "bound_holds", True),
    ("silicate", (1,), "strong", 6, "match", None),
    ("cycle", (5,), "strong", 1, "paper_too_low", None),
    ("path", (10,), "strong", 2, "paper_too_low", None),
]

# Certificates of computed optima, as (cover set, witness text): the witness
# shows the set is a strong 2-cover, so the optimum is at most its size, and
# every smaller set must fail, so the optimum is at least its size (a
# superset of a strong cover is one too, so the sets one smaller suffice).
CLAIM_PIN_CERTIFICATES = {
    ("complete_bipartite", (3, 3), "strong"): ((0, 3), """
        0 1 : 0 4 1
        0 2 : 0 5 2
        0 3 : 0 3
        0 4 : 0 4
        0 5 : 0 5
        3 0 : 3 0
        3 1 : 3 1
        3 2 : 3 2
        3 4 : 3 2 4
        3 5 : 3 1 5
    """),
}


def _certificate_faults(name, params, variant, computed):
    cert = CLAIM_PIN_CERTIFICATES.get((name, params, variant))
    if cert is None:
        return []
    cover, text = cert
    G = family(name, *params)
    faults = []
    if not verify_strong_witness(G, cover, 2, parse_witness(G, text)):
        faults.append(f"witness for {cover} does not verify")
    faults.extend(
        f"{smaller} is a strong cover"
        for smaller in combinations(range(G.n), len(cover) - 1)
        if strong_feasible(G, smaller, 2) is not None)
    if computed != len(cover):
        faults.append(f"computed {computed}, certificate proves {len(cover)}")
    return faults


@pytest.fixture(scope="module")
def claim_pin_report():
    reports = verify_claims(instances=CLAIM_PIN_INSTANCES, max_n=18)
    by_key = {}
    for r in reports:
        by_key[(r.claim.family, r.params, r.claim.variant)] = r
    # every pinned value that the oracle can reach must agree with it
    for name, params, variant, _, _, _ in CLAIM_PINS:
        G = family(name, *params)
        if G.n <= 12:
            r = by_key[(name, params, variant)]
            assert r.computed == naive_oracle(G, 2, variant).optimum
    return by_key


@pytest.mark.parametrize(
    "name,params,variant,claimed,status,tight",
    CLAIM_PINS,
    ids=[f"{n}{p}-{v}" for n, p, v, _, _, _ in CLAIM_PINS],
)
def test_criterion_4_claim_pins(claim_pin_report, name, params, variant,
                                claimed, status, tight):
    """The claim report contains exactly the pinned statuses, and a pinned
    optimum certificate, where there is one, holds."""
    r = claim_pin_report[(name, params, variant)]
    faults = _certificate_faults(name, params, variant, r.computed)
    ok = r.claimed == claimed and r.status == status and \
        (tight is None or r.tight == tight) and not faults
    _report(f"4 claim-pin {name}{params} {variant}", ok,
            f"claimed={r.claimed} computed={r.computed} status={r.status}")
    assert ok, (
        f"{name}{params} {variant}: expected status {status!r} for claimed "
        f"value {claimed}, but the exact (oracle-confirmed) optimum is "
        f"{r.computed}, giving status {r.status!r}; certificate: {faults}")


REDUCTION_INPUTS = [
    ("K2", ("path", (2,))),
    ("P3", ("path", (3,))),
    ("C3", ("cycle", (3,))),
    ("P4", ("path", (4,))),
]


@pytest.fixture(scope="module")
def reduction_checks():
    start = time.perf_counter()
    checks = {}
    for label, (name, params) in REDUCTION_INPUTS:
        for k in (2, 3):
            checks[(label, k)] = check_reduction(family(name, *params), k)
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"reduction checks took {elapsed:.0f}s"
    return checks


@pytest.mark.parametrize("label", [lbl for lbl, _ in REDUCTION_INPUTS])
@pytest.mark.parametrize("k", [2, 3])
def test_criterion_5_gadget_sizes(reduction_checks, label, k):
    chk = reduction_checks[(label, k)]
    ok = chk.sizes_ok
    _report(f"5 gadget-size {label} k={k}", ok,
            f"({chk.gadget_n},{chk.gadget_m})")
    assert ok


@pytest.mark.parametrize("label", [lbl for lbl, _ in REDUCTION_INPUTS])
@pytest.mark.parametrize("k", [2, 3])
def test_criterion_5_forward_witness(reduction_checks, label, k):
    """The designated forward cover set validates, establishing that the
    gadget optimum is at most vertex cover + offset."""
    chk = reduction_checks[(label, k)]
    _report(f"5 forward-witness {label} k={k}", chk.forward_ok,
            f"|set|={len(chk.witness_set)} target<={chk.claimed_ub}")
    assert chk.forward_ok, (
        f"{label} k={k}: designated set {chk.witness_set} is not a strong "
        f"cover of the gadget; at k=3 the far triangle's deep edge admits "
        f"no geodesic from this set (exact optimum "
        f"{chk.exact_optimum} vs claimed bound {chk.claimed_ub})")


@pytest.mark.parametrize("label", [lbl for lbl, _ in REDUCTION_INPUTS])
@pytest.mark.parametrize("k", [2, 3])
def test_criterion_5_equality_recorded(reduction_checks, label, k):
    """Gadgets with at most 17 vertices are solved exactly and the equality
    status is recorded (recorded, not asserted)."""
    chk = reduction_checks[(label, k)]
    if chk.gadget_n <= 17:
        ok = chk.exact_optimum is not None and chk.equality is not None
        detail = f"optimum={chk.exact_optimum} equality={chk.equality}"
    else:
        ok = chk.exact_optimum is None
        detail = "skipped (gadget above 17 vertices)"
    _report(f"5 equality-recorded {label} k={k}", ok, detail)
    assert ok


def _strip_stats(payload: bytes):
    record = json.loads(payload)
    record.pop("stats", None)
    return json.dumps(record, indent=2, sort_keys=True)


def test_criterion_6_determinism_and_performance(tmp_path):
    """Repeated CLI exact solves on GP(5,2) (strong) and butterfly(2) (both
    variants) produce byte-identical JSON apart from stats, each run under
    sixty seconds."""
    jobs = [
        ("generalized_petersen", ["5", "2"], "strong"),
        ("butterfly", ["2"], "weak"),
        ("butterfly", ["2"], "strong"),
    ]
    ok = True
    for name, params, variant in jobs:
        graph_file = tmp_path / f"{name}-{variant}.edges"
        assert cli_main(["gen", "--family", name, "--params", *params,
                         "--out", str(graph_file)]) == 0
        outputs = []
        for run in (1, 2):
            json_file = tmp_path / f"{name}-{variant}-{run}.json"
            start = time.perf_counter()
            code = cli_main(["solve", "--in", str(graph_file), "--k", "2",
                             "--variant", variant, "--method", "exact",
                             "--json", str(json_file)])
            elapsed = time.perf_counter() - start
            assert code == 0
            assert elapsed < 60, f"{name} {variant} run {run}: {elapsed:.1f}s"
            outputs.append(json_file.read_bytes())
        if _strip_stats(outputs[0]) != _strip_stats(outputs[1]):
            ok = False
    _report("6 determinism-performance", ok, "3 instances, 2 runs each")
    assert ok
