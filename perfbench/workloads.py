"""The benchmark's three workloads: inputs, requests and answer checks.

A workload turns a seed into a list of requests (its set-up). Each request
calls into pathcover's public functions; its checks verify the answer
independently and compare it with the pinned answer where one is pinned.
pathcover's modules are referenced at call time (``solve.solve_exact``),
so the tracer's rebinding of those names takes effect here too.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from typing import Callable

from pathcover import claims, cover, families, graph, reduction, report, solve

# Seed whose random weak-exact graphs have pinned answers; the instances of
# claims-sweep and greedy-scale do not depend on the seed and are always
# pinned.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Request:
    label: str  # stable name; the key of the pinned answer
    call: Callable[[], object]
    answer: Callable[[object], object]  # the pinned view of a result
    verify: Callable[[object], list[str]]  # independent checks; problems
    pinned: bool = True


@dataclass(frozen=True)
class Workload:
    requests: list[Request]  # one pass, in the seed's order
    trace_requests: int  # how many of the first requests a traced run makes


def _name(family: str, params: tuple[int, ...]) -> str:
    return f"{family}{params}"


# --- claims-sweep ------------------------------------------------------------

# The largest instances of the registry check this workload reaches; at 13,
# strong K_{6,7} alone takes 9 s.
CLAIMS_MAX_N = 12


def _classify(kind: str, claimed: int, computed: int) -> str:
    """The claim status, worked out here rather than by the program, so a
    fault in the program's classification shows as a failed request."""
    if kind == claims.KIND_EXACT:
        if claimed == computed:
            return claims.STATUS_MATCH
        return (claims.STATUS_TOO_LOW if claimed < computed
                else claims.STATUS_TOO_HIGH)
    return (claims.STATUS_BOUND_HOLDS if computed <= claimed
            else claims.STATUS_BOUND_VIOLATED)


def _claims_request(family: str, params: tuple[int, ...]) -> Request:
    def call():
        reports = claims.verify_claims(max_n=CLAIMS_MAX_N,
                                       instances=[(family, params)])
        # a generator, so each claim_record runs inside to_csv
        text = report.to_csv(report.claim_record(r) for r in reports)
        return reports, text

    def answer(result):
        return [[r.claim.claim_id, r.claim.variant, r.claim.kind, r.claimed,
                 r.computed, r.status] for r in result[0]]

    def verify(result):
        reports, text = result
        problems = []
        if not reports:
            problems.append("no report")
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != len(reports):
            problems.append(f"{len(rows)} CSV rows for {len(reports)} reports")
        for r, row in zip(reports, rows):
            if r.computed is not None:
                expect = _classify(r.claim.kind, r.claimed, r.computed)
                if r.status != expect:
                    problems.append(f"status {r.status}, expected {expect}")
            if (row["claim_status"] != r.status
                    or row["optimum"] != ("" if r.computed is None
                                          else str(r.computed))):
                problems.append(f"CSV row {row} differs from report")
        return problems

    return Request(_name(family, params), call, answer, verify)


def claims_sweep(seed: int) -> Workload:
    instances = []
    for record in claims.claims_registry():
        for params in record.instances(CLAIMS_MAX_N):
            if (record.family, params) not in instances:
                instances.append((record.family, params))
    for family, params in instances:
        G = families.generate(families.FamilySpec(family, params))
        if (G.n, G.m) != families.expected_size(family, params):
            raise ValueError(f"{_name(family, params)} has the wrong size")
    random.Random(seed).shuffle(instances)
    requests = [_claims_request(f, p) for f, p in instances]
    return Workload(requests, trace_requests=len(requests))


# --- weak-exact --------------------------------------------------------------

# Requests per pass: random graphs at k = 1 and k = 2, and topology
# requests. A k = 1 solve is about four times slower than a k = 2 one, so
# p90 falls among the k = 1 requests and p50 among the rest. Every graph is
# distinct, because the spread between seeds shrinks with their number: at
# 60 and 240 graphs the time of a pass still differed by 9% between seeds.
# A pass takes about 12 s, so a 30 s run makes two to three.
WEAK_K1_GRAPHS = 120
WEAK_K2_GRAPHS = 480
WEAK_TOPOLOGY_REQUESTS = 60
WEAK_TRACE_REQUESTS = 200
# k = 1 graphs have 30 vertices: the k = 1 search time grows so fast with n,
# and varies so much between graphs of one size, that larger ones would put
# most of a run into a few graphs.
WEAK_K1_N = (30, 30)
WEAK_K2_N = (30, 40)
WEAK_EDGES_PER_VERTEX = {1: 1.3, 2: 1.5}
WEAK_TOPOLOGIES = (
    ("sierpinski", (3,)),
    ("augmented_butterfly", (3,)),
    ("generalized_petersen", (20, 3)),
    ("hypercube", (5,)),
    ("butterfly", (3,)),
)


def random_sparse_graph(rng: random.Random, n: int, m: int) -> graph.Graph:
    """Connected graph on n vertices and m edges: a random recursive tree
    plus random chords, under a random vertex numbering."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return graph.build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def _weak_request(label: str, G: graph.Graph, k: int,
                  pinned: bool) -> Request:
    greedy = []  # the greedy value, computed at the first check

    def call():
        return solve.compute_bounds(G, k), solve.solve_exact(G, k, "weak")

    def answer(result):
        return result[1].optimum

    def verify(result):
        bounds, res = result
        problems = []
        if res.status != "exact" or res.optimum != len(res.set):
            problems.append(f"result {res.status} {res.optimum} {res.set}")
        if not cover.verify_weak_cover(G, res.set, k):
            problems.append(f"set {res.set} is not a weak cover")
        if bounds.degree_lb is not None and bounds.degree_lb > res.optimum:
            problems.append(f"optimum {res.optimum} below degree bound "
                            f"{bounds.degree_lb}")
        if not greedy:
            greedy.append(solve.solve_greedy(G, k, "weak").optimum)
        if res.optimum > greedy[0]:
            problems.append(f"optimum {res.optimum} above greedy {greedy[0]}")
        return problems

    return Request(label, call, answer, verify, pinned)


def weak_exact(seed: int) -> Workload:
    rng = random.Random(seed)
    pinned = seed == DEFAULT_SEED
    requests = []
    for k, count, (lo, hi) in ((1, WEAK_K1_GRAPHS, WEAK_K1_N),
                               (2, WEAK_K2_GRAPHS, WEAK_K2_N)):
        for i in range(count):
            # every size equally often, so the seed draws the edges but not
            # how many graphs of each size there are
            n = lo + i % (hi - lo + 1)
            m = round(WEAK_EDGES_PER_VERTEX[k] * n)
            G = random_sparse_graph(rng, n, m)
            requests.append(_weak_request(f"s{seed}/k{k}/g{i}/n{n}", G, k,
                                          pinned))
    tops = [(_name(f, p), families.generate(families.FamilySpec(f, p)))
            for f, p in WEAK_TOPOLOGIES]
    for i in range(WEAK_TOPOLOGY_REQUESTS):
        name, G = tops[i % len(tops)]
        requests.append(_weak_request(f"{name}/k2", G, 2, True))
    rng.shuffle(requests)
    return Workload(requests, trace_requests=WEAK_TRACE_REQUESTS)


# --- greedy-scale ------------------------------------------------------------

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
REDUCTION_INPUTS = (
    ("path", (4,)),
    ("cycle", (5,)),
    ("complete_bipartite", (2, 3)),
    ("wheel", (4,)),
    ("generalized_petersen", (5, 2)),
    ("hypercube", (3,)),
)
REDUCTION_KS = (2, 3, 4)


def _greedy_request(label: str, G: graph.Graph, variant: str) -> Request:
    def call():
        # a user of a heuristic checks its output; that check is timed too
        res = solve.solve_greedy(G, 2, variant)
        if variant == "weak":
            ok = cover.verify_weak_cover(G, res.set, 2)
        else:
            ok = cover.verify_strong_witness(G, res.set, 2, res.witness)
        return res, ok

    def answer(result):
        return result[0].optimum

    def verify(result):
        res, ok = result
        problems = []
        if not ok:
            problems.append(f"{variant} greedy output does not verify")
        if res.status != "heuristic" or res.optimum != len(res.set):
            problems.append(f"result {res.status} {res.optimum} {res.set}")
        return problems

    return Request(label, call, answer, verify)


def _reduction_request(label: str, G: graph.Graph, k: int) -> Request:
    def call():
        return reduction.check_reduction(G, k)

    def answer(chk):
        return {"forward_ok": chk.forward_ok, "vc_size": chk.vc_size,
                "gadget": [chk.gadget_n, chk.gadget_m],
                "exact_optimum": chk.exact_optimum}

    def verify(chk):
        problems = []
        if not chk.sizes_ok:
            problems.append("gadget size differs from its formula")
        vc = set(chk.vc_set)
        if len(vc) != chk.vc_size or not all(u in vc or v in vc
                                             for u, v in G.edges):
            problems.append(f"{chk.vc_set} is not a vertex cover of size "
                            f"{chk.vc_size}")
        if not vc <= set(chk.witness_set):
            problems.append("forward set lacks the vertex cover")
        if chk.claimed_ub != chk.vc_size + chk.offset:
            problems.append("claimed bound is not vertex cover + offset")
        return problems

    return Request(label, call, answer, verify)


def greedy_scale(seed: int) -> Workload:
    rng = random.Random(seed)
    greedy = []
    for f, p in GREEDY_TOPOLOGIES:
        G = families.generate(families.FamilySpec(f, p))
        for variant in ("weak", "strong"):
            greedy.append(_greedy_request(f"{_name(f, p)}/{variant}", G,
                                          variant))
    reductions = []
    for f, p in REDUCTION_INPUTS:
        G = families.generate(families.FamilySpec(f, p))
        for k in REDUCTION_KS:
            reductions.append(_reduction_request(f"reduce {_name(f, p)}/k{k}",
                                                 G, k))
    rng.shuffle(greedy)
    rng.shuffle(reductions)
    requests = []
    for i in range(max(len(greedy), len(reductions))):
        requests += greedy[i:i + 1] + reductions[i:i + 1]
    return Workload(requests, trace_requests=len(requests))


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "claims-sweep": claims_sweep,
    "weak-exact": weak_exact,
    "greedy-scale": greedy_scale,
}
