"""Registry of claimed closed-form cover values and the verification sweep.

Each record carries one published closed-form claim (exact value or upper
bound) for a family at k = 2, together with its parameter domain. The sweep
solves instances exactly and classifies each comparison; claimed values are
never trusted and heuristic results are never used for classification.

Records are grouped by ``claim_id``: a group corresponds to one stated
result, and results asserting both variants at once (wheel, fan, double fan,
double wheel) or carrying a small-dimension special case (benes weak, the
gasket bounds) expand to several records within their group. The registry
covers 11 family-claim groups and 13 network-claim groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, Sequence

from .families import FamilySpec, UnknownFamilyError, expected_size, generate
from .solve import (
    DEFAULT_LIMITS,
    STRONG,
    WEAK,
    SizeLimitError,
    SolverLimits,
    solve_exact,
)

KIND_EXACT = "exact"
KIND_UPPER_BOUND = "upper_bound"

TOPIC_FAMILY = "family"
TOPIC_NETWORK = "network"

STATUS_MATCH = "match"
STATUS_TOO_LOW = "paper_too_low"
STATUS_TOO_HIGH = "paper_too_high"
STATUS_BOUND_HOLDS = "bound_holds"
STATUS_BOUND_VIOLATED = "bound_violated"
STATUS_SKIPPED = "skipped: size"

# families excluded from the registry because no construction exists for
# them; surfaced in reports as permanently skipped
EXCLUDED_CLAIMS = (
    ("actinia", "SSPC_2U(A(m,n)) = ceil(n/5)", "graph construction undefined"),
)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True, eq=False)
class ClaimRecord:
    claim_id: str
    topic: str  # "family" or "network"
    family: str
    variant: str
    kind: str  # "exact" or "upper_bound"
    k: int
    formula: Callable[[tuple[int, ...]], int]
    citation: str  # the claim in closed form, with its parameter domain
    instances: Callable[[int], list[tuple[int, ...]]]

    def value(self, params: tuple[int, ...]) -> int:
        return self.formula(params)


def _single_param(lo: int, family: str) -> Callable[[int], list[tuple]]:
    def gen(max_n: int) -> list[tuple[int, ...]]:
        out = []
        p = lo
        while expected_size(family, (p,))[0] <= max_n:
            out.append((p,))
            p += 1
        return out
    return gen


def _fixed(family: str, *params: int) -> Callable[[int], list[tuple]]:
    family_params = tuple(params)

    def gen(max_n: int) -> list[tuple[int, ...]]:
        if expected_size(family, family_params)[0] <= max_n:
            return [family_params]
        return []
    return gen


def _bipartite_instances(max_n: int) -> list[tuple[int, ...]]:
    out = []
    for m in range(2, max_n):
        for n in range(m, max_n - m + 1):
            out.append((m, n))
    return out


def _friendship_instances(max_n: int) -> list[tuple[int, ...]]:
    out = []
    for c in range(4, max_n + 1):
        for n in range(4, max_n + 1):
            if expected_size("friendship", (c, n))[0] <= max_n:
                out.append((c, n))
    return out


def _build_registry() -> tuple[ClaimRecord, ...]:
    records: list[ClaimRecord] = []

    def add(claim_id, topic, family, variant, kind, formula, citation,
            instances):
        records.append(ClaimRecord(claim_id, topic, family, variant, kind, 2,
                                   formula, citation, instances))

    # family claims (11 groups)
    add("path", TOPIC_FAMILY, "path", STRONG, KIND_EXACT,
        lambda p: _ceil_div(p[0], 5),
        "SSPC_2U(P_m) = ceil(m/5), m >= 2", _single_param(2, "path"))
    add("cycle", TOPIC_FAMILY, "cycle", STRONG, KIND_EXACT,
        lambda p: _ceil_div(p[0], 5),
        "SSPC_2U(C_n) = ceil(n/5), n >= 5", _single_param(5, "cycle"))
    add("complete_bipartite", TOPIC_FAMILY, "complete_bipartite", STRONG,
        KIND_EXACT, lambda p: p[0],
        "SSPC_2U(K_{m,n}) = m, 2 <= m <= n", _bipartite_instances)
    for variant, tag in ((WEAK, "SPC_2U"), (STRONG, "SSPC_2U")):
        add("wheel", TOPIC_FAMILY, "wheel", variant, KIND_EXACT,
            lambda p: _ceil_div(p[0], 5),
            f"{tag}(W_n) = ceil(n/5), n >= 5", _single_param(5, "wheel"))
        add("double_wheel", TOPIC_FAMILY, "double_wheel", variant, KIND_EXACT,
            lambda p: 2 * _ceil_div(p[0], 5),
            f"{tag}(DW_n) = 2 ceil(n/5), n >= 5",
            _single_param(5, "double_wheel"))
        add("fan", TOPIC_FAMILY, "fan", variant, KIND_EXACT,
            lambda p: _ceil_div(p[0], 5),
            f"{tag}(F_{{1,n}}) = ceil(n/5), n >= 5", _single_param(5, "fan"))
        add("double_fan", TOPIC_FAMILY, "double_fan", variant, KIND_EXACT,
            lambda p: 1 + _ceil_div(p[0], 5),
            f"{tag}(DF_n) = 1 + ceil(n/5), n >= 2",
            _single_param(2, "double_fan"))
    add("crown_weak", TOPIC_FAMILY, "crown", WEAK, KIND_EXACT,
        lambda p: 2,
        "SPC_2U(H_{n,n}) = 2, n >= 3", _single_param(3, "crown"))
    add("crown_strong", TOPIC_FAMILY, "crown", STRONG, KIND_EXACT,
        lambda p: p[0] - 1,
        "SSPC_2U(H_{n,n}) = n - 1, n >= 3", _single_param(3, "crown"))
    add("petersen", TOPIC_FAMILY, "generalized_petersen", STRONG, KIND_EXACT,
        lambda p: 3,
        "SSPC_2U(GP(5,2)) = 3", _fixed("generalized_petersen", 5, 2))
    add("friendship", TOPIC_FAMILY, "friendship", STRONG, KIND_UPPER_BOUND,
        lambda p: 1 + p[1] * _ceil_div(p[0], 5),
        "SSPC_2U(F_{c,n}) <= 1 + n ceil(c/5), c, n >= 4",
        _friendship_instances)

    # network claims (13 groups)
    add("butterfly_weak", TOPIC_NETWORK, "butterfly", WEAK, KIND_UPPER_BOUND,
        lambda p: 2 ** (p[0] - 1) if p[0] <= 4 else 2 ** p[0],
        "SPC_2U(BF(r)) <= 2^(r-1) for r <= 4, 2^r for r > 4",
        _single_param(1, "butterfly"))
    add("butterfly_strong", TOPIC_NETWORK, "butterfly", STRONG,
        KIND_UPPER_BOUND,
        lambda p: _ceil_div(p[0], 2) * 2 ** (p[0] - 1),
        "SSPC_2U(BF(r)) <= ceil(r/2) 2^(r-1), r >= 3",
        _single_param(3, "butterfly"))
    add("augmented_butterfly_dim3", TOPIC_NETWORK, "augmented_butterfly",
        STRONG, KIND_EXACT, lambda p: 12,
        "SSPC_2U(ABF(3)) = 12", _fixed("augmented_butterfly", 3))
    add("augmented_butterfly_bound", TOPIC_NETWORK, "augmented_butterfly",
        STRONG, KIND_UPPER_BOUND,
        lambda p: p[0] * 2 ** (p[0] - 1),
        "SSPC_2U(ABF(r)) <= r 2^(r-1), r >= 2",
        _single_param(2, "augmented_butterfly"))
    add("enhanced_butterfly_dim3", TOPIC_NETWORK, "enhanced_butterfly",
        STRONG, KIND_EXACT, lambda p: 12,
        "SSPC_2U(EBF(3)) = 12", _fixed("enhanced_butterfly", 3))
    add("enhanced_butterfly_bound", TOPIC_NETWORK, "enhanced_butterfly",
        STRONG, KIND_UPPER_BOUND,
        lambda p: p[0] * 2 ** (p[0] - 1),
        "SSPC_2U(EBF(r)) <= r 2^(r-1), r >= 2",
        _single_param(2, "enhanced_butterfly"))
    add("benes_weak", TOPIC_NETWORK, "benes", WEAK, KIND_EXACT,
        lambda p: 2,
        "SPC_2U(B(2)) = 2", _fixed("benes", 2))
    add("benes_weak", TOPIC_NETWORK, "benes", WEAK, KIND_UPPER_BOUND,
        lambda p: 2 ** p[0],
        "SPC_2U(B(r)) <= 2^r, r >= 3", _single_param(3, "benes"))
    add("benes_strong", TOPIC_NETWORK, "benes", STRONG, KIND_UPPER_BOUND,
        lambda p: _ceil_div(p[0], 2) * 2 ** p[0],
        "SSPC_2U(B(r)) <= ceil(r/2) 2^r, r >= 1", _single_param(1, "benes"))
    add("silicate", TOPIC_NETWORK, "silicate", STRONG, KIND_EXACT,
        lambda p: 6 * p[0] * p[0],
        "SSPC_2U(SL(n)) = 6 n^2, n >= 1", _single_param(1, "silicate"))
    add("hypercube", TOPIC_NETWORK, "hypercube", STRONG, KIND_UPPER_BOUND,
        lambda p: 2 ** (p[0] - 2),
        "SSPC_2U(Q_n) <= 2^(n-2), n >= 3 (sharp at n = 3)",
        _single_param(3, "hypercube"))
    add("sierpinski", TOPIC_NETWORK, "sierpinski", STRONG, KIND_UPPER_BOUND,
        lambda p: 3 ** (p[0] - 1),
        "SSPC_2U(S(n,3)) <= 3^(n-1), n >= 2", _single_param(2, "sierpinski"))
    add("gasket_weak", TOPIC_NETWORK, "sierpinski_gasket", WEAK,
        KIND_UPPER_BOUND, lambda p: 3 ** (p[0] - 2),
        "SPC_2U(S_n) <= 3^(n-2), n >= 3",
        _single_param(3, "sierpinski_gasket"))
    add("gasket_weak", TOPIC_NETWORK, "sierpinski_gasket", WEAK, KIND_EXACT,
        lambda p: 2, "SPC_2U(S_2) = 2", _fixed("sierpinski_gasket", 2))
    add("gasket_strong", TOPIC_NETWORK, "sierpinski_gasket", STRONG,
        KIND_UPPER_BOUND, lambda p: 6 * 3 ** (p[0] - 3),
        "SSPC_2U(S_n) <= 6 (3^(n-3)), n >= 3",
        _single_param(3, "sierpinski_gasket"))
    add("gasket_strong", TOPIC_NETWORK, "sierpinski_gasket", STRONG,
        KIND_EXACT, lambda p: 2, "SSPC_2U(S_2) = 2", _fixed("sierpinski_gasket", 2))

    return tuple(records)


_REGISTRY = _build_registry()
# each family's records, in registry order
_BY_FAMILY = {family: tuple(r for r in _REGISTRY if r.family == family)
              for family in {r.family for r in _REGISTRY}}


def claims_registry() -> tuple[ClaimRecord, ...]:
    """The full registry, built once at import; one group per stated
    result."""
    return _REGISTRY


def claim_value(family: str, params: Sequence[int], variant: str) -> int:
    """Claimed value for a family instance; UnknownFamilyError when the
    registry has no claim for the family/variant combination."""
    params = tuple(params)
    for record in _BY_FAMILY.get(family, ()):
        if record.variant == variant:
            if params in record.instances(expected_size(family, params)[0]):
                return record.value(params)
    raise UnknownFamilyError(
        f"no registered claim for {family}{params} ({variant})")


@dataclass(frozen=True, eq=False)
class DiscrepancyReport:
    claim: ClaimRecord
    params: tuple[int, ...]
    n: int
    m: int
    claimed: int
    computed: int | None
    status: str

    @property
    def tight(self) -> bool:
        return self.computed is not None and self.computed == self.claimed


def _classify(kind: str, claimed: int, computed: int | None) -> str:
    if computed is None:
        return STATUS_SKIPPED
    if kind == KIND_EXACT:
        if claimed == computed:
            return STATUS_MATCH
        return STATUS_TOO_LOW if claimed < computed else STATUS_TOO_HIGH
    return STATUS_BOUND_HOLDS if computed <= claimed else STATUS_BOUND_VIOLATED


def verify_claims(
    families: Iterable[str] | None = None,
    max_n: int = 12,
    instances: Iterable[tuple[str, tuple[int, ...]]] | None = None,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> tuple[DiscrepancyReport, ...]:
    """Solve claim instances exactly and classify each against its claim.

    ``families`` filters by family name (None means all); ``instances``
    restricts to an explicit (family, params) list. Only the records of
    the families asked for, by either argument, list their instances. A
    family that no registry record carries raises ``UnknownFamilyError``,
    and a requested instance that no (filtered) record lists at ``max_n``
    raises ``ValueError``, so nothing asked for is dropped without a word.
    Each instance's graph is generated once and solved once per variant.
    Instances that ``solve_exact`` refuses for size (``SizeLimitError``,
    from the vertex limits alone) are reported as skipped, never guessed;
    every other instance is solved, however long that takes. Reports are
    ordered by (family, params, variant, kind), and records of one such
    key by registry order.
    """
    wanted = set(families) if families is not None else None
    explicit = set(instances) if instances is not None else None
    unknown = ({*(wanted or ()), *(family for family, _ in explicit or ())}
               - _BY_FAMILY.keys())
    if unknown:
        raise UnknownFamilyError(
            f"no registered claim for {', '.join(sorted(unknown))}")
    scope = _BY_FAMILY.keys() if wanted is None else wanted
    if explicit is not None:
        scope = {family for family, _ in explicit} & scope
    todo = [(record, params) for family in scope
            for record in _BY_FAMILY[family]
            for params in record.instances(max_n)]
    if explicit is not None:
        missing = explicit - {(record.family, params)
                              for record, params in todo}
        if missing:
            raise ValueError(
                "no claim lists " + ", ".join(
                    f"{family}{params}" for family, params in sorted(missing))
                + f" at max_n={max_n}")
        todo = [(record, params) for record, params in todo
                if (record.family, params) in explicit]
    todo.sort(key=lambda item: (item[0].family, item[1], item[0].variant,
                                item[0].kind))
    # optimum per (family, params, variant); None when refused for size
    optima: dict[tuple[str, tuple[int, ...], str], int | None] = {}
    reports: list[DiscrepancyReport] = []
    for (family, params), group in groupby(
            todo, key=lambda item: (item[0].family, item[1])):
        G = generate(FamilySpec(family, params))
        for record, _ in group:
            key = (family, params, record.variant)
            if key not in optima:
                try:
                    optima[key] = solve_exact(G, record.k, record.variant,
                                              limits).optimum
                except SizeLimitError:
                    optima[key] = None
            claimed = record.value(params)
            reports.append(DiscrepancyReport(
                record, params, G.n, G.m, claimed, optima[key],
                _classify(record.kind, claimed, optima[key])))
    return tuple(reports)
