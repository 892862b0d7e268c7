"""Registry of claimed closed-form cover values and the verification sweep.

Each record carries one published closed-form claim (exact value or upper
bound) for a family at k = 2, together with its parameter domain, a
predicate over the params. The sweep solves instances exactly and
classifies each comparison; claimed values are never trusted and heuristic
results are never used for classification.

Records are grouped by ``claim_id``: a group corresponds to one stated
result, and results asserting both variants at once (wheel, fan, double fan,
double wheel) or carrying a small-dimension special case (benes weak, the
gasket bounds) expand to several records within their group. The registry
covers 11 family-claim groups and 13 network-claim groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, product
from typing import Callable, Iterable, Sequence

from .families import (
    FamilyParamError,
    FamilySpec,
    UnknownFamilyError,
    expected_size,
    generate,
)
from .solve import STRONG, WEAK, exact_vertex_limit, solve_exact

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
    """One closed-form claim. ``formula`` gives the claimed value and
    ``domain``, a predicate, admits only params in the claim's domain; both
    take the family's params unpacked and name them alike, such as
    ``lambda m, n: m`` and ``lambda m, n: 2 <= m <= n``."""

    claim_id: str
    topic: str  # "family" or "network"
    family: str
    variant: str
    kind: str  # "exact" or "upper_bound"
    k: int
    formula: Callable[..., int]
    citation: str  # the claim in closed form, with its parameter domain
    domain: Callable[..., bool]

    def value(self, params: tuple[int, ...]) -> int:
        return self.formula(*params)

    def covers(self, params: tuple[int, ...], max_n: int) -> bool:
        """Whether ``params`` lie in the family's domain and the claim's,
        and give a graph of at most ``max_n`` vertices. Params that
        ``expected_size`` refuses, a non-int among them, are not covered."""
        try:
            n = expected_size(self.family, params)[0]
        except FamilyParamError:
            return False
        return self.domain(*params) and n <= max_n

    def instances(self, max_n: int) -> list[tuple[int, ...]]:
        """Every covered params with each place in 1..max_n, in
        lexicographic order; no family has a parameter above its vertex
        count, so none is left out."""
        arity = self.domain.__code__.co_argcount
        return [params
                for params in product(range(1, max_n + 1), repeat=arity)
                if self.covers(params, max_n)]


def _build_registry() -> tuple[ClaimRecord, ...]:
    records: list[ClaimRecord] = []

    def add(claim_id, topic, family, variant, kind, formula, citation,
            domain):
        records.append(ClaimRecord(claim_id, topic, family, variant, kind, 2,
                                   formula, citation, domain))

    # family claims (11 groups)
    add("path", TOPIC_FAMILY, "path", STRONG, KIND_EXACT,
        lambda m: _ceil_div(m, 5),
        "SSPC_2U(P_m) = ceil(m/5), m >= 2", lambda m: m >= 2)
    add("cycle", TOPIC_FAMILY, "cycle", STRONG, KIND_EXACT,
        lambda n: _ceil_div(n, 5),
        "SSPC_2U(C_n) = ceil(n/5), n >= 5", lambda n: n >= 5)
    add("complete_bipartite", TOPIC_FAMILY, "complete_bipartite", STRONG,
        KIND_EXACT, lambda m, n: m,
        "SSPC_2U(K_{m,n}) = m, 2 <= m <= n", lambda m, n: 2 <= m <= n)
    for variant, tag in ((WEAK, "SPC_2U"), (STRONG, "SSPC_2U")):
        add("wheel", TOPIC_FAMILY, "wheel", variant, KIND_EXACT,
            lambda n: _ceil_div(n, 5),
            f"{tag}(W_n) = ceil(n/5), n >= 5", lambda n: n >= 5)
        add("double_wheel", TOPIC_FAMILY, "double_wheel", variant, KIND_EXACT,
            lambda n: 2 * _ceil_div(n, 5),
            f"{tag}(DW_n) = 2 ceil(n/5), n >= 5", lambda n: n >= 5)
        add("fan", TOPIC_FAMILY, "fan", variant, KIND_EXACT,
            lambda n: _ceil_div(n, 5),
            f"{tag}(F_{{1,n}}) = ceil(n/5), n >= 5", lambda n: n >= 5)
        add("double_fan", TOPIC_FAMILY, "double_fan", variant, KIND_EXACT,
            lambda n: 1 + _ceil_div(n, 5),
            f"{tag}(DF_n) = 1 + ceil(n/5), n >= 2", lambda n: n >= 2)
    add("crown_weak", TOPIC_FAMILY, "crown", WEAK, KIND_EXACT,
        lambda n: 2,
        "SPC_2U(H_{n,n}) = 2, n >= 3", lambda n: n >= 3)
    add("crown_strong", TOPIC_FAMILY, "crown", STRONG, KIND_EXACT,
        lambda n: n - 1,
        "SSPC_2U(H_{n,n}) = n - 1, n >= 3", lambda n: n >= 3)
    add("petersen", TOPIC_FAMILY, "generalized_petersen", STRONG, KIND_EXACT,
        lambda n, t: 3,
        "SSPC_2U(GP(5,2)) = 3", lambda n, t: (n, t) == (5, 2))
    add("friendship", TOPIC_FAMILY, "friendship", STRONG, KIND_UPPER_BOUND,
        lambda c, n: 1 + n * _ceil_div(c, 5),
        "SSPC_2U(F_{c,n}) <= 1 + n ceil(c/5), c, n >= 4",
        lambda c, n: c >= 4 and n >= 4)

    # network claims (13 groups)
    add("butterfly_weak", TOPIC_NETWORK, "butterfly", WEAK, KIND_UPPER_BOUND,
        lambda r: 2 ** (r - 1) if r <= 4 else 2 ** r,
        "SPC_2U(BF(r)) <= 2^(r-1) for r <= 4, 2^r for r > 4",
        lambda r: r >= 1)
    add("butterfly_strong", TOPIC_NETWORK, "butterfly", STRONG,
        KIND_UPPER_BOUND,
        lambda r: _ceil_div(r, 2) * 2 ** (r - 1),
        "SSPC_2U(BF(r)) <= ceil(r/2) 2^(r-1), r >= 3", lambda r: r >= 3)
    add("augmented_butterfly_dim3", TOPIC_NETWORK, "augmented_butterfly",
        STRONG, KIND_EXACT, lambda r: 12,
        "SSPC_2U(ABF(3)) = 12", lambda r: r == 3)
    add("augmented_butterfly_bound", TOPIC_NETWORK, "augmented_butterfly",
        STRONG, KIND_UPPER_BOUND,
        lambda r: r * 2 ** (r - 1),
        "SSPC_2U(ABF(r)) <= r 2^(r-1), r >= 2", lambda r: r >= 2)
    add("enhanced_butterfly_dim3", TOPIC_NETWORK, "enhanced_butterfly",
        STRONG, KIND_EXACT, lambda r: 12,
        "SSPC_2U(EBF(3)) = 12", lambda r: r == 3)
    add("enhanced_butterfly_bound", TOPIC_NETWORK, "enhanced_butterfly",
        STRONG, KIND_UPPER_BOUND,
        lambda r: r * 2 ** (r - 1),
        "SSPC_2U(EBF(r)) <= r 2^(r-1), r >= 2", lambda r: r >= 2)
    add("benes_weak", TOPIC_NETWORK, "benes", WEAK, KIND_EXACT,
        lambda r: 2,
        "SPC_2U(B(2)) = 2", lambda r: r == 2)
    add("benes_weak", TOPIC_NETWORK, "benes", WEAK, KIND_UPPER_BOUND,
        lambda r: 2 ** r,
        "SPC_2U(B(r)) <= 2^r, r >= 3", lambda r: r >= 3)
    add("benes_strong", TOPIC_NETWORK, "benes", STRONG, KIND_UPPER_BOUND,
        lambda r: _ceil_div(r, 2) * 2 ** r,
        "SSPC_2U(B(r)) <= ceil(r/2) 2^r, r >= 1", lambda r: r >= 1)
    add("silicate", TOPIC_NETWORK, "silicate", STRONG, KIND_EXACT,
        lambda n: 6 * n * n,
        "SSPC_2U(SL(n)) = 6 n^2, n >= 1", lambda n: n >= 1)
    add("hypercube", TOPIC_NETWORK, "hypercube", STRONG, KIND_UPPER_BOUND,
        lambda n: 2 ** (n - 2),
        "SSPC_2U(Q_n) <= 2^(n-2), n >= 3 (sharp at n = 3)", lambda n: n >= 3)
    add("sierpinski", TOPIC_NETWORK, "sierpinski", STRONG, KIND_UPPER_BOUND,
        lambda n: 3 ** (n - 1),
        "SSPC_2U(S(n,3)) <= 3^(n-1), n >= 2", lambda n: n >= 2)
    add("gasket_weak", TOPIC_NETWORK, "sierpinski_gasket", WEAK,
        KIND_UPPER_BOUND, lambda n: 3 ** (n - 2),
        "SPC_2U(S_n) <= 3^(n-2), n >= 3", lambda n: n >= 3)
    add("gasket_weak", TOPIC_NETWORK, "sierpinski_gasket", WEAK, KIND_EXACT,
        lambda n: 2, "SPC_2U(S_2) = 2", lambda n: n == 2)
    add("gasket_strong", TOPIC_NETWORK, "sierpinski_gasket", STRONG,
        KIND_UPPER_BOUND, lambda n: 6 * 3 ** (n - 3),
        "SSPC_2U(S_n) <= 6 (3^(n-3)), n >= 3", lambda n: n >= 3)
    add("gasket_strong", TOPIC_NETWORK, "sierpinski_gasket", STRONG,
        KIND_EXACT, lambda n: 2, "SSPC_2U(S_2) = 2", lambda n: n == 2)

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
    """Claimed value for a family instance. Params that ``expected_size``
    refuses raise its ``UnknownFamilyError`` or ``FamilyParamError``; params
    outside every claim's domain for the family and variant raise
    ``UnknownFamilyError``, as does a family/variant with no claim."""
    params = tuple(params)
    n = expected_size(family, params)[0]
    for record in _BY_FAMILY.get(family, ()):
        if record.variant == variant and record.covers(params, n):
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


def _instance(entry) -> tuple[str, tuple[int, ...]]:
    """One ``verify_claims`` instance as (family, params), or ValueError
    naming the entry when it is no (family name, sequence of ints) pair; a
    bool is no int here."""
    try:
        family, params = entry
        params = tuple(params)
        ok = isinstance(family, str) and all(type(x) is int for x in params)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError("an instance is a (family, params) pair such as "
                         f"('cycle', (5,)), got {entry!r}")
    return family, params


def verify_claims(
    families: Iterable[str] | None = None,
    max_n: int = 12,
    instances: Iterable[tuple[str, tuple[int, ...]]] | None = None,
) -> tuple[DiscrepancyReport, ...]:
    """Solve claim instances exactly and classify each against its claim.

    ``max_n``, an int (anything else, a bool included, raises
    ``ValueError``), bounds the vertex count. ``families`` filters by a
    list of family names (None means all; a bare string raises
    ``ValueError``); ``instances`` restricts to an explicit (family,
    params) list, the params any sequence of ints (a bare string, or an
    entry that is no such pair, a bool among its params included, raises
    ``ValueError`` naming it). Without ``instances`` the records of
    the families asked for list their instances at ``max_n``; with it no
    record lists anything, and each requested instance goes to the records
    that cover it (``ClaimRecord.covers``). A family that no registry
    record carries raises ``UnknownFamilyError``, and a requested instance
    that no (filtered) record covers at ``max_n`` raises ``ValueError``,
    which names the ``families`` filter when there is one, so nothing
    asked for is dropped without a word.
    An instance over ``solve_exact``'s fixed vertex limit for a variant
    (``exact_vertex_limit``: 40 weak, 34 strong), which it would refuse
    with ``SizeLimitError``, is reported as skipped for that variant,
    never guessed; that is the only skip rule, and every other instance is
    solved, however long that takes. Reports take n and m from
    ``expected_size``. An instance's graph is generated only when some
    variant is within its limit, then once, and solved once per such
    variant. Reports are ordered by (family, params, variant, kind), and
    records of one such key by registry order.
    """
    if type(max_n) is not int:
        raise ValueError(f"max_n must be an int, got {max_n!r}")
    if isinstance(families, str):
        raise ValueError("families must be a list of family names, "
                         f"not the string {families!r}")
    wanted = set(families) if families is not None else None
    if isinstance(instances, str):
        raise ValueError("instances must be a list of (family, params) "
                         f"pairs, not the string {instances!r}")
    explicit = ({_instance(entry) for entry in instances}
                if instances is not None else None)
    unknown = ({*(wanted or ()), *(family for family, _ in explicit or ())}
               - _BY_FAMILY.keys())
    if unknown:
        raise UnknownFamilyError(
            f"no registered claim for {', '.join(sorted(unknown))}")
    scope = _BY_FAMILY.keys() if wanted is None else wanted
    if explicit is None:
        todo = [(record, params) for family in scope
                for record in _BY_FAMILY[family]
                for params in record.instances(max_n)]
    else:
        todo = [(record, params) for family, params in explicit
                if family in scope for record in _BY_FAMILY[family]
                if record.covers(params, max_n)]
        missing = explicit - {(record.family, params)
                              for record, params in todo}
        if missing:
            raise ValueError(
                "no claim lists " + ", ".join(
                    f"{family}{params}" for family, params in sorted(missing))
                + f" at max_n={max_n}"
                + (f" in families {sorted(wanted)}" if wanted is not None
                   else ""))
    todo.sort(key=lambda item: (item[0].family, item[1], item[0].variant,
                                item[0].kind))
    reports: list[DiscrepancyReport] = []
    for (family, params), group in groupby(
            todo, key=lambda item: (item[0].family, item[1])):
        n, m = expected_size(family, params)
        G = None
        optima: dict[str, int] = {}  # per variant within its limit
        for record, _ in group:
            variant = record.variant
            if variant not in optima and n <= exact_vertex_limit(variant):
                if G is None:
                    G = generate(FamilySpec(family, params))
                optima[variant] = solve_exact(G, record.k, variant).optimum
            computed = optima.get(variant)  # None when refused for size
            claimed = record.value(params)
            reports.append(DiscrepancyReport(
                record, params, n, m, claimed, computed,
                _classify(record.kind, claimed, computed)))
    return tuple(reports)
