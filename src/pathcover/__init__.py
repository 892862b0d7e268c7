"""Workbench for minimum shortest-path union covers of graphs and networks.

Computes exact weak and strong cover optima, generates the graph families and
interconnection topologies the claims registry talks about, evaluates the
general bound battery, builds vertex-cover reduction gadgets, and verifies
claimed closed-form values against exact solves.
"""

from .claims import (
    ClaimRecord,
    DiscrepancyReport,
    claim_value,
    claims_registry,
    verify_claims,
)
from .cover import (
    StrongWitness,
    format_witness,
    parse_witness,
    strong_feasible,
    verify_strong_witness,
    verify_weak_cover,
    weak_cover_set,
)
from .families import (
    FAMILY_NAMES,
    FamilyParamError,
    FamilySpec,
    UnknownFamilyError,
    expected_size,
    generate,
)
from .graph import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EnumerationCapError,
    Graph,
    GraphError,
    SelfLoopError,
    VertexRangeError,
    bfs_distances,
    build_graph,
    diameter,
    enumerate_geodesics,
    format_edgelist,
    geodesic_dag,
    is_connected,
    maximal_cliques,
    parse_edgelist,
)
from .reduction import (
    ReductionCheck,
    ReductionOutput,
    check_reduction,
    gadget_size_formulas,
    reduce_vc,
    vertex_cover_exact,
)
from .solve import (
    Bounds,
    STRONG,
    SizeLimitError,
    SolveResult,
    WEAK,
    compute_bounds,
    domination_number,
    naive_oracle,
    solve_exact,
    solve_greedy,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "ClaimRecord",
    "DiscrepancyReport",
    "DisconnectedGraphError",
    "DuplicateEdgeError",
    "EnumerationCapError",
    "FAMILY_NAMES",
    "FamilyParamError",
    "FamilySpec",
    "Graph",
    "GraphError",
    "ReductionCheck",
    "ReductionOutput",
    "STRONG",
    "SelfLoopError",
    "SizeLimitError",
    "SolveResult",
    "StrongWitness",
    "UnknownFamilyError",
    "VertexRangeError",
    "WEAK",
    "bfs_distances",
    "build_graph",
    "check_reduction",
    "claim_value",
    "claims_registry",
    "compute_bounds",
    "diameter",
    "domination_number",
    "enumerate_geodesics",
    "expected_size",
    "format_edgelist",
    "format_witness",
    "gadget_size_formulas",
    "generate",
    "geodesic_dag",
    "is_connected",
    "maximal_cliques",
    "naive_oracle",
    "parse_edgelist",
    "parse_witness",
    "reduce_vc",
    "solve_exact",
    "solve_greedy",
    "strong_feasible",
    "verify_claims",
    "verify_strong_witness",
    "verify_weak_cover",
    "vertex_cover_exact",
    "weak_cover_set",
]
