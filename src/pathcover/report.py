"""Deterministic result serialization (JSON and CSV).

Records follow a fixed schema; two runs of the same computation serialize
byte-identically apart from the ``stats`` fields.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable

from .claims import DiscrepancyReport
from .graph import Graph
from .solve import SolveResult

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "schema_version", "family", "params", "n", "m", "variant", "k",
    "optimum", "set",
    "domination_lb", "degree_lb", "clique_lb", "trivial_ub",
    "order_diameter_ub", "diameter_ub", "half_ub",
    "claim_status", "nodes", "elapsed_s",
)


def _record(n: int, m: int, variant: str, k: int, optimum: int | None,
            *, family: str | None = None, params: list[int] | None = None,
            vset: list[int] | None = None, claim_status: str | None = None,
            stats: dict | None = None) -> dict:
    """A record of the schema; no record carries bounds."""
    return {
        "schema_version": SCHEMA_VERSION,
        "graph": {"family": family, "params": params, "n": n, "m": m},
        "variant": variant,
        "k": k,
        "optimum": optimum,
        "set": vset,
        "bounds": None,
        "claim_status": claim_status,
        "stats": stats,
    }


def result_record(graph: Graph, result: SolveResult) -> dict:
    """Result record for one solve; the graph's family and parameters, the
    bounds and the claim status are null."""
    return _record(graph.n, graph.m, result.variant, result.k,
                   result.optimum, vset=list(result.set),
                   stats={"nodes": result.stats.nodes,
                          "elapsed_s": result.stats.elapsed_s})


def claim_record(report: DiscrepancyReport) -> dict:
    """Result record for one claim-sweep instance; the set, the bounds and
    the stats are null."""
    return _record(report.n, report.m, report.claim.variant, report.claim.k,
                   report.computed, family=report.claim.family,
                   params=list(report.params), claim_status=report.status)


def to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _flat_row(record: dict) -> dict:
    """The record's fields, the graph's, the bounds' and the stats' read
    by CSV column; params and set become space-separated."""
    flat = {**record, **record["graph"], **(record["bounds"] or {}),
            **(record["stats"] or {})}
    for key in ("params", "set"):
        flat[key] = " ".join(str(x) for x in flat[key] or ())
    return {column: flat.get(column) for column in CSV_COLUMNS}


def to_csv(records: Iterable[dict]) -> str:
    """CSV with one row per record; header is emitted even when empty."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow(_flat_row(record))
    return buf.getvalue()
