"""Span tracing of pathcover's public functions, installed from outside.

Each traced function is rebound, in the module that defines it and in every
pathcover module that imported the name, to a wrapper that records a span:
name, start, end, parent span and request id. Spans stay in memory, are
written out when the run ends, and give the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

SETUP = -1  # request id of spans recorded while the workload is built


def _solve_exact_name(args, kwargs):
    variant = kwargs["variant"] if "variant" in kwargs else args[2]
    return f"solve.solve_exact.{variant}"


# (module, function, span name or function of the call's arguments, count
# taken from the result and summed into the span's metric)
TARGETS = (
    ("graph", "bfs_distances", None, None),
    ("graph", "enumerate_geodesics", None, len),
    ("graph", "geodesic_dag", None, None),
    ("graph", "maximal_cliques", None, None),
    ("families", "generate", None, None),
    ("cover", "weak_cover_set", None, None),
    ("cover", "source_pairs", None, len),
    ("cover", "feasible_from_pairs", None, lambda w: int(w is not None)),
    ("cover", "strong_feasible", None, None),
    ("cover", "verify_strong_witness", None, None),
    ("solve", "solve_exact", _solve_exact_name, lambda r: r.stats.nodes),
    ("solve", "domination_number", None, None),
    ("solve", "compute_bounds", None, None),
    ("solve", "solve_greedy", None, None),
    ("reduction", "reduce_vc", None, None),
    ("reduction", "vertex_cover_exact", None, None),
    ("reduction", "check_reduction", None, None),
    ("claims", "verify_claims", None, None),
    ("report", "to_csv", None, None),
)

_SOLVE_EXACT = ("solve.solve_exact.weak", "solve.solve_exact.strong")

# (metric, spans it sums over, field, unit). Fields: calls, s (span time),
# self_s (span time minus child span time), count (the target's result
# count), hit_ratio (count over calls).
LAYER_METRICS = (
    ("graph.bfs_distances.calls", ("graph.bfs_distances",), "calls"),
    ("graph.bfs_distances.self_s", ("graph.bfs_distances",), "self_s"),
    ("graph.enumerate_geodesics.calls", ("graph.enumerate_geodesics",),
     "calls"),
    ("graph.enumerate_geodesics.paths", ("graph.enumerate_geodesics",),
     "count"),
    ("graph.enumerate_geodesics.self_s", ("graph.enumerate_geodesics",),
     "self_s"),
    ("graph.geodesic_dag.calls", ("graph.geodesic_dag",), "calls"),
    ("graph.geodesic_dag.s", ("graph.geodesic_dag",), "s"),
    ("graph.maximal_cliques.s", ("graph.maximal_cliques",), "s"),
    ("families.generate.calls", ("families.generate",), "calls"),
    ("families.generate.s", ("families.generate",), "s"),
    ("cover.weak_cover_set.calls", ("cover.weak_cover_set",), "calls"),
    ("cover.weak_cover_set.s", ("cover.weak_cover_set",), "s"),
    ("cover.source_pairs.calls", ("cover.source_pairs",), "calls"),
    ("cover.source_pairs.pairs", ("cover.source_pairs",), "count"),
    ("cover.source_pairs.self_s", ("cover.source_pairs",), "self_s"),
    ("cover.feasible_from_pairs.calls", ("cover.feasible_from_pairs",),
     "calls"),
    ("cover.feasible_from_pairs.s", ("cover.feasible_from_pairs",), "s"),
    ("cover.feasible_from_pairs.hit_ratio", ("cover.feasible_from_pairs",),
     "hit_ratio"),
    ("cover.strong_feasible.calls", ("cover.strong_feasible",), "calls"),
    ("cover.strong_feasible.s", ("cover.strong_feasible",), "s"),
    ("cover.verify_strong_witness.s", ("cover.verify_strong_witness",), "s"),
    ("solve.solve_exact.weak.s", ("solve.solve_exact.weak",), "s"),
    ("solve.solve_exact.strong.s", ("solve.solve_exact.strong",), "s"),
    ("solve.solve_exact.self_s", _SOLVE_EXACT, "self_s"),
    ("solve.nodes", _SOLVE_EXACT, "count"),
    ("solve.domination_number.s", ("solve.domination_number",), "s"),
    ("solve.compute_bounds.s", ("solve.compute_bounds",), "s"),
    ("solve.solve_greedy.s", ("solve.solve_greedy",), "s"),
    ("solve.solve_greedy.self_s", ("solve.solve_greedy",), "self_s"),
    ("reduction.reduce_vc.s", ("reduction.reduce_vc",), "s"),
    ("reduction.vertex_cover_exact.s", ("reduction.vertex_cover_exact",), "s"),
    ("reduction.check_reduction.self_s", ("reduction.check_reduction",),
     "self_s"),
    ("claims.verify_claims.self_s", ("claims.verify_claims",), "self_s"),
    ("report.to_csv.s", ("report.to_csv",), "s"),
)
FIELD_UNITS = {"calls": "count", "count": "count", "s": "s", "self_s": "s",
               "hit_ratio": "ratio"}


class Tracer:
    """Records spans of the traced functions while ``on`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counts: list[int] = []
        self.stack: list[int] = []
        self.request = SETUP
        self.on = True

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "pathcover" or name.startswith("pathcover.")]
        for module, func, name, count in TARGETS:
            orig = getattr(sys.modules[f"pathcover.{module}"], func)
            wrapper = self._wrap(orig, name or f"{module}.{func}", count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)

    def _wrap(self, orig, name, count):
        tracer = self
        name_of = name if callable(name) else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return orig(*args, **kwargs)
            sid = len(tracer.names)
            tracer.names.append(name_of(args, kwargs) if name_of else name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.requests.append(tracer.request)
            tracer.counts.append(0)
            tracer.ends.append(0.0)
            tracer.stack.append(sid)
            tracer.starts.append(time.perf_counter())
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.ends[sid] = time.perf_counter()
                tracer.stack.pop()
            if count is not None:
                tracer.counts[sid] = count(result)
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of LAYER_METRICS over all recorded spans."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        per_span: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            agg = per_span.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
            dur = self.ends[i] - self.starts[i]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child[i]
            agg["count"] += self.counts[i]
        out = {}
        for metric, spans, field in LAYER_METRICS:
            if field == "hit_ratio":
                calls = sum(per_span.get(s, {}).get("calls", 0)
                            for s in spans)
                hits = sum(per_span.get(s, {}).get("count", 0) for s in spans)
                out[metric] = hits / calls if calls else 0.0
            else:
                out[metric] = sum(per_span.get(s, {}).get(field, 0)
                                  for s in spans)
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines, one per span, in start order."""
        with open(path, "w") as fh:
            fh.write("span\trequest\tparent\tname\tstart\tend\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.requests[i]}\t{self.parents[i]}\t"
                         f"{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")
