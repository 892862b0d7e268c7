"""Benchmark of pathcover: one workload, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--pins FILE]

Run it from the root of a checkout; it measures the pathcover source tree in
``src/`` next to this directory. With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics, and in both cases checks
every answer. Every time it reports is scaled to reference speed
(reference.py); the times as measured are printed too. The last line of
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Workloads, metrics and the checks are described
in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPAN_DIR = ROOT / ".bench_out"
WORKLOADS = ("claims-sweep", "weak-exact", "greedy-scale")
SETUP_PROBES = 21
TIME_LIMIT_S = 170  # the whole run, all processes included


class WorkerError(RuntimeError):
    pass


def _worker(args, deadline, mode, *extra):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, *extra]
    if args.pins:
        cmd += ["--pins", args.pins]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    if mode == "setup":
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _latency_metrics(latencies):
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
        "request_s.p50": (statistics.median(latencies), "s"),
        "request_s.p90": (deciles[8], "s"),
    }


def end_to_end(args, deadline):
    setups = []
    for _ in range(SETUP_PROBES):
        # slices on both sides of the probe stand for the machine's speed
        before = [reference.slice_s() for _ in range(reference.WINDOW // 2)]
        start = time.perf_counter()
        _worker(args, deadline, "setup")
        setup = time.perf_counter() - start
        after = [reference.slice_s() for _ in range(reference.WINDOW // 2 + 1)]
        setups.append((setup, statistics.median(before + after)))
    run = _worker(args, deadline, "timed", "--seconds", str(args.seconds))
    metrics = _latency_metrics(run["latencies"])
    metrics["ok_frac"] = (1 - run["failed"] / run["attempted"], "ratio")
    metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MB")
    metrics["setup_s"] = (statistics.median(
        setup * reference.REF_S / speed for setup, speed in setups), "s")
    measured = _latency_metrics(run["measured_latencies"])
    measured["setup_s"] = (statistics.median(s for s, _ in setups), "s")
    measured["slice_s"] = (run["slice_s"], "s")
    return [run], metrics, measured, True


def per_layer(args, deadline):
    from tracer import FIELD_UNITS, LAYER_METRICS

    SPAN_DIR.mkdir(exist_ok=True)
    base = _worker(args, deadline, "pass")
    traced = [_worker(args, deadline, "traced", "--spans",
                      str(SPAN_DIR / f"spans-{args.workload}-{run}.tsv"))
              for run in ("a", "b")]
    # every count must repeat exactly, so a later change can rest a claim
    # on one; times are scaled to reference speed and averaged over the two
    # runs
    a, b = (t["layers"] for t in traced)
    speed_a, speed_b = (reference.REF_S / t["slice_s"] for t in traced)
    metrics = {}
    mismatched = []
    for name, _, field in LAYER_METRICS:
        unit = FIELD_UNITS[field]
        if unit == "s":
            metrics[name] = ((a[name] * speed_a + b[name] * speed_b) / 2,
                             unit)
        else:
            if a[name] != b[name]:
                mismatched.append(f"{name}: {a[name]} then {b[name]}")
            metrics[name] = (a[name], unit)
    for line in mismatched:
        print(f"count differs between two traced runs: {line}",
              file=sys.stderr)
    traced_lat = traced[0]["latencies"] + traced[1]["latencies"]
    base_rps = len(base["latencies"]) / sum(base["latencies"])
    traced_rps = len(traced_lat) / sum(traced_lat)
    metrics["trace.overhead_frac"] = (1 - traced_rps / base_rps, "ratio")
    measured = {"slice_s": (statistics.median(
        t["slice_s"] for t in (base, *traced)), "s")}
    return [base, *traced], metrics, measured, not mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--pins", help="pinned answers (default: pins.json)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pathcover" / "__init__.py").is_file():
        print(f"no pathcover source tree in {ROOT / 'src'}", file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        # this process and the workers it starts share one core, so the
        # reference slices measure the speed of the core the program runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        measure = per_layer if args.trace else end_to_end
        runs, metrics, measured, repeatable = measure(args, deadline)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for problem in r["problems"]:
            print(f"failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} requests "
          f"(the latency sample count), {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print("as measured, before scaling to reference speed:")
    for name, (value, unit) in measured.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
