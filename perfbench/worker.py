"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        [--seconds S] [--pins FILE] [--spans FILE]

Modes:
  setup   import pathcover, build the workload, exit (set-up is timed from
          outside, process start included)
  timed   closed loop over the requests, pass after pass, for at least one
          whole pass, S seconds and 100 requests; latencies are scaled to
          reference speed (reference.py)
  pass    the workload's traced share of requests once, untraced
  traced  the same requests with spans recorded; writes them to --spans

Every mode but setup checks each answer and prints one JSON summary as its
last line of output. run.py starts these processes; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_REQUESTS = 100  # so that p90 has at least ten samples beyond it


def import_program():
    """Import pathcover from this checkout's source tree, never from an
    installed copy."""
    if not (SRC / "pathcover" / "__init__.py").is_file():
        sys.exit(f"no pathcover source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import pathcover
    if Path(pathcover.__file__).resolve().parent != SRC / "pathcover":
        sys.exit(f"imported pathcover from {pathcover.__file__}, not {SRC}")


def _run_one(req, pins, tracer, problems):
    """Time one request, then check it with tracing paused. Returns the
    latency and whether the request failed."""
    start = time.perf_counter()
    try:
        result = req.call()
    except Exception as exc:  # a failed request is counted, not fatal
        latency = time.perf_counter() - start
        problems.append(f"{req.label}: {type(exc).__name__}: {exc}")
        return latency, True
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.on = False
    try:
        found = req.verify(result)
        if req.pinned:
            got = json.loads(json.dumps(req.answer(result)))
            if req.label not in pins:
                found.append("no pinned answer")
            elif got != pins[req.label]:
                found.append(f"answer {got}, pinned {pins[req.label]}")
    except Exception as exc:  # an answer the checks cannot read is wrong
        found = [f"check raised {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.on = True
    problems.extend(f"{req.label}: {p}" for p in found)
    return latency, bool(found)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "timed", "pass", "traced"))
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--pins", default=str(HERE / "pins.json"))
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import_program()
    import reference
    import workloads
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    work = workloads.WORKLOADS[args.workload](args.seed)
    if args.mode == "setup":
        sys.stdout.flush()
        os._exit(0)  # keep interpreter teardown out of the set-up time

    with open(args.pins) as fh:
        pins = json.load(fh)["answers"][args.workload]
    problems: list[str] = []
    failed = attempted = 0
    if args.mode == "timed":
        requests = work.requests
    else:
        requests = work.requests[:work.trace_requests]
    # one reference slice before each request, so each latency can be
    # scaled by the machine's speed at that moment (see reference.py)
    slices: list[float] = []
    latencies: list[float] = []  # the n-th is of request n % len(requests)
    start = time.perf_counter()
    for n in itertools.count():
        i = n % len(requests)
        if n >= len(requests) and (
                args.mode != "timed"
                or (time.perf_counter() - start >= args.seconds
                    and n >= MIN_REQUESTS)):
            break  # after one whole pass, at the first request past time
        if tracer is not None:
            tracer.request = i
        # no garbage of earlier requests is collected inside this one, so
        # its time does not depend on the order of the pass
        gc.collect()
        slices.append(reference.slice_s())
        latency, bad = _run_one(requests[i], pins, tracer, problems)
        latencies.append(latency)
        failed += bad
        attempted += 1
    scaled = reference.scale(latencies, slices)

    def per_request(times):
        # each request's median over the passes of the run
        return [statistics.median(times[i::len(requests)])
                for i in range(len(requests))]

    summary = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "latencies": per_request(scaled),
        "measured_latencies": per_request(latencies),
        "slice_s": statistics.median(slices),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        tracer.on = False
        summary["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
