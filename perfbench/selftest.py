"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Checks that every workload prints, in both modes, exactly the metrics that
BENCHMARK.json lists, with their units, and a correct result; that a
corrupted pinned answer shows as failed requests; that the known
discrepancies stay pinned at what the program computes; and that the
benchmark fails, without a result, where there is no source tree. Writes
only under .bench_out/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, SPAN_DIR, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    """Run run.py; return its exit code and the parsed last line, if any."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def expect(cond, message, errors):
    if not cond:
        errors.append(message)


def main() -> int:
    errors: list[str] = []
    SPAN_DIR.mkdir(exist_ok=True)

    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = bench("--workload", workload, "--seed", "0",
                                      "--seconds", "1", "--trace", str(trace))
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                errors.append(f"{where}: exit {code}, no result\n{err}")
                continue
            expect(set(result) == RESULT_KEYS, f"{where}: keys {set(result)}",
                   errors)
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{where}: {result}", errors)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{where}: metrics {got}, expected {want}",
                   errors)

    pins = json.loads((HERE / "pins.json").read_text())
    label = "complete_bipartite(3, 3)"
    pins["answers"]["claims-sweep"][label][0][4] += 1
    corrupt = SPAN_DIR / "corrupt-pins.json"
    corrupt.write_text(json.dumps(pins))
    code, result, _ = bench("--workload", "claims-sweep", "--seed", "0",
                            "--seconds", "1", "--trace", "0",
                            "--pins", str(corrupt))
    expect(code == 0 and result is not None and result["failed"] > 0
           and not result["correct"]
           and result["metrics"]["ok_frac"]["value"] < 1,
           f"a corrupted pin went unnoticed: {result}", errors)

    pins = json.loads((HERE / "pins.json").read_text())
    for workload, labels in pins["known_discrepancies"].items():
        for label in labels:
            answer = pins["answers"][workload].get(label)
            if workload == "claims-sweep":
                discrepant = answer and any(row[5] == "paper_too_high"
                                            for row in answer)
            else:
                discrepant = answer and answer["forward_ok"] is False
            expect(discrepant, f"known discrepancy {label} is pinned as "
                   f"{answer}", errors)

    bare = SPAN_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _ = bench("--workload", "claims-sweep", "--seed", "0",
                            "--seconds", "1", "--trace", "0", cwd=bare)
    expect(code != 0 and result is None,
           f"without a source tree: exit {code}, result {result}", errors)
    shutil.rmtree(bare)

    for line in errors:
        print(f"FAIL {line}")
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
