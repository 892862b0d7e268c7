"""Record the pinned answers in pins.json from what the program computes.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs every request of each named workload (all by default) once at the
default seed and records its answer. A request whose independent checks fail
is reported and not pinned. Re-pin only when a change to the program is
meant to change answers, and say which answers changed and why; the
``known_discrepancies`` section is kept as it is.
"""

from __future__ import annotations

import json
import sys

from worker import HERE, import_program

PINS = HERE / "pins.json"


def main(argv) -> int:
    import_program()
    import workloads

    with open(PINS) as fh:
        doc = json.load(fh)
    status = 0
    for name in argv or list(workloads.WORKLOADS):
        answers = {}
        for req in workloads.WORKLOADS[name](workloads.DEFAULT_SEED).requests:
            result = req.call()
            problems = req.verify(result)
            if problems:
                print(f"{name} {req.label}: {problems}", file=sys.stderr)
                status = 1
            elif req.pinned:
                answers[req.label] = json.loads(json.dumps(req.answer(result)))
        doc["answers"][name] = dict(sorted(answers.items()))
        print(f"{name}: {len(answers)} answers pinned")
    with open(PINS, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
