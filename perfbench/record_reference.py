"""Record the expected outcome of every pool task into reference.json.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run it only at a commit whose verdicts are the accepted ones: the benchmark
counts every later disagreement with this file as a failed task.  Each task
runs on a freshly built instance, exactly as in a timed run.  Tasks that
raise are recorded as such, so a corpus member that fails is kept, not
dropped.
"""

import json
import os
import sys

import run

PATH = os.path.join(run.HERE, "reference.json")


def record(workload) -> dict:
    outcomes = {}
    for index in range(workload.pool_size):
        try:
            outcomes[str(index)] = workload.run(index, workload.build(index))
        except run.AviboundError as exc:
            outcomes[str(index)] = {"raised": type(exc).__name__}
        print(f"{workload.name} {index}: {outcomes[str(index)]}", file=sys.stderr)
    return outcomes


def main(names) -> int:
    if run.IMPORT_ERROR is not None:
        print(f"cannot import the program: {run.IMPORT_ERROR}", file=sys.stderr)
        return 2
    data = {"workloads": {}}
    if os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as handle:
            data = json.load(handle)
    for name in names or run.WORKLOAD_NAMES:
        data["workloads"][name] = record(run.workloads.WORKLOADS[name])
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
