"""Regenerate the committed reference outputs from the current code.

    PYTHONPATH=src python3 -m perfbench.make_reference

Run it only on a commit whose outputs are known to be right: every benchmark
op is checked against what this writes to perfbench/reference/. For each
workload and size it records the outputs of every input case the seeds can
select.
"""

from __future__ import annotations

import json

from perfbench.workloads import REFERENCE_DIR, SIZES, WORKLOADS


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        doc = {}
        for size in SIZES:
            doc[size] = {}
            for seed in range(workload.cases):
                inputs = workload.build(seed, size)
                doc[size][inputs["case"]] = {"outputs": workload.outputs(workload.op(inputs))}
                print(workload.name, size, inputs["case"], flush=True)
        path = REFERENCE_DIR / f"{workload.name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
