"""Time one set-up in a fresh process.

Set-up is importing `semicontract`, loading the workload's config and building
the op's inputs from the seed. Prints the set-up's wall seconds and then the
calibration kernel's, measured right after it. Usage: setup_probe.py <workload> <seed>
"""

import sys
import time

START = time.perf_counter()


def main(argv) -> int:
    from pathlib import Path

    workload, seed = argv[0], int(argv[1])
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.workloads import WORKLOADS

    WORKLOADS[workload].build(seed)
    elapsed = time.perf_counter() - START
    from perfbench.speed import kernel_seconds  # numpy is loaded by now

    print(repr(elapsed), repr(kernel_seconds()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
