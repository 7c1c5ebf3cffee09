"""Benchmark of the semicontract pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src/` directory, and the run fails without it. One process, one thread.
After one warm-up op, ops repeat until the next one would end past --seconds.
Every op's outputs are compared with the committed reference in
perfbench/reference/.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
alternates untraced and traced ops and prints the per-layer metrics. Op and
set-up times are scaled to a reference machine speed by a calibration kernel
timed next to them, and during each op (see speed.py); raw wall times are
printed too. The last line of standard output is one JSON object; the lines
before it are the same numbers for people, with the run's provenance. Full results, and the spans of
a traced run, go to .perfbench_out/. See METRICS.md for what each metric means.

This file imports only the standard library, so that the thread settings below
are in place before numpy loads.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One compute thread: BLAS pools are pinned to 1 unless the caller chose
# otherwise; SEMICONTRACT_THREADS is left alone (unset means 1 worker).
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv) -> int:
    if not (SRC / "semicontract" / "__init__.py").is_file():
        print(f"no semicontract sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.bench import main as bench_main

    return bench_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
