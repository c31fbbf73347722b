"""Record the output reference of one workload and seed under ``perfbench/ref/``.

    python3 perfbench/record_reference.py --workload desk-sweep --seed 1

The output check compares every later run of that seed against these
files, so record a reference only for a revision whose outputs are known
good.  The references in the repository were recorded for seed 1 (the
default) and seed 1001 (held out while the benchmark was tuned).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BLAS_ENV, OUT, ROOT, WORKLOADS

# Outputs can depend on the BLAS thread count, so record with the same
# setting the benchmark runs with, before NumPy loads OpenBLAS.
os.environ.update(BLAS_ENV)
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT))
    try:
        wl = workloads.Workload(args.workload, args.seed, work)
        wl.setup()
        print(f"recorded {wl.record_reference().relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
