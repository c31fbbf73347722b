"""The desk sweep still reproduces the benchmark's recorded trials.

``perfbench/ref/desk-sweep.seed1`` holds the trials and summary of
``incoproj bench`` on the desk-sweep workload's config at seed 1.  This
test runs one pass of that workload as the benchmark does.  The pass
checks every trial against the reference by the benchmark's own rule:
statuses and success flags exactly, relative errors within 1e-9.  So a
numerics change that moves a BP or OMP outcome fails here, not only in
the benchmark.  The workload module is imported as it is, never changed.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def test_desk_sweep_matches_the_seed_1_reference(tmp_path):
    work = workloads.Workload("desk-sweep", 1, tmp_path)
    work.setup()
    assert (work.ref_dir / "summary.csv").exists()
    result = work.run_pass(0)
    assert result.problems == []
    assert result.solves == 4 * 6 * 60 * 2  # arms x S levels x trials x solvers
