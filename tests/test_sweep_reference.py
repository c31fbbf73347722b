"""The sweep workloads still reproduce the benchmark's recorded trials.

``perfbench/ref/<workload>.seed1`` holds the trials and summary of
``incoproj bench`` on that workload's config at seed 1.  This test runs
one pass of each sweep workload as the benchmark does: desk-sweep guards
the pursuit layer at desk scale, paper-design the three optimizers at
200x400.  The pass checks every trial against the reference by the
benchmark's own rule: statuses and success flags exactly, relative errors
within 1e-9.  So a numerics change that moves a BP or OMP outcome fails
here, not only in the benchmark.  The workload module is imported as it
is, never changed.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "name, solves",
    [
        ("desk-sweep", 4 * 6 * 60 * 2),  # arms x S levels x trials x solvers
        ("paper-design", 4 * 10 * 10 * 2),
    ],
)
def test_sweep_matches_the_seed_1_reference(tmp_path, name, solves):
    work = workloads.Workload(name, 1, tmp_path)
    work.setup()
    assert (work.ref_dir / "summary.csv").exists()
    result = work.run_pass(0)
    assert result.problems == []
    assert result.solves == solves
