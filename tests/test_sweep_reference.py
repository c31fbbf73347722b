"""The sweep workloads still reproduce the benchmark's recorded trials.

``perfbench/ref/<workload>.seed<seed>`` holds the trials and summary of
``incoproj bench`` on that workload's config at that seed.  These tests
run one pass of each sweep workload at seed 1 as the benchmark does:
desk-sweep guards the pursuit layer at desk scale, paper-design the three
optimizers at 200x400.  Desk-sweep also runs at seed 1001, whose three
uncertified BP solves (status ``max_iter``) check the LP's exits that do
not converge; seed 1 has none.  The pass checks every trial against the reference by the
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


def test_desk_sweep_matches_the_seed_1001_reference(tmp_path):
    work = workloads.Workload("desk-sweep", 1001, tmp_path)
    work.setup()
    assert (work.ref_dir / "summary.csv").exists()
    result = work.run_pass(0)
    assert result.problems == []
    assert result.solves == 4 * 6 * 60 * 2
    assert result.uncertified == 3
