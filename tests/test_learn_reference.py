"""The learning jobs still reproduce the benchmark's recorded traces.

``perfbench/ref/learn-ksvd.seed1`` holds the objective traces of
``incoproj ksvd`` and ``incoproj coupled --inner sapiro`` on the
learn-ksvd workload's inputs at seed 1, and ``learn-ksvd.seed1001`` those
at the held-out seed 1001.  These tests run both jobs as a benchmark pass
does and compare their traces with the reference by the benchmark's own
rule, so a numerics change that moves them fails here, not only in the
benchmark.  The workload module is imported as it is, never changed.
"""

import csv
import sys
from pathlib import Path

import numpy as np

from incoproj import cli

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def read_trace(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_learn_reference(seed: int, tmp_path: Path) -> None:
    work = workloads.Workload("learn-ksvd", seed, tmp_path)
    work.setup()
    x_energy, y_energy = float(np.sum(work.X * work.X)), float(np.sum(work.Y * work.Y))
    out = tmp_path / "pass"
    for job, argv in work.jobs(out).items():
        assert cli.main(argv) == 0
        trace = read_trace(out / job / "trace.csv")
        reference = read_trace(work.ref_dir / f"{job}_trace.csv")
        assert len(trace) == workloads.LEARN["iterations"]
        assert workloads.compare_learn(job, trace, reference, x_energy, y_energy) == []


def test_learn_ksvd_traces_match_the_seed_1_reference(tmp_path):
    check_learn_reference(1, tmp_path)


def test_learn_ksvd_traces_match_the_seed_1001_reference(tmp_path):
    check_learn_reference(1001, tmp_path)
