"""The benchmark's tracer still finds every span it reads in the program.

``perfbench/tracer.py`` wraps the program's public functions by name, and
a traced benchmark run fails when a span its metrics need was not
recorded, or when the sweep's solve spans do not pair with the rows of
``trials.csv``.  These tests run tiny versions of the workloads' jobs
under the tracer, so that a change which renames, deletes or moves a
traced call fails here, not only in the benchmark.  The tracer is
imported as it is, never changed.
"""

import csv
import gzip
import sys
from pathlib import Path

import numpy as np

from incoproj import cli
from incoproj.matrixio import write_matrix

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402

SWEEP_CONFIG = """\
n = 10
k = 20
m = 6
S_range = 1-2
N = 3
optimizers = none, elad, sapiro, altproj
solver = both
elad.mode = relative
elad.iterations = 3
altproj.iterations = 3
master_seed = 1
"""


def traced_run(tmp_path, *argvs) -> tracer.SpanIndex:
    """Run CLI commands with the tracer installed, as a traced benchmark pass does,
    then write the spans as the pass does: every count read off a result must
    be JSON-serialisable."""
    tr = tracer.Tracer()
    tr.install()
    try:
        for argv in argvs:
            assert cli.main(argv) == 0
    finally:
        tr.uninstall()
    spans = tmp_path / "spans.csv.gz"
    tr.write(spans, 0.0)
    with gzip.open(spans, "rt", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + len(tr.spans)
    return tracer.SpanIndex(tr.spans)


def missing_spans(ix: tracer.SpanIndex, workload: str) -> list[str]:
    return [name for name in tracer.EXPECTED_SPANS[workload] if not ix.ids(name)]


def test_sweep_records_every_span_and_pairs_solves_with_rows(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    out = tmp_path / "bench"
    ix = traced_run(tmp_path, ["bench", "--config", str(config), "--out-dir", str(out)])
    assert missing_spans(ix, "desk-sweep") == []
    assert missing_spans(ix, "paper-design") == []
    with open(out / "trials.csv", newline="") as fh:
        trials = list(csv.DictReader(fh))
    assert len(trials) == 4 * 2 * 3 * 2  # arms x S x N x solvers
    assert tracer.paper_scale_extrapolation(ix, 0.0, trials) is not None


def test_learning_records_every_span(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 30))
    P = rng.standard_normal((3, 6))
    signals, measurements = tmp_path / "X.csv", tmp_path / "Y.csv"
    write_matrix(signals, X)
    write_matrix(measurements, P @ X)
    learn = ["--signals", str(signals), "--atoms", "8", "--sparsity", "2"]
    ix = traced_run(
        tmp_path,
        ["ksvd", *learn, "--iterations", "3", "--out-dir", str(tmp_path / "ksvd")],
        ["coupled", *learn, "--measurements", str(measurements), "--outer", "3",
         "--inner", "sapiro", "--out-dir", str(tmp_path / "coupled")],
    )
    assert missing_spans(ix, "learn-ksvd") == []
