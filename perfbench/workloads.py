"""The three benchmark workloads: inputs from a seed, one timed pass, output checks.

Every workload drives the program through ``incoproj.cli.main``, the same
entry point a user runs, so the benchmark keeps working while the library
API behind the CLI is refactored.  The inputs (a config file, or training
matrices) are generated from the workload seed before anything is timed.

Why these three: each user job is dominated by a different layer.

* ``desk-sweep`` -- ``incoproj bench`` at desk scale: BP and its LP solver
  take most of the time; design is a small fixed cost.
* ``paper-design`` -- ``incoproj bench`` at paper shape with few trials per
  cell: the projection optimizers at 200x400 take most of the time, and the
  same pursuit layer runs on the larger 30x800 LPs.
* ``learn-ksvd`` -- ``incoproj ksvd`` then ``incoproj coupled --inner
  sapiro`` on a planted training set: OMP through ``sparse_code`` takes most
  of the time and BP does no work, so a BP-only change must not move it.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import hashlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from incoproj import cli

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "ref"

# Relative errors must agree with the reference within this absolute amount.
REL_ERR_TOL = 1e-9
# Learning traces must agree with the reference within this share of the
# signal energy (||X||_F^2, or ||Y||_F^2 for the measurement term).
TRACE_TOL = 1e-8

SWEEP_CONFIG = """\
n = {n}
k = {k}
m = {m}
S_range = {S_range}
N = {N}
dictionary_source = gaussian
optimizers = none, elad, sapiro, altproj
solver = both
elad.mode = relative
elad.percent = 26
elad.gamma = 0.6
elad.iterations = 50
altproj.t = {altproj_t}
altproj.iterations = 300
master_seed = {seed}
"""

# desk-sweep uses the acceptance-test-06 settings (altproj t = 0.3);
# paper-design uses the CLI defaults (altproj t = 0.26).
SWEEP_SHAPES = {
    "desk-sweep": dict(n=50, k=100, m=12, S_range="1-6", N=60, altproj_t=0.3),
    "paper-design": dict(n=200, k=400, m=30, S_range="1-10", N=10, altproj_t=0.26),
}

# learn-ksvd: planted 20x40 dictionary, 3-sparse codes, 1000 signals,
# measured through a Gaussian 8x20 projection.  Ten iterations per job
# keep a pass near 4 s, so one run holds enough passes for its median.
LEARN = dict(n=20, k=40, S=3, p=1000, m=8, iterations=10, lam=0.5)

@dataclass
class PassResult:
    """Outputs of one pass: timings, operation counts, artifacts and problems."""

    wall_s: float
    solves: int
    attempted: int
    failed: int
    digest: str
    jobs_s: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    trials: list[dict] = field(default_factory=list)
    # CPU time of the jobs; well below wall_s when the host steals the CPU.
    cpu_s: float = 0.0
    # BP solves whose answer could not be certified (status max_iter).
    # They run to completion and their status is checked against the
    # reference, so they count against op_ok_share but are not failed
    # operations.
    uncertified: int = 0


def _run_cli(argv: list[str]) -> int:
    """Run one CLI command in-process, keeping its stdout out of ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _read_table(path: Path) -> list[dict]:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


class Workload:
    """One workload bound to a seed and a private working directory."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        if name not in SWEEP_SHAPES and name != "learn-ksvd":
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.ref_dir = REF_DIR / f"{name}.seed{seed}"

    # -- set-up: generate the inputs from the seed -------------------------

    def setup(self) -> None:
        inputs = self.work_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        if self.name in SWEEP_SHAPES:
            self.config = inputs / "sweep.cfg"
            self.config.write_text(SWEEP_CONFIG.format(seed=self.seed, **SWEEP_SHAPES[self.name]))
            return
        n, k, S, p, m = (LEARN[key] for key in ("n", "k", "S", "p", "m"))
        rng = np.random.default_rng([self.seed, 20120619])
        D = rng.standard_normal((n, k))
        D /= np.linalg.norm(D, axis=0)
        Theta = np.zeros((k, p))
        for i in range(p):
            Theta[rng.choice(k, S, replace=False), i] = rng.standard_normal(S)
        self.X = D @ Theta
        self.Y = rng.standard_normal((m, n)) @ self.X
        self.signals = inputs / "X.csv"
        self.measurements = inputs / "Y.csv"
        np.savetxt(self.signals, self.X, fmt="%.17g", delimiter=",")
        np.savetxt(self.measurements, self.Y, fmt="%.17g", delimiter=",")
        # What the program reads back is what its outputs are checked against.
        self.X = _read_matrix(self.signals)
        self.Y = _read_matrix(self.measurements)

    # -- one pass -----------------------------------------------------------

    def jobs(self, out: Path) -> dict[str, list[str]]:
        """The CLI command lines of one pass, writing under ``out``."""
        if self.name in SWEEP_SHAPES:
            return {"bench": ["bench", "--config", str(self.config), "--out-dir", str(out)]}
        common = ["--atoms", str(LEARN["k"]), "--sparsity", str(LEARN["S"]), "--seed", str(self.seed)]
        return {
            "ksvd": ["ksvd", "--signals", str(self.signals),
                     "--iterations", str(LEARN["iterations"]), *common,
                     "--out-dir", str(out / "ksvd")],
            "coupled": ["coupled", "--signals", str(self.signals),
                        "--measurements", str(self.measurements),
                        "--lam", str(LEARN["lam"]), "--outer", str(LEARN["iterations"]),
                        "--inner", "sapiro", "--inner-seed", str(self.seed), *common,
                        "--out-dir", str(out / "coupled")],
        }

    def run_pass(self, index: int) -> PassResult:
        out = self.work_dir / f"pass{index}"
        try:
            return self._pass(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _pass(self, out: Path) -> PassResult:
        jobs_s: dict[str, float] = {}
        codes: dict[str, int] = {}
        cpu = 0.0
        for job, argv in self.jobs(out).items():
            t0, c0 = time.perf_counter(), time.process_time()
            codes[job] = _run_cli(argv)
            jobs_s[job] = time.perf_counter() - t0
            cpu += time.process_time() - c0
        if self.name in SWEEP_SHAPES:
            result = self._sweep_result(out, jobs_s, codes["bench"])
        else:
            result = self._learn_result(out, jobs_s, codes)
        result.cpu_s = cpu
        return result

    def _sweep_result(self, out: Path, jobs_s: dict[str, float], rc: int) -> PassResult:
        wall = jobs_s["bench"]
        if rc != 0:
            return PassResult(wall, 0, 1, 1, "", jobs_s, [f"bench exited {rc}"])
        trials = _read_table(out / "trials.csv")
        summary = _read_table(out / "summary.csv")
        failed = sum(r["status"].startswith("error:") for r in trials)
        uncertified = sum(r["solver_name"] == "bp" and r["status"] == "max_iter" for r in trials)
        problems = self._check_sweep(trials, summary, out)
        if (self.ref_dir / "summary.csv").exists():
            problems += compare_sweep(
                trials, summary,
                _read_table(self.ref_dir / "trials.csv.gz"),
                _read_table(self.ref_dir / "summary.csv"),
            )
        return PassResult(
            wall_s=wall,
            solves=len(trials),
            attempted=len(trials),
            failed=failed,
            digest=_digest([out / "summary.csv", out / "trials.csv"]),
            jobs_s=jobs_s,
            problems=problems,
            trials=trials,
            uncertified=uncertified,
        )

    def _check_sweep(self, trials: list[dict], summary: list[dict], out: Path) -> list[str]:
        """Seed-independent invariants of a sweep's reports."""
        shape = SWEEP_SHAPES[self.name]
        lo, hi = (int(v) for v in shape["S_range"].split("-"))
        expected = 4 * (hi - lo + 1) * shape["N"] * 2
        problems = []
        if len(trials) != expected:
            problems.append(f"{len(trials)} trial rows, expected {expected}")
        threshold = 1e-4
        cells: dict[tuple, list[dict]] = {}
        for r in trials:
            if r["status"] not in ("converged", "max_iter", "infeasible") and not r["status"].startswith("error:"):
                problems.append(f"unknown status {r['status']!r}")
            if (r["success"] == "true") != (float(r["relative_error"]) <= threshold):
                problems.append(f"success flag disagrees with relative_error in {r}")
            cells.setdefault((r["optimizer_name"], r["solver_name"], r["S"]), []).append(r)
        if len(summary) != len(cells):
            problems.append(f"{len(summary)} summary rows for {len(cells)} cells")
        for c in summary:
            rows = cells.get((c["optimizer_name"], c["solver_name"], c["S"]), [])
            fails = sum(r["success"] != "true" for r in rows)
            if int(c["trial_count"]) != len(rows) or len(rows) != shape["N"]:
                problems.append(f"cell {c} has {len(rows)} trials")
            elif float(c["failure_rate"]) != fails / len(rows):
                problems.append(f"cell {c} failure_rate != {fails}/{len(rows)}")
            errs = [float(r["relative_error"]) for r in rows]
            mean = math.fsum(errs) / len(errs) if rows else 0.0
            if not _close(float(c["mean_relative_error"]), mean, 1e-12 * max(1.0, abs(mean))):
                problems.append(f"cell {c} mean_relative_error != {mean!r}")
            # With mutual coherence below 1, OMP recovers every 1-sparse signal.
            if c["solver_name"] == "omp" and c["S"] == "1" and fails:
                problems.append(f"OMP failed {fails} 1-sparse recoveries for arm {c['optimizer_name']}")
        for arm in ("none", "elad", "sapiro", "altproj"):
            if not (out / f"gram_hist_{arm}.csv").exists():
                problems.append(f"gram_hist_{arm}.csv missing")
        return problems

    def _learn_result(self, out: Path, jobs_s: dict[str, float], codes: dict[str, int]) -> PassResult:
        problems: list[str] = []
        failed = 0
        solves = 0
        for job, rc in codes.items():
            job_problems = [f"{job} exited {rc}"] if rc != 0 else self._check_learn(job, out / job)
            if rc == 0:
                # Every outer iteration OMP-codes all p training signals.
                solves += LEARN["p"] * len(_read_table(out / job / "trace.csv"))
            failed += bool(job_problems)
            problems += job_problems
        paths = [out / job / "trace.csv" for job in codes if (out / job / "trace.csv").exists()]
        return PassResult(
            wall_s=sum(jobs_s.values()),
            solves=solves,
            attempted=len(codes),
            failed=failed,
            digest=_digest(paths),
            jobs_s=jobs_s,
            problems=problems,
        )

    def _check_learn(self, job: str, out: Path) -> list[str]:
        """Recompute the final objective terms from the written matrices."""
        n, k, S, m, p = (LEARN[key] for key in ("n", "k", "S", "m", "p"))
        problems = []
        D = _read_matrix(out / "dictionary.csv")
        Theta = _read_matrix(out / "coefficients.csv")
        trace = _read_table(out / "trace.csv")
        if D.shape != (n, k) or Theta.shape != (k, p):
            return [f"{job}: shapes D{D.shape} Theta{Theta.shape}"]
        if not np.allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-9):
            problems.append(f"{job}: dictionary atoms are not unit norm")
        if int(np.max(np.count_nonzero(Theta, axis=0))) > S:
            problems.append(f"{job}: a code has more than {S} nonzeros")
        R = self.X - D @ Theta
        fit = float(np.sum(R * R))
        energy = float(np.sum(self.X * self.X))
        if job == "ksvd":
            obj = [float(r["objective"]) for r in trace]
            if len(obj) != LEARN["iterations"]:
                problems.append(f"ksvd: {len(obj)} trace rows")
            if not _close(obj[-1], fit, 1e-9 * energy):
                problems.append(f"ksvd: trace objective {obj[-1]!r} != recomputed {fit!r}")
            if not obj[-1] < obj[0]:
                problems.append("ksvd: training did not lower the objective")
        else:
            P = _read_matrix(out / "projection.csv")
            if P.shape != (m, n):
                return problems + [f"coupled: projection shape {P.shape}"]
            R2 = self.Y - P @ D @ Theta
            t1, t2 = float(trace[-1]["term1"]), float(trace[-1]["term2"])
            if not _close(t1, fit, 1e-9 * energy):
                problems.append(f"coupled: term1 {t1!r} != recomputed {fit!r}")
            fit2 = float(np.sum(R2 * R2))
            if not _close(t2, fit2, 1e-9 * float(np.sum(self.Y * self.Y))):
                problems.append(f"coupled: term2 {t2!r} != recomputed {fit2!r}")
        if (self.ref_dir / f"{job}_trace.csv").exists():
            problems += compare_learn(
                job, trace, _read_table(self.ref_dir / f"{job}_trace.csv"),
                energy, float(np.sum(self.Y * self.Y)),
            )
        return problems

    # -- reference recording --------------------------------------------------

    def record_reference(self) -> Path:
        """Run one pass and store its outputs as this seed's reference."""
        out = self.work_dir / "reference"
        target, self.ref_dir = self.ref_dir, self.work_dir / "no-reference"
        try:
            result = self._pass(out)
        finally:
            self.ref_dir = target
        if result.problems:
            raise RuntimeError("; ".join(result.problems))
        if self.name in SWEEP_SHAPES:
            files = {"summary.csv": out / "summary.csv", "trials.csv.gz": out / "trials.csv"}
        else:
            files = {f"{job}_trace.csv": out / job / "trace.csv" for job in ("ksvd", "coupled")}
        self.ref_dir.mkdir(parents=True, exist_ok=True)
        for name, src in files.items():
            data = src.read_bytes()
            if name.endswith(".gz"):
                data = gzip.compress(data, mtime=0)
            (self.ref_dir / name).write_bytes(data)
        shutil.rmtree(out, ignore_errors=True)
        return self.ref_dir


def compare_sweep(trials, summary, ref_trials, ref_summary) -> list[str]:
    """Statuses, success flags and failure rates exactly; relative errors within 1e-9."""
    problems = []
    if len(trials) != len(ref_trials):
        return [f"{len(trials)} trials, reference has {len(ref_trials)}"]
    keys = ("S", "trial_index", "optimizer_name", "solver_name", "seed_used", "status", "success")
    for r, ref in zip(trials, ref_trials):
        diff = [key for key in keys if r[key] != ref[key]]
        if diff or not _close(float(r["relative_error"]), float(ref["relative_error"]), REL_ERR_TOL):
            problems.append(f"trial differs from reference in {diff or ['relative_error']}: {r} vs {ref}")
            if len(problems) >= 5:
                break
    cells = [(c["optimizer_name"], c["solver_name"], c["S"], c["trial_count"], c["failure_rate"]) for c in summary]
    ref_cells = [(c["optimizer_name"], c["solver_name"], c["S"], c["trial_count"], c["failure_rate"]) for c in ref_summary]
    if cells != ref_cells:
        problems.append("per-cell failure rates differ from the reference")
    return problems


def compare_learn(job, trace, ref_trace, x_energy, y_energy) -> list[str]:
    """Objective traces agree with the reference within TRACE_TOL of the signal energy."""
    if len(trace) != len(ref_trace):
        return [f"{job}: {len(trace)} trace rows, reference has {len(ref_trace)}"]
    columns = {"objective": x_energy} if job == "ksvd" else {"term1": x_energy, "term2": y_energy}
    for row, ref in zip(trace, ref_trace):
        for col, energy in columns.items():
            if not _close(float(row[col]), float(ref[col]), TRACE_TOL * energy):
                return [f"{job}: {col} at iter {row['iter']} is {row[col]}, reference {ref[col]}"]
    return []
