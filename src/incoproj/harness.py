"""Benchmark harness: synthesize sparse signals, run projection arms
through the pursuit solvers, aggregate success/error statistics.

The protocol per arm: obtain P (random Gaussian, or one of the three
optimizers run on D), form the effective dictionary P @ D, re-normalize
its columns, then for every sparsity level S and trial recover the
planted coefficients from y = P x.  Each (arm, S) cell re-draws its
level's signals from a seed derived off the master seed and S, so every
arm sees the same planted (theta, x) pairs — a paired comparison.
"""

import hashlib
import math
import os
import time
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, field, fields
from itertools import groupby

import numpy as np

from .coherence import offdiag_histogram
from .errors import ConfigError
from .linalg import as_dictionary, as_matrix, column_norms, gram
from .matrixio import read_matrix, write_csv, write_histogram
from .optimizers import Arm, Key, check_size, design, lookup
from .pursuit import basis_pursuit, omp

TRIALS_HEADER = [
    "S",
    "trial_index",
    "optimizer_name",
    "solver_name",
    "relative_error",
    "success",
    "seed_used",
    "status",
]
SUMMARY_HEADER = [
    "optimizer_name",
    "solver_name",
    "S",
    "mean_relative_error",
    "failure_rate",
    "trial_count",
]


def derive_seed(master_seed: int, *tags) -> int:
    """Stable 64-bit seed from the master seed and a tag tuple (not hash())."""
    payload = repr((int(master_seed),) + tuple(tags)).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


# The optimizers a sweep may run (coupled learning also has "fixed").
SWEEP_OPTIMIZERS = ("none", "elad", "sapiro", "altproj")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One sweep.  Its fields, in order, are the config file's base keys.

    Construction normalizes and checks every value, as ``Arm`` does its
    params, and a bad one raises ``ConfigError``: each scalar field is parsed
    by a ``Key`` of its annotated type and its ``metadata`` (bounds or choices),
    ``dictionary_source`` (``gaussian``, ``gaussian:<seed>`` or ``file:<path>``)
    takes its canonical form, and unset seeds (a bare ``gaussian`` source, an
    arm's ``seed``) are derived from ``master_seed``.
    """

    n: int
    k: int = field(metadata={"bounds": (1, math.inf)})
    m: int
    S_range: tuple[int, ...]
    N: int = field(metadata={"bounds": (0, math.inf)})
    dictionary_source: str = "gaussian"
    optimizers: tuple[Arm, ...]
    solver: str = field(default="both", metadata={"choices": ("omp", "bp", "both")})
    failure_threshold: float = field(default=1e-4, metadata={"bounds": (0, math.inf)})
    master_seed: int = 0

    def __post_init__(self):
        # f.type is the type itself, not its text, as long as this module
        # does not postpone the evaluation of annotations.
        for f in fields(self):
            if f.type in (int, float, str):
                value = Key(f.name, f.type, **f.metadata).parse(getattr(self, f.name), f.name)
                object.__setattr__(self, f.name, value)
        # A string iterates by character, so "12" would read as levels 1 and 2.
        if isinstance(self.S_range, (str, bytes)) or not isinstance(self.S_range, Iterable):
            raise ConfigError(f"key 'S_range': expected a sequence of integers, got {self.S_range!r}")
        # Each level as a Python int: derive_seed hashes the repr of its tags.
        object.__setattr__(self, "S_range", tuple(Key("S_range", int).parse(S, "S_range") for S in self.S_range))
        names = [arm.name for arm in self.optimizers]
        if not names:
            raise ConfigError("at least one optimizer arm required")
        if len(set(names)) != len(names):
            raise ConfigError("optimizer arm names must be unique")
        for name in names:
            lookup(name, SWEEP_OPTIMIZERS)
            try:
                check_size(name, self.n, self.k, self.m)
            except ValueError as exc:
                raise ConfigError(f"{name} arm: {exc}") from None
        if not self.S_range:
            raise ConfigError("S_range must be nonempty")
        if any(not 0 <= S < self.m or S > self.k for S in self.S_range):
            raise ConfigError(f"every S must satisfy 0 <= S < m={self.m} and S <= k={self.k}")
        if len(set(self.S_range)) != len(self.S_range):
            raise ConfigError(f"S_range {self.S_range} repeats a level")
        object.__setattr__(self, "dictionary_source", self._resolved_source())
        arms = tuple(
            Arm(arm.name, {**arm.params, "seed": derive_seed(self.master_seed, "arm", arm.name)})
            if "seed" in arm.params and arm.params["seed"] is None
            else arm
            for arm in self.optimizers
        )
        object.__setattr__(self, "optimizers", arms)

    def _resolved_source(self) -> str:
        if "#" in self.dictionary_source:
            raise ConfigError(
                f"dictionary_source {self.dictionary_source!r} contains '#', "
                "which starts a config comment"
            )
        kind, colon, arg = self.dictionary_source.partition(":")
        if kind == "file" and arg:
            return self.dictionary_source
        if kind == "gaussian" and not colon:
            return f"gaussian:{derive_seed(self.master_seed, 'dictionary')}"
        if kind == "gaussian" and arg.strip().isdecimal():
            return f"gaussian:{int(arg)}"
        raise ConfigError(
            f"dictionary_source {self.dictionary_source!r} not 'gaussian[:seed]' or 'file:path'"
        )

    @property
    def solvers(self) -> tuple[str, ...]:
        return ("omp", "bp") if self.solver == "both" else (self.solver,)


@dataclass(frozen=True, eq=False)
class Cell:
    """One (arm, solver, S) cell: its N paired trials as columns, in trial order, and
    ``solve_s``, the wall-clock seconds its solves took, the one field reruns change."""

    optimizer_name: str
    solver_name: str
    S: int
    seed_used: int
    relative_error: np.ndarray
    success: np.ndarray
    status: tuple[str, ...]
    solve_s: float = 0.0

    @property
    def trial_count(self) -> int:
        return len(self.relative_error)

    @property
    def mean_relative_error(self) -> float:
        return float(np.mean(self.relative_error))

    @property
    def failure_rate(self) -> float:
        return float(np.mean(~self.success))


@dataclass(frozen=True, eq=False)
class Sweep:
    """Every (arm, solver, S) cell in run order, plus per-arm effective-Gram histograms."""

    cells: tuple[Cell, ...]
    arm_histograms: dict[str, list[tuple[float, int]]]
    config_echo: str

    def failure_curve(self, optimizer_name: str, solver_name: str) -> dict[int, float]:
        return {
            c.S: c.failure_rate
            for c in self.cells
            if c.optimizer_name == optimizer_name and c.solver_name == solver_name
        }

    def trial_rows(self):
        """The rows of trials.csv: per (arm, S) block, trial by trial, each solver in turn."""
        for _, block in groupby(self.cells, key=lambda c: (c.optimizer_name, c.S)):
            block = list(block)
            for i in range(block[0].trial_count):
                for c in block:
                    yield (
                        c.S,
                        i,
                        c.optimizer_name,
                        c.solver_name,
                        c.relative_error[i],
                        c.success[i],
                        c.seed_used,
                        c.status[i],
                    )


def load_dictionary(source: str, n: int | None = None, k: int | None = None) -> np.ndarray:
    """The dictionary a ``gaussian:<seed>`` or ``file:<path>`` source names.

    A Gaussian source draws an n x k matrix from its seed; a file source
    must have each of ``n`` rows and ``k`` columns that is given.
    """
    kind, _, arg = source.partition(":")
    if kind == "gaussian":
        return as_dictionary(np.random.default_rng(int(arg)).standard_normal((n, k)))
    data = read_matrix(arg)
    expected = tuple(size if given is None else given for size, given in zip(data.shape, (n, k)))
    if data.shape != expected:
        raise ConfigError(f"dictionary file {arg} has shape {data.shape}, expected {expected}")
    return as_dictionary(data)


def arm_projection(arm: Arm, D, m: int) -> np.ndarray:
    """Materialize the m-row projection matrix for one benchmark arm."""
    return design(arm, D, m)[0]


def synthesize_signals(D, S: int, N: int, rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """N planted pairs (theta, x = D @ theta) with exactly S Gaussian nonzeros each."""
    Dd = as_matrix(D, "dictionary")
    k = Dd.shape[1]
    if S > k:
        raise ValueError(f"S={S} exceeds atom count k={k}")
    out = []
    for _ in range(N):
        theta = np.zeros(k)
        if S > 0:
            support = rng.choice(k, size=S, replace=False)
            theta[support] = rng.standard_normal(S)
        out.append((theta, Dd @ theta))
    return out


def run_sweep(cfg: ExperimentConfig) -> Sweep:
    """Run every (arm, S, trial, solver) combination, one (arm, S) cell at a time.

    Identical master seeds give identical planted signals in every arm, and
    the whole sweep is deterministic.  A trial whose solve raises any
    exception fails (status ``error:<Name>``, infinite relative error)
    instead of aborting the sweep; so does every trial of an arm whose
    projection cannot be built, and that arm gets an empty histogram.
    """
    D = load_dictionary(cfg.dictionary_source, cfg.n, cfg.k)

    cells: list[Cell] = []
    histograms: dict[str, list[tuple[float, int]]] = {}
    for arm in cfg.optimizers:
        try:
            P = arm_projection(arm, D, cfg.m)
            Dhat = P @ D
            norms = column_norms(Dhat, "effective dictionary")
            histograms[arm.name], built = offdiag_histogram(gram(Dhat), 50), (P, Dhat / norms, norms)
        except Exception as exc:
            histograms[arm.name], built = [], exc
        for S in cfg.S_range:
            cells += _cell(cfg, arm.name, D, built, S)

    return Sweep(tuple(cells), histograms, config_echo(cfg))


def _cell(cfg: ExperimentConfig, name: str, D, built, S: int) -> list[Cell]:
    """Arm ``name``'s cells at level S, one per solver; ``built`` is the arm's
    ``(P, Dn, norms)``, or the exception that failed it and so every trial."""
    seed = derive_seed(cfg.master_seed, "signals", S)
    if isinstance(built, Exception):
        error, status = _failed(built)
        return [Cell(name, solver, S, seed, np.full(cfg.N, error), np.zeros(cfg.N, bool), (status,) * cfg.N)
                for solver in cfg.solvers]
    P, Dn, norms = built
    outcomes = [[] for _ in cfg.solvers]  # [solver][trial]
    solve_s = [0.0] * len(cfg.solvers)
    for theta, x in synthesize_signals(D, S, cfg.N, np.random.default_rng(seed)):
        y, denom = P @ x, float(np.linalg.norm(theta))
        for j, solver_name in enumerate(cfg.solvers):
            start = time.perf_counter()
            try:
                res = omp(Dn, y, S) if solver_name == "omp" else basis_pursuit(Dn, y)
                theta_hat = res.theta_hat / norms
                rel_err = (float(np.linalg.norm(theta_hat - theta)) / denom if denom > 0.0
                           else 0.0 if not np.any(theta_hat) else math.inf)
                outcomes[j].append((rel_err, res.status.value))
            except Exception as exc:
                outcomes[j].append(_failed(exc))
            solve_s[j] += time.perf_counter() - start
    return [Cell(name, solver, S, seed, errors := np.array([e for e, _ in column]),
                 errors <= cfg.failure_threshold, tuple(s for _, s in column), seconds)
            for solver, column, seconds in zip(cfg.solvers, outcomes, solve_s)]


def _failed(exc: Exception) -> tuple[float, str]:
    """The (relative error, status) of every trial that a raised ``exc`` fails."""
    return math.inf, f"error:{type(exc).__name__}"


def config_echo(cfg: ExperimentConfig) -> str:
    """Render the configuration as flat key = value text: its fields, then its arms' keys."""
    values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    values["S_range"] = ",".join(map(str, cfg.S_range))
    values["optimizers"] = ",".join(arm.name for arm in cfg.optimizers)
    for arm in cfg.optimizers:
        values.update((f"{arm.name}.{key}", value) for key, value in arm.params.items())
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def emit_reports(sweep: Sweep, out_dir) -> list[str]:
    """Write trials.csv, summary.csv, per-arm Gram histograms, and config.echo."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "trials.csv")
    write_csv(path, TRIALS_HEADER, sweep.trial_rows())
    written.append(path)

    path = os.path.join(out_dir, "summary.csv")
    rows = (tuple(getattr(c, name) for name in SUMMARY_HEADER) for c in sweep.cells)
    write_csv(path, SUMMARY_HEADER, rows)
    written.append(path)

    for arm_name, hist in sweep.arm_histograms.items():
        path = os.path.join(out_dir, f"gram_hist_{arm_name}.csv")
        write_histogram(path, hist)
        written.append(path)

    path = os.path.join(out_dir, "config.echo")
    with open(path, "w", newline="\n") as fh:
        fh.write(sweep.config_echo)
    written.append(path)
    return written


# ---------------------------------------------------------------------------
# Flat key = value configuration files
# ---------------------------------------------------------------------------

def _parse_s_range(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if "-" in text and "," not in text:
            lo, hi = text.split("-", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"S_range {text!r} is not 'lo-hi' or a comma list") from None


def _build_arm(name: str, kv: dict) -> Arm:
    prefix = f"{lookup(name, SWEEP_OPTIMIZERS).name}."
    return Arm(name, {key[len(prefix):]: value for key, value in kv.items() if key.startswith(prefix)})


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` configuration text (# comments allowed)."""
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kv[key] = value

    base = fields(ExperimentConfig)
    for f in base:
        if f.default is MISSING and f.name not in kv:
            raise ConfigError(f"missing required key {f.name!r}")

    # Scalar values stay text: ExperimentConfig parses them.
    values = {f.name: kv[f.name] for f in base if f.name in kv}
    values["S_range"] = _parse_s_range(values["S_range"])
    arm_names = [tok.strip() for tok in values["optimizers"].split(",") if tok.strip()]
    values["optimizers"] = tuple(_build_arm(name, kv) for name in arm_names)
    # Each arm rejects its own unread keys; a key of no listed arm is unknown.
    # So the echo of every config that loads gives every key back.
    prefixes = tuple(f"{name}." for name in arm_names)
    unknown = {key for key in set(kv) - {f.name for f in base} if not key.startswith(prefixes)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
