"""Command-line interface.

Subcommands: ``design`` (run one projection optimizer), ``bench`` (full
benchmark sweep from a config file), ``hist`` (Gram histogram), ``ksvd``
and ``coupled`` (dictionary learning).  Every output is a deterministic
CSV: running a command twice with the same inputs produces byte-identical
files.
"""

from __future__ import annotations

import argparse
import os
import sys

from .coherence import mutual_coherence, offdiag_histogram, t_average_coherence
from .dictlearn import coupled_ksvd, ksvd
from .errors import ConfigError, EmptyAverage, IncoprojError
from .harness import derive_seed, emit_reports, load_config, load_dictionary, run_sweep
from .linalg import gram, retain_freed_memory, set_blas_threads
from .matrixio import Trace, read_matrix, write_histogram, write_matrix
from .optimizers import DEFAULT_T, OPTIMIZERS, SEED, Arm, design

PAPER_SCALE = dict(n=200, k=400, m=30, N=10000, S_range=tuple(range(1, 11)))


def _arm(name: str, args, **flags) -> Arm:
    """Arm ``name`` from the shared flags that were set plus ``flags``; it rejects one it does not read.

    An unset ``iterations`` or ``seed`` that it reads takes the CLI default, 50 or 0.
    """
    keys = {key.name for key in OPTIMIZERS[name].keys}
    values = {key: value for key, value in dict(iterations=50, seed=0).items() if key in keys}
    given = {**{flag: getattr(args, flag) for flag in ("mode", "t", "percent", "gamma")}, **flags}
    return Arm(name, {**values, **{key: value for key, value in given.items() if value is not None}})


def _write(out_dir: str, trace: Trace, **matrices) -> None:
    """Write a job's outputs to ``out_dir``: each matrix as ``<name>.csv``, then ``trace.csv``."""
    os.makedirs(out_dir, exist_ok=True)
    for name, M in matrices.items():
        write_matrix(os.path.join(out_dir, f"{name}.csv"), M)
    trace.to_csv(os.path.join(out_dir, "trace.csv"))


def _cmd_design(args) -> int:
    if args.dict:
        if args.dict_seed is not None:
            raise ConfigError("--dict-seed draws a generated dictionary; it cannot be set with --dict")
        D = load_dictionary(f"file:{args.dict}", args.n, args.k)
    elif args.n is None or args.k is None:
        raise ConfigError("provide --dict FILE or both --n and --k")
    else:
        seed = derive_seed(0, "cli-dictionary") if args.dict_seed is None else args.dict_seed
        D = load_dictionary(f"gaussian:{SEED.parse(seed, '--dict-seed')}", args.n, args.k)
    arm = _arm(args.method, args, t=None, iterations=args.iterations, seed=args.seed)
    if args.t is not None and "t" in arm.params:  # else --t only sets the mu_t report
        arm = Arm(arm.name, {**arm.params, "t": args.t})
    P, trace = design(arm, D, args.m)
    G = gram(P @ D)
    mu, _ = mutual_coherence(G)
    t = DEFAULT_T if args.t is None else args.t
    try:
        mu_t = repr(t_average_coherence(G, t))
    except EmptyAverage:
        mu_t = "n/a"
    hist = offdiag_histogram(G, args.bins)
    # Everything that can fail runs before the first write.
    _write(args.out_dir, trace, projection=P)
    write_histogram(os.path.join(args.out_dir, "gram_hist.csv"), hist)
    print(f"method={args.method} mu={mu!r} mu_t[{t!r}]={mu_t}")
    return 0


def _cmd_bench(args) -> int:
    cfg = load_config(args.config)
    if args.paper_scale:
        from dataclasses import replace

        cfg = replace(cfg, **PAPER_SCALE)
    sweep = run_sweep(cfg)
    emit_reports(sweep, args.out_dir)
    print(f"wrote {sum(c.trial_count for c in sweep.cells)} trial records to {args.out_dir}")
    return 0


def _cmd_hist(args) -> int:
    M = read_matrix(args.dict)
    if args.proj:
        P = read_matrix(args.proj)
        if P.shape[1] != M.shape[0]:
            raise ConfigError(
                f"projection shape {P.shape} does not match dictionary shape {M.shape}"
            )
        M = P @ M
    write_histogram(args.out, offdiag_histogram(gram(M), args.bins))
    return 0


def _cmd_ksvd(args) -> int:
    X = read_matrix(args.signals)
    D, Theta, trace = ksvd(X, k=args.atoms, S=args.sparsity, iterations=args.iterations, seed=args.seed)
    _write(args.out_dir, trace, dictionary=D, coefficients=Theta)
    print(f"ksvd final objective = {float(trace.objective[-1])!r}")
    return 0


def _cmd_coupled(args) -> int:
    X = read_matrix(args.signals)
    Y = read_matrix(args.measurements)
    flags = dict(iterations=args.inner_iterations, seed=args.inner_seed)
    if args.proj:
        flags["P"] = read_matrix(args.proj)
    elif args.inner == "fixed":
        raise ConfigError("--inner fixed requires --proj FILE")
    inner = _arm(args.inner, args, **flags)

    P, D, Theta, trace = coupled_ksvd(
        X, Y, args.atoms, args.sparsity, args.outer, args.seed, lam=args.lam, inner=inner
    )
    _write(args.out_dir, trace, projection=P, dictionary=D, coefficients=Theta)
    print(f"coupled final terms = {float(trace.term1[-1])!r}, {float(trace.term2[-1])!r}")
    return 0


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    """The elad/altproj flags that ``design`` and ``coupled`` share; unset, each takes its registry default."""
    p.add_argument("--mode", choices=["fixed", "relative"], help="elad threshold mode")
    p.add_argument("--t", type=float, help=f"threshold (fixed mode / altproj; default {DEFAULT_T})")
    p.add_argument("--percent", type=float, help="relative-mode percentile")
    p.add_argument("--gamma", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incoproj",
        description="Design incoherent projections and benchmark sparse recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="run one projection optimizer on a dictionary")
    designers = [name for name in OPTIMIZERS if name not in ("none", "fixed")]
    p.add_argument("--method", required=True, choices=designers)
    p.add_argument("--dict", help="dictionary matrix CSV (no header)")
    p.add_argument("--n", type=int, help="rows of a generated Gaussian dictionary, or of the --dict file")
    p.add_argument("--k", type=int, help="columns of a generated Gaussian dictionary, or of the --dict file")
    p.add_argument("--dict-seed", type=int, default=None)
    p.add_argument("--m", type=int, required=True, help="projection rows")
    _add_optimizer_flags(p)
    p.add_argument("--iterations", type=int, help="optimizer iterations (default 50)")
    p.add_argument("--seed", type=int, help="optimizer seed (default 0)")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("bench", help="run a benchmark sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--paper-scale",
        action="store_true",
        help="override sizes to n=200 k=400 m=30 N=10000 S=1..10 "
        "(about 20-30 minutes at one BLAS thread, extrapolated; never run to the end)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("hist", help="Gram off-diagonal histogram of D or P @ D")
    p.add_argument("--dict", required=True)
    p.add_argument("--proj", help="optional projection matrix CSV")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hist)

    p = sub.add_parser("ksvd", help="learn a dictionary from training signals")
    p.add_argument("--signals", required=True, help="n x p training matrix CSV")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--sparsity", type=int, required=True)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_ksvd)

    p = sub.add_parser("coupled", help="jointly learn projection and dictionary")
    p.add_argument("--signals", required=True, help="n x p training matrix CSV")
    p.add_argument("--measurements", required=True, help="m x p measurement matrix CSV")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--sparsity", type=int, required=True)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--outer", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    inners = [name for name in OPTIMIZERS if name != "none"]
    p.add_argument("--inner", choices=inners, default="sapiro")
    p.add_argument("--inner-seed", type=int, help="inner optimizer seed (default 0)")
    p.add_argument("--inner-iterations", type=int, help="inner optimizer iterations (default 50)")
    _add_optimizer_flags(p)
    p.add_argument("--proj", help="projection matrix CSV for --inner fixed")
    p.set_defaults(func=_cmd_coupled)
    p.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    if "OPENBLAS_NUM_THREADS" not in os.environ:
        set_blas_threads(1)
    retain_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A job writes its outputs last; refuse an --out-dir at or below a file before any work.
        out_dir = existing = getattr(args, "out_dir", None)
        if out_dir == "":
            raise ConfigError("--out-dir is empty: name a directory")
        while existing and not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if existing and not os.path.isdir(existing):
            where = "exists" if existing == out_dir else f"lies below {existing}, which exists"
            raise ConfigError(f"--out-dir {out_dir} {where} and is not a directory")
        return args.func(args)
    except (IncoprojError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
