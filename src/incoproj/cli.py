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
from .linalg import gram, set_blas_threads
from .matrixio import read_matrix, write_histogram, write_matrix
from .optimizers import OPTIMIZERS, Arm, design

PAPER_SCALE = dict(n=200, k=400, m=30, N=10000, S_range=tuple(range(1, 11)))


def _arm(name: str, args, **flags) -> Arm:
    """Arm for optimizer ``name`` from the shared flags plus ``flags``, keeping only its keys."""
    values = dict(mode=args.mode, t=args.t, percent=args.percent, gamma=args.gamma, **flags)
    keys = [key.name for key in OPTIMIZERS[name].keys]
    return Arm(name, {key: values[key] for key in keys if key in values})


def _cmd_design(args) -> int:
    if args.dict:
        D = load_dictionary(f"file:{args.dict}")
    elif args.n is None or args.k is None:
        raise ConfigError("provide --dict FILE or both --n and --k")
    else:
        seed = args.dict_seed if args.dict_seed is not None else derive_seed(0, "cli-dictionary")
        D = load_dictionary(f"gaussian:{seed}", (args.n, args.k))
    os.makedirs(args.out_dir, exist_ok=True)
    arm = _arm(args.method, args, iterations=args.iterations, seed=args.seed)
    P, trace = design(arm, D, args.m)
    trace.to_csv(os.path.join(args.out_dir, "trace.csv"))

    write_matrix(os.path.join(args.out_dir, "projection.csv"), P)
    G = gram(P @ D)
    mu, _ = mutual_coherence(G)
    try:
        mu_t = repr(t_average_coherence(G, args.t))
    except EmptyAverage:
        mu_t = "n/a"
    write_histogram(os.path.join(args.out_dir, "gram_hist.csv"), offdiag_histogram(G, args.bins))
    print(f"method={args.method} mu={mu!r} mu_t[{args.t!r}]={mu_t}")
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
    os.makedirs(args.out_dir, exist_ok=True)
    write_matrix(os.path.join(args.out_dir, "dictionary.csv"), D)
    write_matrix(os.path.join(args.out_dir, "coefficients.csv"), Theta)
    trace.to_csv(os.path.join(args.out_dir, "trace.csv"))
    print(f"ksvd final objective = {float(trace.objective[-1])!r}")
    return 0


def _cmd_coupled(args) -> int:
    X = read_matrix(args.signals)
    Y = read_matrix(args.measurements)
    flags = dict(iterations=args.inner_iterations, seed=args.inner_seed)
    if args.inner == "fixed":
        if not args.proj:
            raise ConfigError("--inner fixed requires --proj FILE")
        flags["P"] = read_matrix(args.proj)
    inner = _arm(args.inner, args, **flags)

    P, D, Theta, trace = coupled_ksvd(
        X, Y, args.atoms, args.sparsity, args.outer, args.seed, lam=args.lam, inner=inner
    )
    os.makedirs(args.out_dir, exist_ok=True)
    write_matrix(os.path.join(args.out_dir, "projection.csv"), P)
    write_matrix(os.path.join(args.out_dir, "dictionary.csv"), D)
    write_matrix(os.path.join(args.out_dir, "coefficients.csv"), Theta)
    trace.to_csv(os.path.join(args.out_dir, "trace.csv"))
    print(f"coupled final terms = {float(trace.term1[-1])!r}, {float(trace.term2[-1])!r}")
    return 0


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    """The elad/altproj flags that ``design`` and ``coupled`` share."""
    p.add_argument("--mode", choices=["fixed", "relative"], default="relative")
    p.add_argument("--t", type=float, default=0.26, help="threshold (fixed mode / altproj)")
    p.add_argument("--percent", type=float, default=26.0, help="relative-mode percentile")
    p.add_argument("--gamma", type=float, default=0.6)


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
    p.add_argument("--n", type=int, help="rows of a generated Gaussian dictionary")
    p.add_argument("--k", type=int, help="columns of a generated Gaussian dictionary")
    p.add_argument("--dict-seed", type=int, default=None)
    p.add_argument("--m", type=int, required=True, help="projection rows")
    _add_optimizer_flags(p)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("bench", help="run a benchmark sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--paper-scale",
        action="store_true",
        help="override sizes to n=200 k=400 m=30 N=10000 S=1..10 (hours of runtime)",
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
    p.add_argument("--inner-seed", type=int, default=0)
    p.add_argument("--inner-iterations", type=int, default=50)
    _add_optimizer_flags(p)
    p.add_argument("--proj", help="projection matrix CSV for --inner fixed")
    p.set_defaults(func=_cmd_coupled)
    p.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    if "OPENBLAS_NUM_THREADS" not in os.environ:
        set_blas_threads(1)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IncoprojError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
