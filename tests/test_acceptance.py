"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single PASS/FAIL line with
the measured numbers (visible with -s / -rA; pytest -v shows the verdict per
test either way).  Known-unattainable guarantees are asserted anyway and left
red on purpose with the evidence in the failure message — they are findings,
not bugs to paper over.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from incoproj import (
    basis_pursuit,
    gram,
    ksvd,
    mutual_coherence,
    normalize_columns,
    omp,
)
from incoproj.altproj import altproj_optimize, project_convex
from incoproj.elad import elad_optimize, shrink_elad
from incoproj.sapiro import sapiro_optimize
from incoproj.harness import ExperimentConfig, run_sweep
from incoproj.optimizers import Arm
from incoproj.cli import main

from oracles import exhaustive_sparsest
from synthetic import gaussian_dictionary, incoherent_frame, planted_signals


def verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. uniqueness + recovery guarantee, 200 instances
# ---------------------------------------------------------------------------


def test_01_sparse_uniqueness_and_recovery():
    counterexamples = []
    for s in range(200):
        rng = np.random.default_rng(20_000 + s)
        if s % 2 == 0:
            Dhat = normalize_columns(rng.standard_normal((10, 20)))
        else:
            # constructed low-coherence frame: admits S = 2 under the bound
            Dhat = incoherent_frame(10, 20, 20_000 + s)
        mu, _ = mutual_coherence(gram(Dhat))
        bound = 0.5 * (1.0 + 1.0 / mu)
        S = 1
        while S + 1 < bound:
            S += 1
        support = rng.choice(20, size=S, replace=False)
        values = rng.standard_normal(S)
        values += np.sign(values) * 0.1
        theta = np.zeros(20)
        theta[support] = values
        y = Dhat @ theta
        norm_theta = np.linalg.norm(theta)

        try:
            theta_hat, _, unique = exhaustive_sparsest(Dhat, y, S, 1e-8 * np.linalg.norm(y))
            ok = unique and sorted(np.flatnonzero(theta_hat).tolist()) == sorted(
                support.tolist()
            )
            for solver in (lambda: omp(Dhat, y, S), lambda: basis_pursuit(Dhat, y)):
                res = solver()
                err = np.linalg.norm(res.theta_hat - theta) / norm_theta
                ok = ok and err <= 1e-6
        except Exception as exc:  # noqa: BLE001 - a counterexample, not a crash
            ok = False
        if not ok:
            counterexamples.append(s)

    ok = verdict(
        "1 uniqueness/recovery theorem",
        not counterexamples,
        f"200 instances (S chosen under the coherence bound), "
        f"counterexamples={counterexamples!r}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. shrinkage / clip hand values
# ---------------------------------------------------------------------------


def test_02_shrinkage_hand_values():
    checks = []
    # three shrink branches at t = 0.5, gamma = 0.6 (same-arithmetic exact)
    checks.append(shrink_elad(0.8, 0.5, 0.6) == 0.6 * 0.8)
    checks.append(abs(shrink_elad(0.8, 0.5, 0.6) - 0.48) < 1e-15)
    checks.append(shrink_elad(-0.4, 0.5, 0.6) == -0.3)
    checks.append(shrink_elad(0.2, 0.5, 0.6) == 0.2)

    # both clip clauses at the benchmark threshold
    G = np.array([[1.0, 0.9], [0.9, 1.0]])
    assert project_convex(G, 0.26)[0, 1] == 0.26
    G[0, 1] = G[1, 0] = -0.9
    checks.append(project_convex(G, 0.26)[0, 1] == -0.26)
    Gd = np.array([[0.5, 0.1], [0.1, 2.0]])
    Pd = project_convex(Gd, 0.9)
    checks.append(Pd[0, 0] == 1.0 and Pd[1, 1] == 2.0)
    checks.append(np.array_equal(project_convex(np.eye(3), 0.1), np.eye(3)))

    # the comparison points: clip maps 0.8 -> 0.5, shrink maps 0.8 -> 0.48
    G[0, 1] = G[1, 0] = 0.8
    checks.append(project_convex(G, 0.5)[0, 1] == 0.5)
    checks.append(shrink_elad(0.8, 0.5, 0.6) == pytest.approx(0.48, abs=1e-15))
    checks.append(shrink_elad(0.9, 0.5, 0.6) > 0.5)  # shrink can overshoot t

    ok = verdict(
        "2 shrink/clip hand values",
        all(checks),
        f"{sum(checks)}/{len(checks)} pointwise identities hold",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. alternating projections feasibility at full scale
# ---------------------------------------------------------------------------


def test_03_altproj_feasibility_full_scale():
    finals = []
    for s in range(3):
        D = np.random.default_rng(100 + s).standard_normal((200, 400))
        _, trace = altproj_optimize(D, 30, t=0.26, iterations=1000, seed=s)
        finals.append(float(trace.max_offdiag[-1]))
    ok = verdict(
        "3 altproj feasibility (200x400, m=30, t=0.26)",
        all(f <= 0.31 for f in finals),
        f"final max off-diagonals {[round(f, 4) for f in finals]} vs cap 0.31",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. spectral optimizer: zero-error orthonormal case + monotone trace
# ---------------------------------------------------------------------------


def test_04_spectral_zero_error_and_monotone():
    worst_obj = 0.0
    for n, seed in ((4, 0), (16, 1), (50, 2)):
        Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        _, trace = sapiro_optimize(Q, n, seed)
        worst_obj = max(worst_obj, float(trace.objective[-1]))

    violations = 0
    for s in range(100):
        D = np.random.default_rng(10_000 + s).standard_normal((20, 40))
        _, trace = sapiro_optimize(D, 8, s)
        if np.any(np.diff(trace.objective) > 1e-10 * max(1.0, float(trace.objective[0]))):
            violations += 1

    ok = verdict(
        "4 spectral zero-error + monotone",
        worst_obj <= 1e-8 and violations == 0,
        f"worst orthonormal objective {worst_obj:.3e} (cap 1e-8); "
        f"non-monotone traces {violations}/100",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. shrinkage optimizer improves mu_t; aggressive targets leave big entries
# ---------------------------------------------------------------------------


def test_05_shrinkage_improvement():
    modes = {
        "fixed": dict(mode="fixed", t=0.3),
        "relative": dict(mode="relative", percent=26.0),
    }
    failures = []
    for name, mode in modes.items():
        for s in range(20):
            D = gaussian_dictionary(8, 16, 500 + s)
            _, trace = elad_optimize(D, 4, **mode, gamma=0.6, iterations=50, seed=s)
            first, last = float(trace.mu_t[0]), float(trace.mu_t[-1])
            if not (np.isfinite(first) and np.isfinite(last) and last <= first):
                failures.append((name, s))

    # aggressive target: the final Gram keeps at least one entry above t
    # on at least one seed
    overshoot_seeds = 0
    for s in range(20):
        D = gaussian_dictionary(8, 16, 500 + s)
        P, _ = elad_optimize(D, 4, mode="fixed", t=0.1, gamma=0.6, iterations=50, seed=s)
        if mutual_coherence(gram(P @ D))[0] > 0.1:
            overshoot_seeds += 1

    ok = verdict(
        "5 shrinkage improves mu_t",
        not failures and overshoot_seeds >= 1,
        f"final<=first failures {failures!r} over 2 modes x 20 seeds; "
        f"aggressive t=0.1 leaves entries above t on {overshoot_seeds}/20 seeds",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. desk-scale benchmark ordering, paired seeds, both solvers
# ---------------------------------------------------------------------------

DESK_ARMS = ("elad", "sapiro", "altproj")


@pytest.fixture(scope="module")
def desk_sweep():
    arms = (
        Arm("none"),
        Arm("elad", dict(mode="relative", percent=26.0, gamma=0.6, iterations=50, seed=7)),
        Arm("sapiro", dict(seed=7)),
        Arm("altproj", dict(t=0.3, iterations=300, seed=7)),
    )
    cfg = ExperimentConfig(
        n=50,
        k=100,
        m=12,
        S_range=tuple(range(1, 7)),
        N=300,
        dictionary_source="gaussian:1",
        optimizers=arms,
        solver="both",
        master_seed=1,
    )
    return run_sweep(cfg)


def ordering_violations(summary, solver: str) -> dict[str, list[tuple[int, float]]]:
    """Cells where an optimized arm's failure rate exceeds the random arm's.

    The shipped tolerance: per arm, at most one sparsity level may exceed,
    and only by <= 2 percentage points.
    """
    base = summary.failure_curve("none", solver)
    out = {}
    for arm in DESK_ARMS:
        curve = summary.failure_curve(arm, solver)
        over = [
            (S, round(curve[S] - base[S], 4))
            for S in sorted(base)
            if curve[S] > base[S] + 1e-12
        ]
        if len(over) > 1 or any(d > 0.02 + 1e-12 for _, d in over):
            out[arm] = over
    return out


def test_06a_benchmark_ordering_omp(desk_sweep):
    bad = ordering_violations(desk_sweep, "omp")
    # the optimized arms must also beat random outright somewhere mid-range
    base = desk_sweep.failure_curve("none", "omp")
    strictly_better = all(
        any(desk_sweep.failure_curve(arm, "omp")[S] < base[S] for S in (2, 3, 4, 5))
        for arm in DESK_ARMS
    )
    ok = verdict(
        "6a desk-scale ordering (OMP)",
        not bad and strictly_better,
        f"violations {bad!r}; strictly better somewhere mid-range: {strictly_better}",
    )
    assert ok


def test_06b_benchmark_ordering_bp(desk_sweep):
    bad = ordering_violations(desk_sweep, "bp")
    ok = verdict(
        "6b desk-scale ordering (BP)",
        not bad,
        f"violations {bad!r} (arm -> [(S, excess over random arm)])",
    )
    # Known red: on all 15 dictionary/master seeds tried and several
    # shrinkage budgets, at least one optimized arm exceeds the random
    # baseline at 2+ sparsity levels or by > 2 points under l1 recovery
    # (whereas the matching OMP check passes on 14 of those 15 seeds).
    # All but 6 of the 4,090 failing BP solves are certified-converged
    # LPs (those 6 end at the LP iteration cap, status max_iter), i.e. the
    # l1 minimizer genuinely moves away from the planted support when the
    # optimizers compress the Gram spectrum at this aggressive
    # undersampling (12 rows for 100 atoms).  OMP enjoys the coherence
    # reduction; BP does not.
    assert ok


# ---------------------------------------------------------------------------
# 7. dictionary learning: planted recovery + atom recovery round trip
# ---------------------------------------------------------------------------


def test_07_ksvd_planted_recovery():
    passes = 0
    finals = []
    for s in range(10):
        D_true = incoherent_frame(8, 16, 1000 + s, iters=400)
        _, X = planted_signals(D_true, 2, 400, seed=2000 + s)
        _, _, trace = ksvd(X, 16, 2, iterations=50, seed=s)
        final = float(trace.objective[-1])
        finals.append(final)
        if final <= 1e-6 * float(np.sum(X * X)):
            passes += 1

    # stacked-atom recovery round trip
    rng = np.random.default_rng(3000)
    lam = 0.5
    P = rng.standard_normal((8, 20))
    d = rng.standard_normal(20)
    W = np.vstack([lam * np.eye(20), P])
    M = lam * lam * np.eye(20) + P.T @ P
    round_trip_err = float(np.max(np.abs(np.linalg.solve(M, W.T @ (W @ d)) - d)))

    ok = verdict(
        "7 planted dictionary recovery",
        passes >= 6 and round_trip_err <= 1e-9,
        f"{passes}/10 seeds reach 1e-6 relative fit "
        f"(finals {[f'{f:.1e}' for f in finals]}); round-trip err {round_trip_err:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. CLI determinism
# ---------------------------------------------------------------------------

BENCH_CONFIG = """
n = 8
k = 16
m = 4
S_range = 1-2
N = 5
dictionary_source = gaussian:3
optimizers = none, elad
solver = both
elad.iterations = 5
master_seed = 1
"""


def test_08_cli_determinism(tmp_path):
    identical = []

    for rep in ("a", "b"):
        out = tmp_path / f"design_{rep}"
        rc = main(
            [
                "design", "--method", "altproj", "--n", "10", "--k", "20",
                "--dict-seed", "4", "--m", "5", "--t", "0.4",
                "--iterations", "40", "--out-dir", str(out),
            ]
        )
        assert rc == 0
    for name in ("projection.csv", "trace.csv", "gram_hist.csv"):
        identical.append(
            (tmp_path / "design_a" / name).read_bytes()
            == (tmp_path / "design_b" / name).read_bytes()
        )

    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text(BENCH_CONFIG)
    for rep in ("a", "b"):
        out = tmp_path / f"bench_{rep}"
        assert main(["bench", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    for name in ("trials.csv", "summary.csv", "gram_hist_none.csv",
                 "gram_hist_elad.csv", "config.echo"):
        identical.append(
            (tmp_path / "bench_a" / name).read_bytes()
            == (tmp_path / "bench_b" / name).read_bytes()
        )

    ok = verdict(
        "8 CLI determinism",
        all(identical),
        f"{sum(identical)}/{len(identical)} artifacts byte-identical across reruns",
    )
    assert ok
