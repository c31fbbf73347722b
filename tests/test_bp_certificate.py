"""Basis pursuit succeeds exactly on the trials whose planted support has a dual certificate.

The trials are cells of acceptance test 06's sweep, rebuilt by
``run_sweep`` with the same seeds: a cell draws its trials in order from
its own seed, so a smaller N gives a prefix of the same trials.  The
certificate comes from ``oracles.certificate_value``, an LP that does not
involve basis pursuit's own solver.
"""

import numpy as np

from incoproj import Arm, ExperimentConfig, normalize_columns, run_sweep, synthesize_signals
from incoproj.harness import arm_projection, load_dictionary

from oracles import certificate_value

# (arm, S, trial) where the interior-point LP stops at its iteration cap
# (status max_iter) although a certificate exists; an exact l1 solver
# recovers all three.
IPM_MAX_ITER = {("elad", 3, 94), ("sapiro", 2, 12), ("sapiro", 3, 91)}


def desk_slice(S_range, N, solver="bp"):
    """Acceptance test 06's sweep, with its four arms, at ``S_range`` and ``N`` trials."""
    arms = (
        Arm("none"),
        Arm("elad", dict(mode="relative", percent=26.0, gamma=0.6, iterations=50, seed=7)),
        Arm("sapiro", dict(seed=7)),
        Arm("altproj", dict(t=0.3, iterations=300, seed=7)),
    )
    return ExperimentConfig(
        n=50, k=100, m=12, S_range=S_range, N=N, dictionary_source="gaussian:1",
        optimizers=arms, solver=solver, master_seed=1,
    )


def certified_cells(S_range, N):
    """Yield (arm name, BP cell, certificate value per trial) for test 06's sweep at ``S_range``."""
    cfg = desk_slice(S_range, N)
    sweep = run_sweep(cfg)
    D = load_dictionary(cfg.dictionary_source, cfg.n, cfg.k)
    for arm in cfg.optimizers:
        Dn = normalize_columns(arm_projection(arm, D, cfg.m) @ D)
        for cell in (c for c in sweep.cells if c.optimizer_name == arm.name):
            pairs = synthesize_signals(D, cell.S, cfg.N, np.random.default_rng(cell.seed_used))
            yield arm.name, cell, np.array([certificate_value(Dn, theta) for theta, _ in pairs])


def test_bp_success_matches_certificate_on_desk_slice():
    # The first 100 trials of the S=2 and S=3 cells.
    disagree, values = {}, []
    for name, cell, cell_values in certified_cells((2, 3), 100):
        values.extend(cell_values)
        for i, value in enumerate(cell_values):
            if bool(cell.success[i]) != (value < 1.0):
                disagree[(name, cell.S, i)] = (value, cell.status[i])

    assert min(values) < 1.0 < max(values)
    assert set(disagree) <= IPM_MAX_ITER, disagree
    assert all(status == "max_iter" and value < 1.0 for value, status in disagree.values())


def test_bp_excess_over_random_at_s4_is_the_missing_certificates():
    # 06b's largest excesses are at S=4.  There BP fails on exactly the
    # planted supports without a certificate, so the optimized arms fail
    # more often than the random arm because of their designs, not the solver.
    rate = {}
    for name, cell, values in certified_cells((4,), 300):
        assert np.array_equal(cell.success, values < 1.0), name
        rate[name] = float(np.mean(values >= 1.0))
    assert rate["elad"] > rate["none"] + 0.02 and rate["altproj"] > rate["none"] + 0.02, rate
    assert rate["sapiro"] > rate["none"], rate
