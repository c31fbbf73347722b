"""Basis pursuit succeeds exactly on the trials whose planted support has a dual certificate.

The slice is the first 100 trials of the S=2 and S=3 cells of acceptance
test 06's sweep, rebuilt by ``run_sweep`` with the same seeds: a cell draws
its trials in order from its own seed, so a smaller N gives a prefix of the
same trials.  The certificate comes from ``oracles.certificate_value``, an
LP that does not involve basis pursuit's own solver.
"""

import numpy as np

from incoproj import Arm, ExperimentConfig, normalize_columns, run_sweep, synthesize_signals
from incoproj.harness import arm_projection, load_dictionary

from oracles import certificate_value

# (arm, S, trial) where the interior-point LP stops at its iteration cap
# (status max_iter) although a certificate exists; an exact l1 solver
# recovers all three.
IPM_MAX_ITER = {("elad", 3, 94), ("sapiro", 2, 12), ("sapiro", 3, 91)}


def test_bp_success_matches_certificate_on_desk_slice():
    arms = (
        Arm("none"),
        Arm("elad", dict(mode="relative", percent=26.0, gamma=0.6, iterations=50, seed=7)),
        Arm("sapiro", dict(seed=7)),
        Arm("altproj", dict(t=0.3, iterations=300, seed=7)),
    )
    cfg = ExperimentConfig(
        n=50, k=100, m=12, S_range=(2, 3), N=100, dictionary_source="gaussian:1",
        optimizers=arms, solver="bp", master_seed=1,
    )
    sweep = run_sweep(cfg)
    D = load_dictionary(cfg.dictionary_source, (cfg.n, cfg.k))

    disagree, values = {}, []
    for arm in cfg.optimizers:
        Dn = normalize_columns(arm_projection(arm, D, cfg.m) @ D)
        for cell in (c for c in sweep.cells if c.optimizer_name == arm.name):
            pairs = synthesize_signals(D, cell.S, cfg.N, np.random.default_rng(cell.seed_used))
            for i, (theta, _) in enumerate(pairs):
                value = certificate_value(Dn, theta)
                values.append(value)
                if bool(cell.success[i]) != (value < 1.0):
                    disagree[(arm.name, cell.S, i)] = (value, cell.status[i])

    assert min(values) < 1.0 < max(values)
    assert set(disagree) <= IPM_MAX_ITER, disagree
    assert all(status == "max_iter" and value < 1.0 for value, status in disagree.values())
