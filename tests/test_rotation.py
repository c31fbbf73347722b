"""OMP's outcomes do not move when every arm's projection is rotated.

Replacing P with ``Q @ P`` for an orthogonal Q leaves the effective
dictionary's Gram, and so every correlation OMP selects atoms by,
unchanged up to rounding.  On the certificate slice of acceptance test
06's sweep (S=2,3, N=100), every OMP status and success must stay as it
is, and every relative error must agree within 1e-9.  Basis pursuit is
not checked here: its interior-point solver stops at a point that
rounding can move, and each of these rotations flips at least one of its
statuses.
"""

import numpy as np
import pytest

from incoproj import harness, run_sweep
from incoproj.harness import load_dictionary

from test_bp_certificate import desk_slice

CFG = desk_slice((2, 3), 100, solver="omp")


@pytest.fixture(scope="module")
def designs():
    """Each arm's projection, designed once, and the sweep that runs with them."""
    D = load_dictionary(CFG.dictionary_source, CFG.n, CFG.k)
    P = {arm.name: harness.arm_projection(arm, D, CFG.m) for arm in CFG.optimizers}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "arm_projection", lambda arm, D, m: P[arm.name])
        return P, run_sweep(CFG)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_omp_outcomes_survive_a_rotated_projection(monkeypatch, designs, seed):
    P, sweep = designs
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((CFG.m, CFG.m)))
    monkeypatch.setattr(harness, "arm_projection", lambda arm, D, m: Q @ P[arm.name])
    rotated = run_sweep(CFG)

    assert len(rotated.cells) == len(sweep.cells) == 8
    assert all(0 < cell.failure_rate < 1 for cell in sweep.cells)  # both outcomes occur
    for cell, turned in zip(sweep.cells, rotated.cells):
        label = (cell.optimizer_name, cell.S)
        assert (turned.optimizer_name, turned.S) == label
        assert turned.status == cell.status, label
        assert np.array_equal(turned.success, cell.success), label
        np.testing.assert_allclose(turned.relative_error, cell.relative_error, rtol=0, atol=1e-9, err_msg=str(label))
