import numpy as np
import pytest
from numpy.testing import assert_allclose

from incoproj import (
    RecoveryStatus,
    basis_pursuit,
    exhaustive_sparsest,
    gram,
    mutual_coherence,
    normalize_columns,
    omp,
    solve_standard_lp,
)
from incoproj import lp, pursuit
from incoproj.errors import TooLarge, ZeroColumn

from synthetic import gaussian_dictionary, incoherent_frame


class TestLP:
    def test_known_optimum(self):
        # min -x1 - 2 x2 s.t. x1 + s1 = 1, x2 + s2 = 1 -> optimum at (1, 1)
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        b = np.array([1.0, 1.0])
        res = solve_standard_lp(c, A, b)
        assert res.converged
        assert_allclose(res.x[:2], [1.0, 1.0], atol=1e-8)
        assert_allclose(float(c @ res.x), -3.0, atol=1e-8)

    def test_duality_certificates(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            # construct a primal-dual pair with known strictly feasible data
            m, n = 4, 9
            A = rng.standard_normal((m, n))
            x_feas = np.abs(rng.standard_normal(n)) + 0.5
            b = A @ x_feas
            lam = rng.standard_normal(m)
            s = np.abs(rng.standard_normal(n)) + 0.5
            c = A.T @ lam + s  # dual feasible by construction
            res = solve_standard_lp(c, A, b)
            assert res.converged
            # primal residual and dual feasibility, from x and lam alone
            assert np.linalg.norm(A @ res.x - b) / (1.0 + np.linalg.norm(b)) <= 1e-8
            assert np.all(c - A.T @ res.lam >= -1e-8 * (1.0 + np.linalg.norm(c)))
            # weak duality sanity: c@x >= b@lam for any dual feasible lam
            assert float(c @ res.x) >= float(b @ lam) - 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 8))
        x0 = np.abs(rng.standard_normal(8))
        b = A @ x0
        c = np.abs(rng.standard_normal(8))
        r1 = solve_standard_lp(c, A, b)
        r2 = solve_standard_lp(c, A, b)
        assert r1.x.tobytes() == r2.x.tobytes()
        assert r1.iterations == r2.iterations

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_standard_lp(np.ones(3), np.ones((2, 4)), np.ones(2))

    def test_stopping_rule_leaves_room_for_the_bp_certificate(self):
        # basis_pursuit certifies at LP_TOL; the solver stops well inside it
        assert lp.TOL <= 0.01 * pursuit.LP_TOL


class TestOMP:
    def test_exact_on_orthonormal_basis(self):
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        theta = np.zeros(10)
        theta[[2, 7, 4]] = [3.0, -1.0, 0.25]
        y = Q @ theta
        res = omp(Q, y, 3)
        assert res.status is RecoveryStatus.CONVERGED
        assert_allclose(res.theta_hat, theta, atol=1e-10)
        assert res.iterations_or_pivots == 3

    def test_recovery_under_coherence_bound(self):
        # mu < 1/3 guarantees exact recovery of any 2-sparse signal
        D = incoherent_frame(8, 16, 42)
        mu, _ = mutual_coherence(gram(D))
        assert mu < 1 / 3
        rng = np.random.default_rng(3)
        for trial in range(25):
            sup = rng.choice(16, 2, replace=False)
            theta = np.zeros(16)
            theta[sup] = rng.standard_normal(2) + np.sign(rng.standard_normal(2)) * 0.1
            res = omp(D, D @ theta, 2)
            assert set(np.flatnonzero(res.theta_hat).tolist()) == set(sup.tolist())
            assert_allclose(res.theta_hat, theta, atol=1e-9)

    def test_residual_tolerance_controls_early_exit(self):
        D = gaussian_dictionary(6, 10, 4)
        theta = np.zeros(10)
        theta[3] = 2.0
        y = D @ theta
        res = omp(D, y, 5)  # allowed more atoms than needed
        assert res.status is RecoveryStatus.CONVERGED
        assert res.iterations_or_pivots == 1  # stops after the exact hit

    def test_max_iter_status_when_budget_too_small(self):
        rng = np.random.default_rng(5)
        D = gaussian_dictionary(8, 20, 5)
        y = rng.standard_normal(8)  # generic dense target
        res = omp(D, y, 2)
        assert res.status is RecoveryStatus.MAX_ITER
        assert np.linalg.norm(y - D @ res.theta_hat) > 1e-9 * np.linalg.norm(y)

    def test_zero_column_rejected(self):
        D = np.ones((4, 3))
        D[:, 2] = 0.0
        with pytest.raises(ZeroColumn, match=r"column 2 has zero norm \(effective dictionary\)"):
            omp(D, np.ones(4), 1)

    def test_nonfinite_measurement_rejected(self):
        D = gaussian_dictionary(4, 6, 3)
        for solve in (lambda y: omp(D, y, 2), lambda y: basis_pursuit(D, y),
                      lambda y: exhaustive_sparsest(D, y, 1, 1e-8)):
            with pytest.raises(ValueError, match="measurement contains non-finite"):
                solve(np.array([1.0, np.nan, 0.0, 0.0]))

    def test_tie_breaks_to_smallest_index(self):
        # duplicated atom: correlations tie exactly; index 0 must win
        v = np.array([1.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0])
        D = np.stack([v, v, w], axis=1)
        res = omp(D, v.copy(), 1)
        assert np.flatnonzero(res.theta_hat).tolist() == [0]


class TestBasisPursuit:
    def test_recovers_one_sparse(self):
        D = gaussian_dictionary(10, 20, 6)
        theta = np.zeros(20)
        theta[11] = -2.5
        res = basis_pursuit(D, D @ theta)
        assert res.status is RecoveryStatus.CONVERGED
        assert_allclose(res.theta_hat, theta, atol=1e-7)

    def test_recovers_two_sparse_incoherent(self):
        D = incoherent_frame(8, 16, 7)
        rng = np.random.default_rng(8)
        for trial in range(10):
            sup = rng.choice(16, 2, replace=False)
            theta = np.zeros(16)
            vals = rng.standard_normal(2)
            theta[sup] = vals + np.sign(vals) * 0.1
            res = basis_pursuit(D, D @ theta)
            assert res.status is RecoveryStatus.CONVERGED
            assert_allclose(res.theta_hat, theta, atol=1e-6)

    def test_l1_never_beats_planted_feasible_point(self):
        # planted theta is feasible, so the certified optimum's l1 norm
        # cannot exceed it (up to tolerance)
        rng = np.random.default_rng(9)
        for seed in range(5):
            D = gaussian_dictionary(9, 18, 60 + seed)
            sup = rng.choice(18, 3, replace=False)
            theta = np.zeros(18)
            theta[sup] = rng.standard_normal(3)
            res = basis_pursuit(D, D @ theta)
            if res.status is RecoveryStatus.CONVERGED:
                assert np.abs(res.theta_hat).sum() <= np.abs(theta).sum() + 1e-6

    def test_zero_measurement_shortcut(self):
        D = gaussian_dictionary(5, 9, 10)
        res = basis_pursuit(D, np.zeros(5))
        assert res.status is RecoveryStatus.CONVERGED
        assert np.count_nonzero(res.theta_hat) == 0
        assert np.linalg.norm(D @ res.theta_hat) == 0.0

    def test_infeasible_detected(self):
        # y orthogonal to the span of a rank-deficient dictionary
        D = np.zeros((4, 6))
        D[:2] = np.random.default_rng(11).standard_normal((2, 6))
        y = np.array([0.0, 0.0, 1.0, 0.0])
        res = basis_pursuit(D, y)
        assert res.status is RecoveryStatus.INFEASIBLE

    def test_feasibility_of_returned_point(self):
        D = gaussian_dictionary(7, 14, 12)
        theta = np.zeros(14)
        theta[[1, 8]] = [1.0, -1.0]
        y = D @ theta
        res = basis_pursuit(D, y)
        assert np.linalg.norm(D @ res.theta_hat - y) <= 1e-6 * np.linalg.norm(y)


class TestExhaustive:
    def test_finds_planted_support_and_uniqueness(self):
        D = incoherent_frame(8, 16, 13)
        theta = np.zeros(16)
        theta[[4, 9]] = [1.0, -0.5]
        y = D @ theta
        res = exhaustive_sparsest(D, y, 2, 1e-8 * np.linalg.norm(y))
        assert np.flatnonzero(res.theta_hat).tolist() == [4, 9]
        assert res.unique is True
        assert_allclose(res.theta_hat, theta, atol=1e-9)

    def test_smaller_support_wins(self):
        D = gaussian_dictionary(6, 10, 14)
        theta = np.zeros(10)
        theta[2] = 1.0
        y = D @ theta
        res = exhaustive_sparsest(D, y, 3, 1e-8)
        assert np.count_nonzero(res.theta_hat) == 1

    def test_duplicate_columns_break_uniqueness(self):
        v = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        D = np.stack([v, v, w], axis=1)
        res = exhaustive_sparsest(D, v.copy(), 1, 1e-10)
        assert res.unique is False

    def test_zero_signal(self):
        D = gaussian_dictionary(4, 8, 15)
        res = exhaustive_sparsest(D, np.zeros(4), 2, 1e-10)
        assert np.count_nonzero(res.theta_hat) == 0
        assert res.unique is True

    def test_combinatorial_guard(self):
        D = gaussian_dictionary(10, 60, 16)
        with pytest.raises(TooLarge):
            exhaustive_sparsest(D, np.ones(10), 6, 1e-8)

    def test_not_found_reported(self):
        from incoproj.errors import NotFound

        rng = np.random.default_rng(17)
        D = gaussian_dictionary(8, 12, 17)
        y = rng.standard_normal(8)  # dense target, no 1-sparse fit
        with pytest.raises(NotFound):
            exhaustive_sparsest(D, y, 1, 1e-10)
