import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg.lapack import dpotrf

from incoproj import (
    RecoveryStatus,
    basis_pursuit,
    gram,
    mutual_coherence,
    normalize_columns,
    omp,
)
from incoproj import lp, pursuit
from incoproj.lp import solve_standard_lp
from incoproj.errors import ZeroColumn

from oracles import NotFound, TooLarge, exhaustive_sparsest, reference_omp

from synthetic import gaussian_dictionary, incoherent_frame, planted_signals


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

    def test_singular_normal_matrix_factors_after_jitter(self):
        # a rank-one PSD matrix has no plain Cholesky factor; the jitter gives one
        v = np.array([1.0, 2.0, 3.0])
        M = np.outer(v, v)
        assert dpotrf(M, lower=1, clean=0)[1] != 0
        x = lp._chol_solve_factory(M)(v)
        assert np.all(np.isfinite(x))
        assert_allclose(M @ x, v, rtol=1e-6)

    @pytest.mark.parametrize(
        "M, message",
        [(-np.eye(3), "not factorizable even with jitter"), (np.diag([1.0, np.nan, 1.0]), "non-finite")],
    )
    def test_unfactorizable_normal_matrix_rejected(self, M, message):
        with pytest.raises(np.linalg.LinAlgError, match=message):
            lp._chol_solve_factory(M)


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

    def test_stops_when_the_residual_is_orthogonal_to_every_unused_column(self):
        # after e1, the residual e3 has no component along e2: one atom, budget unspent
        D = np.eye(3)[:, :2]
        res = omp(D, np.array([1.0, 0.0, 1.0]), 2)
        assert res.status is RecoveryStatus.MAX_ITER
        assert res.iterations_or_pivots == 1
        assert np.array_equal(res.theta_hat, [1.0, 0.0])

    def test_zero_column_rejected(self):
        D = np.ones((4, 3))
        D[:, 2] = 0.0
        for y in (np.ones(4), np.ones((4, 2))):
            with pytest.raises(ZeroColumn, match=r"column 2 has zero norm \(effective dictionary\)"):
                omp(D, y, 1)

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


    @staticmethod
    def block_instance(m, k, seed, unit):
        """A seeded m x k dictionary and a block whose first half is planted 3-sparse
        and second half random, then a zero column and a 1-sparse column."""
        rng = np.random.default_rng(seed)
        D = rng.standard_normal((m, k))
        D = normalize_columns(D) if unit else D * rng.uniform(0.2, 5.0, k)
        Y = rng.standard_normal((m, 40))
        _, Y[:, :20] = planted_signals(D, 3, 20, seed)
        Y[:, 38] = 0.0
        Y[:, 39] = 2.5 * D[:, 5]
        return D, Y

    @staticmethod
    def assert_block_matches_vectors(D, Y, S):
        """Every column of the block solve is the reference vector solve of that column,
        and a vector is solved as the one-column block that holds it."""
        block = omp(D, Y, S)
        singles = [reference_omp(D, y, S) for y in Y.T]
        assert block.theta_hat.shape == (D.shape[1], Y.shape[1])
        for i, single in enumerate(singles):
            col = block.theta_hat[:, i]
            assert np.flatnonzero(col).tolist() == np.flatnonzero(single.theta_hat).tolist()
            assert np.linalg.norm(col - single.theta_hat) <= 1e-12 * np.linalg.norm(single.theta_hat)
            vector, one = omp(D, Y[:, i], S), omp(D, Y[:, [i]], S)
            assert one.status is single.status
            assert vector.theta_hat.tobytes() == one.theta_hat[:, 0].tobytes()
            assert vector.iterations_or_pivots == one.iterations_or_pivots
            assert vector.status is one.status
        assert block.iterations_or_pivots == sum(r.iterations_or_pivots for r in singles)
        all_converged = all(r.status is RecoveryStatus.CONVERGED for r in singles)
        assert (block.status is RecoveryStatus.CONVERGED) == all_converged
        return singles

    @pytest.mark.parametrize(
        "m, k, unit, S", [(20, 40, True, 3), (28, 40, False, 3), (12, 100, True, 4), (12, 100, True, 0)]
    )
    def test_block_matches_vector_path(self, m, k, unit, S):
        D, Y = self.block_instance(m, k, m * k, unit)
        singles = self.assert_block_matches_vectors(D, Y, S)
        zero, one_sparse = singles[38], singles[39]
        assert zero.status is RecoveryStatus.CONVERGED and zero.iterations_or_pivots == 0
        if S:
            # stops at the residual tolerance before spending all S atoms
            assert one_sparse.status is RecoveryStatus.CONVERGED and one_sparse.iterations_or_pivots == 1
        else:
            assert all(r.status is RecoveryStatus.MAX_ITER for r in singles[:38] + [one_sparse])

    @pytest.mark.parametrize("m, k", [(20, 40), (28, 12)])
    def test_budget_above_the_atom_count_is_the_atom_count(self, m, k):
        # a block sizes its buffers by the budget, which a support cannot outgrow
        D, Y = self.block_instance(m, k, m * k, True)
        for y in (Y, Y[:, 0]):
            huge, full = omp(D, y, 10**6), omp(D, y, k)
            assert huge.theta_hat.tobytes() == full.theta_hat.tobytes()
            assert huge.iterations_or_pivots == full.iterations_or_pivots
            assert huge.status is full.status

    def test_block_tie_breaks_to_smallest_index(self):
        D, Y = self.block_instance(20, 40, 9, True)
        D[:, 33] = D[:, 4]
        Y[:, :20] += 3.0 * D[:, [4]]  # atom 4 and its copy 33 tie in every planted column
        self.assert_block_matches_vectors(D, Y, 3)
        Theta = omp(D, Y, 3).theta_hat
        assert np.all(Theta[4, :20] != 0.0) and not np.any(Theta[33])

    def test_block_rejects_what_the_vector_path_rejects(self):
        D = gaussian_dictionary(4, 6, 3)
        nonfinite = np.ones((4, 3))
        nonfinite[2, 1] = np.nan
        for Y, S, message in ((nonfinite, 2, "measurement contains non-finite"),
                              (np.ones((5, 3)), 2, "measurement length does not match matrix rows"),
                              (np.ones((4, 3)), -1, "sparsity budget must be >= 0")):
            for y in (Y, Y[:, 1]):
                with pytest.raises(ValueError, match=message):
                    omp(D, y, S)


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
        theta_hat, _, unique = exhaustive_sparsest(D, y, 2, 1e-8 * np.linalg.norm(y))
        assert np.flatnonzero(theta_hat).tolist() == [4, 9]
        assert unique is True
        assert_allclose(theta_hat, theta, atol=1e-9)

    def test_smaller_support_wins(self):
        D = gaussian_dictionary(6, 10, 14)
        theta = np.zeros(10)
        theta[2] = 1.0
        y = D @ theta
        theta_hat, _, _ = exhaustive_sparsest(D, y, 3, 1e-8)
        assert np.count_nonzero(theta_hat) == 1

    def test_duplicate_columns_break_uniqueness(self):
        v = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        D = np.stack([v, v, w], axis=1)
        _, _, unique = exhaustive_sparsest(D, v.copy(), 1, 1e-10)
        assert unique is False

    def test_zero_signal(self):
        D = gaussian_dictionary(4, 8, 15)
        theta_hat, _, unique = exhaustive_sparsest(D, np.zeros(4), 2, 1e-10)
        assert np.count_nonzero(theta_hat) == 0
        assert unique is True

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="^S_max must be >= 0$"):
            exhaustive_sparsest(gaussian_dictionary(4, 8, 15), np.ones(4), -1, 1e-8)

    def test_combinatorial_guard(self):
        D = gaussian_dictionary(10, 60, 16)
        with pytest.raises(TooLarge):
            exhaustive_sparsest(D, np.ones(10), 6, 1e-8)

    def test_not_found_reported(self):
        rng = np.random.default_rng(17)
        D = gaussian_dictionary(8, 12, 17)
        y = rng.standard_normal(8)  # dense target, no 1-sparse fit
        with pytest.raises(NotFound):
            exhaustive_sparsest(D, y, 1, 1e-10)
