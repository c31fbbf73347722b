import numpy as np
import pytest
from numpy.testing import assert_allclose

from incoproj import (
    Dictionary,
    normalize_columns,
    sapiro_objective,
    sapiro_optimize,
    spectral_state,
)
from incoproj.errors import DegenerateSpectrum

from synthetic import gaussian_dictionary


class TestSpectralState:
    def test_decomposition_invariants(self):
        for seed in range(5):
            D = Dictionary(gaussian_dictionary(10, 25, seed))
            st = spectral_state(D, m=4, seed=seed)
            A = np.asarray(D)
            assert_allclose(st.V @ np.diag(st.lambdas) @ st.V.T, A @ A.T, atol=1e-8)
            assert_allclose(st.V.T @ st.V, np.eye(10), atol=1e-10)
            assert np.all(np.diff(st.lambdas) <= 1e-12)
            assert np.all(st.lambdas >= 0.0)
            assert st.gamma.shape == (4, 10)

    def test_rank_deficiency_counted(self):
        # rank-3 dictionary in R^6: three exact zero eigenvalues
        rng = np.random.default_rng(0)
        B = rng.standard_normal((6, 3))
        C = rng.standard_normal((3, 9))
        D = Dictionary(normalize_columns(B @ C))
        st = spectral_state(D, m=2, seed=0)
        assert st.r == 3
        assert np.all(st.lambdas[-3:] == 0.0)

    def test_degenerate_spectrum_raises(self):
        # columns clear the zero-norm gate but the spectrum is numerically flat
        tiny = np.full((4, 6), 5e-8)
        with pytest.raises(DegenerateSpectrum):
            spectral_state(Dictionary(tiny), m=2, seed=0)


class TestObjective:
    def test_zero_at_exact_solution(self):
        # orthonormal D with m = n: lambdas all 1, Gamma orthonormal gives 0
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        D = Dictionary(Q)
        P, trace = sapiro_optimize(D, m=8, seed=0)
        st = spectral_state(D, m=8, seed=0)
        val = sapiro_objective(st.lambdas, np.asarray(P) @ st.V)
        assert val <= 1e-20

    def test_accepts_diagonal_matrix_form(self):
        rng = np.random.default_rng(2)
        lam = np.abs(rng.standard_normal(6)) + 0.1
        G = rng.standard_normal((3, 6))
        a = sapiro_objective(lam, G)
        b = sapiro_objective(np.diag(lam), G)
        assert_allclose(a, b, atol=0)

    def test_manual_small_case(self):
        # lambdas (2, 1), Gamma = I2: residual is lam - lam^2 on the diagonal
        lam = np.array([2.0, 1.0])
        G = np.eye(2)
        # R = diag(lam) - diag(lam) G^T G diag(lam) -> diag(2-4, 1-1)
        assert_allclose(sapiro_objective(lam, G), 4.0, atol=1e-14)


class TestOptimize:
    def test_projection_shape_and_determinism(self):
        D = Dictionary(gaussian_dictionary(12, 30, 3))
        P1, t1 = sapiro_optimize(D, m=5, seed=9)
        P2, t2 = sapiro_optimize(D, m=5, seed=9)
        assert np.asarray(P1).shape == (5, 12)
        assert np.asarray(P1).tobytes() == np.asarray(P2).tobytes()
        assert_allclose(t1.objective, t2.objective, atol=0)

    def test_trace_nonincreasing(self):
        """Each rank-one update eliminates the largest remaining error term."""
        for seed in range(20):
            D = Dictionary(gaussian_dictionary(15, 30, 100 + seed))
            _, trace = sapiro_optimize(D, m=6, seed=seed)
            assert len(trace) == 6
            assert np.all(np.diff(trace.objective) <= 1e-9 * max(trace.objective[0], 1.0))

    def test_trace_matches_objective_at_exit(self):
        D = Dictionary(gaussian_dictionary(9, 14, 4))
        P, trace = sapiro_optimize(D, m=3, seed=5)
        st = spectral_state(D, m=3, seed=5)
        val = sapiro_objective(st.lambdas, np.asarray(P) @ st.V)
        assert_allclose(val, trace.objective[-1], rtol=1e-10, atol=1e-12)

    def test_m_larger_than_n_rejected(self):
        D = Dictionary(gaussian_dictionary(6, 10, 5))
        with pytest.raises(ValueError):
            sapiro_optimize(D, m=7, seed=0)
