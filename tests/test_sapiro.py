import numpy as np
import pytest
from numpy.testing import assert_allclose

from incoproj import normalize_columns
from incoproj.sapiro import sapiro_objective, sapiro_optimize
from incoproj.errors import DegenerateSpectrum
from incoproj.linalg import top_eigh

from synthetic import gaussian_dictionary


def spectrum(D):
    """The clamped eigenvalues and eigenvectors of D Dᵀ that sapiro_optimize works in."""
    lam, V = top_eigh(D @ D.T, D.shape[0])
    return np.clip(lam, 0.0, None), V


class TestSpectralState:
    """The eigendecomposition and seeded start inside sapiro_optimize."""

    def test_rank_deficiency_counted(self):
        # rank-3 dictionary in R^6: three exact zero eigenvalues, whose
        # eigenvector components of P keep the seeded Gaussian draw
        rng = np.random.default_rng(0)
        B = rng.standard_normal((6, 3))
        C = rng.standard_normal((3, 9))
        D = normalize_columns(B @ C)
        _, V = spectrum(D)
        P, _ = sapiro_optimize(D, m=2, seed=0)
        P0 = np.random.default_rng(0).standard_normal((2, 6))
        null = V[:, -3:]
        assert_allclose(P @ null, P0 @ null, atol=1e-12)
        assert not np.allclose(P @ V[:, :3], P0 @ V[:, :3], atol=1e-6)

    def test_degenerate_spectrum_raises(self):
        # columns clear the zero-norm gate but the spectrum is numerically flat
        tiny = np.full((4, 6), 5e-8)
        with pytest.raises(DegenerateSpectrum):
            sapiro_optimize(tiny, m=2, seed=0)


class TestObjective:
    def test_zero_at_exact_solution(self):
        # orthonormal D with m = n: lambdas all 1, Gamma orthonormal gives 0
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        P, trace = sapiro_optimize(Q, m=8, seed=0)
        lam, V = spectrum(Q)
        val = sapiro_objective(lam, P @ V)
        assert val <= 1e-20

    def test_manual_small_case(self):
        # lambdas (2, 1), Gamma = I2: residual is lam - lam^2 on the diagonal
        lam = np.array([2.0, 1.0])
        G = np.eye(2)
        # R = diag(lam) - diag(lam) G^T G diag(lam) -> diag(2-4, 1-1)
        assert_allclose(sapiro_objective(lam, G), 4.0, atol=1e-14)


class TestOptimize:
    def test_projection_shape_and_determinism(self):
        D = gaussian_dictionary(12, 30, 3)
        P1, t1 = sapiro_optimize(D, m=5, seed=9)
        P2, t2 = sapiro_optimize(D, m=5, seed=9)
        assert np.asarray(P1).shape == (5, 12)
        assert np.asarray(P1).tobytes() == np.asarray(P2).tobytes()
        assert_allclose(t1.objective, t2.objective, atol=0)

    def test_trace_nonincreasing(self):
        """Each rank-one update eliminates the largest remaining error term."""
        for seed in range(20):
            D = gaussian_dictionary(15, 30, 100 + seed)
            _, trace = sapiro_optimize(D, m=6, seed=seed)
            assert len(trace) == 6
            assert np.all(np.diff(trace.objective) <= 1e-9 * max(trace.objective[0], 1.0))

    def test_trace_matches_objective_at_exit(self):
        D = gaussian_dictionary(9, 14, 4)
        P, trace = sapiro_optimize(D, m=3, seed=5)
        lam, V = spectrum(D)
        val = sapiro_objective(lam, P @ V)
        assert_allclose(val, trace.objective[-1], rtol=1e-10, atol=1e-12)
