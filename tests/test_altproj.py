import numpy as np
import pytest
from numpy.testing import assert_allclose

from incoproj import Trace, gram, normalize_columns
from incoproj.altproj import (
    altproj_optimize,
    normalize_gram,
    project_convex,
    project_rank,
    recover_projection,
)
from incoproj.errors import DegenerateDiagonal

from synthetic import gaussian_dictionary


class TestConvexProjection:
    def test_clips_large_entries(self):
        G = np.array([[1.0, 0.8, -0.6], [0.8, 1.0, 0.1], [-0.6, 0.1, 1.0]])
        H = project_convex(G, 0.5)
        assert H[0, 1] == 0.5
        assert H[0, 2] == -0.5
        assert H[1, 2] == 0.1  # below threshold untouched

    def test_diagonal_floored_at_one(self):
        G = np.diag([0.2, 1.5, 1.0])
        H = project_convex(G, 0.5)
        assert_allclose(np.diag(H), [1.0, 1.5, 1.0], atol=0)

    def test_idempotent_on_feasible(self):
        rng = np.random.default_rng(0)
        G = gram(normalize_columns(rng.standard_normal((6, 9))))
        t = 0.99
        H = project_convex(G, t)
        assert_allclose(project_convex(H, t), H, atol=0)


class TestRankProjection:
    def test_produces_rank_m_psd(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((10, 10))
        G = (A + A.T) / 2
        H = project_rank(G, 3)
        w = np.linalg.eigvalsh(H)
        assert np.sum(w > 1e-10) <= 3
        assert w.min() >= -1e-10


class TestNormalizeGram:
    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((4, 8))
        G = B.T @ B + np.eye(8)  # SPD with varying diagonal
        H = normalize_gram(G)
        assert np.all(np.diag(H) == 1.0)
        # off-diagonals rescaled by the corresponding norms
        d = np.sqrt(np.diag(G))
        assert_allclose(H, G / np.outer(d, d), atol=1e-12)

    def test_degenerate_diagonal_raises(self):
        G = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(DegenerateDiagonal):
            normalize_gram(G)


class TestRecoverProjection:
    def test_round_trip_for_realizable_gram(self):
        # build a Gram that IS of the form (PD)^T (PD) and recover P
        rng = np.random.default_rng(3)
        D = gaussian_dictionary(8, 14, 3)
        P_true = rng.standard_normal((4, 8))
        Dhat = P_true @ D
        G = Dhat.T @ Dhat
        P = recover_projection(G, D, 4)
        H = (P @ D).T @ (P @ D)
        assert_allclose(H, G, atol=1e-8)


class TestOptimize:
    def test_trace_and_output_shapes(self):
        D = gaussian_dictionary(10, 20, 5)
        P, trace = altproj_optimize(D, 5, t=0.4, iterations=30, seed=0)
        assert np.asarray(P).shape == (5, 10)
        assert isinstance(trace, Trace)
        assert len(trace.max_offdiag) == len(trace.mu_t) == 30
        assert np.all(np.isfinite(trace.max_offdiag))

    def test_feasibility_reached_small_instance(self):
        """With a loose threshold the iteration lands inside the constraint set."""
        D = gaussian_dictionary(12, 16, 6)
        _, trace = altproj_optimize(D, 8, t=0.55, iterations=400, seed=1)
        assert trace.max_offdiag[-1] <= 0.55 + 0.05

    def test_deterministic(self):
        D = gaussian_dictionary(9, 15, 7)
        params = dict(t=0.4, iterations=25, seed=3)
        P1, t1 = altproj_optimize(D, 4, **params)
        P2, t2 = altproj_optimize(D, 4, **params)
        assert np.asarray(P1).tobytes() == np.asarray(P2).tobytes()
        assert t1.max_offdiag.tobytes() == t2.max_offdiag.tobytes()

    def test_trace_csv_layout(self, tmp_path):
        D = gaussian_dictionary(8, 12, 9)
        _, trace = altproj_optimize(D, 4, t=0.5, iterations=4, seed=2)
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,max_offdiag,mu_t"
        assert len(lines) == 5
