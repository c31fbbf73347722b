
import numpy as np
import pytest
from numpy.testing import assert_allclose

from incoproj import gram, t_average_coherence
from incoproj.elad import elad_optimize, shrink_elad

from synthetic import gaussian_dictionary


class TestShrink:
    def test_branch_values(self):
        # the three regimes at t=0.5, gamma=0.6
        assert shrink_elad(0.8, 0.5, 0.6) == 0.6 * 0.8
        assert shrink_elad(-0.4, 0.5, 0.6) == -0.3
        assert shrink_elad(0.2, 0.5, 0.6) == 0.2

    def test_odd(self):
        g = np.linspace(-1, 1, 101)
        s = shrink_elad(g, 0.4, 0.55)
        assert_allclose(s, -shrink_elad(-g, 0.4, 0.55), atol=0)

    def test_monotone_nondecreasing(self):
        g = np.linspace(-1, 1, 2001)
        s = shrink_elad(g, 0.3, 0.7)
        assert np.all(np.diff(s) >= -1e-15)

    def test_never_amplifies(self):
        rng = np.random.default_rng(0)
        g = rng.uniform(-1, 1, 500)
        for t in (0.2, 0.5, 0.9):
            s = shrink_elad(g, t, 0.6)
            assert np.all(np.abs(s) <= np.abs(g) + 1e-15)

    def test_boundary_continuity_points(self):
        # |g| = t maps to gamma*g == gamma*t*sign(g): both branches agree
        assert shrink_elad(0.5, 0.5, 0.6) == pytest.approx(0.3)
        # |g| = gamma*t: middle branch gives gamma*t*sign, identity gives g
        assert shrink_elad(0.3, 0.5, 0.6) == pytest.approx(0.3)


class TestOptimize:
    def test_smoke_single_iteration(self):
        D = gaussian_dictionary(8, 16, 0)
        P, trace = elad_optimize(D, 4, mode="fixed", t=0.5, gamma=0.6, iterations=1, seed=0)
        assert np.asarray(P).shape == (4, 8)
        assert np.all(np.isfinite(np.asarray(P)))
        assert len(trace) == 1

    def test_trace_lengths_and_fields(self):
        D = gaussian_dictionary(8, 16, 1)
        _, trace = elad_optimize(D, 4, mode="fixed", t=0.4, gamma=0.6, iterations=7, seed=3)
        assert len(trace.mu_t) == len(trace.mu) == len(trace.threshold) == 7
        assert np.all(trace.mu <= 1.0 + 1e-12)
        assert np.all(trace.threshold == 0.4)

    def test_improves_t_average_on_seeded_instance(self):
        """Golden check: 50 iterations beat iteration 1 on the 8x16, m=4 case."""
        D = gaussian_dictionary(8, 16, 500)
        P, trace = elad_optimize(D, 4, mode="fixed", t=0.5, gamma=0.6, iterations=50, seed=1)
        assert trace.mu_t[-1] <= trace.mu_t[0]
        # goldens recorded from the first run of this configuration
        assert_allclose(trace.mu_t[0], 0.731803742123, rtol=1e-9)
        assert_allclose(trace.mu_t[-1], 0.692139375840, rtol=1e-9)
        # final trace row is consistent with a fresh measurement
        assert_allclose(t_average_coherence(gram(P @ D), 0.5), trace.mu_t[-1], atol=1e-12)

    def test_relative_mode_runs_and_thresholds_vary(self):
        D = gaussian_dictionary(10, 20, 2)
        _, trace = elad_optimize(
            D, 5, mode="relative", percent=25.0, gamma=0.6, iterations=12, seed=1
        )
        assert len(np.unique(trace.threshold)) > 1
        assert np.all(trace.threshold >= 0.0)

    def test_relative_mode_with_one_pair_shrinks_at_its_magnitude(self):
        # k = 2 has one pair, so every order statistic runs off the end and
        # the threshold falls back to that pair's magnitude
        D = gaussian_dictionary(4, 2, 3)
        _, trace = elad_optimize(D, 2, mode="relative", percent=30.0, gamma=0.6, iterations=2, seed=5)
        P0 = np.random.default_rng(5).standard_normal((2, 4))  # elad's starting P for seed 5
        assert trace.threshold[0] == abs(gram(P0 @ D)[0, 1])

    def test_seed_determinism(self):
        D = gaussian_dictionary(9, 18, 4)
        params = dict(mode="fixed", t=0.3, gamma=0.7, iterations=10, seed=42)
        P1, t1 = elad_optimize(D, 4, **params)
        P2, t2 = elad_optimize(D, 4, **params)
        assert np.asarray(P1).tobytes() == np.asarray(P2).tobytes()
        assert t1.mu_t.tobytes() == t2.mu_t.tobytes()

    def test_trace_csv_layout(self, tmp_path):
        D = gaussian_dictionary(8, 16, 6)
        _, trace = elad_optimize(D, 4, mode="fixed", t=0.4, gamma=0.6, iterations=3, seed=2)
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,mu_t,mu,threshold"
        assert len(lines) == 4
        assert lines[1].startswith("0,")
        assert lines[3].startswith("2,")
