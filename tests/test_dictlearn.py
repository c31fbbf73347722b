import numpy as np
import pytest
from numpy.testing import assert_allclose

from incoproj import Arm, coupled_ksvd, ksvd, normalize_columns, sparse_code
from incoproj import dictlearn
from incoproj.dictlearn import atom_update_sweep, purge_duplicate_atoms
from incoproj.errors import SingularSystem
from incoproj.linalg import top_eigh

from oracles import svd_atom_update_sweep
from synthetic import incoherent_frame, planted_signals


def sense(X, P, sigma, seed):
    """Measurements Y = P @ X + sigma * seeded Gaussian noise."""
    return P @ X + sigma * np.random.default_rng(seed).standard_normal((P.shape[0], X.shape[1]))


def make_training(n=20, k=40, m=8, p=200, S=3, sigma=0.01, seed=0):
    """A planted training pair (X, Y)."""
    rng = np.random.default_rng(seed)
    D_true = normalize_columns(rng.standard_normal((n, k)))
    Theta = np.zeros((k, p))
    for col in range(p):
        sup = rng.choice(k, S, replace=False)
        Theta[sup, col] = rng.standard_normal(S)
    X = D_true @ Theta
    P = rng.standard_normal((m, n)) / np.sqrt(m)
    return X, sense(X, P, sigma, seed + 1)


class TestTrainingSet:
    """The (X, Y) pair that coupled_ksvd takes."""

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError, match="X and Y must have the same number of columns"):
            coupled_ksvd(np.ones((4, 10)), np.ones((2, 9)), 8, 1, 1, 0,
                         lam=0.5, inner=Arm("sapiro", {"seed": 0}))


class TestSparseCoding:
    def test_columns_respect_sparsity_budget(self):
        rng = np.random.default_rng(3)
        D = normalize_columns(rng.standard_normal((10, 25)))
        X = rng.standard_normal((10, 40))
        Theta = sparse_code(X, D, 3)
        assert Theta.shape == (25, 40)
        assert (np.count_nonzero(Theta, axis=0) <= 3).all()

    def test_exact_on_planted_incoherent_instance(self):
        D = incoherent_frame(8, 16, 21)
        Theta, X = planted_signals(D, 2, 30, seed=22, margin=0.1)
        assert_allclose(sparse_code(X, D, 2), Theta, atol=1e-9)


class TestAtomUpdateSweep:
    def test_unit_atom_norms(self):
        rng = np.random.default_rng(4)
        D = normalize_columns(rng.standard_normal((12, 24)))
        X = rng.standard_normal((12, 100))
        Theta = sparse_code(X, D, 3)
        atom_update_sweep(X, D, Theta, rng)
        assert_allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-10)

    def test_support_never_grows(self):
        rng = np.random.default_rng(5)
        D = normalize_columns(rng.standard_normal((10, 18)))
        X = rng.standard_normal((10, 60))
        Theta = sparse_code(X, D, 2)
        before = Theta != 0
        atom_update_sweep(X, D, Theta, rng)
        after = Theta != 0
        assert not (after & ~before).any()

    def test_rank_one_residual_fitted_exactly(self):
        # single atom, all signals are multiples of one vector: the
        # restricted error matrix is exactly rank one, so the dominant
        # singular pair reproduces it with no leftover
        rng = np.random.default_rng(6)
        u = rng.standard_normal(7)
        u /= np.linalg.norm(u)
        coeffs = rng.standard_normal(15) + 2.0
        X = np.outer(u, coeffs)
        D = normalize_columns(rng.standard_normal((7, 1)))
        Theta = np.ones((1, 15))
        atom_update_sweep(X, D, Theta, rng)
        assert_allclose(np.abs(D[:, 0] @ u), 1.0, atol=1e-12)
        assert_allclose(D @ Theta, X, atol=1e-10)

    def test_sweep_never_increases_objective(self):
        # monotone over the atom half-step (coding held fixed)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            D = normalize_columns(rng.standard_normal((10, 20)))
            X = rng.standard_normal((10, 80))
            Theta = sparse_code(X, D, 3)
            before = np.sum((X - D @ Theta) ** 2)
            atom_update_sweep(X, D, Theta, rng)
            after = np.sum((X - D @ Theta) ** 2)
            assert after <= before + 1e-10

    def test_unused_atom_reseeded_from_worst_column(self):
        rng = np.random.default_rng(7)
        D = normalize_columns(rng.standard_normal((6, 4)))
        X = rng.standard_normal((6, 30))
        Theta = sparse_code(X, D, 2)
        Theta[3, :] = 0.0  # force atom 3 unused
        worst_before = int(np.argmax(np.sum((X - D @ Theta) ** 2, axis=0)))
        replaced = atom_update_sweep(X, D, Theta, rng)
        assert 3 in replaced
        expected = X[:, worst_before] / np.linalg.norm(X[:, worst_before])
        # the sweep mutates R before reaching atom 3 only via used atoms;
        # the worst column under the final coding is what gets planted
        assert_allclose(np.linalg.norm(D[:, 3]), 1.0, atol=1e-12)
        if np.allclose(D[:, 3], expected):
            assert True
        else:
            # residual ordering may have shifted during the sweep; the
            # reseeded atom must still be some normalized training column
            cors = np.abs(normalize_columns(X).T @ D[:, 3])
            assert cors.max() > 1 - 1e-10

    def test_unused_atoms_reseeded_from_distinct_columns(self):
        # an unused atom leaves the residual as it is, so without exclusion
        # every unused atom of a pass would take the same worst column
        rng = np.random.default_rng(7)
        D = normalize_columns(rng.standard_normal((6, 8)))
        X = rng.standard_normal((6, 30))
        Theta = sparse_code(X, D, 2)
        Theta[[2, 5], :] = 0.0
        assert {2, 5} <= set(atom_update_sweep(X, D, Theta, rng))
        columns = normalize_columns(X)
        planted = [int(np.argmax(np.abs(columns.T @ D[:, j]))) for j in (2, 5)]
        for j, col in zip((2, 5), planted):
            assert_allclose(np.abs(columns[:, col] @ D[:, j]), 1.0, atol=1e-12)
        assert planted[0] != planted[1]

    def test_every_column_taken_then_random(self):
        # more unused atoms than training columns: each column re-seeds one
        # atom, and the rest are drawn at random
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 3))
        D = normalize_columns(rng.standard_normal((5, 6)))
        assert atom_update_sweep(X, D, np.zeros((6, 3)), rng) == list(range(6))
        cors = np.abs(normalize_columns(X).T @ D)  # column x atom
        assert_allclose(cors[:, :3].max(axis=0), 1.0, atol=1e-12)
        assert sorted(np.argmax(cors[:, :3], axis=0)) == [0, 1, 2]
        assert cors[:, 3:].max() < 1 - 1e-6
        assert_allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_no_backmap_is_the_identity_lift(self, seed):
        # plain K-SVD is the lifted sweep with W = I and solve(u) = u, bit for bit
        rng = np.random.default_rng(seed)
        D = normalize_columns(rng.standard_normal((10, 20)))
        X = rng.standard_normal((10, 60))
        Theta = sparse_code(X, D, 3)
        Theta[[4, 7]] = 0.0  # two unused atoms, re-seeded
        D_lift, Theta_lift = D.copy(), Theta.copy()
        replaced = atom_update_sweep(X, D, Theta, np.random.default_rng(seed))
        identity = (np.eye(10), lambda u: u)
        assert replaced == atom_update_sweep(X, D_lift, Theta_lift, np.random.default_rng(seed), identity)
        assert {4, 7} <= set(replaced)
        assert D.tobytes() == D_lift.tobytes()
        assert Theta.tobytes() == Theta_lift.tobytes()

    def test_emptied_atom_reseeded_like_an_unused_one(self):
        # the back-map sends atom 0's lifted update to zero: its row is
        # cleared, its share of X returns to the residual, and it takes the
        # worst-represented column of that restored residual
        rng = np.random.default_rng(0)
        D = normalize_columns(rng.standard_normal((6, 4)))
        X = rng.standard_normal((6, 30))
        Theta = sparse_code(X, D, 2)
        assert np.count_nonzero(Theta[0])
        restored = X - D[:, 1:] @ Theta[1:]
        worst = int(np.argmax(np.sum(restored**2, axis=0)))
        assert worst != np.argmax(np.sum((X - D @ Theta) ** 2, axis=0))  # the restore matters

        def backmap():
            """The identity, except that the first solve, atom 0's update, gives zero."""
            calls = []

            def solve(u):
                calls.append(u)
                return np.zeros_like(u) if len(calls) == 1 else u

            return np.eye(6), solve

        D_ref, Theta_ref = D.copy(), Theta.copy()
        replaced = atom_update_sweep(X, D, Theta, np.random.default_rng(0), backmap())
        assert 0 in replaced
        assert not np.any(Theta[0])
        assert_allclose(np.linalg.norm(D[:, 0]), 1.0, atol=1e-12)
        assert_allclose(D[:, 0], X[:, worst] / np.linalg.norm(X[:, worst]), atol=1e-15)
        assert replaced == svd_atom_update_sweep(X, D_ref, Theta_ref, np.random.default_rng(0), backmap())
        assert_allclose(D, D_ref, rtol=0, atol=1e-10)
        assert_allclose(Theta, Theta_ref, rtol=0, atol=1e-10)


class TestAtomUpdateSweepOracle:
    """One sweep agrees with the thin-SVD sweep of ``oracles``."""

    @staticmethod
    def _problem(seed, lifted):
        """A coded problem whose atom 0 has one signal, atom 1 fewer signals
        than rows, atom 2 none, and others more than rows; and its backmap."""
        n, k, p, S = 12, 24, 200, 3
        rng = np.random.default_rng(seed)
        D = normalize_columns(rng.standard_normal((n, k)))
        X = rng.standard_normal((n, p))
        backmap = None
        if lifted:
            lam, P = 0.5, rng.standard_normal((6, n)) / np.sqrt(6)
            W = np.vstack([lam * np.eye(n), P])
            M = lam * lam * np.eye(n) + P.T @ P
            backmap = (W, lambda u: np.linalg.solve(M, W.T @ u))
            X = np.vstack([lam * X, P @ X + 0.01 * rng.standard_normal((6, p))])
        Theta = sparse_code(X, D if backmap is None else backmap[0] @ D, S)
        keeps = {0: 1, 1: n // 2, 2: 0}
        for j, keep in keeps.items():
            Theta[j, np.flatnonzero(Theta[j])[keep:]] = 0.0
        assert {j: np.count_nonzero(Theta[j]) for j in keeps} == keeps
        assert np.count_nonzero(Theta, axis=1).max() > X.shape[0]
        return X, D, Theta, backmap

    @pytest.mark.parametrize("lifted", [False, True], ids=["plain", "backmap"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_thin_svd_sweep(self, seed, lifted):
        X, D, Theta, backmap = self._problem(seed, lifted)
        D_ref, Theta_ref = D.copy(), Theta.copy()
        replaced = atom_update_sweep(X, D, Theta, np.random.default_rng(seed), backmap)
        assert replaced == svd_atom_update_sweep(X, D_ref, Theta_ref, np.random.default_rng(seed), backmap)
        assert 2 in replaced
        assert_allclose(D, D_ref, rtol=0, atol=1e-10)
        W = np.eye(D.shape[0]) if backmap is None else backmap[0]
        for got, ref in ((Theta, Theta_ref), (X - W @ D @ Theta, X - W @ D_ref @ Theta_ref)):
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("lifted", [False, True], ids=["plain", "backmap"])
    def test_asks_for_one_eigenpair_per_atom(self, lifted, monkeypatch):
        # Only the dominant eigenvector of E Eᵀ is kept, so only it is computed.
        X, D, Theta, backmap = self._problem(0, lifted)
        ranks = []
        monkeypatch.setattr(dictlearn, "top_eigh", lambda A, m: ranks.append(m) or top_eigh(A, m))
        atom_update_sweep(X, D, Theta, np.random.default_rng(0), backmap)
        assert ranks == [1] * (D.shape[1] - 1)  # every atom but the unused atom 2


class TestDuplicatePurge:
    def test_duplicate_pair_broken(self):
        rng = np.random.default_rng(8)
        D = normalize_columns(rng.standard_normal((6, 5)))
        D[:, 4] = D[:, 1]  # exact duplicate
        X = rng.standard_normal((6, 40))
        Theta = sparse_code(X, D, 2)
        replaced = purge_duplicate_atoms(X, D, Theta, rng)
        assert replaced == [4]
        assert np.all(Theta[4, :] == 0.0)
        assert abs(D[:, 1] @ D[:, 4]) < 0.99
        G = np.abs(D.T @ D)
        np.fill_diagonal(G, 0.0)
        assert G.max() < 0.99

    def test_clean_dictionary_untouched(self):
        D = incoherent_frame(8, 16, 23)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((8, 50))
        Theta = sparse_code(X, D, 2)
        D_before = D.copy()
        assert purge_duplicate_atoms(X, D, Theta, rng) == []
        assert np.array_equal(D, D_before)

    @staticmethod
    def _two_pairs(seed):
        """Unit atoms 0..5 with the duplicate pairs (0, 3) and (1, 5)."""
        D = normalize_columns(np.random.default_rng(seed).standard_normal((6, 6)))
        D[:, 3] = D[:, 0]
        D[:, 5] = -D[:, 1]
        return D

    def test_pairs_take_worst_distinct_columns_by_the_sweep_rule(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((6, 8))
        X[:, 2] *= 10.0
        X[:, 4] = X[:, 2] * [1, -1, 1, -1, 1, -1]  # ties with column 2 for the worst
        D = self._two_pairs(21)
        assert purge_duplicate_atoms(X, D, np.zeros((6, 8)), rng) == [3, 5]
        assert_allclose(D[:, [3, 5]], X[:, [2, 4]] / np.linalg.norm(X[:, 2]), atol=1e-15)
        # the sweep's rule on the same residual: with every atom unused,
        # its first two atoms take the same two columns
        D_sweep = self._two_pairs(21)
        atom_update_sweep(X, D_sweep, np.zeros((6, 8)), np.random.default_rng(0))
        assert np.array_equal(D[:, [3, 5]], D_sweep[:, :2])

    def test_every_column_taken_then_random(self):
        X = np.random.default_rng(22).standard_normal((6, 1))
        D = self._two_pairs(23)
        seed = 24
        assert purge_duplicate_atoms(X, D, np.zeros((6, 1)), np.random.default_rng(seed)) == [3, 5]
        assert_allclose(D[:, 3], X[:, 0] / np.linalg.norm(X[:, 0]), atol=1e-15)
        draw = np.random.default_rng(seed).standard_normal(6)
        assert np.array_equal(D[:, 5], draw / np.linalg.norm(draw))

    def test_zero_worst_column_gives_a_random_atom(self):
        # both columns are represented exactly; the tie goes to column 0,
        # which is zero, so atom 3 is drawn at random and atom 5 takes column 1
        D = self._two_pairs(25)
        X = np.zeros((6, 2))
        X[:, 1] = D[:, 2]
        Theta = np.zeros((6, 2))
        Theta[2, 1] = 1.0
        seed = 26
        assert purge_duplicate_atoms(X, D, Theta, np.random.default_rng(seed)) == [3, 5]
        draw = np.random.default_rng(seed).standard_normal(6)
        assert np.array_equal(D[:, 3], draw / np.linalg.norm(draw))
        assert_allclose(D[:, 5], X[:, 1], atol=1e-15)


class TestKSVD:
    def test_smoke_single_iteration(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((8, 40))
        D, Theta, trace = ksvd(X, 16, 2, iterations=1, seed=0)
        assert D.shape == (8, 16)
        assert Theta.shape == (16, 40)
        assert len(trace) == 1
        assert np.isfinite(trace.objective[0])

    def test_warns_on_too_few_signals(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((6, 8))
        with pytest.warns(UserWarning):
            ksvd(X, 12, 1, iterations=1, seed=0)

    def test_recovers_planted_dictionary(self):
        D_true = incoherent_frame(8, 16, 1000, iters=400)
        Theta_true, X = planted_signals(D_true, 2, 400, seed=2000)
        D, Theta, trace = ksvd(X, 16, 2, iterations=50, seed=0)
        final = trace.objective[-1]
        assert final <= 1e-6 * np.sum(X * X)
        assert_allclose(D @ Theta, X, atol=1e-6)

    def test_seeded_runs_are_bitwise_identical(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((8, 60))
        D1, T1, tr1 = ksvd(X, 12, 2, iterations=5, seed=3)
        D2, T2, tr2 = ksvd(X, 12, 2, iterations=5, seed=3)
        assert D1.tobytes() == D2.tobytes()
        assert T1.tobytes() == T2.tobytes()
        assert np.array_equal(tr1.objective, tr2.objective)

    def test_invalid_arguments(self):
        X = np.ones((4, 20))
        with pytest.raises(ValueError):
            ksvd(X, 0, 1, 1, 0)
        with pytest.raises(ValueError):
            ksvd(X, 8, 0, 1, 0)
        with pytest.raises(ValueError):
            ksvd(X, 8, 1, 0, 0)
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            ksvd(X, 8, 1, 1, -1)

    def test_trace_csv_layout(self, tmp_path):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((6, 30))
        _, _, trace = ksvd(X, 8, 2, iterations=3, seed=1)
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,objective"
        assert len(lines) == 4
        assert lines[1].startswith("0,")


class TestCoupledKSVD:
    def test_config_validation(self):
        X, Y = np.ones((4, 20)), np.ones((2, 20))
        for bad, message in ((dict(lam=-0.1), "lam must be in"), (dict(lam=1.5), "lam must be in"),
                             (dict(S=0), "S must be"), (dict(iterations=0), "iterations must be"),
                             (dict(seed=-1), "seed must be >= 0")):
            kw = dict(k=8, S=1, iterations=1, seed=0, lam=0.5, inner=Arm("sapiro", {"seed": 0}))
            kw.update(bad)
            with pytest.raises(ValueError, match=message):
                coupled_ksvd(X, Y, **kw)

    def test_checks_in_order(self):
        # the arguments first, then X, then Y, then their column counts
        def learn(X, Y, S=1):
            return coupled_ksvd(X, Y, 8, S, 1, 0, lam=0.5, inner=Arm("sapiro", {"seed": 0}))

        nan_X, inf_Y = np.full((4, 20), np.nan), np.full((2, 9), np.inf)
        with pytest.raises(ValueError, match="S must be"):
            learn(nan_X, inf_Y, S=0)
        with pytest.raises(ValueError, match="training signals contains non-finite"):
            learn(nan_X, inf_Y)
        with pytest.raises(ValueError, match="projected samples contains non-finite"):
            learn(np.ones((4, 20)), inf_Y)

    def test_fixed_projection_shape_checked(self):
        X, Y = make_training(seed=14)
        with pytest.raises(ValueError):
            coupled_ksvd(X, Y, 40, 3, 1, 0, lam=0.5, inner=Arm("fixed", {"P": np.ones((3, 3))}))

    def test_atom_recovery_round_trip(self):
        # overdetermined solve: d_rec = (lam^2 I + P'P)^{-1} W' (W d)
        rng = np.random.default_rng(16)
        lam = 0.5
        P = rng.standard_normal((8, 20))
        d = rng.standard_normal(20)
        W = np.vstack([lam * np.eye(20), P])
        M = lam * lam * np.eye(20) + P.T @ P
        d_rec = np.linalg.solve(M, W.T @ (W @ d))
        assert_allclose(d_rec, d, atol=1e-9)

    def test_stops_early_when_the_objective_settles(self):
        # noisy rank-one signals under a fixed P settle long before the cap
        rng = np.random.default_rng(0)
        X = np.outer(rng.standard_normal(8), rng.standard_normal(60)) + 0.01 * rng.standard_normal((8, 60))
        P = rng.standard_normal((4, 8))
        lam = 0.5
        *_, trace = coupled_ksvd(X, P @ X, 4, 1, 100, 0, lam=lam, inner=Arm("fixed", {"P": P}))
        assert 1 < len(trace) < 100
        obj = lam * lam * np.asarray(trace.term1) + np.asarray(trace.term2)
        assert abs(obj[-1] - obj[-2]) < 1e-6 * obj[-2]
        assert np.all(np.abs(np.diff(obj[:-1])) >= 1e-6 * obj[:-2])

    def test_degenerate_stacking_matches_plain_ksvd(self):
        # lam = 1, P = I duplicates every row of the fit, so the learned
        # factors coincide with plain K-SVD from the same seed
        rng = np.random.default_rng(17)
        n, k, p = 10, 20, 80
        X = rng.standard_normal((n, p))
        P, D, Theta, trace = coupled_ksvd(
            X, X.copy(), k, 2, 4, 5, lam=1.0, inner=Arm("fixed", {"P": np.eye(n)})
        )
        assert np.array_equal(P, np.eye(n))
        assert np.array_equal(trace.term1, trace.term2)
        D_ref, T_ref, tr_ref = ksvd(X, k, 2, iterations=len(trace), seed=5)
        assert_allclose(trace.term1, tr_ref.objective[: len(trace)], rtol=1e-9)

    def test_lam_zero_ignores_signals(self):
        # with lam = 0 the coding sees only Y; perturbing X must leave
        # Theta bit-for-bit unchanged (needs full-column-rank P)
        rng = np.random.default_rng(18)
        n, k, p, m = 6, 12, 60, 6
        Q, _ = np.linalg.qr(rng.standard_normal((m, n)))
        X = rng.standard_normal((n, p))
        Y = Q @ X
        fixed = Arm("fixed", {"P": Q})
        _, _, Theta_a, _ = coupled_ksvd(X, Y, k, 2, 3, 6, lam=0.0, inner=fixed)
        X_perturbed = X + rng.standard_normal(X.shape)
        _, _, Theta_b, _ = coupled_ksvd(X_perturbed, Y, k, 2, 3, 6, lam=0.0, inner=fixed)
        assert Theta_a.tobytes() == Theta_b.tobytes()

    def test_lam_zero_wide_projection_is_singular(self):
        X, Y = make_training(n=20, m=8, seed=19)
        rng = np.random.default_rng(20)
        P = rng.standard_normal((8, 20))
        with pytest.raises(SingularSystem):
            coupled_ksvd(X, Y, 40, 3, 2, 0, lam=0.0, inner=Arm("fixed", {"P": P}))
        # lam^2 = 1e-14 leaves the system past the conditioning bound;
        # lam^2 = 1e-6 brings it back within
        with pytest.raises(SingularSystem):
            coupled_ksvd(X, Y, 40, 3, 2, 0, lam=1e-7, inner=Arm("fixed", {"P": P}))
        coupled_ksvd(X, Y, 40, 3, 2, 0, lam=1e-3, inner=Arm("fixed", {"P": P}))

    def test_monitor_combined_objective_not_monotone(self):
        # run-and-monitor configuration.  The projection refresh targets
        # incoherence of the current D, not the fit to Y, so the combined
        # objective routinely jumps when P changes — monotonicity does NOT
        # hold here and this test pins that observation down rather than
        # papering over it.  Descent with the refresh disabled is covered
        # by test_fixed_projection_descends.
        increases = 0
        for seed in range(3):
            X, Y = make_training(n=20, k=40, m=8, p=200, S=3, sigma=0.01,
                                 seed=100 + seed)
            lam = 0.5
            P, D, Theta, trace = coupled_ksvd(
                X, Y, 40, 3, 10, seed, lam=lam, inner=Arm("sapiro", {"seed": 0})
            )
            assert len(trace.term1) == len(trace.term2) >= 1
            assert np.isfinite(trace.term1).all()
            assert np.isfinite(trace.term2).all()
            assert np.all(trace.term1 >= 0) and np.all(trace.term2 >= 0)
            obj = lam**2 * trace.term1 + trace.term2
            increases += int(np.sum(np.diff(obj) > 1e-8))
        assert increases >= 1

    def test_fixed_projection_descends(self):
        # with P frozen there is no refresh to fight; the stacked
        # objective should fall from start to finish
        X, _ = make_training(n=20, k=40, m=8, p=200, S=3, sigma=0.01, seed=200)
        rng = np.random.default_rng(21)
        P = rng.standard_normal((8, 20)) / np.sqrt(8)
        lam = 0.5
        _, _, _, trace = coupled_ksvd(
            X, sense(X, P, 0.01, 7), 40, 3, 10, 1, lam=lam, inner=Arm("fixed", {"P": P})
        )
        obj = lam**2 * trace.term1 + trace.term2
        assert obj[-1] < 0.7 * obj[0]

    def test_trace_csv_layout(self, tmp_path):
        X, Y = make_training(seed=22)
        _, _, _, trace = coupled_ksvd(X, Y, 40, 3, 2, 2, lam=0.5, inner=Arm("sapiro", {"seed": 0}))
        out = tmp_path / "coupled.csv"
        trace.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,term1,term2"
        assert lines[1].startswith("0,")


def _learn_ksvd(X, Y, k):
    return ksvd(X, k, 2, iterations=5, seed=0)


def _learn_coupled(X, Y, k):
    return coupled_ksvd(X, Y, k, 2, 5, 0, lam=1.0, inner=Arm("sapiro", {"seed": 0}))[1:]


@pytest.mark.parametrize("learn", [_learn_ksvd, _learn_coupled], ids=["ksvd", "coupled_ksvd"])
def test_reseeded_atoms_are_recorded(learn, monkeypatch):
    # 80 atoms for data planted on 60: some atoms go unused and are re-seeded
    X, Y = make_training(n=20, k=60, m=8, p=400, S=2, seed=0)
    codings, seen = [], []  # every outer iteration codes the signals exactly once

    def spy(name, on_result):
        fn = getattr(dictlearn, name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        monkeypatch.setattr(dictlearn, name, wrapper)

    spy("sparse_code", codings.append)
    for name in ("atom_update_sweep", "purge_duplicate_atoms"):
        spy(name, lambda replaced: seen.extend((len(codings) - 1, j) for j in replaced))
    D, Theta, trace = learn(X, Y, 80)
    assert len(seen) >= 2
    assert trace.replacements == tuple(seen)
    assert_allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)

    monkeypatch.undo()
    D2, Theta2, trace2 = learn(X, Y, 80)
    assert D.tobytes() == D2.tobytes() and Theta.tobytes() == Theta2.tobytes()
    assert trace2.replacements == trace.replacements
