import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from incoproj import linalg
from incoproj.errors import ZeroColumn
from incoproj.linalg import (
    as_dictionary,
    as_matrix,
    column_norms,
    gram,
    lsq_projection,
    normalize_columns,
    sqrt_factor,
    symmetric_rank_truncate,
    top_eigh,
)

from oracles import reference_top_eigh


class TestAsMatrix:
    def test_accepts_lists_and_arrays(self):
        M = as_matrix([[1.0, 2.0], [3.0, 4.0]], "M")
        assert M.shape == (2, 2) and M.dtype == np.float64

    def test_rejects_vectors(self):
        with pytest.raises(ValueError):
            as_matrix(np.ones(4), "v")

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]], "bad")


class TestAsDictionary:
    def test_returns_float_matrix(self):
        D = as_dictionary([[1, 0, 2], [0, 3, 4]])
        assert isinstance(D, np.ndarray) and D.dtype == np.float64 and D.shape == (2, 3)
        with pytest.raises(ValueError, match="dictionary contains non-finite"):
            as_dictionary([[1.0, np.nan], [1.0, 1.0]])

    def test_zero_column_rejected(self):
        M = np.ones((4, 3))
        M[:, 1] = 0.0
        with pytest.raises(ZeroColumn, match=r"column 1 has zero norm \(dictionary atom\)") as exc:
            as_dictionary(M)
        assert exc.value.index == 1


class TestColumnOps:
    def test_norms_and_normalization(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((8, 12)) * 3.0
        N = normalize_columns(M)
        assert_allclose(column_norms(N), np.ones(12), atol=1e-12)
        # directions preserved
        cos = np.sum(N * M, axis=0) / column_norms(M)
        assert_allclose(cos, np.ones(12), atol=1e-12)

    def test_zero_norm_names_its_context(self):
        M = np.ones((3, 4))
        M[:, 2] = 1e-13
        with pytest.raises(ZeroColumn, match=r"^column 2 has zero norm \(ctx\)$"):
            column_norms(M, "ctx")

    def test_normalize_zero_column_raises(self):
        M = np.zeros((3, 2))
        M[:, 0] = 1.0
        with pytest.raises(ZeroColumn):
            normalize_columns(M)

    def test_gram_is_symmetric_unit_diagonal(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            M = rng.standard_normal((7, 13))
            G = gram(M)
            assert np.array_equal(G, G.T)
            assert_allclose(np.diag(G), np.ones(13), atol=0)
            assert np.all(np.abs(G) <= 1.0 + 1e-12)


class TestEigh:
    def test_descending_order_and_reconstruction(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((9, 9))
        G = A @ A.T
        w, V = top_eigh(G, 9)
        assert np.all(np.diff(w) <= 1e-12)
        assert_allclose(w, np.linalg.eigvalsh(G)[::-1], atol=1e-10)
        assert_allclose(V @ np.diag(w) @ V.T, G, atol=1e-10)
        assert_allclose(V.T @ V, np.eye(9), atol=1e-12)

    def test_sign_convention_first_nonzero_positive(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 6))
        G = A @ A.T
        for m in (2, 6):  # the subset solver and the full one
            _, V = top_eigh(G, m)
            for j in range(m):
                col = V[:, j]
                nz = col[np.abs(col) > 1e-12]
                assert nz[0] > 0

    def test_top_eigh_matches_full(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((10, 10))
        G = A @ A.T
        w_full, V_full = top_eigh(G, 10)
        for m in (1, 3, 10):
            w, V = top_eigh(G, m)
            assert_allclose(w, w_full[:m], atol=1e-10)
            # eigenvectors may differ by sign convention only on degenerate
            # spectra; random G has simple spectrum so compare directly
            assert_allclose(V, V_full[:, :m], atol=1e-8)

    @pytest.mark.parametrize("k, m", [(100, 12), (400, 30), (20, 1), (28, 1), (10, 10)])
    def test_matches_the_scipy_eigh_oracle_bit_for_bit(self, k, m):
        # The subset path calls dsyevr as scipy.linalg.eigh does, with
        # the same workspace, so the bits must not move.
        A = np.random.default_rng(k + m).standard_normal((k, k))
        A = A + A.T
        w, V = top_eigh(A, m)
        w_ref, V_ref = reference_top_eigh(A, m)
        assert V.shape == (k, m)
        assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)

    @pytest.mark.parametrize("m", [1, 3, 6, 7], ids=["m=1", "1<m<k", "m=k", "m>k"])
    def test_eigenvectors_are_c_contiguous_and_match_the_oracle(self, m):
        A = np.random.default_rng(m).standard_normal((6, 6))
        A = A + A.T
        w, V = top_eigh(A, m)
        w_ref, V_ref = reference_top_eigh(A, m)
        assert V.flags.c_contiguous and V.shape == (6, min(m, 6))
        assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)

    @pytest.mark.parametrize("m", [1, 2, 4], ids=["m=1", "1<m<k", "m=k"])
    def test_sign_rule_skips_an_exact_zero_first_entry(self, m):
        # Block diagonal: the top eigenvectors live in the lower block, so
        # their first entry is an exact 0 and the rule reads the next one,
        # which LAPACK returns negative here on both paths.
        B = np.random.default_rng(0).standard_normal((3, 3))
        A = np.zeros((4, 4))
        A[0, 0] = -1.0
        A[1:, 1:] = B @ B.T + np.eye(3)
        w, V = top_eigh(A, m)
        w_ref, V_ref = reference_top_eigh(A, m)
        assert V[0, 0] == 0.0 and V[1, 0] > 0.0
        assert V.flags.c_contiguous
        assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)

    def test_lapack_failure_raises(self, monkeypatch):
        def failing_dsyevr(A, **kwargs):
            k = A.shape[0]
            return np.zeros(k), np.zeros((k, k)), 0, np.zeros(2 * k, dtype=np.int32), 2

        monkeypatch.setattr(linalg, "dsyevr", failing_dsyevr)
        with pytest.raises(np.linalg.LinAlgError, match="dsyevr failed with info=2"):
            top_eigh(np.diag([3.0, 2.0, 1.0]), 1)

    def test_top_eigh_is_the_only_eigensolver(self):
        # Every symmetric eigendecomposition in the package goes through
        # top_eigh, so each one gets the same ordering and sign convention.
        solvers = {"eigh", "eigvalsh", "eig", "eigvals", "dsyevr", "dsyevd", "dsyev", "dsyevx"}
        offenders = []
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "incoproj").glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            inside = set()
            if path.name == "linalg.py":
                for fn in ast.walk(tree):
                    if isinstance(fn, ast.FunctionDef) and fn.name == "top_eigh":
                        inside.update(ast.walk(fn))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and node not in inside:
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    if name in solvers:
                        offenders.append(f"{path.name}:{node.lineno} {name}")
        assert offenders == []

    def test_as_matrix_is_called_only_at_entries(self):
        # Input is checked once, where it enters the package; the steps
        # below trust their callers, so no re-check sits inside a loop.
        entries = {
            "as_dictionary", "normalize_columns",  # linalg
            "Key.parse", "design",  # optimizers
            "_problem",  # pursuit
            "_start", "coupled_ksvd",  # dictlearn
            "synthesize_signals",  # harness
            "_checked_gram", "offdiag_histogram",  # coherence
            "write_matrix",  # matrixio
        }
        callers = set()

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = (*scope, node.name)
            elif isinstance(node, ast.Call):
                f = node.func
                if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "as_matrix":
                    callers.add(".".join(scope))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "incoproj").glob("*.py")):
            visit(ast.parse(path.read_text(), filename=str(path)), ())
        assert callers == entries


class TestRankTruncate:
    def test_truncation_rank_and_symmetry(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((8, 8))
        G = A @ A.T
        T = symmetric_rank_truncate(G, 3)
        assert_allclose(T, T.T, atol=0)
        assert np.linalg.matrix_rank(T, tol=1e-8) == 3

    def test_matches_eckart_young(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((7, 7))
        G = A @ A.T
        w, V = top_eigh(G, 7)
        for m in (1, 2, 5):
            T = symmetric_rank_truncate(G, m)
            best = (V[:, :m] * w[:m]) @ V[:, :m].T
            assert_allclose(T, best, atol=1e-10)

    def test_error_nonincreasing_in_rank(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((9, 9))
        G = A @ A.T
        errs = [
            np.linalg.norm(symmetric_rank_truncate(G, m) - G) for m in range(1, 10)
        ]
        assert np.all(np.diff(errs) <= 1e-10)

    def test_negative_eigenvalues_clamped(self):
        G = np.diag([2.0, 1.0, -3.0])
        T = symmetric_rank_truncate(G, 3)
        w = np.linalg.eigvalsh(T)
        assert w.min() >= -1e-12


class TestSqrtFactor:
    def test_reconstructs_low_rank_gram(self):
        rng = np.random.default_rng(8)
        for m in (1, 3, 6):
            B = rng.standard_normal((m, 10))
            G = B.T @ B
            S = sqrt_factor(G, m)
            assert S.shape == (m, 10)
            assert_allclose(S.T @ S, G, atol=1e-9)

    def test_extra_rows_are_zero_padding(self):
        B = np.random.default_rng(9).standard_normal((2, 5))
        G = B.T @ B
        S = sqrt_factor(G, 4)
        assert S.shape == (4, 5)
        assert_allclose(S.T @ S, G, atol=1e-9)


class TestLsqProjection:
    def test_exact_when_target_in_row_space(self):
        rng = np.random.default_rng(10)
        D = rng.standard_normal((6, 12))
        P_true = rng.standard_normal((3, 6))
        S = P_true @ D
        P = lsq_projection(S, D)
        assert_allclose(P @ D, S, atol=1e-9)

    def test_least_squares_optimality(self):
        # the recovered P must beat small perturbations of itself
        rng = np.random.default_rng(11)
        D = rng.standard_normal((5, 20))
        S = rng.standard_normal((3, 20))
        P = lsq_projection(S, D)
        base = np.linalg.norm(P @ D - S)
        for trial in range(10):
            Q = P + 1e-3 * rng.standard_normal(P.shape)
            assert np.linalg.norm(Q @ D - S) >= base - 1e-12
