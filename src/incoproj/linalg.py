"""Dense linear-algebra primitives shared by the projection optimizers.

Everything here operates on plain float64 ``numpy`` arrays.  Symmetric
eigendecompositions go through :func:`eigh_descending`, which fixes the
eigenvector sign convention so that repeated runs (and repeated calls on
the same data) produce bit-identical results.
"""

from __future__ import annotations

import ctypes
import glob
import os
import numpy as np
import scipy.linalg

from .errors import InvalidRank, NotPSD, ZeroColumn

# Columns with norm at or below this are treated as zero.
ZERO_TOL = 1e-12


def set_blas_threads(count: int) -> None:
    """Set the thread count of the OpenBLAS that numpy and scipy each bundle.

    Every matrix here is small, so threads only add overhead, and results
    that differ in the last bits between thread counts can flip a BP
    status.  A library or setter that is not there is skipped.
    """
    for package in (np, scipy):
        for path in glob.glob(os.path.dirname(package.__file__) + ".libs/*openblas*"):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
                setter = getattr(lib, symbol, None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(count)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_dictionary(M) -> np.ndarray:
    """An n x k matrix of atoms (columns) as a float64 array; rejects zero atoms."""
    D = as_matrix(M, "dictionary")
    column_norms(D, "dictionary atom")
    return D


def column_norms(M: np.ndarray, context: str = "") -> np.ndarray:
    """Euclidean column norms.

    Raises
    ------
    ZeroColumn
        If any norm is <= ``ZERO_TOL``; the error carries the index of the
        first offending column and ``context``.
    """
    norms = np.linalg.norm(M, axis=0)
    bad = np.flatnonzero(norms <= ZERO_TOL)
    if bad.size:
        raise ZeroColumn(int(bad[0]), context)
    return norms


def normalize_columns(M) -> np.ndarray:
    """Scale every column to unit Euclidean norm (ZeroColumn from :func:`column_norms`)."""
    M = as_matrix(M)
    return M / column_norms(M)


def gram(M) -> np.ndarray:
    """Gram matrix of the column-normalized input: symmetric, unit diagonal."""
    N = normalize_columns(M)
    G = N.T @ N
    G = 0.5 * (G + G.T)
    np.fill_diagonal(G, 1.0)
    return G


def eigh_descending(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix with a fixed convention.

    Returns ``(w, V)`` with eigenvalues ``w`` sorted non-increasing and
    each eigenvector's first nonzero component made positive.  The input
    is symmetrized before factorization.
    """
    A = 0.5 * (A + A.T)
    w, V = np.linalg.eigh(A)
    w = w[::-1]
    V = V[:, ::-1]
    return w, _fix_signs(V)


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first nonzero entry is positive."""
    V = np.array(V)
    first = np.argmax(V != 0.0, axis=0)
    lead = V[first, np.arange(V.shape[1])]
    V[:, lead < 0] *= -1.0
    return V


def top_eigh(A: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest-``m`` eigenpairs of a symmetric matrix, descending, sign-fixed."""
    A = 0.5 * (A + A.T)
    k = A.shape[0]
    if m >= k:
        return eigh_descending(A)
    w, V = scipy.linalg.eigh(A, subset_by_index=(k - m, k - 1))
    w = w[::-1]
    V = V[:, ::-1]
    return w, _fix_signs(V)


def _checked_top_eigh(G, m: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`top_eigh` of a finite square matrix, for a rank ``m`` in [1, its order]."""
    G = as_matrix(G, "gram")
    k = G.shape[0]
    if G.shape[1] != k:
        raise ValueError("square matrix required")
    if not 1 <= m <= k:
        raise InvalidRank(f"rank {m} not in [1, {k}]")
    return top_eigh(G, m)


def symmetric_rank_truncate(G, m: int) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix of rank at most ``m``.

    Keeps the ``m`` algebraically largest eigenvalues, clamps negatives to
    zero, and rebuilds.  Idempotent for fixed ``m`` up to rounding.
    """
    w, V = _checked_top_eigh(G, m)
    w = np.clip(w, 0.0, None)
    out = (V * w) @ V.T
    return 0.5 * (out + out.T)


def sqrt_factor(G, m: int) -> np.ndarray:
    """Factor a PSD matrix of rank <= ``m`` as ``S.T @ S`` with ``S`` of shape (m, k).

    Rows of ``S`` beyond the numerical rank are zero.

    Raises
    ------
    NotPSD
        If the smallest retained eigenvalue is below ``-1e-8`` times the
        largest one (with a small absolute floor), i.e. the matrix is not
        positive semidefinite to working accuracy.
    """
    w, V = _checked_top_eigh(G, m)
    lam_max = max(float(w[0]), 0.0)
    if float(w[-1]) < -1e-8 * lam_max - 1e-12:
        raise NotPSD(f"eigenvalue {w[-1]:.3e} too negative for sqrt factor")
    w = np.clip(w, 0.0, None)
    return np.sqrt(w)[:, None] * V.T


def lsq_projection(S, D) -> np.ndarray:
    """Least-squares fit of ``P`` minimizing ||S - P @ D||_F (via pseudo-inverse)."""
    S = as_matrix(S, "target")
    D = as_matrix(D, "dictionary")
    if S.shape[1] != D.shape[1]:
        raise ValueError("target and dictionary must have the same number of columns")
    return S @ np.linalg.pinv(D)
