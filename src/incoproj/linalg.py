"""Dense linear-algebra primitives shared by the projection optimizers.

Everything here operates on plain float64 ``numpy`` arrays.  Only
:func:`as_matrix` and its callers check their input; the rest trust their
callers for finite entries, symmetry, a rank in ``[1, order]`` and
matching shapes, and :func:`sqrt_factor` for a PSD input of rank at most
its ``m``.  Symmetric eigendecompositions go through :func:`top_eigh`,
which fixes the eigenvector sign convention so that repeated runs (and
repeated calls on the same data) produce bit-identical results.

The five LAPACK routines the package calls (``dsyevr`` and
``dsyevr_lwork`` here, ``dpotrf`` and ``dpotrs`` in :mod:`incoproj.lp`, and
those two with ``dpocon`` in :mod:`incoproj.dictlearn`) are scipy's f2py
wrappers, bound here from its compiled ``scipy.linalg._flapack`` module.
That module is loaded from its file, so the ``scipy.linalg`` package is
never imported: its ``__init__`` pulls in scipy's array-API layer,
``numpy.testing`` and ``numpy.f2py``, most of a process's start-up.  An
f2py module is initialised once per process, so these are the very
function objects ``scipy.linalg.lapack`` exports, whichever of the two is
loaded first, and each call is the same call.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.machinery
import importlib.util
import os
from types import ModuleType

import numpy as np

from .errors import ZeroColumn

# Columns with norm at or below this are treated as zero.
ZERO_TOL = 1e-12


def _load_flapack(scipy_dir: str) -> ModuleType:
    """scipy's compiled LAPACK module from the scipy installed at ``scipy_dir``."""
    folder = os.path.join(scipy_dir, "linalg")
    name = "scipy.linalg._flapack"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"no compiled _flapack module in {folder}")


# Found without importing scipy.
_SCIPY_DIR = os.path.dirname(importlib.util.find_spec("scipy").origin)
_flapack = _load_flapack(_SCIPY_DIR)
dsyevr, dsyevr_lwork = _flapack.dsyevr, _flapack.dsyevr_lwork
dpotrf, dpotrs, dpocon = _flapack.dpotrf, _flapack.dpotrs, _flapack.dpocon


def set_blas_threads(count: int) -> None:
    """Set the thread count of the OpenBLAS that numpy and scipy each bundle.

    Every matrix here is small, so threads only add overhead, and results
    that differ in the last bits between thread counts can flip a BP
    status.  A library or setter that is not there is skipped.
    """
    for root in (os.path.dirname(np.__file__), _SCIPY_DIR):
        for path in glob.glob(root + ".libs/*openblas*"):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
                setter = getattr(lib, symbol, None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(count)


# glibc's mallopt parameters, and the sizes set for them.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


@functools.cache
def retain_freed_memory() -> None:
    """Keep freed blocks of up to a few MB in the process heap (glibc's ``mallopt``).

    A learning step frees numpy temporaries of a few hundred KB (the OMP
    scores of a 1000-signal block, a residual) and allocates them again
    at the next step.  By default glibc serves such a block from a fresh
    mapping, or trims the heap top it leaves, so each step faults its pages
    in again.  Blocks below ``MMAP_THRESHOLD`` come from the heap, and up to
    ``TRIM_THRESHOLD`` of free heap top stays mapped.  The setting changes
    no result.  It is made once per process; later calls return at once.
    Where libc has no ``mallopt`` this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


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
    np.fill_diagonal(G, 1.0)
    return G


def top_eigh(A: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest-``m`` eigenpairs of a symmetric matrix with a fixed convention.

    Returns ``(w, V)`` with eigenvalues ``w`` sorted non-increasing and
    each eigenvector's first nonzero component made positive.  The caller
    gives a symmetric, finite ``A`` (LAPACK reads only its lower triangle);
    ``m`` at or above its order gives the full decomposition.  A subset is
    one ``dsyevr`` call with its queried workspace (queried once per
    order), the call that ``scipy.linalg.eigh(A, subset_by_index=...)``
    makes after its checks.  ``V`` is C-contiguous.
    """
    k = A.shape[0]
    if m >= k:
        w, V = np.linalg.eigh(A)
    else:
        lwork, liwork = _dsyevr_work(k)
        w, V, found, _, info = dsyevr(A, compute_v=1, range="I", il=k - m + 1, iu=k, lower=1,
                                      lwork=lwork, liwork=liwork)
        if info:
            raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
        w, V = w[:found], V[:, :found]
    V = V[:, ::-1]
    first = np.argmax(V != 0.0, axis=0)
    sign = np.where(V[first, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    return w[::-1], np.multiply(V, sign, order="C")


@functools.cache
def _dsyevr_work(order: int) -> tuple[int, int]:
    """``dsyevr``'s queried workspace sizes ``(lwork, liwork)`` for a matrix of this order."""
    lwork, liwork, _ = dsyevr_lwork(order, lower=1)
    return int(lwork), int(liwork)


def symmetric_rank_truncate(G, m: int) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix of rank at most ``m``.

    Keeps the ``m`` algebraically largest eigenvalues, clamps negatives to
    zero, and rebuilds.  Idempotent for fixed ``m`` up to rounding.
    """
    w, V = top_eigh(G, m)
    w = np.clip(w, 0.0, None)
    out = (V * w) @ V.T
    return 0.5 * (out + out.T)


def sqrt_factor(G, m: int) -> np.ndarray:
    """Factor a PSD matrix of rank <= ``m`` as ``S.T @ S`` with ``S`` of shape (m, k).

    The caller makes ``G`` PSD with rank <= ``m``: eigenvalues that rounding
    left negative count as zero, and rows of ``S`` beyond the rank are zero.
    """
    w, V = top_eigh(G, m)
    # C order: the product S @ pinv(D) that the optimizers take rounds by S's layout.
    return np.multiply(np.sqrt(np.clip(w, 0.0, None))[:, None], V.T, order="C")


def lsq_projection(S, D) -> np.ndarray:
    """Least-squares fit of ``P`` minimizing ||S - P @ D||_F (via pseudo-inverse)."""
    return S @ np.linalg.pinv(D)
