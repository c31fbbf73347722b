"""Dictionary learning: K-SVD and its coupled variant that co-trains the
projection matrix.

Both learners alternate OMP sparse coding with one sweep of rank-one atom
updates (:func:`atom_update_sweep`) on a lifted problem, X fitted by
(W @ D) @ Theta: each used atom is read off the dominant eigenvector u of
E Eᵀ, for E the restricted residual with the atom added back, and its
nonzero coefficients become Eᵀu.  Plain K-SVD's lift is the identity.  The
coupled variant works on the stacked data [lambda*X; Y] against the
stacked dictionary [lambda*I; P] @ D, refreshing P each outer iteration
with one of the projection optimizers; its sweep maps every updated
stacked atom back to signal space through the overdetermined system
(lambda^2*I + P.T P) d = [lambda*I, P.T] d_stacked.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from .errors import SingularSystem
from .linalg import ZERO_TOL, as_matrix, dpocon, dpotrf, dpotrs, normalize_columns, top_eigh
from .matrixio import Trace
from .optimizers import Arm, design
from .pursuit import omp

# Unit atoms whose |inner product| exceeds this count as duplicates.
DUPLICATE_CAP = 0.99


def sparse_code(signals: np.ndarray, D: np.ndarray, S: int) -> np.ndarray:
    """Code every column of ``signals`` against D with S-sparse OMP, as one block."""
    return omp(D, signals, S).theta_hat


def atom_update_sweep(
    X: np.ndarray,
    D: np.ndarray,
    Theta: np.ndarray,
    rng: np.random.Generator,
    backmap: tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]] | None = None,
) -> list[int]:
    """One in-place pass of rank-one atom updates; returns re-initialized atom indices.

    For every atom j used by at least one signal, the restricted residual
    E (with atom j's contribution added back) is fitted by its dominant
    singular pair, read off the small Gram E Eᵀ: the lifted atom becomes its
    top eigenvector u (first nonzero component positive), and the nonzero
    coefficients become Eᵀu, which is sigma1 times the right singular
    vector.  The support of each coefficient row never grows.  Unused
    atoms are replaced by the worst-represented training columns, mapped
    back and normalized, one column per atom; once every column is taken,
    the rest are drawn at random.

    ``backmap = (W, solve)`` runs the sweep on a lifted problem: X is
    fitted by (W @ D) @ Theta, and every lifted atom or training column u
    returns to the columns of D as solve(u), normalized, with the
    coefficient row scaled by the norm it had.  An atom whose solve is
    numerically zero has its row cleared and is then re-seeded like an
    unused atom.  Without a backmap the lift is the identity, W = I and
    solve(u) = u: plain K-SVD.
    """
    W, solve = backmap if backmap is not None else (np.eye(D.shape[0]), _identity)
    A = W @ D  # the dictionary that X is fitted by
    R = X - A @ Theta
    replaced: list[int] = []
    seeds: list[int] = []  # training columns that re-seeded an atom in this pass
    for j in range(D.shape[1]):
        row = Theta[j]
        omega = row.nonzero()[0]
        if omega.size:
            E = R.take(omega, axis=1)
            E += A[:, j, None] * row[omega]
            u = top_eigh(E @ E.T, 1)[1][:, 0]
            d = solve(u)
            nrm = math.sqrt(d.dot(d))  # np.linalg.norm of a vector, bit for bit
            if nrm > ZERO_TOL:
                D[:, j] = d / nrm
                coef = u @ E
                coef *= nrm
                Theta[j, omega] = coef
                A[:, j] = W @ D[:, j]
                E -= A[:, j, None] * coef
                R[:, omega] = E
                continue
            Theta[j, omega] = 0.0  # emptied: its share returns to R, and it is unused
            R[:, omega] = E
        D[:, j] = _reseed_atom(X, R, seeds, rng, D.shape[0], solve)
        A[:, j] = W @ D[:, j]
        replaced.append(j)
    return replaced


def _identity(u: np.ndarray) -> np.ndarray:
    return u


def _reseed_atom(X, R, seeds: list[int], rng, n: int, solve) -> np.ndarray:
    """The one re-seed rule: the worst-represented column of X (by R) not yet
    in ``seeds``, ties to the smallest index, mapped by ``solve`` and made unit;
    it joins ``seeds``.  A random atom once every column is taken, or if it is zero.
    """
    if len(seeds) < X.shape[1]:
        err = np.sum(R * R, axis=0)
        err[seeds] = -1.0
        seeds.append(int(np.argmax(err)))
        worst = X[:, seeds[-1]]
        nrm = float(np.linalg.norm(d := solve(worst)))
        if nrm > ZERO_TOL:
            return d / nrm
    d = rng.standard_normal(n)
    return d / np.linalg.norm(d)


def purge_duplicate_atoms(
    X: np.ndarray,
    D: np.ndarray,
    Theta: np.ndarray,
    rng: np.random.Generator,
) -> list[int]:
    """Break up near-duplicate atom pairs (in place); returns replaced indices.

    Two unit atoms with |inner product| above ``DUPLICATE_CAP`` represent
    the same direction.  Pairs are read off one Gram in row-major order,
    skipping atoms already replaced; the later atom of each pair is
    re-seeded by :func:`atom_update_sweep`'s rule for unused atoms and its
    coefficient row is cleared, so the next coding pass can redistribute
    the work.
    """
    R = X - D @ Theta
    seeds: list[int] = []
    replaced: list[int] = []
    for i, j in zip(*np.nonzero(np.triu(np.abs(D.T @ D) > DUPLICATE_CAP, 1))):
        if i not in replaced and j not in replaced:
            D[:, j] = _reseed_atom(X, R, seeds, rng, D.shape[0], _identity)
            Theta[j] = 0.0
            replaced.append(int(j))
    return replaced


def _start(X, k: int, S: int, iterations: int, seed: int):
    """Check a learner's arguments and X; returns (X, rng, seeded unit-norm starting D)."""
    for name, value, low in (("k", k, 1), ("S", S, 1), ("iterations", iterations, 1), ("seed", seed, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}")
    X = as_matrix(X, "training signals")
    n, p = X.shape
    if p < k:
        warnings.warn(f"only {p} training signals for {k} atoms; expect poor training")
    rng = np.random.default_rng(seed)
    return X, rng, normalize_columns(rng.standard_normal((n, k)))


def ksvd(X, k: int, S: int, iterations: int, seed: int) -> tuple[np.ndarray, np.ndarray, Trace]:
    """Learn an n x k dictionary by alternating OMP coding and atom updates.

    Returns ``(D, Theta, trace)`` where the trace holds the representation
    error ||X - D Theta||_F^2 after each outer iteration.  Degenerate
    events (unused atoms, duplicate atoms) are repaired by re-seeding the
    offending atom with the worst-represented training column and show up
    in ``trace.replacements``.
    """
    X, rng, D = _start(X, k, S, iterations, seed)
    objective = np.empty(iterations)
    replacements: list[tuple[int, int]] = []
    for it in range(iterations):
        Theta = sparse_code(X, D, S)
        for j in atom_update_sweep(X, D, Theta, rng):
            replacements.append((it, j))
        R = X - D @ Theta
        objective[it] = float(np.sum(R * R))
        if it < iterations - 1:
            # Repair degenerate (merged) atoms between iterations; skipping
            # the last one keeps the returned D, Theta consistent with the
            # recorded objective.
            for j in purge_duplicate_atoms(X, D, Theta, rng):
                replacements.append((it, j))
    return D, Theta, Trace({"objective": objective}, replacements=tuple(replacements))


def coupled_ksvd(
    X, Y, k: int, S: int, iterations: int, seed: int, *, lam: float, inner: Arm
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Trace]:
    """Jointly learn projection P and dictionary D from signals X (n x p)
    and their measurements Y (m x p).

    Per outer iteration (at most ``iterations``): refresh the m x n P on
    the current D with the ``inner`` arm (sapiro, elad, altproj, or fixed);
    S-sparse OMP-code the stacked data [lam*X; Y] against [lam*I; P] @ D;
    run :func:`atom_update_sweep` on the stacked problem, recovering each
    signal-space atom through the overdetermined solve and renormalizing
    (coefficient row picks up the pre-normalization atom norm).

    Stops early when the stacked objective ||Z - W D Theta||_F^2 improves
    by less than a relative 1e-6.

    Returns ``(P, D, Theta, trace)``; the trace records both error terms
    per outer iteration: ``term1`` = ||X - D Theta||_F^2 and ``term2`` =
    ||Y - P D Theta||_F^2.

    Raises
    ------
    SingularSystem
        If lam^2 I + P.T @ P is numerically singular (lam = 0 with a
        rank-deficient P): its Cholesky factorization fails, or LAPACK's
        estimate of its reciprocal 1-norm condition number is at most 1e-12.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be in [0, 1]")
    X, rng, D = _start(X, k, S, iterations, seed)
    Y = as_matrix(Y, "projected samples")
    if Y.shape[1] != X.shape[1]:
        raise ValueError("X and Y must have the same number of columns")
    m, n = Y.shape[0], X.shape[0]

    # The stacked data and lam^2 I do not change across outer iterations.
    # `+ 0.0` canonicalizes -0.0 from lam * (negative): at lam = 0 the top
    # block must not leak X's sign bits into LAPACK branch choices, or
    # Theta loses its exact invariance to X.
    Z = np.vstack([lam * X + 0.0, Y])
    lam_eye = lam * np.eye(n)
    lam2_eye = lam * lam * np.eye(n)
    term1_hist: list[float] = []
    term2_hist: list[float] = []
    replacements: list[tuple[int, int]] = []
    prev_obj = np.inf
    for it in range(iterations):
        P = design(inner, D, m)[0]

        M = lam2_eye + P.T @ P
        L, info = dpotrf(M, lower=1, clean=0)
        if info or dpocon(L, np.linalg.norm(M, 1), uplo="L")[0] <= 1e-12:
            raise SingularSystem("lam^2 I + P.T P is numerically singular")

        W = np.vstack([lam_eye, P])
        Theta = sparse_code(Z, W @ D, S)
        backmap = (W, lambda u: dpotrs(L, W.T @ u, lower=1)[0])
        for j in atom_update_sweep(Z, D, Theta, rng, backmap):
            replacements.append((it, j))

        dtheta = D @ Theta
        t1 = float(np.sum((X - dtheta) ** 2))
        t2 = float(np.sum((Y - P @ dtheta) ** 2))
        term1_hist.append(t1)
        term2_hist.append(t2)
        obj = lam * lam * t1 + t2
        # Convergence = small relative CHANGE.  The projection refresh can
        # bump the second term upward (it optimizes incoherence, not the
        # fit to Y), so a one-sided improvement test would stop at the
        # first such bump instead of riding through it.
        if abs(prev_obj - obj) < 1e-6 * max(prev_obj, 1e-300):
            break
        prev_obj = obj

    trace = Trace({"term1": term1_hist, "term2": term2_hist}, replacements=tuple(replacements))
    return P, D, Theta, trace
