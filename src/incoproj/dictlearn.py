"""Dictionary learning: K-SVD and its coupled variant that co-trains the
projection matrix.

Both learners alternate OMP sparse coding with one sweep of rank-one atom
updates (:func:`atom_update_sweep`).  The coupled variant works on the
stacked data [lambda*X; Y] against the stacked dictionary [lambda*I; P] @ D,
refreshing P each outer iteration with one of the projection optimizers;
its sweep maps every updated stacked atom back to signal space through the
overdetermined system (lambda^2*I + P.T P) d = [lambda*I, P.T] d_stacked.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import SingularSystem
from .linalg import ZERO_TOL, as_matrix, normalize_columns
from .matrixio import Trace
from .optimizers import Arm, design
from .pursuit import omp

# Unit atoms whose |inner product| exceeds this count as duplicates.
DUPLICATE_CAP = 0.99


def sparse_code(signals: np.ndarray, D: np.ndarray, S: int) -> np.ndarray:
    """Code every column of ``signals`` against D with S-sparse OMP."""
    k = D.shape[1]
    p = signals.shape[1]
    Theta = np.zeros((k, p))
    for i in range(p):
        Theta[:, i] = omp(D, signals[:, i], S).theta_hat
    return Theta


def _fix_svd_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nz = np.flatnonzero(u)
    if nz.size and u[nz[0]] < 0:
        return -u, -v
    return u, v


def atom_update_sweep(
    X: np.ndarray,
    D: np.ndarray,
    Theta: np.ndarray,
    rng: np.random.Generator,
    backmap: tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]] | None = None,
) -> list[int]:
    """One in-place pass of rank-one atom updates; returns re-initialized atom indices.

    For every atom j used by at least one signal, the restricted residual
    (with atom j's contribution added back) is fitted by its dominant
    singular pair: the atom becomes the left singular vector, the nonzero
    coefficients become sigma1 times the right one.  The support of each
    coefficient row never grows.  Unused atoms are replaced by the
    worst-represented training columns, normalized, one column per atom;
    once every column is taken, the rest are drawn at random.

    ``backmap = (W, solve)`` runs the sweep on a lifted problem: X is
    fitted by (W @ D) @ Theta, and every lifted atom or training column u
    returns to the columns of D as solve(u), normalized, with the
    coefficient row scaled by the norm it had.  An atom whose solve is
    numerically zero is re-seeded at random and its row cleared.  Without
    a backmap the atom is u itself at scale exactly 1.0 (plain K-SVD).
    """
    W, solve = backmap if backmap is not None else (None, None)
    A = D if W is None else W @ D  # the dictionary that X is fitted by
    R = X - A @ Theta
    replaced: list[int] = []
    seeds: list[int] = []  # training columns that re-seeded an atom in this pass
    for j in range(D.shape[1]):
        row = Theta[j]
        omega = np.flatnonzero(row)
        if omega.size:
            E = R[:, omega] + np.outer(A[:, j], row[omega])
            U, sv, Vt = np.linalg.svd(E, full_matrices=False)
            u, v = _fix_svd_signs(U[:, 0], Vt[0])
            d, nrm = (u, 1.0) if solve is None else _with_norm(solve(u))
            if nrm > ZERO_TOL:
                D[:, j] = d / nrm
                Theta[j, omega] = sv[0] * v * nrm
                if W is not None:
                    A[:, j] = W @ D[:, j]
                R[:, omega] = E - np.outer(A[:, j], Theta[j, omega])
                continue
            Theta[j, omega] = 0.0
            R[:, omega] = E
        elif len(seeds) < X.shape[1]:
            # Unused atoms leave R as it is, so each one takes the worst
            # column not yet taken (ties go to the smallest index).
            err = np.sum(R * R, axis=0)
            err[seeds] = -1.0
            seeds.append(int(np.argmax(err)))
            worst = X[:, seeds[-1]]
            d, nrm = _with_norm(worst if solve is None else solve(worst))
        else:
            nrm = 0.0  # every column is taken: draw at random
        if nrm <= ZERO_TOL:
            d, nrm = _with_norm(rng.standard_normal(D.shape[0]))
        D[:, j] = d / nrm
        if W is not None:
            A[:, j] = W @ D[:, j]
        replaced.append(j)
    return replaced


def _with_norm(d: np.ndarray) -> tuple[np.ndarray, float]:
    return d, float(np.linalg.norm(d))


def purge_duplicate_atoms(
    X: np.ndarray,
    D: np.ndarray,
    Theta: np.ndarray,
    rng: np.random.Generator,
) -> list[int]:
    """Break up near-duplicate atom pairs (in place); returns replaced indices.

    Two unit atoms with |inner product| above ``DUPLICATE_CAP`` represent
    the same direction; the later one is re-seeded with the currently
    worst-represented training column (its coefficient row is cleared) so
    the next coding pass can redistribute the work.
    """
    k = D.shape[1]
    R = X - D @ Theta
    order = iter(np.argsort(-np.sum(R * R, axis=0)))
    replaced: list[int] = []
    for i in range(k):
        if i in replaced:
            continue
        for j in range(i + 1, k):
            if j in replaced:
                continue
            if abs(float(D[:, i] @ D[:, j])) > DUPLICATE_CAP:
                col = None
                for idx in order:
                    col = X[:, idx]
                    if float(np.linalg.norm(col)) > ZERO_TOL:
                        break
                if col is None or float(np.linalg.norm(col)) <= ZERO_TOL:
                    col = rng.standard_normal(X.shape[0])
                D[:, j] = col / float(np.linalg.norm(col))
                Theta[j, :] = 0.0
                replaced.append(j)
    return replaced


def _start(X, k: int, S: int, iterations: int, seed: int):
    """Check a learner's arguments and X; returns (X, rng, seeded unit-norm starting D)."""
    for name, value in (("k", k), ("S", S), ("iterations", iterations)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
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
        rank-deficient P).
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be in [0, 1]")
    X, rng, D = _start(X, k, S, iterations, seed)
    Y = as_matrix(Y, "projected samples")
    if Y.shape[1] != X.shape[1]:
        raise ValueError("X and Y must have the same number of columns")
    m, n = Y.shape[0], X.shape[0]

    term1_hist: list[float] = []
    term2_hist: list[float] = []
    replacements: list[tuple[int, int]] = []
    prev_obj = np.inf
    for it in range(iterations):
        P = design(inner, D, m)[0]

        M = lam * lam * np.eye(n) + P.T @ P
        w = np.linalg.eigvalsh(M)
        if w[-1] <= 0.0 or w[0] <= 1e-12 * w[-1]:
            raise SingularSystem("lam^2 I + P.T P is numerically singular")
        M_factor = scipy.linalg.cho_factor(M, lower=True)

        W = np.vstack([lam * np.eye(n), P])
        # `+ 0.0` canonicalizes -0.0 from lam * (negative): at lam = 0 the
        # top block must not leak X's sign bits into LAPACK branch choices,
        # or Theta loses its exact invariance to X.
        Z = np.vstack([lam * X + 0.0, Y])
        Theta = sparse_code(Z, W @ D, S)
        backmap = (W, lambda u: scipy.linalg.cho_solve(M_factor, W.T @ u))
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
