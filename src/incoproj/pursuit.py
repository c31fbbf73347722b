"""Sparse recovery: OMP and Basis Pursuit.

These solvers are the benchmark's reconstruction engines; below sparsity
(1 + 1/mu) / 2 both must recover the unique sparsest solution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, column_norms
from .lp import solve_standard_lp

# Certificate tolerance of basis_pursuit.
LP_TOL = 1e-7
# OMP stops once the residual norm is at most this fraction of ||y||.
RESIDUAL_TOL = 1e-9


class RecoveryStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class RecoveryResult:
    """What a solver returns for one measurement vector, or for an m x B block.

    ``theta_hat`` is the length-k estimate, or k x B with one column per
    measurement of a block; OMP solves a vector as a one-column block and
    returns that column.  ``iterations_or_pivots`` counts the atoms OMP
    selected (over every column of a block) or BP's interior-point
    iterations.  A block's ``status`` is CONVERGED only when every column
    converged.
    """

    theta_hat: np.ndarray
    iterations_or_pivots: int
    status: RecoveryStatus


def _problem(Dhat, y, block: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``Dhat`` as a finite float matrix and ``y`` as finite float measurements of its
    row count: a vector, or an m x B block when ``block`` is set."""
    Dh = as_matrix(Dhat, "effective dictionary")
    y = np.asarray(y, dtype=float)
    if not block:
        y = y.ravel()
    if y.shape[0] != Dh.shape[0]:
        raise ValueError("measurement length does not match matrix rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurement contains non-finite entries")
    return Dh, y


def omp(Dhat, y, S: int) -> RecoveryResult:
    """Orthogonal Matching Pursuit with an exact least-squares fit on each grown support.

    Selects the column with the largest normalized correlation against the
    current residual (ties go to the smallest index), re-fits on the grown
    support, and stops at support size ``S``, at residual norm at or below
    ``RESIDUAL_TOL * ||y||``, or when the residual is orthogonal to every
    unused column.

    ``y`` is one measurement vector, or an m x B block (``np.ndim(y) == 2``)
    whose columns are pursued in lockstep, each by the same rules; a vector
    is pursued as a one-column block, and the dictionary is checked once
    for the whole block.  See :class:`RecoveryResult` for what each field
    holds for a block.
    """
    block = np.ndim(y) == 2
    Dh, y = _problem(Dhat, y, block)
    if S < 0:
        raise ValueError("sparsity budget must be >= 0")
    res = _omp_block(Dh, y if block else y[:, None], S, column_norms(Dh, "effective dictionary"))
    return res if block else RecoveryResult(res.theta_hat[:, 0], res.iterations_or_pivots, res.status)


def _omp_block(Dh: np.ndarray, Y: np.ndarray, S: int, norms: np.ndarray) -> RecoveryResult:
    """OMP on every column of Y in lockstep, after Batch-OMP (Rubinstein, Zibulevsky & Elad 2008).

    All growing columns hold supports of one size, so each step selects one
    atom per column from one product ``R @ Dh``.  Each support is kept as
    ``Dh[:, support] = Q.T @ U`` with orthonormal rows in ``Q``: the new
    atom is orthogonalized against them by twice-applied Gram-Schmidt, the
    residual is the signal minus its projection on Q, and a column's
    coefficients come from one triangular solve when it stops growing.
    """
    m, k = Dh.shape
    S = min(S, k)  # a support holds at most k atoms; the buffers below are sized by S
    B = Y.shape[1]
    Theta = np.zeros((k, B))
    # The columns still growing: their indices, signals (one per row) and tolerances.
    cols, Yc = np.arange(B), Y.T.copy()
    tol = tols = RESIDUAL_TOL * np.sqrt(np.vecdot(Yc, Yc))
    R = Yc  # their residuals
    rows = np.arange(0, k * B, k)  # where row i of a scores matrix starts, flattened
    # Step s fills slice s of each buffer; only U's upper triangle is read.
    Q = np.empty((B, S, m))
    U = np.empty((B, S, S))
    z = np.empty((B, S))  # Q @ signal
    support = np.empty((B, S), dtype=int)
    used = np.zeros((B, k), dtype=bool)  # the atoms each support holds
    scores_buf = np.empty((B, k))  # each step's scores fill its first rows
    atoms = 0
    for s in range(S):
        rnorm = np.sqrt(np.vecdot(R, R))  # per row, np.linalg.norm of a vector bit for bit
        scores = np.matmul(R, Dh, out=scores_buf[: cols.size])
        np.abs(scores, out=scores)
        np.divide(scores, norms, out=scores)
        np.copyto(scores, -1.0, where=used)
        j = scores.argmax(axis=1)  # first occurrence: smallest index on ties
        at = rows[: cols.size] + j
        grow = (rnorm > tols) & (scores.reshape(-1)[at] > 1e-13 * np.maximum(rnorm, 1e-300))
        used.reshape(-1)[at] = True  # a column that stops here is dropped below
        if not grow.all():
            _place(Theta, cols[~grow], support[~grow, :s], U[~grow, :s, :s], z[~grow, :s])
            cols, Yc, tols, Q, U, z, support, used, j = (
                a[grow] for a in (cols, Yc, tols, Q, U, z, support, used, j))
            if not cols.size:
                break
        v = Dh.T[j]  # the new atoms, one per row (a copy)
        if s:
            Qs = Q[:, :s]
            h = np.matvec(Qs, v)
            v -= np.vecmat(h, Qs)
            c = np.matvec(Qs, v)
            v -= np.vecmat(c, Qs)
            U[:, :s, s] = h + c
        diag = np.sqrt(np.vecdot(v, v))
        Q[:, s] = v / diag[:, None]
        U[:, s, s] = diag
        z[:, s] = np.vecdot(Q[:, s], Yc)
        support[:, s] = j
        R = Yc - np.vecmat(z[:, : s + 1], Q[:, : s + 1])
        atoms += cols.size
    else:  # every step ran: place the columns still growing
        _place(Theta, cols, support, U, z)

    E = Y - Dh @ Theta
    residual = np.sqrt(np.vecdot(E, E, axis=0))
    status = RecoveryStatus.CONVERGED if (residual <= tol).all() else RecoveryStatus.MAX_ITER
    return RecoveryResult(Theta, atoms, status)


def _place(Theta: np.ndarray, cols: np.ndarray, support: np.ndarray, U: np.ndarray, z: np.ndarray) -> None:
    """Solve U @ coef = z per column by back substitution; write coef into Theta."""
    coef = np.empty_like(z)
    for i in reversed(range(z.shape[1])):
        tail = np.vecdot(U[:, i, i + 1 :], coef[:, i + 1 :])
        coef[:, i] = (z[:, i] - tail) / U[:, i, i]
    Theta[support, cols[:, None]] = coef


def basis_pursuit(Dhat, y) -> RecoveryResult:
    """l1-minimal solution of Dhat @ theta = y via the split u - v linear program.

    The program min 1@(u+v) s.t. [Dhat, -Dhat]@[u; v] = y, u,v >= 0 is
    solved with the in-package interior-point method and the answer is
    certified: equality residual, dual feasibility, duality gap, and the
    match between ||theta||_1 and the LP objective must all be within
    ``LP_TOL``.  Status is INFEASIBLE when y is not in the column span,
    MAX_ITER when the solver stopped without a certificate.
    """
    Dh, y = _problem(Dhat, y)
    k = Dh.shape[1]
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        return RecoveryResult(np.zeros(k), 0, RecoveryStatus.CONVERGED)

    z, *_ = np.linalg.lstsq(Dh, y, rcond=None)
    if float(np.linalg.norm(Dh @ z - y)) > LP_TOL * max(1.0, ynorm):
        return RecoveryResult(np.zeros(k), 0, RecoveryStatus.INFEASIBLE)

    A = np.hstack([Dh, -Dh])
    c = np.ones(2 * k)
    res = solve_standard_lp(c, A, y)
    theta = res.x[:k] - res.x[k:]

    objective = float(c @ res.x)
    primal_ok = float(np.linalg.norm(Dh @ theta - y)) <= LP_TOL * max(1.0, ynorm)
    dual_ok = float(np.max(np.abs(Dh.T @ res.lam))) <= 1.0 + LP_TOL
    gap_ok = abs(objective - float(y @ res.lam)) <= LP_TOL * (1.0 + abs(objective))
    l1_ok = abs(float(np.sum(np.abs(theta))) - objective) <= LP_TOL * (1.0 + abs(objective))
    certified = primal_ok and dual_ok and gap_ok and l1_ok

    if certified:
        # Zero out numerically-dead entries, keeping feasibility intact.
        peak = float(np.max(np.abs(theta)))
        if peak > 0.0:
            cleaned = np.where(np.abs(theta) < 1e-8 * peak, 0.0, theta)
            if float(np.linalg.norm(Dh @ cleaned - y)) <= LP_TOL * max(1.0, ynorm):
                theta = cleaned

    status = RecoveryStatus.CONVERGED if certified else RecoveryStatus.MAX_ITER
    return RecoveryResult(theta, res.iterations, status)
