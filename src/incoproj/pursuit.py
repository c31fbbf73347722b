"""Sparse recovery: OMP, Basis Pursuit, and an exhaustive l0 oracle.

These solvers double as benchmark reconstruction engines and as the
verification oracles for the uniqueness / recovery guarantee at sparsity
below (1 + 1/mu) / 2.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import NotFound, TooLarge
from .linalg import as_matrix, column_norms
from .lp import solve_standard_lp

# Certificate tolerance of basis_pursuit.
LP_TOL = 1e-7
# OMP stops once the residual norm is at most this fraction of ||y||.
RESIDUAL_TOL = 1e-9
# Supports enumerated by the exhaustive oracle are capped at this count.
ENUMERATION_GUARD = 10**6


class RecoveryStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class RecoveryResult:
    theta_hat: np.ndarray  # length k
    iterations_or_pivots: int
    status: RecoveryStatus
    unique: bool | None = None


def _problem(Dhat, y) -> tuple[np.ndarray, np.ndarray]:
    """``Dhat`` as a finite float matrix and ``y`` as a finite float vector of its row count."""
    Dh = as_matrix(Dhat, "effective dictionary")
    y = np.asarray(y, dtype=float).ravel()
    if y.size != Dh.shape[0]:
        raise ValueError("measurement length does not match matrix rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurement contains non-finite entries")
    return Dh, y


def omp(Dhat, y, S: int) -> RecoveryResult:
    """Orthogonal Matching Pursuit with full least-squares re-solve per step.

    Selects the column with the largest normalized correlation against the
    current residual (ties go to the smallest index), re-fits on the grown
    support, and stops at support size ``S`` or residual norm at or below
    ``RESIDUAL_TOL * ||y||``.
    """
    Dh, y = _problem(Dhat, y)
    if S < 0:
        raise ValueError("sparsity budget must be >= 0")
    norms = column_norms(Dh, "effective dictionary")
    tol = RESIDUAL_TOL * float(np.linalg.norm(y))

    support: list[int] = []
    coef = np.empty(0)
    r = y.copy()
    while len(support) < S and float(np.linalg.norm(r)) > tol:
        scores = np.abs(Dh.T @ r) / norms
        if support:
            scores[support] = -1.0
        j = int(np.argmax(scores))  # first occurrence: smallest index on ties
        if scores[j] <= 1e-13 * max(float(np.linalg.norm(r)), 1e-300):
            break  # residual orthogonal to every unused column; no progress possible
        support.append(j)
        sub = Dh[:, support]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        r = y - sub @ coef

    theta = np.zeros(Dh.shape[1])
    if support:
        theta[support] = coef
    residual = float(np.linalg.norm(y - Dh @ theta))
    status = RecoveryStatus.CONVERGED if residual <= tol else RecoveryStatus.MAX_ITER
    return RecoveryResult(theta, len(support), status)


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


def exhaustive_sparsest(Dhat, y, S_max: int, tol: float) -> RecoveryResult:
    """Brute-force minimum-l0 oracle: try every support of size 1, 2, ... S_max.

    Returns the first (smallest) support size with least-squares residual
    at or below ``tol``; the lexicographically first such support supplies
    the coefficients.  The ``unique`` flag is True when every admissible
    support of the winning size yields the same coefficient vector (entry
    differences within ``tol``).

    Raises
    ------
    TooLarge
        If the number of candidate supports exceeds 10^6.
    NotFound
        If no support of size <= S_max fits.
    """
    Dh, y = _problem(Dhat, y)
    k = Dh.shape[1]
    if S_max < 0:
        raise ValueError("S_max must be >= 0")
    total = sum(comb(k, s) for s in range(1, S_max + 1))
    if total > ENUMERATION_GUARD:
        raise TooLarge(f"{total} supports to enumerate exceeds {ENUMERATION_GUARD}")

    if float(np.linalg.norm(y)) <= tol:
        return RecoveryResult(np.zeros(k), 1, RecoveryStatus.CONVERGED, unique=True)

    tested = 0
    for s in range(1, S_max + 1):
        hits: list[np.ndarray] = []
        for support in itertools.combinations(range(k), s):
            tested += 1
            sub = Dh[:, support]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            if float(np.linalg.norm(y - sub @ coef)) <= tol:
                theta = np.zeros(k)
                theta[list(support)] = coef
                hits.append(theta)
        if hits:
            first = hits[0]
            unique = all(float(np.max(np.abs(h - first))) <= tol for h in hits[1:])
            return RecoveryResult(first, tested, RecoveryStatus.CONVERGED, unique=unique)
    raise NotFound(f"no support of size <= {S_max} fits within tol={tol}")
