"""Self-contained dense linear programming for the l1-minimization step.

Solves the standard form

    minimize    c @ x
    subject to  A @ x = b,  x >= 0

with a Mehrotra-style predictor-corrector primal-dual interior-point
method on the normal equations.  Fully deterministic: no randomized
pivoting, no external solver.  Problems here are small and dense (the
split l1 program is at most a few hundred variables), so Cholesky on
A @ diag(d) @ A.T per iteration is the right tool.

An iteration at that size costs its numpy calls, not their arithmetic, so x
and the dual slack s are the halves of one array z: one divide gives both step
lengths of a stacked direction dz, and one update and one check move z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import dpotrf, dpotrs

# Stopping tolerance on relative infeasibility and duality gap: at most
# 1% of pursuit.LP_TOL, so that basis_pursuit's certificate has room.
TOL = 1e-10
# Iteration cap; a solve that reaches it reports converged=False.  The
# benchmark tracer (perfbench/tracer.py) counts cap hits against 100.
MAX_ITER = 100


@dataclass(frozen=True)
class LPResult:
    x: np.ndarray
    lam: np.ndarray  # dual variables of the equality constraints
    iterations: int
    converged: bool


def _chol_solve_factory(M: np.ndarray):
    """LAPACK Cholesky solve (dpotrf/dpotrs), escalating diagonal jitter for near-singular M."""
    if not np.isfinite(M).all():
        # Jitter cannot repair overflow; the caller treats this as a breakdown of its iterate.
        raise np.linalg.LinAlgError("normal equations contain non-finite entries")
    L, info = dpotrf(M, lower=1, clean=0)
    if info:
        scale = float(np.trace(M)) / M.shape[0]
        jitter = 1e-13 * (scale if math.isfinite(scale) and scale > 0.0 else 1.0)
        for _ in range(7):
            L, info = dpotrf(M + jitter * np.eye(M.shape[0]), lower=1, clean=0)
            if info == 0:
                break
            jitter *= 100.0
        else:
            raise np.linalg.LinAlgError("normal equations not factorizable even with jitter")
    return lambda rhs: dpotrs(L, rhs, lower=1)[0]


def _centering(mu_aff: float, mu: float) -> float:
    """Mehrotra's sigma = (mu_aff/mu)**3 in [0, 1], 0 unless mu > 0; a cube past the float range clamps."""
    try:
        cube = (mu_aff / mu) ** 3 if mu > 0.0 else 0.0
    except OverflowError:
        cube = math.copysign(math.inf, mu_aff)
    return min(max(cube, 0.0), 1.0)


def solve_standard_lp(c, A, b) -> LPResult:
    """Predictor-corrector interior-point solve of min c@x s.t. A@x = b, x >= 0.

    Convergence requires relative primal and dual infeasibility and the
    relative duality gap all at or below ``TOL`` within ``MAX_ITER``
    iterations.  The loop ends when it converges, when the normal matrix is
    refused, at a non-positive step, at a non-finite iterate, or at the cap;
    the last iterate and its iteration count are reported either way.
    Callers certify the solution against their own tolerance.
    Sizes are not checked: :func:`~incoproj.pursuit.basis_pursuit` passes checked arrays.
    """
    n_vars = A.shape[1]
    bnorm, cnorm = 1.0 + np.linalg.norm(b), 1.0 + np.linalg.norm(c)

    # Starting point (least-squares heuristic, shifted into the positive orthant).
    solve0 = _chol_solve_factory(A @ A.T)
    x = A.T @ solve0(b)
    lam = solve0(A @ c)
    s = c - A.T @ lam
    x += max(-1.5 * float(x.min(initial=0.0)), 0.0)
    s += max(-1.5 * float(s.min(initial=0.0)), 0.0)
    mu0 = float(x @ s)
    if mu0 > 0.0 and float(x.sum()) > 0.0 and float(s.sum()) > 0.0:
        x = x + 0.5 * mu0 / float(s.sum())
        z = np.concatenate((x, s + 0.5 * mu0 / float(x.sum())))
    else:
        z = np.ones(2 * n_vars)
    x, s = z[:n_vars], z[n_vars:]

    def residuals():
        # Negated residuals, mu and the stopping test; sqrt(v @ v) is np.linalg.norm bit for bit.
        r_b, r_c, mu = b - A @ x, c - (A.T @ lam + s), float(x @ s) / n_vars
        if not (math.sqrt(float(r_b @ r_b)) / bnorm <= TOL and math.sqrt(float(r_c @ r_c)) / cnorm <= TOL):
            return r_b, r_c, mu, False
        cx = float(c @ x)
        gap = abs(cx - float(b @ lam)) / (1.0 + abs(cx))
        return r_b, r_c, mu, min(gap, mu / (1.0 + abs(cx))) <= TOL

    def newton(rxs):
        # (dz, dlam) for complementarity target rxs; predictor and corrector share solve.
        w = (rxs - x_rc) / s
        dlam = solve(r_b - A @ w)
        At_dlam = A.T @ dlam
        return np.concatenate((w + d * At_dlam, r_c - At_dlam)), dlam

    def step_lengths(dz, eta=1.0):
        # Largest primal and dual steps keeping z >= 0, times eta and capped at 1.
        alpha_p, alpha_d = np.where(dz < 0.0, neg_z / dz, np.inf).reshape(2, n_vars).min(axis=1).tolist()
        return min(1.0, eta * alpha_p), min(1.0, eta * alpha_d)

    # Near-degenerate complementary pairs can overflow x/s; any non-finite quantity means the
    # iterate is as good as it gets, so keep it and stop rather than poison the factorization.
    # A non-finite x/s makes the normal matrix non-finite, which _chol_solve_factory refuses;
    # a non-finite predictor or sigma makes dz non-finite, which the step or iterate check ends.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for iterations in range(1, MAX_ITER + 1):
            r_b, r_c, mu, converged = residuals()
            if converged:
                break
            d, xs, x_rc, neg_z = x / s, x * s, x * r_c, -z
            try:
                solve = _chol_solve_factory((A * d) @ A.T)
            except np.linalg.LinAlgError:
                break

            # Predictor (affine scaling) direction.
            dz_a, _ = newton(-xs)
            alpha_p, alpha_d = step_lengths(dz_a)
            mu_aff = float((x + alpha_p * dz_a[:n_vars]) @ (s + alpha_d * dz_a[n_vars:])) / n_vars
            sigma = _centering(mu_aff, mu)

            # Corrector direction with centering.
            dz, dlam = newton(sigma * mu - xs - dz_a[:n_vars] * dz_a[n_vars:])
            alpha_p, alpha_d = step_lengths(dz, min(max(0.995, 1.0 - mu), 0.99995))
            if alpha_p <= 0.0 or alpha_d <= 0.0:
                break
            dz[:n_vars] *= alpha_p
            dz[n_vars:] *= alpha_d
            z_new, lam_new = z + dz, lam + alpha_d * dlam
            if not (np.isfinite(z_new).all() and np.isfinite(lam_new).all()):
                break
            z, lam = z_new, lam_new
            x, s = z[:n_vars], z[n_vars:]
        else:  # ran out of iterations; the final step may still have converged
            *_, converged = residuals()

    return LPResult(x=x, lam=lam, iterations=iterations, converged=converged)
