"""Self-contained dense linear programming for the l1-minimization step.

Solves the standard form

    minimize    c @ x
    subject to  A @ x = b,  x >= 0

with a Mehrotra-style predictor-corrector primal-dual interior-point
method on the normal equations.  Fully deterministic: no randomized
pivoting, no external solver.  Problems here are small and dense (the
split l1 program is at most a few hundred variables), so Cholesky on
A @ diag(d) @ A.T per iteration is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    """Cholesky solve with escalating diagonal jitter for near-singular M."""
    if not np.all(np.isfinite(M)):
        # Jitter cannot repair overflow; let the caller treat this as a
        # numerical breakdown of the current iterate.
        raise np.linalg.LinAlgError("normal equations contain non-finite entries")
    scale = float(np.trace(M)) / M.shape[0]
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    jitter = 0.0
    for _ in range(8):
        try:
            cf = scipy.linalg.cho_factor(
                M + jitter * np.eye(M.shape[0]) if jitter else M, lower=True
            )
            return lambda rhs: scipy.linalg.cho_solve(cf, rhs)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-13 * scale)
    raise np.linalg.LinAlgError("normal equations not factorizable even with jitter")


def _step_length(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha*dv >= 0 (inf when dv never decreases v)."""
    neg = dv < 0.0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


def solve_standard_lp(c, A, b) -> LPResult:
    """Predictor-corrector interior-point solve of min c@x s.t. A@x = b, x >= 0.

    Convergence requires relative primal and dual infeasibility and the
    relative duality gap all at or below ``TOL`` within ``MAX_ITER``
    iterations.  The last iterate and its iteration count are reported
    either way; callers certify the solution against their own tolerance.
    """
    c = np.asarray(c, dtype=float).ravel()
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    n_rows, n_vars = A.shape
    if c.size != n_vars or b.size != n_rows:
        raise ValueError("inconsistent LP dimensions")

    bnorm = 1.0 + np.linalg.norm(b)
    cnorm = 1.0 + np.linalg.norm(c)

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
        s = s + 0.5 * mu0 / float(x.sum())
    else:
        x = np.ones(n_vars)
        s = np.ones(n_vars)

    def residuals(x, lam, s):
        rb = A @ x - b
        rc = A.T @ lam + s - c
        cx = float(c @ x)
        mu = float(x @ s) / n_vars
        pinf = float(np.linalg.norm(rb)) / bnorm
        dinf = float(np.linalg.norm(rc)) / cnorm
        gap = abs(cx - float(b @ lam)) / (1.0 + abs(cx))
        ok = pinf <= TOL and dinf <= TOL and min(gap, mu / (1.0 + abs(cx))) <= TOL
        return rb, rc, mu, ok

    def newton(rxs):
        # (dx, dlam, ds) for complementarity target rxs at the current
        # iterate: predictor and corrector share its factorization, solve.
        w = (rxs + x * rc) / s
        dlam = solve(-rb - A @ w)
        return w + d * (A.T @ dlam), dlam, -rc - A.T @ dlam

    for iterations in range(1, MAX_ITER + 1):
        rb, rc, mu, converged = residuals(x, lam, s)
        if converged:
            break

        # Near-degenerate complementary pairs can overflow x/s; any
        # non-finite quantity below means the iterate is as good as it
        # gets, so keep it and stop rather than poison the factorization.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            d = x / s
            if not np.all(np.isfinite(d)):
                break
            try:
                solve = _chol_solve_factory((A * d) @ A.T)
            except np.linalg.LinAlgError:
                break

            # Predictor (affine scaling) direction.
            dx_a, _, ds_a = newton(-x * s)
            if not (np.all(np.isfinite(dx_a)) and np.all(np.isfinite(ds_a))):
                break
            alpha_p = min(1.0, _step_length(x, dx_a))
            alpha_d = min(1.0, _step_length(s, ds_a))
            mu_aff = float((x + alpha_p * dx_a) @ (s + alpha_d * ds_a)) / n_vars
            sigma = min(max((mu_aff / mu) ** 3, 0.0), 1.0) if mu > 0.0 else 0.0
            if not np.isfinite(sigma):
                break

            # Corrector direction with centering.
            dx, dlam, ds = newton(sigma * mu - x * s - dx_a * ds_a)

            eta = min(max(0.995, 1.0 - mu), 0.99995)
            alpha_p = min(1.0, eta * _step_length(x, dx))
            alpha_d = min(1.0, eta * _step_length(s, ds))
            if alpha_p <= 0.0 or alpha_d <= 0.0:
                break
            x_new = x + alpha_p * dx
            lam_new = lam + alpha_d * dlam
            s_new = s + alpha_d * ds
        if not (
            np.all(np.isfinite(x_new))
            and np.all(np.isfinite(s_new))
            and np.all(np.isfinite(lam_new))
        ):
            break
        x, lam, s = x_new, lam_new, s_new
    else:
        # Ran out of iterations; the final step may still have converged.
        *_, converged = residuals(x, lam, s)

    return LPResult(x=x, lam=lam, iterations=iterations, converged=converged)
